"""Stacked-array kernels shared by the fitting, uncertainty and simulation
code.  Internal: an input dataset reaches them checked once, by
`model.Dataset.from_columns`, which `dataio.load_arrays` and the
`AreaObservation` list path call; the studies build their simulated
`AreaArrays` directly.  The kernels work on plain ndarrays.

An `AreaArrays` has one shape rule: a dataset of m areas has fields z
(m,), w (m, p), psi (m,) and sigma (m, p, p), and a batch of B datasets
has the replicate axis leading on all four.  A batch whose datasets share
psi and sigma passes them as `np.broadcast_to` views.

The kernels are batched: each `*_batch` kernel runs B rows along a
leading axis, B datasets for `fit_batch` and B parameter sets for
`predict_batch`.  A replicate that fails a check gets the error it would
raise on its own and stops; the others go on, and the kernel returns
{row: error}, which a caller with one dataset passes to `raise_first`.
`batch_of_one` makes one dataset a batch, and `select_rows` takes
replicates, or areas of them, from a batch.

Three single-dataset views remain, each a batch kernel plus
`raise_first`: `fit_core`, `weighted_solve` and `predictions_and_m1`.
perfbench traces them by name, so they stay until it is re-pointed at the
batch kernels (ROADMAP item 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    InsufficientAreas,
    PredictionOverflow,
    SingularMomentMatrix,
)

# exp() stays inside double range only for exponents in [_EXP_MIN, _EXP_MAX]
_EXP_MAX = 709.782712893384  # log(largest double)
_EXP_MIN = -744.4400719213812  # log(smallest positive subnormal)
_COND_LIMIT = 1.0 / np.finfo(float).eps
# area-replicate cells per batch: bounds a batch's temporaries at large m
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True)
class AreaArrays:
    """Stacked areas: one dataset, or a batch of B datasets with the
    replicate axis leading on every field."""

    z: np.ndarray  # (m,) or (B, m)
    w: np.ndarray  # (m, p) or (B, m, p)
    psi: np.ndarray  # (m,) or (B, m)
    sigma: np.ndarray  # (m, p, p) or (B, m, p, p)

    @property
    def m(self) -> int:
        return self.z.shape[-1]

    @property
    def p(self) -> int:
        return self.w.shape[-1]


def stack(areas) -> AreaArrays:
    areas = list(areas)
    if not areas:
        raise InsufficientAreas("no areas given")
    p = areas[0].p
    for a in areas:
        if a.p != p:
            raise ValueError(
                f"{a.area_id}: covariate length {a.p} differs from {p}"
            )
    z = np.array([a.z for a in areas], dtype=float)
    w = np.array([a.w for a in areas], dtype=float)
    psi = np.array([a.psi for a in areas], dtype=float)
    sigma = np.array([a.sigma_me for a in areas], dtype=float)
    return AreaArrays(z, w, psi, sigma)


def drop_area(arr: AreaArrays, j: int) -> AreaArrays:
    # unused by the package; kept until perfbench/layers.py stops tracing it
    return AreaArrays(
        z=np.delete(arr.z, j, axis=0),
        w=np.delete(arr.w, j, axis=0),
        psi=np.delete(arr.psi, j, axis=0),
        sigma=np.delete(arr.sigma, j, axis=0),
    )


def batches(n: int, m: int) -> list[range]:
    """Consecutive ranges of ``n`` replicates of ``m`` areas, each at most
    ``_BATCH_CELLS`` cells (and at least one replicate)."""
    size = max(1, _BATCH_CELLS // m)
    return [range(start, min(start + size, n)) for start in range(0, n, size)]


# ------------------------------------------------------- per-replicate errors


def _first_flags(bad: np.ndarray):
    """(row, column) of the first flagged entry of each flagged row."""
    rows = np.flatnonzero(bad.any(axis=1))
    if not rows.size:
        return ()
    return zip(rows.tolist(), np.argmax(bad[rows], axis=1).tolist())


def ok_rows(n: int, errors: dict) -> np.ndarray:
    """The mask of the ``n`` rows that ``errors`` does not name."""
    ok = np.ones(n, dtype=bool)
    ok[list(errors)] = False
    return ok


def raise_first(errors: dict) -> None:
    """Raise the error of the lowest failed replicate, if any."""
    if errors:
        raise errors[min(errors)]


# ----------------------------------------------------------------- fitting


def quad_form(sigma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # beta' sigma_i beta per area, for betas (..., p); clip tiny negative
    # roundoff from PSD input
    return np.maximum(np.einsum("...ipq,...p,...q->...i", sigma, beta, beta), 0.0)


def _matvec(w: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # w_b @ beta_b for w (B, m, p) or (m, p) and beta (B, p): one BLAS call
    # per replicate, the same one as an unbatched `w @ beta`
    return np.matmul(w, beta[:, :, None])[:, :, 0]


def batch_of_one(arr: AreaArrays) -> AreaArrays:
    """One dataset as a batch of one: every field gains the replicate
    axis."""
    return AreaArrays(arr.z[None], arr.w[None], arr.psi[None], arr.sigma[None])


def select_rows(batch: AreaArrays, sel, areas=None) -> AreaArrays:
    """The replicates ``sel`` of a batch, indexed on every field alike (an
    integer ``sel`` gives one dataset); with ``areas``, row r keeps only
    the areas ``areas[r]`` of replicate ``sel[r]``."""
    rows = sel if areas is None else (np.asarray(sel)[:, None], areas)
    return AreaArrays(batch.z[rows], batch.w[rows], batch.psi[rows], batch.sigma[rows])


def _moment(batch: AreaArrays) -> np.ndarray:
    """The matrices w_i w_i' - sigma_i of the moment equation, per area."""
    with np.errstate(over="ignore"):  # `_solve` reports a non-finite system
        return batch.w[..., :, None] * batch.w[..., None, :] - batch.sigma


def _solve(batch: AreaArrays, moment: np.ndarray, weights: np.ndarray):
    """Weighted moment solves of a batch whose `_moment` is ``moment``:
    beta (B, p) and {replicate: error}."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        a = np.einsum("bi,bipq->bpq", weights, moment)
        rhs = np.matmul(batch.w.transpose(0, 2, 1), (weights * batch.z)[:, :, None])
    rhs = rhs[:, :, 0]
    errors = {}
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
        a[~finite], rhs[~finite] = np.eye(batch.p), 0.0
        # name the first area whose own weighted term is not finite; when
        # only the sum overflows, no area is at fault
        with np.errstate(over="ignore", invalid="ignore"):
            a_terms = weights[:, :, None, None] * moment
            rhs_terms = batch.w * (weights * batch.z)[:, :, None]
        own = np.isfinite(a_terms).all(axis=(2, 3)) & np.isfinite(rhs_terms).all(axis=2)
        first = dict(_first_flags(~own))
        for b in np.flatnonzero(~finite).tolist():
            errors[b] = SingularMomentMatrix(
                "moment system has non-finite entries", index=first.get(b)
            )
    # singular values, largest first; a 1x1 system's one is |a|
    s = np.abs(a[:, 0]) if batch.p == 1 else np.linalg.svd(a, compute_uv=False)
    smallest = s[:, -1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        singular = (smallest == 0.0) | (s[:, 0] / smallest > _COND_LIMIT)
    if singular.any():
        a[singular] = np.eye(batch.p)
        for b in np.flatnonzero(singular).tolist():
            errors[b] = SingularMomentMatrix(
                "weighted moment matrix is numerically singular "
                f"(smallest singular value {smallest[b]:.3e})"
            )
    if batch.p == 1:
        # dividing gives np.linalg.solve's bits without a LAPACK call per matrix
        with np.errstate(over="ignore"):  # as np.linalg.solve, which never warns
            return rhs / a[:, 0], errors
    return np.linalg.solve(a, rhs[:, :, None])[:, :, 0], errors


def weights_batch(batch: AreaArrays, beta: np.ndarray, sigma2: np.ndarray):
    """Moment weights D = 1 / (beta' sigma_i beta + sigma2 + psi_i) for
    betas (B, p), and {replicate: error}."""
    den = quad_form(batch.sigma, beta) + sigma2[:, None] + batch.psi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = 1.0 / den
    ok = (weights > 0.0) & (weights < np.inf)  # den > 0, finite and invertible
    errors = {}
    if not ok.all():
        for b, i in _first_flags(~ok):
            value = den[b, i]
            problem = (
                "has no finite reciprocal"
                if 0.0 < value < np.inf
                else "must be positive and finite"
            )
            errors[b] = SingularMomentMatrix(
                f"area weight denominator {value:.6g} {problem}", index=i
            )
        weights = np.where(ok, weights, 1.0)
    return weights, errors


def sigma2_batch(batch: AreaArrays, beta: np.ndarray):
    """Variance moments for betas (B, p): truncated values and flags."""
    resid = batch.z - _matvec(batch.w, beta)
    with np.errstate(over="ignore"):  # an inf moment fails the next weights
        dot = np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0]
    raw = dot / batch.m - batch.psi.sum(axis=-1) / batch.m  # as psi.mean()
    truncated = raw < 0.0
    return np.where(truncated, 0.0, raw), truncated


def weighted_solve(arr: AreaArrays, weights: np.ndarray) -> np.ndarray:
    one = batch_of_one(arr)
    beta, errors = _solve(one, _moment(one), weights[None])
    raise_first(errors)
    return beta[0]


@dataclass(frozen=True)
class BatchFit:
    """`fit_batch` results, one entry per replicate along the first axis.

    ``errors`` maps each failed replicate to the error a fit of it alone
    raises; the other fields of a failed replicate are meaningless.
    """

    beta: np.ndarray  # (B, p)
    sigma2: np.ndarray  # (B,)
    iterations: np.ndarray  # (B,)
    converged: np.ndarray  # (B,)
    truncated: np.ndarray  # (B,)
    errors: dict

    @property
    def ok(self) -> np.ndarray:
        return ok_rows(self.sigma2.size, self.errors)


def fit_batch(batch: AreaArrays, config, beta_init=None) -> BatchFit:
    """`fit_core` on B datasets at once.

    ``batch`` holds the B datasets, with the replicate axis on every
    field: ``z`` (B, m), ``w`` (B, m, p), ``psi`` (B, m) and ``sigma``
    (B, m, p, p).  ``config``, an `estimation.FitConfig`, holds the
    stopping rule and the cold start.  ``beta_init``, if given, replaces
    ``config.beta_init`` as one start (p,) for every replicate or one per
    replicate (B, p): the resamplers warm-start each refit at its own full
    fit.  Each replicate takes the steps that `fit_core` takes on it alone
    and stops at its own convergence or at ``config.max_iterations``; one
    that fails a check stops with that error in ``errors`` and the rest
    go on.
    """
    m, p = batch.m, batch.p
    if m <= p:
        raise InsufficientAreas(f"need at least {p + 1} areas to fit, got {m}")
    n = len(batch.z)
    moment = _moment(batch)
    start = config.beta_init if beta_init is None else beta_init
    if start is None:
        beta, errors = _solve(batch, moment, np.ones((n, m)))
    else:
        beta = np.asarray(start, dtype=float)
        if beta.shape == (p,):
            beta = beta[None].repeat(n, axis=0)
        elif beta.shape != (n, p):
            raise ValueError(f"beta_init must have shape ({p},) or ({n}, {p})")
        errors = {}
    sigma2, truncated = sigma2_batch(batch, beta)

    out_beta, out_sigma2 = np.empty((n, p)), np.empty(n)
    out_truncated, converged = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)  # the replicates still iterating, in batch order
    leaving = np.zeros(n, dtype=bool)
    leaving[list(errors)] = True
    iteration = 0
    while True:
        leaving |= iteration == config.max_iterations  # the cap stops the rest
        if leaving.any():  # record finished replicates and drop them
            done = rows[leaving]
            out_beta[done], out_sigma2[done] = beta[leaving], sigma2[leaving]
            out_truncated[done], iterations[done] = truncated[leaving], iteration
            stay = ~leaving
            rows, batch, moment = rows[stay], select_rows(batch, stay), moment[stay]
            beta, sigma2, truncated = beta[stay], sigma2[stay], truncated[stay]
        if not rows.size:
            break
        iteration += 1
        weights, weight_errors = weights_batch(batch, beta, sigma2)
        beta_new, solve_errors = _solve(batch, moment, weights)
        sigma2_new, truncated = sigma2_batch(batch, beta_new)
        step = (np.abs(beta_new - beta) / (1.0 + np.abs(beta_new))).max(axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf; such a row has failed
            step_sigma2 = np.abs(sigma2_new - sigma2) / (1.0 + np.abs(sigma2_new))
        step = np.where(step_sigma2 > step, step_sigma2, step)
        beta, sigma2 = beta_new, sigma2_new
        leaving = step < config.rel_tolerance
        failed = solve_errors | weight_errors  # the weights are checked first
        if failed:
            errors.update((int(rows[b]), exc) for b, exc in failed.items())
            leaving[list(failed)] = True
            step[list(failed)] = np.inf
        converged[rows[step < config.rel_tolerance]] = True
    return BatchFit(
        beta=out_beta,
        sigma2=out_sigma2,
        iterations=iterations,
        converged=converged,
        truncated=out_truncated,
        errors=errors,
    )


def fit_core(arr: AreaArrays, config) -> tuple[np.ndarray, float, int, bool, bool]:
    """Alternate the weighted regression solve and the variance moment,
    with the settings of ``config``, an `estimation.FitConfig`.

    Returns (beta, sigma2, iterations, converged, truncated).  The weights
    for each sweep come from the previous full iterate; convergence is a
    relative step below ``config.rel_tolerance`` jointly over beta and
    sigma2.  This is `fit_batch` on one dataset.
    """
    fit = fit_batch(batch_of_one(arr), config)
    raise_first(fit.errors)
    return (
        fit.beta[0],
        float(fit.sigma2[0]),
        int(fit.iterations[0]),
        bool(fit.converged[0]),
        bool(fit.truncated[0]),
    )


# -------------------------------------------------------------- prediction


def gamma_batch(sigma, psi, beta: np.ndarray, sigma2: np.ndarray):
    """Shrinkage weights (B, m) for betas (B, p) and sigma2s (B,), and
    {row: error} for the rows with a denominator that is not positive."""
    num = quad_form(sigma, beta) + sigma2[:, None]
    den = num + psi
    degenerate = den <= 0.0
    errors = {
        b: DegenerateVariance("beta'sigma_me beta + sigma2_nu + psi == 0", index=i)
        for b, i in _first_flags(degenerate)
    }
    return num / np.where(degenerate, 1.0, den), errors


def exp_batch(x: np.ndarray):
    """exp(x) for (B, m) exponents and {row: error} for the rows with an
    exponent outside the double range."""
    bad = (x > _EXP_MAX) | (x < _EXP_MIN)
    errors = {
        b: PredictionOverflow(
            f"exponent {x[b, i]:.6g} is outside the representable range "
            f"[{_EXP_MIN:.1f}, {_EXP_MAX:.1f}]",
            index=i,
        )
        for b, i in _first_flags(bad)
    }
    return np.exp(np.where(bad, 0.0, x)), errors


def log_expm1(a: np.ndarray) -> np.ndarray:
    # log(e^a - 1) for a > 0, stable at both ends
    out = np.empty_like(a)
    small = a < 1.0
    out[small] = np.log(np.expm1(a[small]))
    big = ~small
    out[big] = a[big] + np.log1p(-np.exp(-a[big]))
    return out


def m1_batch(mean: np.ndarray, var: np.ndarray):
    """Conditional variances of exp(theta), exp(var) (exp(var) - 1)
    exp(2 mean), for (B, m) conditional moments, exactly zero where var is
    zero; and {row: error}."""
    pos = var > 0.0
    exponent = np.zeros(var.shape)  # placeholder where var == 0
    exponent[pos] = var[pos] + log_expm1(var[pos]) + 2.0 * mean[pos]
    m1, errors = exp_batch(exponent)
    m1[~pos] = 0.0
    return m1, errors


def conditional_batch(arr: AreaArrays, beta: np.ndarray, sigma2: np.ndarray):
    """Conditional mean and variance of each theta_i given the data, and
    gamma_i, (B, m) each for betas (B, p), and {row: error}."""
    g, errors = gamma_batch(arr.sigma, arr.psi, beta, sigma2)
    mean = g * arr.z + (1.0 - g) * _matvec(arr.w, beta)
    return mean, g * arr.psi, g, errors


def predict_batch(arr: AreaArrays, beta: np.ndarray, sigma2: np.ndarray):
    """`predictions_and_m1` for B parameter sets, beta (B, p) and sigma2
    (B,), on the same areas.

    Returns (B, m) predictions, m1 terms and gammas, and {row: error} for
    the parameter sets that fail a check, each the error
    `predictions_and_m1` raises for that set alone.
    """
    mean, var, g, errors = conditional_batch(arr, beta, sigma2)
    pred, pred_errors = exp_batch(mean + 0.5 * var)
    m1, m1_errors = m1_batch(mean, var)
    return pred, m1, g, m1_errors | pred_errors | errors


def predictions_and_m1(
    arr: AreaArrays, beta: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive-scale predictions, their conditional-variance terms, and the
    shrinkage weights, all evaluated at the given parameters."""
    beta = np.asarray(beta, dtype=float)
    pred, m1, g, errors = predict_batch(arr, beta[None], np.array([sigma2]))
    raise_first(errors)
    return pred[0], m1[0], g[0]
