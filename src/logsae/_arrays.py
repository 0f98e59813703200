"""Stacked-array kernels shared by the fitting, uncertainty and simulation
code.  Internal: public modules validate `AreaObservation` lists once via
`stack`, or parse a dataset file straight into `AreaArrays` with
`dataio.load_arrays`, and then work on plain ndarrays.

The fit and the predictions are batched: `fit_batch` runs B datasets and
`predict_batch` B parameter sets along a leading axis.  A replicate that
fails a check gets the error it would raise on its own and stops; the
others go on.  The single-dataset kernels (`fit_core`, `weighted_solve`,
`predictions_and_m1`, ...) are their B=1 views and raise that error.
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
    """Stacked areas.  For a batch of B datasets, any field may carry a
    leading batch axis; a field without one is shared by the batch."""

    z: np.ndarray  # (m,) or (B, m)
    w: np.ndarray  # (m, p) or (B, m, p)
    psi: np.ndarray  # (m,) or (B, m)
    sigma: np.ndarray  # (m, p, p) or (B, m, p, p)
    moment: np.ndarray  # w w' - sigma, cached for the solver

    @property
    def m(self) -> int:
        return self.z.shape[-1]

    @property
    def p(self) -> int:
        return self.w.shape[-1]


def build(z, w, psi, sigma) -> AreaArrays:
    moment = w[..., :, None] * w[..., None, :] - sigma
    return AreaArrays(z=z, w=w, psi=psi, sigma=sigma, moment=moment)


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
    return build(z, w, psi, sigma)


def drop_area(arr: AreaArrays, j: int) -> AreaArrays:
    # unused by the package; kept until perfbench/layers.py stops tracing it
    return AreaArrays(
        z=np.delete(arr.z, j, axis=0),
        w=np.delete(arr.w, j, axis=0),
        psi=np.delete(arr.psi, j, axis=0),
        sigma=np.delete(arr.sigma, j, axis=0),
        moment=np.delete(arr.moment, j, axis=0),
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


def _rows(batch: AreaArrays, sel) -> AreaArrays:
    """The replicates ``sel`` of a batch whose z and w are batched."""

    def take(x, ndim):
        return x[sel] if x.ndim == ndim else x

    return AreaArrays(
        z=batch.z[sel],
        w=batch.w[sel],
        psi=take(batch.psi, 2),
        sigma=take(batch.sigma, 4),
        moment=take(batch.moment, 4),
    )


def _solve(batch: AreaArrays, weights: np.ndarray):
    """Weighted moment solves: beta (B, p) and {replicate: error}."""
    subscripts = "bi,bipq->bpq" if batch.moment.ndim == 4 else "bi,ipq->bpq"
    a = np.einsum(subscripts, weights, batch.moment)
    rhs = np.matmul(batch.w.transpose(0, 2, 1), (weights * batch.z)[:, :, None])
    rhs = rhs[:, :, 0]
    errors = {}
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
        a[~finite], rhs[~finite] = np.eye(batch.p), 0.0
        for b in np.flatnonzero(~finite).tolist():
            errors[b] = SingularMomentMatrix("moment system has non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)
    smallest = s[:, -1]
    if smallest.all():
        singular = s[:, 0] / smallest > _COND_LIMIT
    else:
        zero = smallest == 0.0
        singular = zero | (s[:, 0] / np.where(zero, 1.0, smallest) > _COND_LIMIT)
    if singular.any():
        a[singular] = np.eye(batch.p)
        for b in np.flatnonzero(singular).tolist():
            errors[b] = SingularMomentMatrix(
                f"weighted moment matrix is numerically singular "
                f"(smallest singular value {s[b, -1]:.3e})"
            )
    return np.linalg.solve(a, rhs[:, :, None])[:, :, 0], errors


def _weights(batch: AreaArrays, beta: np.ndarray, sigma2: np.ndarray):
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


def _sigma2(batch: AreaArrays, beta: np.ndarray):
    """Variance moments for betas (B, p): truncated values and flags."""
    resid = batch.z - _matvec(batch.w, beta)
    dot = np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0]
    raw = dot / batch.m - batch.psi.sum(axis=-1) / batch.m  # as psi.mean()
    truncated = raw < 0.0
    return np.where(truncated, 0.0, raw), truncated


def _batch_of_one(arr: AreaArrays) -> AreaArrays:
    return AreaArrays(arr.z[None], arr.w[None], arr.psi, arr.sigma, arr.moment)


def weighted_solve(arr: AreaArrays, weights: np.ndarray) -> np.ndarray:
    beta, errors = _solve(_batch_of_one(arr), weights[None])
    raise_first(errors)
    return beta[0]


def moment_weights(arr: AreaArrays, beta: np.ndarray, sigma2: float) -> np.ndarray:
    weights, errors = _weights(arr, beta[None], np.array([sigma2]))
    raise_first(errors)
    return weights[0]


def sigma2_moment(arr: AreaArrays, beta: np.ndarray) -> tuple[float, bool]:
    sigma2, truncated = _sigma2(_batch_of_one(arr), beta[None])
    return float(sigma2[0]), bool(truncated[0])


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
        ok = np.ones(self.sigma2.size, dtype=bool)
        ok[list(self.errors)] = False
        return ok


def fit_batch(
    arr: AreaArrays, max_iterations: int, rel_tolerance: float, beta_init=None
) -> BatchFit:
    """`fit_core` on B datasets at once.

    ``arr`` holds the B datasets: ``z`` (B, m) and ``w`` (B, m, p), and
    ``psi``, ``sigma`` and ``moment`` either per replicate or shared.
    Each replicate takes the steps that `fit_core` takes on it alone and
    stops at its own convergence or at ``max_iterations``; one that fails
    a check stops with that error in ``errors`` and the rest go on.
    """
    m, p = arr.m, arr.p
    if m <= p:
        raise InsufficientAreas(f"need at least {p + 1} areas to fit, got {m}")
    batch = arr if arr.z.ndim == 2 else _batch_of_one(arr)
    n = len(batch.z)
    if beta_init is None:
        beta, errors = _solve(batch, np.ones((n, m)))
    else:
        beta = np.asarray(beta_init, dtype=float)
        if beta.shape != (p,):
            raise ValueError(f"beta_init must have shape ({p},)")
        beta, errors = beta[None].repeat(n, axis=0), {}
    sigma2, truncated = _sigma2(batch, beta)

    out_beta, out_sigma2 = np.empty((n, p)), np.empty(n)
    out_truncated, converged = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)  # the replicates still iterating, in batch order
    leaving = np.zeros(n, dtype=bool)
    leaving[list(errors)] = True
    iteration = 0
    while True:
        if leaving.any():  # record finished replicates and drop them
            done = rows[leaving]
            out_beta[done], out_sigma2[done] = beta[leaving], sigma2[leaving]
            out_truncated[done], iterations[done] = truncated[leaving], iteration
            stay = ~leaving
            rows, batch = rows[stay], _rows(batch, stay)
            beta, sigma2, truncated = beta[stay], sigma2[stay], truncated[stay]
        if not rows.size or iteration == max_iterations:
            break
        iteration += 1
        weights, weight_errors = _weights(batch, beta, sigma2)
        beta_new, solve_errors = _solve(batch, weights)
        sigma2_new, truncated = _sigma2(batch, beta_new)
        step = (np.abs(beta_new - beta) / (1.0 + np.abs(beta_new))).max(axis=1)
        step_sigma2 = np.abs(sigma2_new - sigma2) / (1.0 + np.abs(sigma2_new))
        step = np.where(step_sigma2 > step, step_sigma2, step)
        beta, sigma2 = beta_new, sigma2_new
        leaving = step < rel_tolerance
        failed = solve_errors | weight_errors  # the weights are checked first
        if failed:
            errors.update((int(rows[b]), exc) for b, exc in failed.items())
            leaving[list(failed)] = True
            step[list(failed)] = np.inf
        converged[rows[step < rel_tolerance]] = True
    # the replicates left stopped at the iteration cap
    out_beta[rows], out_sigma2[rows], out_truncated[rows] = beta, sigma2, truncated
    iterations[rows] = iteration
    return BatchFit(
        beta=out_beta,
        sigma2=out_sigma2,
        iterations=iterations,
        converged=converged,
        truncated=out_truncated,
        errors=errors,
    )


def fit_core(
    arr: AreaArrays,
    max_iterations: int,
    rel_tolerance: float,
    beta_init=None,
) -> tuple[np.ndarray, float, int, bool, bool]:
    """Alternate the weighted regression solve and the variance moment.

    Returns (beta, sigma2, iterations, converged, truncated).  The weights
    for each sweep come from the previous full iterate; convergence is a
    relative step below `rel_tolerance` jointly over beta and sigma2.
    This is `fit_batch` on one dataset.
    """
    fit = fit_batch(arr, max_iterations, rel_tolerance, beta_init)
    raise_first(fit.errors)
    return (
        fit.beta[0],
        float(fit.sigma2[0]),
        int(fit.iterations[0]),
        bool(fit.converged[0]),
        bool(fit.truncated[0]),
    )


# -------------------------------------------------------------- prediction


def _gamma(sigma, psi, beta, sigma2):
    """Shrinkage weights for betas (..., p) and sigma2s (...), and the
    entries whose denominator is not positive."""
    num = quad_form(sigma, beta) + np.asarray(sigma2)[..., None]
    den = num + psi
    degenerate = den <= 0.0
    return num / np.where(degenerate, 1.0, den), degenerate


def gamma_vec(
    sigma: np.ndarray, psi: np.ndarray, beta: np.ndarray, sigma2: float
) -> np.ndarray:
    g, degenerate = _gamma(sigma, psi, beta, sigma2)
    raise_first(_degenerate_errors(degenerate[None]))
    return g


def _degenerate_errors(degenerate) -> dict:
    return {
        b: DegenerateVariance("beta'sigma_me beta + sigma2_nu + psi == 0", index=i)
        for b, i in _first_flags(degenerate)
    }


def _exp(x: np.ndarray):
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


def exp_checked(x: np.ndarray) -> np.ndarray:
    """exp(x), or PredictionOverflow carrying the first offending index."""
    out, errors = _exp(x[None])
    raise_first(errors)
    return out[0]


def log_expm1(a: np.ndarray) -> np.ndarray:
    # log(e^a - 1) for a > 0, stable at both ends
    out = np.empty_like(a)
    small = a < 1.0
    out[small] = np.log(np.expm1(a[small]))
    big = ~small
    out[big] = a[big] + np.log1p(-np.exp(-a[big]))
    return out


def _m1(mean: np.ndarray, var: np.ndarray):
    """m1 terms for (B, m) conditional moments, and {row: error}."""
    pos = var > 0.0
    exponent = np.zeros(var.shape)  # placeholder where var == 0
    exponent[pos] = var[pos] + log_expm1(var[pos]) + 2.0 * mean[pos]
    m1, errors = _exp(exponent)
    m1[~pos] = 0.0
    return m1, errors


def m1_from_moments(mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Conditional variance of exp(theta): exp(var) (exp(var) - 1)
    exp(2 mean), exactly zero where var is zero."""
    m1, errors = _m1(mean[None], var[None])
    raise_first(errors)
    return m1[0]


def _conditional(arr: AreaArrays, beta: np.ndarray, sigma2: np.ndarray):
    """Conditional mean and variance of each theta_i and gamma_i, (B, m)
    each for betas (B, p), and {row: error}."""
    g, degenerate = _gamma(arr.sigma, arr.psi, beta, sigma2)
    mean = g * arr.z + (1.0 - g) * _matvec(arr.w, beta)
    return mean, g * arr.psi, g, _degenerate_errors(degenerate)


def conditional_moments(
    arr: AreaArrays, beta: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and variance of each theta_i given the data, and gamma_i."""
    mean, var, g, errors = _conditional(arr, beta[None], np.array([sigma2]))
    raise_first(errors)
    return mean[0], var[0], g[0]


def predict_batch(arr: AreaArrays, beta: np.ndarray, sigma2: np.ndarray):
    """`predictions_and_m1` for B parameter sets, beta (B, p) and sigma2
    (B,), on the same areas.

    Returns (B, m) predictions, m1 terms and gammas, and {row: error} for
    the parameter sets that fail a check, each the error
    `predictions_and_m1` raises for that set alone.
    """
    mean, var, g, errors = _conditional(arr, beta, sigma2)
    pred, pred_errors = _exp(mean + 0.5 * var)
    m1, m1_errors = _m1(mean, var)
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
