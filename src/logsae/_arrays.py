"""Stacked-array kernels shared by the fitting, uncertainty and simulation
code.  Internal: public modules validate `AreaObservation` lists once via
`stack` and then work on plain ndarrays.
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


@dataclass(frozen=True)
class AreaArrays:
    z: np.ndarray  # (m,)
    w: np.ndarray  # (m, p)
    psi: np.ndarray  # (m,)
    sigma: np.ndarray  # (m, p, p)
    moment: np.ndarray  # (m, p, p): w w' - sigma, cached for the solver

    @property
    def m(self) -> int:
        return self.z.size

    @property
    def p(self) -> int:
        return self.w.shape[1]


def build(z, w, psi, sigma) -> AreaArrays:
    moment = w[:, :, None] * w[:, None, :] - sigma
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
    return AreaArrays(
        z=np.delete(arr.z, j, axis=0),
        w=np.delete(arr.w, j, axis=0),
        psi=np.delete(arr.psi, j, axis=0),
        sigma=np.delete(arr.sigma, j, axis=0),
        moment=np.delete(arr.moment, j, axis=0),
    )


def quad_form(sigma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # beta' sigma_i beta per area; clip tiny negative roundoff from PSD input
    return np.maximum(np.einsum("ipq,p,q->i", sigma, beta, beta), 0.0)


def weighted_solve(arr: AreaArrays, weights: np.ndarray) -> np.ndarray:
    a = np.einsum("i,ipq->pq", weights, arr.moment)
    rhs = arr.w.T @ (weights * arr.z)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(rhs))):
        raise SingularMomentMatrix("moment system has non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > _COND_LIMIT:
        raise SingularMomentMatrix(
            f"weighted moment matrix is numerically singular "
            f"(smallest singular value {s[-1]:.3e})"
        )
    return np.linalg.solve(a, rhs)


def moment_weights(arr: AreaArrays, beta: np.ndarray, sigma2: float) -> np.ndarray:
    # D_i = 1 / (beta' sigma_i beta + sigma2 + psi_i)
    den = quad_form(arr.sigma, beta) + sigma2 + arr.psi
    if not np.all(den > 0.0) or not np.all(np.isfinite(den)):
        i = int(np.argmax(~((den > 0.0) & np.isfinite(den))))
        raise SingularMomentMatrix(
            f"area weight denominator {den[i]:.6g} must be positive and finite",
            index=i,
        )
    return 1.0 / den


def sigma2_moment(arr: AreaArrays, beta: np.ndarray) -> tuple[float, bool]:
    resid = arr.z - arr.w @ beta
    raw = float(resid @ resid) / arr.m - float(arr.psi.mean())
    if raw < 0.0:
        return 0.0, True
    return raw, False


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
    """
    m, p = arr.m, arr.p
    if m <= p:
        raise InsufficientAreas(f"need at least {p + 1} areas to fit, got {m}")
    if beta_init is None:
        beta = weighted_solve(arr, np.ones(m))
    else:
        beta = np.asarray(beta_init, dtype=float)
        if beta.shape != (p,):
            raise ValueError(f"beta_init must have shape ({p},)")
    sigma2, truncated = sigma2_moment(arr, beta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        beta_new = weighted_solve(arr, moment_weights(arr, beta, sigma2))
        sigma2_new, truncated = sigma2_moment(arr, beta_new)
        step = float(np.max(np.abs(beta_new - beta) / (1.0 + np.abs(beta_new))))
        step = max(step, abs(sigma2_new - sigma2) / (1.0 + abs(sigma2_new)))
        beta, sigma2 = beta_new, sigma2_new
        if step < rel_tolerance:
            converged = True
            break
    return beta, sigma2, iterations, converged, truncated


def gamma_vec(
    sigma: np.ndarray, psi: np.ndarray, beta: np.ndarray, sigma2: float
) -> np.ndarray:
    num = quad_form(sigma, beta) + sigma2
    den = num + psi
    if np.any(den <= 0.0):
        raise DegenerateVariance(
            "beta'sigma_me beta + sigma2_nu + psi == 0",
            index=int(np.argmax(den <= 0.0)),
        )
    return num / den


def conditional_moments(
    arr: AreaArrays, beta: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and variance of each theta_i given the data, and gamma_i."""
    g = gamma_vec(arr.sigma, arr.psi, beta, sigma2)
    mean = g * arr.z + (1.0 - g) * (arr.w @ beta)
    return mean, g * arr.psi, g


def exp_checked(x: np.ndarray) -> np.ndarray:
    """exp(x), or PredictionOverflow carrying the first offending index."""
    if float(np.max(x)) > _EXP_MAX or float(np.min(x)) < _EXP_MIN:
        i = int(np.argmax((x > _EXP_MAX) | (x < _EXP_MIN)))
        raise PredictionOverflow(
            f"exponent {x[i]:.6g} is outside the representable range "
            f"[{_EXP_MIN:.1f}, {_EXP_MAX:.1f}]",
            index=i,
        )
    return np.exp(x)


def log_expm1(a: np.ndarray) -> np.ndarray:
    # log(e^a - 1) for a > 0, stable at both ends
    out = np.empty_like(a)
    small = a < 1.0
    out[small] = np.log(np.expm1(a[small]))
    big = ~small
    out[big] = a[big] + np.log1p(-np.exp(-a[big]))
    return out


def m1_from_moments(mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Conditional variance of exp(theta): exp(var) (exp(var) - 1)
    exp(2 mean), exactly zero where var is zero."""
    pos = var > 0.0
    exponent = np.zeros(var.shape)  # placeholder where var == 0
    exponent[pos] = var[pos] + log_expm1(var[pos]) + 2.0 * mean[pos]
    m1 = exp_checked(exponent)
    m1[~pos] = 0.0
    return m1


def predictions_and_m1(
    arr: AreaArrays, beta: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive-scale predictions, their conditional-variance terms, and the
    shrinkage weights, all evaluated at the given parameters."""
    mean, var, g = conditional_moments(arr, beta, sigma2)
    return exp_checked(mean + 0.5 * var), m1_from_moments(mean, var), g
