"""Moment-based parameter estimation.

The regression coefficients solve the measurement-error-corrected weighted
moment equation

    [ sum_i D_i (w_i w_i' - sigma_me_i) ] beta = sum_i D_i w_i z_i,

with weights ``D_i = 1 / (beta' sigma_me_i beta + sigma2_nu + psi_i)``, and
the area-level variance comes from the residual moment

    sigma2_nu = max(0, mean_i (z_i - w_i' beta)^2 - mean_i psi_i),

truncated at zero with the truncation recorded.  `fit` alternates the two
updates, each sweep using weights from the previous full iterate, until the
joint relative step falls below tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _arrays
from .model import ModelParams, _area_named, _check_beta, _dataset

__all__ = ["FitConfig", "ModelFit", "solve_beta", "estimate_sigma2", "fit"]


@dataclass(frozen=True)
class FitConfig:
    """The settings of every fit: `fit`, the resamplers' refits and the
    studies' fits all read them from here.

    A fit stops at a relative step below ``rel_tolerance`` or after
    ``max_iterations`` steps.  ``beta_init`` overrides the default
    starting value (the unweighted solve of the moment equation, i.e. all
    ``D_i = 1``); the resamplers' refits start at their full fit instead.
    """

    max_iterations: int = 200
    rel_tolerance: float = 1e-10
    beta_init: np.ndarray | None = None

    def __post_init__(self):
        cap, tol = self.max_iterations, self.rel_tolerance
        # a cap such as 2.5 or inf never equals the iteration count, so it
        # would never stop a fit
        if not isinstance(cap, (int, np.integer)) or isinstance(cap, bool) or cap < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {cap!r}")
        object.__setattr__(self, "max_iterations", int(cap))
        if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
            raise ValueError(f"rel_tolerance must be a real number, got {tol!r}")
        if not 0.0 < tol < math.inf:
            raise ValueError(f"rel_tolerance must be > 0 and finite, got {tol!r}")
        if self.beta_init is not None:
            # one start for every fit; the fit checks its length against p
            start = np.asarray(self.beta_init)
            if start.ndim != 1:
                raise ValueError("beta_init must be one-dimensional")
            if start.dtype.kind not in "iuf" or not np.isfinite(start).all():
                raise ValueError(
                    f"beta_init must be finite real numbers, got {self.beta_init!r}"
                )


@dataclass(frozen=True)
class ModelFit:
    """Converged (or best-effort) parameter estimates for one dataset.

    ``converged`` reports the truth about iteration: a fit that hits
    ``max_iterations`` is returned with ``converged=False`` rather than
    raised.  ``sigma2_truncated`` records whether the final variance moment
    was negative before truncation to zero.
    """

    params: ModelParams
    gammas: np.ndarray
    iterations_used: int
    converged: bool
    sigma2_truncated: bool


def solve_beta(areas, params_current: ModelParams) -> np.ndarray:
    """One weighted solve for beta at the given current parameters.

    The weights ``D_i`` are computed from ``params_current`` and must come
    out finite and positive; otherwise the system is reported singular.
    """
    ids, arr = _dataset(areas)
    beta = _check_beta(params_current.beta, arr.p)
    with _area_named(ids):
        weights, errors = _arrays.weights_batch(
            arr, beta[None], np.array([params_current.sigma2_nu])
        )
        _arrays.raise_first(errors)
    return _arrays.weighted_solve(arr, weights[0])


def estimate_sigma2(areas, beta) -> tuple[float, bool]:
    """Residual moment for the area-level variance.

    Returns ``(max(0, raw), raw < 0)`` where ``raw`` is the mean squared
    residual minus the mean sampling variance.  An exactly-zero moment is
    not flagged as truncated.
    """
    arr = _dataset(areas).arrays
    beta = _check_beta(beta, arr.p)
    sigma2, truncated = _arrays.sigma2_batch(_arrays.batch_of_one(arr), beta[None])
    return float(sigma2[0]), bool(truncated[0])


def fit(areas, config: FitConfig | None = None) -> ModelFit:
    """Estimate ``(beta, sigma2_nu)`` by alternating moment updates.

    Raises
    ------
    InsufficientAreas
        If fewer than ``p + 1`` areas are supplied.
    SingularMomentMatrix
        If any weighted solve encounters a numerically singular system.
    """
    ids, arr = _dataset(areas)
    cfg = config if config is not None else FitConfig()
    with _area_named(ids):
        beta, sigma2, iterations, converged, truncated = _arrays.fit_core(arr, cfg)
        gammas, errors = _arrays.gamma_batch(
            arr.sigma, arr.psi, beta[None], np.array([sigma2])
        )
        _arrays.raise_first(errors)
    gammas = gammas[0]
    gammas.setflags(write=False)
    return ModelFit(
        params=ModelParams(beta=beta, sigma2_nu=sigma2),
        gammas=gammas,
        iterations_used=iterations,
        converged=converged,
        sigma2_truncated=truncated,
    )
