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

from dataclasses import dataclass

import numpy as np

from . import _arrays
from .model import ModelParams, _area_named, _stacked

__all__ = ["FitConfig", "ModelFit", "solve_beta", "estimate_sigma2", "fit"]


@dataclass(frozen=True)
class FitConfig:
    """Iteration controls for `fit`.

    ``beta_init`` overrides the default starting value (the unweighted
    solve of the moment equation, i.e. all ``D_i = 1``).
    """

    max_iterations: int = 200
    rel_tolerance: float = 1e-10
    beta_init: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.rel_tolerance > 0.0:
            raise ValueError("rel_tolerance must be > 0")


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
    arr, ids = _stacked(areas)
    with _area_named(ids):
        weights = _arrays.moment_weights(
            arr, params_current.beta, params_current.sigma2_nu
        )
    return _arrays.weighted_solve(arr, weights)


def estimate_sigma2(areas, beta) -> tuple[float, bool]:
    """Residual moment for the area-level variance.

    Returns ``(max(0, raw), raw < 0)`` where ``raw`` is the mean squared
    residual minus the mean sampling variance.  An exactly-zero moment is
    not flagged as truncated.
    """
    arr = _arrays.stack(areas)
    return _arrays.sigma2_moment(arr, np.asarray(beta, dtype=float))


def fit(areas, config: FitConfig | None = None) -> ModelFit:
    """Estimate ``(beta, sigma2_nu)`` by alternating moment updates.

    Raises
    ------
    InsufficientAreas
        If fewer than ``p + 1`` areas are supplied.
    SingularMomentMatrix
        If any weighted solve encounters a numerically singular system.
    """
    return _fit_arrays(*_stacked(areas), config)


def _fit_arrays(
    arr: _arrays.AreaArrays, ids, config: FitConfig | None = None
) -> ModelFit:
    cfg = config if config is not None else FitConfig()
    with _area_named(ids):
        beta, sigma2, iterations, converged, truncated = _arrays.fit_core(
            arr, cfg.max_iterations, cfg.rel_tolerance, cfg.beta_init
        )
        gammas = _arrays.gamma_vec(arr.sigma, arr.psi, beta, sigma2)
    gammas.setflags(write=False)
    return ModelFit(
        params=ModelParams(beta=beta, sigma2_nu=sigma2),
        gammas=gammas,
        iterations_used=iterations,
        converged=converged,
        sigma2_truncated=truncated,
    )
