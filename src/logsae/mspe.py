"""Resampling estimates of mean squared prediction error.

Both estimators start from the plug-in conditional-variance term and
correct it for parameter estimation.  The leave-one-out version applies
the classic bias-correction identity to the plug-in term and adds the
dispersion of the predictor across leave-one-out refits:

    m1_j[i] = M1_i - (m-1)/m * sum_j (M1_i - M1_i(-j))
    m2_j[i] = (m-1)/m * sum_j (pred_i - pred_i(-j))^2

where every (-j) quantity is evaluated at area i's own data with the
parameters refit without area j.  The parametric-bootstrap version draws
synthetic datasets from the fitted model, refits each, and combines

    2*M1_i - mean_b M1_i(params*_b)  +  mean_b (pred*_i,b - pred_i)^2

where the starred prediction and variance terms use the starred parameters
on the original data.  Bootstrap totals can come out negative; they are
flagged, never clipped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _arrays, rng
from .errors import InsufficientAreas, SingularMomentMatrix
from .estimation import FitConfig, ModelFit
from .model import _area_named, _stacked

__all__ = ["JackknifeMspe", "BootstrapMspe", "jackknife_mspe", "bootstrap_mspe"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class JackknifeMspe:
    """Leave-one-out MSPE estimate for one area.

    ``loo_nonconverged`` counts refits that hit the iteration cap; it is
    shared by all areas of one call.
    """

    area_id: str
    m1_j: float
    m2_j: float
    total: float
    loo_nonconverged: int


@dataclass(frozen=True)
class BootstrapMspe:
    """Parametric-bootstrap MSPE estimate for one area.

    ``b_replicates`` is the number of replicates actually used (failed
    refits are dropped).  ``negative`` flags a total below zero.
    """

    area_id: str
    m1_bias_corrected: float
    m2_star: float
    total: float
    b_replicates: int
    negative: bool


def _leave_one_out(arr, dropped):
    """A batch of datasets: row r holds every area but area dropped[r]."""
    kept = np.arange(arr.m - 1)
    idx = kept + (kept >= np.asarray(dropped)[:, None])
    return _arrays.AreaArrays(
        z=arr.z[idx],
        w=arr.w[idx],
        psi=arr.psi[idx],
        sigma=arr.sigma[idx],
        moment=arr.moment[idx],
    )


def jackknife_core(arr, beta, sigma2, max_iterations, rel_tolerance):
    m, p = arr.m, arr.p
    if m < p + 2:
        raise InsufficientAreas(f"jackknife needs at least {p + 2} areas, got {m}")
    pred_full, m1_full, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
    fits = []
    for rows in _arrays.batches(m, m):
        fit = _arrays.fit_batch(
            _leave_one_out(arr, rows), max_iterations, rel_tolerance, beta
        )
        if fit.errors:
            j = min(fit.errors)
            exc = fit.errors[j]
            raise SingularMomentMatrix(
                f"leave-one-out refit dropping this area failed: {exc}",
                index=rows[j],
            ) from exc
        fits.append((rows, fit))
    m1_loo = np.empty((m, m))
    pred_loo = np.empty((m, m))
    nonconverged = 0
    for rows, fit in fits:
        pred_j, m1_j, _, errors = _arrays.predict_batch(arr, fit.beta, fit.sigma2)
        _arrays.raise_first(errors)
        m1_loo[:, rows.start : rows.stop] = m1_j.T
        pred_loo[:, rows.start : rows.stop] = pred_j.T
        nonconverged += int(np.count_nonzero(~fit.converged))
    factor = (m - 1.0) / m
    m1_corrected = m1_full - factor * np.sum(m1_full[:, None] - m1_loo, axis=1)
    m2 = factor * np.sum((pred_full[:, None] - pred_loo) ** 2, axis=1)
    return m1_corrected, m2, nonconverged


def jackknife_mspe(
    areas,
    full_fit: ModelFit,
    config: FitConfig | None = None,
) -> list[JackknifeMspe]:
    """Leave-one-out MSPE estimates, one per area, in input order.

    Each refit is warm-started at the full-data parameters; all m refits
    run as one in-process batch.  A singular leave-one-out system is an
    error identifying the offending area.
    """
    return _jackknife_arrays(*_stacked(areas), full_fit, config)


def _jackknife_arrays(arr, ids, full_fit, config=None) -> list[JackknifeMspe]:
    cfg = config if config is not None else FitConfig()
    with _area_named(ids):
        m1_j, m2_j, nonconverged = jackknife_core(
            arr,
            full_fit.params.beta,
            full_fit.params.sigma2_nu,
            cfg.max_iterations,
            cfg.rel_tolerance,
        )
    return [
        JackknifeMspe(
            area_id=area_id,
            m1_j=float(m1_j[i]),
            m2_j=float(m2_j[i]),
            total=float(m1_j[i] + m2_j[i]),
            loo_nonconverged=nonconverged,
        )
        for i, area_id in enumerate(ids)
    ]


def _psd_factors(sigma: np.ndarray) -> np.ndarray:
    """Per-area factor L with L L' = sigma_me, tolerating singular PSD."""
    out = np.zeros_like(sigma)
    for i in range(sigma.shape[0]):
        s = sigma[i]
        if not s.any():
            continue
        try:
            out[i] = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(s)
            out[i] = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return out


def _draw_starred(arr, factors, beta, sigma2, seed, replicates):
    """Synthetic datasets for the given replicates, stacked on a leading axis.

    Replicate r draws from stream (seed, BOOTSTRAP, r), per area in fixed
    row order: covariate noise (p draws), area effect, sampling error.
    The observed covariate stands in for the latent one as the center of
    the starred covariate draw.
    """
    m, p = arr.m, arr.p
    std = rng.standard_normals(seed, rng.BOOTSTRAP, replicates, (m, p + 2))
    w_star = arr.w + np.einsum("ipq,biq->bip", factors, std[..., :p])
    nu_star = math.sqrt(sigma2) * std[..., p]
    e_star = np.sqrt(arr.psi) * std[..., p + 1]
    z_star = np.matmul(w_star, beta) + nu_star + e_star
    return _arrays.build(z_star, w_star, arr.psi, arr.sigma)


def bootstrap_core(arr, beta, sigma2, b, seed, max_iterations, rel_tolerance):
    """Bias-corrected m1, m2* and the number of replicates used and, of
    those, refits that stopped at the iteration cap."""
    m, p = arr.m, arr.p
    if m <= p:
        raise InsufficientAreas(f"need at least {p + 1} areas to refit, got {m}")
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    rng.check_seed(seed)
    pred_full, m1_full, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
    factors = _psd_factors(arr.sigma)
    sum_m1 = np.zeros(m)
    sum_sq = np.zeros(m)
    used = 0
    capped = 0
    for replicates in _arrays.batches(b, m):
        starred = _draw_starred(arr, factors, beta, sigma2, seed, replicates)
        fit = _arrays.fit_batch(starred, max_iterations, rel_tolerance, beta)
        refit = fit.ok
        # starred parameters, original data; a failed check drops the replicate
        pred_star, m1_star, _, errors = _arrays.predict_batch(
            arr, fit.beta[refit], fit.sigma2[refit]
        )
        keep = np.ones(len(pred_star), dtype=bool)
        keep[list(errors)] = False
        # a running sum in replicate order, carried across batches as row 0
        sum_m1 = np.cumsum(np.vstack([sum_m1, m1_star[keep]]), axis=0)[-1]
        sq = (pred_star[keep] - pred_full) ** 2
        sum_sq = np.cumsum(np.vstack([sum_sq, sq]), axis=0)[-1]
        used += int(np.count_nonzero(keep))
        capped += int(np.count_nonzero(~fit.converged[refit][keep]))
    if used == 0:
        raise SingularMomentMatrix(f"all {b} bootstrap replicates failed to refit")
    dropped = b - used
    if dropped:
        logger.warning(
            "dropped %d of %d bootstrap replicates (%.1f%% failure rate)",
            dropped,
            b,
            100.0 * dropped / b,
        )
    m1_bias_corrected = 2.0 * m1_full - sum_m1 / used
    m2_star = sum_sq / used
    return m1_bias_corrected, m2_star, used, capped


def bootstrap_mspe(
    areas,
    full_fit: ModelFit,
    b: int,
    seed: int,
    config: FitConfig | None = None,
) -> list[BootstrapMspe]:
    """Parametric-bootstrap MSPE estimates, one per area, in input order.

    Replicate draws are keyed by ``(seed, replicate)`` and the B refits
    run as one in-process batch, so output is bit-reproducible.
    Replicates whose refit fails are dropped and counted; the failure
    rate is logged, and so is the number of refits used that stopped at
    the iteration cap.
    """
    return _bootstrap_arrays(*_stacked(areas), full_fit, b, seed, config)


def _bootstrap_arrays(arr, ids, full_fit, b, seed, config=None) -> list[BootstrapMspe]:
    cfg = config if config is not None else FitConfig()
    with _area_named(ids):
        m1_bc, m2_star, used, capped = bootstrap_core(
            arr,
            full_fit.params.beta,
            full_fit.params.sigma2_nu,
            b,
            seed,
            cfg.max_iterations,
            cfg.rel_tolerance,
        )
    if capped:
        logger.warning("%d of %d bootstrap refits hit the iteration cap", capped, b)
    totals = m1_bc + m2_star
    return [
        BootstrapMspe(
            area_id=area_id,
            m1_bias_corrected=float(m1_bc[i]),
            m2_star=float(m2_star[i]),
            total=float(totals[i]),
            b_replicates=used,
            negative=bool(totals[i] < 0.0),
        )
        for i, area_id in enumerate(ids)
    ]
