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
from .model import _area_named, _check_beta, _dataset

__all__ = ["JackknifeMspe", "BootstrapMspe", "jackknife_mspe", "bootstrap_mspe"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class JackknifeMspe:
    """Leave-one-out MSPE estimates of one dataset, in area order.

    ``m1_j``, ``m2_j`` and ``total`` are (m,) arrays.  ``loo_nonconverged``
    counts the refits of the call that hit the iteration cap.
    """

    area_ids: list
    m1_j: np.ndarray
    m2_j: np.ndarray
    total: np.ndarray
    loo_nonconverged: int


@dataclass(frozen=True)
class BootstrapMspe:
    """Parametric-bootstrap MSPE estimates of one dataset, in area order.

    ``m1_bias_corrected``, ``m2_star``, ``total`` and ``negative`` (a
    total below zero) are (m,) arrays.  ``b_replicates`` is the number of
    replicates the call used (failed refits are dropped).
    """

    area_ids: list
    m1_bias_corrected: np.ndarray
    m2_star: np.ndarray
    total: np.ndarray
    negative: np.ndarray
    b_replicates: int


def _leave_one_out(batch, dropped, owners):
    """A batch of datasets: row r holds every area but area dropped[r] of
    the dataset owners[r] of ``batch``."""
    kept = np.arange(batch.m - 1)
    areas = kept + (kept >= np.asarray(dropped)[:, None])
    return _arrays.select_rows(batch, owners, areas)


def leave_one_out_terms(arr, beta, max_iterations, rel_tolerance):
    """The m leave-one-out refits of each of n datasets, and each refit's
    predictions and m1 terms on its own dataset's areas.

    ``arr`` holds the n datasets as `_arrays.fit_batch` takes them, and
    each refit is warm-started at its dataset's row of ``beta`` (n, p).  Row
    r * m + j is dataset r refit without area j; each batch of refits is
    predicted from as soon as it is fitted.  Returns (n, m, m) predictions
    and m1 terms, C-contiguous with area i of dataset r under refit j at
    [r, i, j]; the refits' converged flags (n * m,); and {row: error} for
    the refits that failed and for the predictions that failed.  A failed
    refit's predictions mean nothing, so a caller puts its refit errors
    ahead of its prediction errors.
    """
    n, m = arr.z.shape
    owners, dropped = np.divmod(np.arange(n * m), m)
    pred, m1 = np.zeros((n, m, m)), np.zeros((n, m, m))
    converged = np.zeros(n * m, dtype=bool)
    fit_errors, predict_errors = {}, {}
    for rows in _arrays.batches(n * m, m):
        fit = _arrays.fit_batch(
            _leave_one_out(arr, dropped[rows], owners[rows]),
            max_iterations,
            rel_tolerance,
            beta[owners[rows]],
        )
        converged[rows] = fit.converged
        # refit row r * m + j fills column j of dataset r's (m, m) block
        at = owners[rows], slice(None), dropped[rows]
        pred[at], m1[at], _, errors = _arrays.predict_batch(
            _arrays.select_rows(arr, owners[rows]), fit.beta, fit.sigma2
        )
        fit_errors |= {rows[k]: exc for k, exc in fit.errors.items()}
        predict_errors |= {rows[k]: exc for k, exc in errors.items()}
    return pred, m1, converged, fit_errors, predict_errors


def jackknife_core(arr, beta, sigma2, max_iterations, rel_tolerance):
    m, p = arr.m, arr.p
    if m < p + 2:
        raise InsufficientAreas(f"jackknife needs at least {p + 2} areas, got {m}")
    pred_full, m1_full, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
    one, beta = _arrays.batch_of_one(arr), np.asarray(beta, dtype=float)
    pred_loo, m1_loo, converged, fit_errors, predict_errors = leave_one_out_terms(
        one, beta[None], max_iterations, rel_tolerance
    )
    if fit_errors:
        j = min(fit_errors)
        exc = fit_errors[j]
        raise SingularMomentMatrix(
            f"leave-one-out refit dropping this area failed: {exc}", index=j
        ) from exc
    _arrays.raise_first(predict_errors)
    m1_corrected, m2 = jackknife_terms(pred_full, m1_full, pred_loo[0], m1_loo[0])
    return m1_corrected, m2, int(np.count_nonzero(~converged))


def jackknife_terms(pred_full, m1_full, pred_loo, m1_loo):
    """Bias-corrected m1 and m2 of one dataset from its predictions and m1
    terms, (m,), and their leave-one-out values, (m, m): area i's value
    refit without area j at [i, j].  The (m, m) arrays are C-contiguous,
    so that each area's sum runs in one fixed order."""
    m = len(pred_full)
    factor = (m - 1.0) / m
    m1_corrected = m1_full - factor * np.sum(m1_full[:, None] - m1_loo, axis=1)
    m2 = factor * np.sum((pred_full[:, None] - pred_loo) ** 2, axis=1)
    return m1_corrected, m2


def jackknife_mspe(
    areas,
    full_fit: ModelFit,
    config: FitConfig | None = None,
) -> JackknifeMspe:
    """Leave-one-out MSPE estimates, in input order.

    Each refit is warm-started at the full-data parameters; all m refits
    run as one in-process batch.  A singular leave-one-out system is an
    error identifying the offending area.
    """
    ids, arr = _dataset(areas)
    cfg = config if config is not None else FitConfig()
    with _area_named(ids):
        m1_j, m2_j, nonconverged = jackknife_core(
            arr,
            _check_beta(full_fit.params.beta, arr.p),
            full_fit.params.sigma2_nu,
            cfg.max_iterations,
            cfg.rel_tolerance,
        )
    return JackknifeMspe(ids, m1_j, m2_j, m1_j + m2_j, nonconverged)


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


def check_bootstrap_args(b, seed) -> None:
    """Raise ValueError for fewer than 2 replicates or a bad seed."""
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    rng.check_seed(seed)


def bootstrap_core(arr, beta, sigma2, b, seed, max_iterations, rel_tolerance):
    """Bias-corrected m1, m2* and the number of replicates used and, of
    those, refits that stopped at the iteration cap."""
    m, p = arr.m, arr.p
    if m <= p:
        raise InsufficientAreas(f"need at least {p + 1} areas to refit, got {m}")
    check_bootstrap_args(b, seed)
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
        keep = _arrays.ok_rows(len(pred_star), errors)
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
) -> BootstrapMspe:
    """Parametric-bootstrap MSPE estimates, in input order.

    Replicate draws are keyed by ``(seed, replicate)`` and the B refits
    run as one in-process batch, so output is bit-reproducible.
    Replicates whose refit fails are dropped and counted; the failure
    rate is logged, and so is the number of refits used that stopped at
    the iteration cap.
    """
    ids, arr = _dataset(areas)
    cfg = config if config is not None else FitConfig()
    with _area_named(ids):
        m1_bc, m2_star, used, capped = bootstrap_core(
            arr,
            _check_beta(full_fit.params.beta, arr.p),
            full_fit.params.sigma2_nu,
            b,
            seed,
            cfg.max_iterations,
            cfg.rel_tolerance,
        )
    if capped:
        logger.warning("%d of %d bootstrap refits hit the iteration cap", capped, b)
    totals = m1_bc + m2_star
    return BootstrapMspe(ids, m1_bc, m2_star, totals, totals < 0.0, used)
