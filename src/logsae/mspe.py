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

Both run `_refit_sums`, which refits a chunk at a time and adds each
refit's per-area terms to (n, m) sums in refit or replicate order, so the
chunking never changes a bit and the jackknife holds no (m, m) array.
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


def _refit_sums(batch, owners, draw, beta, terms, config):
    """Refit row r, drawn from dataset owners[r] of ``batch`` (n datasets),
    warm-started at its owner's row of ``beta`` (n, p), and add the two
    per-area ``terms(owners, pred, m1)`` of its predictions on its owner's
    areas to (2, n, m) sums.  ``draw(rows)`` gives a chunk's datasets.
    Every row with no error is added in row order, so the chunking cannot
    change a bit.  The refits stop by the rule of ``config``, a
    `FitConfig`.  Also returns how many of those rows stopped at the
    iteration cap, and {row: error} for the failed refits and for the
    failed predictions of the rest.
    """
    n, m = batch.z.shape
    sums = np.zeros((2, n * m))
    capped, fit_errors, predict_errors = 0, {}, {}
    for rows in _arrays.batches(len(owners), m):
        own = owners[rows]
        fit = _arrays.fit_batch(draw(rows), config, beta[own])
        refit = np.flatnonzero(fit.ok)
        # one dataset serves every row's parameters; n datasets go row by row
        areas = _arrays.select_rows(batch, 0 if n == 1 else own[refit])
        pred, m1, _, errors = _arrays.predict_batch(
            areas, fit.beta[refit], fit.sigma2[refit]
        )
        keep = _arrays.ok_rows(len(refit), errors)
        capped += int(np.count_nonzero(~fit.converged[refit][keep]))
        own = own[refit][keep]
        cells = (own[:, None] * m + np.arange(m)).ravel()  # row-major: row order
        for total, term in zip(sums, terms(own, pred[keep], m1[keep])):
            np.add.at(total, cells, term.ravel())
        fit_errors |= {rows[k]: exc for k, exc in fit.errors.items()}
        predict_errors |= {rows[refit[k]]: exc for k, exc in errors.items()}
    return sums.reshape(2, n, m), capped, fit_errors, predict_errors


def leave_one_out_terms(arr, beta, pred, m1, config):
    """`_refit_sums` of the n datasets ``arr``, fitted at ``beta`` (n, p)
    to ``pred`` and ``m1`` (n, m): row r * m + j drops area j of dataset r,
    and the sums are sum_j (m1_i - m1_i(-j)) and sum_j (pred_i - pred_i(-j))^2.
    """
    n, m = arr.z.shape
    owners, dropped = np.divmod(np.arange(n * m), m)

    def draw(rows):
        return _leave_one_out(arr, dropped[rows], owners[rows])

    def terms(own, pred_loo, m1_loo):
        return m1[own] - m1_loo, (pred[own] - pred_loo) ** 2

    return _refit_sums(arr, owners, draw, beta, terms, config)


def jackknife_core(arr, beta, sigma2, config):
    m, p = arr.m, arr.p
    if m < p + 2:
        raise InsufficientAreas(f"jackknife needs at least {p + 2} areas, got {m}")
    pred, m1, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
    one, beta = _arrays.batch_of_one(arr), np.asarray(beta, dtype=float)
    sums, capped, fit_errors, predict_errors = leave_one_out_terms(
        one, beta[None], pred[None], m1[None], config
    )
    if fit_errors:
        j = min(fit_errors)
        exc = fit_errors[j]
        raise SingularMomentMatrix(
            f"leave-one-out refit dropping this area failed: {exc}", index=j
        ) from exc
    _arrays.raise_first(predict_errors)
    m1_corrected, m2 = jackknife_terms(m1, *sums[:, 0])
    return m1_corrected, m2, capped


def jackknife_terms(m1, sum_m1, sum_sq):
    """Bias-corrected m1 and m2 from the m1 terms and the two sums of
    `leave_one_out_terms`, all (..., m)."""
    factor = (m1.shape[-1] - 1.0) / m1.shape[-1]
    return m1 - factor * sum_m1, factor * sum_sq


def _resample(core, areas, full_fit, config, *args):
    """The ids of ``areas`` and the result of a resampler's ``core`` on them
    at the parameters of ``full_fit``, with any area in an error named."""
    ids, arr = _dataset(areas)
    cfg = config if config is not None else FitConfig()
    beta = _check_beta(full_fit.params.beta, arr.p)
    with _area_named(ids):
        return ids, core(arr, beta, full_fit.params.sigma2_nu, *args, cfg)


def jackknife_mspe(
    areas,
    full_fit: ModelFit,
    config: FitConfig | None = None,
) -> JackknifeMspe:
    """Leave-one-out MSPE estimates, in input order.

    The m refits, warm-started at the full-data parameters, run a chunk
    at a time and are summed in refit order, so output is bit-reproducible;
    memory is a chunk plus O(m), time O(m^2).  A singular leave-one-out
    system is an error identifying the offending area.
    """
    ids, (m1_j, m2_j, nonconverged) = _resample(jackknife_core, areas, full_fit, config)
    return JackknifeMspe(ids, m1_j, m2_j, m1_j + m2_j, nonconverged)


def _psd_factors(sigma: np.ndarray) -> np.ndarray:
    """Per-area factor L with L L' = sigma_me, tolerating singular PSD.
    One stacked Cholesky call gives each matrix the bits of its own call."""
    out = np.zeros_like(sigma)
    nonzero = np.flatnonzero(sigma.any(axis=(1, 2)))
    try:
        out[nonzero] = np.linalg.cholesky(sigma[nonzero])
    except np.linalg.LinAlgError:  # a singular matrix: factor each alone
        for i in nonzero.tolist():
            try:
                out[i] = np.linalg.cholesky(sigma[i])
            except np.linalg.LinAlgError:
                vals, vecs = np.linalg.eigh(sigma[i])
                out[i] = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return out


def _draw_starred(arr, factors, beta, sigma2, seed, replicates):
    """Synthetic datasets for the given replicates, stacked on a leading
    axis; they share the observed psi and sigma as broadcast views.

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
    psi = np.broadcast_to(arr.psi, z_star.shape)
    sigma = np.broadcast_to(arr.sigma, (*z_star.shape, p, p))
    return _arrays.AreaArrays(z_star, w_star, psi, sigma)


def check_bootstrap_args(b, seed) -> None:
    """Raise ValueError for a non-integer ``b``, fewer than 2 replicates
    or a bad seed."""
    if not isinstance(b, (int, np.integer)) or isinstance(b, bool):
        raise ValueError(f"b must be an integer, got {b!r}")
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    rng.check_seed(seed)


def bootstrap_core(arr, beta, sigma2, b, seed, config):
    """Bias-corrected m1, m2* and the number of replicates used and, of
    those, refits that stopped at the iteration cap."""
    m, p = arr.m, arr.p
    if m <= p:
        raise InsufficientAreas(f"need at least {p + 1} areas to refit, got {m}")
    check_bootstrap_args(b, seed)
    pred, m1, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
    factors = _psd_factors(arr.sigma)

    def draw(replicates):
        return _draw_starred(arr, factors, beta, sigma2, seed, replicates)

    def terms(_, pred_star, m1_star):  # starred parameters, original data
        return m1_star, (pred_star - pred) ** 2

    one, start = _arrays.batch_of_one(arr), np.asarray(beta, dtype=float)[None]
    (sum_m1, sum_sq), capped, fit_errors, predict_errors = _refit_sums(
        one, np.zeros(b, int), draw, start, terms, config
    )
    used = b - len(fit_errors) - len(predict_errors)  # the rest are dropped
    if used == 0:
        raise SingularMomentMatrix(f"all {b} bootstrap replicates failed to refit")
    if used < b:
        dropped = b - used
        logger.warning(
            "dropped %d of %d bootstrap replicates (%.1f%% failure rate)",
            dropped,
            b,
            100.0 * dropped / b,
        )
    return 2.0 * m1 - sum_m1[0] / used, sum_sq[0] / used, used, capped


def bootstrap_mspe(
    areas,
    full_fit: ModelFit,
    b: int,
    seed: int,
    config: FitConfig | None = None,
) -> BootstrapMspe:
    """Parametric-bootstrap MSPE estimates, in input order.

    Replicate draws are keyed by ``(seed, replicate)``, and the B refits
    run a chunk at a time and are summed in replicate order, so output is
    bit-reproducible.
    Replicates whose refit fails are dropped and counted; the failure
    rate is logged, and so is the number of refits used that stopped at
    the iteration cap.
    """
    ids, (m1_bc, m2_star, used, capped) = _resample(
        bootstrap_core, areas, full_fit, config, b, seed
    )
    if capped:
        logger.warning(
            "%d of %d bootstrap refits hit the iteration cap", capped, used
        )
    totals = m1_bc + m2_star
    return BootstrapMspe(ids, m1_bc, m2_star, totals, totals < 0.0, used)
