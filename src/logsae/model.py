"""Core quantities of the area-level log-scale shrinkage model.

The observable for area i is a log-scale direct estimate ``z_i`` tied to a
latent mean ``theta_i`` by ``z_i = theta_i + e_i`` with known sampling
variance ``psi_i``.  The latent mean follows the linking regression
``theta_i = W_i' beta + nu_i`` with between-area variance ``sigma2_nu``,
but the covariate ``W_i`` is only observed through ``w_i = W_i + eta_i``
where ``eta_i`` has known covariance ``sigma_me_i``.  The target is the
positive-scale quantity ``Y_i = exp(theta_i)``.

Conditional on the observed data, ``theta_i`` is normal with mean
``gamma_i z_i + (1 - gamma_i) w_i' beta`` and variance ``gamma_i psi_i``,
where the shrinkage weight is

    gamma_i = (beta' sigma_me_i beta + sigma2_nu)
              / (beta' sigma_me_i beta + sigma2_nu + psi_i).

The best predictor of ``Y_i`` and the leading term of its prediction
uncertainty are both log-normal moments of that conditional law; they are
computed in log space so that extreme but representable values do not
overflow intermediate steps.  The arithmetic lives in `_arrays`; the
functions here evaluate it on one area or on a whole `Dataset`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _arrays
from .errors import InsufficientAreas, NonPsdSigma, NumericalError, ParseError

__all__ = [
    "AreaObservation",
    "Dataset",
    "ModelParams",
    "PosteriorMoments",
    "EbPrediction",
    "shrinkage_gamma",
    "posterior_moments",
    "eb_predict",
    "m1_term",
    "predict_areas",
]

def _readonly(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_psd(sig: np.ndarray, context) -> None:
    """Raise NonPsdSigma for the first covariance of the stack ``sig``
    (m, p, p) that is not finite, symmetric (as ``np.allclose`` with
    rtol=1e-8, atol=1e-12) and positive semi-definite; ``context(i)``
    names area i in the message."""
    finite = np.isfinite(sig).all(axis=(1, 2))
    if sig.shape[-1] == 1:  # 1x1: symmetric, and its eigenvalue is its entry
        symmetric = finite
        negative = sig[:, 0, 0] < 0.0
    else:
        if not finite.all():
            sig = np.where(finite[:, None, None], sig, 0.0)
        t = sig.swapaxes(1, 2)
        close = np.abs(sig - t) <= 1e-12 + 1e-8 * np.abs(t)
        symmetric = finite & close.all(axis=(1, 2))
        if not symmetric.all():
            sig = np.where(symmetric[:, None, None], sig, 0.0)
        eigvals = np.linalg.eigvalsh(sig)
        negative = eigvals[:, 0] < -1e-12 * np.maximum(1.0, eigvals[:, -1])
    bad = ~symmetric | negative  # symmetric implies finite
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if not finite[i]:
        problem = "covariance has non-finite entries"
    elif not symmetric[i]:
        problem = "covariance is not symmetric"
    elif sig.shape[-1] == 1:
        problem = f"negative variance {float(sig[i, 0, 0])!r}"
    else:
        problem = f"covariance has negative eigenvalue {float(eigvals[i, 0])!r}"
    raise NonPsdSigma(f"{context(i)}: {problem}")


def _check_variances(name, sig: np.ndarray, psi) -> float:
    """``psi`` as a float, after checking one area's variances: ValueError
    for a ``psi`` not finite and >= 0, then `_check_psd` on its covariance
    ``sig`` (p, p).  ``name`` starts each message."""
    psi = float(psi)
    if not math.isfinite(psi) or psi < 0.0:
        raise ValueError(f"{name}: psi must be finite and >= 0")
    _check_psd(sig[None], lambda i: name)
    return psi


@dataclass(frozen=True)
class AreaObservation:
    """One small area's inputs.

    Attributes
    ----------
    area_id:
        Stable identifier used in reports and error messages.
    z:
        Direct estimate on the log scale.
    w:
        Observed covariate vector, shape ``(p,)``.
    psi:
        Known sampling variance of ``z`` (non-negative).
    sigma_me:
        Known measurement-error covariance of ``w``, shape ``(p, p)``,
        symmetric positive semi-definite.  All-zero means the covariate is
        observed exactly.
    """

    area_id: str
    z: float
    w: np.ndarray
    psi: float
    sigma_me: np.ndarray

    def __post_init__(self):
        w = _readonly(self.w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(f"{self.area_id}: w must be a non-empty 1-D vector")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"{self.area_id}: w has non-finite entries")
        sig = _readonly(self.sigma_me)
        if sig.shape != (w.size, w.size):
            raise ValueError(
                f"{self.area_id}: sigma_me shape {sig.shape} does not match p={w.size}"
            )
        z = float(self.z)
        if not math.isfinite(z):
            raise ValueError(f"{self.area_id}: z must be finite")
        psi = _check_variances(self.area_id, sig, self.psi)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "sigma_me", sig)

    @property
    def p(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class ModelParams:
    """Linking-model parameters: regression coefficients and area variance."""

    beta: np.ndarray
    sigma2_nu: float

    def __post_init__(self):
        beta = _readonly(self.beta)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("beta must be a non-empty 1-D vector")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta has non-finite entries")
        s2 = float(self.sigma2_nu)
        if not math.isfinite(s2) or s2 < 0.0:
            raise ValueError("sigma2_nu must be finite and >= 0")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma2_nu", s2)

    @property
    def p(self) -> int:
        return self.beta.size


@dataclass(frozen=True)
class PosteriorMoments:
    """Conditional mean and variance of the latent log-scale mean."""

    mean: float
    variance: float
    gamma: float


class Dataset(NamedTuple):
    """Area ids in order and their stacked `_arrays.AreaArrays`.  The public
    API takes one, or a list of `AreaObservation` that it stacks once;
    `from_columns` builds one and checks it."""

    ids: list
    arrays: _arrays.AreaArrays

    @classmethod
    def from_columns(cls, ids, z, w, psi, sigma) -> "Dataset":
        """The checked dataset of m areas: ``ids``, ``z`` (m,), ``w`` (m, p),
        ``psi`` (m,) and ``sigma`` (m, p, p), on the log scale.

        After the shapes, the first failed check of the first bad row i
        raises, naming ``row at index i``.  A row's checks run in order: its
        id (blank, then repeated); ``z``, each ``w_j``, ``psi`` (then ``psi
        >= 0``) and each lower-triangle ``sme_j_k`` of ``sigma`` finite; and
        last `_check_psd` (`NonPsdSigma`; the others raise `ParseError`).
        """
        return _from_columns(ids, z, w, psi, sigma, "index {}".format)


@dataclass(frozen=True)
class EbPrediction:
    """Per-area (m,) arrays, in area order: the positive-scale prediction,
    ``m1`` (the conditional variance of ``exp(theta)``) and ``gamma``."""

    area_ids: list
    prediction: np.ndarray
    m1: np.ndarray
    gamma: np.ndarray


def _check_beta(beta, p: int) -> np.ndarray:
    """``beta`` as a float vector of length ``p``, or ValueError naming both
    lengths; a length the arrays would broadcast must not pass."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (p,):
        raise ValueError(f"beta has shape {beta.shape} but the areas have p={p}")
    return beta


def _moments(obs: AreaObservation, params: ModelParams):
    # conditional (mean, variance, gamma) of one area, as (1, 1) arrays
    arr = _arrays.AreaArrays(
        np.array([obs.z]), obs.w[None, :], np.array([obs.psi]), obs.sigma_me[None]
    )
    beta = _check_beta(params.beta, obs.p)
    mean, var, gamma, errors = _arrays.conditional_batch(
        arr, beta[None], np.array([params.sigma2_nu])
    )
    _arrays.raise_first(errors)
    return mean, var, gamma


def _from_columns(ids, z, w, psi, sigma, where, unreadable=None) -> Dataset:
    """`Dataset.from_columns`, naming row i ``row at {where(i)}``; a value
    not finite in row i of column c raises ``unreadable(i, c)``, if given."""
    ids = list(ids)
    z, w, psi, sigma = (np.asarray(c, dtype=float) for c in (z, w, psi, sigma))
    m, p = len(ids), (w.shape[1] if w.ndim == 2 else 0)
    if not p:
        raise ParseError(f"column 'w' has shape {w.shape}, not (m, p) with p >= 1")
    shapes = {"z": (m,), "w": (m, p), "psi": (m,), "sigma": (m, p, p)}
    for (name, shape), column in zip(shapes.items(), (z, w, psi, sigma)):
        if column.shape != shape:
            raise ParseError(f"column {name!r} has shape {column.shape}, not {shape}")

    blank = np.array([not str(area_id).strip() for area_id in ids], dtype=bool)
    first = {}  # area id -> row of its first occurrence
    repeated = np.zeros(m, dtype=bool)
    if len(set(ids)) < m:
        repeated = np.array([first.setdefault(a, i) != i for i, a in enumerate(ids)])
    values = {"z": z, **{f"w_{j + 1}": w[:, j] for j in range(p)}, "psi": psi}
    for j, k in zip(*np.tril_indices(p)):  # row-major
        values[f"sme_{j + 1}_{k + 1}"] = sigma[:, j, k]
    checks = {"blank": blank, "repeated": repeated}  # the rows failing each
    for column, v in values.items():
        checks[column] = ~np.isfinite(v)
        if column == "psi":
            checks["psi >= 0"] = psi < 0.0

    # the first failed check of the first bad row; a covariance is checked
    # last in its row, so only the rows before that one need the PSD test
    failed = [(int(np.argmax(bad)), c) for c, bad in checks.items() if bad.any()]
    i, check = min(failed, default=(m, None), key=lambda f: f[0])
    _check_psd(sigma[:i], lambda r: f"row at {where(r)}: {ids[r]}")
    if check is None:
        return Dataset(ids, _arrays.AreaArrays(z, w, psi, sigma))
    row = f"row at {where(i)}"
    if check == "blank":
        raise ParseError(f"{row}: missing value in column 'area_id'")
    if check == "repeated":
        seen = where(first[ids[i]])
        raise ParseError(f"{row}: duplicate area_id {ids[i]!r}, first seen at {seen}")
    if check == "psi >= 0":
        raise ParseError(f"{row}: column 'psi' must be >= 0, got {float(psi[i])!r}")
    if unreadable is not None:
        raise unreadable(i, check)
    value = float(values[check][i])
    raise ParseError(f"{row}: column {check!r} must be finite, got {value!r}")


def _dataset(areas) -> Dataset:
    # a Dataset as given, or a list of AreaObservation stacked once and checked
    if not isinstance(areas, Dataset):
        areas = list(areas)
        arr = _arrays.stack(areas)
        ids = [a.area_id for a in areas]
        return Dataset.from_columns(ids, arr.z, arr.w, arr.psi, arr.sigma)
    if len(areas.ids) != areas.arrays.m:
        raise ValueError(
            f"Dataset has {len(areas.ids)} area ids for {areas.arrays.m} areas"
        )
    if not areas.ids:  # as stack raises for an empty list
        raise InsufficientAreas("no areas given")
    return areas


@contextmanager
def _area_named(ids):
    # the kernel reports an array index; name the area it belongs to
    try:
        yield
    except NumericalError as exc:
        if exc.index is None:
            raise
        raise type(exc)(f"{ids[exc.index]}: {exc}", index=exc.index) from None


def shrinkage_gamma(params: ModelParams, sigma_me: np.ndarray, psi: float) -> float:
    """Weight the direct estimate carries in the conditional mean.

    Parameters
    ----------
    params:
        Current parameter values ``(beta, sigma2_nu)``.
    sigma_me:
        Measurement-error covariance for the area, shape ``(p, p)``.
    psi:
        Sampling variance of the area's direct estimate.

    Returns
    -------
    float
        ``(beta' sigma_me beta + sigma2_nu) / (same + psi)``, guaranteed to
        lie in ``[0, 1]``.  Equals 1 exactly when ``psi == 0`` and 0 when
        the numerator vanishes while ``psi > 0``.

    Raises
    ------
    ValueError
        If ``sigma_me`` is not a square matrix, ``beta`` does not have its
        p entries, or ``psi`` is not finite and >= 0.
    NonPsdSigma
        If ``sigma_me`` is not finite, symmetric and positive semi-definite,
        as `AreaObservation` requires.
    DegenerateVariance
        If numerator and ``psi`` are both zero: with every variance gone
        there is no weighting to define.
    """
    sig = np.asarray(sigma_me, dtype=float)
    if sig.ndim != 2 or sig.shape[0] != sig.shape[1]:
        raise ValueError(f"area: sigma_me has shape {sig.shape}, not (p, p)")
    beta = _check_beta(params.beta, len(sig))
    psi = _check_variances("area", sig, psi)
    gamma, errors = _arrays.gamma_batch(
        sig[None], np.array([psi]), beta[None], np.array([params.sigma2_nu])
    )
    _arrays.raise_first(errors)
    return float(gamma[0, 0])


def posterior_moments(obs: AreaObservation, params: ModelParams) -> PosteriorMoments:
    """Conditional law of the latent log-scale mean given the data.

    The regression part of the conditional mean uses ``obs.w``; for another
    covariate, pass ``dataclasses.replace(obs, w=...)``.
    """
    with _area_named([obs.area_id]):
        mean, var, gamma = _moments(obs, params)
    return PosteriorMoments(
        mean=float(mean[0, 0]), variance=float(var[0, 0]), gamma=float(gamma[0, 0])
    )


def eb_predict(obs: AreaObservation, params: ModelParams) -> float:
    """Best predictor of the positive-scale quantity ``exp(theta)``.

    Computes ``exp(gamma z + (1 - gamma) w'beta + gamma psi / 2)``: the
    conditional expectation of a log-normal variable, so the result is the
    conditional mean of ``Y`` rather than the exponential of the
    conditional mean of ``theta``.

    Raises
    ------
    PredictionOverflow
        If the exponent leaves the representable double range.  The error
        is raised instead of returning ``inf`` or ``0.0``.
    """
    with _area_named([obs.area_id]):
        mean, var, _ = _moments(obs, params)
        pred, errors = _arrays.exp_batch(mean + 0.5 * var)
        _arrays.raise_first(errors)
    return float(pred[0, 0])


def m1_term(obs: AreaObservation, params: ModelParams) -> float:
    """Leading prediction-uncertainty term: conditional variance of ``Y``.

    Equals ``exp(psi gamma) (exp(psi gamma) - 1) exp(2 [gamma z +
    (1 - gamma) w'beta])``.  Always non-negative, and zero exactly when
    ``gamma psi == 0``.
    """
    with _area_named([obs.area_id]):
        mean, var, _ = _moments(obs, params)
        m1, errors = _arrays.m1_batch(mean, var)
        _arrays.raise_first(errors)
    return float(m1[0, 0])


def predict_areas(areas, params: ModelParams) -> EbPrediction:
    """Positive-scale predictions plus their leading uncertainty terms.

    Raises
    ------
    InsufficientAreas
        If ``areas`` is empty.
    """
    ids, arr = _dataset(areas)
    beta = _check_beta(params.beta, arr.p)
    with _area_named(ids):
        columns = _arrays.predictions_and_m1(arr, beta, params.sigma2_nu)
    return EbPrediction(ids, *columns)
