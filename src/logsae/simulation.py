"""Model-based Monte-Carlo studies.

Four studies share one synthetic-population generator:

* accuracy (``run_emse_study``): empirical MSE of the direct estimator and
  three shrinkage variants that differ in covariate source and in whether
  the measurement-error covariance enters the fit;
* uncertainty (``run_mspe_study``): relative bias of the leave-one-out and
  parametric-bootstrap MSPE estimates against the empirical MSE;
* variance truncation (``zero_proportion_study``): how often the area-level
  variance moment truncates at zero, per fit variant;
* sensitivity (``misspecification_study``): effect of a wrong
  measurement-error variance on the regression coefficient.

Replicate r of a study is a pure function of (config, r): all draws come
from streams keyed by (seed, purpose, r), so every study is
bit-reproducible.  The replicates run in turn in the calling process; the
fit variants of one replicate run as one `_arrays.fit_batch` call.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _arrays, rng
from .errors import NumericalError
from .estimation import FitConfig
from .model import AreaObservation
from .mspe import bootstrap_core, jackknife_core
from .parallel import ordered_map

__all__ = [
    "SyntheticArea",
    "SimulationConfig",
    "SimulationReport",
    "generate_population",
    "run_emse_study",
    "run_mspe_study",
    "zero_proportion_study",
    "misspecification_study",
    "EMSE_ESTIMATORS",
]

EMSE_ESTIMATORS = ("direct", "eb_true_covariate", "eb_sigma_ignored", "eb_full")

DEFAULT_M_GRID = (20, 50, 100, 500)
DEFAULT_K_GRID = (0.0, 20.0, 50.0, 80.0, 100.0)


@dataclass(frozen=True)
class SyntheticArea:
    """One generated area: latent truth plus the observable record."""

    W: np.ndarray
    theta: float
    Y: float
    obs: AreaObservation


@dataclass(frozen=True)
class SimulationConfig:
    """Generator and study sizes.

    Defaults reproduce the standard design: one covariate drawn
    Normal(mean 5, variance 9), sampling variances Gamma(shape 4.5,
    scale 2), coefficient 3, area variance 2, and a fraction ``k_percent``
    of areas measured with error variance ``d``.
    """

    m: int = 20
    k_percent: float = 0.0
    d: float = 2.0
    beta_true: tuple[float, ...] = (3.0,)
    sigma2_nu_true: float = 2.0
    r_replications: int = 1000
    b_bootstrap: int = 1000
    seed: int = 1
    covariate_mean: float = 5.0
    covariate_var: float = 9.0
    psi_shape: float = 4.5
    psi_scale: float = 2.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 <= self.k_percent <= 100.0:
            raise ValueError("k_percent must lie in [0, 100]")
        if self.d < 0.0:
            raise ValueError("d must be >= 0")
        if len(self.beta_true) == 0:
            raise ValueError("beta_true must be non-empty")
        if self.sigma2_nu_true < 0.0:
            raise ValueError("sigma2_nu_true must be >= 0")
        if self.r_replications < 1:
            raise ValueError("r_replications must be >= 1")
        if self.b_bootstrap < 2:
            raise ValueError("b_bootstrap must be >= 2")
        rng.check_seed(self.seed)
        if self.covariate_var <= 0.0 or self.psi_shape <= 0.0 or self.psi_scale <= 0.0:
            raise ValueError("covariate_var, psi_shape, psi_scale must be > 0")
        for name, value in dataclasses.asdict(self).items():  # nan passed the above
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def p(self) -> int:
        return len(self.beta_true)

    @property
    def n_measured_with_error(self) -> int:
        return round(self.k_percent * self.m / 100.0)


def _draw_population(config: SimulationConfig, replicate: int):
    """Arrays (W, theta, z, w, psi, sigma) for one replicate.

    Draw order per replicate is fixed: covariate, sampling variances,
    error-subset selection, covariate noise, area effects, sampling
    errors.  Areas not in the error subset get an exactly observed
    covariate (w == W bit for bit) and an all-zero covariance.
    """
    gen = rng.stream(config.seed, rng.GENERATE, replicate)
    m, p = config.m, config.p
    W = config.covariate_mean + math.sqrt(config.covariate_var) * gen.standard_normal(
        (m, p)
    )
    psi = gen.gamma(config.psi_shape, config.psi_scale, size=m)
    me_idx = gen.choice(m, size=config.n_measured_with_error, replace=False)
    scale = np.zeros(m)
    scale[me_idx] = math.sqrt(config.d)
    eta = scale[:, None] * gen.standard_normal((m, p))
    nu = math.sqrt(config.sigma2_nu_true) * gen.standard_normal(m)
    e = np.sqrt(psi) * gen.standard_normal(m)
    beta = np.asarray(config.beta_true, dtype=float)
    theta = W @ beta + nu
    z = theta + e
    w = W + eta
    sigma = np.zeros((m, p, p))
    sigma[me_idx] = config.d * np.eye(p)
    return W, theta, z, w, psi, sigma, me_idx


def generate_population(config: SimulationConfig, replicate: int) -> list[SyntheticArea]:
    """Deterministic synthetic population for (config.seed, replicate)."""
    W, theta, z, w, psi, sigma, _ = _draw_population(config, replicate)
    Y = _arrays.exp_checked(theta)
    return [
        SyntheticArea(
            W=W[i],
            theta=float(theta[i]),
            Y=float(Y[i]),
            obs=AreaObservation(
                area_id=f"area_{i + 1}",
                z=float(z[i]),
                w=w[i],
                psi=float(psi[i]),
                sigma_me=sigma[i],
            ),
        )
        for i in range(config.m)
    ]


@dataclass
class SimulationReport:
    """Study output: named row tables plus a scalar summary.

    ``wall_clock_seconds`` is the only non-deterministic field; the JSON
    form (`to_json_dict`) excludes it so that equal-seed runs serialize
    identically.  ``grid`` holds the m and k values of a study run over
    several (m, k) cells; they replace the single values of ``config`` in
    the JSON form.
    """

    study: str
    config: SimulationConfig
    r_completed: int
    r_failed: int
    wall_clock_seconds: float
    tables: dict[str, list[dict]] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.config.seed

    def to_json_dict(self) -> dict:
        config = dataclasses.asdict(self.config) | self.grid
        config["beta_true"] = list(config["beta_true"])
        return {
            "study": self.study,
            "config": config,
            "seed": self.seed,
            "r_completed": self.r_completed,
            "r_failed": self.r_failed,
            "summary": self.summary,
            "tables": self.tables,
        }


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x != 0.0 else float("-inf")


def _run_cell(fn, cell: SimulationConfig, fit_config, **kwargs):
    """Run ``fn`` on every replicate of one (m, k) cell.

    Returns the ``(replicate, result)`` pairs of the replicates that
    succeeded, in replicate order, and the number that failed; raises
    `NumericalError` naming the cell when every replicate failed.
    """
    cfg = fit_config if fit_config is not None else FitConfig()
    kwargs |= dict(
        config=cell, max_iterations=cfg.max_iterations, rel_tolerance=cfg.rel_tolerance
    )

    def task(replicate):
        try:
            return fn(replicate, **kwargs)
        except NumericalError:  # the replicate counts as failed
            return None

    results = ordered_map(task, range(cell.r_replications))
    done = [(r, res) for r, res in enumerate(results) if res is not None]
    if not done:
        raise NumericalError(
            f"every replicate failed at m={cell.m}, k={cell.k_percent:g}"
        )
    return done, cell.r_replications - len(done)


def _grid(config: SimulationConfig, m_values, k_values) -> list[SimulationConfig]:
    """The study's (m, k) cells, m-major; a repeated value is a usage error."""
    for name, values in (("m", m_values), ("k", k_values)):
        repeats = [v for i, v in enumerate(values) if v in values[:i]]
        if repeats:
            raise ValueError(f"{name} value {repeats[0]:g} is repeated")
    return [
        dataclasses.replace(config, m=int(m), k_percent=float(k))
        for m in m_values
        for k in k_values
    ]


def _fit_variants(z, psi, ws, sigmas, max_iterations, rel_tolerance):
    """Fit one population's variants, each with its own covariates and
    error covariances, as one batch; raise the lowest failing variant's error."""
    arr = _arrays.build(np.stack([z] * len(ws)), np.stack(ws), psi, np.stack(sigmas))
    fit = _arrays.fit_batch(arr, max_iterations, rel_tolerance)
    _arrays.raise_first(fit.errors)
    return arr, fit


# ---------------------------------------------------------------- accuracy


def _emse_replicate(replicate, config, max_iterations, rel_tolerance):
    W, theta, z, w, psi, sigma, _ = _draw_population(config, replicate)
    Y = _arrays.exp_checked(theta)
    direct = _arrays.exp_checked(z)
    zero_sigma = np.zeros_like(sigma)
    # the EB variants in EMSE_ESTIMATORS order: true covariate, Sigma
    # ignored, full
    arr, fit = _fit_variants(
        z, psi, (W, w, w), (zero_sigma, zero_sigma, sigma), max_iterations, rel_tolerance
    )
    pred, _, _, errors = _arrays.predict_batch(arr, fit.beta, fit.sigma2)
    _arrays.raise_first(errors)
    pred_matrix = np.vstack([direct, pred])
    return (pred_matrix - Y) ** 2, pred_matrix


def run_emse_study(
    config: SimulationConfig,
    fit_config: FitConfig | None = None,
) -> SimulationReport:
    """Empirical MSE of the four estimators over R replicates.

    Emits per-area empirical MSEs and, averaged over areas, both raw and
    log-rescaled MSEs and mean predictions.  Replicates where any fit or
    prediction fails numerically are dropped and counted.
    """
    t0 = time.perf_counter()
    done, failed = _run_cell(_emse_replicate, config, fit_config)
    n_est = len(EMSE_ESTIMATORS)
    sq_sum = np.zeros((n_est, config.m))
    pred_sum = np.zeros((n_est, config.m))
    for _, (sq_err, pred_matrix) in done:
        sq_sum += sq_err
        pred_sum += pred_matrix
    completed = len(done)
    emse = sq_sum / completed  # (n_est, m)
    mean_pred = pred_sum / completed
    per_area = [
        {
            "area": i + 1,
            **{f"emse_{name}": float(emse[k, i]) for k, name in enumerate(EMSE_ESTIMATORS)},
        }
        for i in range(config.m)
    ]
    emse_avg = {name: float(emse[k].mean()) for k, name in enumerate(EMSE_ESTIMATORS)}
    pred_avg = {
        name: float(mean_pred[k].mean()) for k, name in enumerate(EMSE_ESTIMATORS)
    }
    summary = {
        "estimators": list(EMSE_ESTIMATORS),
        "emse_avg_raw": emse_avg,
        "emse_avg_log": {name: math.log(v) for name, v in emse_avg.items()},
        "mean_prediction_raw": pred_avg,
        "mean_prediction_log": {name: math.log(v) for name, v in pred_avg.items()},
    }
    return SimulationReport(
        study="emse",
        config=config,
        r_completed=completed,
        r_failed=failed,
        wall_clock_seconds=time.perf_counter() - t0,
        tables={"per_area": per_area},
        summary=summary,
    )


# -------------------------------------------------------------- uncertainty


def _mspe_replicate(replicate, config, max_iterations, rel_tolerance):
    W, theta, z, w, psi, sigma, _ = _draw_population(config, replicate)
    Y = _arrays.exp_checked(theta)
    arr = _arrays.build(z, w, psi, sigma)
    beta, sigma2, _, _, _ = _arrays.fit_core(arr, max_iterations, rel_tolerance)
    pred, _, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
    jk_m1, jk_m2, _ = jackknife_core(arr, beta, sigma2, max_iterations, rel_tolerance)
    bt_m1, bt_m2, *_ = bootstrap_core(
        arr,
        beta,
        sigma2,
        config.b_bootstrap,
        rng.derive_seed(config.seed, replicate),
        max_iterations,
        rel_tolerance,
    )
    return (pred - Y) ** 2, jk_m1 + jk_m2, bt_m1 + bt_m2


def run_mspe_study(
    config: SimulationConfig,
    fit_config: FitConfig | None = None,
) -> SimulationReport:
    """Relative bias of both MSPE estimators against the empirical MSE.

    Per area i the study reports EMSE_i (mean squared prediction error
    over replicates), the replicate means of each MSPE estimate, and their
    relative biases (mean - EMSE_i) / EMSE_i; the summary averages the
    relative biases over areas.  A per-replicate table of area-averaged
    values backs distributional plots.
    """
    t0 = time.perf_counter()
    done, failed = _run_cell(_mspe_replicate, config, fit_config)
    m = config.m
    sq_sum = np.zeros(m)
    jk_sum = np.zeros(m)
    bt_sum = np.zeros(m)
    bt_neg = np.zeros(m)
    replicate_rows = []
    for r, (sq_err, jk_total, bt_total) in done:
        sq_sum += sq_err
        jk_sum += jk_total
        bt_sum += bt_total
        bt_neg += bt_total < 0.0
        replicate_rows.append(
            {
                "replicate": r,
                "sq_error_area_mean": float(sq_err.mean()),
                "mspe_jackknife_area_mean": float(jk_total.mean()),
                "mspe_bootstrap_area_mean": float(bt_total.mean()),
            }
        )
    completed = len(done)
    emse = sq_sum / completed
    jk_mean = jk_sum / completed
    bt_mean = bt_sum / completed
    rb_jk = (jk_mean - emse) / emse
    rb_bt = (bt_mean - emse) / emse
    per_area = []
    for i in range(m):
        per_area.append(
            {
                "area": i + 1,
                "emse": float(emse[i]),
                "emse_log": _log_abs(float(emse[i])),
                "mspe_jackknife_mean": float(jk_mean[i]),
                "mspe_jackknife_mean_log_abs": _log_abs(float(jk_mean[i])),
                "mspe_jackknife_mean_negative": bool(jk_mean[i] < 0.0),
                "mspe_bootstrap_mean": float(bt_mean[i]),
                "mspe_bootstrap_mean_log_abs": _log_abs(float(bt_mean[i])),
                "mspe_bootstrap_mean_negative": bool(bt_mean[i] < 0.0),
                "rb_jackknife": float(rb_jk[i]),
                "rb_bootstrap": float(rb_bt[i]),
                "bootstrap_negative_share": float(bt_neg[i] / completed),
            }
        )
    rb_jk_avg = float(rb_jk.mean())
    rb_bt_avg = float(rb_bt.mean())
    summary = {
        "emse_area_avg": float(emse.mean()),
        "mspe_jackknife_area_avg": float(jk_mean.mean()),
        "mspe_bootstrap_area_avg": float(bt_mean.mean()),
        "rb_jackknife_avg": rb_jk_avg,
        "rb_jackknife_avg_log_abs_pct": _log_abs(100.0 * rb_jk_avg),
        "rb_jackknife_avg_negative": rb_jk_avg < 0.0,
        "rb_bootstrap_avg": rb_bt_avg,
        "rb_bootstrap_avg_log_abs_pct": _log_abs(100.0 * rb_bt_avg),
        "rb_bootstrap_avg_negative": rb_bt_avg < 0.0,
        "bootstrap_negative_share_avg": float((bt_neg / completed).mean()),
    }
    return SimulationReport(
        study="mspe",
        config=config,
        r_completed=completed,
        r_failed=failed,
        wall_clock_seconds=time.perf_counter() - t0,
        tables={"per_area": per_area, "replicates": replicate_rows},
        summary=summary,
    )


# ---------------------------------------------------------- zero proportion


def _zeros_replicate(replicate, config, max_iterations, rel_tolerance):
    W, theta, z, w, psi, sigma, _ = _draw_population(config, replicate)
    zero_sigma = np.zeros_like(sigma)
    # error-aware, Sigma ignored, true covariate
    _, fit = _fit_variants(
        z, psi, (w, w, W), (sigma, zero_sigma, zero_sigma), max_iterations, rel_tolerance
    )
    return tuple(fit.truncated.tolist())


def zero_proportion_study(
    config: SimulationConfig,
    m_values=DEFAULT_M_GRID,
    k_values=DEFAULT_K_GRID,
    fit_config: FitConfig | None = None,
) -> SimulationReport:
    """Share of replicates whose variance moment truncates at zero.

    One row per (m, k) cell with the truncation share for the
    error-aware fit, the fit that ignores the error covariance, and the
    fit on the exactly observed covariate.  A repeated m or k raises
    `ValueError` before any replicate runs.
    """
    t0 = time.perf_counter()
    rows = []
    for cell in _grid(config, m_values, k_values):
        done, failed = _run_cell(_zeros_replicate, cell, fit_config)
        counts = np.zeros(3)
        for _, flags in done:
            counts += flags
        completed = len(done)
        rows.append(
            {
                "m": cell.m,
                "k_percent": cell.k_percent,
                "zero_sigma_aware": float(counts[0] / completed),
                "zero_sigma_ignored": float(counts[1] / completed),
                "zero_true_covariate": float(counts[2] / completed),
                "r_completed": completed,
                "r_failed": failed,
            }
        )
    grid = {"m": [int(m) for m in m_values], "k_percent": [float(k) for k in k_values]}
    return SimulationReport(
        study="zeros",
        config=config,
        r_completed=sum(row["r_completed"] for row in rows),
        r_failed=sum(row["r_failed"] for row in rows),
        wall_clock_seconds=time.perf_counter() - t0,
        tables={"proportions": rows},
        summary={"m_values": grid["m"], "k_values": grid["k_percent"]},
        grid=grid,
    )


# ------------------------------------------------------------- sensitivity


def _misspec_replicate(replicate, config, d_mis, max_iterations, rel_tolerance):
    W, theta, z, w, psi, sigma, me_idx = _draw_population(config, replicate)
    sigma_mis = np.zeros_like(sigma)
    sigma_mis[me_idx] = float(d_mis) * np.eye(config.p)
    _, fit = _fit_variants(
        z, psi, (w, w), (sigma, sigma_mis), max_iterations, rel_tolerance
    )
    return float(fit.beta[0, 0]), float(fit.beta[1, 0])


def misspecification_study(
    config: SimulationConfig,
    d_mis: float,
    k_values=None,
    fit_config: FitConfig | None = None,
) -> SimulationReport:
    """Coefficient sensitivity to a wrong measurement-error variance.

    Data are generated with ``config.d``; the same data are fit twice, once
    with the correct per-area covariances and once with ``d_mis`` swapped
    in for the error-measured subset.  Per k the study reports
    ``100 * mean |beta_hat - beta_hat_mis|`` and both coefficients' biases
    (also scaled by 100).  Defined for a single covariate.
    """
    if config.p != 1:
        raise ValueError("misspecification_study supports a single covariate only")
    if not (math.isfinite(d_mis) and d_mis >= 0.0):
        raise ValueError(f"d_mis must be finite and >= 0, got {d_mis}")
    t0 = time.perf_counter()
    if k_values is None:
        k_values = [config.k_percent]
    beta_target = config.beta_true[0]
    rows = []
    for cell in _grid(config, [config.m], k_values):
        done, failed = _run_cell(
            _misspec_replicate, cell, fit_config, d_mis=float(d_mis)
        )
        diffs = []
        bias_true = []
        bias_mis = []
        for _, (bt, bm) in done:
            diffs.append(abs(bt - bm))
            bias_true.append(bt - beta_target)
            bias_mis.append(bm - beta_target)
        completed = len(done)
        rows.append(
            {
                "k_percent": cell.k_percent,
                "mean_abs_diff_x100": float(100.0 * np.mean(diffs)),
                "bias_true_d_x100": float(100.0 * np.mean(bias_true)),
                "bias_mis_d_x100": float(100.0 * np.mean(bias_mis)),
                "r_completed": completed,
                "r_failed": failed,
            }
        )
    return SimulationReport(
        study="misspec",
        config=config,
        r_completed=sum(row["r_completed"] for row in rows),
        r_failed=sum(row["r_failed"] for row in rows),
        wall_clock_seconds=time.perf_counter() - t0,
        tables={"sensitivity": rows},
        summary={"d_true": float(config.d), "d_mis": float(d_mis)},
        grid={"m": [config.m], "k_percent": [float(k) for k in k_values]},
    )
