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
bit-reproducible.  The replicates run in the calling process, a chunk at a
time: one `_arrays.fit_batch` call fits every fit variant of every
replicate of a chunk, and the MSPE study makes one more for all their
leave-one-out refits.  Each replicate's results are those it gets on its
own, bit for bit.  A replicate that fails a check fails alone: each stage
runs on the whole chunk and reports {replicate: error}, the refit stages
skip a replicate that has failed, and the earliest stage's error is the
one kept.  The chunk drops its failed replicates once, at the end.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _arrays, rng
from .errors import NumericalError
from .estimation import FitConfig
from .mspe import bootstrap_core, jackknife_terms, leave_one_out_terms

__all__ = [
    "SimulationConfig",
    "SimulationReport",
    "run_emse_study",
    "run_mspe_study",
    "zero_proportion_study",
    "misspecification_study",
    "EMSE_ESTIMATORS",
    "grid_cells",
]

EMSE_ESTIMATORS = ("direct", "eb_true_covariate", "eb_sigma_ignored", "eb_full")

DEFAULT_M_GRID = (20, 50, 100, 500)
DEFAULT_K_GRID = (0.0, 20.0, 50.0, 80.0, 100.0)


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
        for name in ("m", "r_replications", "b_bootstrap"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not all(isinstance(b, numbers.Real) for b in self.beta_true):
            raise ValueError(f"beta_true must be real numbers, got {self.beta_true!r}")
        try:
            object.__setattr__(self, "beta_true", tuple(map(float, self.beta_true)))
        except OverflowError:  # an int past the float range
            raise ValueError("beta_true has an entry too large for a float") from None
        if self.m <= self.p:  # a fit needs more areas than coefficients
            raise ValueError(f"m must be > p = {self.p}, got {self.m}")
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
            # an int is finite; np.isfinite rejects one of 2**64 or more (a seed)
            if not isinstance(value, int) and not np.isfinite(value).all():
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


@dataclass
class SimulationReport:
    """Study output: named column tables plus a scalar summary.

    Each table maps column names, in CSV header order, to equal-length
    columns; the JSON form (`to_json_dict`) lists each table as rows, with
    None (JSON null) for a NaN or infinite value, which JSON cannot hold.
    ``grid`` holds the m and k values of a study run over several (m, k)
    cells; they replace the single values of ``config`` in the JSON form.
    """

    study: str
    config: SimulationConfig
    r_completed: int
    r_failed: int
    tables: dict[str, dict] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        config = dataclasses.asdict(self.config) | self.grid
        config["beta_true"] = list(config["beta_true"])
        tables = {}
        for name, columns in self.tables.items():
            values = zip(*(np.asarray(v).tolist() for v in columns.values()))
            tables[name] = [dict(zip(columns, row)) for row in values]
        return _finite_or_null({
            "study": self.study,
            "config": config,
            "seed": self.config.seed,
            "r_completed": self.r_completed,
            "r_failed": self.r_failed,
            "summary": self.summary,
            "tables": tables,
        })


def _finite_or_null(value):
    """``value`` with every NaN or infinite float in it, at any depth, as
    None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x != 0.0 else float("-inf")


def _replicate_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading replicate axis, in replicate order."""
    return np.cumsum(x, axis=0)[-1]


def _run_cell(fn, cell: SimulationConfig, fit_config, width: int, **kwargs):
    """Run ``fn`` on every replicate of one (m, k) cell, a chunk at a time.

    Each chunk goes through `_run_chunk`, and holds at most
    ``_arrays._BATCH_CELLS`` cells of the ``width`` fit rows of m areas
    that each replicate needs.  Returns the replicates that succeeded, in
    order, each of ``fn``'s outputs stacked over them, and the number
    that failed; raises `NumericalError` naming the cell when every
    replicate failed.
    """
    cfg = fit_config if fit_config is not None else FitConfig()
    kwargs |= dict(
        config=cell,
        max_iterations=cfg.max_iterations,
        rel_tolerance=cfg.rel_tolerance,
        beta_init=cfg.beta_init,
    )
    done, results = [], []
    for replicates in _arrays.batches(cell.r_replications, width * cell.m):
        outputs, errors = _run_chunk(fn, replicates, **kwargs)
        succeeded = [r for k, r in enumerate(replicates) if k not in errors]
        if succeeded:
            done += succeeded
            results.append(outputs)
    if not done:
        raise NumericalError(
            f"every replicate failed at m={cell.m}, k={cell.k_percent:g}"
        )
    outputs = [np.concatenate(output) for output in zip(*results)]
    return np.array(done), outputs, cell.r_replications - len(done)


def _run_chunk(fn, replicates: range, config: SimulationConfig, **kwargs):
    """Draw the replicates' populations, run ``fn(drawn, population, ...)``
    on those drawn, and keep the outputs of the replicates no stage failed.

    ``fn`` gets the drawn replicate numbers and each population array
    stacked on a leading axis.  It returns its outputs for every replicate
    it was given, each stacked along a leading axis, and {position among
    them: error}.  Returns the outputs of the replicates that succeeded,
    in order, and {position in ``replicates``: error}.
    """
    drawn, populations, errors = [], [], {}
    for k, replicate in enumerate(replicates):
        try:
            populations.append(_draw_population(config, replicate))
        except NumericalError as exc:
            errors[k] = exc
        else:
            drawn.append(k)
    if not populations:
        return (), errors
    population = [np.stack(x) for x in zip(*populations)]
    outputs, failed = fn(
        [replicates[k] for k in drawn], population, config=config, **kwargs
    )
    errors |= {drawn[k]: exc for k, exc in failed.items()}
    ok = _arrays.ok_rows(len(drawn), failed)
    return [output[ok] for output in outputs], errors


def _one(fn, replicate, **kwargs):
    """Replicate ``replicate`` alone through `_run_chunk`: its outputs, or
    its error raised."""
    outputs, errors = _run_chunk(
        fn, range(replicate, replicate + 1), beta_init=None, **kwargs
    )
    _arrays.raise_first(errors)
    return tuple(output[0] for output in outputs)


def _replicate_errors(errors: dict, width: int) -> dict:
    """{replicate: error of its lowest failed row} for a batch of ``width``
    rows per replicate."""
    first = {}
    for row in sorted(errors):
        first.setdefault(row // width, errors[row])
    return first


def _run_grid(fn, cells, fit_config, width, reduce, **kwargs):
    """Run ``fn`` on every cell and reduce each cell's outputs to one row.

    Returns the rows as columns, one per value ``reduce(*outputs)``
    returns, and the per-cell completed and failed replicate counts.
    """
    rows, completed, failed = [], [], []
    for cell in cells:
        replicates, outputs, n_failed = _run_cell(
            fn, cell, fit_config, width, **kwargs
        )
        rows.append(reduce(*outputs))
        completed.append(len(replicates))
        failed.append(n_failed)
    return np.array(rows).T, np.array(completed), np.array(failed)


def grid_cells(
    config: SimulationConfig, m_values, k_values
) -> list[SimulationConfig]:
    """``config`` with each (m, k) of a study grid, m-major.  A repeated
    m or k is a usage error: `ValueError` naming the value."""
    for name, values in (("m", m_values), ("k", k_values)):
        repeats = [v for i, v in enumerate(values) if v in values[:i]]
        if repeats:
            raise ValueError(f"{name} value {repeats[0]:g} is repeated")
    return [
        dataclasses.replace(config, m=int(m), k_percent=float(k))
        for m in m_values
        for k in k_values
    ]


def _fit_variants(z, psi, ws, sigmas, max_iterations, rel_tolerance, beta_init):
    """Fit every replicate's variants, each with its own covariates and
    error covariances, as one batch of rows replicate-major.

    Returns the batch, its fit and {replicate: error of its lowest failing
    variant}.
    """
    width = len(ws)

    def rows(variants):  # (n, m, ...) per variant -> (n * width, m, ...)
        return np.stack(variants, axis=1).reshape(-1, *variants[0].shape[1:])

    z, psi = np.repeat(z, width, axis=0), np.repeat(psi, width, axis=0)
    arr = _arrays.build(z, rows(ws), psi, rows(sigmas))
    fit = _arrays.fit_batch(arr, max_iterations, rel_tolerance, beta_init)
    return arr, fit, _replicate_errors(fit.errors, width)


# ---------------------------------------------------------------- accuracy


def _emse_chunk(
    replicates, population, config, max_iterations, rel_tolerance, beta_init
):
    W, theta, z, w, psi, sigma, _ = population
    Y, y_errors = _arrays.exp_batch(theta)
    direct, direct_errors = _arrays.exp_batch(z)
    zero_sigma = np.zeros_like(sigma)
    # the EB variants in EMSE_ESTIMATORS order: true covariate, Sigma
    # ignored, full
    arr, fit, fit_errors = _fit_variants(
        z, psi, (W, w, w), (zero_sigma, zero_sigma, sigma),
        max_iterations, rel_tolerance, beta_init,
    )
    pred, _, _, errors = _arrays.predict_batch(arr, fit.beta, fit.sigma2)
    pred = pred.reshape(len(z), 3, config.m)
    pred_matrix = np.concatenate([direct[:, None], pred], axis=1)
    # the earliest stage's error wins, and Y's before the direct estimate's
    errors = _replicate_errors(errors, 3) | fit_errors | direct_errors | y_errors
    return ((pred_matrix - Y[:, None]) ** 2, pred_matrix), errors


def run_emse_study(
    config: SimulationConfig,
    fit_config: FitConfig | None = None,
) -> SimulationReport:
    """Empirical MSE of the four estimators over R replicates.

    Emits per-area empirical MSEs and, averaged over areas, both raw and
    log-rescaled MSEs and mean predictions.  Replicates where any fit or
    prediction fails numerically are dropped and counted.
    """
    replicates, (sq_err, pred), failed = _run_cell(_emse_chunk, config, fit_config, 3)
    completed = len(replicates)
    emse = _replicate_sum(sq_err) / completed  # (n_est, m)
    mean_pred = _replicate_sum(pred) / completed
    per_area = {"area": np.arange(1, config.m + 1)}
    per_area |= {f"emse_{name}": emse[k] for k, name in enumerate(EMSE_ESTIMATORS)}
    emse_avg = {name: float(emse[k].mean()) for k, name in enumerate(EMSE_ESTIMATORS)}
    pred_avg = {
        name: float(mean_pred[k].mean()) for k, name in enumerate(EMSE_ESTIMATORS)
    }
    summary = {
        "estimators": list(EMSE_ESTIMATORS),
        "emse_avg_raw": emse_avg,
        "emse_avg_log": {name: _log_abs(v) for name, v in emse_avg.items()},
        "mean_prediction_raw": pred_avg,
        "mean_prediction_log": {name: _log_abs(v) for name, v in pred_avg.items()},
    }
    return SimulationReport(
        study="emse",
        config=config,
        r_completed=completed,
        r_failed=failed,
        tables={"per_area": per_area},
        summary=summary,
    )


# -------------------------------------------------------------- uncertainty


def _mspe_chunk(
    replicates, population, config, max_iterations, rel_tolerance, beta_init
):
    _, theta, z, w, psi, sigma, _ = population
    Y, y_errors = _arrays.exp_batch(theta)
    arr = _arrays.build(z, w, psi, sigma)
    fit = _arrays.fit_batch(arr, max_iterations, rel_tolerance, beta_init)
    pred, m1, _, errors = _arrays.predict_batch(arr, fit.beta, fit.sigma2)
    errors |= fit.errors | y_errors  # the earliest stage's error wins
    # the refits run only for the replicates with no error yet
    live = np.flatnonzero(_arrays.ok_rows(len(z), errors))
    pred_loo, m1_loo, _, fit_errors, predict_errors = leave_one_out_terms(
        _arrays.select_rows(arr, live), fit.beta[live], max_iterations, rel_tolerance
    )
    loo_errors = _replicate_errors(predict_errors, config.m) | _replicate_errors(
        fit_errors, config.m
    )
    errors |= {int(live[k]): exc for k, exc in loo_errors.items()}
    jk_total, bt_total = np.zeros_like(pred), np.zeros_like(pred)
    # one bootstrap_core call, a batch of B refits, per replicate: a chunk
    # of bootstraps would hold B refit rows per replicate at once
    for k, b in enumerate(live.tolist()):
        if k in loo_errors:
            continue
        try:
            bt_m1, bt_m2, *_ = bootstrap_core(
                _arrays.select_rows(arr, b),
                fit.beta[b],
                float(fit.sigma2[b]),
                config.b_bootstrap,
                rng.derive_seed(config.seed, replicates[b]),
                max_iterations,
                rel_tolerance,
            )
        except NumericalError as exc:
            errors[b] = exc
            continue
        jk_m1, jk_m2 = jackknife_terms(pred[b], m1[b], pred_loo[k], m1_loo[k])
        jk_total[b], bt_total[b] = jk_m1 + jk_m2, bt_m1 + bt_m2
    return ((pred - Y) ** 2, jk_total, bt_total), errors


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
    if config.m < config.p + 2:  # the jackknife refits on m - 1 areas
        raise ValueError(f"m must be >= p + 2 = {config.p + 2}, got {config.m}")
    replicates, (sq_err, jk_total, bt_total), failed = _run_cell(
        _mspe_chunk, config, fit_config, config.m
    )
    completed = len(replicates)
    emse = _replicate_sum(sq_err) / completed
    jk_mean = _replicate_sum(jk_total) / completed
    bt_mean = _replicate_sum(bt_total) / completed
    bt_neg_share = _replicate_sum(bt_total < 0.0) / completed
    rb_jk = (jk_mean - emse) / emse
    rb_bt = (bt_mean - emse) / emse
    per_area = {
        "area": np.arange(1, config.m + 1),
        "emse": emse,
        "emse_log": [_log_abs(v) for v in emse.tolist()],
        "mspe_jackknife_mean": jk_mean,
        "mspe_jackknife_mean_log_abs": [_log_abs(v) for v in jk_mean.tolist()],
        "mspe_jackknife_mean_negative": jk_mean < 0.0,
        "mspe_bootstrap_mean": bt_mean,
        "mspe_bootstrap_mean_log_abs": [_log_abs(v) for v in bt_mean.tolist()],
        "mspe_bootstrap_mean_negative": bt_mean < 0.0,
        "rb_jackknife": rb_jk,
        "rb_bootstrap": rb_bt,
        "bootstrap_negative_share": bt_neg_share,
    }
    replicate_means = {
        "replicate": replicates,
        "sq_error_area_mean": sq_err.mean(axis=1),
        "mspe_jackknife_area_mean": jk_total.mean(axis=1),
        "mspe_bootstrap_area_mean": bt_total.mean(axis=1),
    }
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
        "bootstrap_negative_share_avg": float(bt_neg_share.mean()),
    }
    return SimulationReport(
        study="mspe",
        config=config,
        r_completed=completed,
        r_failed=failed,
        tables={"per_area": per_area, "replicates": replicate_means},
        summary=summary,
    )


# ---------------------------------------------------------- zero proportion


def _zeros_chunk(
    replicates, population, config, max_iterations, rel_tolerance, beta_init
):
    W, theta, z, w, psi, sigma, _ = population
    zero_sigma = np.zeros_like(sigma)
    # error-aware, Sigma ignored, true covariate
    _, fit, errors = _fit_variants(
        z, psi, (w, w, W), (sigma, zero_sigma, zero_sigma),
        max_iterations, rel_tolerance, beta_init,
    )
    return tuple(fit.truncated.reshape(len(z), 3).T), errors


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
    cells = grid_cells(config, m_values, k_values)
    (aware, ignored, true_covariate), completed, failed = _run_grid(
        _zeros_chunk,
        cells,
        fit_config,
        3,
        lambda *flags: [_replicate_sum(f) / len(f) for f in flags],
    )
    proportions = {
        "m": np.array([cell.m for cell in cells]),
        "k_percent": np.array([cell.k_percent for cell in cells]),
        "zero_sigma_aware": aware,
        "zero_sigma_ignored": ignored,
        "zero_true_covariate": true_covariate,
        "r_completed": completed,
        "r_failed": failed,
    }
    grid = {"m": [int(m) for m in m_values], "k_percent": [float(k) for k in k_values]}
    return SimulationReport(
        study="zeros",
        config=config,
        r_completed=int(completed.sum()),
        r_failed=int(failed.sum()),
        tables={"proportions": proportions},
        summary={"m_values": grid["m"], "k_values": grid["k_percent"]},
        grid=grid,
    )


# ------------------------------------------------------------- sensitivity


def _misspec_chunk(
    replicates, population, config, d_mis, max_iterations, rel_tolerance, beta_init
):
    W, theta, z, w, psi, sigma, me_idx = population
    sigma_mis = np.zeros_like(sigma)
    sigma_mis[np.arange(len(z))[:, None], me_idx] = float(d_mis) * np.eye(config.p)
    _, fit, errors = _fit_variants(
        z, psi, (w, w), (sigma, sigma_mis), max_iterations, rel_tolerance, beta_init
    )
    return tuple(fit.beta[:, 0].reshape(len(z), 2).T), errors


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
    if k_values is None:
        k_values = [config.k_percent]
    beta_target = config.beta_true[0]
    cells = grid_cells(config, [config.m], k_values)
    stats, completed, failed = _run_grid(
        _misspec_chunk,
        cells,
        fit_config,
        2,
        lambda bt, bm: [
            np.mean(np.abs(bt - bm)), np.mean(bt - beta_target), np.mean(bm - beta_target)
        ],
        d_mis=float(d_mis),
    )
    abs_diff, bias_true, bias_mis = 100.0 * stats
    sensitivity = {
        "k_percent": np.array([cell.k_percent for cell in cells]),
        "mean_abs_diff_x100": abs_diff,
        "bias_true_d_x100": bias_true,
        "bias_mis_d_x100": bias_mis,
        "r_completed": completed,
        "r_failed": failed,
    }
    return SimulationReport(
        study="misspec",
        config=config,
        r_completed=int(completed.sum()),
        r_failed=int(failed.sum()),
        tables={"sensitivity": sensitivity},
        summary={"d_true": float(config.d), "d_mis": float(d_mis)},
        grid={"m": [config.m], "k_percent": [float(k) for k in k_values]},
    )
