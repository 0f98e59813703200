"""Checks on the CLI's output files.

Invariant checks read the result files with the standard ``csv`` and
``json`` modules.  Oracle checks compare them with the straight-line
reimplementations in ``tests/oracles.py``, within the tolerance of the
package's own acceptance criterion 2.  Every check raises `CheckFailed`
with a message naming the file and the row at fault.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ORACLE_TOLERANCE = 1e-8

PREDICT_HEADER = ["area_id", "prediction", "m1", "gamma"]
BOOTSTRAP_HEADER = [
    "area_id", "m1_bias_corrected", "m2_star", "mspe", "negative", "b_replicates",
]
JACKKNIFE_HEADER = ["area_id", "m1_j", "m2_j", "mspe", "loo_nonconverged"]
REPLICATES_HEADER = [
    "replicate", "sq_error_area_mean", "mspe_jackknife_area_mean", "mspe_bootstrap_area_mean",
]


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(out_dir) -> dict:
    """sha256 of every result file except the run's manifest."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path}: cannot read: {exc}") from None
    require(rows, f"{path}: empty")
    return rows[0], rows[1:]


def _read_csv(path, header) -> list[list[str]]:
    found, rows = _read_table(path)
    require(found == header, f"{path}: header {found} != {header}")
    return rows


def _column(rows, index: int, path, name: str) -> np.ndarray:
    try:
        values = np.array([float(row[index]) for row in rows])
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"{path}: column {name!r} is not numeric: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(values))
    require(bad.size == 0, f"{path}: column {name!r} not finite at row {bad[:1] + 2}")
    return values


def _read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path}: cannot read: {exc}") from None


def _check_ids(rows, area_ids, path) -> None:
    require(len(rows) == len(area_ids), f"{path}: {len(rows)} rows, expected {len(area_ids)}")
    for line, (row, expected) in enumerate(zip(rows, area_ids), start=2):
        require(row[0] == expected, f"{path}: line {line} is {row[0]!r}, expected {expected!r}")


def _check_fit(out_dir, data) -> dict:
    path = Path(out_dir) / "fit.json"
    fit = _read_json(path)
    require(fit.get("area_ids") == data.area_ids, f"{path}: area_ids differ from the input")
    beta = np.asarray(fit.get("beta", []), dtype=float)
    require(beta.shape == (data.p,) and np.all(np.isfinite(beta)), f"{path}: bad beta {beta}")
    sigma2 = fit.get("sigma2_nu")
    require(
        isinstance(sigma2, (int, float)) and math.isfinite(sigma2) and sigma2 >= 0.0,
        f"{path}: bad sigma2_nu {sigma2!r}",
    )
    gammas = np.asarray(fit.get("gammas", []), dtype=float)
    require(gammas.shape == (data.m,), f"{path}: {gammas.size} gammas for {data.m} areas")
    require(np.all((gammas >= 0.0) & (gammas <= 1.0)), f"{path}: a gamma is outside [0, 1]")
    return fit


def check_manifest(out_dir, input_sha256) -> None:
    path = Path(out_dir) / "manifest.json"
    got = _read_json(path).get("input_sha256")
    require(got == input_sha256, f"{path}: input_sha256 {got!r} != {input_sha256!r}")


def check_predict(out_dir, data) -> None:
    path = Path(out_dir) / "predictions.csv"
    rows = _read_csv(path, PREDICT_HEADER)
    _check_ids(rows, data.area_ids, path)
    pred = _column(rows, 1, path, "prediction")
    m1 = _column(rows, 2, path, "m1")
    gamma = _column(rows, 3, path, "gamma")
    require(np.all(pred > 0.0), f"{path}: a prediction is not > 0")
    require(np.all(m1 >= 0.0), f"{path}: an m1 is negative")
    require(np.all((gamma >= 0.0) & (gamma <= 1.0)), f"{path}: a gamma is outside [0, 1]")
    _check_fit(out_dir, data)


def _flag(rows, index, path, name) -> np.ndarray:
    values = [row[index] for row in rows]
    require(set(values) <= {"true", "false"}, f"{path}: column {name!r} is not boolean")
    return np.array([v == "true" for v in values])


def check_bootstrap(out_dir, data, b: int) -> None:
    path = Path(out_dir) / "mspe.csv"
    rows = _read_csv(path, BOOTSTRAP_HEADER)
    _check_ids(rows, data.area_ids, path)
    m1 = _column(rows, 1, path, "m1_bias_corrected")
    m2 = _column(rows, 2, path, "m2_star")
    total = _column(rows, 3, path, "mspe")
    negative = _flag(rows, 4, path, "negative")
    used = _column(rows, 5, path, "b_replicates")
    require(np.all(m2 >= 0.0), f"{path}: an m2_star is negative")
    require(np.array_equal(total, m1 + m2), f"{path}: mspe != m1_bias_corrected + m2_star")
    require(np.array_equal(negative, total < 0.0), f"{path}: 'negative' disagrees with mspe")
    require(
        np.all(used == used[0]) and 1 <= used[0] <= b and used[0] == int(used[0]),
        f"{path}: b_replicates must be one integer in [1, {b}]",
    )
    _check_fit(out_dir, data)


def check_jackknife(out_dir, data) -> None:
    path = Path(out_dir) / "mspe.csv"
    rows = _read_csv(path, JACKKNIFE_HEADER)
    _check_ids(rows, data.area_ids, path)
    m1 = _column(rows, 1, path, "m1_j")
    m2 = _column(rows, 2, path, "m2_j")
    total = _column(rows, 3, path, "mspe")
    nonconverged = _column(rows, 4, path, "loo_nonconverged")
    require(np.all(m2 >= 0.0), f"{path}: an m2_j is negative")
    require(np.array_equal(total, m1 + m2), f"{path}: mspe != m1_j + m2_j")
    require(
        np.all(nonconverged == nonconverged[0]) and 0 <= nonconverged[0] <= data.m,
        f"{path}: loo_nonconverged must be one integer in [0, {data.m}]",
    )
    _check_fit(out_dir, data)


def check_simulate(out_dir, m: int, r: int) -> None:
    path = Path(out_dir) / "report.json"
    report = _read_json(path)
    completed, failed = report.get("r_completed"), report.get("r_failed")
    require(report.get("study") == "mspe", f"{path}: study is {report.get('study')!r}")
    require(
        isinstance(completed, int) and isinstance(failed, int)
        and completed >= 1 and failed >= 0 and completed + failed == r,
        f"{path}: r_completed {completed} + r_failed {failed} != R = {r}",
    )
    per_area = Path(out_dir) / "mspe_per_area.csv"
    header, rows = _read_table(per_area)
    _check_ids(rows, [str(i) for i in range(1, m + 1)], per_area)
    for j, name in enumerate(header):
        if not name.endswith("_negative"):
            _column(rows, j, per_area, name)
    replicates = Path(out_dir) / "mspe_replicates.csv"
    rows = _read_csv(replicates, REPLICATES_HEADER)
    require(len(rows) == completed, f"{replicates}: {len(rows)} rows, expected {completed}")
    ids = _column(rows, 0, replicates, "replicate")
    require(
        np.all(np.diff(ids) > 0) and ids[0] >= 0 and ids[-1] < r,
        f"{replicates}: replicate ids must increase within [0, {r})",
    )
    for j in range(1, 4):
        _column(rows, j, replicates, REPLICATES_HEADER[j])


# ------------------------------------------------------------------ oracles


def _oracles():
    for sub in ("src", "tests"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import oracles

    return oracles


def _close(name, got, want) -> None:
    dev = np.abs(np.asarray(got) - np.asarray(want)) / (1.0 + np.abs(want))
    worst = int(np.argmax(dev)) if np.size(dev) else 0
    require(
        np.all(dev < ORACLE_TOLERANCE),
        f"{name}: deviates from the oracle by {np.max(dev):.3e} at index {worst}",
    )


def oracle_predict(out_dir, data) -> None:
    oracles = _oracles()
    beta, sigma2 = oracles.oracle_fit(data.z, data.w, data.psi, data.sigma)
    fit = _read_json(Path(out_dir) / "fit.json")
    _close("fit.json beta", fit["beta"], beta)
    _close("fit.json sigma2_nu", fit["sigma2_nu"], sigma2)
    pred, m1 = oracles.oracle_predict(data.z, data.w, data.psi, data.sigma, beta, sigma2)
    path = Path(out_dir) / "predictions.csv"
    rows = _read_csv(path, PREDICT_HEADER)
    _close("predictions.csv prediction", _column(rows, 1, path, "prediction"), pred)
    _close("predictions.csv m1", _column(rows, 2, path, "m1"), m1)


def oracle_bootstrap(out_dir, data, b: int, seed: int) -> None:
    oracles = _oracles()
    beta, sigma2 = oracles.oracle_fit(data.z, data.w, data.psi, data.sigma)
    m1, m2 = oracles.oracle_bootstrap(
        data.z, data.w, data.psi, data.sigma, beta, sigma2, b=b, seed=seed
    )
    path = Path(out_dir) / "mspe.csv"
    rows = _read_csv(path, BOOTSTRAP_HEADER)
    require(
        all(row[5] == str(b) for row in rows),
        f"{path}: replicates were dropped; the oracle uses all {b}",
    )
    _close("mspe.csv m1_bias_corrected", _column(rows, 1, path, "m1_bias_corrected"), m1)
    _close("mspe.csv m2_star", _column(rows, 2, path, "m2_star"), m2)
