"""One data path: the public API gives the same bits whether it is handed
a loaded `Dataset` or a list of areas, and the CLI writes exactly what the
API returns."""

import csv
import dataclasses
import re

import numpy as np
import pytest

from conftest import make_areas, random_dataset
from logsae import (
    DataError,
    Dataset,
    InsufficientAreas,
    ModelParams,
    NonPsdSigma,
    ParseError,
    bootstrap_mspe,
    eb_predict,
    estimate_sigma2,
    fit,
    jackknife_mspe,
    load_arrays,
    load_dataset,
    m1_term,
    posterior_moments,
    predict_areas,
    save_dataset,
    shrinkage_gamma,
    solve_beta,
)
from logsae.cli import main

B, SEED = 8, 5


@pytest.fixture
def path(tmp_path, gen):
    path = tmp_path / "areas.csv"
    save_dataset(make_areas(*random_dataset(gen, m=12, p=2, with_sigma=True)), path)
    return path


def _results(data):
    """Every public function's result on ``data``, as comparable values."""
    full = fit(data)
    pred = predict_areas(data, full.params)
    jk = jackknife_mspe(data, full)
    bt = bootstrap_mspe(data, full, b=B, seed=SEED)
    beta = solve_beta(data, full.params)
    sigma2, truncated = estimate_sigma2(data, beta)
    arrays = [
        full.params.beta, full.gammas, pred.prediction, pred.m1, pred.gamma,
        jk.m1_j, jk.m2_j, jk.total, bt.m1_bias_corrected, bt.m2_star, bt.total,
        bt.negative, beta,
    ]
    scalars = [
        full.params.sigma2_nu, full.iterations_used, full.converged,
        full.sigma2_truncated, jk.loo_nonconverged, bt.b_replicates, sigma2, truncated,
    ]
    ids = [pred.area_ids, jk.area_ids, bt.area_ids]
    return [a.tobytes() for a in arrays], scalars, ids


def test_a_dataset_and_a_list_of_areas_give_the_same_bits(path):
    data = load_arrays(path)
    results = _results(data)
    assert results == _results(load_dataset(path))
    assert results[2] == [data.ids] * 3


def test_a_dataset_without_areas_is_rejected(path, tmp_path):
    # as a list without areas is: no function sees an empty stack
    empty = tmp_path / "empty.csv"
    empty.write_text(path.read_text().splitlines()[0] + "\n")
    full = fit(load_arrays(path))
    for call in [
        lambda data: fit(data),
        lambda data: predict_areas(data, full.params),
        lambda data: jackknife_mspe(data, full),
        lambda data: bootstrap_mspe(data, full, b=B, seed=SEED),
        lambda data: solve_beta(data, full.params),
        lambda data: estimate_sigma2(data, full.params.beta),
    ]:
        for data in (load_arrays(empty), []):
            with pytest.raises(InsufficientAreas, match="^no areas given$"):
                call(data)


# every public function that takes a Dataset, called on it, a fit and a path
DATASET_CALLS = {
    "fit": lambda data, f, path: fit(data),
    "predict_areas": lambda data, f, path: predict_areas(data, f.params),
    "jackknife_mspe": lambda data, f, path: jackknife_mspe(data, f),
    "bootstrap_mspe": lambda data, f, path: bootstrap_mspe(data, f, b=B, seed=SEED),
    "solve_beta": lambda data, f, path: solve_beta(data, f.params),
    "estimate_sigma2": lambda data, f, path: estimate_sigma2(data, f.params.beta),
    "save_dataset": lambda data, f, path: save_dataset(data, path),
}


@pytest.mark.parametrize("name", list(DATASET_CALLS))
@pytest.mark.parametrize("n_ids", [2, 13])
def test_a_dataset_without_one_id_per_area_is_rejected(path, tmp_path, name, n_ids):
    # too few ids would label 12 results with 2 ids; too many, with 13
    data = load_arrays(path)
    ids = (data.ids * 2)[:n_ids]
    out = tmp_path / "out.csv"
    message = f"^Dataset has {n_ids} area ids for 12 areas$"
    with pytest.raises(ValueError, match=message):
        DATASET_CALLS[name](Dataset(ids, data.arrays), fit(data), out)
    assert not out.exists()


@pytest.mark.parametrize("name", list(DATASET_CALLS))
@pytest.mark.parametrize(
    "area_id, message",
    [
        (" ", "^row at index 3: missing value in column 'area_id'$"),
        ("a1", "^row at index 3: duplicate area_id 'a1', first seen at index 1$"),
    ],
    ids=["blank", "repeated"],
)
def test_a_list_of_areas_with_a_bad_id_is_rejected(
    path, tmp_path, name, area_id, message
):
    # as a file holding these ids is, by the constructor the loader uses
    areas = load_dataset(path)
    areas = [dataclasses.replace(a, area_id=f"a{i}") for i, a in enumerate(areas)]
    full = fit(areas)
    areas[3] = dataclasses.replace(areas[3], area_id=area_id)
    out = tmp_path / "out.csv"
    with pytest.raises(ParseError, match=message):
        DATASET_CALLS[name](areas, full, out)
    assert not out.exists()


def _columns(p):
    """Valid columns ids, z, w, psi, sigma of four areas a0..a3."""
    gen = np.random.default_rng(7)
    root = gen.normal(0.0, 0.4, size=(4, p, p))
    sigma = root @ root.transpose(0, 2, 1)
    ids = [f"a{i}" for i in range(4)]
    z, w, psi = gen.normal(size=4), gen.normal(size=(4, p)), gen.gamma(2.0, 0.5, 4)
    return ids, z, w, psi, sigma


# case -> (p, column, index, value or None to drop the entry, error class,
# message start); a value set in sigma at (i, j, k) is set at (i, k, j) too
BAD_COLUMNS = {
    "blank id": (
        2, "ids", 2, " ", ParseError,
        "row at index 2: missing value in column 'area_id'",
    ),
    "repeated id": (
        2, "ids", 3, "a1", ParseError,
        "row at index 3: duplicate area_id 'a1', first seen at index 1",
    ),
    "z": (
        2, "z", 1, np.nan, ParseError,
        "row at index 1: column 'z' must be finite, got nan",
    ),
    "w_j": (
        2, "w", (2, 1), np.inf, ParseError,
        "row at index 2: column 'w_2' must be finite, got inf",
    ),
    "psi": (
        2, "psi", 0, -np.inf, ParseError,
        "row at index 0: column 'psi' must be finite, got -inf",
    ),
    "sigma": (
        2, "sigma", (1, 1, 0), np.nan, ParseError,
        "row at index 1: column 'sme_2_1' must be finite, got nan",
    ),
    "negative psi": (
        2, "psi", 2, -3.0, ParseError,
        "row at index 2: column 'psi' must be >= 0, got -3.0",
    ),
    "negative 1x1 sigma": (
        1, "sigma", (2, 0, 0), -1.0, NonPsdSigma,
        "row at index 2: a2: negative variance ",
    ),
    "shapes": (
        2, "psi", 3, None, ParseError,
        "column 'psi' has shape (3,), not (4,)",
    ),
}


@pytest.mark.parametrize("case", list(BAD_COLUMNS))
def test_the_constructor_names_the_first_bad_row_and_its_column(case):
    p, column, index, value, cls, message = BAD_COLUMNS[case]
    columns = dict(zip(["ids", "z", "w", "psi", "sigma"], _columns(p)))
    if value is None:
        columns[column] = np.delete(columns[column], index, axis=0)
    elif column == "sigma":
        i, j, k = index
        columns[column][i, j, k] = columns[column][i, k, j] = value
    else:
        columns[column][index] = value
    with pytest.raises(DataError) as exc:
        Dataset.from_columns(*columns.values())
    assert type(exc.value) is cls
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("w_shape", [(4,), (4, 0)])
def test_covariates_that_are_not_an_m_by_p_matrix_are_refused(w_shape):
    ids, z, _, psi, sigma = _columns(1)
    message = f"column 'w' has shape {w_shape}, not (m, p) with p >= 1"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        Dataset.from_columns(ids, z, np.zeros(w_shape), psi, sigma)


def test_a_row_is_named_by_its_first_failed_check():
    # psi >= 0 is checked before the covariance, and the first bad row decides
    ids, z, w, psi, sigma = _columns(1)
    psi[2], sigma[2] = -3.0, -1.0
    sigma[3] = -1.0  # a later row does not count
    with pytest.raises(ParseError, match="^row at index 2: column 'psi' must be >= 0"):
        Dataset.from_columns(ids, z, w, psi, sigma)


def test_the_constructor_keeps_valid_columns_as_given(path):
    data = load_arrays(path)
    arr = data.arrays
    built = Dataset.from_columns(data.ids, arr.z, arr.w, arr.psi, arr.sigma)
    assert built.ids == data.ids
    for name in ("z", "w", "psi", "sigma"):
        assert getattr(built.arrays, name).tobytes() == getattr(arr, name).tobytes()
    assert _results(built) == _results(data)


def test_a_dataset_of_no_areas_is_built_but_not_fitted():
    # as a header-only file is
    data = Dataset.from_columns([], [], np.empty((0, 2)), [], np.empty((0, 2, 2)))
    assert (data.arrays.m, data.arrays.p) == (0, 2)
    with pytest.raises(InsufficientAreas, match="^no areas given$"):
        fit(data)


# every public function that takes a beta, called on the areas and a fit
BETA_CALLS = {
    "shrinkage_gamma": lambda areas, f: shrinkage_gamma(
        f.params, areas[0].sigma_me, areas[0].psi
    ),
    "posterior_moments": lambda areas, f: posterior_moments(areas[0], f.params),
    "eb_predict": lambda areas, f: eb_predict(areas[0], f.params),
    "m1_term": lambda areas, f: m1_term(areas[0], f.params),
    "predict_areas": lambda areas, f: predict_areas(areas, f.params),
    "solve_beta": lambda areas, f: solve_beta(areas, f.params),
    "estimate_sigma2": lambda areas, f: estimate_sigma2(areas, f.params.beta),
    "jackknife_mspe": lambda areas, f: jackknife_mspe(areas, f),
    "bootstrap_mspe": lambda areas, f: bootstrap_mspe(areas, f, b=B, seed=SEED),
}


@pytest.mark.parametrize("name", list(BETA_CALLS))
def test_a_beta_whose_length_is_not_p_is_rejected(path, name):
    # a length-1 beta broadcasts against p=2 covariates unless checked
    areas = load_dataset(path)
    short = ModelParams(beta=[2.0], sigma2_nu=1.0)
    full = dataclasses.replace(fit(areas), params=short)
    message = r"^beta has shape \(1,\) but the areas have p=2$"
    with pytest.raises(ValueError, match=message):
        BETA_CALLS[name](areas, full)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [row[name] for row in rows] for name in rows[0]}


def _floats(cells):
    return np.array([float(c) for c in cells])


def test_the_cli_writes_the_api_columns(path, tmp_path):
    data = load_arrays(path)
    full = fit(data)
    argv = {
        "predict": ["predict", str(path)],
        "jackknife": ["mspe", str(path), "--method", "jackknife"],
        "bootstrap": ["mspe", str(path), "--method", "bootstrap"],
    }
    argv["bootstrap"] += ["--b", str(B), "--seed", str(SEED)]
    for name, args in argv.items():
        assert main([*args, "--out", str(tmp_path / name)]) == 0

    pred = predict_areas(data, full.params)
    got = _read_csv(tmp_path / "predict" / "predictions.csv")
    assert got["area_id"] == pred.area_ids
    for column in ("prediction", "m1", "gamma"):
        assert _floats(got[column]).tobytes() == getattr(pred, column).tobytes()

    jk = jackknife_mspe(data, full)
    got = _read_csv(tmp_path / "jackknife" / "mspe.csv")
    assert got["area_id"] == jk.area_ids
    for column, values in [("m1_j", jk.m1_j), ("m2_j", jk.m2_j), ("mspe", jk.total)]:
        assert _floats(got[column]).tobytes() == values.tobytes()
    assert got["loo_nonconverged"] == [str(jk.loo_nonconverged)] * len(data.ids)

    bt = bootstrap_mspe(data, full, b=B, seed=SEED)
    got = _read_csv(tmp_path / "bootstrap" / "mspe.csv")
    assert got["area_id"] == bt.area_ids
    for column, values in [
        ("m1_bias_corrected", bt.m1_bias_corrected),
        ("m2_star", bt.m2_star),
        ("mspe", bt.total),
    ]:
        assert _floats(got[column]).tobytes() == values.tobytes()
    assert got["negative"] == ["true" if n else "false" for n in bt.negative]
    assert got["b_replicates"] == [str(bt.b_replicates)] * len(data.ids)
