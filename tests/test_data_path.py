"""One data path: the public API gives the same bits whether it is handed
a loaded `Dataset` or a list of areas, and the CLI writes exactly what the
API returns."""

import csv
import dataclasses

import numpy as np
import pytest

from conftest import make_areas, random_dataset
from logsae import (
    Dataset,
    InsufficientAreas,
    ModelParams,
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
