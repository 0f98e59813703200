"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with plain pytest; the verdict lines print even under output capture.
The statistical criteria use fixed seeds, so every run is reproducible.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_areas, random_dataset
from logsae import simulation as sim
from logsae.cli import main
from logsae.dataio import load_dataset, save_dataset
from logsae.estimation import FitConfig, fit
from logsae.model import AreaObservation, ModelParams, m1_term, shrinkage_gamma
from logsae.mspe import bootstrap_mspe, jackknife_mspe


def verdict(capsys, number, label, ok, detail=""):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_no_error_predictors_coincide(capsys):
    config = sim.SimulationConfig(m=20, k_percent=0.0, r_replications=50, seed=101)
    ok = True
    detail = ""
    for r in range(config.r_replications):
        out = sim._one(sim._emse_chunk, r, config=config, fit_config=FitConfig())
        if out is None:
            ok, detail = False, f"replicate {r} failed numerically"
            break
        _, preds = out
        if not (
            np.array_equal(preds[1], preds[2]) and np.array_equal(preds[2], preds[3])
        ):
            ok, detail = False, f"replicate {r}: EB predictions differ"
            break
    verdict(capsys, 1, "EB predictors coincide replicate-by-replicate at k=0", ok, detail)


def test_criterion_2_oracle_equivalence(capsys, tmp_path):
    gen = np.random.default_rng(202)
    worst = 0.0
    # fitting oracle on 50 random small datasets without measurement error
    for _ in range(50):
        m = int(gen.integers(6, 31))
        p = int(gen.integers(1, 3))
        z, w, psi, sigma = random_dataset(gen, m=m, p=p, with_sigma=False)
        got = fit(make_areas(z, w, psi))
        beta_o, sigma2_o = oracles.oracle_fit(z, w, psi, sigma)
        worst = max(
            worst,
            float(np.max(np.abs(got.params.beta - beta_o) / (1.0 + np.abs(beta_o)))),
            abs(got.params.sigma2_nu - sigma2_o) / (1.0 + sigma2_o),
        )
    # resampling estimators against brute force on m = 4 datasets
    for seed in (7, 11, 23):
        gen2 = np.random.default_rng(seed)
        w = gen2.normal(2.0, 1.0, size=(4, 1))
        psi = gen2.gamma(2.0, 0.4, size=4)
        z = 1.3 * w[:, 0] + gen2.normal(0.0, 0.8, size=4) + np.sqrt(psi) * gen2.standard_normal(4)
        sigma = np.zeros((4, 1, 1))
        sigma[0, 0, 0] = 0.3
        sigma[2, 0, 0] = 0.15
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        jk = jackknife_mspe(areas, full)
        m1_o, m2_o = oracles.oracle_jackknife(z, w, psi, sigma)
        for i in range(4):
            worst = max(
                worst,
                abs(jk.m1_j[i] - m1_o[i]) / (1.0 + abs(m1_o[i])),
                abs(jk.m2_j[i] - m2_o[i]) / (1.0 + abs(m2_o[i])),
            )
        bt = bootstrap_mspe(areas, full, b=3, seed=seed + 1)
        b1_o, b2_o = oracles.oracle_bootstrap(
            z, w, psi, sigma, full.params.beta, full.params.sigma2_nu, b=3, seed=seed + 1
        )
        for i in range(4):
            worst = max(
                worst,
                abs(bt.m1_bias_corrected[i] - b1_o[i]) / (1.0 + abs(b1_o[i])),
                abs(bt.m2_star[i] - b2_o[i]) / (1.0 + abs(b2_o[i])),
            )
    # the CSV path, exercised at the survey-like shape of 49 areas with p = 1
    z, w, psi, sigma = random_dataset(gen, m=49, p=1, with_sigma=True)
    direct = make_areas(z, w, psi, sigma)
    path = tmp_path / "areas49.csv"
    save_dataset(direct, path)
    loaded = load_dataset(path)
    fit_direct = fit(direct)
    fit_loaded = fit(loaded)
    worst = max(
        worst,
        float(
            np.max(
                np.abs(fit_loaded.params.beta - fit_direct.params.beta)
                / (1.0 + np.abs(fit_direct.params.beta))
            )
        ),
        abs(fit_loaded.params.sigma2_nu - fit_direct.params.sigma2_nu)
        / (1.0 + fit_direct.params.sigma2_nu),
    )
    verdict(
        capsys,
        2,
        "fit/jackknife/bootstrap match independent oracles within 1e-8",
        worst < 1e-8,
        f"worst relative deviation {worst:.3e}",
    )


def test_criterion_3_m1_matches_sampled_conditional_variance(capsys):
    gen = np.random.default_rng(303)
    draws_per_point = 1_000_000
    ok = True
    detail = ""
    for point in range(10):
        z = float(gen.uniform(-2.0, 2.0))
        w = float(gen.uniform(-1.5, 1.5))
        beta = float(gen.uniform(-1.0, 1.0))
        sigma2 = float(gen.uniform(0.05, 1.5))
        psi = float(gen.uniform(0.2, 2.0))
        sme = float(gen.uniform(0.0, 0.5))
        params = ModelParams(beta=np.array([beta]), sigma2_nu=sigma2)
        obs = AreaObservation(
            area_id=f"pt{point}", z=z, w=np.array([w]), psi=psi,
            sigma_me=np.array([[sme]]),
        )
        g = shrinkage_gamma(params, obs.sigma_me, psi)
        mean = g * z + (1.0 - g) * w * beta
        theta = gen.normal(mean, math.sqrt(g * psi), size=draws_per_point)
        y = np.exp(theta)
        sample_var = y.var(ddof=1)
        centered_sq = (y - y.mean()) ** 2
        se = centered_sq.std(ddof=1) / math.sqrt(draws_per_point)
        if abs(m1_term(obs, params) - sample_var) >= 3.0 * se:
            ok = False
            detail = f"point {point}: |m1 - sample var| >= 3 SE"
            break
    verdict(capsys, 3, "m1 equals sampled conditional variance (10 x 1e6 draws)", ok, detail)


def test_criterion_4_misspecification_anchors(capsys):
    config = sim.SimulationConfig(m=20, r_replications=1000, seed=1, d=2.0)
    report = sim.misspecification_study(
        config, d_mis=4.0, k_values=[0.0, 20.0, 50.0, 80.0, 100.0]
    )
    diffs = report.tables["sensitivity"]["mean_abs_diff_x100"].tolist()
    ok = diffs[0] == 0.0
    detail = f"k=0 gave {diffs[0]!r}, expected exact 0"
    if ok:
        ok = all(a < b for a, b in zip(diffs, diffs[1:]))
        detail = f"not monotone in k: {diffs}"
    if ok:
        ok = 25.8 * 0.7 <= diffs[-1] <= 25.8 * 1.3
        detail = f"k=100 value {diffs[-1]:.3f} outside 25.8 +/- 30%"
    verdict(
        capsys, 4,
        "coefficient sensitivity: exact 0 at k=0, monotone in k, k=100 near 25.8",
        ok, detail,
    )


def test_criterion_5_zero_proportion_ranges(capsys):
    config = sim.SimulationConfig(m=20, r_replications=500, seed=1)
    report = sim.zero_proportion_study(config)
    table = report.tables["proportions"]
    cells = zip(table["m"].tolist(), table["k_percent"].tolist())
    share = dict(zip(cells, table["zero_true_covariate"].tolist()))
    reps = 500
    ok = True
    detail = ""
    for k in sim.DEFAULT_K_GRID:
        p20 = share[(20, k)]
        p500 = share[(500, k)]
        if not 0.2 <= p20 <= 0.6:
            ok, detail = False, f"m=20 k={k}: {p20} outside [0.2, 0.6]"
            break
        if not 0.0 <= p500 <= 0.10:
            ok, detail = False, f"m=500 k={k}: {p500} outside [0, 0.10]"
            break
        trail = [share[(m, k)] for m in sim.DEFAULT_M_GRID]
        for a, b in zip(trail, trail[1:]):
            slack = 3.0 * math.sqrt(
                a * (1 - a) / reps + b * (1 - b) / reps
            )
            if b > a + slack:
                ok, detail = False, f"k={k}: not non-increasing in m ({trail})"
                break
        if not ok:
            break
    verdict(
        capsys, 5,
        "zero-estimate share in [0.2,0.6] at m=20, [0,0.10] at m=500, non-increasing in m",
        ok, detail,
    )


def test_criterion_6_mspe_sign_pattern(capsys):
    k_grid = (0.0, 20.0, 50.0, 80.0, 100.0)
    jk_over = 0
    bt_under = 0
    for k in k_grid:
        config = sim.SimulationConfig(
            m=20, k_percent=k, d=2.0, r_replications=200, b_bootstrap=200, seed=1
        )
        summary = sim.run_mspe_study(config).summary
        jk_over += summary["mspe_jackknife_area_avg"] >= summary["emse_area_avg"]
        bt_under += summary["mspe_bootstrap_area_avg"] <= summary["emse_area_avg"]
    ok = jk_over >= 4 and bt_under >= 4
    verdict(
        capsys, 6,
        "jackknife overestimates and bootstrap underestimates EMSE in >= 4 of 5 k",
        ok, f"jackknife {jk_over}/5 above, bootstrap {bt_under}/5 below",
    )


def test_criterion_7_byte_identical_across_worker_counts(capsys, tmp_path, monkeypatch, gen):
    z, w, psi, sigma = random_dataset(gen, m=10, p=1, with_sigma=True)
    data = tmp_path / "areas.csv"
    save_dataset(make_areas(z, w, psi, sigma), data)
    ok = True
    detail = ""

    def run_everywhere(args, files):
        blobs = []
        for workers, attempt in (("1", "a"), ("1", "b"), ("4", "a"), ("16", "a")):
            out = tmp_path / f"w{workers}{attempt}{len(files)}{args[0]}"
            monkeypatch.setenv("LOGSAE_WORKERS", workers)
            assert main([*args, "--out", str(out)]) == 0
            blobs.append(tuple((out / f).read_bytes() for f in files))
        return all(blob == blobs[0] for blob in blobs)

    if not run_everywhere(
        ["mspe", str(data), "--method", "bootstrap", "--b", "40", "--seed", "5"],
        ["mspe.csv", "fit.json"],
    ):
        ok, detail = False, "bootstrap command output varies"
    if ok and not run_everywhere(
        [
            "simulate", "--study", "mspe", "--m", "8", "--k", "50",
            "--r", "6", "--b", "10", "--seed", "3",
        ],
        ["report.json", "mspe_per_area.csv", "mspe_replicates.csv"],
    ):
        ok, detail = False, "simulate command output varies"
    verdict(
        capsys, 7,
        "seeded commands byte-identical when rerun at 1, 4, and 16 workers",
        ok, detail,
    )


# criterion 8: the invariant suite, as randomized property checks


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(-4.0, 4.0, **finite),
    sigma2=st.floats(0.0, 10.0, **finite),
    psi=st.floats(0.0, 10.0, **finite),
    bump=st.floats(0.01, 5.0, **finite),
    root=st.floats(0.0, 2.0, **finite),
)
def _gamma_properties(beta, sigma2, psi, bump, root):
    params = ModelParams(beta=np.array([beta]), sigma2_nu=sigma2)
    sme = np.array([[root * root]])
    if beta * root * root * beta + sigma2 + psi <= 0.0:
        return
    g = shrinkage_gamma(params, sme, psi)
    assert 0.0 <= g <= 1.0
    assert shrinkage_gamma(params, sme, psi + bump) <= g
    grown = ModelParams(beta=np.array([beta]), sigma2_nu=sigma2 + bump)
    assert shrinkage_gamma(grown, sme, psi) >= g


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def _fit_and_jackknife_properties(seed):
    gen = np.random.default_rng(seed)
    z, w, psi, sigma = random_dataset(gen, m=8, p=1, with_sigma=True)
    areas = make_areas(z, w, psi, sigma)
    full = fit(areas)
    assert full.params.sigma2_nu >= 0.0
    assert full.sigma2_truncated == (full.params.sigma2_nu == 0.0)
    order = gen.permutation(8)
    refit = fit([areas[i] for i in order])
    np.testing.assert_allclose(refit.params.beta, full.params.beta, rtol=1e-7)
    assert refit.params.sigma2_nu == pytest.approx(
        full.params.sigma2_nu, rel=1e-7, abs=1e-10
    )
    for m2_j in jackknife_mspe(areas, full).m2_j:
        assert m2_j >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    z=st.floats(-15.0, 15.0, **finite),
    w=st.floats(-10.0, 10.0, **finite),
    beta=st.floats(-3.0, 3.0, **finite),
    sigma2=st.floats(0.01, 8.0, **finite),
    psi=st.floats(0.0, 8.0, **finite),
    c=st.floats(-4.0, 4.0, **finite),
)
def _shift_property(z, w, beta, sigma2, psi, c):
    from logsae.model import eb_predict

    params = ModelParams(beta=np.array([beta]), sigma2_nu=sigma2)
    base = AreaObservation(
        area_id="s", z=z, w=np.array([w]), psi=psi, sigma_me=np.zeros((1, 1))
    )
    shifted = AreaObservation(
        area_id="s", z=z + c, w=np.array([w]), psi=psi, sigma_me=np.zeros((1, 1))
    )
    g = shrinkage_gamma(params, base.sigma_me, psi)
    assert eb_predict(shifted, params) == pytest.approx(
        eb_predict(base, params) * math.exp(g * c), rel=1e-9
    )


def test_criterion_8_invariant_suite(capsys):
    ok = True
    detail = ""
    try:
        _gamma_properties()
        _fit_and_jackknife_properties()
        _shift_property()
    except AssertionError as exc:
        ok, detail = False, str(exc)
    verdict(
        capsys, 8,
        "randomized invariants: gamma bounds/monotonicity, m2_j >= 0, "
        "truncation flag, permutation invariance, shift property",
        ok, detail,
    )
