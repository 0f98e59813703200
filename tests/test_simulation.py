"""Monte-Carlo harness: generator contracts, study wiring, determinism."""

import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from conftest import make_areas
from logsae import _arrays, dataio, mspe, rng
from logsae import simulation as sim
from logsae.errors import NumericalError
from logsae.estimation import FitConfig, fit


def cfg(**kw):
    base = dict(m=10, k_percent=50.0, r_replications=4, b_bootstrap=4, seed=42)
    base.update(kw)
    return sim.SimulationConfig(**base)


def oracle_eb(areas, params):
    """EB predictions of the areas from the independent oracle."""
    pred, _ = oracles.oracle_predict(
        [a.z for a in areas],
        np.array([a.w for a in areas]),
        [a.psi for a in areas],
        np.array([a.sigma_me for a in areas]),
        params.beta,
        params.sigma2_nu,
    )
    return pred


class TestGenerator:
    def test_no_error_subset_keeps_covariates_bitwise(self):
        W, theta, z, w, psi, sigma, idx = sim._draw_population(
            cfg(k_percent=0.0), replicate=3
        )
        assert idx.size == 0
        assert np.array_equal(w, W)
        assert not sigma.any()

    def test_full_error_subset_sets_every_sigma(self):
        config = cfg(k_percent=100.0, d=2.5)
        W, theta, z, w, psi, sigma, idx = sim._draw_population(config, replicate=0)
        assert sorted(idx) == list(range(config.m))
        assert np.all(sigma[:, 0, 0] == 2.5)
        assert not np.array_equal(w, W)

    def test_subset_size_follows_rounding(self):
        assert cfg(m=20, k_percent=20.0).n_measured_with_error == 4
        assert cfg(m=20, k_percent=50.0).n_measured_with_error == 10
        assert cfg(m=7, k_percent=50.0).n_measured_with_error == 4  # round(3.5)

    def test_population_consistency(self):
        config = cfg(m=6, k_percent=50.0)
        W, theta, z, w, psi, sigma, idx = sim._draw_population(config, replicate=1)
        assert theta.shape == z.shape == psi.shape == (6,)
        assert W.shape == w.shape == (6, 1) and sigma.shape == (6, 1, 1)
        assert idx.size == config.n_measured_with_error
        assert np.all(psi > 0.0)

    def test_replicates_differ_and_rerun_matches(self):
        config = cfg()
        a0 = sim._draw_population(config, 0)
        a0_again = sim._draw_population(config, 0)
        a1 = sim._draw_population(config, 1)
        assert np.array_equal(a0[0], a0_again[0])
        assert np.array_equal(a0[2], a0_again[2])
        assert not np.array_equal(a0[0], a1[0])

    def test_generator_moments(self):
        # pool many replicates: W ~ Normal(5, 9), psi ~ Gamma(4.5, scale 2)
        config = cfg(m=500, k_percent=0.0)
        Ws, psis = [], []
        for r in range(100):
            W, _, _, _, psi, _, _ = sim._draw_population(config, r)
            Ws.append(W[:, 0])
            psis.append(psi)
        Ws = np.concatenate(Ws)
        psis = np.concatenate(psis)
        n = Ws.size
        assert abs(Ws.mean() - 5.0) < 3.0 * 3.0 / math.sqrt(n)
        assert abs(Ws.var() - 9.0) < 3.0 * 9.0 * math.sqrt(2.0 / n)
        assert abs(psis.mean() - 9.0) < 3.0 * psis.std() / math.sqrt(n)
        # Gamma(4.5, 2) variance: 4.5 * 4 = 18
        assert abs(psis.var() - 18.0) < 4.0 * 18.0 * math.sqrt(2.0 / n) * 2.0


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            cfg(m=0)
        with pytest.raises(ValueError):
            cfg(k_percent=101.0)
        with pytest.raises(ValueError):
            cfg(d=-1.0)
        with pytest.raises(ValueError):
            cfg(r_replications=0)
        with pytest.raises(ValueError):
            cfg(b_bootstrap=1)
        with pytest.raises(ValueError):
            cfg(seed=-1)
        with pytest.raises(ValueError):
            cfg(covariate_var=0.0)
        for field, value in [
            ("d", math.nan),
            ("d", math.inf),
            ("sigma2_nu_true", math.nan),
            ("covariate_mean", -math.inf),
            ("covariate_var", math.nan),
            ("psi_scale", math.inf),
            ("beta_true", (1.0, math.nan)),
        ]:
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                cfg(**{field: value})

    @pytest.mark.parametrize("field", ["m", "r_replications", "b_bootstrap"])
    @pytest.mark.parametrize("value", [20.5, 20.0, True, "20", np.float64(20.0)])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            cfg(**{field: value})

    def test_numpy_integer_counts_held_as_ints(self):
        c = cfg(m=np.int64(12), r_replications=np.int32(3), b_bootstrap=np.uint8(5))
        assert (c.m, c.r_replications, c.b_bootstrap) == (12, 3, 5)
        assert all(type(v) is int for v in (c.m, c.r_replications, c.b_bootstrap))

    @pytest.mark.parametrize(
        "beta_true, message",
        [
            (("3",), "must be real numbers"),
            ((1j,), "must be real numbers"),
            ((2**1024,), "has an entry too large for a float"),
        ],
        ids=["str", "complex", "overflow"],
    )
    def test_beta_true_entries_rejected(self, beta_true, message):
        with pytest.raises(ValueError, match=f"^beta_true {message}"):
            cfg(beta_true=beta_true)

    def test_beta_true_held_as_floats(self):
        # an int of 2**64 or more is a real number that a float holds
        c = cfg(beta_true=(2**64, 3))
        assert c.beta_true == (2.0**64, 3.0)
        assert all(type(b) is float for b in c.beta_true)

    # the variance the data are drawn with is config.d, checked above
    @pytest.mark.parametrize("field", ["d_mis"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_misspecification_variances_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
            sim.misspecification_study(cfg(m=8), **{field: value})

    def test_replace_supported(self):
        c = cfg()
        c2 = dataclasses.replace(c, m=33)
        assert c2.m == 33 and c2.seed == c.seed


class TestEmseStudy:
    def test_eb_estimators_coincide_without_measurement_error(self):
        config = cfg(m=8, k_percent=0.0, r_replications=3)
        for r in range(3):
            out = sim._one(sim._emse_chunk, r, config=config, **FIT)
            assert out is not None
            _, pred_matrix = out
            np.testing.assert_array_equal(pred_matrix[1], pred_matrix[2])
            np.testing.assert_array_equal(pred_matrix[2], pred_matrix[3])

    def test_an_exact_estimator_reads_minus_infinity_on_the_log_scale(self):
        # on the near-degenerate design every completed replicate predicts
        # Y = 1 exactly, so each area-averaged EMSE is 0
        report = sim.run_emse_study(cfg(**FAILING_DESIGN, r_replications=40))
        assert report.r_completed == 22
        summary = report.summary
        assert set(summary["emse_avg_raw"].values()) == {0.0}
        assert set(summary["emse_avg_log"].values()) == {-math.inf}
        assert set(summary["mean_prediction_log"].values()) == {0.0}

    def test_a_non_finite_summary_is_written_as_null(self, tmp_path):
        report = sim.run_emse_study(cfg(**FAILING_DESIGN, r_replications=40))
        path = tmp_path / "report.json"
        dataio.write_json(report.to_json_dict(), path)
        with open(path, encoding="utf-8") as fh:
            back = json.load(fh)
        summary = back["summary"]
        assert summary["emse_avg_log"] == dict.fromkeys(sim.EMSE_ESTIMATORS)
        assert summary["emse_avg_raw"] == dict.fromkeys(sim.EMSE_ESTIMATORS, 0.0)
        assert back["r_completed"] == 22

    def test_single_replicate_emse_is_squared_error(self):
        config = cfg(m=5, k_percent=0.0, r_replications=1, seed=9)
        report = sim.run_emse_study(config)
        W, theta, z, w, psi, sigma, _ = sim._draw_population(config, 0)
        Y = np.exp(theta)
        areas = make_areas(z, w, psi, sigma)
        preds = oracle_eb(areas, fit(areas).params)
        table = report.tables["per_area"]
        for i in range(config.m):
            direct = math.exp(areas[i].z)
            assert table["emse_direct"][i] == pytest.approx(
                (direct - Y[i]) ** 2, rel=1e-12
            )
            eb = preds[i]
            assert table["emse_eb_full"][i] == pytest.approx(
                (eb - Y[i]) ** 2, rel=1e-10
            )

    def test_direct_column_ignores_fit_configuration(self):
        config = cfg(m=8, r_replications=3)
        full = sim.run_emse_study(config)
        starved = sim.run_emse_study(config, fit_config=FitConfig(max_iterations=1))
        np.testing.assert_array_equal(
            full.tables["per_area"]["emse_direct"],
            starved.tables["per_area"]["emse_direct"],
        )

    def test_summary_carries_raw_and_log(self):
        report = sim.run_emse_study(cfg(m=6, r_replications=2))
        for name in sim.EMSE_ESTIMATORS:
            raw = report.summary["emse_avg_raw"][name]
            assert report.summary["emse_avg_log"][name] == pytest.approx(
                math.log(raw)
            )
        assert report.r_completed == 2 and report.r_failed == 0


class TestMspeStudy:
    def test_rb_definition_against_stubbed_estimators(self, monkeypatch):
        config = cfg(m=5, k_percent=0.0, r_replications=3, seed=6)
        jk_const = np.full(5, 7.0)
        bt_const = np.full(5, 2.0)

        monkeypatch.setattr(
            sim,
            "jackknife_terms",
            lambda m1, *a: (np.broadcast_to(jk_const, m1.shape), np.zeros(m1.shape)),
        )
        monkeypatch.setattr(
            sim,
            "bootstrap_core",
            lambda *a, **k: (bt_const.copy(), np.zeros(5), 4),
        )
        report = sim.run_mspe_study(config)

        # recompute per-area EMSE through the public pieces
        sq = np.zeros(5)
        for r in range(3):
            W, theta, z, w, psi, sigma, _ = sim._draw_population(config, r)
            areas = make_areas(z, w, psi, sigma)
            preds = oracle_eb(areas, fit(areas).params)
            sq += (preds - np.exp(theta)) ** 2
        emse = sq / 3
        table = report.tables["per_area"]
        for i in range(5):
            assert table["emse"][i] == pytest.approx(emse[i], rel=1e-10)
            assert table["rb_jackknife"][i] == pytest.approx(
                (7.0 - emse[i]) / emse[i], rel=1e-9
            )
            assert table["rb_bootstrap"][i] == pytest.approx(
                (2.0 - emse[i]) / emse[i], rel=1e-9
            )

    def test_replicate_table_and_negative_share(self):
        config = cfg(m=6, k_percent=50.0, r_replications=3, b_bootstrap=6)
        report = sim.run_mspe_study(config)
        assert len(report.tables["replicates"]["replicate"]) == report.r_completed
        table = report.tables["per_area"]
        assert np.all(0.0 <= table["bootstrap_negative_share"])
        assert np.all(table["bootstrap_negative_share"] <= 1.0)
        np.testing.assert_array_equal(
            table["mspe_bootstrap_mean_negative"], table["mspe_bootstrap_mean"] < 0.0
        )

    def test_columns_equal_a_running_sum_over_replicates(self):
        # the study's array reductions against the per-replicate loop,
        # summing in replicate order, bit for bit
        config = cfg(m=6, k_percent=50.0, r_replications=4, b_bootstrap=6)
        report = sim.run_mspe_study(config)
        sums = np.zeros((3, config.m))
        means = []
        for r in range(config.r_replications):
            outputs = sim._one(
                sim._mspe_chunk, r, config=config, fit_config=FitConfig()
            )
            for total, values in zip(sums, outputs):
                total += values
            means.append([float(values.mean()) for values in outputs])
        emse, jk_mean, bt_mean = sums / config.r_replications
        table = report.tables["per_area"]
        assert table["emse"].tolist() == emse.tolist()
        assert table["mspe_jackknife_mean"].tolist() == jk_mean.tolist()
        assert table["mspe_bootstrap_mean"].tolist() == bt_mean.tolist()
        names = ("sq_error_area_mean", "mspe_jackknife_area_mean", "mspe_bootstrap_area_mean")
        for name, column in zip(names, zip(*means)):
            assert report.tables["replicates"][name].tolist() == list(column)

    @pytest.mark.slow
    def test_relative_bias_not_worse_at_large_m(self):
        # larger m must not degrade |mean mspe - EMSE| / EMSE beyond noise
        small = sim.run_mspe_study(
            sim.SimulationConfig(
                m=20, k_percent=0.0, r_replications=30, b_bootstrap=40, seed=3
            )
        )
        large = sim.run_mspe_study(
            sim.SimulationConfig(
                m=500, k_percent=0.0, r_replications=30, b_bootstrap=40, seed=3
            )
        )
        for key in ("rb_jackknife_avg", "rb_bootstrap_avg"):
            assert abs(large.summary[key]) <= abs(small.summary[key]) * 1.5 + 0.5


class TestZeroProportionStudy:
    def test_columns_coincide_without_measurement_error(self):
        config = cfg(m=10, r_replications=20)
        report = sim.zero_proportion_study(config, m_values=(10,), k_values=(0.0,))
        table = report.tables["proportions"]
        assert table["zero_sigma_aware"][0] == table["zero_sigma_ignored"][0]
        assert table["zero_sigma_aware"][0] == table["zero_true_covariate"][0]

    def test_large_signal_variance_never_truncates(self):
        config = cfg(m=10, r_replications=15, sigma2_nu_true=1e6)
        report = sim.zero_proportion_study(config, m_values=(10,), k_values=(0.0, 50.0))
        table = report.tables["proportions"]
        assert table["zero_sigma_aware"].tolist() == [0.0, 0.0]
        assert table["zero_true_covariate"].tolist() == [0.0, 0.0]

    def test_truncation_grows_as_signal_shrinks(self):
        weak = sim.zero_proportion_study(
            cfg(m=20, r_replications=60, sigma2_nu_true=0.25),
            m_values=(20,),
            k_values=(0.0,),
        ).tables["proportions"]
        strong = sim.zero_proportion_study(
            cfg(m=20, r_replications=60, sigma2_nu_true=8.0),
            m_values=(20,),
            k_values=(0.0,),
        ).tables["proportions"]
        assert weak["zero_true_covariate"][0] > strong["zero_true_covariate"][0]


class TestMisspecificationStudy:
    def test_no_error_subset_gives_exact_zero(self):
        report = sim.misspecification_study(
            cfg(m=8, r_replications=4, d=2.0), d_mis=4.0, k_values=[0.0]
        )
        table = report.tables["sensitivity"]
        assert table["mean_abs_diff_x100"][0] == 0.0
        assert table["bias_true_d_x100"][0] == table["bias_mis_d_x100"][0]

    def test_equal_variances_give_exact_zero_everywhere(self):
        report = sim.misspecification_study(
            cfg(m=8, r_replications=4, d=2.0), d_mis=2.0,
            k_values=[0.0, 50.0, 100.0],
        )
        table = report.tables["sensitivity"]
        assert table["mean_abs_diff_x100"].tolist() == [0.0, 0.0, 0.0]

    def test_data_are_drawn_with_config_d(self):
        tables = []
        for d in (2.0, 3.0):
            report = sim.misspecification_study(cfg(m=8, d=d), d_mis=4.0)
            assert report.summary["d_true"] == report.config.d == d
            tables.append(report.to_json_dict()["tables"]["sensitivity"])
        assert tables[0] != tables[1]

    def test_multivariate_covariates_rejected(self):
        config = cfg(beta_true=(1.0, 2.0))
        with pytest.raises(ValueError, match="single covariate"):
            sim.misspecification_study(config, d_mis=4.0)


def _exp(x):
    # exp(x), or the PredictionOverflow exp_batch reports for it
    out, errors = _arrays.exp_batch(x[None])
    _arrays.raise_first(errors)
    return out[0]


def _looped_emse(replicate, config, fit_config):
    W, theta, z, w, psi, sigma, _ = sim._draw_population(config, replicate)
    Y = _exp(theta)
    zero = np.zeros_like(sigma)
    preds = [_exp(z)]
    for covariate, cov in ((W, zero), (w, zero), (w, sigma)):
        arr = _arrays.AreaArrays(z, covariate, psi, cov)
        beta, sigma2, *_ = _arrays.fit_core(arr, fit_config)
        preds.append(_arrays.predictions_and_m1(arr, beta, sigma2)[0])
    pred = np.stack(preds)
    return (pred - Y) ** 2, pred


def _looped_zeros(replicate, config, fit_config):
    W, theta, z, w, psi, sigma, _ = sim._draw_population(config, replicate)
    zero = np.zeros_like(sigma)
    flags = []
    for covariate, cov in ((w, sigma), (w, zero), (W, zero)):
        arr = _arrays.AreaArrays(z, covariate, psi, cov)
        flags.append(_arrays.fit_core(arr, fit_config)[4])
    return tuple(flags)


def _looped_misspec(replicate, config, d_mis, fit_config):
    W, theta, z, w, psi, sigma, me_idx = sim._draw_population(config, replicate)
    sigma_mis = np.zeros_like(sigma)
    sigma_mis[me_idx] = d_mis * np.eye(config.p)
    betas = []
    for cov in (sigma, sigma_mis):
        arr = _arrays.AreaArrays(z, w, psi, cov)
        fit = _arrays.fit_core(arr, fit_config)
        betas.append(float(fit[0][0]))
    return tuple(betas)


def _looped_mspe(replicate, config, fit_config):
    W, theta, z, w, psi, sigma, _ = sim._draw_population(config, replicate)
    Y = _exp(theta)
    arr = _arrays.AreaArrays(z, w, psi, sigma)
    beta, sigma2, *_ = _arrays.fit_core(arr, fit_config)
    pred, m1, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
    # the leave-one-out refits one at a time, each warm-started at beta,
    # their terms added in refit order
    warm = dataclasses.replace(fit_config, beta_init=beta)
    m = config.m
    sum_m1, sum_sq = np.zeros(m), np.zeros(m)
    for j in range(m):
        kept = np.arange(m) != j
        loo = _arrays.AreaArrays(z[kept], w[kept], psi[kept], sigma[kept])
        beta_j, sigma2_j, *_ = _arrays.fit_core(loo, warm)
        pred_j, m1_j, _ = _arrays.predictions_and_m1(arr, beta_j, sigma2_j)
        sum_m1 += m1 - m1_j
        sum_sq += (pred - pred_j) ** 2
    factor = (m - 1.0) / m
    jk_m1, jk_m2 = m1 - factor * sum_m1, factor * sum_sq
    bt_m1, bt_m2, *_ = mspe.bootstrap_core(
        arr,
        beta,
        sigma2,
        config.b_bootstrap,
        rng.derive_seed(config.seed, replicate),
        fit_config,
    )
    return (pred - Y) ** 2, jk_m1 + jk_m2, bt_m1 + bt_m2


# per study: chunk function (`sim._one` runs it on one replicate), a
# reference that fits one dataset at a time through the B=1 kernels, fit
# rows per replicate (None: m) and the study's own arguments
STUDIES = {
    "emse": (sim._emse_chunk, _looped_emse, 3, {}),
    "mspe": (sim._mspe_chunk, _looped_mspe, None, {}),
    "zeros": (sim._zeros_chunk, _looped_zeros, 3, {}),
    "misspec": (sim._misspec_chunk, _looped_misspec, 2, {"d_mis": 4.0}),
}


# near-zero covariate and sampling variances: many replicates fail
FAILING_DESIGN = dict(
    m=5,
    d=1e-300,
    sigma2_nu_true=0.0,
    covariate_mean=0.0,
    covariate_var=1e-200,
    psi_shape=0.05,
    psi_scale=1e-300,
    seed=3,
)


@pytest.mark.parametrize("study", list(STUDIES))
def test_batched_variants_match_fitting_them_one_at_a_time(study):
    chunk_fn, looped, _, kwargs = STUDIES[study]
    config = cfg(**FAILING_DESIGN, b_bootstrap=6)
    kwargs = dict(kwargs, config=config, **FIT)
    failed = 0
    for r in range(40):
        try:
            expected = looped(r, **kwargs)
        except NumericalError:
            failed += 1
            with pytest.raises(NumericalError):
                sim._one(chunk_fn, r, **kwargs)
            continue
        got = sim._one(chunk_fn, r, **kwargs)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
    assert 10 <= failed <= 30


FIT_CONFIG = FitConfig(max_iterations=200, rel_tolerance=1e-10)
FIT = dict(fit_config=FIT_CONFIG)


@pytest.mark.parametrize("cells", [70, None], ids=["small_chunks", "default_chunks"])
@pytest.mark.parametrize(
    "study, design",
    [
        *((study, "regular") for study in STUDIES),
        *((study, "failing") for study in STUDIES),
        ("emse", "p2"),
        ("zeros", "p2"),
    ],
)
def test_chunked_run_equals_the_replicates_one_at_a_time(
    monkeypatch, study, design, cells
):
    chunk_fn, _, width, kwargs = STUDIES[study]
    config = {
        "regular": cfg(r_replications=12, b_bootstrap=6),
        "failing": cfg(**FAILING_DESIGN, r_replications=40, b_bootstrap=6),
        "p2": cfg(m=6, beta_true=(3.0, 1.0), r_replications=12),
    }[design]
    if cells is not None:
        # chunks of 1-4 replicates; at m=10 an MSPE replicate's 10
        # leave-one-out refits span two fit batches
        monkeypatch.setattr(_arrays, "_BATCH_CELLS", cells)
    replicates, outputs, failed = sim._run_cell(
        chunk_fn, config, None, width or config.m, **kwargs
    )
    done, expected = [], []
    for r in range(config.r_replications):
        try:
            expected.append(sim._one(chunk_fn, r, config=config, **kwargs, **FIT))
        except NumericalError:
            continue
        done.append(r)
    assert replicates.tolist() == done
    assert failed == config.r_replications - len(done)
    assert (failed > 0) == (design == "failing")
    for got, column in zip(outputs, zip(*expected), strict=True):
        want = np.stack(column)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("study", list(STUDIES))
def test_chunks_start_every_cold_fit_at_beta_init(study):
    chunk_fn, looped, _, kwargs = STUDIES[study]
    config = cfg(r_replications=3, b_bootstrap=6)
    started = dataclasses.replace(FIT_CONFIG, beta_init=np.array([1.7]))
    outputs, errors = sim._run_chunk(
        chunk_fn,
        range(config.r_replications),
        config=config,
        fit_config=started,
        **kwargs,
    )
    assert errors == {}
    for r in range(config.r_replications):
        want = looped(r, config=config, fit_config=started, **kwargs)
        for got, value in zip(outputs, want, strict=True):
            assert np.asarray(got[r]).tobytes() == np.asarray(value).tobytes()


def test_refits_run_only_for_replicates_with_no_error(monkeypatch):
    config = cfg(**FAILING_DESIGN, r_replications=40, b_bootstrap=6)
    draws = [sim._draw_population(config, r) for r in range(config.r_replications)]
    replicate_of = {draw[2].tobytes(): r for r, draw in enumerate(draws)}
    # the replicates each stage should reach, found one at a time
    fitted, refitted = [], []
    for r, (W, theta, z, w, psi, sigma, _) in enumerate(draws):
        arr = _arrays.AreaArrays(z, w, psi, sigma)
        try:
            _exp(theta)
            beta, sigma2, *_ = _arrays.fit_core(arr, FIT_CONFIG)
            _arrays.predictions_and_m1(arr, beta, sigma2)
        except NumericalError:
            continue
        fitted.append(r)
        try:
            mspe.jackknife_core(arr, beta, sigma2, FIT_CONFIG)
        except NumericalError:
            continue
        refitted.append(r)
    assert 0 < len(refitted) < len(fitted) < config.r_replications

    calls = {"leave_one_out_terms": [], "bootstrap_core": []}

    def counted(name, fn):
        def wrapper(arr, *args):
            datasets = arr.z.reshape(-1, config.m)
            calls[name] += [replicate_of[z.tobytes()] for z in datasets]
            return fn(arr, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sim, name, counted(name, getattr(sim, name)))
    sim.run_mspe_study(config)
    assert calls == {"leave_one_out_terms": fitted, "bootstrap_core": refitted}


def test_an_area_with_a_zero_emse_has_no_relative_bias(tmp_path):
    # every completed replicate predicts Y exactly, so every EMSE is 0
    report = sim.run_mspe_study(cfg(**FAILING_DESIGN, r_replications=40, b_bootstrap=6))
    table = report.tables["per_area"]
    assert not table["emse"].any()
    for name in ("rb_jackknife", "rb_bootstrap"):
        assert np.isnan(table[name]).all()
        assert math.isnan(report.summary[f"{name}_avg"])
        assert math.isnan(report.summary[f"{name}_avg_log_abs_pct"])
        assert report.summary[f"{name}_avg_negative"] is False
    path = tmp_path / "report.json"
    dataio.write_json(report.to_json_dict(), path)
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    assert summary["rb_jackknife_avg"] is None
    assert summary["rb_bootstrap_avg"] is None


STUDY_RUNS = {
    "emse": sim.run_emse_study,
    "mspe": sim.run_mspe_study,
    "zeros": lambda c, f: sim.zero_proportion_study(c, (c.m,), (50.0,), fit_config=f),
    "misspec": lambda c, f: sim.misspecification_study(c, 4.0, fit_config=f),
}


@pytest.mark.parametrize("study", ["emse", "mspe", "misspec"])
def test_studies_use_beta_init(study):
    run = STUDY_RUNS[study]
    config = cfg(r_replications=3, b_bootstrap=6)
    few = FitConfig(max_iterations=3)
    default = run(config, few).to_json_dict()
    started = run(config, FitConfig(max_iterations=3, beta_init=np.array([1e6])))
    assert started.to_json_dict() != default


@pytest.mark.parametrize("study", list(STUDY_RUNS))
def test_studies_reject_a_beta_init_of_the_wrong_shape(study):
    wrong = FitConfig(beta_init=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match=r"^beta_init must have shape \(1,\)"):
        STUDY_RUNS[study](cfg(r_replications=2), wrong)


class TestGrid:
    def test_repeated_values_rejected_before_any_replicate(self, monkeypatch):
        def fail(config, replicate):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "_draw_population", fail)
        with pytest.raises(ValueError, match="k value 0 is repeated"):
            sim.zero_proportion_study(cfg(m=8), m_values=(8,), k_values=(0.0, 0.0))
        with pytest.raises(ValueError, match="m value 8 is repeated"):
            sim.zero_proportion_study(cfg(m=8), m_values=(8, 8), k_values=(0.0,))
        with pytest.raises(ValueError, match="k value 0 is repeated"):
            sim.misspecification_study(
                cfg(m=8), d_mis=4.0, k_values=[0.0, 0.0]
            )

    def test_cells_are_m_major(self):
        cells = sim.grid_cells(cfg(m=8), (8, 12), (0.0, 50.0))
        assert [(c.m, c.k_percent) for c in cells] == [
            (8, 0.0), (8, 50.0), (12, 0.0), (12, 50.0)
        ]


class TestFailedReplicates:
    @pytest.mark.parametrize(
        "run",
        [
            sim.run_emse_study,
            sim.run_mspe_study,
            lambda c: sim.zero_proportion_study(c, m_values=(7,), k_values=(30.0,)),
            lambda c: sim.misspecification_study(
                c, d_mis=4.0, k_values=(30.0,)
            ),
        ],
        ids=["emse", "mspe", "zeros", "misspec"],
    )
    def test_every_replicate_failing_names_the_cell(self, monkeypatch, run):
        real = sim._draw_population

        def no_covariate(config, replicate):
            # every fit variant's moment system is then singular
            W, theta, z, w, psi, sigma, me_idx = real(config, replicate)
            zero = np.zeros_like
            return zero(W), theta, z, zero(w), psi, zero(sigma), me_idx

        monkeypatch.setattr(sim, "_draw_population", no_covariate)
        message = r"^every replicate failed at m=7, k=30$"
        with pytest.raises(NumericalError, match=message):
            run(cfg(m=7, k_percent=30.0))


@pytest.mark.parametrize(
    "run, table",
    [
        (lambda c, k: sim.zero_proportion_study(c, (c.m,), k), "proportions"),
        (lambda c, k: sim.misspecification_study(c, 4.0, k), "sensitivity"),
    ],
    ids=["zeros", "misspec"],
)
def test_per_cell_counts_and_rows_match_one_cell_runs(run, table):
    config = cfg(**FAILING_DESIGN, r_replications=20)
    k_values = (0.0, 50.0)
    report = run(config, k_values)
    columns = report.tables[table]
    completed, failed = columns["r_completed"], columns["r_failed"]
    assert (completed + failed == config.r_replications).all()
    assert failed.any()
    assert (report.r_completed, report.r_failed) == (completed.sum(), failed.sum())
    for row, k in enumerate(k_values):
        one = run(config, (k,)).tables[table]
        for name, column in columns.items():
            np.testing.assert_array_equal(column[row : row + 1], one[name], err_msg=name)


class TestDeterminism:
    def test_rerun_is_identical(self):
        config = cfg(m=7, k_percent=50.0, r_replications=3, b_bootstrap=5)
        a = sim.run_mspe_study(config)
        b = sim.run_mspe_study(config)
        assert a.to_json_dict() == b.to_json_dict()

    def test_json_dict_excludes_wall_clock_and_serializes(self):
        report = sim.run_emse_study(cfg(m=6, r_replications=2))
        payload = report.to_json_dict()
        dumped = json.dumps(payload, sort_keys=True)
        assert "wall_clock" not in dumped
        assert json.loads(dumped) == payload
