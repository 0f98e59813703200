"""Monte-Carlo harness: generator contracts, study wiring, determinism."""

import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from logsae import _arrays
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
        pop = sim.generate_population(config, replicate=1)
        assert len(pop) == 6
        for area in pop:
            assert area.Y == math.exp(area.theta)
            assert area.obs.psi > 0.0
        ids = [a.obs.area_id for a in pop]
        assert ids == [f"area_{i}" for i in range(1, 7)]

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
            out = sim._emse_replicate(r, config, 200, 1e-10)
            assert out is not None
            _, pred_matrix = out
            np.testing.assert_array_equal(pred_matrix[1], pred_matrix[2])
            np.testing.assert_array_equal(pred_matrix[2], pred_matrix[3])

    def test_single_replicate_emse_is_squared_error(self):
        config = cfg(m=5, k_percent=0.0, r_replications=1, seed=9)
        report = sim.run_emse_study(config)
        pop = sim.generate_population(config, 0)
        areas = [a.obs for a in pop]
        preds = oracle_eb(areas, fit(areas).params)
        for i, row in enumerate(report.tables["per_area"]):
            direct = math.exp(areas[i].z)
            assert row["emse_direct"] == pytest.approx(
                (direct - pop[i].Y) ** 2, rel=1e-12
            )
            eb = preds[i]
            assert row["emse_eb_full"] == pytest.approx(
                (eb - pop[i].Y) ** 2, rel=1e-10
            )

    def test_direct_column_ignores_fit_configuration(self):
        config = cfg(m=8, r_replications=3)
        full = sim.run_emse_study(config)
        starved = sim.run_emse_study(config, fit_config=FitConfig(max_iterations=1))
        for a, b in zip(full.tables["per_area"], starved.tables["per_area"]):
            assert a["emse_direct"] == b["emse_direct"]

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
            sim, "jackknife_core", lambda *a, **k: (jk_const.copy(), np.zeros(5), 0)
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
            pop = sim.generate_population(config, r)
            areas = [a.obs for a in pop]
            preds = oracle_eb(areas, fit(areas).params)
            sq += (preds - np.array([a.Y for a in pop])) ** 2
        emse = sq / 3
        for i, row in enumerate(report.tables["per_area"]):
            assert row["emse"] == pytest.approx(emse[i], rel=1e-10)
            assert row["rb_jackknife"] == pytest.approx(
                (7.0 - emse[i]) / emse[i], rel=1e-9
            )
            assert row["rb_bootstrap"] == pytest.approx(
                (2.0 - emse[i]) / emse[i], rel=1e-9
            )

    def test_replicate_table_and_negative_share(self):
        config = cfg(m=6, k_percent=50.0, r_replications=3, b_bootstrap=6)
        report = sim.run_mspe_study(config)
        assert len(report.tables["replicates"]) == report.r_completed
        for row in report.tables["per_area"]:
            assert 0.0 <= row["bootstrap_negative_share"] <= 1.0
            assert row["mspe_bootstrap_mean_negative"] == (
                row["mspe_bootstrap_mean"] < 0.0
            )

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
        row = report.tables["proportions"][0]
        assert row["zero_sigma_aware"] == row["zero_sigma_ignored"]
        assert row["zero_sigma_aware"] == row["zero_true_covariate"]

    def test_large_signal_variance_never_truncates(self):
        config = cfg(m=10, r_replications=15, sigma2_nu_true=1e6)
        report = sim.zero_proportion_study(config, m_values=(10,), k_values=(0.0, 50.0))
        for row in report.tables["proportions"]:
            assert row["zero_sigma_aware"] == 0.0
            assert row["zero_true_covariate"] == 0.0

    def test_truncation_grows_as_signal_shrinks(self):
        weak = sim.zero_proportion_study(
            cfg(m=20, r_replications=60, sigma2_nu_true=0.25),
            m_values=(20,),
            k_values=(0.0,),
        ).tables["proportions"][0]
        strong = sim.zero_proportion_study(
            cfg(m=20, r_replications=60, sigma2_nu_true=8.0),
            m_values=(20,),
            k_values=(0.0,),
        ).tables["proportions"][0]
        assert weak["zero_true_covariate"] > strong["zero_true_covariate"]


class TestMisspecificationStudy:
    def test_no_error_subset_gives_exact_zero(self):
        report = sim.misspecification_study(
            cfg(m=8, r_replications=4, d=2.0), d_mis=4.0, k_values=[0.0]
        )
        row = report.tables["sensitivity"][0]
        assert row["mean_abs_diff_x100"] == 0.0
        assert row["bias_true_d_x100"] == row["bias_mis_d_x100"]

    def test_equal_variances_give_exact_zero_everywhere(self):
        report = sim.misspecification_study(
            cfg(m=8, r_replications=4, d=2.0), d_mis=2.0,
            k_values=[0.0, 50.0, 100.0],
        )
        for row in report.tables["sensitivity"]:
            assert row["mean_abs_diff_x100"] == 0.0

    def test_data_are_drawn_with_config_d(self):
        tables = []
        for d in (2.0, 3.0):
            report = sim.misspecification_study(cfg(m=8, d=d), d_mis=4.0)
            assert report.summary["d_true"] == report.config.d == d
            tables.append(report.tables["sensitivity"])
        assert tables[0] != tables[1]

    def test_multivariate_covariates_rejected(self):
        config = cfg(beta_true=(1.0, 2.0))
        with pytest.raises(ValueError, match="single covariate"):
            sim.misspecification_study(config, d_mis=4.0)


def _looped_emse(replicate, config, max_iterations, rel_tolerance):
    W, theta, z, w, psi, sigma, _ = sim._draw_population(config, replicate)
    Y = _arrays.exp_checked(theta)
    zero = np.zeros_like(sigma)
    preds = [_arrays.exp_checked(z)]
    for covariate, cov in ((W, zero), (w, zero), (w, sigma)):
        arr = _arrays.build(z, covariate, psi, cov)
        beta, sigma2, *_ = _arrays.fit_core(arr, max_iterations, rel_tolerance)
        preds.append(_arrays.predictions_and_m1(arr, beta, sigma2)[0])
    pred = np.stack(preds)
    return (pred - Y) ** 2, pred


def _looped_zeros(replicate, config, max_iterations, rel_tolerance):
    W, theta, z, w, psi, sigma, _ = sim._draw_population(config, replicate)
    zero = np.zeros_like(sigma)
    flags = []
    for covariate, cov in ((w, sigma), (w, zero), (W, zero)):
        arr = _arrays.build(z, covariate, psi, cov)
        flags.append(_arrays.fit_core(arr, max_iterations, rel_tolerance)[4])
    return tuple(flags)


def _looped_misspec(replicate, config, d_mis, max_iterations, rel_tolerance):
    W, theta, z, w, psi, sigma, me_idx = sim._draw_population(config, replicate)
    sigma_mis = np.zeros_like(sigma)
    sigma_mis[me_idx] = d_mis * np.eye(config.p)
    betas = []
    for cov in (sigma, sigma_mis):
        arr = _arrays.build(z, w, psi, cov)
        betas.append(float(_arrays.fit_core(arr, max_iterations, rel_tolerance)[0][0]))
    return tuple(betas)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "batched, looped, kwargs",
    [
        (sim._emse_replicate, _looped_emse, {}),
        (sim._zeros_replicate, _looped_zeros, {}),
        (sim._misspec_replicate, _looped_misspec, {"d_mis": 4.0}),
    ],
    ids=["emse", "zeros", "misspec"],
)
def test_batched_variants_match_fitting_them_one_at_a_time(batched, looped, kwargs):
    # near-zero covariate and sampling variances: many replicates fail
    config = cfg(
        m=5,
        d=1e-300,
        sigma2_nu_true=0.0,
        covariate_mean=0.0,
        covariate_var=1e-200,
        psi_shape=0.05,
        psi_scale=1e-300,
        seed=3,
    )
    kwargs = dict(kwargs, config=config, max_iterations=200, rel_tolerance=1e-10)
    failed = 0
    for r in range(40):
        try:
            expected = looped(r, **kwargs)
        except NumericalError:
            failed += 1
            with pytest.raises(NumericalError):
                batched(r, **kwargs)
            continue
        got = batched(r, **kwargs)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
    assert 10 <= failed <= 30


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
        cells = sim._grid(cfg(m=8), (8, 12), (0.0, 50.0))
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
        def fail(config, replicate):
            raise NumericalError("draw failed")

        monkeypatch.setattr(sim, "_draw_population", fail)
        message = r"^every replicate failed at m=7, k=30$"
        with pytest.raises(NumericalError, match=message):
            run(cfg(m=7, k_percent=30.0))


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
        assert report.wall_clock_seconds > 0.0
        assert json.loads(dumped) == payload
