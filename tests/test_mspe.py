"""Leave-one-out and parametric-bootstrap MSPE estimators."""

import logging
import math

import numpy as np
import pytest

import oracles
from conftest import make_areas, random_dataset
from logsae import mspe, rng
from logsae.errors import InsufficientAreas, SingularMomentMatrix
from logsae.estimation import fit
from logsae.mspe import bootstrap_mspe, jackknife_mspe


def small_dataset(seed=7, m=4):
    gen = np.random.default_rng(seed)
    w = gen.normal(2.0, 1.0, size=(m, 1))
    psi = gen.gamma(2.0, 0.4, size=m)
    z = 1.3 * w[:, 0] + gen.normal(0.0, 0.8, size=m) + np.sqrt(psi) * gen.standard_normal(m)
    sigma = np.zeros((m, 1, 1))
    sigma[0, 0, 0] = 0.3
    sigma[2, 0, 0] = 0.15
    return z, w, psi, sigma


class TestJackknife:
    def test_identical_areas_have_zero_m2(self):
        areas = make_areas(
            z=[2.0] * 5, w=[[1.5]] * 5, psi=[0.8] * 5,
            sigma=np.tile(np.array([[0.2]]), (5, 1, 1)),
        )
        full = fit(areas)
        rows = jackknife_mspe(areas, full)
        for row in rows:
            assert row.m2_j == pytest.approx(0.0, abs=1e-18)
            assert row.total == row.m1_j + row.m2_j

    def test_matches_bruteforce_on_small_data(self):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        rows = jackknife_mspe(areas, fit(areas))
        m1_o, m2_o = oracles.oracle_jackknife(z, w, psi, sigma)
        got_m1 = np.array([r.m1_j for r in rows])
        got_m2 = np.array([r.m2_j for r in rows])
        np.testing.assert_allclose(got_m1, m1_o, rtol=1e-8)
        np.testing.assert_allclose(got_m2, m2_o, rtol=1e-8, atol=1e-15)

    def test_m2_nonnegative_and_total_additive(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=12, p=2, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        rows = jackknife_mspe(areas, fit(areas))
        for row in rows:
            assert row.m2_j >= 0.0
            assert row.total == row.m1_j + row.m2_j

    def test_relabeling_invariance(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=10, p=1, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        base = jackknife_mspe(areas, fit(areas))
        order = gen.permutation(10)
        shuffled_areas = [areas[i] for i in order]
        shuffled = jackknife_mspe(shuffled_areas, fit(shuffled_areas))
        for pos, i in enumerate(order):
            assert shuffled[pos].m1_j == pytest.approx(base[i].m1_j, rel=1e-7)
            assert shuffled[pos].m2_j == pytest.approx(
                base[i].m2_j, rel=1e-7, abs=1e-12
            )

    def test_requires_enough_areas_for_loo_refits(self):
        # m = p + 1 leaves only p areas after dropping one
        areas = make_areas(z=[1.0, 2.0], w=[[1.0], [2.0]], psi=[1.0, 1.0])
        full = fit(areas)
        with pytest.raises(InsufficientAreas):
            jackknife_mspe(areas, full)

    def test_failed_refit_names_dropped_area(self, monkeypatch):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)

        def boom(arr, beta_init, max_iterations, rel_tolerance):
            raise SingularMomentMatrix("synthetic failure")

        monkeypatch.setattr(mspe, "_refit", boom)
        with pytest.raises(SingularMomentMatrix, match=f"^{areas[0].area_id}: ") as exc:
            jackknife_mspe(areas, full)
        assert exc.value.index == 0


class TestBootstrap:
    def test_zero_variation_stub_returns_m1(self, monkeypatch):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)

        def frozen(arr, beta_init, max_iterations, rel_tolerance):
            return full.params.beta, full.params.sigma2_nu, True

        monkeypatch.setattr(mspe, "_refit", frozen)
        rows = bootstrap_mspe(areas, full, b=16, seed=3)
        _, m1_oracle = oracles.oracle_predict(
            z, w, psi, sigma, full.params.beta, full.params.sigma2_nu
        )

        for row, expect in zip(rows, m1_oracle):
            assert row.m1_bias_corrected == pytest.approx(expect, rel=1e-12)
            assert row.m2_star == pytest.approx(0.0, abs=1e-18)
            assert row.total == pytest.approx(expect, rel=1e-12)
            assert row.negative is (row.total < 0)
            assert row.b_replicates == 16

    def test_matches_bruteforce_with_shared_streams(self):
        z, w, psi, sigma = small_dataset(seed=11)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        rows = bootstrap_mspe(areas, full, b=3, seed=21)
        m1_o, m2_o = oracles.oracle_bootstrap(
            z, w, psi, sigma, full.params.beta, full.params.sigma2_nu, b=3, seed=21
        )
        got_m1 = np.array([r.m1_bias_corrected for r in rows])
        got_m2 = np.array([r.m2_star for r in rows])
        np.testing.assert_allclose(got_m1, m1_o, rtol=1e-8)
        np.testing.assert_allclose(got_m2, m2_o, rtol=1e-8, atol=1e-15)

    def test_deterministic_in_seed(self):
        z, w, psi, sigma = small_dataset(seed=5, m=6)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        a = bootstrap_mspe(areas, full, b=12, seed=9)
        b = bootstrap_mspe(areas, full, b=12, seed=9)
        assert [(r.m1_bias_corrected, r.m2_star) for r in a] == [
            (r.m1_bias_corrected, r.m2_star) for r in b
        ]
        c = bootstrap_mspe(areas, full, b=12, seed=10)
        assert any(
            x.m1_bias_corrected != y.m1_bias_corrected for x, y in zip(a, c)
        )

    def test_negative_totals_flagged_not_clamped(self, monkeypatch):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)

        def inflated(arr, beta_init, max_iterations, rel_tolerance):
            # starred params with a much larger variance blow up each
            # replicate's variance term, driving 2 M1 - mean below zero
            return full.params.beta, full.params.sigma2_nu + 6.0, True

        monkeypatch.setattr(mspe, "_refit", inflated)
        rows = bootstrap_mspe(areas, full, b=8, seed=2)
        assert any(row.total < 0.0 for row in rows)
        for row in rows:
            assert row.negative is (row.total < 0.0)
            assert row.total == row.m1_bias_corrected + row.m2_star

    def test_failed_replicates_dropped_and_counted(self, monkeypatch, caplog):
        z, w, psi, sigma = small_dataset(seed=13, m=5)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        real = mspe._refit
        calls = {"n": -1}

        def flaky(arr, beta_init, max_iterations, rel_tolerance):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise SingularMomentMatrix("synthetic failure")
            return real(arr, beta_init, max_iterations, rel_tolerance)

        monkeypatch.setattr(mspe, "_refit", flaky)
        with caplog.at_level(logging.WARNING, logger="logsae.mspe"):
            rows = bootstrap_mspe(areas, full, b=9, seed=1)
        assert all(row.b_replicates == 6 for row in rows)
        assert any("9" in rec.message for rec in caplog.records)

    def test_all_failed_raises(self, monkeypatch):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)

        def boom(arr, beta_init, max_iterations, rel_tolerance):
            raise SingularMomentMatrix("synthetic failure")

        monkeypatch.setattr(mspe, "_refit", boom)
        with pytest.raises(SingularMomentMatrix):
            bootstrap_mspe(areas, full, b=4, seed=1)

    def test_b_below_two_rejected(self):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        with pytest.raises(ValueError):
            bootstrap_mspe(areas, full, b=1, seed=1)

    def test_m2_star_stabilizes_as_b_doubles(self):
        # law of large numbers: the B and 2B means differ by less than
        # three standard errors of the replicate distribution
        z, w, psi, sigma = small_dataset(seed=23, m=6)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        b = 80
        rows_b = bootstrap_mspe(areas, full, b=b, seed=17)
        rows_2b = bootstrap_mspe(areas, full, b=2 * b, seed=17)

        # regenerate the per-replicate squared deviations independently
        beta, sigma2 = full.params.beta, full.params.sigma2_nu
        pred_full, _ = oracles.oracle_predict(z, w, psi, sigma, beta, sigma2)
        per_rep = np.empty((2 * b, len(areas)))
        for r in range(2 * b):
            gen = rng.stream(17, rng.BOOTSTRAP, r)
            std = gen.standard_normal((len(areas), 3))
            w_star = np.array(w)
            z_star = np.empty(len(areas))
            for i in range(len(areas)):
                w_star[i] = w[i] + math.sqrt(sigma[i, 0, 0]) * std[i, :1]
                z_star[i] = (
                    float(w_star[i] @ beta)
                    + math.sqrt(sigma2) * std[i, 1]
                    + math.sqrt(psi[i]) * std[i, 2]
                )
            beta_r, sigma2_r = oracles.oracle_fit(z_star, w_star, psi, sigma)
            pred_r, _ = oracles.oracle_predict(z, w, psi, sigma, beta_r, sigma2_r)
            per_rep[r] = (pred_r - pred_full) ** 2
        for i, (rb, r2b) in enumerate(zip(rows_b, rows_2b)):
            se = per_rep[:, i].std(ddof=1) / math.sqrt(b)
            assert abs(r2b.m2_star - rb.m2_star) < 3.0 * se
