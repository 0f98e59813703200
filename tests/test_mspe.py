"""Leave-one-out and parametric-bootstrap MSPE estimators."""

import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_areas, random_dataset
from logsae import _arrays, mspe, rng
from logsae.errors import InsufficientAreas, SingularMomentMatrix
from logsae.estimation import FitConfig, fit
from logsae.model import Dataset
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


def frozen_batch(n, beta, sigma2, errors=None):
    # a refit batch whose every replicate returns the given parameters
    return _arrays.BatchFit(
        beta=np.tile(beta, (n, 1)),
        sigma2=np.full(n, sigma2),
        iterations=np.ones(n, dtype=int),
        converged=np.ones(n, dtype=bool),
        truncated=np.zeros(n, dtype=bool),
        errors={} if errors is None else errors,
    )


class TestJackknife:
    def test_identical_areas_have_zero_m2(self):
        areas = make_areas(
            z=[2.0] * 5, w=[[1.5]] * 5, psi=[0.8] * 5,
            sigma=np.tile(np.array([[0.2]]), (5, 1, 1)),
        )
        full = fit(areas)
        jk = jackknife_mspe(areas, full)
        for m1_j, m2_j, total in zip(jk.m1_j, jk.m2_j, jk.total):
            assert m2_j == pytest.approx(0.0, abs=1e-18)
            assert total == m1_j + m2_j

    def test_matches_bruteforce_on_small_data(self):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        jk = jackknife_mspe(areas, fit(areas))
        m1_o, m2_o = oracles.oracle_jackknife(z, w, psi, sigma)
        np.testing.assert_allclose(jk.m1_j, m1_o, rtol=1e-8)
        np.testing.assert_allclose(jk.m2_j, m2_o, rtol=1e-8, atol=1e-15)

    def test_m2_nonnegative_and_total_additive(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=12, p=2, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        jk = jackknife_mspe(areas, fit(areas))
        for m1_j, m2_j, total in zip(jk.m1_j, jk.m2_j, jk.total):
            assert m2_j >= 0.0
            assert total == m1_j + m2_j

    def test_relabeling_invariance(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=10, p=1, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        base = jackknife_mspe(areas, fit(areas))
        order = gen.permutation(10)
        shuffled_areas = [areas[i] for i in order]
        shuffled = jackknife_mspe(shuffled_areas, fit(shuffled_areas))
        for pos, i in enumerate(order):
            assert shuffled.m1_j[pos] == pytest.approx(base.m1_j[i], rel=1e-7)
            assert shuffled.m2_j[pos] == pytest.approx(
                base.m2_j[i], rel=1e-7, abs=1e-12
            )

    def test_requires_enough_areas_for_loo_refits(self):
        # m = p + 1 leaves only p areas after dropping one
        areas = make_areas(z=[1.0, 2.0], w=[[1.0], [2.0]], psi=[1.0, 1.0])
        full = fit(areas)
        with pytest.raises(InsufficientAreas):
            jackknife_mspe(areas, full)

    def test_refits_stop_at_the_configured_cap(self):
        # the leave-one-out refits take more than one step from the full
        # fit, so a one-step cap stops every one of them
        z, w, psi, sigma = small_dataset(seed=5, m=6)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        assert jackknife_mspe(areas, full).loo_nonconverged == 0
        capped = jackknife_mspe(areas, full, config=FitConfig(max_iterations=1))
        assert capped.loo_nonconverged == len(areas)

    def test_failed_refit_names_dropped_area(self, monkeypatch):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        real = _arrays.fit_batch

        def boom(arr, config, beta_init=None):
            # the refits dropping areas 2 and 3 fail; the lower one is named
            result = real(arr, config, beta_init)
            failures = {j: SingularMomentMatrix("synthetic failure") for j in (3, 2)}
            return dataclasses.replace(result, errors=failures)

        monkeypatch.setattr(_arrays, "fit_batch", boom)
        with pytest.raises(SingularMomentMatrix, match=f"^{areas[2].area_id}: ") as exc:
            jackknife_mspe(areas, full)
        assert exc.value.index == 2
        assert "synthetic failure" in str(exc.value)


class TestBootstrap:
    def test_zero_variation_stub_returns_m1(self, monkeypatch):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)

        def frozen(arr, config, beta_init=None):
            return frozen_batch(len(arr.z), full.params.beta, full.params.sigma2_nu)

        monkeypatch.setattr(_arrays, "fit_batch", frozen)
        bt = bootstrap_mspe(areas, full, b=16, seed=3)
        _, m1_oracle = oracles.oracle_predict(
            z, w, psi, sigma, full.params.beta, full.params.sigma2_nu
        )

        assert bt.b_replicates == 16
        for i, expect in enumerate(m1_oracle):
            assert bt.m1_bias_corrected[i] == pytest.approx(expect, rel=1e-12)
            assert bt.m2_star[i] == pytest.approx(0.0, abs=1e-18)
            assert bt.total[i] == pytest.approx(expect, rel=1e-12)
            assert bt.negative[i] == (bt.total[i] < 0)

    def test_matches_bruteforce_with_shared_streams(self):
        z, w, psi, sigma = small_dataset(seed=11)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        bt = bootstrap_mspe(areas, full, b=3, seed=21)
        m1_o, m2_o = oracles.oracle_bootstrap(
            z, w, psi, sigma, full.params.beta, full.params.sigma2_nu, b=3, seed=21
        )
        np.testing.assert_allclose(bt.m1_bias_corrected, m1_o, rtol=1e-8)
        np.testing.assert_allclose(bt.m2_star, m2_o, rtol=1e-8, atol=1e-15)

    def test_deterministic_in_seed(self):
        z, w, psi, sigma = small_dataset(seed=5, m=6)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        a = bootstrap_mspe(areas, full, b=12, seed=9)
        b = bootstrap_mspe(areas, full, b=12, seed=9)
        assert (a.m1_bias_corrected == b.m1_bias_corrected).all()
        assert (a.m2_star == b.m2_star).all()
        c = bootstrap_mspe(areas, full, b=12, seed=10)
        assert (a.m1_bias_corrected != c.m1_bias_corrected).any()

    def test_negative_totals_flagged_not_clamped(self, monkeypatch):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)

        def inflated(arr, config, beta_init=None):
            # starred params with a much larger variance blow up each
            # replicate's variance term, driving 2 M1 - mean below zero
            sigma2 = full.params.sigma2_nu + 6.0
            return frozen_batch(len(arr.z), full.params.beta, sigma2)

        monkeypatch.setattr(_arrays, "fit_batch", inflated)
        bt = bootstrap_mspe(areas, full, b=8, seed=2)
        assert (bt.total < 0.0).any()
        for i, total in enumerate(bt.total):
            assert bt.negative[i] == (total < 0.0)
            assert total == bt.m1_bias_corrected[i] + bt.m2_star[i]

    def test_failed_replicates_dropped_and_counted(self, monkeypatch, caplog):
        z, w, psi, sigma = small_dataset(seed=13, m=5)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        real = _arrays.fit_batch

        def flaky(arr, config, beta_init=None):
            # every third replicate fails; the rest refit for real
            result = real(arr, config, beta_init)
            failures = {
                r: SingularMomentMatrix("synthetic failure")
                for r in range(0, len(arr.z), 3)
            }
            return dataclasses.replace(result, errors=failures)

        monkeypatch.setattr(_arrays, "fit_batch", flaky)
        with caplog.at_level(logging.WARNING, logger="logsae.mspe"):
            bt = bootstrap_mspe(areas, full, b=9, seed=1)
        assert bt.b_replicates == 6
        assert any("dropped 3 of 9" in rec.message for rec in caplog.records)

    def test_all_failed_raises(self, monkeypatch):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)

        def boom(arr, config, beta_init=None):
            n = len(arr.z)
            failures = {r: SingularMomentMatrix("synthetic failure") for r in range(n)}
            return frozen_batch(n, full.params.beta, full.params.sigma2_nu, failures)

        monkeypatch.setattr(_arrays, "fit_batch", boom)
        with pytest.raises(SingularMomentMatrix, match="all 4 bootstrap replicates"):
            bootstrap_mspe(areas, full, b=4, seed=1)

    def test_refits_at_the_iteration_cap_are_counted_and_logged(self, caplog):
        z, w, psi, sigma = small_dataset(seed=5, m=6)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        arr = _arrays.stack(areas)
        beta, sigma2 = full.params.beta, full.params.sigma2_nu
        one_step = FitConfig(max_iterations=1)
        result = mspe.bootstrap_core(arr, beta, sigma2, 10, 4, FitConfig())
        assert result[2] == 10 and result[3] == 0
        capped = mspe.bootstrap_core(arr, beta, sigma2, 10, 4, one_step)
        assert capped[2] == 10 and capped[3] == 10
        with caplog.at_level(logging.WARNING, logger="logsae.mspe"):
            bootstrap_mspe(areas, full, b=10, seed=4, config=one_step)
        messages = [rec.getMessage() for rec in caplog.records]
        assert "10 of 10 bootstrap refits hit the iteration cap" in messages

    def test_the_cap_warning_counts_against_the_replicates_used(
        self, monkeypatch, caplog
    ):
        z, w, psi, sigma = small_dataset(seed=13, m=5)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        real = _arrays.fit_batch

        def flaky(arr, config, beta_init=None):
            # replicates 0, 3 and 6 fail; 1 and 3 stop at the cap, so one
            # replicate used is capped
            result = real(arr, config, beta_init)
            converged = result.converged.copy()
            converged[[1, 3]] = False
            failures = {r: SingularMomentMatrix("synthetic failure") for r in (0, 3, 6)}
            return dataclasses.replace(result, converged=converged, errors=failures)

        monkeypatch.setattr(_arrays, "fit_batch", flaky)
        with caplog.at_level(logging.WARNING, logger="logsae.mspe"):
            bt = bootstrap_mspe(areas, full, b=9, seed=1)
        assert bt.b_replicates == 6
        messages = [rec.getMessage() for rec in caplog.records]
        assert "dropped 3 of 9 bootstrap replicates (33.3% failure rate)" in messages
        assert "1 of 6 bootstrap refits hit the iteration cap" in messages

    def test_b_below_two_rejected(self):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        with pytest.raises(ValueError):
            bootstrap_mspe(areas, full, b=1, seed=1)

    @pytest.mark.parametrize("b", [2.5, np.float64(4.0), True, "8"])
    def test_non_integer_b_rejected(self, b):
        z, w, psi, sigma = small_dataset()
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        with pytest.raises(ValueError, match=f"^b must be an integer, got {re.escape(repr(b))}$"):
            bootstrap_mspe(areas, full, b=b, seed=1)

    def test_m2_star_stabilizes_as_b_doubles(self):
        # law of large numbers: the B and 2B means differ by less than
        # three standard errors of the replicate distribution
        z, w, psi, sigma = small_dataset(seed=23, m=6)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        b = 80
        bt_b = bootstrap_mspe(areas, full, b=b, seed=17)
        bt_2b = bootstrap_mspe(areas, full, b=2 * b, seed=17)

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
        for i, (rb, r2b) in enumerate(zip(bt_b.m2_star, bt_2b.m2_star)):
            se = per_rep[:, i].std(ddof=1) / math.sqrt(b)
            assert abs(r2b - rb) < 3.0 * se


def _looped_factors(sigma):
    # a Cholesky call per nonzero matrix, eigh where it has no factor
    out = np.zeros_like(sigma)
    for i in range(len(sigma)):
        if sigma[i].any():
            try:
                out[i] = np.linalg.cholesky(sigma[i])
            except np.linalg.LinAlgError:
                vals, vecs = np.linalg.eigh(sigma[i])
                out[i] = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return out


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    kinds=st.lists(
        st.sampled_from(["zero", "definite", "low_rank", "zero_variance"]), max_size=10
    ),
)
def test_psd_factors_equal_a_call_per_matrix(seed, p, kinds):
    gen = np.random.default_rng(seed)
    sigma = np.zeros((len(kinds), p, p))
    for i, kind in enumerate(kinds):
        if kind == "definite":
            root = gen.normal(0.0, 0.5, size=(p, p))
            sigma[i] = root @ root.T + 0.01 * np.eye(p)
        elif kind == "low_rank":  # PSD of rank p - 1
            root = gen.normal(0.0, 0.5, size=(p, p - 1))
            sigma[i] = root @ root.T
        elif kind == "zero_variance":  # diagonal, one variance zero
            variances = gen.gamma(2.0, 0.5, size=p)
            variances[gen.integers(p)] = 0.0
            sigma[i] = np.diag(variances)
    got = mspe._psd_factors(sigma)
    assert got.tobytes() == _looped_factors(sigma).tobytes()


class TestBootstrapReduction:
    """bootstrap_core sums its replicates in replicate order, so the batch
    size cannot change its bits."""

    B, SEED, DROPPED = 50, 3, 17
    BATCHES = [(1500, 1), (390, 4), (210, 8)]  # _BATCH_CELLS at m=30, batch count

    @staticmethod
    def _problem():
        z, w, psi, sigma = random_dataset(np.random.default_rng(41), m=30, p=2)
        areas = make_areas(z, w, psi, sigma)
        full = fit(areas)
        return _arrays.stack(areas), full.params.beta, full.params.sigma2_nu

    def _core(self, arr, beta, sigma2):
        return mspe.bootstrap_core(arr, beta, sigma2, self.B, self.SEED, FitConfig())

    @pytest.mark.parametrize("cells, n_batches", BATCHES)
    def test_batch_size_leaves_the_bits(self, monkeypatch, cells, n_batches):
        arr, beta, sigma2 = self._problem()
        default = self._core(arr, beta, sigma2)
        monkeypatch.setattr(_arrays, "_BATCH_CELLS", cells)
        assert len(_arrays.batches(self.B, arr.m)) == n_batches
        got = self._core(arr, beta, sigma2)
        assert got[2:] == default[2:] == (self.B, 0)
        for a, b in zip(got[:2], default[:2]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cells, n_batches", BATCHES)
    def test_dropped_replicate_is_left_out_of_both_sums(
        self, monkeypatch, cells, n_batches
    ):
        arr, beta, sigma2 = self._problem()
        # reference: all replicates refit as one batch, summed one by one
        # in replicate order, skipping the dropped one
        factors = mspe._psd_factors(arr.sigma)
        replicates = range(self.B)
        starred = mspe._draw_starred(arr, factors, beta, sigma2, self.SEED, replicates)
        refit = _arrays.fit_batch(starred, FitConfig(), beta)
        pred_star, m1_star, _, errors = _arrays.predict_batch(
            arr, refit.beta, refit.sigma2
        )
        assert not refit.errors and not errors
        pred_full, m1_full, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
        sum_m1, sum_sq = np.zeros(arr.m), np.zeros(arr.m)
        for r in range(self.B):
            if r != self.DROPPED:
                sum_m1 += m1_star[r]
                sum_sq += (pred_star[r] - pred_full) ** 2
        used = self.B - 1

        real = mspe._draw_starred

        def draw(arr, factors, beta, sigma2, seed, replicates):
            starred = real(arr, factors, beta, sigma2, seed, replicates)
            if self.DROPPED in replicates:  # a non-finite system: its refit fails
                starred.z[replicates.index(self.DROPPED)] = np.nan
            return starred

        monkeypatch.setattr(mspe, "_draw_starred", draw)
        monkeypatch.setattr(_arrays, "_BATCH_CELLS", cells)
        assert len(_arrays.batches(self.B, arr.m)) == n_batches
        m1_bc, m2_star, got_used, capped = self._core(arr, beta, sigma2)
        assert (got_used, capped) == (used, 0)
        assert m1_bc.tobytes() == (2.0 * m1_full - sum_m1 / used).tobytes()
        assert m2_star.tobytes() == (sum_sq / used).tobytes()


class TestJackknifeReduction:
    """leave_one_out_terms adds its refits' terms in refit order, so the
    chunking cannot change their bits, and it holds no (m, m) array."""

    M = 30

    @staticmethod
    def _problem(m):
        z, w, psi, sigma = random_dataset(np.random.default_rng(43), m=m, p=2)
        data = Dataset.from_columns([f"a{i}" for i in range(m)], z, w, psi, sigma)
        return data, fit(data)

    def _sums(self, arr, beta, sigma2):
        pred, m1, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
        one = _arrays.batch_of_one(arr)
        sums, capped, *errors = mspe.leave_one_out_terms(
            one, beta[None], pred[None], m1[None], FitConfig()
        )
        assert sums.shape == (2, 1, arr.m)
        assert capped == 0 and errors == [{}, {}]
        return sums[:, 0]

    # _BATCH_CELLS and the number of chunks its m refits fall in
    @pytest.mark.parametrize("cells, n_batches", [(1 << 16, 1), (300, 3), (1, M)])
    def test_sums_equal_a_loop_in_refit_order(self, monkeypatch, cells, n_batches):
        (_, arr), full = self._problem(self.M)
        beta, sigma2 = full.params.beta, full.params.sigma2_nu
        pred, m1, _ = _arrays.predictions_and_m1(arr, beta, sigma2)
        sum_m1, sum_sq = np.zeros(self.M), np.zeros(self.M)
        for j in range(self.M):
            kept = np.arange(self.M) != j
            loo = _arrays.select_rows(arr, kept)
            beta_j, sigma2_j, *_ = _arrays.fit_core(loo, FitConfig(beta_init=beta))
            pred_j, m1_j, _ = _arrays.predictions_and_m1(arr, beta_j, sigma2_j)
            sum_m1 += m1 - m1_j
            sum_sq += (pred - pred_j) ** 2
        monkeypatch.setattr(_arrays, "_BATCH_CELLS", cells)
        assert len(_arrays.batches(self.M, self.M)) == n_batches
        got_m1, got_sq = self._sums(arr, beta, sigma2)
        assert got_m1.tobytes() == sum_m1.tobytes()
        assert got_sq.tobytes() == sum_sq.tobytes()
        m1_j, m2_j, _ = mspe.jackknife_core(arr, beta, sigma2, FitConfig())
        factor = (self.M - 1.0) / self.M
        assert m1_j.tobytes() == (m1 - factor * sum_m1).tobytes()
        assert m2_j.tobytes() == (factor * sum_sq).tobytes()

    def test_peak_memory_does_not_grow_as_m_squared(self):
        # (m, m) arrays of refit predictions would grow the peak about 4x
        # when m doubles; the sums and one chunk of refits grow it little
        peaks = []
        for m in (800, 1600):
            data, full = self._problem(m)
            tracemalloc.start()
            try:
                jackknife_mspe(data, full)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.6 * peaks[0]
