"""Moment-iteration fitting: worked examples, oracle equivalence, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_areas, random_dataset
from logsae.errors import InsufficientAreas, SingularMomentMatrix
from logsae.estimation import FitConfig, ModelFit, estimate_sigma2, fit, solve_beta
from logsae.model import ModelParams


class TestSolveBeta:
    def test_scalar_unit_weights(self):
        # D identical across areas via sigma2 + psi constant; w z sums: 10/5
        areas = make_areas(z=[2.0, 4.0], w=[[1.0], [2.0]], psi=[0.5, 0.5])
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=0.5)
        beta = solve_beta(areas, params)
        assert beta[0] == pytest.approx(2.0, rel=1e-14)

    def test_equal_weights_match_ols(self, gen):
        z, w, psi, _ = random_dataset(gen, m=25, p=2, with_sigma=False)
        psi = np.full(25, 1.3)
        areas = make_areas(z, w, psi)
        params = ModelParams(beta=np.zeros(2), sigma2_nu=0.7)
        beta = solve_beta(areas, params)
        ols, *_ = np.linalg.lstsq(w, z, rcond=None)
        np.testing.assert_allclose(beta, ols, rtol=1e-10)

    def test_zero_design_is_singular(self):
        areas = make_areas(z=[1.0, 2.0], w=[[0.0], [0.0]], psi=[1.0, 1.0])
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=1.0)
        with pytest.raises(SingularMomentMatrix):
            solve_beta(areas, params)


class TestEstimateSigma2:
    def test_residuals_swallowed_by_psi(self):
        areas = make_areas(z=[1.0, 2.0, 3.0], w=[[1.0], [2.0], [3.0]], psi=[2.0] * 3)
        value, truncated = estimate_sigma2(areas, np.array([1.0]))
        assert value == 0.0 and truncated is True

    def test_constant_residuals(self):
        # residuals all 3, psi all 1: 9 - 1 = 8, no truncation
        areas = make_areas(z=[4.0, 5.0, 6.0], w=[[1.0], [2.0], [3.0]], psi=[1.0] * 3)
        value, truncated = estimate_sigma2(areas, np.array([1.0]))
        assert value == pytest.approx(8.0, rel=1e-14)
        assert truncated is False

    def test_exact_zero_is_not_truncation(self):
        areas = make_areas(z=[2.0], w=[[1.0]], psi=[0.0])
        value, truncated = estimate_sigma2(areas, np.array([2.0]))
        assert value == 0.0 and truncated is False


class TestFit:
    def test_too_few_areas(self):
        areas = make_areas(z=[1.0, 2.0], w=[[1.0, 0.0], [0.0, 1.0]], psi=[1.0, 1.0])
        with pytest.raises(InsufficientAreas):
            fit(areas)

    def test_matches_oracle_without_measurement_error(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=30, p=2, with_sigma=False)
        result = fit(make_areas(z, w, psi))
        beta_o, sigma2_o = oracles.oracle_fit(z, w, psi, sigma)
        np.testing.assert_allclose(result.params.beta, beta_o, rtol=1e-8)
        assert result.params.sigma2_nu == pytest.approx(sigma2_o, rel=1e-8, abs=1e-12)
        assert result.converged

    def test_matches_oracle_with_measurement_error(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=40, p=2, with_sigma=True)
        result = fit(make_areas(z, w, psi, sigma))
        beta_o, sigma2_o = oracles.oracle_fit(z, w, psi, sigma)
        np.testing.assert_allclose(result.params.beta, beta_o, rtol=1e-8)
        assert result.params.sigma2_nu == pytest.approx(sigma2_o, rel=1e-8, abs=1e-12)

    def test_gammas_match_definition(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=15, p=1, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        result = fit(areas)
        beta, sigma2 = result.params.beta, result.params.sigma2_nu
        for i, a in enumerate(areas):
            expect = oracles.oracle_gamma(beta, a.sigma_me, a.psi, sigma2)
            assert result.gammas[i] == pytest.approx(expect, rel=1e-14)

    def test_idempotent_at_fixed_point(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=20, p=2, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        first = fit(areas)
        again = fit(areas, FitConfig(beta_init=first.params.beta))
        assert again.iterations_used <= 2
        np.testing.assert_allclose(
            again.params.beta, first.params.beta, rtol=1e-8
        )
        assert again.params.sigma2_nu == pytest.approx(
            first.params.sigma2_nu, rel=1e-8, abs=1e-12
        )

    def test_permutation_invariance(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=18, p=2, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        base = fit(areas)
        order = gen.permutation(18)
        shuffled = fit([areas[i] for i in order])
        np.testing.assert_allclose(
            shuffled.params.beta, base.params.beta, rtol=1e-9
        )
        assert shuffled.params.sigma2_nu == pytest.approx(
            base.params.sigma2_nu, rel=1e-9, abs=1e-12
        )
        np.testing.assert_allclose(
            shuffled.gammas[np.argsort(order)], base.gammas, rtol=1e-9
        )

    def test_nonconvergence_reported_not_raised(self, gen):
        z, w, psi, sigma = random_dataset(gen, m=20, p=2, with_sigma=True)
        result = fit(make_areas(z, w, psi, sigma), FitConfig(max_iterations=1))
        assert isinstance(result, ModelFit)
        assert result.converged is False
        assert result.iterations_used == 1

    def test_truncation_flag_matches_value(self, gen):
        # psi far above residual variance forces the zero boundary
        z, w, psi, _ = random_dataset(gen, m=12, p=1, with_sigma=False)
        areas = make_areas(z, w, np.full(12, 500.0))
        result = fit(areas)
        assert result.params.sigma2_nu == 0.0
        assert result.sigma2_truncated is True

    def test_beta_estimating_equation_unbiased(self):
        # fixed sigma2 at truth, no measurement error: mean beta-hat near truth
        gen = np.random.default_rng(4)
        m, reps, beta_true = 500, 1000, 1.5
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=2.0)
        draws = np.empty(reps)
        for r in range(reps):
            w = gen.normal(5.0, 3.0, size=(m, 1))
            psi = gen.gamma(4.5, 2.0, size=m)
            z = (
                w[:, 0] * beta_true
                + gen.normal(0.0, np.sqrt(2.0), size=m)
                + np.sqrt(psi) * gen.standard_normal(m)
            )
            draws[r] = solve_beta(make_areas(z, w, psi), params)[0]
        se = draws.std(ddof=1) / np.sqrt(reps)
        assert abs(draws.mean() - beta_true) < 3.0 * se


class TestFitConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(rel_tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(rel_tolerance=-1e-3)
        for start in (np.ones((1, 1)), 1.0):
            with pytest.raises(ValueError, match="^beta_init must be one-dimensional$"):
                FitConfig(beta_init=start)

    @pytest.mark.parametrize("cap", [2.5, math.inf, True, 3.0, "5"])
    def test_rejects_a_cap_that_is_not_an_integer(self, cap):
        # a fit stops when its step count equals the cap, which a
        # non-integer never does
        with pytest.raises(ValueError, match="^max_iterations must be an integer >= 1"):
            FitConfig(max_iterations=cap)

    def test_accepts_a_numpy_integer_cap(self):
        config = FitConfig(max_iterations=np.int64(7))
        assert config.max_iterations == 7 and type(config.max_iterations) is int

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, True, "1e-6"])
    def test_rejects_a_tolerance_that_is_not_positive_and_finite(self, tolerance):
        # an infinite tolerance would stop every fit after one step
        with pytest.raises(ValueError, match="^rel_tolerance must be"):
            FitConfig(rel_tolerance=tolerance)

    @pytest.mark.parametrize("start", [[math.nan], [1.0, math.inf], ["a"], [None]])
    def test_rejects_a_start_that_is_not_finite(self, start):
        with pytest.raises(ValueError, match="^beta_init must be finite real numbers"):
            FitConfig(beta_init=start)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 30), p=st.integers(1, 2))
def test_fit_outputs_well_formed(seed, m, p):
    gen = np.random.default_rng(seed)
    z, w, psi, sigma = random_dataset(gen, m=m, p=p, with_sigma=True)
    try:
        result = fit(make_areas(z, w, psi, sigma))
    except (SingularMomentMatrix, InsufficientAreas):
        return
    assert result.params.sigma2_nu >= 0.0
    assert np.all((result.gammas >= 0.0) & (result.gammas <= 1.0))
    assert result.sigma2_truncated == (result.params.sigma2_nu == 0.0)
    assert result.iterations_used >= 1
