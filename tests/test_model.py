"""Closed-form quantities: shrinkage, EB prediction, conditional variance."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logsae import _arrays
from logsae.errors import DegenerateVariance, NonPsdSigma, PredictionOverflow
from logsae.model import (
    AreaObservation,
    ModelParams,
    _check_psd,
    eb_predict,
    m1_term,
    posterior_moments,
    predict_areas,
    shrinkage_gamma,
)


def obs_1d(z=0.0, w=0.0, psi=1.0, sme=0.0, area_id="a"):
    return AreaObservation(
        area_id=area_id, z=z, w=np.array([w]), psi=psi, sigma_me=np.array([[sme]])
    )


class TestAreaObservation:
    def test_fields_are_readonly(self):
        obs = obs_1d()
        with pytest.raises(ValueError):
            obs.w[0] = 3.0
        with pytest.raises(ValueError):
            obs.sigma_me[0, 0] = 1.0

    def test_negative_psi_rejected(self):
        with pytest.raises(ValueError, match="psi"):
            obs_1d(psi=-0.5)

    def test_non_symmetric_sigma_rejected(self):
        with pytest.raises(NonPsdSigma):
            AreaObservation(
                area_id="a",
                z=0.0,
                w=np.zeros(2),
                psi=1.0,
                sigma_me=np.array([[1.0, 0.5], [0.2, 1.0]]),
            )

    def test_negative_definite_sigma_rejected(self):
        with pytest.raises(NonPsdSigma):
            obs_1d(sme=-0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AreaObservation(
                area_id="a",
                z=0.0,
                w=np.zeros(2),
                psi=1.0,
                sigma_me=np.zeros((3, 3)),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            obs_1d(z=float("nan"))

    def test_zero_diagonal_sigma_accepted(self):
        # a PSD matrix with a zero diagonal entry is fine
        sig = np.diag([2.0, 0.0])
        obs = AreaObservation(
            area_id="a", z=0.0, w=np.zeros(2), psi=1.0, sigma_me=sig
        )
        assert obs.p == 2


def _psd_problem(sig):
    """One covariance checked as a single area: np.allclose, then eigvalsh."""
    if not np.all(np.isfinite(sig)):
        return "covariance has non-finite entries"
    if not np.allclose(sig, sig.T, rtol=1e-8, atol=1e-12):
        return "covariance is not symmetric"
    if sig.shape[0] == 1:
        return f"negative variance {float(sig[0, 0])!r}" if sig[0, 0] < 0.0 else None
    eigvals = np.linalg.eigvalsh(sig)
    if eigvals[0] < -1e-12 * max(1.0, float(eigvals[-1])):
        return f"covariance has negative eigenvalue {float(eigvals[0])!r}"
    return None


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    kinds=st.lists(
        st.sampled_from(
            ["psd", "zero", "asym", "near_asym", "nonfinite", "indefinite", "near_psd"]
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_stacked_psd_check_matches_one_area_at_a_time(seed, p, kinds):
    gen = np.random.default_rng(seed)
    stack = np.zeros((len(kinds), p, p))
    for i, kind in enumerate(kinds):
        root = gen.normal(0.0, 1.0, size=(p, p))
        sig = root @ root.T if kind != "zero" else np.zeros((p, p))
        if kind in ("asym", "near_asym") and p > 1:
            # off by about the symmetry tolerance: either side of it
            scale = 1e-12 + 1e-8 * abs(sig[0, 1])
            sig[0, 1] += scale * (gen.uniform(0.5, 1.5) if kind == "near_asym" else 1e3)
        elif kind == "nonfinite":
            sig[gen.integers(p), gen.integers(p)] = [np.nan, np.inf, -np.inf][i % 3]
        elif kind == "indefinite":
            shift = np.linalg.eigvalsh(sig)[0] + gen.uniform(1e-3, 1.0)
            sig = sig - shift * np.eye(p)
        elif kind == "near_psd":
            # smallest eigenvalue about the tolerance -1e-12 * largest, largest 1e3
            q = np.linalg.qr(root)[0]
            vals = np.full(p, 1e3)
            vals[0] = -gen.uniform(0.2, 2.0) * 1e-9
            sig = (q * vals) @ q.T
            sig = (sig + sig.T) / 2.0
        stack[i] = sig
    problems = [_psd_problem(sig) for sig in stack]
    first = next((i for i, problem in enumerate(problems) if problem), None)
    if first is None:
        _check_psd(stack, lambda i: f"area {i}")
        return
    with pytest.raises(NonPsdSigma) as exc:
        _check_psd(stack, lambda i: f"area {i}")
    assert str(exc.value) == f"area {first}: {problems[first]}"


class TestShrinkageGamma:
    def test_zero_numerator(self):
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=0.0)
        assert shrinkage_gamma(params, np.array([[0.0]]), 2.0) == 0.0

    def test_zero_psi_gives_one(self):
        params = ModelParams(beta=np.array([1.0]), sigma2_nu=3.0)
        assert shrinkage_gamma(params, np.array([[0.0]]), 0.0) == 1.0

    def test_worked_ratio(self):
        # beta 3, sme 2, sigma2 2, psi 2: (9*2 + 2) / (9*2 + 2 + 2) = 20/22
        params = ModelParams(beta=np.array([3.0]), sigma2_nu=2.0)
        g = shrinkage_gamma(params, np.array([[2.0]]), 2.0)
        assert g == pytest.approx(20.0 / 22.0, rel=1e-15)

    def test_degenerate_zero_over_zero(self):
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=0.0)
        with pytest.raises(DegenerateVariance):
            shrinkage_gamma(params, np.array([[0.0]]), 0.0)

    # the area checks `AreaObservation` makes, on the same inputs

    @pytest.mark.parametrize("shape", [(3, 2), (2,)])
    def test_sigma_me_that_is_not_square_is_rejected(self, shape):
        params = ModelParams(beta=np.array([1.0, 2.0]), sigma2_nu=1.0)
        message = f"area: sigma_me has shape {shape}, not (p, p)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            shrinkage_gamma(params, np.zeros(shape), 1.0)

    def test_negative_variance_is_rejected(self):
        params = ModelParams(beta=np.array([1.0]), sigma2_nu=1.0)
        with pytest.raises(NonPsdSigma, match=r"^area: negative variance -1\.0$"):
            shrinkage_gamma(params, np.array([[-1.0]]), 1.0)

    def test_infinite_variance_is_rejected(self):
        params = ModelParams(beta=np.array([1.0]), sigma2_nu=1.0)
        message = r"^area: covariance has non-finite entries$"
        with pytest.raises(NonPsdSigma, match=message):
            shrinkage_gamma(params, np.array([[np.inf]]), 1.0)

    @pytest.mark.parametrize("psi", [math.nan, math.inf, -5.0])
    def test_psi_that_is_not_finite_and_nonnegative_is_rejected(self, psi):
        params = ModelParams(beta=np.array([1.0]), sigma2_nu=1.0)
        message = r"^area: psi must be finite and >= 0$"
        with pytest.raises(ValueError, match=message):
            shrinkage_gamma(params, np.array([[0.0]]), psi)


class TestEbPredict:
    def test_full_shrinkage_to_zero_mean(self):
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=0.0)
        assert eb_predict(obs_1d(z=17.3, psi=2.0), params) == 1.0

    def test_zero_psi_returns_direct(self):
        params = ModelParams(beta=np.array([1.0]), sigma2_nu=3.0)
        obs = obs_1d(z=1.7, w=5.0, psi=0.0)
        assert eb_predict(obs, params) == pytest.approx(math.exp(1.7), rel=1e-15)

    def test_worked_exponent(self):
        # gamma 1/2 via sigma2 = psi = 2 and beta 0: exp(z/2 + psi/4) = e
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=2.0)
        obs = obs_1d(z=1.0, w=9.9, psi=2.0)
        assert eb_predict(obs, params) == pytest.approx(math.e, rel=1e-15)

    def test_overflow_raised_not_saturated(self):
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=1.0)
        with pytest.raises(PredictionOverflow):
            eb_predict(obs_1d(z=1e6, psi=0.5), params)

    def test_overflow_message_names_the_area(self):
        # psi = 0 gives gamma = 1, so the exponent is z itself
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=1.0)
        areas = [obs_1d(z=1.0, area_id="a"), obs_1d(z=800.0, psi=0.0, area_id="b")]
        with pytest.raises(PredictionOverflow, match=r"^b: exponent 800 "):
            eb_predict(areas[1], params)
        with pytest.raises(PredictionOverflow, match=r"^b: exponent 800 ") as exc:
            predict_areas(areas, params)
        assert exc.value.index == 1

    def test_predict_areas_keeps_order(self):
        params = ModelParams(beta=np.array([1.0]), sigma2_nu=1.0)
        areas = [obs_1d(z=float(i), area_id=f"id{i}") for i in range(5)]
        out = predict_areas(areas, params)
        assert out.area_ids == [f"id{i}" for i in range(5)]
        assert all(p > 0 and v >= 0 for p, v in zip(out.prediction, out.m1))


class TestM1Term:
    def test_zero_psi_is_exactly_zero(self):
        params = ModelParams(beta=np.array([1.0]), sigma2_nu=3.0)
        assert m1_term(obs_1d(z=2.0, w=1.0, psi=0.0), params) == 0.0

    def test_worked_value(self):
        # gamma 1/2, psi 2, z 0, mean 0: e^1 (e^1 - 1) e^0
        params = ModelParams(beta=np.array([0.0]), sigma2_nu=2.0)
        got = m1_term(obs_1d(z=0.0, w=4.0, psi=2.0), params)
        assert got == pytest.approx(math.e * (math.e - 1.0), rel=1e-12)

    def test_matches_conditional_draw_variance(self, gen):
        # m1 is the variance of exp(theta) under theta ~ N(mean, gamma psi)
        params = ModelParams(beta=np.array([0.7]), sigma2_nu=0.8)
        for z, w, psi, sme in [(1.2, 0.5, 0.6, 0.3), (-0.4, 1.1, 1.5, 0.0)]:
            obs = obs_1d(z=z, w=w, psi=psi, sme=sme)
            mom = posterior_moments(obs, params)
            draws = np.exp(
                gen.normal(mom.mean, math.sqrt(mom.variance), size=400_000)
            )
            sample_var = draws.var(ddof=1)
            # 3 MC standard errors of a variance estimate, via the draws
            centered_sq = (draws - draws.mean()) ** 2
            se = centered_sq.std(ddof=1) / math.sqrt(draws.size)
            assert abs(m1_term(obs, params) - sample_var) < 3.0 * se


def test_estimation_error_orthogonal_to_bayes_error():
    # the cross term in the MSPE decomposition vanishes: over replicates,
    # cov(EB - Bayes, Bayes - Y) is statistically zero within z bins
    from conftest import make_areas
    from logsae import simulation as sim
    from logsae.estimation import fit

    config = sim.SimulationConfig(
        m=40, k_percent=0.0, beta_true=(0.4,), sigma2_nu_true=0.3,
        covariate_mean=0.0, covariate_var=1.0, psi_shape=2.0, psi_scale=0.25,
        r_replications=1, seed=77,
    )
    true_params = ModelParams(beta=np.array([0.4]), sigma2_nu=0.3)
    reps = 1200
    a = np.empty(reps)
    b = np.empty(reps)
    z = np.empty(reps)
    for r in range(reps):
        _, theta, z_r, w, psi, sigma, _ = sim._draw_population(config, r)
        areas = make_areas(z_r, w, psi, sigma)
        fitted = fit(areas).params
        a[r] = eb_predict(areas[0], fitted) - eb_predict(areas[0], true_params)
        b[r] = eb_predict(areas[0], true_params) - np.exp(theta[0])
        z[r] = areas[0].z
    bins = np.digitize(z, np.quantile(z, [0.25, 0.5, 0.75]))
    for mask in [np.ones(reps, bool)] + [bins == k for k in range(4)]:
        prod = (a[mask] - a[mask].mean()) * (b[mask] - b[mask].mean())
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean()) < 3.0 * se


class TestPosteriorMoments:
    def test_variance_is_gamma_psi(self):
        params = ModelParams(beta=np.array([2.0]), sigma2_nu=1.0)
        obs = obs_1d(z=0.3, w=1.0, psi=1.7, sme=0.2)
        mom = posterior_moments(obs, params)
        assert mom.variance == mom.gamma * 1.7

    def test_covariate_override_changes_mean_only(self):
        params = ModelParams(beta=np.array([2.0]), sigma2_nu=1.0)
        obs = obs_1d(z=0.3, w=1.0, psi=1.7, sme=0.2)
        base = posterior_moments(obs, params)
        other = posterior_moments(dataclasses.replace(obs, w=np.array([3.0])), params)
        assert other.gamma == base.gamma and other.variance == base.variance
        shift = (1.0 - base.gamma) * 2.0 * (3.0 - 1.0)
        assert other.mean == pytest.approx(base.mean + shift, rel=1e-14)


# ---------------------------------------------------------------- properties

finite = dict(allow_nan=False, allow_infinity=False)
z_st = st.floats(-20.0, 20.0, **finite)
beta_st = st.floats(-4.0, 4.0, **finite)
var_st = st.floats(0.0, 10.0, **finite)
psi_st = st.floats(0.0, 10.0, **finite)


def _params_obs(beta, sigma2, z, w, psi, root):
    sme = np.array([[root * root]])
    params = ModelParams(beta=np.array([beta]), sigma2_nu=sigma2)
    obs = AreaObservation(
        area_id="h", z=z, w=np.array([w]), psi=psi, sigma_me=sme
    )
    return params, obs


@given(beta=beta_st, sigma2=var_st, psi=psi_st, root=st.floats(0.0, 2.0, **finite))
def test_gamma_in_unit_interval(beta, sigma2, psi, root):
    params = ModelParams(beta=np.array([beta]), sigma2_nu=sigma2)
    sme = np.array([[root * root]])
    num = beta * root * root * beta + sigma2
    assume(num + psi > 0.0)
    g = shrinkage_gamma(params, sme, psi)
    assert 0.0 <= g <= 1.0
    if psi > 1e-6:  # strict inequality needs psi visible at float precision
        assert g < 1.0


@given(
    beta=beta_st,
    sigma2=var_st,
    psi=psi_st,
    bump=st.floats(0.01, 5.0, **finite),
    root=st.floats(0.0, 2.0, **finite),
)
def test_gamma_monotone_in_psi_and_sigma2(beta, sigma2, psi, bump, root):
    params = ModelParams(beta=np.array([beta]), sigma2_nu=sigma2)
    sme = np.array([[root * root]])
    assume(beta * root * root * beta + sigma2 + psi > 0.0)
    g = shrinkage_gamma(params, sme, psi)
    assert shrinkage_gamma(params, sme, psi + bump) <= g
    grown = ModelParams(beta=np.array([beta]), sigma2_nu=sigma2 + bump)
    assert shrinkage_gamma(grown, sme, psi) >= g


@settings(max_examples=200)
@given(z=z_st, w=z_st, beta=beta_st, sigma2=var_st, psi=psi_st, c=st.floats(-5.0, 5.0, **finite))
def test_eb_predict_shift_property(z, w, beta, sigma2, psi, c):
    params, obs = _params_obs(beta, sigma2, z, w, psi, 0.0)
    assume(sigma2 + beta * 0.0 + psi > 0.0 and (sigma2 > 0.0 or psi > 0.0))
    shifted = AreaObservation(
        area_id="h", z=z + c, w=np.array([w]), psi=psi, sigma_me=np.zeros((1, 1))
    )
    g = shrinkage_gamma(params, np.zeros((1, 1)), psi)
    left = eb_predict(shifted, params)
    right = eb_predict(obs, params) * math.exp(g * c)
    assert left == pytest.approx(right, rel=1e-9)


@given(
    z=z_st,
    w=z_st,
    beta=beta_st,
    sigma2=var_st,
    # exact zero or large enough that the variance term stays representable
    psi=st.one_of(st.just(0.0), st.floats(1e-12, 10.0, **finite)),
    root=st.floats(0.0, 2.0, **finite),
)
# gamma psi is a nonzero subnormal here, so the m1 exponent is about -745.3
@example(z=0.0, w=15.0, beta=-1.0, sigma2=2.225073858507e-311, psi=1.0, root=0.0)
def test_m1_nonnegative_and_zero_iff_gamma_psi_zero(z, w, beta, sigma2, psi, root):
    params, obs = _params_obs(beta, sigma2, z, w, psi, root)
    num = beta * root * root * beta + sigma2
    assume(num + psi > 0.0)
    moments = posterior_moments(obs, params)
    var = np.array([moments.variance])
    if var[0] > 0.0:
        exponent = var[0] + _arrays.log_expm1(var)[0] + 2.0 * moments.mean
        if exponent < _arrays._EXP_MIN:
            # too small to represent: raised, not saturated to 0
            with pytest.raises(PredictionOverflow):
                m1_term(obs, params)
            return
    m1 = m1_term(obs, params)
    assert m1 >= 0.0
    g = shrinkage_gamma(params, obs.sigma_me, psi)
    if g * psi == 0.0:
        assert m1 == 0.0
    else:
        assert m1 > 0.0


@given(z1=z_st, z2=z_st, w=z_st, beta=beta_st, sigma2=st.floats(0.1, 10.0, **finite), psi=psi_st)
def test_eb_predict_monotone_in_z(z1, z2, w, beta, sigma2, psi):
    assume(z2 - z1 > 1e-6)  # separation visible through exp at float precision
    params, obs1 = _params_obs(beta, sigma2, z1, w, psi, 0.0)
    _, obs2 = _params_obs(beta, sigma2, z2, w, psi, 0.0)
    assert eb_predict(obs1, params) < eb_predict(obs2, params)
