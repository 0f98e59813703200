"""The batched fixed-point fit equals one fit per replicate.

`_arrays.fit_batch` runs the refits of the jackknife and the bootstrap as
one batch.  Each replicate must take the steps, and stop at the
iteration, that a B=1 call of the same kernel takes on it alone, and a
replicate that fails must fail alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsae import _arrays, mspe
from logsae.errors import SingularMomentMatrix

MAX_ITERATIONS, TOLERANCE = 200, 1e-10
COUNTS = ("iterations", "converged", "truncated")


def shared_areas(gen, m, p):
    psi = gen.gamma(2.0, 0.5, size=m)
    sigma = np.zeros((m, p, p))
    for i in gen.choice(m, size=m // 2, replace=False):
        root = gen.normal(0.0, 0.3, size=(p, p))
        sigma[i] = root @ root.T
    return psi, sigma


def draw(gen, shape, p):
    w = gen.normal(2.0, 1.0, size=(*shape, p))
    z = w @ gen.normal(1.0, 0.5, size=p) + gen.normal(0.0, 1.2, size=shape)
    return z, w


def replicate(batch, k):
    # replicate k of a batch as a dataset of its own
    def take(x, ndim):
        return x[k] if x.ndim == ndim else x

    return _arrays.AreaArrays(
        z=batch.z[k],
        w=batch.w[k],
        psi=take(batch.psi, 2),
        sigma=take(batch.sigma, 4),
        moment=take(batch.moment, 4),
    )


def check_against_single_fits(batch, beta_init, failing):
    fit = _arrays.fit_batch(batch, MAX_ITERATIONS, TOLERANCE, beta_init)
    assert set(fit.errors) == failing
    for k in range(len(batch.z)):
        alone = replicate(batch, k)
        single = _arrays.fit_batch(alone, MAX_ITERATIONS, TOLERANCE, beta_init)
        if k in failing:
            assert str(single.errors[0]) == str(fit.errors[k])
            with pytest.raises(SingularMomentMatrix, match="singular"):
                _arrays.fit_core(alone, MAX_ITERATIONS, TOLERANCE, beta_init)
            continue
        assert not single.errors
        np.testing.assert_allclose(fit.beta[k], single.beta[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fit.sigma2[k], single.sigma2[0], rtol=1e-12, atol=0.0)
        counts = tuple(getattr(single, name)[0] for name in COUNTS)
        assert tuple(getattr(fit, name)[k] for name in COUNTS) == counts
        # fit_core is the same B=1 call
        core = _arrays.fit_core(alone, MAX_ITERATIONS, TOLERANCE, beta_init)
        assert core[2:] == counts
    return fit


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(4, 14),
    p=st.integers(1, 3),
    b=st.integers(1, 6),
    warm=st.booleans(),
    singular=st.integers(-1, 5),
)
def test_batched_equals_looped(seed, m, p, b, warm, singular):
    gen = np.random.default_rng(seed)
    m = max(m, p + 2)
    psi, sigma = shared_areas(gen, m, p)
    z, w = draw(gen, (b, m), p)
    batch = _arrays.build(z, w, psi, sigma)
    failing = {singular} if 0 <= singular < b else set()
    for k in failing:
        batch.moment[k] = 0.0  # that replicate's moment system is singular
    beta_init = gen.normal(1.0, 0.5, size=p) if warm else None
    check_against_single_fits(batch, beta_init, failing)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(4, 14),
    p=st.integers(1, 2),
    singular=st.booleans(),
)
def test_leave_one_out_batch_equals_looped(seed, m, p, singular):
    gen = np.random.default_rng(seed)
    m = max(m, p + 3)
    psi, sigma = shared_areas(gen, m, p)
    z, w = draw(gen, (m,), p)
    lone = int(gen.integers(m))
    if singular:
        # every area but one has no covariate information, so the refit
        # that drops that area has a singular moment system
        p = 1
        sigma = np.zeros((m, 1, 1))
        w = np.zeros((m, 1))
        w[lone, 0] = 2.0
    arr = _arrays.build(z, w, psi, sigma)
    beta_init = np.full(p, 0.8)
    batch = mspe._leave_one_out(arr, range(m))
    fit = check_against_single_fits(batch, beta_init, {lone} if singular else set())
    # row j is the refit on every area but j, bit for bit
    for j in range(m):
        if singular and j == lone:
            continue
        kept = np.arange(m) != j
        reduced = _arrays.build(z[kept], w[kept], psi[kept], sigma[kept])
        beta, sigma2, iterations, *_ = _arrays.fit_core(
            reduced, MAX_ITERATIONS, TOLERANCE, beta_init
        )
        assert np.array_equal(beta, fit.beta[j]) and sigma2 == fit.sigma2[j]
        assert iterations == fit.iterations[j]
