"""The batched fixed-point fit equals one fit per replicate.

`_arrays.fit_batch` runs the refits of the jackknife and the bootstrap as
one batch.  Each replicate must take the steps, and stop at the
iteration, that a B=1 call of the same kernel takes on it alone, and a
replicate that fails must fail alone.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logsae import _arrays, mspe
from logsae.errors import SingularMomentMatrix
from logsae.estimation import FitConfig

CONFIG = FitConfig(max_iterations=200, rel_tolerance=1e-10)
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


def copies(x, b):
    # one array for each of b replicates, as copies
    return np.repeat(x[None], b, axis=0)


def replicate(batch, k):
    # replicate k of a batch as a dataset of its own
    return _arrays.AreaArrays(batch.z[k], batch.w[k], batch.psi[k], batch.sigma[k])


def started(beta_init):
    # CONFIG with a cold start at beta_init, for `fit_core`
    return dataclasses.replace(CONFIG, beta_init=beta_init)


def check_against_single_fits(batch, beta_init, failing):
    fit = _arrays.fit_batch(batch, CONFIG, beta_init)
    assert set(fit.errors) == failing
    for k in range(len(batch.z)):
        alone = replicate(batch, k)
        single = _arrays.fit_batch(_arrays.batch_of_one(alone), CONFIG, beta_init)
        if k in failing:
            assert str(single.errors[0]) == str(fit.errors[k])
            with pytest.raises(SingularMomentMatrix, match="singular"):
                _arrays.fit_core(alone, started(beta_init))
            continue
        assert not single.errors
        np.testing.assert_allclose(fit.beta[k], single.beta[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fit.sigma2[k], single.sigma2[0], rtol=1e-12, atol=0.0)
        counts = tuple(getattr(single, name)[0] for name in COUNTS)
        assert tuple(getattr(fit, name)[k] for name in COUNTS) == counts
        # fit_core is the same B=1 call
        core = _arrays.fit_core(alone, started(beta_init))
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
    batch = _arrays.AreaArrays(z, w, copies(psi, b), copies(sigma, b))
    failing = {singular} if 0 <= singular < b else set()
    for k in failing:
        # that replicate's moment system is singular
        batch.w[k], batch.sigma[k] = 0.0, 0.0
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
    arr = _arrays.AreaArrays(z, w, psi, sigma)
    beta_init = np.full(p, 0.8)
    batch = mspe._leave_one_out(_arrays.batch_of_one(arr), range(m), np.zeros(m, int))
    fit = check_against_single_fits(batch, beta_init, {lone} if singular else set())
    # row j is the refit on every area but j, bit for bit
    for j in range(m):
        if singular and j == lone:
            continue
        kept = np.arange(m) != j
        reduced = _arrays.AreaArrays(z[kept], w[kept], psi[kept], sigma[kept])
        beta, sigma2, iterations, *_ = _arrays.fit_core(reduced, started(beta_init))
        assert np.array_equal(beta, fit.beta[j]) and sigma2 == fit.sigma2[j]
        assert iterations == fit.iterations[j]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(4, 14),
    p=st.integers(1, 3),
    b=st.integers(1, 6),
)
def test_one_warm_start_per_replicate_equals_single_fits(seed, m, p, b):
    gen = np.random.default_rng(seed)
    m = max(m, p + 2)
    psi, sigma = shared_areas(gen, m, p)
    z, w = draw(gen, (b, m), p)
    batch = _arrays.AreaArrays(z, w, copies(psi, b), copies(sigma, b))
    starts = gen.normal(1.0, 0.5, size=(b, p))
    fit = _arrays.fit_batch(batch, CONFIG, starts)
    for k in range(b):
        alone = _arrays.batch_of_one(replicate(batch, k))
        single = _arrays.fit_batch(alone, CONFIG, starts[k])
        assert np.array_equal(fit.beta[k], single.beta[0])
        assert fit.sigma2[k] == single.sigma2[0]
        assert tuple(getattr(fit, name)[k] for name in COUNTS) == tuple(
            getattr(single, name)[0] for name in COUNTS
        )


@pytest.mark.parametrize("shape", [(2,), (3, 1), (2, 2), ()])
def test_warm_start_of_another_shape_is_rejected(shape):
    gen = np.random.default_rng(0)
    psi, sigma = shared_areas(gen, 6, 1)
    z, w = draw(gen, (2, 6), 1)
    batch = _arrays.AreaArrays(z, w, copies(psi, 2), copies(sigma, 2))
    with pytest.raises(ValueError, match=r"^beta_init must have shape \(1,\) or \(2, 1\)$"):
        _arrays.fit_batch(batch, CONFIG, np.ones(shape))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    systems=st.lists(
        st.tuples(st.one_of(finite, st.sampled_from([0.0, -0.0, 5e-324])), finite),
        min_size=1,
        max_size=8,
    )
)
def test_one_by_one_solve_is_lapack_bit_for_bit(systems):
    # one area of weight 1, covariate 1 and z = rhs: the moment system is
    # a x = rhs, whose right side is a sum that turns -0.0 into +0.0
    a, rhs = (np.array(column) for column in zip(*systems))
    n = len(a)
    batch = _arrays.AreaArrays(
        z=rhs[:, None],
        w=np.ones((n, 1, 1)),
        psi=np.zeros((n, 1)),
        sigma=np.zeros((n, 1, 1, 1)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # dividing must not warn on overflow
        beta, errors = _arrays._solve(batch, a[:, None, None, None], np.ones((n, 1)))
    s = np.linalg.svd(a[:, None, None], compute_uv=False)[:, 0]
    singular = s == 0.0  # the condition number of a 1x1 system is 1 otherwise
    assert sorted(errors) == np.flatnonzero(singular).tolist()
    for exc in errors.values():
        assert str(exc).endswith("(smallest singular value 0.000e+00)")
    ok = ~singular
    expected = np.linalg.solve(a[ok, None, None], rhs[ok, None, None] + 0.0)[:, :, 0]
    assert beta.shape == (n, 1)
    assert beta[ok].tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(4, 14),
    p=st.integers(1, 3),
    b=st.integers(2, 6),
    warm=st.booleans(),
)
def test_broadcast_psi_and_sigma_fit_as_copies_and_alone(seed, m, p, b, warm):
    # a bootstrap batch shares psi and sigma as broadcast views, which
    # `select_rows` copies as its rows leave
    gen = np.random.default_rng(seed)
    m = max(m, p + 2)
    psi, sigma = shared_areas(gen, m, p)
    z, w = draw(gen, (m,), p)
    beta = gen.normal(1.0, 0.5, size=p)
    starred = mspe._draw_starred(
        _arrays.AreaArrays(z, w, psi, sigma),
        mspe._psd_factors(sigma),
        beta,
        0.5,
        seed,
        range(b),
    )
    assert starred.psi.strides[0] == 0 and starred.sigma.strides[0] == 0
    beta_init = beta if warm else None
    fit = _arrays.fit_batch(starred, CONFIG, beta_init)
    assume(len(set(fit.iterations.tolist())) > 1)  # rows leave at different steps
    fields = ("beta", "sigma2", *COUNTS)
    batch = _arrays.AreaArrays(starred.z, starred.w, copies(psi, b), copies(sigma, b))
    copied = _arrays.fit_batch(batch, CONFIG, beta_init)
    assert set(copied.errors) == set(fit.errors)
    for name in fields:
        assert getattr(copied, name).tobytes() == getattr(fit, name).tobytes()
    for k in range(b):
        alone = _arrays.batch_of_one(replicate(starred, k))
        single = _arrays.fit_batch(alone, CONFIG, beta_init)
        if k in fit.errors:
            assert str(single.errors[0]) == str(fit.errors[k])
            continue
        assert not single.errors
        for name in fields:
            assert getattr(single, name)[0].tobytes() == getattr(fit, name)[k].tobytes()


def _system(gen, kind, p):
    # a p x p moment matrix of the given kind, scaled and with its rows
    # and columns permuted; + 0.0 keeps -0.0 out of the bits compared
    if kind == "regular":
        a = gen.normal(0.0, 1.0, size=(p, p)) + 3.0 * np.eye(p)
    elif kind == "singular":
        a = gen.normal(0.0, 1.0, size=(p, p))
        a[:, gen.integers(p)] = 0.0  # smallest singular value 0
    else:  # "over": condition number 1e17, past the limit
        a = np.diag(np.r_[np.ones(p - 1), 1e-17])
    order = gen.permutation(p)
    return 10.0 ** gen.uniform(-3.0, 3.0) * a[order][:, order] + 0.0


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(["regular", "singular", "over"]), min_size=1, max_size=8),
)
def test_one_singularity_rule_for_every_p(seed, p, kinds):
    # one area of weight 1, covariate rhs and z = 1: the moment system is
    # a x = rhs.  A row is singular when its smallest singular value is 0
    # or its condition number passes _COND_LIMIT; a 1x1 system's one
    # singular value is |a|, so only a == 0 is singular at p = 1
    gen = np.random.default_rng(seed)
    n = len(kinds)
    a = np.stack([_system(gen, kind, p) for kind in kinds])
    rhs = gen.normal(0.0, 1.0, size=(n, p)) + 0.0
    batch = _arrays.AreaArrays(
        z=np.ones((n, 1)),
        w=rhs[:, None, :],
        psi=np.zeros((n, 1)),
        sigma=np.zeros((n, 1, p, p)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta, errors = _arrays._solve(batch, a[:, None], np.ones((n, 1)))
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (s[:, -1] == 0.0) | (s[:, 0] / s[:, -1] > _arrays._COND_LIMIT)
    assert sorted(errors) == np.flatnonzero(singular).tolist()
    for b, exc in errors.items():
        assert isinstance(exc, SingularMomentMatrix) and exc.index is None
        assert str(exc) == (
            "weighted moment matrix is numerically singular "
            f"(smallest singular value {s[b, -1]:.3e})"
        )
    ok = ~singular
    expected = np.linalg.solve(a[ok], rhs[ok, :, None])[:, :, 0]
    assert beta.shape == (n, p)
    assert beta[ok].tobytes() == expected.tobytes()


def test_rows_at_the_cap_leave_as_rows_that_converge_or_fail():
    gen = np.random.default_rng(20261022)
    b, m, p = 8, 10, 2
    psi, sigma = shared_areas(gen, m, p)
    z, w = draw(gen, (b, m), p)
    batch = _arrays.AreaArrays(z, w, copies(psi, b), copies(sigma, b))
    batch.w[5], batch.sigma[5] = 0.0, 0.0  # fails at its cold start
    natural = _arrays.fit_batch(batch, CONFIG).iterations
    cap = int(np.median(np.delete(natural, 5)))
    capped = np.flatnonzero(natural > cap)  # row 5 stopped at iteration 0
    assert 0 < len(capped) < b - 1  # some rows stop at the cap, some converge
    config = dataclasses.replace(CONFIG, max_iterations=cap)
    fit = _arrays.fit_batch(batch, config)
    assert set(fit.errors) == {5}
    expected = np.ones(b, dtype=bool)
    expected[[*capped, 5]] = False
    assert fit.converged.tolist() == expected.tolist()
    assert (fit.iterations[capped] == cap).all()
    for k in range(b):
        single = _arrays.fit_batch(_arrays.batch_of_one(replicate(batch, k)), config)
        if k == 5:
            assert str(single.errors[0]) == str(fit.errors[5])
            continue
        assert not single.errors
        for name in ("beta", "sigma2", *COUNTS):
            assert getattr(single, name)[0].tobytes() == getattr(fit, name)[k].tobytes()
