"""Keyed RNG streams and their batch form, worker-count validation and the
replicate map."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logsae
from conftest import make_areas, random_dataset
from logsae import rng
from logsae.dataio import save_dataset
from logsae.parallel import ENV_WORKERS, ordered_map, resolve_workers


def _cube(x):
    return x**3


class TestStreams:
    def test_same_key_same_draws(self):
        a = rng.stream(5, rng.GENERATE, 3).standard_normal(8)
        b = rng.stream(5, rng.GENERATE, 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_keys_partition_draws(self):
        base = rng.stream(5, rng.GENERATE, 3).standard_normal(8)
        for other in (
            rng.stream(6, rng.GENERATE, 3),
            rng.stream(5, rng.BOOTSTRAP, 3),
            rng.stream(5, rng.GENERATE, 4),
        ):
            assert not np.array_equal(base, other.standard_normal(8))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            rng.check_seed(-1)
        with pytest.raises(ValueError):
            rng.check_seed(True)
        with pytest.raises(ValueError):
            rng.check_seed(2.0)
        rng.check_seed(0)

    def test_derive_seed_stable_and_distinct(self):
        s0 = rng.derive_seed(9, 0)
        assert s0 == rng.derive_seed(9, 0)
        assert isinstance(s0, int) and s0 >= 0
        assert s0 != rng.derive_seed(9, 1)
        assert s0 != rng.derive_seed(10, 0)


# SeedSequence((seed, BOOTSTRAP, replicate)).generate_state(2, np.uint64),
# the Philox key of that stream, as numpy computes it
PINNED_KEYS = {
    (0, 0): [17195319236771816063, 15805119554588263345],
    (2**32, 2**32): [18147978141094112004, 14748949877560422430],
}


class TestStandardNormals:
    @pytest.mark.parametrize("seed, replicate", sorted(PINNED_KEYS))
    def test_seed_sequence_is_the_one_copied(self, seed, replicate):
        state = rng.stream(seed, rng.BOOTSTRAP, replicate).bit_generator.state
        assert state["state"]["key"].tolist() == PINNED_KEYS[seed, replicate], (
            "numpy's SeedSequence changed: every keyed stream, and the copy of "
            "its mixing in rng.standard_normals, must be revisited"
        )

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        purpose=st.sampled_from([rng.GENERATE, rng.BOOTSTRAP, rng.DERIVE]),
        replicates=st.lists(st.integers(0, 2**40 - 1), max_size=12),
        m=st.integers(1, 30),
        p=st.integers(1, 3),
    )
    @example(seed=0, purpose=rng.BOOTSTRAP, replicates=[2**32 - 1, 2**32], m=4, p=1)
    @example(seed=2**32, purpose=rng.BOOTSTRAP, replicates=[2**32, 2**32 - 1], m=4, p=1)
    @example(seed=0, purpose=rng.GENERATE, replicates=[], m=1, p=1)
    def test_equal_to_stacked_streams(self, seed, purpose, replicates, m, p):
        shape = (m, p + 2)
        got = rng.standard_normals(seed, purpose, replicates, shape)
        want = np.empty((0, *shape))
        if replicates:
            streams = [rng.stream(seed, purpose, r) for r in replicates]
            want = np.stack([gen.standard_normal(shape) for gen in streams])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (
            "rng.standard_normals no longer matches rng.stream: has numpy's "
            "SeedSequence or Philox changed?"
        )

    @pytest.mark.parametrize("bad", [[-1], [2**64], [1.5], ["3"]])
    def test_replicates_outside_the_key_range_rejected(self, bad):
        with pytest.raises(ValueError, match="replicates"):
            rng.standard_normals(1, rng.BOOTSTRAP, bad, (2, 3))


class TestWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback_then_default(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv(ENV_WORKERS)
        assert resolve_workers(None) == 1

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv(ENV_WORKERS, "many")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_ordered_map_preserves_order(self):
        items = list(range(23))
        assert ordered_map(_cube, items) == [i**3 for i in items]


def test_cli_import_loads_no_process_pool():
    # everything runs in one process; importing a pool's modules would
    # only add to every run's start-up time and peak memory
    src = os.path.dirname(os.path.dirname(logsae.__file__))
    code = (
        "import sys, logsae.cli; "
        "print(' '.join(m for m in ('concurrent.futures.process', "
        "'multiprocessing') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


def _loaded(code, *args):
    # the modules of ('logsae.simulation', 'logsae.mspe', 'logsae.rng',
    # 'logging') that a fresh interpreter holds after running ``code``
    src = os.path.dirname(os.path.dirname(logsae.__file__))
    code += (
        "; print(' '.join(m for m in ('logsae.simulation', 'logsae.mspe', "
        "'logsae.rng', 'logging') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    # `fit` and `predict` run no resampler or study, so loading them would
    # only add to every run's start-up time and peak memory
    assert _loaded("import sys, logsae.cli") == []
    gen = np.random.default_rng(5)
    z, w, psi, sigma = random_dataset(gen, m=8, p=1, with_sigma=False)
    save_dataset(make_areas(z, w, psi, sigma), tmp_path / "areas.csv")
    run_mspe = (
        "import sys; from logsae.cli import main; "
        "assert main(['mspe', sys.argv[1], '--method', 'jackknife', "
        "'--out', sys.argv[2]]) == 0"
    )
    loaded = _loaded(run_mspe, str(tmp_path / "areas.csv"), str(tmp_path / "out"))
    assert "logsae.mspe" in loaded and "logsae.simulation" not in loaded
