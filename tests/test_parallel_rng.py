"""Keyed RNG streams, worker-count validation and the replicate map."""

import os
import subprocess
import sys

import numpy as np
import pytest

import logsae
from logsae import rng
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
