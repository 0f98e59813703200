"""Tests of the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
They import no part of the package under test.
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
from layers import PER_LAYER, per_layer_metrics
from tracer import TASK, Layer, Tracer, layer_totals
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ------------------------------------------------------------------ inputs


def test_same_seed_gives_identical_inputs(tmp_path):
    wl = WORKLOADS["bootstrap-m50"]
    a = inputs.write_csv(wl.make_inputs(7), tmp_path / "a.csv")
    b = inputs.write_csv(wl.make_inputs(7), tmp_path / "b.csv")
    assert a == b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_different_seeds_give_different_inputs(tmp_path):
    wl = WORKLOADS["bootstrap-m50"]
    digests = {
        inputs.write_csv(wl.make_inputs(seed), tmp_path / f"{seed}.csv") for seed in range(6)
    }
    assert len(digests) == 6


def test_written_values_round_trip_exactly(tmp_path):
    data = inputs.make_dataset(3, 0, 40, 2)
    inputs.write_csv(data, tmp_path / "d.csv")
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0].split(",") == inputs.header(2)
    assert len(lines) == 41
    cells = lines[1].split(",")
    assert cells[0] == "area_1"
    assert float(cells[1]) == data.z[0]
    assert float(cells[4]) == data.psi[0]
    assert np.array_equal(data.sigma, np.swapaxes(data.sigma, 1, 2))
    assert np.count_nonzero(data.sigma.any(axis=(1, 2))) == 20


# ------------------------------------------------------------------ names


def test_metric_and_workload_names_are_valid():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_benchmark_file_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()
    }
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"
    )


# ------------------------------------------------------------- statistic


def test_fastest_takes_the_lowest_successful_value():
    def inv(wall, rc=0):
        return run.Invocation(argv=[], rc=rc, wall_s=wall, cpu_s=2 * wall, rss_mb=1.0)

    samples = [inv(2.0), inv(5.0), inv(1.5), inv(0.1, rc=1)]
    # the failed invocation does not count
    assert run.fastest(samples, "wall_s") == 1.5
    assert run.fastest(samples, "cpu_s") == 3.0


# ------------------------------------------------------------- self time


def test_self_time_on_a_synthetic_span_tree():
    #   main [0, 10]
    #     load [1, 4]
    #     map [5, 9]            tasks credited to main
    #       task [5, 7]
    #         fit [5.5, 6.5]
    #       task [7, 9]
    names = ["main", "load", "map", TASK, "fit"]
    name_id = [0, 1, 2, 3, 4, 3]
    owner = [0, 1, 2, 0, 4, 0]
    parent = [-1, 0, 0, 2, 3, 2]
    start = [0.0, 1.0, 5.0, 5.0, 5.5, 7.0]
    end = [10.0, 4.0, 9.0, 7.0, 6.5, 9.0]
    totals = layer_totals(names, name_id, owner, parent, start, end)
    assert totals["calls"] == {"main": 1, "load": 1, "map": 1, TASK: 2, "fit": 1}
    assert totals["total_s"]["map"] == pytest.approx(4.0)
    assert totals["self_s"] == pytest.approx(
        # main: 10 - 3 - 4 = 3, plus the tasks' own 1 + 2
        {"main": 6.0, "load": 3.0, "map": 0.0, TASK: 0.0, "fit": 1.0}
    )
    durations = np.subtract(end, start)
    assert sum(totals["self_s"].values()) == pytest.approx(durations[0])


# ----------------------------------------------------------------- tracer


@pytest.fixture
def fake_package(monkeypatch):
    """A package ``fakepkg`` whose module ``b`` binds ``a.work`` by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner(x):
        return x + 1

    def work(x):
        return a.inner(x) * 2

    def loop(fn, items, n_workers=1):
        return [fn(item) for item in items]

    def caller(items):
        return a.loop(b.work, items)

    a.inner, a.work, a.loop, a.caller = inner, work, loop, caller
    b.work = work
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return a, b


def test_tracer_wraps_every_binding_and_survives_missing_functions(fake_package):
    a, b = fake_package
    tracer = Tracer(package="fakepkg")
    tracer.install(
        [
            Layer("a.work", "fakepkg.a", "work", count=lambda args, r: {"work.x": args["x"]}),
            Layer("a.inner", "fakepkg.a", "inner", count=lambda args, r: {"bad": r[0]}),
            Layer("a.gone", "fakepkg.a", "gone"),
            Layer("c.gone", "fakepkg.c", "anything"),
        ]
    )
    assert b.work(3) == 8
    assert a.work(1) == 4
    tracer.uninstall()
    assert b.work(3) == 8  # restored: no new spans
    assert tracer.absent == {"a.gone", "c.gone", "a.inner:counters"}
    arrays = tracer.arrays()
    totals = layer_totals(tracer.names, **arrays)
    assert totals["calls"]["a.work"] == 2
    assert totals["calls"]["a.inner"] == 2
    assert tracer.counters == {"work.x": 4.0}
    assert list(arrays["parent"]) == [-1, 0, -1, 2]


def test_tracer_credits_in_process_tasks_to_the_caller(fake_package):
    a, _ = fake_package
    tracer = Tracer(package="fakepkg")
    tracer.install(
        [
            Layer("a.caller", "fakepkg.a", "caller"),
            Layer("a.loop", "fakepkg.a", "loop", tasks=True),
        ]
    )
    assert a.caller([1, 2, 3]) == [4, 6, 8]
    tracer.uninstall()
    arrays = tracer.arrays()
    totals = layer_totals(tracer.names, **arrays)
    assert totals["calls"][TASK] == 3
    owners = [tracer.names[i] for i in arrays["owner"]]
    assert owners == ["a.caller", "a.loop", "a.caller", "a.caller", "a.caller"]


def test_tracer_write_round_trips(tmp_path, fake_package):
    a, _ = fake_package
    tracer = Tracer(package="fakepkg")
    tracer.install([Layer("a.work", "fakepkg.a", "work"), Layer("a.gone", "fakepkg.a", "gone")])
    a.work(0)
    tracer.uninstall()
    tracer.write(tmp_path / "spans")
    meta = json.loads((tmp_path / "spans.json").read_text())
    assert meta["absent"] == ["a.gone"]
    with np.load(tmp_path / "spans.npz") as spans:
        assert spans["start"].size == 1


def test_per_layer_metrics_mark_absent_layers():
    names = ["cli.main", "arrays.fit_core"]
    totals = layer_totals(names, [0, 1], [0, 1], [-1, 0], [0.0, 1.0], [4.0, 3.0])
    counters = {"arrays.fit_core.iterations": 5.0, "arrays.fit_core.area_iterations": 100.0}
    extra = {"parallel.busy_cores": 1.0, "cli.import_s": 0.1, "trace.overhead_frac": 0.05}
    metrics = per_layer_metrics(names, totals, counters, {"arrays.drop_area"}, extra)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["arrays.drop_area.calls"] == (0.0, True)
    assert metrics["arrays.drop_area.self_s"] == (0.0, True)
    assert metrics["arrays.fit_core.calls"] == (1.0, False)
    assert metrics["arrays.fit_core.ns_per_area_iter"][0] == pytest.approx(2e9 / 100.0)
    assert metrics["cli.main.self_s"][0] == pytest.approx(2.0)
    assert metrics["mspe.bootstrap.used_frac"] == (0.0, False)
