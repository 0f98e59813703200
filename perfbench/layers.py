"""The traced layers, the per-layer metrics derived from them, and the
end-to-end metric each layer metric should move.

Span names follow the package's module names, with the leading
underscore of ``_arrays`` dropped so that every metric name starts with
a letter.
"""

from __future__ import annotations

from tracer import Layer

MODEL_SCALAR = (
    "model.posterior_moments",
    "model.eb_predict",
    "model.m1_term",
    "model.shrinkage_gamma",
)


def _fit_counts(args, result):
    return {"estimation.fit.iterations": result.iterations_used}


def _fit_core_counts(args, result):
    iterations = int(result[2])
    return {
        "arrays.fit_core.iterations": iterations,
        "arrays.fit_core.nonconverged": 0 if result[3] else 1,
        "arrays.fit_core.area_iterations": args["arr"].m * iterations,
    }


def _bootstrap_counts(args, result):
    return {
        "mspe.bootstrap.replicates_used": int(result[2]),
        "mspe.bootstrap.replicates_requested": int(args["b"]),
    }


def _jackknife_counts(args, result):
    return {"mspe.jackknife.loo_nonconverged": int(result[2])}


def _study_counts(args, result):
    return {
        "simulation.replicates_completed": result.r_completed,
        "simulation.replicates_failed": result.r_failed,
    }


LAYERS = (
    Layer("cli.main", "logsae.cli", "main"),
    Layer("dataio.load_dataset", "logsae.dataio", "load_dataset"),
    Layer("dataio.write_csv", "logsae.dataio", "write_csv"),
    Layer("dataio.write_json", "logsae.dataio", "write_json"),
    *(Layer(name, "logsae.model", name.split(".")[1]) for name in MODEL_SCALAR),
    Layer("estimation.fit", "logsae.estimation", "fit", _fit_counts),
    Layer("arrays.stack", "logsae._arrays", "stack"),
    Layer("arrays.fit_core", "logsae._arrays", "fit_core", _fit_core_counts),
    Layer("arrays.weighted_solve", "logsae._arrays", "weighted_solve"),
    Layer("arrays.predictions_and_m1", "logsae._arrays", "predictions_and_m1"),
    Layer("arrays.drop_area", "logsae._arrays", "drop_area"),
    Layer("mspe.bootstrap_core", "logsae.mspe", "bootstrap_core", _bootstrap_counts),
    Layer("mspe.jackknife_core", "logsae.mspe", "jackknife_core", _jackknife_counts),
    Layer("rng.stream", "logsae.rng", "stream"),
    Layer("rng.derive_seed", "logsae.rng", "derive_seed"),
    Layer("parallel.ordered_map", "logsae.parallel", "ordered_map", tasks=True),
    Layer(
        "simulation.run_mspe_study", "logsae.simulation", "run_mspe_study", _study_counts
    ),
)

# Per-layer metrics: name -> (unit, better, layers it is read from).  A
# metric is absent when every layer it reads is absent.
PER_LAYER = {
    "dataio.load_dataset.self_s": ("s", "lower", ("dataio.load_dataset",)),
    "dataio.write_csv.self_s": ("s", "lower", ("dataio.write_csv",)),
    "dataio.write_json.self_s": ("s", "lower", ("dataio.write_json",)),
    "model.scalar_calls": ("count", "lower", MODEL_SCALAR),
    "model.self_s": ("s", "lower", MODEL_SCALAR),
    "estimation.fit.self_s": ("s", "lower", ("estimation.fit",)),
    "estimation.fit.iterations": ("count", "lower", ("estimation.fit",)),
    "arrays.stack.self_s": ("s", "lower", ("arrays.stack",)),
    "arrays.fit_core.calls": ("count", "lower", ("arrays.fit_core",)),
    "arrays.fit_core.self_s": ("s", "lower", ("arrays.fit_core",)),
    "arrays.fit_core.iterations": ("count", "lower", ("arrays.fit_core",)),
    "arrays.fit_core.nonconverged": ("count", "lower", ("arrays.fit_core",)),
    "arrays.fit_core.ns_per_area_iter": ("ns", "lower", ("arrays.fit_core",)),
    "arrays.weighted_solve.calls": ("count", "lower", ("arrays.weighted_solve",)),
    "arrays.weighted_solve.self_s": ("s", "lower", ("arrays.weighted_solve",)),
    "arrays.predictions_and_m1.calls": ("count", "lower", ("arrays.predictions_and_m1",)),
    "arrays.predictions_and_m1.self_s": ("s", "lower", ("arrays.predictions_and_m1",)),
    "arrays.drop_area.calls": ("count", "lower", ("arrays.drop_area",)),
    "arrays.drop_area.self_s": ("s", "lower", ("arrays.drop_area",)),
    "mspe.bootstrap_core.self_s": ("s", "lower", ("mspe.bootstrap_core",)),
    "mspe.bootstrap.replicates_used": ("count", "higher", ("mspe.bootstrap_core",)),
    "mspe.bootstrap.replicates_dropped": ("count", "lower", ("mspe.bootstrap_core",)),
    "mspe.bootstrap.used_frac": ("ratio", "higher", ("mspe.bootstrap_core",)),
    "mspe.jackknife_core.self_s": ("s", "lower", ("mspe.jackknife_core",)),
    "mspe.jackknife.loo_nonconverged": ("count", "lower", ("mspe.jackknife_core",)),
    "rng.stream.calls": ("count", "lower", ("rng.stream",)),
    "rng.stream.self_s": ("s", "lower", ("rng.stream",)),
    "rng.derive_seed.calls": ("count", "lower", ("rng.derive_seed",)),
    "parallel.ordered_map.calls": ("count", "lower", ("parallel.ordered_map",)),
    "parallel.ordered_map.self_s": ("s", "lower", ("parallel.ordered_map",)),
    "parallel.busy_cores": ("cores", "higher", ()),
    "simulation.run_mspe_study.self_s": ("s", "lower", ("simulation.run_mspe_study",)),
    "simulation.replicates_completed": ("count", "higher", ("simulation.run_mspe_study",)),
    "simulation.replicates_failed": ("count", "lower", ("simulation.run_mspe_study",)),
    "cli.import_s": ("s", "lower", ()),
    "cli.main.self_s": ("s", "lower", ("cli.main",)),
    "trace.overhead_frac": ("ratio", "lower", ()),
}

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  Metrics not listed under a workload should read ~0 there.
# bootstrap-m50, jackknife-m2000 and predict-100k, run by hand, follow
# their counterparts: predict-100k as predict-20k, the resamplers as
# simulate-mspe.
AFFECTS = {
    "dataio.*": "wall_s on predict-20k; ~0 on simulate-mspe",
    "model.*": "wall_s on predict-20k; 0 elsewhere",
    "estimation.fit.*": "wall_s on predict-20k; stays small",
    "arrays.stack.self_s": "wall_s and peak_rss_mb on predict-20k",
    "arrays.fit_core.*": (
        "wall_s on simulate-mspe, bootstrap-m50 and jackknife-m2000; "
        "barely moves predict-20k"
    ),
    "arrays.weighted_solve.*": "wall_s on simulate-mspe and bootstrap-m50",
    "arrays.predictions_and_m1.*": "wall_s on simulate-mspe and jackknife-m2000",
    "arrays.drop_area.*": "wall_s on simulate-mspe; wall_s and peak_rss_mb on jackknife-m2000",
    "mspe.bootstrap*": "wall_s on simulate-mspe and bootstrap-m50",
    "mspe.jackknife*": "wall_s on simulate-mspe and jackknife-m2000",
    "rng.*": "wall_s on simulate-mspe and bootstrap-m50",
    "parallel.*": "wall_s and cpu_s on simulate-mspe; busy_cores ~1 elsewhere",
    "simulation.*": "wall_s on simulate-mspe",
    "cli.*": "wall_s on simulate-mspe and bootstrap-m50, where import is a large share, and on predict-20k",
    "trace.overhead_frac": "none: the cost of tracing, per workload",
}


def per_layer_metrics(names, totals, counters, absent, extra) -> dict:
    """Per-layer metric values from one traced invocation.

    ``totals`` is `tracer.layer_totals` output, ``counters`` and
    ``absent`` come from the tracer, and ``extra`` holds the metrics
    measured outside the traced process (busy cores, import time, tracing
    overhead).  Returns ``name -> (value, absent)``.
    """
    calls, self_s = totals["calls"], totals["self_s"]

    def is_absent(layers) -> bool:
        return bool(layers) and all(layer in absent for layer in layers)

    def counter(key, layer) -> float | None:
        if f"{layer}:counters" in absent:
            return None
        return counters.get(key, 0.0)

    def ratio(num, den) -> float | None:
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    fit_core_self = self_s.get("arrays.fit_core", 0.0)
    area_iters = counter("arrays.fit_core.area_iterations", "arrays.fit_core")
    used = counter("mspe.bootstrap.replicates_used", "mspe.bootstrap_core")
    requested = counter("mspe.bootstrap.replicates_requested", "mspe.bootstrap_core")
    derived = {
        "model.scalar_calls": sum(calls.get(n, 0) for n in MODEL_SCALAR),
        "model.self_s": sum(self_s.get(n, 0.0) for n in MODEL_SCALAR),
        "estimation.fit.iterations": counter("estimation.fit.iterations", "estimation.fit"),
        "arrays.fit_core.iterations": counter("arrays.fit_core.iterations", "arrays.fit_core"),
        "arrays.fit_core.nonconverged": counter(
            "arrays.fit_core.nonconverged", "arrays.fit_core"
        ),
        "arrays.fit_core.ns_per_area_iter": ratio(
            None if area_iters is None else 1e9 * fit_core_self, area_iters
        ),
        "mspe.bootstrap.replicates_used": used,
        "mspe.bootstrap.replicates_dropped": (
            None if used is None else requested - used
        ),
        "mspe.bootstrap.used_frac": ratio(used, requested),
        "mspe.jackknife.loo_nonconverged": counter(
            "mspe.jackknife.loo_nonconverged", "mspe.jackknife_core"
        ),
        "simulation.replicates_completed": counter(
            "simulation.replicates_completed", "simulation.run_mspe_study"
        ),
        "simulation.replicates_failed": counter(
            "simulation.replicates_failed", "simulation.run_mspe_study"
        ),
    }
    out = {}
    for metric, (_, _, layers) in PER_LAYER.items():
        if metric in extra:
            value = extra[metric]
        elif metric in derived:
            value = derived[metric]
        else:
            layer, _, kind = metric.rpartition(".")
            value = calls.get(layer, 0) if kind == "calls" else self_s.get(layer, 0.0)
        missing = is_absent(layers) or value is None
        out[metric] = (0.0 if missing else float(value), missing)
    return out
