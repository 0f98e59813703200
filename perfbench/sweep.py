"""Run the benchmark over several seeds and summarise its spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace-seed N]
                               [--out FILE]

For each workload and seed it runs ``perfbench/run.py --trace 0`` for
``run_seconds`` from BENCHMARK.json, and prints, per end-to-end metric,
the median of the runs and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound.  ``--trace-seed`` adds one traced
run per workload and a check of which layers carry the time.  ``--out``
writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import AFFECTS
from run import RECORD_DIR, ROOT, environment
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"seed": seed, "rc": proc.returncode, "elapsed_s": elapsed, "result": result}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def share(totals: dict, names, of: str = "cli.main") -> float:
    return sum(totals["total_s"].get(n, 0.0) for n in names) / totals["total_s"][of]


def sizing(workload: str, totals: dict) -> dict:
    """Which layers carry the time of a traced invocation."""
    ranked = sorted(totals["self_s"].items(), key=lambda kv: -kv[1])
    main = totals["total_s"]["cli.main"]
    out = {"top_self_s": [[name, value, value / main] for name, value in ranked[:6]]}
    if workload.startswith("predict-"):
        out["claim"] = "dataio.load_dataset has the largest self time"
        out["holds"] = ranked[0][0] == "dataio.load_dataset"
    elif workload == "bootstrap-m50":
        out["claim"] = "mspe.bootstrap_core (with the fit_core calls inside it) dominates"
        out["share_of_main"] = share(totals, ["mspe.bootstrap_core"])
        out["fit_core_share_of_main"] = share(totals, ["arrays.fit_core"])
        out["holds"] = out["share_of_main"] > 0.5
    elif workload == "jackknife-m2000":
        out["claim"] = "arrays.predictions_and_m1 plus arrays.fit_core dominate"
        out["share_of_main"] = share(totals, ["arrays.predictions_and_m1", "arrays.fit_core"])
        out["holds"] = out["share_of_main"] > 0.5
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    summary = {
        "environment": environment(),
        "run_seconds": seconds,
        "seeds": parse_seeds(args.seeds),
        "layer_map": AFFECTS,
        "workloads": {},
    }
    for name in names:
        wl = WORKLOADS[name]
        runs = [run_once(name, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        ok = [r for r in runs if r["result"] is not None]
        entry = {
            "why": wl.why,
            "work_per_invocation": f"{wl.work} {wl.work_unit}",
            "workers": wl.workers,
            "runs": [
                {
                    "seed": r["seed"],
                    "correct": r["rc"] == 0,
                    "elapsed_s": r["elapsed_s"],
                    "metrics": {
                        k: v["value"] for k, v in (r["result"] or {}).get("metrics", {}).items()
                    },
                }
                for r in runs
            ],
            "end_to_end": {},
        }
        print(f"{name}: {len(ok)} of {len(runs)} runs reported, "
              f"{sum(r['rc'] != 0 for r in runs)} not correct, "
              f"{statistics.mean(r['elapsed_s'] for r in runs):.1f} s per run")
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in ok]
            if len(values) < 2:
                continue
            stats = {**spread(values), "bound": metric["bound"]}
            entry["end_to_end"][metric["name"]] = stats
            print(f"  {metric['name']:12s} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.4f} bound {metric['bound']} "
                  f"({stats['spread'] / metric['bound']:.2f} of bound)")
        if args.trace_seed is not None:
            traced = run_once(name, args.trace_seed, seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "correct": traced["rc"] == 0}
            if traced["result"] is not None:
                entry["trace"]["per_layer"] = {
                    k: "absent" if v.get("absent") else v["value"]
                    for k, v in traced["result"]["metrics"].items()
                }
            record = RECORD_DIR / f"{name}-seed{args.trace_seed}-trace1.json"
            if record.is_file():
                layers = json.loads(record.read_text())["layers"]
                if layers:
                    entry["trace"]["sizing"] = sizing(name, layers)
                    print(f"  sizing {json.dumps(entry['trace']['sizing'])}")
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
