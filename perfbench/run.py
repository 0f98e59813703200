"""End-to-end and per-layer benchmark of the logsae CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the CLI is a child process, ``python -m logsae`` with
``src`` on ``PYTHONPATH``.  A run sets up its workload several times
(the input generated from the seed, then one untimed warm-up
invocation), times invocations for ``--seconds`` and at least the
workload's minimum count, spread between the set-ups, and checks the
outputs: invariants, byte-identity across the run's
invocations, and agreement with ``tests/oracles.py`` where affordable.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run also invokes the CLI
in-process under the layer tracer at one worker, and reports the
per-layer metrics instead.  The exit code is 0 only when every check
passed; a checkout without the package exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import tracer
from layers import PER_LAYER, per_layer_metrics
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
RECORD_DIR = ROOT / ".perfbench_out"
REQUIRED = ("src/logsae/__init__.py", "src/logsae/cli.py", "tests/oracles.py")

IMPORT_SAMPLES = 3
TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "work/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLEARED_ENV = ("LOGSAE_WORKERS",)

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import logsae.cli; "
    "print(repr(time.perf_counter() - t))"
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **PINNED_ENV,
        **{name: "(cleared)" for name in CLEARED_ENV},
    }


@dataclass
class Invocation:
    argv: list
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    digest: dict = field(default_factory=dict)
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.error


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(argv, out_dir: Path, log: Path, env: dict) -> Invocation:
    """Run one command to completion; time it and read its rusage.

    The command runs in its own process group, which is killed after
    ``TIMEOUT_S`` and again on exit, so no pool worker outlives it.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=fh, stderr=fh, start_new_session=True,
        )
        timer = threading.Timer(TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    inv = Invocation(
        argv=list(argv),
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    if inv.rc != 0:
        inv.error = f"exit {inv.rc}: " + log.read_text(errors="replace")[-500:]
    elif out_dir.is_dir():
        inv.digest = checks.digest(out_dir)
    return inv


def fastest(samples, attr: str) -> float:
    """Lowest value of ``attr`` over the successful invocations.

    Other tenants of the machine only ever slow an invocation down, in
    phases from seconds to minutes long, so the fastest invocation of a
    run is the steadiest estimate of what the command costs.
    """
    return min(getattr(s, attr) for s in successful(samples))


def successful(samples):
    """The successful invocations, or all of them if none succeeded."""
    return [s for s in samples if s.ok] or samples


class Run:
    """One benchmark run of one workload and seed.

    The run's dataset is drawn from the seed.  The first successful output
    is the reference, which every later invocation must match byte for
    byte.
    """

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.dir = WORK_DIR / f"{wl.name}-{seed}-{os.getpid()}"
        self.csv = self.dir / "areas.csv"
        self.out = self.dir / "out"
        self.env = child_env()
        self.invocations: list[Invocation] = []
        self.reference: dict | None = None
        self.errors: list[str] = []
        self.data = None
        self.input_sha256: list[str] = []
        self.layer_totals: dict = {}

    # --------------------------------------------------------- invoking

    def cli(self, workers: int, tag: str, traced_stem: Path | None = None):
        argv = self.wl.argv(self.csv, self.out, self.seed, workers)
        if traced_stem is None:
            prefix = [sys.executable, "-m", "logsae"]
        else:
            prefix = [sys.executable, str(HERE / "traced_cli.py"), str(traced_stem), "--"]
        inv = invoke(prefix + argv, self.out, self.dir / f"{tag}.log", self.env)
        if inv.ok:
            if self.reference is None:
                self.reference = inv.digest
            elif inv.digest != self.reference:
                inv.error = f"outputs differ from the first run's: {inv.digest} != {self.reference}"
        self.invocations.append(inv)
        return inv

    def setup(self) -> float:
        """Generate the input and run one untimed warm-up; return the time.

        The warm-up runs at one worker.  Every set-up must write the same
        input bytes.
        """
        start = time.perf_counter()
        self.data = self.wl.make_inputs(self.seed)
        if self.wl.has_input:
            sha = inputs.write_csv(self.data, self.csv)
            if self.input_sha256 and sha != self.input_sha256[0]:
                self.errors.append(f"input differs between set-ups: {sha} != {self.input_sha256[0]}")
            self.input_sha256.append(sha)
        self.cli(workers=1, tag=f"setup{len(self.input_sha256)}")
        return time.perf_counter() - start

    def timed(self, workers: int, count: int, seconds: float, samples=None) -> list[Invocation]:
        """Add timed invocations to ``samples`` until it holds at least
        ``count`` and their wall times add up to at least ``seconds``."""
        samples = [] if samples is None else samples
        while len(samples) < count or sum(s.wall_s for s in samples) < seconds:
            samples.append(self.cli(workers, tag="run"))
        return samples

    def import_time(self) -> float:
        values = []
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run(
                [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
            if proc.returncode != 0:
                self.errors.append(f"import logsae.cli failed: {proc.stderr[-300:]}")
                return 0.0
            values.append(float(proc.stdout.strip()))
        return statistics.median(values)

    # --------------------------------------------------------- checking

    def check(self) -> None:
        """Invariants and, where affordable, the oracles on the output."""
        if self.reference is None:
            self.errors.append("no invocation succeeded")
            return
        sha = self.input_sha256[0] if self.input_sha256 else None
        try:
            self.wl.check(self.out, self.data, sha)
            self.wl.oracle_check(self.out, self.data, self.seed)
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))

    def failures(self) -> int:
        if self.errors:
            return len(self.invocations)
        return sum(not inv.ok for inv in self.invocations)

    # ------------------------------------------------------------ phases

    def end_to_end(self) -> tuple[dict, list[Invocation]]:
        """Set-ups, each followed by a share of the timed invocations.

        Other tenants slow the machine in phases that outlast several
        invocations, so the timed invocations are spread over the whole
        run; the checks come last, outside the timing.
        """
        n = self.wl.setups
        setup, samples = [], []
        for k in range(1, n + 1):
            setup.append(self.setup())
            count = -(-self.wl.min_samples * k // n)
            self.timed(self.wl.workers, count, self.seconds * k / n, samples)
        self.check()
        wall = fastest(samples, "wall_s")
        metrics = {
            "wall_s": wall,
            "work_per_s": self.wl.work / wall,
            "cpu_s": fastest(samples, "cpu_s"),
            "peak_rss_mb": statistics.median(s.rss_mb for s in successful(samples)),
            "setup_s": statistics.median(setup),
        }
        return {name: (value, False) for name, value in metrics.items()}, samples

    def per_layer(self) -> tuple[dict, list[Invocation]]:
        self.setup()
        own = self.timed(self.wl.workers, 2, 0.0)
        reference = own if self.wl.workers == 1 else self.timed(1, 1, 0.0)
        stem = self.dir / "spans"
        traced = []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < self.seconds:
            inv = self.cli(workers=1, tag="traced", traced_stem=stem)
            traced.append((inv, self.read_spans(stem) if inv.ok else None))
        import_s = self.import_time()
        self.check()
        wall = statistics.median(s.wall_s for s in own)
        ref_wall = statistics.median(s.wall_s for s in reference)
        extra = {
            "parallel.busy_cores": statistics.median(s.cpu_s for s in own) / wall,
            "cli.import_s": import_s,
            "trace.overhead_frac": (
                statistics.median(inv.wall_s for inv, _ in traced) - ref_wall
            ) / ref_wall,
        }
        per_run = [spans for _, spans in traced if spans is not None]
        if not per_run:
            self.errors.append("no traced invocation succeeded")
            return {name: (0.0, True) for name in PER_LAYER}, own
        for suffix in (".npz", ".json"):
            RECORD_DIR.mkdir(exist_ok=True)
            shutil.copyfile(f"{stem}{suffix}", RECORD_DIR / f"{self.wl.name}.spans{suffix}")
        self.layer_totals = per_run[-1][1]
        metrics = [per_layer_metrics(*spans, extra) for spans in per_run]
        return {
            name: (statistics.median(m[name][0] for m in metrics), metrics[0][name][1])
            for name in PER_LAYER
        }, own

    @staticmethod
    def read_spans(stem: Path):
        with open(f"{stem}.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        with np.load(f"{stem}.npz") as spans:
            totals = tracer.layer_totals(
                meta["names"], spans["name_id"], spans["owner"],
                spans["parent"], spans["start"], spans["end"],
            )
        return meta["names"], totals, meta["counters"], set(meta["absent"])


def report(run: Run, metrics: dict, samples, units: dict) -> dict:
    attempted, failed = len(run.invocations), run.failures()
    wl = run.wl
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {run.seed}; work per invocation {wl.work} {wl.work_unit}; "
          f"{len(samples)} timed samples at --workers {wl.workers}")
    walls = sorted(s.wall_s for s in samples)
    print(f"wall time per invocation: min {walls[0]:.4f} s, median "
          f"{statistics.median(walls):.4f} s, max {walls[-1]:.4f} s (n={len(walls)})")
    if run.input_sha256:
        print(f"input areas.csv sha256 {run.input_sha256[0]}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, (value, absent) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}{'  (absent)' if absent else ''}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    for error in run.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    for inv in run.invocations:
        if inv.error:
            print(f"FAILED: {' '.join(inv.argv)}: {inv.error}", file=sys.stderr)
    out = {}
    for name, (value, absent) in metrics.items():
        out[name] = {"value": value, "unit": units[name]}
        if absent:
            out[name]["absent"] = True
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def record(run: Run, result: dict) -> None:
    RECORD_DIR.mkdir(exist_ok=True)
    path = RECORD_DIR / f"{run.wl.name}-seed{run.seed}-trace{int(run.trace)}.json"
    payload = {
        "workload": run.wl.name,
        "seed": run.seed,
        "environment": environment(),
        "input_sha256": run.input_sha256[0] if run.input_sha256 else None,
        "invocations": [
            {"argv": inv.argv[1:], "rc": inv.rc, "wall_s": inv.wall_s,
             "cpu_s": inv.cpu_s, "rss_mb": inv.rss_mb, "error": inv.error}
            for inv in run.invocations
        ],
        "errors": run.errors,
        "layers": run.layer_totals,
        "result": result,
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        if run.trace:
            metrics, samples = run.per_layer()
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
        else:
            metrics, samples = run.end_to_end()
            units = END_TO_END
        result = report(run, metrics, samples, units)
        record(run, result)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
