"""The benchmark workloads: what each runs, on which inputs, and why."""

from __future__ import annotations

from dataclasses import dataclass

import checks
import inputs

SIM_R = 10
BOOT_B = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # predict | bootstrap | jackknife | simulate
    m: int  # areas per dataset
    work: int  # units of work per invocation
    work_unit: str
    workers: int  # worker count of the timed invocations
    min_samples: int  # timed invocations per run, at least
    setups: int  # set-ups per run, each followed by a share of the timed invocations

    @property
    def has_input(self) -> bool:
        return self.kind != "simulate"

    def make_inputs(self, seed: int):
        """The dataset drawn from ``seed`` (``None`` without input)."""
        if not self.has_input:
            return None
        return inputs.make_dataset(seed, 0, self.m, 2)

    def argv(self, dataset_path, out_dir, seed: int, workers: int) -> list[str]:
        """Arguments to ``python -m logsae`` for one invocation."""
        out = ["--out", str(out_dir)]
        if self.kind == "predict":
            return ["predict", str(dataset_path), *out]
        if self.kind == "bootstrap":
            return [
                "mspe", str(dataset_path), "--method", "bootstrap",
                "--b", str(BOOT_B), "--seed", str(seed),
                "--workers", str(workers), *out,
            ]
        if self.kind == "jackknife":
            return [
                "mspe", str(dataset_path), "--method", "jackknife",
                "--workers", str(workers), *out,
            ]
        return [
            "simulate", "--study", "mspe", "--m", str(self.m), "--k", "50",
            "--r", str(SIM_R), "--b", "200", "--seed", str(seed),
            "--workers", str(workers), *out,
        ]

    def check(self, out_dir, data, input_sha256: str | None) -> None:
        """Output invariants; raises `checks.CheckFailed`."""
        if self.kind == "simulate":
            checks.check_simulate(out_dir, m=self.m, r=SIM_R)
            return
        checks.check_manifest(out_dir, input_sha256)
        if self.kind == "predict":
            checks.check_predict(out_dir, data)
        elif self.kind == "bootstrap":
            checks.check_bootstrap(out_dir, data, b=BOOT_B)
        else:
            checks.check_jackknife(out_dir, data)

    def oracle_check(self, out_dir, data, seed: int) -> None:
        """Agreement with the independent oracles, where affordable."""
        if self.kind == "predict":
            checks.oracle_predict(out_dir, data)
        elif self.kind == "bootstrap":
            checks.oracle_bootstrap(out_dir, data, b=BOOT_B, seed=seed)


# predict-20k and simulate-mspe are in BENCHMARK.json; the others are run by
# hand, because their runs take too long or read too unsteadily on a small
# shared machine to fit the benchmark's time budget (see README.md).
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="predict-20k",
            why=(
                "predict on 20k areas, p=2, half with nonzero Sigma: CSV load "
                "and the scalar model loop dominate; one fit_core call at large m"
            ),
            kind="predict",
            m=20_000,
            work=20_000,
            work_unit="areas",
            workers=1,
            min_samples=3,
            setups=2,
        ),
        Workload(
            name="predict-100k",
            why=(
                "predict on 100k areas, p=2, half with nonzero Sigma: CSV load "
                "and the scalar model loop dominate; one large fit_core call"
            ),
            kind="predict",
            m=100_000,
            work=100_000,
            work_unit="areas",
            workers=1,
            min_samples=3,
            setups=2,
        ),
        Workload(
            name="bootstrap-m50",
            why=(
                "bootstrap MSPE, B=1000 on 50 areas, 1 worker: 1000 small refits "
                "bound by call overhead, plus the keyed RNG"
            ),
            kind="bootstrap",
            m=50,
            work=BOOT_B,
            work_unit="replicates",
            workers=1,
            min_samples=8,
            setups=3,
        ),
        Workload(
            name="jackknife-m2000",
            why=(
                "jackknife MSPE on 2000 areas, 1 worker: warm-started refits at "
                "medium m plus m^2 prediction work and m dropped-area copies"
            ),
            kind="jackknife",
            m=2000,
            work=2000,
            work_unit="refits",
            workers=1,
            min_samples=4,
            setups=3,
        ),
        Workload(
            name="simulate-mspe",
            why=(
                "MSPE study, m=20 R=10 B=200 on a 2-worker pool: no CSV; simulation, "
                "derived seeds, small-m jackknife and bootstrap refits and the process pool"
            ),
            kind="simulate",
            m=20,
            work=SIM_R,
            work_unit="replicates",
            workers=2,
            min_samples=3,
            setups=2,
        ),
    )
}
