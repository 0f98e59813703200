"""The functions the benchmark traces still exist with the shape it reads.

perfbench's traced runs wrap the functions listed in
``perfbench/layers.py`` and read counters from their arguments and
results; a function that was renamed, deleted or reshaped is reported as
an ``absent`` metric, and such a run is not comparable with its parent.
This guard runs one small command through each traced workload path,
and both resamplers, so that the breakage shows up in the test suite
instead.
"""

from pathlib import Path

from conftest import make_areas, random_dataset
from logsae.cli import main
from logsae.dataio import save_dataset


def test_traced_layers_are_all_present(tmp_path, monkeypatch, gen):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layers
    import tracer as tracing

    data = tmp_path / "areas.csv"
    save_dataset(make_areas(*random_dataset(gen, m=12, p=1, with_sigma=True)), data)
    tracer = tracing.Tracer()
    tracer.install(layers.LAYERS)
    try:
        assert main(["predict", str(data), "--out", str(tmp_path / "predict")]) == 0
        for method in (["jackknife"], ["bootstrap", "--b", "8"]):
            out = tmp_path / method[0]
            assert main(["mspe", str(data), "--method", *method, "--out", str(out)]) == 0
        simulate = ["simulate", "--study", "mspe", "--m", "6", "--k", "50"]
        simulate += ["--r", "2", "--b", "4", "--workers", "1"]
        assert main([*simulate, "--out", str(tmp_path / "simulate")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert tracer.counters["mspe.bootstrap.replicates_used"] == 8 + 2 * 4
