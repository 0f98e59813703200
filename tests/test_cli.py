"""Command-line behavior: artifacts, exit codes, reruns."""

import contextlib
import csv
import io
import json
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_areas, random_dataset
from logsae import cli, errors
from logsae.cli import main
from logsae.dataio import save_dataset, sha256_file


@pytest.fixture
def dataset(tmp_path, gen):
    z, w, psi, sigma = random_dataset(gen, m=12, p=1, with_sigma=True)
    path = tmp_path / "areas.csv"
    save_dataset(make_areas(z, w, psi, sigma), path)
    return path


def test_fit_writes_params_and_manifest(dataset, tmp_path):
    out = tmp_path / "fit_out"
    assert main(["fit", str(dataset), "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert set(payload) == {
        "beta",
        "sigma2_nu",
        "gammas",
        "area_ids",
        "iterations_used",
        "converged",
        "sigma2_truncated",
    }
    assert len(payload["gammas"]) == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_sha256"] == sha256_file(dataset)
    assert manifest["version"]


def test_predict_reuses_saved_params(dataset, tmp_path):
    fit_out = tmp_path / "f"
    main(["fit", str(dataset), "--out", str(fit_out)])
    internal = tmp_path / "internal"
    reused = tmp_path / "reused"
    assert main(["predict", str(dataset), "--out", str(internal)]) == 0
    assert (
        main(
            [
                "predict",
                str(dataset),
                "--params",
                str(fit_out / "fit.json"),
                "--out",
                str(reused),
            ]
        )
        == 0
    )
    a = (internal / "predictions.csv").read_bytes()
    b = (reused / "predictions.csv").read_bytes()
    assert a == b
    assert a.splitlines()[0] == b"area_id,prediction,m1,gamma"


def test_mspe_bootstrap_rerun_is_byte_identical(dataset, tmp_path):
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        code = main(
            [
                "mspe",
                str(dataset),
                "--method",
                "bootstrap",
                "--b",
                "25",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append((out / "mspe.csv").read_bytes())
    assert outs[0] == outs[1]
    other = tmp_path / "m3"
    main(
        [
            "mspe",
            str(dataset),
            "--method",
            "bootstrap",
            "--b",
            "25",
            "--seed",
            "8",
            "--out",
            str(other),
        ]
    )
    assert (other / "mspe.csv").read_bytes() != outs[0]


@pytest.mark.parametrize(
    "option, message",
    [(["--b", "1"], "b must be >= 2"), (["--seed", "-1"], "seed must be non-negative")],
    ids=["b", "seed"],
)
def test_bad_bootstrap_option_exits_two_before_the_dataset_is_read(
    tmp_path, capsys, option, message
):
    out = tmp_path / "out"
    missing = tmp_path / "missing.csv"
    argv = ["mspe", str(missing), "--method", "bootstrap", *option, "--out", str(out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and err["message"].startswith(message)
    assert not out.exists()


def test_mspe_jackknife_writes_rows(dataset, tmp_path):
    out = tmp_path / "jk"
    assert main(["mspe", str(dataset), "--method", "jackknife", "--out", str(out)]) == 0
    lines = (out / "mspe.csv").read_text().splitlines()
    assert lines[0] == "area_id,m1_j,m2_j,mspe,loo_nonconverged"
    assert len(lines) == 13


def test_simulate_emse_outputs(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--study",
            "emse",
            "--m",
            "8",
            "--k",
            "50",
            "--r",
            "3",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["study"] == "emse"
    assert report["r_completed"] == 3
    assert "wall_clock" not in (out / "report.json").read_text()
    assert (out / "emse_per_area.csv").exists()
    assert (out / "manifest.json").exists()


def test_simulate_rerun_identical_across_workers(tmp_path, monkeypatch):
    blobs = []
    for name, workers in (("w1", "1"), ("w2", "2")):
        out = tmp_path / name
        monkeypatch.setenv("LOGSAE_WORKERS", workers)
        main(
            [
                "simulate",
                "--study",
                "mspe",
                "--m",
                "6",
                "--k",
                "50",
                "--r",
                "3",
                "--b",
                "6",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        blobs.append(
            (
                (out / "report.json").read_bytes(),
                (out / "mspe_per_area.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def _csv_value(text, like):
    # a CSV cell read back as the type of its report.json counterpart
    if isinstance(like, bool):
        return {"true": True, "false": False}[text]
    return type(like)(text)


@pytest.mark.parametrize(
    "study, argv",
    [
        ("emse", "--m 6 --k 50 --r 3"),
        ("mspe", "--m 6 --k 50 --r 2 --b 4"),
        ("zeros", "--m 6 8 --k 0 50 --r 3"),
        ("misspec", "--m 6 --k 0 50 --r 3"),
    ],
)
def test_report_tables_equal_the_csvs(tmp_path, study, argv):
    out = tmp_path / study
    assert main(["simulate", "--study", study, *argv.split(), "--out", str(out)]) == 0
    tables = json.loads((out / "report.json").read_text())["tables"]
    csv_names = sorted(path.name for path in out.glob("*.csv"))
    assert csv_names == sorted(f"{study}_{name}.csv" for name in tables)
    for name, rows in tables.items():
        with open(out / f"{study}_{name}.csv", newline="", encoding="utf-8") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == len(rows) > 0
        for row, csv_row in zip(rows, csv_rows):
            assert csv_row.keys() == row.keys()
            assert {key: _csv_value(csv_row[key], v) for key, v in row.items()} == row


def test_simulate_misspec_zero_row(tmp_path):
    out = tmp_path / "mis"
    code = main(
        [
            "simulate",
            "--study",
            "misspec",
            "--m",
            "8",
            "--k",
            "0",
            "--r",
            "3",
            "--d",
            "2",
            "--d-mis",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tables"]["sensitivity"][0]["mean_abs_diff_x100"] == 0.0


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["mspe", "x.csv", "--method", "sideways"])
    assert exc.value.code == 2


def test_bad_config_value_exits_two(tmp_path, capsys):
    cases = [
        ("k_percent", "--study emse --k 150"),
        ("d", "--study mspe --m 8 --k 0 --d nan --r 2 --b 4"),
        ("d", "--study emse --m 8 --k 50 --d inf --r 3"),
        ("d_mis", "--study misspec --m 8 --k 50 --d-mis nan --r 3"),
        # too few areas to fit, or to refit leaving one out
        ("m", "--study emse --m 1"),
        ("m", "--study mspe --m 2"),
        ("m", "--study zeros --m 20 1 --k 0"),
    ]
    for i, (field, argv) in enumerate(cases):
        out = tmp_path / str(i)
        code = main(["simulate", *argv.split(), "--out", str(out)])
        assert code == 2, argv
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{field} must"), argv
        assert not (out / "report.json").exists(), argv


@pytest.mark.parametrize("seed", [2**64, 2**128 + 1])
@pytest.mark.parametrize(
    "study",
    [
        "emse --m 6 --r 2",
        "mspe --m 6 --r 2 --b 4",
        "zeros --m 6 --k 0 --r 2",
        "misspec --m 6 --k 50 --r 2",
    ],
    ids=lambda study: study.split()[0],
)
def test_simulate_seed_past_64_bits_runs(tmp_path, seed, study):
    # rng keys any non-negative int; only numpy's finiteness test choked on it
    out = tmp_path / "out"
    argv = ["simulate", "--study", *study.split(), "--seed", str(seed)]
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["seed"] == seed
    assert json.loads((out / "manifest.json").read_text())["seed"] == seed


EXIT_CODES = {
    ValueError: 2,
    errors.DataError: 3,
    errors.ParseError: 3,
    errors.NonPositiveValue: 3,
    errors.NonPsdSigma: 3,
    errors.InsufficientAreas: 3,
    OSError: 3,
    FileNotFoundError: 3,
    PermissionError: 3,
    errors.NumericalError: 4,
    errors.DegenerateVariance: 4,
    errors.SingularMomentMatrix: 4,
    errors.PredictionOverflow: 4,
}
COMMANDS = {
    "fit": "fit x.csv",
    "predict": "predict x.csv",
    "mspe": "mspe x.csv --method jackknife",
    "simulate": "simulate --study zeros",
}


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    cls=st.sampled_from(list(EXIT_CODES)),
    message=st.text(max_size=40),
)
def test_exit_code_depends_only_on_the_error_class(command, cls, message):
    def raise_it(args):
        raise cls(message)

    stderr = io.StringIO()
    with mock.patch.object(cli, f"cmd_{command}", raise_it):
        with contextlib.redirect_stderr(stderr):
            code = main(COMMANDS[command].split())
    assert code == EXIT_CODES[cls]
    assert json.loads(stderr.getvalue()) == {"error": cls.__name__, "message": message}


def test_missing_file_exits_three(tmp_path, capsys):
    code = main(["fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err


def test_bad_schema_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("area_id,z,psi\na,1,1\n")
    assert main(["fit", str(bad), "--out", str(tmp_path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_numerical_error_exits_four(tmp_path, capsys):
    degenerate = tmp_path / "flat.csv"
    degenerate.write_text(
        "area_id,z,w_1,psi,sme_diag_1\na,1,0,1,0\nb,2,0,1,0\nc,3,0,1,0\n"
    )
    assert main(["fit", str(degenerate), "--out", str(tmp_path)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "SingularMomentMatrix"


def _predict_with_params(dataset, tmp_path, payload):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(payload))
    code = main(
        ["predict", str(dataset), "--params", str(params), "--out", str(tmp_path)]
    )
    return code, str(params)


def test_params_beta_length_mismatch_exits_three(dataset, tmp_path, capsys):
    code, path = _predict_with_params(
        dataset, tmp_path, {"beta": [1.0, 2.0], "sigma2_nu": 0.5}
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert path in err["message"]
    assert "2 coefficients" in err["message"] and "p=1" in err["message"]


def test_params_negative_sigma2_exits_three(dataset, tmp_path, capsys):
    code, path = _predict_with_params(
        dataset, tmp_path, {"beta": [1.0], "sigma2_nu": -0.5}
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert path in err["message"] and "sigma2_nu" in err["message"]


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"beta": "1", "sigma2_nu": 0.5}, "beta"),  # a string, not a list
        ({"beta": [1.0, "2"], "sigma2_nu": 0.5}, "beta"),
        ({"beta": [True], "sigma2_nu": 0.5}, "beta"),
        ({"beta": {"1": 1.0}, "sigma2_nu": 0.5}, "beta"),
        ({"sigma2_nu": 0.5}, "beta"),
        ({"beta": [1.0], "sigma2_nu": "0.5"}, "sigma2_nu"),
        ({"beta": [1.0], "sigma2_nu": True}, "sigma2_nu"),
        ({"beta": [1.0], "sigma2_nu": [0.5]}, "sigma2_nu"),
        ({"beta": [1.0]}, "sigma2_nu"),
        ({"beta": [10**400], "sigma2_nu": 0.5}, "too large"),
        ([1.0, 0.5], "JSON object"),
    ],
)
def test_params_of_the_wrong_type_exit_three(dataset, tmp_path, capsys, payload, key):
    code, path = _predict_with_params(dataset, tmp_path, payload)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert path in err["message"] and key in err["message"]
    assert not (tmp_path / "predictions.csv").exists()


def test_params_with_integer_values_are_read_as_numbers(dataset, tmp_path):
    code, _ = _predict_with_params(dataset, tmp_path, {"beta": [1], "sigma2_nu": 2})
    assert code == 0
    (tmp_path / "f").mkdir()
    floats, _ = _predict_with_params(
        dataset, tmp_path / "f", {"beta": [1.0], "sigma2_nu": 2.0}
    )
    assert floats == 0
    assert (tmp_path / "predictions.csv").read_bytes() == (
        tmp_path / "f" / "predictions.csv"
    ).read_bytes()


def test_predict_overflow_names_area_and_exits_four(tmp_path, capsys):
    # psi = 0 gives gamma = 1, so area b's prediction exponent is its z
    data = tmp_path / "big.csv"
    data.write_text(
        "area_id,z,w_1,psi,sme_diag_1\na,1,1,1,0\nb,800,1,0,0\nc,2,1,1,0\n"
    )
    code, _ = _predict_with_params(data, tmp_path, {"beta": [0.5], "sigma2_nu": 1.0})
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PredictionOverflow"
    assert err["message"].startswith("b: exponent 800 ")


def test_k_values_with_emse_or_mspe_writes_one_directory_per_k(tmp_path):
    common = ["--m", "6", "--r", "2", "--b", "4", "--seed", "5"]
    for study in ("emse", "mspe"):
        grid = tmp_path / study / "grid"
        args = ["simulate", "--study", study, *common]
        assert main([*args, "--k", "0", "50", "--out", str(grid)]) == 0
        assert (grid / "manifest.json").exists()
        for k in ("0", "50"):
            single = tmp_path / study / f"single{k}"
            assert main([*args, "--k", k, "--out", str(single)]) == 0
            results = sorted(
                f.name for f in single.iterdir() if f.name != "manifest.json"
            )
            assert sorted(f.name for f in (grid / f"k{k}").iterdir()) == results
            for name in results:
                assert (grid / f"k{k}" / name).read_bytes() == (
                    single / name
                ).read_bytes()


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--study", "mspe", "--k", "50", "50"], "k value 50 is repeated"),
        (["--study", "zeros", "--m", "8", "8"], "m value 8 is repeated"),
        (
            ["--study", "emse", "--k", "20", "20.000001"],
            "--k values 20.0 and 20.000001 share directory k20",
        ),
    ],
    ids=["k", "m", "k-directory"],
)
def test_simulate_repeated_grid_value_exits_two(tmp_path, capsys, grid, message):
    out = tmp_path / "rep"
    args = ["simulate", "--m", "6", "--r", "2", "--b", "4", *grid, "--out", str(out)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert message in err["message"]
    assert not list(tmp_path.rglob("report.json"))


@pytest.mark.parametrize("study", ["emse", "mspe", "misspec"])
def test_simulate_several_m_outside_zeros_exits_two(tmp_path, capsys, study):
    out = tmp_path / study
    args = ["simulate", "--study", study, "--m", "8", "12", "--r", "2", "--b", "4"]
    assert main([*args, "--out", str(out)]) == 2
    assert "takes one --m" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_simulate_manifest_records_the_grid_run(tmp_path):
    mspe_out = tmp_path / "mspe"
    args = ["--m", "8", "--k", "20", "50", "--r", "2", "--b", "4"]
    assert main(["simulate", "--study", "mspe", *args, "--out", str(mspe_out)]) == 0
    config = json.loads((mspe_out / "manifest.json").read_text())["config"]
    assert config["k_percent"] == [20.0, 50.0]
    assert config["m"] == [8]
    zeros_out = tmp_path / "zeros"
    args = ["--study", "zeros", "--m", "8", "12", "--k", "0", "--r", "2"]
    assert main(["simulate", *args, "--out", str(zeros_out)]) == 0
    config = json.loads((zeros_out / "manifest.json").read_text())["config"]
    assert config["m"] == [8, 12]
    misspec_out = tmp_path / "misspec"
    args = ["--study", "misspec", "--m", "8", "--k", "50", "--r", "2", "--d-mis", "3"]
    assert main(["simulate", *args, "--out", str(misspec_out)]) == 0
    assert json.loads((misspec_out / "manifest.json").read_text())["config"]["d_mis"] == 3.0


def test_simulate_report_records_the_grid_run(tmp_path):
    zeros_out = tmp_path / "zeros"
    args = ["--study", "zeros", "--m", "8", "12", "--k", "0", "50", "--r", "2"]
    assert main(["simulate", *args, "--out", str(zeros_out)]) == 0
    config = json.loads((zeros_out / "report.json").read_text())["config"]
    assert config["m"] == [8, 12] and config["k_percent"] == [0.0, 50.0]
    misspec_out = tmp_path / "misspec"
    args = ["--study", "misspec", "--m", "8", "--k", "0", "50", "100", "--r", "2"]
    assert main(["simulate", *args, "--out", str(misspec_out)]) == 0
    config = json.loads((misspec_out / "report.json").read_text())["config"]
    assert config["m"] == [8] and config["k_percent"] == [0.0, 50.0, 100.0]
    mspe_out = tmp_path / "mspe"
    args = ["--study", "mspe", "--m", "8", "--k", "20", "--r", "2", "--b", "4"]
    assert main(["simulate", *args, "--out", str(mspe_out)]) == 0
    config = json.loads((mspe_out / "report.json").read_text())["config"]
    assert config["m"] == 8 and config["k_percent"] == 20.0


def test_simulate_misspec_draws_the_data_with_d(tmp_path):
    tables = []
    for d in ("2", "3"):
        out = tmp_path / f"d{d}"
        args = ["--study", "misspec", "--m", "8", "--k", "50", "--r", "3", "--d", d]
        assert main(["simulate", *args, "--out", str(out)]) == 0
        tables.append((out / "misspec_sensitivity.csv").read_bytes())
        assert json.loads((out / "report.json").read_text())["summary"]["d_true"] == float(d)
    assert tables[0] != tables[1]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text("area_id,z,w_1,psi,sme_diag_1\n" + text)
    return path


def test_degenerate_variance_names_area_and_exits_four(tmp_path, capsys):
    # area b has psi = 0 and no covariate error, and sigma2_nu is 0
    data = _write(tmp_path, "deg.csv", "a,1,1,0.5,0\nb,2,2,0,0\nc,1.5,1.2,0.4,0\n")
    code, _ = _predict_with_params(data, tmp_path, {"beta": [1.0], "sigma2_nu": 0.0})
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DegenerateVariance"
    assert err["message"].startswith("b: ")


def test_zero_weight_denominator_names_area_and_exits_four(tmp_path, capsys):
    # the variance moment truncates at 0, so area b's denominator is 0
    rows = "a,1,1,0.5,0\nb,2,2,0,0\nc,1.5,1.5,0.4,0\nd,0.5,0.5,0.3,0\n"
    data = _write(tmp_path, "den.csv", rows)
    assert main(["fit", str(data), "--out", str(tmp_path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SingularMomentMatrix"
    assert err["message"].startswith("b: area weight denominator 0 ")


def test_weight_denominator_underflow_names_area_and_exits_four(tmp_path, capsys):
    # an exact fit truncates sigma2 at 0, so each weight is 1 / 1e-310 = inf
    rows = "".join(f"{c},{v},{v},1e-310,0\n" for v, c in enumerate("abcd", start=1))
    data = _write(tmp_path, "tiny.csv", rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", str(data), "--out", str(tmp_path)])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SingularMomentMatrix"
    assert err["message"].startswith("a: area weight denominator 1e-310 ")
    assert caught == []


def test_mspe_overflow_names_area_and_exits_four(tmp_path, capsys):
    data = _write(
        tmp_path,
        "big.csv",
        "a,1,1,1,0\nb,800,1,0,0\nc,2,1.5,1,0\nd,1.5,2,1,0\ne,0.5,0.7,1,0\n",
    )
    code = main(
        ["mspe", str(data), "--method", "jackknife", "--out", str(tmp_path)]
    )
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PredictionOverflow"
    assert err["message"].startswith("b: exponent 800 ")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_leave_one_out_refit_names_area_and_exits_four(
    tmp_path, capsys, monkeypatch, workers
):
    # dropping area a leaves a covariate column of zeros
    data = _write(tmp_path, "loo.csv", "a,1,1,1,0\nb,2,0,1,0\nc,3,0,1,0\nd,1,0,1,0\n")
    monkeypatch.setenv("LOGSAE_WORKERS", workers)
    code = main(["mspe", str(data), "--method", "jackknife", "--out", str(tmp_path)])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SingularMomentMatrix"
    assert err["message"].startswith("a: leave-one-out refit dropping this area failed")


def test_predict_params_on_header_only_file_exits_three(tmp_path, capsys):
    data = _write(tmp_path, "empty.csv", "")
    code, _ = _predict_with_params(data, tmp_path, {"beta": [1.0], "sigma2_nu": 1.0})
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InsufficientAreas"
    assert not (tmp_path / "predictions.csv").exists()


def test_bad_params_file_exits_three(dataset, tmp_path, capsys):
    params = tmp_path / "fit.json"
    params.write_text("{not json")
    code = main(
        ["predict", str(dataset), "--params", str(params), "--out", str(tmp_path)]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "raw",
    [b"area_id,z,w_1,psi,sme_diag_1\na,1,\xff,1,0\n", "area_id,z".encode("utf-16")],
    ids=["byte-ff", "utf-16"],
)
def test_non_utf8_dataset_exits_three(tmp_path, capsys, raw):
    data = tmp_path / "latin.csv"
    data.write_bytes(raw)
    assert main(["fit", str(data), "--out", str(tmp_path / "out")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert str(data) in err["message"] and "not UTF-8" in err["message"]
    assert not (tmp_path / "out").exists()


def test_cell_over_csv_field_limit_exits_three(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text(
        "area_id,y,x_1,psi,sme_diag_1\na,1,1,1,0\n"
        f'b,2,"{"7" * 140_000}",1,0\nc,3,1,1,0\n'
    )
    assert main(["fit", str(data), "--out", str(tmp_path / "out")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"].startswith("row at line 3: field larger than field limit")
    assert not (tmp_path / "out").exists()


def test_non_utf8_params_file_exits_three(dataset, tmp_path, capsys):
    params = tmp_path / "fit.json"
    params.write_bytes(b'{"beta": [1.0], "sigma2_nu": 1.0, "note": "\xff"}')
    code = main(
        ["predict", str(dataset), "--params", str(params), "--out", str(tmp_path)]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert str(params) in err["message"]
    assert not (tmp_path / "predictions.csv").exists()


@pytest.mark.parametrize("study", ["emse", "mspe", "zeros"])
def test_d_mis_outside_misspec_exits_two(tmp_path, capsys, study):
    out = tmp_path / study
    args = ["simulate", "--study", study, "--m", "8", "--r", "2", "--b", "4"]
    assert main([*args, "--d-mis", "99", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "--d-mis" in err["message"]
    assert not list(tmp_path.rglob("report.json"))
