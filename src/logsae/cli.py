"""Command-line interface.

Subcommands: ``fit``, ``predict``, ``mspe``, ``simulate``.  Every run
writes its outputs plus a ``manifest.json`` into ``--out``: each
``cmd_*`` writes its outputs and returns what its manifest records, and
`main` writes the manifest once the command has succeeded.  `mspe` and
`simulation` are imported by the commands that run them, so `fit` and
`predict` start without loading either.  Exit codes:
0 success, 2 usage, 3 data error, 4 numerical error; failures print a
single JSON line ``{"error": <class>, "message": ...}`` to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, dataio, parallel
from .errors import DataError, NumericalError, ParseError
from .estimation import ModelFit, fit
from .model import ModelParams, predict_areas


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_manifest(args, started_at, config: dict, seed, input_path, n_workers):
    manifest = dataio.RunManifest(
        command=" ".join(args.argv),
        config=config,
        seed=seed,
        version=__version__,
        input_sha256=dataio.sha256_file(input_path) if input_path else None,
        started_at=started_at,
        finished_at=_utc_now(),
        n_workers=n_workers,
    )
    dataio.write_manifest(manifest, os.path.join(args.out, "manifest.json"))


def _write_fit(model_fit: ModelFit, ids, out) -> None:
    fit_dict = {
        "beta": model_fit.params.beta.tolist(),
        "sigma2_nu": float(model_fit.params.sigma2_nu),
        "gammas": model_fit.gammas.tolist(),
        "area_ids": ids,
        "iterations_used": model_fit.iterations_used,
        "converged": model_fit.converged,
        "sigma2_truncated": model_fit.sigma2_truncated,
    }
    dataio.write_json(fit_dict, os.path.join(out, "fit.json"))


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_params(path, p) -> ModelParams:
    """The parameters of a fit.json; ``p``, unless None, is the dataset's
    covariate count, which ``beta`` must match."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read parameter file {path!r}: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"parameter file {path!r} must hold a JSON object")
    beta, sigma2 = payload.get("beta"), payload.get("sigma2_nu")
    if not (isinstance(beta, list) and all(map(_is_number, beta))):
        raise ParseError(
            f"parameter file {path!r}: 'beta' must be a list of numbers, got {beta!r}"
        )
    if not _is_number(sigma2):
        raise ParseError(
            f"parameter file {path!r}: 'sigma2_nu' must be a number, got {sigma2!r}"
        )
    try:
        params = ModelParams(beta=np.array(beta, dtype=float), sigma2_nu=float(sigma2))
    except (ValueError, OverflowError) as exc:  # an int too large for a float
        raise ParseError(f"parameter file {path!r}: {exc}") from None
    if p is not None and params.p != p:
        raise ParseError(
            f"parameter file {path!r} has {params.p} coefficients in 'beta', "
            f"but the dataset has p={p} covariates"
        )
    return params


def cmd_fit(args):
    data = dataio.load_arrays(args.dataset)
    _write_fit(fit(data), data.ids, _ensure_out(args.out))
    return {"dataset": args.dataset}, None, args.dataset, 1


def cmd_predict(args):
    data = dataio.load_arrays(args.dataset)
    if args.params:
        # an empty dataset fails as InsufficientAreas whatever its header's p
        params = _load_params(args.params, data.arrays.p if data.ids else None)
        model_fit = None
    else:
        model_fit = fit(data)
        params = model_fit.params
    pred = predict_areas(data, params)
    out = _ensure_out(args.out)
    columns = {
        "area_id": pred.area_ids,
        "prediction": pred.prediction,
        "m1": pred.m1,
        "gamma": pred.gamma,
    }
    dataio.write_csv(os.path.join(out, "predictions.csv"), columns)
    if model_fit is not None:
        _write_fit(model_fit, data.ids, out)
    return {"dataset": args.dataset, "params": args.params}, None, args.dataset, 1


def cmd_mspe(args):
    from .mspe import bootstrap_mspe, check_bootstrap_args, jackknife_mspe

    # usage errors, before the dataset is read
    if args.method == "bootstrap":
        check_bootstrap_args(args.b, args.seed)
    workers = parallel.resolve_workers(args.workers)
    data = dataio.load_arrays(args.dataset)
    model_fit = fit(data)
    out = _ensure_out(args.out)
    if args.method == "jackknife":
        jk = jackknife_mspe(data, model_fit)
        columns = {
            "area_id": jk.area_ids,
            "m1_j": jk.m1_j,
            "m2_j": jk.m2_j,
            "mspe": jk.total,
            "loo_nonconverged": [jk.loo_nonconverged] * len(data.ids),
        }
        seed = None
    else:
        bt = bootstrap_mspe(data, model_fit, args.b, args.seed)
        columns = {
            "area_id": bt.area_ids,
            "m1_bias_corrected": bt.m1_bias_corrected,
            "m2_star": bt.m2_star,
            "mspe": bt.total,
            "negative": bt.negative,
            "b_replicates": [bt.b_replicates] * len(data.ids),
        }
        seed = args.seed
    dataio.write_csv(os.path.join(out, "mspe.csv"), columns)
    _write_fit(model_fit, data.ids, out)
    config = {
        "dataset": args.dataset,
        "method": args.method,
        "b": args.b if args.method == "bootstrap" else None,
    }
    return config, seed, args.dataset, workers


def _write_report(report, out: str) -> None:
    out = _ensure_out(out)
    dataio.write_json(report.to_json_dict(), os.path.join(out, "report.json"))
    for name, columns in report.tables.items():
        dataio.write_csv(os.path.join(out, f"{report.study}_{name}.csv"), columns)


def cmd_simulate(args):
    from . import simulation

    workers = parallel.resolve_workers(args.workers)
    zeros, misspec = args.study == "zeros", args.study == "misspec"
    if args.d_mis is not None and not misspec:
        raise ValueError(f"--d-mis applies to --study misspec only, not {args.study}")
    d_mis = 4.0 if args.d_mis is None else args.d_mis
    m_values = args.m or (simulation.DEFAULT_M_GRID if zeros else [20])
    k_values = args.k or (simulation.DEFAULT_K_GRID if zeros else [0.0])
    if not zeros and len(m_values) > 1:
        raise ValueError(f"--study {args.study} takes one --m, got {len(m_values)}")
    config = simulation.SimulationConfig(
        m=m_values[0],
        k_percent=k_values[0],
        d=args.d,
        r_replications=args.r,
        b_bootstrap=args.b,
        seed=args.seed,
    )
    if args.study in ("emse", "mspe"):
        run = {"emse": simulation.run_emse_study, "mspe": simulation.run_mspe_study}
        # several k: one run per k, each written as a single k would be into OUT/k<k>/
        cells = {}
        for cell in simulation.grid_cells(config, m_values, k_values):
            name, k = f"k{cell.k_percent:g}", cell.k_percent
            first = cells.setdefault(name, cell).k_percent
            if first != k:
                raise ValueError(f"--k values {first!r} and {k!r} share directory {name}")
        for name, cell in cells.items():
            out = args.out if len(cells) == 1 else os.path.join(args.out, name)
            _write_report(run[args.study](cell), out)
    elif zeros:
        report = simulation.zero_proportion_study(
            config, m_values=m_values, k_values=k_values
        )
        _write_report(report, args.out)
    else:
        report = simulation.misspecification_study(config, d_mis, k_values=k_values)
        _write_report(report, args.out)
    # config holds the first m and k only; the manifest lists every value run
    ran = dataclasses.asdict(config) | {"m": m_values, "k_percent": k_values}
    if misspec:
        ran["d_mis"] = d_mis
    return ran, config.seed, None, workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsae",
        description="Empirical-Bayes prediction for positive skewed area-level "
        "quantities under covariate measurement error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_io(p):
        p.add_argument("dataset", help="input CSV (see README for the column layout)")
        p.add_argument("--out", default=".", help="output directory (default: .)")

    p_fit = sub.add_parser("fit", help="estimate model parameters from a dataset")
    add_common_io(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="per-area predictions and leading MSPE term")
    add_common_io(p_pred)
    p_pred.add_argument(
        "--params", default=None, help="reuse a fit.json instead of refitting"
    )
    p_pred.set_defaults(func=cmd_predict)

    p_mspe = sub.add_parser("mspe", help="per-area MSPE estimates")
    add_common_io(p_mspe)
    p_mspe.add_argument(
        "--method", choices=("jackknife", "bootstrap"), required=True
    )
    p_mspe.add_argument("--b", type=int, default=1000, help="bootstrap replicates")
    p_mspe.add_argument("--seed", type=int, default=1, help="bootstrap seed")
    p_mspe.add_argument(
        "--workers", type=int, default=None,
        help="validated and recorded only: every refit runs in this process",
    )
    p_mspe.set_defaults(func=cmd_mspe)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo study")
    p_sim.add_argument(
        "--study", choices=("emse", "mspe", "zeros", "misspec"), required=True
    )
    p_sim.add_argument(
        "--m", type=int, nargs="+", default=None,
        help="area counts (default: 20 50 100 500 for zeros, 20 for the others; "
        "emse, mspe and misspec take one)",
    )
    p_sim.add_argument(
        "--k", type=float, nargs="+", default=None,
        help="percents of areas with covariate error (default: 0 20 50 80 100 for "
        "zeros, 0 for the others); emse and mspe given several write one report "
        "per k into OUT/k<k>/",
    )
    p_sim.add_argument(
        "--d", type=float, default=2.0,
        help="measurement-error variance the data are drawn with, in every study "
        "(default: 2)",
    )
    p_sim.add_argument("--r", type=int, default=1000, help="replications")
    p_sim.add_argument("--b", type=int, default=1000, help="bootstrap replicates per replication")
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument(
        "--d-mis", type=float, default=None, dest="d_mis",
        help="wrong error variance the misspec study refits with (default: 4); "
        "the other studies reject it",
    )
    p_sim.add_argument(
        "--workers", type=int, default=None,
        help="validated and recorded only: the study runs in this process",
    )
    p_sim.add_argument("--out", default=".", help="output directory (default: .)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = ["logsae", *argv]
    started = _utc_now()
    try:
        # (manifest config, seed, input path, workers) of a command that ran
        _write_manifest(args, started, *args.func(args))
        return 0
    except ValueError as exc:
        _emit_error(exc)
        return 2
    except (DataError, OSError) as exc:
        _emit_error(exc)
        return 3
    except NumericalError as exc:
        _emit_error(exc)
        return 4


def _emit_error(exc: Exception) -> None:
    line = json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
    )
    print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
