"""CSV dataset ingestion and artifact emission.

Dataset format (one row per area, header required):

* ``area_id`` — opaque identifier, unique within the file, kept verbatim;
* response: exactly one of ``z`` (log scale) or ``y`` (raw scale,
  strictly positive);
* covariates: ``w_1..w_p`` (log scale) or ``x_1..x_p`` (raw scale,
  strictly positive), contiguous indices from 1;
* ``psi`` — sampling variance on the log scale, nonnegative;
* measurement-error covariance: either ``sme_diag_1..sme_diag_p`` or the
  full lower triangle ``sme_j_k`` (j >= k).

Column names carry the scale declaration, so a header fixes the schema.
`save_dataset` always writes the canonical log-scale, full-triangle form
with 17-significant-digit floats, which `load_dataset` reproduces exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveValue, NonPsdSigma, ParseError
from .model import AreaObservation

__all__ = [
    "DatasetSchema",
    "RunManifest",
    "load_dataset",
    "save_dataset",
    "write_csv",
    "write_json",
    "sha256_file",
    "write_manifest",
]

_COVARIATE_RE = re.compile(r"^(w|x)_([1-9][0-9]*)$")
_SME_DIAG_RE = re.compile(r"^sme_diag_([1-9][0-9]*)$")
_SME_FULL_RE = re.compile(r"^sme_([1-9][0-9]*)_([1-9][0-9]*)$")


@dataclass(frozen=True)
class DatasetSchema:
    """Column layout inferred from a dataset header."""

    p: int
    response_column: str  # "z" or "y"
    covariate_prefix: str  # "w" or "x"
    sme_form: str  # "diag" or "full"

    @property
    def raw_response(self) -> bool:
        return self.response_column == "y"

    @property
    def raw_covariates(self) -> bool:
        return self.covariate_prefix == "x"

    @property
    def covariate_columns(self) -> list[str]:
        return [f"{self.covariate_prefix}_{j}" for j in range(1, self.p + 1)]

    @property
    def sme_columns(self) -> list[str]:
        if self.sme_form == "diag":
            return [f"sme_diag_{j}" for j in range(1, self.p + 1)]
        return [
            f"sme_{j}_{k}" for j in range(1, self.p + 1) for k in range(1, j + 1)
        ]

    @classmethod
    def from_fieldnames(cls, fieldnames) -> "DatasetSchema":
        if fieldnames is None:
            raise ParseError("empty file: no header row")
        names = list(fieldnames)
        seen = set()
        for name in names:
            if name in seen:
                raise ParseError(f"duplicate column {name!r} in header")
            seen.add(name)
        if "area_id" not in seen:
            raise ParseError("missing required column 'area_id'")
        has_z, has_y = "z" in seen, "y" in seen
        if has_z == has_y:
            raise ParseError("exactly one of columns 'z' or 'y' is required")
        response = "z" if has_z else "y"
        if "psi" not in seen:
            raise ParseError("missing required column 'psi'")

        cov_idx: dict[str, set[int]] = {"w": set(), "x": set()}
        sme_diag: set[int] = set()
        sme_full: set[tuple[int, int]] = set()
        recognized = {"area_id", response, "psi"}
        for name in names:
            if name in recognized:
                continue
            if m := _COVARIATE_RE.match(name):
                cov_idx[m.group(1)].add(int(m.group(2)))
            elif m := _SME_DIAG_RE.match(name):
                sme_diag.add(int(m.group(1)))
            elif m := _SME_FULL_RE.match(name):
                j, k = int(m.group(1)), int(m.group(2))
                if j < k:
                    raise ParseError(
                        f"column {name!r}: covariance entries use the lower "
                        f"triangle; write 'sme_{k}_{j}' instead"
                    )
                sme_full.add((j, k))
            else:
                raise ParseError(f"unrecognized column {name!r}")

        if cov_idx["w"] and cov_idx["x"]:
            raise ParseError("covariate columns must be all w_j or all x_j, not both")
        prefix = "w" if cov_idx["w"] else "x"
        indices = cov_idx[prefix]
        if not indices:
            raise ParseError("no covariate columns (w_1.. or x_1..) found")
        p = max(indices)
        if indices != set(range(1, p + 1)):
            missing = sorted(set(range(1, p + 1)) - indices)
            raise ParseError(
                f"covariate indices must be contiguous from 1; missing "
                f"{prefix}_{missing[0]}"
            )

        if sme_diag and sme_full:
            raise ParseError(
                "covariance columns must be all sme_diag_j or all sme_j_k, not both"
            )
        if sme_diag:
            if sme_diag != set(range(1, p + 1)):
                raise ParseError(
                    f"sme_diag columns must cover indices 1..{p} exactly"
                )
            form = "diag"
        elif sme_full:
            want = {(j, k) for j in range(1, p + 1) for k in range(1, j + 1)}
            if sme_full != want:
                bad = sorted(sme_full.symmetric_difference(want))
                j, k = bad[0]
                raise ParseError(
                    f"lower-triangle covariance columns must cover all "
                    f"sme_j_k with 1 <= k <= j <= {p}; mismatch at sme_{j}_{k}"
                )
            form = "full"
        else:
            raise ParseError(
                "missing measurement-error covariance columns "
                "(sme_diag_1..p or lower-triangle sme_j_k)"
            )
        return cls(p=p, response_column=response, covariate_prefix=prefix, sme_form=form)


def _cell(row: dict, column: str, line: int) -> float:
    raw = row.get(column)
    if raw is None or raw.strip() == "":
        raise ParseError(f"row at line {line}: missing value in column {column!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(
            f"row at line {line}: column {column!r} is not a number: {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"row at line {line}: column {column!r} must be finite, got {raw!r}"
        )
    return value


def load_dataset(path, schema: DatasetSchema | None = None) -> list[AreaObservation]:
    """Parse a dataset CSV into areas, preserving file order.

    Raw-scale values (y, x_j) are log-transformed after a strict
    positivity check.  A ``schema`` argument, when given, must match the
    header exactly.  Area ids must be unique.  Errors pinpoint the
    offending line and column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        found = DatasetSchema.from_fieldnames(reader.fieldnames)
        if schema is not None and schema != found:
            raise ParseError(
                f"header declares schema {found}, expected {schema}"
            )
        schema = found
        p = schema.p
        areas = []
        first_line = {}  # area_id -> line of its first row
        for row in reader:
            line = reader.line_num
            if row.get(None) is not None:
                raise ParseError(f"row at line {line}: more cells than header columns")
            area_id = row.get("area_id")
            if area_id is None or area_id.strip() == "":
                raise ParseError(f"row at line {line}: missing value in column 'area_id'")
            if area_id in first_line:
                raise ParseError(
                    f"row at line {line}: duplicate area_id {area_id!r}, first "
                    f"seen at line {first_line[area_id]}"
                )
            first_line[area_id] = line

            resp = _cell(row, schema.response_column, line)
            if schema.raw_response:
                if resp <= 0.0:
                    raise NonPositiveValue(
                        f"row at line {line}: column 'y' must be > 0 to take "
                        f"its log, got {resp!r}"
                    )
                z = math.log(resp)
            else:
                z = resp

            w = np.empty(p)
            for j, column in enumerate(schema.covariate_columns):
                value = _cell(row, column, line)
                if schema.raw_covariates:
                    if value <= 0.0:
                        raise NonPositiveValue(
                            f"row at line {line}: column {column!r} must be > 0 "
                            f"to take its log, got {value!r}"
                        )
                    value = math.log(value)
                w[j] = value

            psi = _cell(row, "psi", line)
            if psi < 0.0:
                raise ParseError(
                    f"row at line {line}: column 'psi' must be >= 0, got {psi!r}"
                )

            sigma = np.zeros((p, p))
            if schema.sme_form == "diag":
                for j in range(p):
                    sigma[j, j] = _cell(row, f"sme_diag_{j + 1}", line)
            else:
                for j in range(1, p + 1):
                    for k in range(1, j + 1):
                        value = _cell(row, f"sme_{j}_{k}", line)
                        sigma[j - 1, k - 1] = value
                        sigma[k - 1, j - 1] = value
            try:
                areas.append(
                    AreaObservation(
                        area_id=area_id, z=z, w=w, psi=psi, sigma_me=sigma
                    )
                )
            except NonPsdSigma as exc:
                raise NonPsdSigma(f"row at line {line}: {exc}") from None
    return areas


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def save_dataset(areas, path) -> None:
    """Write areas in the canonical form: z, w_j, psi, full sme triangle."""
    if not areas:
        raise ValueError("no areas to save")
    p = areas[0].p
    if any(a.p != p for a in areas):
        raise ValueError("areas disagree on covariate dimension")
    schema = DatasetSchema(p=p, response_column="z", covariate_prefix="w", sme_form="full")
    header = ["area_id", "z", *schema.covariate_columns, "psi", *schema.sme_columns]
    rows = []
    for a in areas:
        row = [a.area_id, _fmt(a.z)]
        row.extend(_fmt(v) for v in a.w)
        row.append(_fmt(a.psi))
        for j in range(p):
            for k in range(j + 1):
                row.append(_fmt(a.sigma_me[j, k]))
        rows.append(row)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(path, fieldnames, rows) -> None:
    """Write dict rows with deterministic 17-significant-digit floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def write_json(obj, path) -> None:
    """Serialize with sorted keys; floats keep full round-trip precision.
    A value that cannot be serialized leaves no file behind."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except (TypeError, ValueError):
        os.remove(path)  # json.dump streams: drop the part it wrote
        raise


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance record emitted next to every output artifact.

    Two runs whose manifests agree on everything but the timestamps
    produce byte-identical result files; wall-clock fields live only
    here, never in results.
    """

    command: str
    config: dict
    seed: int | None
    version: str
    input_sha256: str | None
    started_at: str
    finished_at: str
    n_workers: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(manifest.to_dict(), path)
