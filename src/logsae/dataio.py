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
import itertools
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import _arrays
from .errors import NonPositiveValue, ParseError
from .model import AreaObservation, Dataset, _check_psd, _dataset

__all__ = [
    "DatasetSchema",
    "RunManifest",
    "load_arrays",
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


def _cell_error(raw: str, column: str, line: int) -> ParseError:
    """The error for a cell that does not hold a finite number."""
    if raw.strip() == "":
        return ParseError(f"row at line {line}: missing value in column {column!r}")
    try:
        float(raw)
    except ValueError:
        return ParseError(
            f"row at line {line}: column {column!r} is not a number: {raw!r}"
        )
    return ParseError(
        f"row at line {line}: column {column!r} must be finite, got {raw!r}"
    )


def _floats(cells) -> np.ndarray:
    """float() of each cell; NaN where a cell is not a number."""
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        out = np.full(len(cells), np.nan)
        for i, cell in enumerate(cells):
            try:
                out[i] = float(cell)
            except ValueError:
                pass
        return out


def _logs(values: np.ndarray) -> np.ndarray:
    # math.log per value: np.log differs from it in the last bit on some inputs
    return np.fromiter(map(math.log, values.tolist()), dtype=float, count=values.size)


def load_arrays(path):
    """Parse a dataset CSV into a `Dataset` ``(ids, arrays)``, in file order.

    ``ids`` is the list of area ids; the arrays hold ``z`` (m,), ``w``
    (m, p), ``psi`` (m,) and ``sigma`` (m, p, p) on the log scale, with
    raw-scale values (y, x_j) logged after a strict positivity check;
    the header fixes the schema.  Every row gets the checks of
    `load_dataset`, run column by column; the error raised is the one for
    the first bad line, and within that line for the first failed check
    in the order: cell count, area_id
    (missing, then repeated), then each column of the schema (response,
    covariates, psi, covariance entries) with its range check, and last
    the covariance's symmetric-PSD test.  A row is named by the line its
    record starts on.  A file that is not UTF-8 text, or that the csv
    module cannot read, raises `ParseError`.
    """
    start = 1  # the line the next record starts on
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            schema = DatasetSchema.from_fieldnames(header)
            rows, lines = [], []
            start = reader.line_num + 1
            for row in reader:
                if row:  # blank lines are skipped
                    rows.append(row)
                    lines.append(start)
                start = reader.line_num + 1
    except UnicodeDecodeError:  # its byte offset counts from the decoder's chunk
        raise ParseError(f"dataset {str(path)!r} is not UTF-8 text") from None
    except csv.Error as exc:  # e.g. a cell over the csv module's field limit
        raise ParseError(f"row at line {start}: {exc}") from None
    m, n, p = len(rows), len(header), schema.p
    checks = []  # (bad rows, error for a row), in the order a row is checked

    def check(bad, error):
        checks.append((bad, error))

    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=m)
    check(
        lengths > n,
        lambda i: ParseError(f"row at line {lines[i]}: more cells than header columns"),
    )
    if (lengths != n).any():  # a missing cell reads as an empty one
        rows = [(row + [""] * (n - len(row)))[:n] for row in rows]
    columns = dict(zip(header, zip(*rows) if m else [()] * n))
    ids = list(columns["area_id"])
    missing = np.zeros(m, dtype=bool)
    if not all(map(str.strip, ids)):
        missing = np.array([not a.strip() for a in ids])
    check(
        missing,
        lambda i: ParseError(
            f"row at line {lines[i]}: missing value in column 'area_id'"
        ),
    )
    first_row = {}  # area_id -> row of its first occurrence
    repeated = np.zeros(m, dtype=bool)
    if len(set(ids)) < m:
        for i, area_id in enumerate(ids):
            repeated[i] = first_row.setdefault(area_id, i) != i
    check(
        repeated,
        lambda i: ParseError(
            f"row at line {lines[i]}: duplicate area_id {ids[i]!r}, first "
            f"seen at line {lines[first_row[ids[i]]]}"
        ),
    )

    def number(column):
        values = _floats(columns[column])
        check(
            ~np.isfinite(values),
            lambda i: _cell_error(columns[column][i], column, lines[i]),
        )
        return values

    def positive(column):
        values = number(column)
        check(
            values <= 0.0,
            lambda i: NonPositiveValue(
                f"row at line {lines[i]}: column {column!r} must be > 0 to take "
                f"its log, got {float(values[i])!r}"
            ),
        )
        return values

    read = positive if schema.raw_response else number
    response = read(schema.response_column)
    read = positive if schema.raw_covariates else number
    covariates = [read(column) for column in schema.covariate_columns]
    psi = number("psi")
    check(
        psi < 0.0,
        lambda i: ParseError(
            f"row at line {lines[i]}: column 'psi' must be >= 0, "
            f"got {float(psi[i])!r}"
        ),
    )
    sigma = np.zeros((m, p, p))
    if schema.sme_form == "diag":
        for j, column in enumerate(schema.sme_columns):
            sigma[:, j, j] = number(column)
    else:
        for j in range(p):
            for k in range(j + 1):
                sigma[:, j, k] = sigma[:, k, j] = number(f"sme_{j + 1}_{k + 1}")

    # the first failed check of the first bad row; a covariance is checked
    # last in its row, so only the rows before that one need the PSD test
    failed = [
        (int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()
    ]
    row, k = min(failed, default=(m, None))
    _check_psd(sigma[:row], lambda i: f"row at line {lines[i]}: {ids[i]}")
    if k is not None:
        raise checks[k][1](row)

    z = _logs(response) if schema.raw_response else response
    w = np.empty((m, p))
    for j, values in enumerate(covariates):
        w[:, j] = _logs(values) if schema.raw_covariates else values
    return Dataset(ids, _arrays.build(z, w, psi, sigma))


def load_dataset(path) -> list[AreaObservation]:
    """Parse a dataset CSV into areas, preserving file order.

    Raw-scale values (y, x_j) are log-transformed after a strict
    positivity check.  Area ids must be unique.  Errors pinpoint the
    offending line and column.  This is a view over `load_arrays`.
    """
    ids, arr = load_arrays(path)
    return [
        AreaObservation(area_id=area_id, z=z, w=w, psi=psi, sigma_me=sigma)
        for area_id, z, w, psi, sigma in zip(
            ids, arr.z.tolist(), arr.w, arr.psi.tolist(), arr.sigma
        )
    ]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _check_ids(ids: list) -> None:
    """Raise ValueError naming the first blank or repeated area id: the
    ids `load_arrays` refuses."""
    if all(map(str.strip, ids)) and len(set(ids)) == len(ids):
        return
    seen = set()
    for area_id in ids:
        if not area_id.strip() or area_id in seen:
            problem = "is repeated" if area_id.strip() else "is blank"
            raise ValueError(f"area_id {area_id!r} {problem}")
        seen.add(area_id)


def save_dataset(areas, path) -> None:
    """Write areas, a `Dataset` or a list of `AreaObservation`, in the
    canonical form: z, w_j, psi, full sme triangle.  A blank or repeated
    area id is refused before the file is opened, as `load_arrays` would
    refuse the file."""
    if not (areas.ids if isinstance(areas, Dataset) else areas):
        raise ValueError("no areas to save")
    ids, arr = _dataset(areas)
    _check_ids(list(map(_fmt, ids)))
    schema = DatasetSchema(p=arr.p, response_column="z", covariate_prefix="w", sme_form="full")
    columns = {"area_id": ids, "z": arr.z}
    columns.update(zip(schema.covariate_columns, arr.w.T))
    columns["psi"] = arr.psi
    j, k = np.tril_indices(arr.p)  # row-major, the order of sme_columns
    columns.update(zip(schema.sme_columns, arr.sigma[:, j, k].T))
    write_csv(path, columns)


_CSV_BLOCK_ROWS = 4096  # rows rendered by one %-format call
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_text(cells: list, lone: bool) -> list[str]:
    """Text cells with the csv module's minimal quoting; in a table of
    one column an empty cell is quoted too, so that its row is not blank."""
    if _CSV_SPECIAL.search("".join(cells)):
        cells = [
            '"' + c.replace('"', '""') + '"' if _CSV_SPECIAL.search(c) else c
            for c in cells
        ]
    return [c or '""' for c in cells] if lone else cells


def _csv_column(values, lone: bool) -> tuple[list, str]:
    """A column's cells and their conversion in the row template: a float64
    array as Python floats under %.17g (the bytes of `_fmt`), anything
    else as quoted `_fmt` text."""
    if isinstance(values, np.ndarray):
        if values.dtype == float:
            return values.tolist(), "%.17g"
        values = values.tolist()  # numpy bools and ints as Python ones
    cells = list(values)
    if set(map(type, cells)) != {str}:  # a str is its own `_fmt` text
        cells = list(map(_fmt, cells))
    return _csv_text(cells, lone), "%s"


def write_csv(path, columns) -> None:
    """Write a table with deterministic 17-significant-digit floats.

    ``columns`` maps each column name, in header order, to its sequence
    of values; all columns must have the same length.  The bytes are
    those of the csv module's default writer given each cell's `_fmt`
    text; rows are rendered a block at a time by one %-format call.
    """
    lone = len(columns) == 1
    names = _csv_text(list(map(_fmt, columns)), lone)
    cells, specs = [], []
    for values in columns.values():
        column, spec = _csv_column(values, lone)
        cells.append(column)
        specs.append(spec)
    lengths = dict(zip(columns, map(len, cells)))
    if len(set(lengths.values())) > 1:
        short, long = min(lengths, key=lengths.get), max(lengths, key=lengths.get)
        raise ValueError(
            f"column {short!r} has {lengths[short]} values, but column "
            f"{long!r} has {lengths[long]}"
        )
    row = ",".join(specs) + "\r\n"
    m = len(cells[0]) if cells else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\r\n")
        for start in range(0, m, _CSV_BLOCK_ROWS):
            block = [column[start : start + _CSV_BLOCK_ROWS] for column in cells]
            flat = tuple(itertools.chain.from_iterable(zip(*block)))
            fh.write((row * len(block[0])) % flat)


def _json_float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _json_key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:  # bools are ints
        return encode_basestring_ascii(_json(key, "", set()))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _json_items(values, indent: str, open_ids: set):
    # a list of finite floats or of strs is rendered in one pass
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    return [_json(v, indent, open_ids) for v in values]


def _json(obj, indent: str, open_ids: set) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)`` renders it, nested at the line prefix ``indent``,
    with its errors; ``open_ids`` holds the ids of the containers being
    rendered, to refuse a circular reference."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    if not isinstance(obj, (list, tuple, dict)):
        raise TypeError(
            f"Object of type {obj.__class__.__name__} is not JSON serializable"
        )
    is_dict = isinstance(obj, dict)
    if not obj:
        return "{}" if is_dict else "[]"
    if id(obj) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(obj))
    inner = indent + "  "
    if is_dict:
        items = [
            f"{_json_key(k)}: {_json(v, inner, open_ids)}" for k, v in sorted(obj.items())
        ]
    else:
        items = _json_items(obj, inner, open_ids)
    text = f",\n{inner}".join(items)
    open_ids.remove(id(obj))
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{inner}{text}\n{indent}{closing}"


def write_json(obj, path) -> None:
    """Serialize with sorted keys; floats keep full round-trip precision.

    The bytes are those of ``json.dump(obj, fh, indent=2, sort_keys=True,
    allow_nan=False)`` and a newline.  The text is rendered before the
    file is opened, so a value that cannot be serialized raises json's
    error and leaves the file as it was.
    """
    text = _json(obj, "", set()) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
