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

import array
import csv
import dataclasses
import hashlib
import itertools
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import NonPositiveValue, ParseError
from .model import AreaObservation, Dataset, _dataset, _from_columns

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


def _cell_error(raw: str, column: str, line: int):
    """The error for a cell that does not hold a finite number, or, in a
    raw-scale column, a number > 0."""
    cell = f"row at line {line}: column {column!r}"
    if raw.strip() == "":
        return ParseError(f"row at line {line}: missing value in column {column!r}")
    try:
        value = float(raw)
    except ValueError:
        return ParseError(f"{cell} is not a number: {raw!r}")
    if math.isfinite(value):  # a raw-scale value <= 0
        return NonPositiveValue(f"{cell} must be > 0 to take its log, got {value!r}")
    return ParseError(f"{cell} must be finite, got {raw!r}")


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
    # math.log per value: np.log differs from it in the last bit on some
    # inputs; NaN for a value <= 0, which has no log
    values = np.where(values > 0.0, values, np.nan).tolist()
    return np.fromiter(map(math.log, values), dtype=float, count=len(values))


_LOAD_BLOCK_ROWS = 4096  # rows turned into float columns at a time


def load_arrays(path):
    """Parse a dataset CSV into a `Dataset` ``(ids, arrays)``, in file order.

    The header fixes the schema; raw-scale values (y, x_j) are logged.  A
    row with more cells than header columns is refused, and one with fewer
    reads its missing cells as empty.  Then `Dataset.from_columns` checks
    the rows, naming each ``row at line N`` (where its record starts) and
    its columns as the file does; a cell that is not a number, or not > 0
    in a raw-scale column, fails its column's finiteness check.  A file
    that is not UTF-8 text, or that the csv module cannot read, raises
    `ParseError`.

    The file is read to its end before any row is checked.  Rows become
    floats ``_LOAD_BLOCK_ROWS`` at a time, and between blocks only the
    ids, each row's start line, the floats and the text of each column's
    first non-finite cell are kept.
    """
    start = 1  # the line the next record starts on
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            schema = DatasetSchema.from_fieldnames(header)
            n, p, diag = len(header), schema.p, schema.sme_form == "diag"
            # the value columns in the constructor's order: z, w_j, psi, sme_j_k
            columns = [schema.response_column, *schema.covariate_columns, "psi"]
            columns += schema.sme_columns
            logged = [schema.raw_response, *[schema.raw_covariates] * p]
            logged += [False] * (len(columns) - len(logged))
            id_at, at = header.index("area_id"), list(map(header.index, columns))
            ids, lines, blocks = [], array.array("q"), []
            texts = {}  # column -> {row: text} of its first non-finite cell

            def add(rows):
                if any(len(row) < n for row in rows):  # a missing cell reads as empty
                    rows = [row + [""] * (n - len(row)) for row in rows]
                cells = list(zip(*rows))
                first = len(ids)
                ids.extend(cells[id_at])
                block = np.empty((len(rows), len(columns)))
                for j, (c, log) in enumerate(zip(at, logged)):
                    parsed = _floats(cells[c])
                    block[:, j] = _logs(parsed) if log else parsed
                bad = ~np.isfinite(block)
                for j in np.flatnonzero(bad.any(axis=0)).tolist():
                    if columns[j] not in texts:  # the constructor names only the first
                        r = int(np.argmax(bad[:, j]))
                        texts[columns[j]] = {first + r: cells[at[j]][r]}
                blocks.append(block)

            long = None  # the start line of the first row with too many cells
            rows = []
            start = reader.line_num + 1
            for row in reader:
                if row and long is None:  # blank lines are skipped
                    if len(row) > n:  # it and the rows after it are read, not kept
                        long = start
                    else:
                        rows.append(row)
                        lines.append(start)
                        if len(rows) == _LOAD_BLOCK_ROWS:
                            add(rows)
                            rows = []
                start = reader.line_num + 1
            if rows:
                add(rows)
    except UnicodeDecodeError:  # its byte offset counts from the decoder's chunk
        raise ParseError(f"dataset {str(path)!r} is not UTF-8 text") from None
    except csv.Error as exc:  # e.g. a cell over the csv module's field limit
        raise ParseError(f"row at line {start}: {exc}") from None

    values = np.concatenate(blocks or [np.empty((0, len(columns)))])
    blocks.clear()
    z, w, psi = values[:, 0].copy(), values[:, 1 : p + 1].copy(), values[:, p + 1].copy()
    sigma = np.zeros((len(ids), p, p))
    j, k = np.diag_indices(p) if diag else np.tril_indices(p)
    sigma[:, j, k] = sigma[:, k, j] = values[:, p + 2 :]
    del values  # before the constructor's checks, which set the peak

    # the file's name for each column the constructor names
    sme = [f"sme_{j}_{j}" for j in range(1, p + 1)] if diag else schema.sme_columns
    names = dict(zip(["z", *(f"w_{j}" for j in range(1, p + 1)), "psi", *sme], columns))

    def unreadable(i, column):
        column = names[column]
        return _cell_error(texts[column][i], column, lines[i])

    def where(i):
        return f"line {lines[i]}"

    data = _from_columns(ids, z, w, psi, sigma, where, unreadable)
    if long is not None:  # the rows before it may hold an earlier error
        raise ParseError(f"row at line {long}: more cells than header columns")
    return data


def load_dataset(path) -> list[AreaObservation]:
    """Parse a dataset CSV into areas, in file order: the list-of-areas
    view over `load_arrays`, with its values and errors."""
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


def save_dataset(areas, path) -> None:
    """Write areas, a `Dataset` or a list of `AreaObservation`, in the
    canonical form: z, w_j, psi, full sme triangle.  Before the file is
    opened, `Dataset.from_columns` refuses what `load_arrays` would refuse
    to read back, a blank or repeated area id as written among it."""
    if not (areas.ids if isinstance(areas, Dataset) else areas):
        raise ValueError("no areas to save")
    ids, arr = _dataset(areas)
    ids = list(map(_fmt, ids))  # as written and read back
    ids, arr = Dataset.from_columns(ids, arr.z, arr.w, arr.psi, arr.sigma)
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
