"""Dataset parsing, canonical serialization, and the exact round trip."""

import csv
import dataclasses
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_areas, random_dataset
from logsae import dataio
from logsae.dataio import (
    DatasetSchema,
    RunManifest,
    load_arrays,
    load_dataset,
    save_dataset,
    sha256_file,
    write_csv,
    write_json,
    write_manifest,
)
from logsae.errors import DataError, NonPositiveValue, NonPsdSigma, ParseError
from logsae.model import AreaObservation


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSchemaInference:
    def test_log_scale_full_triangle(self):
        schema = DatasetSchema.from_fieldnames(
            ["area_id", "z", "w_1", "w_2", "psi", "sme_1_1", "sme_2_1", "sme_2_2"]
        )
        assert schema == DatasetSchema(2, "z", "w", "full")

    def test_raw_scale_diagonal(self):
        schema = DatasetSchema.from_fieldnames(
            ["area_id", "y", "x_1", "psi", "sme_diag_1"]
        )
        assert schema.raw_response and schema.raw_covariates
        assert schema.sme_columns == ["sme_diag_1"]

    @pytest.mark.parametrize(
        "fields,fragment",
        [
            (["area_id", "psi", "w_1", "sme_diag_1"], "'z' or 'y'"),
            (["area_id", "z", "y", "w_1", "psi", "sme_diag_1"], "'z' or 'y'"),
            (["area_id", "z", "w_1", "sme_diag_1"], "psi"),
            (["area_id", "z", "psi", "sme_diag_1"], "covariate"),
            (["area_id", "z", "w_1", "x_1", "psi", "sme_diag_1"], "not both"),
            (["area_id", "z", "w_1", "w_3", "psi", "sme_diag_1"], "contiguous"),
            (["area_id", "z", "w_1", "psi"], "covariance"),
            (["area_id", "z", "w_1", "psi", "sme_1_1", "sme_diag_1"], "not both"),
            (["area_id", "z", "w_1", "w_2", "psi", "sme_diag_1"], "sme_diag"),
            (["area_id", "z", "w_1", "w_2", "psi", "sme_1_1", "sme_2_2"], "sme_2_1"),
            (["area_id", "z", "w_1", "psi", "sme_diag_1", "oops"], "unrecognized"),
            (["area_id", "z", "z", "w_1", "psi", "sme_diag_1"], "duplicate"),
        ],
    )
    def test_bad_headers_pinpointed(self, fields, fragment):
        with pytest.raises(ParseError, match=fragment):
            DatasetSchema.from_fieldnames(fields)

    def test_upper_triangle_redirects_to_lower(self):
        with pytest.raises(ParseError, match="sme_2_1"):
            DatasetSchema.from_fieldnames(
                ["area_id", "z", "w_1", "w_2", "psi", "sme_1_1", "sme_1_2", "sme_2_2"]
            )


class TestLoadDataset:
    def test_raw_scale_is_logged(self, tmp_path):
        path = write(
            tmp_path,
            "area_id,y,x_1,psi,sme_diag_1\nRI,191.641,100.0,0.5,0.0\n",
        )
        (area,) = load_dataset(path)
        assert area.z == pytest.approx(math.log(191.641), rel=1e-15)
        assert area.z == pytest.approx(5.2557, abs=1e-3)
        assert area.w[0] == pytest.approx(math.log(100.0), rel=1e-15)

    def test_log_scale_passes_through(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\nRI,5.2557,4.6052,0.5,0\n")
        (area,) = load_dataset(path)
        assert area.z == 5.2557 and area.w[0] == 4.6052

    def test_file_order_preserved(self, tmp_path):
        rows = "".join(f"id{i},1.0,2.0,0.5,0\n" for i in (3, 1, 2))
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\n" + rows)
        assert [a.area_id for a in load_dataset(path)] == ["id3", "id1", "id2"]

    def test_nonpositive_raw_response(self, tmp_path):
        path = write(tmp_path, "area_id,y,x_1,psi,sme_diag_1\na,0.0,1.0,0.5,0\n")
        with pytest.raises(NonPositiveValue, match="line 2"):
            load_dataset(path)

    def test_nonpositive_raw_covariate(self, tmp_path):
        path = write(tmp_path, "area_id,y,x_1,psi,sme_diag_1\na,1.0,-2.0,0.5,0\n")
        with pytest.raises(NonPositiveValue, match="x_1"):
            load_dataset(path)

    def test_zero_allowed_on_log_scale(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,0.0,-2.0,0.5,0\n")
        (area,) = load_dataset(path)
        assert area.z == 0.0 and area.w[0] == -2.0

    def test_bad_number_pinpoints_row_and_column(self, tmp_path):
        path = write(
            tmp_path,
            "area_id,z,w_1,psi,sme_diag_1\na,1,2,0.5,0\nb,1,x,0.5,0\n",
        )
        with pytest.raises(ParseError, match=r"line 3.*'w_1'"):
            load_dataset(path)

    def test_missing_cell_reported(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,1,2,0.5\n")
        with pytest.raises(ParseError, match="missing value"):
            load_dataset(path)

    def test_extra_cell_reported(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,1,2,0.5,0,9\n")
        with pytest.raises(ParseError, match="more cells"):
            load_dataset(path)

    def test_negative_psi_rejected(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,1,2,-0.5,0\n")
        with pytest.raises(ParseError, match="psi"):
            load_dataset(path)

    def test_non_psd_sigma_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "area_id,z,w_1,w_2,psi,sme_1_1,sme_2_1,sme_2_2\n"
            "a,1,2,3,0.5,1.0,0.0,1.0\n"
            "b,1,2,3,0.5,1.0,5.0,1.0\n",
        )
        with pytest.raises(NonPsdSigma, match="line 3"):
            load_dataset(path)

    def test_diagonal_entries_may_be_zero(self, tmp_path):
        path = write(
            tmp_path,
            "area_id,z,w_1,w_2,psi,sme_diag_1,sme_diag_2\na,1,2,3,0.5,2.0,0.0\n",
        )
        (area,) = load_dataset(path)
        np.testing.assert_array_equal(area.sigma_me, np.diag([2.0, 0.0]))

    def test_duplicate_area_id_names_both_lines(self, tmp_path):
        text = "area_id,z,w_1,psi,sme_diag_1\na,1,1,1,0\nb,2,1,1,0\na,3,1,1,0\n"
        with pytest.raises(ParseError, match=r"line 4: duplicate area_id 'a'.* line 2"):
            load_dataset(write(tmp_path, text))

    def test_multi_line_record_named_by_its_first_line(self, tmp_path):
        # the quote opened on line 3 runs to the end of the file
        text = 'area_id,y,x_1,psi,sme_diag_1\na,1,1,1,0\nb,2,"2,1,0\nc,3,1,1,0\n'
        with pytest.raises(
            ParseError, match=r"^row at line 3: column 'x_1' is not a number"
        ):
            load_arrays(write(tmp_path, text))

    def test_empty_file_and_header_only(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load_dataset(write(tmp_path, ""))
        assert load_dataset(write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\n")) == []


def test_header_only_file_loads_as_no_areas(tmp_path):
    header = "area_id,y,x_1,x_2,psi,sme_diag_1,sme_diag_2\n"
    ids, arr = load_arrays(write(tmp_path, header + "\n"))
    assert ids == []
    assert arr.z.shape == (0,) and arr.w.shape == (0, 2) and arr.sigma.shape == (0, 2, 2)


class TestRoundTrip:
    def test_save_then_load_is_exact(self, tmp_path, gen):
        z, w, psi, sigma = random_dataset(gen, m=15, p=2, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        path = tmp_path / "canonical.csv"
        save_dataset(areas, path)
        back = load_dataset(path)
        assert len(back) == len(areas)
        for a, b in zip(areas, back):
            assert a.area_id == b.area_id
            assert a.z == b.z and a.psi == b.psi
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.sigma_me, b.sigma_me)

    def test_saved_bytes(self, tmp_path):
        areas = [
            AreaObservation(
                "a", 1.0 / 3.0, np.array([1.5, -2.0]), 0.1,
                np.array([[0.5, 0.1], [0.1, 0.2]]),
            ),
            AreaObservation("b", -0.0, np.array([0.0, 1e-310]), 2.0, np.zeros((2, 2))),
        ]
        save_dataset(areas, tmp_path / "areas.csv")
        assert (tmp_path / "areas.csv").read_bytes() == (
            b"area_id,z,w_1,w_2,psi,sme_1_1,sme_2_1,sme_2_2\r\n"
            b"a,0.33333333333333331,1.5,-2,0.10000000000000001,0.5,"
            b"0.10000000000000001,0.20000000000000001\r\n"
            b"b,-0,0,9.9999999999999694e-311,2,0,0,0\r\n"
        )

    def test_no_areas_or_mixed_p_writes_nothing(self, tmp_path):
        path = tmp_path / "areas.csv"
        with pytest.raises(ValueError, match="no areas to save"):
            save_dataset([], path)
        mixed = make_areas([1.0], [[1.0]], [1.0])
        mixed.append(AreaObservation("b", 1.0, np.ones(2), 1.0, np.zeros((2, 2))))
        with pytest.raises(ValueError, match="^b: covariate length 2 differs from 1"):
            save_dataset(mixed, path)
        assert not path.exists()

    def test_rewrite_is_byte_identical(self, tmp_path, gen):
        z, w, psi, sigma = random_dataset(gen, m=9, p=1, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        save_dataset(areas, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert sha256_file(p1) == sha256_file(p2)

    def test_dataset_saves_as_its_areas(self, tmp_path, gen):
        z, w, psi, sigma = random_dataset(gen, m=40, p=2, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        areas[3] = dataclasses.replace(areas[3], area_id='north, "upper"')
        path = tmp_path / "areas.csv"
        save_dataset(areas, path)
        save_dataset(load_arrays(path), tmp_path / "from_arrays.csv")
        save_dataset(load_dataset(path), tmp_path / "from_areas.csv")
        assert (tmp_path / "from_arrays.csv").read_bytes() == path.read_bytes()
        assert (tmp_path / "from_areas.csv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "ids, message",
        [
            (
                ["x"] * 5,
                "^row at index 1: duplicate area_id 'x', first seen at index 0$",
            ),
            (["a", " ", "c"], "^row at index 1: missing value in column 'area_id'$"),
        ],
        ids=["repeated", "blank"],
    )
    def test_ids_the_loader_refuses_write_nothing(self, tmp_path, gen, ids, message):
        z, w, psi, sigma = random_dataset(gen, m=len(ids), p=1, with_sigma=True)
        areas = [
            dataclasses.replace(area, area_id=area_id)
            for area, area_id in zip(make_areas(z, w, psi, sigma), ids)
        ]
        path = tmp_path / "areas.csv"
        with pytest.raises(ParseError, match=message):
            save_dataset(areas, path)
        assert not path.exists()

    def test_empty_dataset_writes_nothing(self, tmp_path):
        empty = load_arrays(write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\n"))
        with pytest.raises(ValueError, match="no areas to save"):
            save_dataset(empty, tmp_path / "areas.csv")
        assert not (tmp_path / "areas.csv").exists()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    p=st.integers(1, 3),
    where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    bad=st.sampled_from(["", " ", "abc", "1.5.2", "nan", "inf", "-inf", "1e999"]),
)
def test_bad_cell_anywhere_names_its_line_and_column(seed, m, p, where, bad):
    z, w, psi, sigma = random_dataset(np.random.default_rng(seed), m=m, p=p)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "areas.csv")
        save_dataset(make_areas(z, w, psi, sigma), path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        row = min(int(where[0] * m), m - 1)
        col = 1 + min(int(where[1] * (len(header) - 1)), len(header) - 2)
        rows[row][col] = bad
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
    # the header is line 1
    assert str(exc.value).startswith(f"row at line {row + 2}: ")
    assert f"column {header[col]!r}" in str(exc.value)


def _schema_columns(p, response, prefix, form):
    """Value columns in the order a row is checked: response, covariates,
    psi, covariance entries."""
    schema = DatasetSchema(p, response, prefix, form)
    return [response, *schema.covariate_columns, "psi", *schema.sme_columns]


def _cells(gen, m, p, response, prefix, form):
    """Random valid cells, one dict per row, in a mix of number styles."""
    styles = [repr, "{:.6g}".format, "{:.3e}".format, " {!r} ".format]

    def text(v):
        return styles[gen.integers(len(styles))](float(v))

    rows = []
    for i in range(m):
        row = {"area_id": f"a{i}"}
        row[response] = text(
            gen.normal(1.0, 1.0) if response == "z" else gen.lognormal()
        )
        for j in range(1, p + 1):
            row[f"{prefix}_{j}"] = text(
                gen.normal(2.0, 1.0) if prefix == "w" else gen.lognormal()
            )
        row["psi"] = text(gen.gamma(2.0, 0.5) if i % 3 else 0.0)
        # definite enough that 4-digit cells stay PSD
        root = gen.normal(0.0, 0.4, size=(p, p))
        sigma = (root @ root.T + 0.1 * np.eye(p)) * (i % 2)
        if form == "diag":
            for j in range(p):
                row[f"sme_diag_{j + 1}"] = text(sigma[j, j])
        else:
            for j in range(p):
                for k in range(j + 1):
                    row[f"sme_{j + 1}_{k + 1}"] = text(sigma[j, k])
        rows.append(row)
    return rows


def _write_file(path, header, rows, blanks, bom):
    """Write rows (lists of cells) under ``header`` with ``blanks[i]`` empty
    lines before row i; return each row's line number."""
    lines = []
    encoding = "utf-8-sig" if bom else "utf-8"
    with open(path, "w", newline="", encoding=encoding) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        line = 1
        for row, blank in zip(rows, blanks):
            fh.write("\r\n" * blank)
            writer.writerow(row)
            line += blank + 1
            lines.append(line)
    return lines


_LAYOUTS = dict(
    p=st.integers(1, 3),
    response=st.sampled_from(["z", "y"]),
    prefix=st.sampled_from(["w", "x"]),
    form=st.sampled_from(["diag", "full"]),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    order=st.randoms(use_true_random=False),
    blank_lines=st.booleans(),
    bom=st.booleans(),
    **_LAYOUTS,
)
def test_valid_file_loads_bit_for_bit(
    seed, m, order, blank_lines, bom, p, response, prefix, form
):
    gen = np.random.default_rng(seed)
    rows = _cells(gen, m, p, response, prefix, form)
    header = ["area_id", *_schema_columns(p, response, prefix, form)]
    order.shuffle(header)
    blanks = gen.integers(0, 3, size=m) if blank_lines else [0] * m
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "areas.csv")
        _write_file(path, header, [[r[c] for c in header] for r in rows], blanks, bom)
        ids, arr = load_arrays(path)
        areas = load_dataset(path)  # the view over load_arrays

    def value(row, column):
        v = float(row[column])
        return math.log(v) if column == "y" or column.startswith("x_") else v

    z = np.array([value(r, response) for r in rows])
    w = np.array([[value(r, f"{prefix}_{j}") for j in range(1, p + 1)] for r in rows])
    psi = np.array([float(r["psi"]) for r in rows])
    sigma = np.zeros((m, p, p))
    for i, r in enumerate(rows):
        for j in range(p):
            if form == "diag":
                sigma[i, j, j] = float(r[f"sme_diag_{j + 1}"])
                continue
            for k in range(j + 1):
                sigma[i, j, k] = sigma[i, k, j] = float(r[f"sme_{j + 1}_{k + 1}"])
    assert ids == [r["area_id"] for r in rows]
    for got, want in [(arr.z, z), (arr.w, w), (arr.psi, psi), (arr.sigma, sigma)]:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert [a.area_id for a in areas] == ids
    assert np.array([a.z for a in areas]).tobytes() == z.tobytes()
    assert np.array([a.sigma_me for a in areas]).tobytes() == sigma.tobytes()


_BAD_CELLS = ["", " ", "abc", "1.5.2", "nan", "inf", "-inf", "1e999"]
_DEFECTS = [
    *(f"cell:{bad}" for bad in _BAD_CELLS),
    "short",
    "long",
    "duplicate",
    "nonpositive",
    "negative_psi",
    "non_psd",
]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    order=st.randoms(use_true_random=False),
    blank_lines=st.booleans(),
    defects=st.lists(
        st.tuples(st.sampled_from(_DEFECTS), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        min_size=2,
        max_size=3,
    ),
    **_LAYOUTS,
)
def test_first_defect_by_line_then_check_order_is_reported(
    seed, m, order, blank_lines, defects, p, response, prefix, form
):
    gen = np.random.default_rng(seed)
    rows = _cells(gen, m, p, response, prefix, form)
    columns = _schema_columns(p, response, prefix, form)
    header = ["area_id", *columns]
    order.shuffle(header)
    # the rank of each check within a row: cell count, area_id missing, then
    # repeated, then each column's cell and range checks, and last the PSD test
    rank = {"area_id": 1} | {c: 3 + 2 * q for q, c in enumerate(columns)}
    psd_rank = 3 + 2 * len(columns)
    raw = [c for c in columns if c == "y" or c.startswith("x_")]

    touched = set()  # (row, column) cells a defect set or cut; no two share one
    length = {}  # row -> number of cells written, for short and long rows
    claims = []  # (row, rank, error class, message fragment)

    def touch(i, column):
        assume((i, column) not in touched)
        touched.add((i, column))

    for kind, where_row, where_col in defects:
        i = min(int(where_row * m), m - 1)
        if kind.startswith("cell:"):
            column = columns[min(int(where_col * len(columns)), len(columns) - 1)]
            touch(i, column)
            rows[i][column] = kind[5:]
            claims.append((i, rank[column], ParseError, f"column {column!r}"))
        elif kind in ("short", "long"):
            assume(i not in length)
            if kind == "long":
                length[i] = len(header) + 1
                claims.append((i, 0, ParseError, "more cells than header columns"))
                continue
            keep = 1 + min(int(where_col * (len(header) - 1)), len(header) - 2)
            length[i] = keep
            cut = header[keep:]
            for column in cut:
                touch(i, column)
            first = min(cut, key=rank.get)
            fragment = f"missing value in column {first!r}"
            claims.append((i, rank[first], ParseError, fragment))
        elif kind == "duplicate":
            i = max(i, 1)
            touch(i, "area_id")
            rows[i]["area_id"] = "a0"
            claims.append((i, 2, ParseError, "duplicate area_id 'a0'"))
        elif kind == "nonpositive":
            assume(raw)
            column = raw[min(int(where_col * len(raw)), len(raw) - 1)]
            touch(i, column)
            rows[i][column] = "0" if where_col < 0.5 else "-2.5"
            claims.append((i, rank[column] + 1, NonPositiveValue, f"column {column!r}"))
        elif kind == "negative_psi":
            touch(i, "psi")
            rows[i]["psi"] = "-0.5"
            claims.append((i, rank["psi"] + 1, ParseError, "column 'psi' must be >= 0"))
        else:  # a valid cell that makes the covariance indefinite
            column = (
                "sme_diag_1" if form == "diag" else "sme_1_1" if p == 1 else "sme_2_1"
            )
            touch(i, column)
            rows[i][column] = "10" if column == "sme_2_1" else "-1.0"
            claims.append((i, psd_rank, NonPsdSigma, f"{rows[i]['area_id']}: "))

    cells = []
    for i, r in enumerate(rows):
        row = [r[c] for c in header]
        if i in length:
            row = (row + ["9"])[: length[i]]
        cells.append(row)
    blanks = gen.integers(0, 3, size=m) if blank_lines else [0] * m
    row, _, cls, fragment = min(claims, key=lambda c: (c[0], c[1]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "areas.csv")
        lines = _write_file(path, header, cells, blanks, bom=False)
        with pytest.raises(DataError) as exc:
            load_arrays(path)
    assert type(exc.value) is cls
    message = str(exc.value)
    assert message.startswith(f"row at line {lines[row]}: ")
    assert fragment in message


def test_valid_file_loads_bit_for_bit_in_blocks_of_two(monkeypatch):
    monkeypatch.setattr(dataio, "_LOAD_BLOCK_ROWS", 2)
    test_valid_file_loads_bit_for_bit()


def test_first_defect_is_reported_in_blocks_of_two(monkeypatch):
    monkeypatch.setattr(dataio, "_LOAD_BLOCK_ROWS", 2)
    test_first_defect_by_line_then_check_order_is_reported()


class TestBlockBoundaries:
    """Files of a few rows, read two rows at a time."""

    HEADER = "area_id,y,x_1,psi,sme_diag_1\n"

    @pytest.fixture(autouse=True)
    def blocks_of_two(self, monkeypatch):
        monkeypatch.setattr(dataio, "_LOAD_BLOCK_ROWS", 2)

    def load(self, tmp_path, text):
        return load_arrays(write(tmp_path, self.HEADER + text))

    def refused(self, tmp_path, text, cls=ParseError):
        with pytest.raises(cls) as exc:
            self.load(tmp_path, text)
        return str(exc.value)

    def test_multi_line_id_ends_a_block(self, tmp_path):
        text = 'a,1,1,1,0\n"b\nb",2,2,1,0\nc,3,x,1,0\n'
        message = self.refused(tmp_path, text)
        assert message == "row at line 5: column 'x_1' is not a number: 'x'"
        ids, arr = self.load(tmp_path, text.replace(",x,", ",3,"))
        assert ids == ["a", "b\nb", "c"]
        assert arr.w[:, 0].tolist() == [0.0, math.log(2.0), math.log(3.0)]

    def test_blank_lines_between_blocks(self, tmp_path):
        text = "a,1,1,1,0\nb,2,2,1,0\n\n\nc,3,3,1,0\nd,4,4,1,0\n\ne,5,5,-1,0\n"
        message = self.refused(tmp_path, text)
        assert message == "row at line 9: column 'psi' must be >= 0, got -1.0"

    @pytest.mark.parametrize("short", [1, 2])
    def test_short_row_at_a_block_edge(self, tmp_path, short):
        rows = ["a,1,1,1,0", "b,2,2,1,0", "c,3,3,1,0"]
        rows[short] = rows[short][: -len(",1,0")]
        message = self.refused(tmp_path, "\n".join(rows) + "\n")
        assert message == f"row at line {short + 2}: missing value in column 'psi'"

    def test_first_bad_cell_of_a_later_block(self, tmp_path):
        # x_1 is unreadable on lines 4 and 6, y is not > 0 on line 5
        text = "a,1,1,1,0\nb,2,2,1,0\nc,3,nan,1,0\nd,0,4,1,0\ne,5,abc,1,0\n"
        message = self.refused(tmp_path, text)
        assert message == "row at line 4: column 'x_1' must be finite, got 'nan'"
        message = self.refused(tmp_path, text.replace("nan", "3"), NonPositiveValue)
        assert message == "row at line 5: column 'y' must be > 0 to take its log, got 0.0"

    def test_long_row_in_a_later_block(self, tmp_path):
        text = "a,1,1,1,0\nb,2,2,1,0\nc,3,3,1,0\nd,4,4,1,0,9\ne,x,5,1,0\n"
        message = self.refused(tmp_path, text)
        assert message == "row at line 5: more cells than header columns"
        message = self.refused(tmp_path, text.replace("c,3,3", "c,3,-3"), NonPositiveValue)
        assert message.startswith("row at line 4: column 'x_1' must be > 0")

    def test_long_row_then_an_unreadable_record(self, tmp_path):
        text = "a,1,1,1,0\nb,2,2,1,0,9\nc,3,3,1,0\nd,4,4,1,0\n"
        huge = "e," + "1" * 200_000 + ",1,1,0\n"
        message = self.refused(tmp_path, text + huge)
        assert message == "row at line 6: field larger than field limit (131072)"
        path = tmp_path / "latin.csv"
        path.write_bytes((self.HEADER + text + "f,5,5,1,0\n").encode() + b"\xff,6,6,1,0\n")
        with pytest.raises(ParseError, match="is not UTF-8 text$"):
            load_arrays(path)


def test_load_peak_memory_is_a_few_times_what_it_keeps(tmp_path, gen):
    # the transient cell text of one block, not of the whole file
    z, w, psi, sigma = random_dataset(gen, m=20_000, p=2)
    path = tmp_path / "areas.csv"
    save_dataset(make_areas(z, w, psi, sigma), path)
    tracemalloc.start()
    try:
        data = load_arrays(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data.ids) == 20_000
    assert peak <= 4 * retained


class TestWriteCsv:
    def test_formats_by_type(self, tmp_path):
        columns = {
            "area_id": ["a", "b,c", "d"],
            "value": np.array([1.0 / 3.0, -0.0, 1e-310]),
            "count": [3, 4, 5],
            "flag": [True, False, True],
        }
        write_csv(tmp_path / "t.csv", columns)
        assert (tmp_path / "t.csv").read_bytes() == (
            b"area_id,value,count,flag\r\n"
            b"a,0.33333333333333331,3,true\r\n"
            b'"b,c",-0,4,false\r\n'
            b"d,9.9999999999999694e-311,5,true\r\n"
        )


class TestWriteJson:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, object()])
    def test_unserializable_value_leaves_no_file(self, tmp_path, bad):
        path = tmp_path / "report.json"
        with pytest.raises((TypeError, ValueError)):
            write_json({"a": 1.0, "b": [2.0, bad]}, path)
        assert not path.exists()

    def test_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        write_json({"b": [0.1, 2], "a": "x"}, path)
        assert path.read_text() == '{\n  "a": "x",\n  "b": [\n    0.1,\n    2\n  ]\n}\n'


class TestManifest:
    def test_written_fields_round_trip(self, tmp_path):
        import json

        manifest = RunManifest(
            command="logsae fit data.csv",
            config={"dataset": "data.csv"},
            seed=None,
            version="0.1.0",
            input_sha256="ab" * 32,
            started_at="2026-08-16T00:00:00+00:00",
            finished_at="2026-08-16T00:00:01+00:00",
            n_workers=2,
        )
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        payload = json.loads(path.read_text())
        assert payload["command"].startswith("logsae fit")
        assert payload["n_workers"] == 2 and payload["seed"] is None
