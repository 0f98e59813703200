"""The result writers against the standard library's csv and json writers."""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsae.dataio import write_csv, write_json

# text with every character csv quotes for, the empty string and non-ASCII
_TEXT = st.text(
    st.one_of(st.sampled_from(',"\r\n a1'), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, math.inf, -math.inf]),
)


def _text(value) -> str:
    """A cell's text as the writer documents it."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return value


def _csv_reference(columns) -> bytes:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows(zip(*([_text(v) for v in values] for values in columns.values())))
    return fh.getvalue().encode("utf-8")


def _column(n):
    """A strategy for one column of ``n`` values, of any kind the writer takes."""
    return st.one_of(
        st.lists(_TEXT, min_size=n, max_size=n),
        st.lists(st.integers(), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(_FLOATS, min_size=n, max_size=n),
        st.lists(_FLOATS, min_size=n, max_size=n).map(np.array),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)
        ),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    )


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 5))
    names = draw(st.lists(_TEXT, max_size=3, unique=True))
    return {name: draw(_column(n)) for name in names}


@settings(max_examples=300, deadline=None)
@given(columns=_tables())
def test_write_csv_matches_the_csv_module(columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_csv(path, columns)
        with open(path, "rb") as fh:
            assert fh.read() == _csv_reference(columns)


def test_write_csv_matches_the_csv_module_across_blocks(tmp_path):
    m = 2 * 4096 + 3
    gen = np.random.default_rng(3)
    columns = {
        "area_id": [f"a{i}" if i % 5 else f'"{i}",' for i in range(m)],
        "value": gen.standard_normal(m) * 10.0 ** gen.integers(-300, 300, size=m),
        "flag": gen.standard_normal(m) > 0,
    }
    write_csv(tmp_path / "t.csv", columns)
    assert (tmp_path / "t.csv").read_bytes() == _csv_reference(columns)


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="column 'b' has 2 values, but column 'a' has 3"):
        write_csv(path, {"a": [1, 2, 3], "b": np.array([1.0, 2.0])})
    assert not path.exists()


def test_write_csv_numpy_bool_in_a_list_is_lowercase(tmp_path):
    columns = {
        "a": [np.bool_(False), np.bool_(True)],
        "b": np.array([False, True]),
        "c": [False, True],
    }
    write_csv(tmp_path / "t.csv", columns)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"a,b,c\r\nfalse,false,false\r\ntrue,true,true\r\n"
    )


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_JSON_KEYS = st.one_of(_TEXT, st.integers(), st.floats(), st.booleans(), st.none())
_JSON = st.recursive(
    _JSON_SCALARS | st.sampled_from([1j, b"x", frozenset()]),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_FLOATS, max_size=4),
        st.lists(_TEXT, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_JSON_KEYS, children, max_size=2),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(obj=_JSON)
def test_write_json_matches_the_json_module(obj):
    fh = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        try:
            json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                write_json(obj, path)
            assert not os.path.exists(path)
            return
        write_json(obj, path)
        with open(path, "rb") as out:
            assert out.read() == (fh.getvalue() + "\n").encode("utf-8")


def test_write_json_refuses_a_circular_reference(tmp_path):
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        write_json({"a": loop}, tmp_path / "t.json")


def test_failed_write_json_keeps_the_previous_file(tmp_path):
    path = tmp_path / "report.json"
    write_json({"a": [1.0, 2.0]}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_json({"a": [1.0, math.nan]}, path)
    assert path.read_bytes() == before
