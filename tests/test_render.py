"""The CLI's table rendering: the typed-column renderer gives the bytes of
json.dumps(indent=2) and of the per-cell CSV writer, on any table of scalars."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scatterchain.cli import _render, main
from support import per_cell_csv

FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308,
     -1.7976931348623157e308, 0.1, 1e16, 1e-7]
)
INTS = st.integers() | st.sampled_from([0, -1, 2**63, -(2**70)])
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ['"', '\\', "\n", "\r\n", ",", "%s", "{}", "\x00\x1f\x7f", "é ü ñ", " ", "日本"]
)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
# one strategy per column: all floats, all ints, floats with gaps, bools,
# strings, and anything at all
COLUMNS = (FLOATS, INTS, st.none() | FLOATS, st.booleans(), TEXT, SCALARS)


@st.composite
def tables(draw):
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(COLUMNS)) for _ in keys]
    count = draw(st.sampled_from([0, 1, 2, 7]))
    rows = [{key: draw(kind) for key, kind in zip(keys, kinds)} for _ in range(count)]
    meta = {"command": draw(TEXT), "config": {draw(TEXT): draw(SCALARS)}}
    return meta, rows


# Tables that pin the edge cases of the csv module's quoting, which the
# renderer keeps itself, and of the % template: a lone empty header or cell
# (written ""), the characters that force quoting and % signs in keys and
# values, non-finite floats and None among floats, and a bool column next to
# an int column (True stays True, not 1).  Random search finds the lone
# empty header only by chance.
EDGE_TABLES = [
    ({}, [{"": 1.5}]),
    ({}, [{"": ""}, {"": "x"}]),
    ({}, [{"x": ""}]),
    ({"%": "%%s"}, [{"a,b": "c,d", 'say "hi"': 'a "b"', "cr\r": "x\ry", "lf\n": "x\ny",
                     "%": "%s", "%%": "100%%"}]),
    ({}, [{"x": math.nan, "y": None}, {"x": math.inf, "y": 1.0}, {"x": -math.inf, "y": None}]),
    ({}, [{"flag": True, "n": 1}, {"flag": False, "n": 0}]),
]


def with_edge_tables(test):
    for table in reversed(EDGE_TABLES):
        test = example(table)(test)
    return test


@given(tables())
@with_edge_tables
@settings(max_examples=400, deadline=None)
def test_json_is_json_dumps(table):
    meta, rows = table
    assert _render(meta, rows, "json") == json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


@given(tables())
@with_edge_tables
@settings(max_examples=400, deadline=None)
def test_csv_is_the_per_cell_writer(table):
    meta, rows = table
    assert _render(meta, rows, "csv") == per_cell_csv(rows)


def test_columns_of_floats_with_gaps():
    rows = [{"x": v, "n": i} for i, v in enumerate([None, 1.5, math.nan, None, -math.inf, -0.0])]
    text = _render({}, rows, "json")
    assert text == json.dumps({"meta": {}, "rows": rows}, indent=2) + "\n"
    assert '"x": null' in text and '"x": NaN' in text and '"x": -Infinity' in text
    assert _render({}, rows, "csv").split("\r\n")[1:4] == [",0", "1.5,1", "nan,2"]


DELTA = ("--cell", "delta:g=1", "--period", "1")
GRID = ("--k-min", "0.5", "--k-max", "4", "--k-count", "9")


@pytest.mark.parametrize("args", [
    ("cell", "--cell", "barrier:V0=2,w=0.5", *GRID),
    # deep in a gap, so alpha_t is null from N ~ 310 on
    ("chain", "--cell", "delta:g=5", "--period", "1", "--k0", "1", "--N-max", "400"),
    ("chain", *DELTA, "--N", "5", *GRID),
    ("bands", *DELTA, *GRID, "--N-max", "8"),
    ("hartman", *DELTA, "--k0", "3.3", "--N-max", "12"),  # increment starts null
    ("delay", *DELTA, "--N", "3", "--displaced", *GRID),
    ("packet", *DELTA, "--k0", "2", "--sigma", "0.05", "--N-max", "5"),
], ids=["cell", "chain-per-n", "chain-per-k", "bands", "hartman", "delay", "packet"])
def test_cli_json_is_its_own_json_dumps(capsys, args):
    assert main([*args, "--format", "json"]) == 0
    out = capsys.readouterr().out
    document = json.loads(out)
    assert document["rows"] and json.dumps(document, indent=2) + "\n" == out
