"""The CLI's table rendering: the typed-column renderer gives the bytes of
json.dumps(indent=2) and of the per-cell CSV writer, on any table of the
column kinds the runners build: float64 and int64 arrays, float64 arrays
with a defined mask, and ASCII text."""

import json
import math
import struct
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scatterchain import cli, csvtext
from scatterchain.cli import _render, _Table, main
from scatterchain.core import LANE_CHUNK
from support import column_table, per_cell_csv, table_rows, typed_column

FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308,
     -1.7976931348623157e308, 0.1, 1e16, 1e-7]
)
INTS = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, -1, 2**63 - 1, -(2**63)])
# keys and text: ASCII without NUL, with the characters that need CSV
# quoting, JSON escapes or care in the % template
TEXT = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=6) | st.sampled_from(
    ['"', '\\', "\n", "\r\n", ",", "%s", "{}", "\x1f\x7f", " ", "100%"]
)
# meta is json.dumps' own, so its text is any text and its values any scalars
META_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["\x00\x1f\x7f", "é ü ñ", " ", "日本"]
)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | META_TEXT
# one strategy per column: floats, ints, floats with undefined cells, text
COLUMNS = (FLOATS, INTS, st.none() | FLOATS, TEXT)


@st.composite
def tables(draw):
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(COLUMNS)) for _ in keys]
    count = draw(st.sampled_from([0, 1, 2, 7]))
    rows = [{key: draw(kind) for key, kind in zip(keys, kinds)} for _ in range(count)]
    meta = {"command": draw(META_TEXT), "config": {draw(META_TEXT): draw(SCALARS)}}
    return meta, keys, rows


# Tables that pin the edge cases of the csv module's quoting, which the
# renderer keeps itself, and of the % template: a lone empty header or cell
# (written ""), a lone undefined cell (written "" too), the characters that
# force quoting and % signs in keys and values, and non-finite floats and
# undefined cells among floats.  Random search finds the lone empty header
# only by chance.
EDGE_TABLES = [
    ({}, [{"": 1.5}]),
    ({}, [{"": ""}, {"": "x"}]),
    ({}, [{"x": ""}]),
    ({}, [{"x": None}, {"x": 1.5}]),
    ({"%": "%%s"}, [{"a,b": "c,d", 'say "hi"': 'a "b"', "cr\r": "x\ry", "lf\n": "x\ny",
                     "%": "%s", "%%": "100%%"}]),
    ({}, [{"x": math.nan, "y": None}, {"x": math.inf, "y": 1.0}, {"x": -math.inf, "y": None}]),
]


def with_edge_tables(test):
    for meta, rows in reversed(EDGE_TABLES):
        test = example((meta, list(rows[0]), rows))(test)
    return test


@given(tables())
@with_edge_tables
@settings(max_examples=400, deadline=None)
def test_json_is_json_dumps(table):
    meta, keys, rows = table
    text = _render(meta, column_table(keys, rows), "json")
    assert text == json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


@given(tables())
@with_edge_tables
@settings(max_examples=400, deadline=None)
def test_csv_is_the_per_cell_writer(table):
    meta, keys, rows = table
    assert _render(meta, column_table(keys, rows), "csv") == per_cell_csv(rows)


def test_columns_of_floats_with_gaps():
    rows = [{"x": v, "n": i} for i, v in enumerate([None, 1.5, math.nan, None, -math.inf, -0.0])]
    table = column_table(["x", "n"], rows)
    text = _render({}, table, "json")
    assert text == json.dumps({"meta": {}, "rows": rows}, indent=2) + "\n"
    assert '"x": null' in text and '"x": NaN' in text and '"x": -Infinity' in text
    assert _render({}, table, "csv").split("\r\n")[1:4] == [",0", "1.5,1", "nan,2"]


def test_columns_of_unequal_length_raise():
    with pytest.raises(ValueError, match="differ in length"):
        _Table({"k": np.arange(3.0), "T": np.array([0.5, 0.25])})


def test_table_of_no_rows_renders_no_rows():
    meta = {"command": "cell"}
    table = _Table({"k": np.array([]), "verdict": []})
    assert len(table) == 0
    assert _render(meta, table, "json") == json.dumps({"meta": meta, "rows": []}, indent=2) + "\n"
    assert _render(meta, table, "csv") == ""


@pytest.mark.parametrize("values, uniform", [
    (np.array([-0.0, -0.0, -0.0]), True),
    (np.array([-0.0, 0.0, -0.0]), False),  # equal, but spelled -0.0 and 0.0
    (np.array([0.0, 0.0, -0.0]), False),
    (np.full(3, math.nan), True),
    (np.array([math.nan, -math.nan, math.nan]), False),  # another bit pattern
    (np.array([7, 7, 7]), True),
    (["Band"] * 3, True),  # hartman's warning column
    ((np.full(3, math.nan), np.ones(3, bool)), True),  # a mask with no undefined cell
    ((np.array([1.0, math.nan, -0.0]), np.zeros(3, bool)), True),  # whatever lies under it
    ((np.array([-0.0, 0.0, 5.0]), np.array([True, True, False])), False),
], ids=["neg-zero", "neg-and-pos-zero", "pos-and-neg-zero", "nan", "nan-payloads", "int",
        "one-str", "one-nan", "none", "zeros-list"])
def test_uniform_columns_are_spelled_once(values, uniform):
    # a column spells its first value once when all its floats are
    # bit-identical, its ints or texts equal, or all its cells undefined:
    # never when floats are merely equal
    table = _Table({"x": values, "n": np.arange(3)})
    assert (table.runs.get("x") == [0]) == uniform and table.runs.get("n") != [0]
    rows = [{"x": x, "n": n} for x, n in zip(table.columns["x"], range(3))]
    assert _render({}, table, "json") == json.dumps({"meta": {}, "rows": rows}, indent=2) + "\n"
    assert _render({}, table, "csv") == per_cell_csv(rows)


def test_a_lone_uniform_column_of_empty_text():
    table = _Table({"": ["", "", ""]})
    assert table.runs == {"": [0]}
    assert _render({}, table, "csv") == '""\r\n""\r\n""\r\n""\r\n'


# A quiet NaN with a payload: it spells NaN, but its bits are not math.nan's.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
# Pools of 2-3 values.  Most hold floats that are equal or spelled alike
# without being the same bits (-0.0 and 0.0, NaN payloads), so a change
# between them must start a new run; None is an undefined cell.
POOLS = [
    (-0.0, 0.0), (0.0, -0.0, 1.5), (math.nan, -math.nan, NAN_PAYLOAD), (7, -1), (None, 0.5),
    (math.inf, 2.0, None), ("", "a,b"), ("x", "%s", '"'),
]


@st.composite
def run_tables(draw):
    """A table of 1-3 columns whose values come from one pool per column, in
    runs of 1-6 equal draws, so that columns of few runs occur, each of its
    typed_column kind with any floats under its mask."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    count = draw(st.integers(0, 16))
    columns = {}
    for key in keys:
        pool = draw(st.sampled_from(POOLS))
        values = []
        while len(values) < count:
            values += [draw(st.sampled_from(pool))] * draw(st.integers(1, 6))
        column = typed_column(values[:count])
        if isinstance(column, tuple):
            floats, defined = column
            under = np.array(draw(st.lists(FLOATS, min_size=count, max_size=count)))
            floats[~defined] = under[~defined]
        columns[key] = column
    return _Table(columns)


@given(run_tables())
@example(_Table({"": ["", "", "", "", "x", "x"]}))  # a lone column of empty text, in runs
@settings(max_examples=400, deadline=None)
def test_columns_of_few_runs_render_as_json_dumps_and_the_per_cell_writer(table):
    rows = table_rows(table)
    assert _render({}, table, "json") == json.dumps({"meta": {}, "rows": rows}, indent=2) + "\n"
    assert _render({}, table, "csv") == per_cell_csv(rows)


@pytest.mark.parametrize("values, starts", [
    (np.array([-0.0, -0.0, 0.0, 0.0, 0.0, -0.0]), [0, 2, 5]),
    (np.array([math.nan, math.nan, NAN_PAYLOAD, NAN_PAYLOAD, -math.nan, -math.nan]), [0, 2, 4]),
    (np.array([math.nan, -math.nan, math.nan, -math.nan]), None),  # 4 runs of 4 values
    (np.array([1.5, 1.5, 2.5, 2.5]), [0, 2]),  # 2 runs of 4: at most half as many
    # undefined cells are one run, whatever lies under the mask
    ((np.array([5.0, math.inf, math.nan, 0.5, 5e-324, -0.0]),
      np.array([False, False, False, True, False, False])), [0, 3, 4]),
    # a mask does not join -0.0 and 0.0
    ((np.array([-0.0, -0.0, 0.0, 0.0, math.nan, 1.0]),
      np.array([True, True, True, True, False, False])), [0, 2, 4]),
    (np.array([3, 3, 3, -1, -1, 3]), [0, 3, 5]),
    (["", "", "", "", "x", "x"], [0, 4]),
    ([s.lower() for s in ("BAND", "BAND", "GAP", "GAP")], [0, 2]),  # equal, not one object
    (np.array([1.0] * 2), [0]),
    (np.array([1.0]), None),  # a run of one row is not half as many runs as rows
    (np.array([]), None),
], ids=["zeros", "nan-payloads", "alternating-nans", "two-of-four", "none-and-float",
        "masked-zeros", "ints", "empty-text", "text-by-value", "pair", "single", "empty"])
def test_runs_start_where_the_spelling_or_object_changes(values, starts):
    table = _Table({"x": values})
    assert table.runs.get("x") == starts


# Floats whose spellings are edge cases: -0.0, a NaN payload, the
# infinities, subnormals, and both sides of repr's switch to an exponent
# (1e-05 against 0.0001, 1e+16 against 1000000000000000.0).
SPELLINGS = [-0.0, NAN_PAYLOAD, math.inf, -math.inf, 5e-324, 1.1125369292536007e-308,
             1e-5, 1e-4, 1e16, 1e15, 0.1, -2.5]
FINITE = [v for v in SPELLINGS if math.isfinite(v)]
# Values that must not reach the output from under a mask.
UNDER = [math.nan, math.inf, -math.inf, 5e-324, -0.0, NAN_PAYLOAD, 1e-310]


def float_arrays(n):
    """Float64 columns of n rows that _Table keeps as arrays: the edge-case
    spellings cycled, with and without the non-finite ones; two columns with
    a run across the first LANE_CHUNK boundary, one of three runs and one of
    too many runs to spell each once; and a strided view, the real part of a
    complex array."""
    i = np.arange(n)
    across = abs(i - LANE_CHUNK) <= 2
    return {
        "spellings": np.resize(SPELLINGS, n),
        "finite": np.resize(FINITE, n)[::-1],
        "three_runs": np.where(across, 0.7, -0.0),
        "many_runs": np.where(across, 0.7, np.where(i % 2 == 0, 1e16, 1e-5)),
        "strided": (np.exp(0.37j * i) * np.resize(FINITE, n)).real,
    }


@pytest.mark.parametrize("n", [0, 1, 2, LANE_CHUNK, LANE_CHUNK + 1, 3 * LANE_CHUNK + 7])
def test_float_arrays_render_as_their_lists(n):
    arrays = float_arrays(n)
    assert n < 2 or not arrays["strided"].flags.contiguous
    table = _Table({**arrays, "N": np.arange(1, n + 1)})
    assert all(isinstance(table.stored[key], np.ndarray) for key in arrays)
    assert "many_runs" not in table.runs
    if n > LANE_CHUNK + 2:
        assert table.runs["three_runs"] == [0, LANE_CHUNK - 2, LANE_CHUNK + 3]
    meta = {"command": "cell"}
    rows = table_rows(table)
    assert _render(meta, table, "json") == json.dumps({"meta": meta, "rows": rows},
                                                      indent=2) + "\n"
    assert _render(meta, table, "csv") == per_cell_csv(rows)


def test_a_lone_float_array():
    table = _Table({"x": np.resize(SPELLINGS, LANE_CHUNK + 1)})
    rows = table_rows(table)
    assert _render({}, table, "json") == json.dumps({"meta": {}, "rows": rows}, indent=2) + "\n"
    assert _render({}, table, "csv") == per_cell_csv(rows)


def test_a_gap_table_keeps_null_phases_beside_phase_arrays():
    # deep in a gap t underflows below MODULUS_FLOOR from N ~ 310 on, so
    # alpha_t has a defined mask, while l and r keep modulus ~1 and their
    # phases are bare arrays
    argv = ["chain", "--cell", "delta:g=5", "--period", "1", "--k0", "1", "--N-max", "400"]
    meta, table = cli.run_chain(cli._resolve(cli.build_parser().parse_args(argv)))
    assert all(isinstance(table.stored[f"alpha_{x}"], np.ndarray) for x in "tlr")
    assert not table.defined["alpha_t"][-1] and table.defined["alpha_t"][0]
    assert "alpha_l" not in table.defined and "alpha_r" not in table.defined
    assert table.columns["alpha_t"][-1] is None
    rows = table_rows(table)
    text = _render(meta, table, "json")
    assert text == json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    assert '"alpha_t": null' in text
    assert _render(meta, table, "csv") == per_cell_csv(rows)


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


def python_texts(values) -> bytes:
    return "".join("%.17g\n" % v for v in values.tolist()).encode()


def spelled_texts(values) -> bytes:
    # spell_17g's fields, each ended by a newline, with their NULs dropped
    fields = np.vstack([csvtext.spell_17g(values), np.full((1, values.size), ord("\n"), np.uint8)])
    return fields.T.tobytes().translate(None, b"\0")


def bits(patterns) -> np.ndarray:
    return np.asarray(patterns, dtype=np.uint64).view(np.float64)


def exact_ties(rng, count):
    """Doubles that lie exactly halfway between two 17-digit decimals: x =
    m / 2^(17 - E) for an odd m with 10^E <= x < 10^(E + 1), E = 0..15,
    where the halving step of x is fine enough; their 18th digit is 5 and
    the rest zero, as in 1000000000000000.25 and 1.00000762939453125."""
    out = []
    for e in range(16):
        step = 2.0 ** (e - 17)
        top = min(10.0 ** (e + 1), 2.0 ** (36 + e))  # where the doubles' spacing is <= step
        whole = rng.uniform(10.0 ** e, top, count) // (2 * step) * (2 * step)
        out.append(whole + step)
    ties = np.concatenate(out)
    assert all(Decimal(v).as_tuple().digits[-1:] == (5,) and len(Decimal(v).as_tuple().digits) == 18
               for v in ties.tolist())
    return ties


@pytest.fixture
def python_calls(monkeypatch):
    """The values spell_17g leaves to Python's own %.17g, as a list per call."""
    calls = []

    def record(values):
        calls.append(list(values))
        return spell(values)

    spell = csvtext._python
    monkeypatch.setattr(csvtext, "_python", record)
    return calls


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_speller_is_python_on_any_floats(values):
    x = np.array(values)
    assert spelled_texts(x) == python_texts(x)


def test_speller_is_python_on_random_bit_patterns():
    rng = np.random.default_rng(20260)
    for _ in range(10):  # 10^6 patterns, 10^5 at a time to keep memory small
        x = bits(rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64))
        assert spelled_texts(x) == python_texts(x)


def test_speller_is_python_where_its_rounding_is_hardest(python_calls):
    rng = np.random.default_rng(17)
    powers = np.array([10.0 ** e for e in range(-323, 309)])
    near = [powers]
    for direction in (0.0, math.inf):
        x = powers
        for _ in range(3):  # 1-3 units in the last place either side
            x = np.nextafter(x, direction)
            near.append(x)
    subnormals = bits(rng.integers(1, 2 ** 52, 2000, dtype=np.uint64))
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, NAN_PAYLOAD,
                         -NAN_PAYLOAD, 5e-324, -5e-324, 2.2250738585072014e-308, 1e250, 1e-250,
                         1.7976931348623157e308, 1e16, 1e17, 99999999999999984.0, 1e-248])
    ties = exact_ties(rng, 64)
    x = np.concatenate([*near, -powers, subnormals, -subnormals, specials, ties, -ties,
                        np.arange(-5000.0, 5000.0) / 128, 2.0 ** np.arange(-1074, 1024)])
    assert spelled_texts(x) == python_texts(x)
    left = np.concatenate([np.array(c) for c in python_calls])
    assert np.isin(ties, left).all()  # every exact tie went to Python
    assert np.isin(subnormals, left).all() and np.isnan(left).any()
    assert not np.isin([0.0, 1.5, 1e16, 1e-248], left).any()  # the fast path spells these


def assembly_table(n):
    """Columns of every kind the block renderer reads, n rows: float arrays
    with -0.0, inf and subnormals, one a strided real part; a float and a
    text column of few runs; ints; floats with undefined cells; text that
    needs CSV quoting; and a header that needs it too."""
    i = np.arange(n)
    values = np.resize([-0.0, math.inf, -math.inf, 5e-324, 1e-310, 0.1, -2.5e-5, 1e22, 3.0], n)
    return {
        "k": np.linspace(0.05, 6.0, n),
        "edge, cases": values,
        "strided": (np.exp(0.37j * i) * np.resize([1e-5, 7.0, -1e300, 0.0], n)).real,
        "runs": np.where(i < n // 2, 0.25, -0.0),
        "N": np.arange(1, n + 1),
        "gaps": (i / 7.0, i % 3 != 0),
        "verdict": ["band" if j < n // 3 else "gap" for j in range(n)],
        'say "hi"': [["band", "", "a,b", 'say "hi"', "x\r\ny"][j % 5] for j in range(n)],
        "ints": i * 7919 - 10 ** 6,
    }


# the block edges of tables of three and of four float columns
SIZES = sorted({0, 1, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS,
                *(csvtext.SPELL_CHUNK // 3 + d for d in (-1, 0, 1)),
                3 * (csvtext.SPELL_CHUNK // 3) + 7,
                *(csvtext.SPELL_CHUNK // 4 + d for d in (-1, 0, 1))})


@pytest.mark.parametrize("n", SIZES)
def test_blocks_are_the_per_cell_writer(n, monkeypatch):
    # 3 float arrays and a masked float column not in runs, so
    # SPELL_CHUNK // 4 rows a block
    table = _Table(assembly_table(n))
    assert {"runs", "verdict"} <= set(table.runs) or n < 2
    rows = table_rows(table)
    text = _render({}, table, "csv")
    assert text == per_cell_csv(rows)
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", n + 1)  # the row template
    assert _render({}, table, "csv") == text


@pytest.mark.parametrize("n", [cli._CSV_BLOCK_ROWS, csvtext.SPELL_CHUNK + 1])
def test_a_lone_float_column_in_blocks(n):
    table = _Table({"x": np.resize(SPELLINGS, n)})
    assert _render({}, table, "csv") == per_cell_csv(table_rows(table))


def test_a_table_of_ordinary_doubles_leaves_nothing_to_python(python_calls):
    # the blocks spell 0.0 in place of a value under a mask, so none of the
    # NaN, infinities and subnormals there goes to Python's %.17g either
    n = cli._CSV_BLOCK_ROWS
    defined = np.arange(n) % 2 == 0
    table = _Table({"k": np.linspace(0.05, 6.0, n), "x": np.linspace(-1.0, 1.0, n) ** 3,
                    "y": (np.where(defined, np.linspace(2.0, 3.0, n), np.resize(UNDER, n)),
                          defined)})
    assert _render({}, table, "csv") == per_cell_csv(table_rows(table))
    assert python_calls == []


@pytest.fixture
def strict():
    """Every warning an error, with numpy's default floating-point error
    handling, as under python -X dev -W error."""
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        yield


# The rows of a block of masked_table: SPELL_CHUNK doubles over four float columns.
MASKED_BLOCK = csvtext.SPELL_CHUNK // 4


def masked_table(n, under=None):
    """Columns of n rows for the masked block path, four of them floats: k;
    a column undefined next to the middle row, the first block edge and
    LANE_CHUNK; one undefined on every row; one of the edge-case spellings,
    undefined on every third row; ints; and text.  Under each mask lie the
    values under, UNDER cycled by default."""
    i = np.arange(n)
    under = np.resize(UNDER if under is None else under, n)
    edges = (abs(i - n // 2) <= 2) | (abs(i - MASKED_BLOCK) <= 2) | (abs(i - LANE_CHUNK) <= 2)
    third = i % 3 == 0
    return {
        "k": np.linspace(0.05, 6.0, n),
        "across": (np.where(edges, under, np.linspace(-1.0, 1.0, n) ** 3), ~edges),
        "undefined": (under.copy(), np.zeros(n, bool)),
        "spellings": (np.where(third, under, np.resize(SPELLINGS, n)), ~third),
        "N": i + 1,
        "verdict": ["gap" if j % 5 else "band" for j in range(n)],
    }


MASKED_SIZES = sorted({cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS,
                       *(MASKED_BLOCK + d for d in (-1, 0, 1)), LANE_CHUNK + 3,
                       3 * MASKED_BLOCK + 7})


@pytest.mark.parametrize("n", MASKED_SIZES)
def test_masked_floats_in_blocks_are_the_per_cell_writer(n, monkeypatch, strict):
    table = _Table(masked_table(n))
    assert set(table.defined) == {"across", "undefined", "spellings"}
    assert table.runs["undefined"] == [0]  # one run of undefined cells
    assert "across" not in table.runs and "spellings" not in table.runs
    rows = table_rows(table)
    assert rows[0]["undefined"] is None and rows[0]["spellings"] is None
    text = _render({}, table, "csv")
    assert text == per_cell_csv(rows)
    assert _render({}, table, "json") == json.dumps({"meta": {}, "rows": rows}, indent=2) + "\n"
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", n + 1)  # the row template
    assert _render({}, table, "csv") == text


@pytest.mark.parametrize("n", [cli._CSV_BLOCK_ROWS - 1, MASKED_BLOCK + 1, LANE_CHUNK + 3])
def test_values_under_a_mask_change_no_byte(n, strict):
    tables = [_Table(masked_table(n, under)) for under in (UNDER, [0.0], [-1.5, 2.5])]
    for fmt in ("csv", "json"):
        assert len({_render({}, table, fmt) for table in tables}) == 1


@pytest.mark.parametrize("n", [cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS,
                               csvtext.SPELL_CHUNK + 1])
@pytest.mark.parametrize("runs", [False, True], ids=["spelled", "in-runs"])
def test_a_lone_masked_column_writes_empty_fields_as_quotes(n, runs, strict):
    # the csv module writes the one empty field of a row as "", so a lone
    # masked column stays on the row template, whether its undefined cells
    # are one long run, spelled once, or scattered
    i = np.arange(n)
    defined = i < n // 3 if runs else i % 3 != 0
    table = _Table({"x": (np.where(defined, np.linspace(0.5, 1.5, n), np.resize(UNDER, n)),
                          defined)})
    assert ("x" in table.runs) == runs
    text = _render({}, table, "csv")
    assert text == per_cell_csv(table_rows(table))
    assert '\r\n""\r\n' in text


def test_hartman_table_holds_arrays_not_lists():
    # tracemalloc size of the table at N = 5e4 (numpy 2.4.6): 5.71 MB while N
    # and increment were Python lists, 2.97 MB as arrays and a defined mask
    n_max = 50_000
    argv = ["hartman", "--cell", "delta:g=5", "--period", "1", "--k0", "1.0",
            "--N-max", str(n_max)]
    cfg = cli._resolve(cli.build_parser().parse_args(argv))
    tracemalloc.start()
    try:
        table = cli.run_hartman(cfg)[1]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == n_max and "increment" in table.defined
    assert size < 80 * n_max

