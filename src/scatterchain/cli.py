"""Command-line front end: config-driven scans emitting CSV or JSON tables.

Subcommands: cell | chain | bands | hartman | delay | packet.  Options come
from an optional key=value config file plus flags; flags win.  Exit codes:
0 success, 2 config error, 3 numerical-contract violation or arithmetic
failure (overflow, non-finite amplitude, vanished denominator, amplitude
below floor).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import re
import sys
from dataclasses import make_dataclass
from typing import Optional

import numpy as np

from . import __version__, csvtext
from .analysis import (
    DEFAULT_EDGE_TOL,
    _delay_lanes,
    _hartman_delays,
    _packet_profile,
    band_class_lanes,
)
from .cells import DeltaSpike, Lattice, PiecewiseConstant, PotentialCell, RectBarrier, cell_lanes
from .chain import _end_amplitudes, chain_amplitudes, chebyshev_closed_form, chebyshev_input_lanes
from .core import (
    LANE_CHUNK,
    MODULUS_FLOOR,
    WaveNumber,
    _defined,
    principal_phase_array,
    unitarity_defect_lanes,
)
from .errors import ConfigError


class _ContractViolation(Exception):
    """Raised when emitted data would break a numerical invariant (exit 3)."""


def parse_cell_spec(text: str) -> PotentialCell:
    """Build a cell from "delta:g=..", "barrier:V0=..,w=.." or "piecewise:w1:V1,..."."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ConfigError(f"field 'cell': expected 'kind:params', got {text!r}")
    try:
        if kind == "delta":
            params = _parse_params(rest, ("g",))
            return DeltaSpike(params["g"])
        if kind == "barrier":
            params = _parse_params(rest, ("V0", "w"))
            return RectBarrier(params["V0"], params["w"])
        if kind == "piecewise":
            segments = []
            for part in rest.split(","):
                w_str, sep2, v_str = part.partition(":")
                if not sep2:
                    raise ConfigError(
                        f"field 'cell': piecewise segment {part!r} is not 'width:height'"
                    )
                segments.append((float(w_str), float(v_str)))
            return PiecewiseConstant(tuple(segments))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"field 'cell': {exc}") from exc
    raise ConfigError(
        f"field 'cell': unknown kind {kind!r} (expected delta, barrier or piecewise)"
    )


def _parse_params(rest: str, required: tuple[str, ...]) -> dict[str, float]:
    params: dict[str, float] = {}
    for part in rest.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"field 'cell': parameter {part!r} is not 'name=value'")
        key = key.strip()
        if key not in required:
            raise ConfigError(f"field 'cell': unexpected parameter {key!r}")
        if key in params:
            raise ConfigError(f"field 'cell': duplicate parameter {key!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"field 'cell': parameter {key!r}: {exc}") from exc
    for key in required:
        if key not in params:
            raise ConfigError(f"field 'cell': missing parameter {key!r}")
    return params


_FORMATS = ("csv", "json")

# key: (type, default, flag help), in the order the JSON meta echoes them
# ("out" is not echoed).  Every key is a config-file key and, by _flag_name,
# a flag.
_FIELDS = {
    "cell": (str, None, 'cell spec, e.g. "delta:g=1" or "barrier:V0=2,w=1"'),
    "period": (float, None, "lattice period a"),
    "n": (int, None, "fixed chain length"),
    "n_max": (int, None, "largest chain length"),
    "k_min": (float, None, None),
    "k_max": (float, None, None),
    "k_count": (int, None, None),
    "k0": (float, None, "single wave number for per-N scans"),
    "sigma": (float, None, "wave-packet width in k"),
    "format": (str, "csv", "output format"),
    "tol_edge": (float, DEFAULT_EDGE_TOL, None),
    "tol_unitarity": (float, 1e-10, None),
    "displaced": (bool, False, "also tabulate the system displaced by one period"),
    "out": (str, "", "output path (default: stdout)"),
}

_GRID = ("k_min", "k_max", "k_count")

# command: (help, the keys it needs); _required adds the conditional ones
_COMMANDS = {
    "cell": ("single-cell amplitudes over a k grid", ("cell", *_GRID)),
    "chain": ("N-cell transmission via recurrence and Chebyshev paths", ("cell", "period")),
    "bands": ("band/gap classification over a k grid", ("cell", *_GRID, "n_max", "period")),
    "hartman": ("traversal-time saturation versus N at fixed k",
                ("cell", "k0", "n_max", "period")),
    "delay": ("transmission/reflection time delays over a k grid", ("cell", "n", *_GRID)),
    "packet": ("Gaussian wave-packet averaged transmission versus N",
               ("cell", "k0", "n_max", "sigma", "period")),
}


def _positive(value: float, _values: dict) -> bool:
    return math.isfinite(value) and value > 0.0


_POSITIVE = "field {key!r} must be > 0, got {value!r}"
_AT_LEAST_ONE = "field {key!r} must be >= 1, got {value!r}"
_INT64 = "field {key!r} must be < 2**63, got {value!r}"
_ROWS = "field {key!r}: {value!r} rows do not fit in memory"  # per-N tables at k0

# (key, test of its value given all values, message tail), checked in this
# order; a failed test is a config error naming where the value came from
_CHECKS = (
    ("format", lambda v, _: v in _FORMATS, "format must be 'csv' or 'json', got {value!r}"),
    ("k_min", _positive, _POSITIVE),
    ("k_max", lambda v, _: math.isfinite(v), "field 'k_max' must be finite, got {value!r}"),
    ("k_max", lambda v, c: v > c["k_min"], "field 'k_max' must exceed k_min"),
    ("k_count", lambda v, _: v >= 2, "field 'k_count' must be >= 2"),
    ("k0", _positive, _POSITIVE),
    ("n", lambda v, _: v >= 1, _AT_LEAST_ONE),
    ("n", lambda v, _: v < 2 ** 63, _INT64),
    ("n_max", lambda v, _: v >= 1, _AT_LEAST_ONE),
    ("n_max", lambda v, _: v < 2 ** 63, _INT64),
    ("n_max", lambda v, c: c["k0"] is None or v < 2 ** 59, _ROWS),  # 16 bytes a row < 2**63
    ("sigma", _positive, _POSITIVE),
    ("sigma", lambda v, c: c["k0"] - 5.0 * v > 0.0, "packet window extends to k <= 0"),
    ("period", _positive, _POSITIVE),
    ("tol_edge", _positive, _POSITIVE),
    ("tol_unitarity", _positive, _POSITIVE),
)

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag_name(key: str) -> str:
    return {"n": "--N", "n_max": "--N-max"}.get(key, f"--{key.replace('_', '-')}")


def _parse_value(kind: type, text: str):
    if kind is not bool:
        return kind(text)
    if text.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected true/false, got {text!r}")
    return _BOOL_WORDS[text.lower()]


def load_config_file(path: str) -> dict[str, tuple[object, str]]:
    """Read key = value lines; '#' starts a comment.  Returns each key's typed
    value with its origin, "path:line"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    entries: dict[str, tuple[object, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        origin = f"{path}:{lineno}"
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{origin}: expected 'key = value', got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{origin}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{origin}: duplicate key {key!r}")
        try:
            entries[key] = (_parse_value(_FIELDS[key][0], value), origin)
        except ValueError as exc:
            raise ConfigError(f"{origin}: field {key!r}: {exc}") from exc
    return entries


def _lattice(cfg, n: int) -> Lattice:
    try:
        return Lattice(cfg.potential, cfg.period, n)
    except ValueError as exc:
        raise ConfigError(f"field 'period': {exc}") from exc


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [("command", str), ("potential", PotentialCell),
     *((key, kind if default is not None else Optional[kind])
       for key, (kind, default, _) in _FIELDS.items())],
    namespace={
        "__doc__": "Resolved options for one CLI run (defaults < config file < flags): "
                   "one field per key of _FIELDS, plus the command and the parsed cell.",
        "__module__": __name__,
        "k_grid": lambda cfg: np.linspace(cfg.k_min, cfg.k_max, cfg.k_count),
        "lattice": _lattice,
    },
    frozen=True,
)


def _required(command: str, values: dict) -> tuple[str, ...]:
    """The keys command needs: chain needs the k grid and n, or k0 and n_max;
    delay needs period for a displaced table or more than one cell."""
    keys = _COMMANDS[command][1]
    if command == "chain":
        if (values["n"] is None) == (values["n_max"] is None):
            raise ConfigError(
                "command 'chain' needs exactly one of 'n' (per-k table) or "
                "'n_max' (per-N table at k0)"
            )
        keys += (*_GRID, "n") if values["n"] is not None else ("k0", "n_max")
    elif command == "delay" and (values["displaced"] or values["n"] > 1):
        keys += ("period",)
    return keys


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    values = {key: default for key, (_, default, _) in _FIELDS.items()}
    origins: dict[str, str] = {}
    if args.config:
        for key, (value, origin) in load_config_file(args.config).items():
            values[key], origins[key] = value, origin
    for key in _FIELDS:
        if getattr(args, key, None) is not None:
            values[key], origins[key] = getattr(args, key), _flag_name(key)
    if args.command == "delay" and values["n"] is None:
        values["n"] = 1
    required = _required(args.command, values)
    for key in required:
        if values[key] is None:
            raise ConfigError(
                f"field {key!r} is required for command {args.command!r} "
                f"(set it in the config file or via {_flag_name(key)})"
            )
    # A key without a default that the command does not need is neither
    # checked nor echoed: it becomes None.
    for key, (_, default, _) in _FIELDS.items():
        if default is None and key not in required:
            values[key] = None
    for key, test, tail in _CHECKS:
        value = values[key]
        if value is None or test(value, values):
            continue
        where = origins.get(key, f"field {key!r}")
        raise ConfigError(f"{where}: {tail.format(key=key, value=value)}")
    cfg = ExperimentConfig(
        command=args.command, potential=parse_cell_spec(values["cell"]), **values
    )
    if "period" in required:
        cfg.lattice(1)  # validates period against the cell support
    return cfg


def _meta(cfg: ExperimentConfig) -> dict:
    config = {key: getattr(cfg, key) for key in _FIELDS if key != "out"}
    return {"command": cfg.command, "version": __version__, "config": config}


def _run_starts(column: np.ndarray, defined: Optional[np.ndarray] = None) -> Optional[list]:
    """Where each run of values that spell the same starts in column, or None if
    there are more than half as many runs as values: a run holds one text or
    int, or one float bit pattern (so -0.0 is not 0.0), or the cells that
    defined leaves undefined, whatever values lie under it."""
    if column.dtype == object:
        change = column[1:] != column[:-1]
    elif defined is None:
        bits = column.view(f"u{column.itemsize}")
        change = bits[1:] != bits[:-1]
    else:  # 0 under the mask, and a change wherever the mask changes
        bits = np.where(defined, column.view(f"u{column.itemsize}"), 0)
        change = (bits[1:] != bits[:-1]) | (defined[1:] != defined[:-1])
    if 2 * (np.count_nonzero(change) + 1) > len(column):
        return None
    return [0, *(np.flatnonzero(change) + 1).tolist()]


class _Table:
    """Named columns, each a float64 array, an int array, a list of ASCII text
    or a (float64 array, defined mask) pair; len() is the row count.  stored
    holds each column's array (text as an object array), defined the mask of
    each column with an undefined cell, and runs the run starts of each column
    of few runs (_run_starts); columns is the table in plain Python values,
    None where undefined, built on each read."""

    def __init__(self, columns: dict):
        self.stored, self.defined = {}, {}
        for key, column in columns.items():
            if isinstance(column, tuple):
                column, defined = column
                if not defined.all():
                    self.defined[key] = defined
            self.stored[key] = np.array(column, object) if isinstance(column, list) else column
        lengths = {key: len(c) for key, c in self.stored.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        self.runs = {key: starts for key, c in self.stored.items()
                     if (starts := _run_starts(c, self.defined.get(key)))}

    @property
    def columns(self) -> dict:
        return {key: _defined(c, self.defined[key]) if key in self.defined else c.tolist()
                for key, c in self.stored.items()}

    def __len__(self) -> int:
        return len(next(iter(self.stored.values()), ()))


def _unitarity_column(cfg: ExperimentConfig, t, l, r, where) -> np.ndarray:
    """unitarity_defect of every row of the amplitude arrays; the first row,
    in row order, whose defect exceeds tol_unitarity raises, named by where(i)."""
    defect = unitarity_defect_lanes(t, l, r)
    bad = np.flatnonzero(defect > cfg.tol_unitarity)
    if bad.size:
        raise _ContractViolation(
            f"unitarity defect {defect[bad[0]]:.3e} exceeds {cfg.tol_unitarity:.3e} "
            f"at {where(bad[0])}"
        )
    return defect


def _amplitude_columns(cfg: ExperimentConfig, t, l, r, where) -> dict:
    # core.phase_column of each amplitude, as its array and defined mask
    phases = {f"alpha_{x}": (principal_phase_array(z), np.abs(z) >= MODULUS_FLOOR)
              for x, z in zip("tlr", (t, l, r))}
    return {**phases, "unitarity_defect": _unitarity_column(cfg, t, l, r, where)}


def run_cell(cfg: ExperimentConfig):
    k = cfg.k_grid()
    t, l, r = cell_lanes(cfg.potential, k)
    return _meta(cfg), _Table({
        "k": k,
        "re_t": t.real, "im_t": t.imag,
        "re_l": l.real, "im_l": l.imag,
        "re_r": r.real, "im_r": r.imag,
        "T": np.abs(t) ** 2,
        **_amplitude_columns(cfg, t, l, r, lambda i: f"k={k[i]}"),
    })


def run_chain(cfg: ExperimentConfig):
    if cfg.n is not None:
        k = cfg.k_grid()
        n = np.full(k.size, cfg.n)
        cell = cell_lanes(cfg.potential, k)  # one evaluation for both paths
        z, rho = chebyshev_input_lanes(k, cell[0], cfg.period)
        t_log, _, t, l, r = _end_amplitudes(cfg.lattice(cfg.n), k, cell)
        t_rec = np.exp(2.0 * t_log)
    else:
        n = np.arange(1, cfg.n_max + 1)
        k = np.full(n.size, cfg.k0)
        state = chain_amplitudes(cfg.lattice(cfg.n_max), WaveNumber(cfg.k0))
        t, l, r, t_rec = state.t, state.l, state.r, state.transmissions
        z, rho = chebyshev_input_lanes(k[:1], t[:1], cfg.period)  # t^(1) is the cell's t
    t_cheb = chebyshev_closed_form(z, rho, n)[1]
    return _meta(cfg), _Table({
        "k": k, "N": n, "T_recurrence": t_rec, "T_chebyshev": t_cheb,
        "dual_path_diff": np.abs(t_rec - t_cheb),
        **_amplitude_columns(cfg, t, l, r, lambda i: f"k={k[i]}, N={n[i]}"),
    })


def run_bands(cfg: ExperimentConfig):
    k = cfg.k_grid()
    t, l, r = cell_lanes(cfg.potential, k)
    _unitarity_column(cfg, t, l, r, lambda i: f"k={k[i]}")
    z, rho = chebyshev_input_lanes(k, t, cfg.period)
    return _meta(cfg), _Table({
        "k": k, "z": z, "abs_z": np.abs(z),
        "verdict": [kind.value for kind in band_class_lanes(z, cfg.tol_edge)],
        "T_N_max": chebyshev_closed_form(z, rho, cfg.n_max)[1],
    })


def run_hartman(cfg: ExperimentConfig):
    tau, times, warning = _hartman_delays(cfg.potential, cfg.period, WaveNumber(cfg.k0), cfg.n_max)
    n = np.arange(1, cfg.n_max + 1)
    return _meta(cfg), _Table({
        "N": n,
        "tau_t": tau,
        "T_t": times,
        "increment": (np.diff(times, prepend=times[:1]), n > 1),  # none before N = 1
        "warning": [warning] * cfg.n_max,
    })


def run_delay(cfg: ExperimentConfig):
    k_grid = cfg.k_grid()
    tables = _delay_lanes(cfg.potential, cfg.period, cfg.n, k_grid,
                          (0.0, cfg.period) if cfg.displaced else (0.0,))
    columns = {"k": k_grid, **{f"tau_{x}": taus for x, taus in zip("tlr", tables[0])}}
    if cfg.displaced:
        columns.update({f"tau_{x}_displaced": taus for x, taus in zip("tlr", tables[1])})
        columns.update({f"dtau_{x}": (moved - base, ok & moved_ok)
                        for x, (base, ok), (moved, moved_ok) in zip("tlr", *tables)})
    return _meta(cfg), _Table(columns)


def run_packet(cfg: ExperimentConfig):
    k0, sigma = cfg.k0, cfg.sigma
    count = max(2001, 32 * cfg.n_max + 1)  # odd, so k0 is the middle sample
    if 48 * count > np.iinfo(np.intp).max:  # the bytes of cell_lanes' three complex lanes
        raise ConfigError(f"field 'n_max': {count} k samples, 32 N_max + 1, do not fit in an array")
    try:
        with np.errstate(invalid="ignore"):  # an overflowed window end gives NaN samples
            k_values = np.linspace(k0 - 5.0 * sigma, k0 + 5.0 * sigma, count)
            increasing = (np.diff(k_values) > 0.0).all()
        if not increasing:  # the window collapsed to a few doubles or overflowed
            raise ConfigError(f"field 'sigma': the window k0 +- 5 sigma with k0={k0!r} and "
                              f"sigma={sigma!r} has no {count} strictly increasing doubles")
        z, rho = chebyshev_input_lanes(k_values, cell_lanes(cfg.potential, k_values)[0],
                                       cfg.period)
    except MemoryError:
        raise ConfigError(f"field 'n_max': {count} k samples, 32 N_max + 1, do not fit in memory"
                          ) from None
    return _meta(cfg), _Table({
        "N": np.arange(1, cfg.n_max + 1),
        "averaged_T": _packet_profile(z, rho, k_values, k0, sigma, cfg.n_max),
        "pointwise_T_k0": chain_amplitudes(cfg.lattice(cfg.n_max), WaveNumber(k0)).transmissions,
    })


_RUNNERS = {
    "cell": run_cell,
    "chain": run_chain,
    "bands": run_bands,
    "hartman": run_hartman,
    "delay": run_delay,
    "packet": run_packet,
}


# CSV tables of this many rows or more are built in numpy blocks (csvtext):
# below it a block's fixed cost outweighs what its vectorised speller saves.
_CSV_BLOCK_ROWS = 128

# How json spells the non-finite floats and None that repr spells otherwise.
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null"}

# The characters that make the csv module's QUOTE_MINIMAL rule quote a field
# under the "\r\n" line terminator.
_CSV_QUOTED = re.compile('[,"\r\n]').search


def _csv_fields(texts, alone: bool):
    """Each text as a CSV field, by the csv module's QUOTE_MINIMAL rule: a
    text holding a comma, a quote, CR or LF is quoted, its quotes doubled;
    the empty field of a row that has no other (alone) is written as ""."""
    for text in texts:
        if _CSV_QUOTED(text):
            yield '"' + text.replace('"', '""') + '"'
        else:
            yield '""' if alone and not text else text


def _blocks(column: np.ndarray, defined: Optional[np.ndarray] = None):
    # the array's values as Python scalars, None where not defined, from one
    # tolist() per LANE_CHUNK rows, so that at most one block of them is alive
    return itertools.chain.from_iterable(
        column[i:i + LANE_CHUNK].tolist() if defined is None
        else _defined(column[i:i + LANE_CHUNK], defined[i:i + LANE_CHUNK])
        for i in range(0, len(column), LANE_CHUNK))


def _json_scalars(values):
    # repr of each float, int or None, with json's NaN, Infinity, -Infinity and null
    return map(_JSON_SPELLING.get, *itertools.tee(map(repr, values)))


def _cells(fmt: str, values: np.ndarray, defined: Optional[np.ndarray], alone: bool,
           starts: Optional[list] = None):
    """The conversion of a column in the row template, and the cells it fills,
    by the column's dtype and mask: %d for ints in both formats; for floats
    in CSV %.17g, or %s spelled here with 17 digits and an empty field where
    undefined; in JSON as json.dumps spells them, %r where all are finite
    and defined, else %s with json's NaN, Infinity, -Infinity and null; and
    for text %s, quoted by _csv_fields or spelled by json.dumps.  Arrays are
    read in blocks (_blocks).  A column of runs that start at starts spells
    each run's first value once and repeats it.  The block renderer
    (_csv_column) spells floats itself with csvtext.spell_17g: Python's
    %.17g text, byte for byte."""
    if starts is not None:
        heads = None if defined is None else defined[starts]
        conversion, cells = _cells(fmt, values[starts], heads, alone)
        texts = [conversion % (cell,) for cell in cells]
        lengths = map(operator.sub, [*starts[1:], len(values)], starts)
        return "%s", itertools.chain.from_iterable(map(itertools.repeat, texts, lengths))
    if values.dtype == object:
        return "%s", _csv_fields(values, alone) if fmt == "csv" else map(json.dumps, values)
    if values.dtype != np.float64:
        return "%d", _blocks(values)
    if defined is not None:
        if fmt == "json":
            return "%s", _json_scalars(_blocks(values, defined))
        empty = '""' if alone else ""
        return "%s", (empty if v is None else "%.17g" % v for v in _blocks(values, defined))
    if fmt == "csv":
        return "%.17g", _blocks(values)
    if np.isfinite(values).all():
        return "%r", _blocks(values)
    return "%s", _json_scalars(_blocks(values))


def _csv_column(values: np.ndarray, defined, alone: bool, starts: Optional[list]):
    # a column as csvtext.csv_rows reads it: floats not in runs as their
    # (array, mask) pair, any other column as its texts, spelled by _cells
    if starts is None and values.dtype == np.float64:
        return values, defined
    conversion, cells = _cells("csv", values, defined, alone, starts)
    return cells if conversion == "%s" else map(conversion.__mod__, cells)


def _render(meta: dict, table: _Table, fmt: str) -> str:
    """The table as text: the bytes of json.dumps({"meta": meta, "rows":
    rows}, indent=2) plus a newline, with one dict per row under the column
    keys, or RFC 4180 CSV with a header row and CRLF line ends, empty if no
    rows; an undefined cell is null in JSON and empty in CSV.  Keys and
    text are ASCII.  Each column is spelled by its dtype and mask (_cells).
    A CSV table of _CSV_BLOCK_ROWS rows or more, but for a lone masked
    float column (its empty fields are written ""), is built in numpy
    blocks by csvtext.csv_rows, its floats spelled by the vectorised exact
    %.17g.  Any other table, every JSON one included, is filled in row by
    row from one % template of the columns' conversions: the same bytes."""
    if not table:
        return json.dumps({"meta": meta, "rows": []}, indent=2) + "\n" if fmt == "json" else ""
    alone = len(table.stored) == 1
    if fmt == "csv":
        head = ",".join(_csv_fields(table.stored, alone)) + "\r\n"
        if len(table) >= _CSV_BLOCK_ROWS and not (alone and table.defined):
            return csvtext.csv_rows(head, [_csv_column(c, table.defined.get(key), alone,
                                                       table.runs.get(key))
                                           for key, c in table.stored.items()], len(table))
    conversions, cells = zip(*(_cells(fmt, c, table.defined.get(key), alone, table.runs.get(key))
                               for key, c in table.stored.items()))
    if fmt == "json":
        frame, end = json.dumps({"meta": meta, "rows": []}, indent=2).rsplit("[]", 1)
        fields = ",".join(f"\n      {json.dumps(key).replace('%', '%%')}: {conversion}"
                          for key, conversion in zip(table.stored, conversions))
        head, template = frame + "[\n", "    {" + fields + "\n    }"
        sep, tail = ",\n", "\n  ]" + end + "\n"
    else:
        template, sep, tail = ",".join(conversions), "\r\n", "\r\n"
    # one join builds the whole text: concatenating head and tail to it
    # afterwards would copy it, and raise the process's peak memory
    lines = list(map(template.__mod__, zip(*cells)))
    lines[0] = head + lines[0]
    lines[-1] += tail
    return sep.join(lines)


def _write(path: str, text: str) -> None:
    """Write text to path, or to stdout when path is empty."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterchain",
        description="Scattering scans over finite periodic chains of identical cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        for key, (kind, _, key_help) in _FIELDS.items():
            if kind is bool:  # a switch; only delay tabulates a displaced system
                if name == "delay":
                    p.add_argument(_flag_name(key), dest=key, action="store_true",
                                   default=None, help=key_help)
                continue
            p.add_argument(_flag_name(key), dest=key, type=kind, help=key_help,
                           choices=_FORMATS if key == "format" else None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's parser, built on its first call and reused after it: parse_args
    # reads a parser and never changes it
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        meta, table = _RUNNERS[cfg.command](cfg)
        _write(cfg.out, _render(meta, table, cfg.format))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        if cfg.k0 is None:  # not a table of a row per N = 1..n_max
            raise
        print(f"config error: {_ROWS.format(key='n_max', value=cfg.n_max)}", file=sys.stderr)
        return 2
    except _ContractViolation as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # the package's typed failures and float overflow
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
