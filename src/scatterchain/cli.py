"""Command-line front end: config-driven scans emitting CSV or JSON tables.

Subcommands: cell | chain | bands | hartman | delay | packet.  Options come
from an optional key=value config file plus flags; flags win.  Exit codes:
0 success, 2 config error, 3 numerical-contract violation or arithmetic
failure (overflow, vanished denominator, amplitude below floor).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (
    band_classify,
    delay_scan,
    hartman_scan,
    wavepacket_average,
)
from .cells import (
    DeltaSpike,
    Lattice,
    PiecewiseConstant,
    PotentialCell,
    RectBarrier,
    cell_smatrix,
)
from .chain import (
    chain_amplitudes,
    chain_end_amplitudes,
    chebyshev_closed_form,
    chebyshev_grid,
    chebyshev_inputs,
)
from .core import ScatteringMatrix, WaveNumber, principal_phases, unitarity_defect
from .errors import ConfigError, InBandWarning


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
    "tol_edge": (float, 1e-9, None),
    "fd_step": (float, 1e-4, None),
    "tol_unitarity": (float, 1e-10, None),
    "displaced": (bool, False, "also tabulate the system displaced by one period"),
    "out": (str, None, "output path (default: stdout)"),
}

_GRID = ("k_min", "k_max", "k_count")

# the keys each command needs; _required adds the conditional ones
_REQUIRED = {
    "cell": ("cell", *_GRID),
    "chain": ("cell", "period"),
    "bands": ("cell", *_GRID, "n_max", "period"),
    "hartman": ("cell", "k0", "n_max", "period"),
    "delay": ("cell", *_GRID),
    "packet": ("cell", "k0", "n_max", "sigma", "period"),
}


def _positive(value: float, _values: dict) -> bool:
    return math.isfinite(value) and value > 0.0


_POSITIVE = "field {key!r} must be > 0, got {value!r}"
_AT_LEAST_ONE = "field {key!r} must be >= 1, got {value!r}"

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
    ("n_max", lambda v, _: v >= 1, _AT_LEAST_ONE),
    ("sigma", _positive, _POSITIVE),
    ("sigma", lambda v, c: c["k0"] - 5.0 * v > 0.0, "packet window extends to k <= 0"),
    ("period", _positive, _POSITIVE),
    ("tol_edge", _positive, _POSITIVE),
    ("fd_step", _positive, _POSITIVE),
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved options for one CLI run (defaults < config file < flags): one
    field per key of _FIELDS, plus the command and the parsed cell."""

    command: str
    potential: PotentialCell
    cell: str
    period: Optional[float]
    n: Optional[int]
    n_max: Optional[int]
    k_min: Optional[float]
    k_max: Optional[float]
    k_count: Optional[int]
    k0: Optional[float]
    sigma: Optional[float]
    format: str
    tol_edge: float
    fd_step: float
    tol_unitarity: float
    displaced: bool
    out: Optional[str]

    def k_grid(self) -> np.ndarray:
        return np.linspace(self.k_min, self.k_max, self.k_count)

    def lattice(self, n: int) -> Lattice:
        try:
            return Lattice(self.potential, self.period, n)
        except ValueError as exc:
            raise ConfigError(f"field 'period': {exc}") from exc


def _required(command: str, values: dict) -> tuple[str, ...]:
    """The keys command needs: chain needs the k grid and n, or k0 and n_max;
    delay needs period for a displaced table or more than one cell."""
    keys = _REQUIRED[command]
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
    # A command ignores the scan keys it does not require: the k grid and k0
    # echo as null, sigma as given, and none of them is checked.
    for key in (*_GRID, "k0"):
        if key not in required:
            values[key] = None
    for key, test, tail in _CHECKS:
        value = values[key]
        if value is None or (key == "sigma" and key not in required) or test(value, values):
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


def _check_defect(s: ScatteringMatrix, cfg: ExperimentConfig, context: str) -> float:
    defect = unitarity_defect(s)
    if defect > cfg.tol_unitarity:
        raise _ContractViolation(
            f"unitarity defect {defect:.3e} exceeds {cfg.tol_unitarity:.3e} at {context}"
        )
    return defect


def _smatrix_row(s: ScatteringMatrix, cfg: ExperimentConfig, context: str) -> dict:
    alpha_t, alpha_l, alpha_r = principal_phases(s)
    return {
        "re_t": s.t.real, "im_t": s.t.imag,
        "re_l": s.l.real, "im_l": s.l.imag,
        "re_r": s.r.real, "im_r": s.r.imag,
        "T": s.transmission,
        "alpha_t": alpha_t, "alpha_l": alpha_l, "alpha_r": alpha_r,
        "unitarity_defect": _check_defect(s, cfg, context),
    }


def run_cell(cfg: ExperimentConfig):
    rows = []
    for kv in cfg.k_grid():
        s = cell_smatrix(cfg.potential, WaveNumber(float(kv)))
        rows.append({"k": float(kv), **_smatrix_row(s, cfg, f"k={kv}")})
    return _meta(cfg), rows


def _chain_row(kv: float, n: int, s: ScatteringMatrix, t_rec: float, t_cheb: float,
               cfg: ExperimentConfig) -> dict:
    alpha_t, alpha_l, alpha_r = principal_phases(s)
    return {
        "k": kv, "N": n,
        "T_recurrence": t_rec, "T_chebyshev": t_cheb,
        "dual_path_diff": abs(t_rec - t_cheb),
        "alpha_t": alpha_t, "alpha_l": alpha_l, "alpha_r": alpha_r,
        "unitarity_defect": _check_defect(s, cfg, f"k={kv}, N={n}"),
    }


def run_chain(cfg: ExperimentConfig):
    if cfg.n is not None:
        k_grid = cfg.k_grid()
        ks, ns = [WaveNumber(kv) for kv in k_grid.tolist()], [cfg.n] * k_grid.size
        z, rho = chebyshev_grid(cfg.potential, cfg.period, k_grid)
        t_log, _, t, l, r = chain_end_amplitudes(cfg.lattice(cfg.n), k_grid)
        t_rec = np.exp(2.0 * t_log)
    else:
        k = WaveNumber(cfg.k0)
        ks, ns = [k] * cfg.n_max, list(range(1, cfg.n_max + 1))
        state = chain_amplitudes(cfg.lattice(cfg.n_max), k)
        t, l, r, t_rec = state.t, state.l, state.r, state.transmissions
        z, rho = chebyshev_inputs(cell_smatrix(cfg.potential, k), cfg.period)
    t_cheb = chebyshev_closed_form(z, rho, ns)[1]
    rows = [
        _chain_row(k.k, n, ScatteringMatrix(t=tv, l=lv, r=rv, k=k), t_r, t_ch, cfg)
        for k, n, tv, lv, rv, t_r, t_ch in zip(ks, ns, t.tolist(), l.tolist(), r.tolist(),
                                               t_rec.tolist(), t_cheb.tolist())
    ]
    return _meta(cfg), rows


def run_bands(cfg: ExperimentConfig):
    rows, inputs = [], []
    for kv in cfg.k_grid():
        k = WaveNumber(float(kv))
        s = cell_smatrix(cfg.potential, k)
        _check_defect(s, cfg, f"k={kv}")
        verdict = band_classify(s, cfg.period, tol=cfg.tol_edge)
        inputs.append(chebyshev_inputs(s, cfg.period))
        rows.append({
            "k": float(kv),
            "z": verdict.z,
            "abs_z": abs(verdict.z),
            "verdict": verdict.kind.value,
        })
    z, rho = np.array(inputs).T
    for row, t in zip(rows, chebyshev_closed_form(z, rho, cfg.n_max)[1].tolist()):
        row["T_N_max"] = t
    return _meta(cfg), rows


def run_hartman(cfg: ExperimentConfig):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = hartman_scan(
            cfg.potential, cfg.period, WaveNumber(cfg.k0), cfg.n_max, fd_step=cfg.fd_step
        )
    warning = ""
    for item in caught:
        if issubclass(item.category, InBandWarning):
            warning = str(item.message)
    rows = []
    previous = None
    for rec in records:
        rows.append({
            "N": rec.N,
            "tau_t": rec.tau_t_N,
            "T_t": rec.T_t_N,
            "increment": None if previous is None else rec.T_t_N - previous,
            "warning": warning,
        })
        previous = rec.T_t_N
    return _meta(cfg), rows


def run_delay(cfg: ExperimentConfig):
    period = cfg.period if cfg.period is not None else max(cfg.potential.support_width, 1.0)
    k_grid = cfg.k_grid()
    displacements = (0.0, period) if cfg.displaced else (0.0,)
    tables = delay_scan(cfg.potential, period, cfg.n, k_grid, fd_step=cfg.fd_step,
                        displacements=displacements)
    rows = [
        {"k": kv, "tau_t": tau_t, "tau_l": tau_l, "tau_r": tau_r}
        for kv, tau_t, tau_l, tau_r in zip(k_grid.tolist(), *tables[0])
    ]
    if cfg.displaced:

        def diff(x, y):
            return None if x is None or y is None else y - x

        for row, tau_t, tau_l, tau_r in zip(rows, *tables[1]):
            row.update({
                "tau_t_displaced": tau_t,
                "tau_l_displaced": tau_l,
                "tau_r_displaced": tau_r,
                "dtau_t": diff(row["tau_t"], tau_t),
                "dtau_l": diff(row["tau_l"], tau_l),
                "dtau_r": diff(row["tau_r"], tau_r),
            })
    return _meta(cfg), rows


def run_packet(cfg: ExperimentConfig):
    k0, sigma = cfg.k0, cfg.sigma
    count = max(2001, 32 * cfg.n_max + 1)  # odd, so k0 is the middle sample
    k_values = np.linspace(k0 - 5.0 * sigma, k0 + 5.0 * sigma, count)
    z, rho = chebyshev_grid(cfg.potential, cfg.period, k_values)
    pointwise = chain_amplitudes(cfg.lattice(cfg.n_max), WaveNumber(k0)).transmissions
    rows = []
    for n in range(1, cfg.n_max + 1):
        profile_row = chebyshev_closed_form(z, rho, n)[1]
        rows.append({
            "N": n,
            "averaged_T": wavepacket_average(k_values, profile_row, k0, sigma),
            "pointwise_T_k0": float(pointwise[n - 1]),
        })
    return _meta(cfg), rows


_RUNNERS = {
    "cell": run_cell,
    "chain": run_chain,
    "bands": run_bands,
    "hartman": run_hartman,
    "delay": run_delay,
    "packet": run_packet,
}


def _format_csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render(meta: dict, rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_csv_value(row[key]) for key in header])
    return buffer.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterchain",
        description="Scattering scans over finite periodic chains of identical cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "cell": "single-cell amplitudes over a k grid",
        "chain": "N-cell transmission via recurrence and Chebyshev paths",
        "bands": "band/gap classification over a k grid",
        "hartman": "traversal-time saturation versus N at fixed k",
        "delay": "transmission/reflection time delays over a k grid",
        "packet": "Gaussian wave-packet averaged transmission versus N",
    }
    for name, help_text in specs.items():
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        meta, rows = _RUNNERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _ContractViolation as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # the package's typed failures and float overflow
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = _render(meta, rows, cfg.format)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
