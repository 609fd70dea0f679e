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


# config keys with their parsers; flags use the same names with dashes
_FIELD_TYPES = {
    "cell": str,
    "period": float,
    "n": int,
    "n_max": int,
    "k_min": float,
    "k_max": float,
    "k_count": int,
    "k0": float,
    "sigma": float,
    "format": str,
    "out": str,
    "tol_edge": float,
    "fd_step": float,
    "tol_unitarity": float,
    "displaced": bool,
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag_name(key: str) -> str:
    return {"n": "--N", "n_max": "--N-max"}.get(key, f"--{key.replace('_', '-')}")


def load_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Read key = value lines; '#' starts a comment.  Returns value and line number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved options for one CLI run (defaults < config file < flags)."""

    command: str
    cell_spec: str
    cell: PotentialCell
    period: Optional[float]
    n: Optional[int]
    n_max: Optional[int]
    k_min: Optional[float]
    k_max: Optional[float]
    k_count: Optional[int]
    k0: Optional[float]
    sigma: Optional[float]
    fmt: str
    out: Optional[str]
    tol_edge: float
    fd_step: float
    tol_unitarity: float
    displaced: bool

    def k_grid(self) -> np.ndarray:
        assert self.k_min is not None and self.k_max is not None and self.k_count
        return np.linspace(self.k_min, self.k_max, self.k_count)

    def lattice(self, n: int) -> Lattice:
        assert self.period is not None
        try:
            return Lattice(self.cell, self.period, n)
        except ValueError as exc:
            raise ConfigError(f"field 'period': {exc}") from exc


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    values: dict[str, object] = {
        "format": "csv",
        "out": None,
        "tol_edge": 1e-9,
        "fd_step": 1e-4,
        "tol_unitarity": 1e-10,
        "displaced": False,
    }
    origins: dict[str, str] = {}
    if args.config:
        for key, (raw, lineno) in load_config_file(args.config).items():
            origin = f"{args.config}:{lineno}"
            caster = _FIELD_TYPES[key]
            try:
                if caster is bool:
                    if raw.lower() not in _BOOL_WORDS:
                        raise ValueError(f"expected true/false, got {raw!r}")
                    values[key] = _BOOL_WORDS[raw.lower()]
                else:
                    values[key] = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"{origin}: field {key!r}: {exc}") from exc
            origins[key] = origin
    for key in _FIELD_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None and not (key == "displaced" and flag_value is False):
            values[key] = flag_value
            origins[key] = _flag_name(key)

    def where(key: str) -> str:
        return origins.get(key, f"field {key!r}")

    def need(key: str) -> object:
        if key not in values or values[key] is None:
            raise ConfigError(
                f"field {key!r} is required for command {args.command!r} "
                f"(set it in the config file or via {_flag_name(key)})"
            )
        return values[key]

    command = args.command
    cell_spec = str(need("cell"))
    cell = parse_cell_spec(cell_spec)

    fmt = str(values["format"])
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{where('format')}: format must be 'csv' or 'json', got {fmt!r}")

    def positive(key: str, value: float) -> float:
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{where(key)}: field {key!r} must be > 0, got {value!r}")
        return float(value)

    if command == "chain" and (values.get("n") is None) == (values.get("n_max") is None):
        raise ConfigError(
            "command 'chain' needs exactly one of 'n' (per-k table) or "
            "'n_max' (per-N table at k0)"
        )
    needs_grid = command in ("cell", "bands", "delay") or (
        command == "chain" and values.get("n_max") is None
    )
    needs_k0 = command in ("hartman", "packet") or (
        command == "chain" and values.get("n_max") is not None
    )

    k_min = k_max = None
    k_count = None
    if needs_grid:
        k_min = positive("k_min", float(need("k_min")))
        k_max = float(need("k_max"))
        if k_max <= k_min:
            raise ConfigError(f"{where('k_max')}: field 'k_max' must exceed k_min")
        k_count = int(need("k_count"))
        if k_count < 2:
            raise ConfigError(f"{where('k_count')}: field 'k_count' must be >= 2")

    k0 = None
    if needs_k0:
        k0 = positive("k0", float(need("k0")))

    n = values.get("n")
    n_max = values.get("n_max")
    if command in ("bands", "hartman", "packet"):
        n_max = int(need("n_max"))
    elif command == "delay" and n is None:
        n = 1
    if n is not None:
        n = int(n)
        if n < 1:
            raise ConfigError(f"{where('n')}: field 'n' must be >= 1, got {n}")
    if n_max is not None:
        n_max = int(n_max)
        if n_max < 1:
            raise ConfigError(f"{where('n_max')}: field 'n_max' must be >= 1, got {n_max}")

    sigma = values.get("sigma")
    if command == "packet":
        sigma = positive("sigma", float(need("sigma")))
        assert k0 is not None
        if k0 - 5.0 * float(sigma) <= 0.0:
            raise ConfigError(f"{where('sigma')}: packet window extends to k <= 0")

    displaced = bool(values.get("displaced", False))

    period = values.get("period")
    needs_period = command in ("chain", "bands", "hartman", "packet") or (
        command == "delay" and (displaced or (n or 1) > 1)
    )
    if needs_period:
        period = positive("period", float(need("period")))
    elif period is not None:
        period = positive("period", float(period))

    cfg = ExperimentConfig(
        command=command,
        cell_spec=cell_spec,
        cell=cell,
        period=period,
        n=n,
        n_max=n_max,
        k_min=k_min,
        k_max=k_max,
        k_count=k_count,
        k0=k0,
        sigma=float(sigma) if sigma is not None else None,
        fmt=fmt,
        out=values.get("out"),
        tol_edge=positive("tol_edge", float(values["tol_edge"])),
        fd_step=positive("fd_step", float(values["fd_step"])),
        tol_unitarity=positive("tol_unitarity", float(values["tol_unitarity"])),
        displaced=displaced,
    )
    if needs_period:
        cfg.lattice(1)  # validates period against the cell support
    return cfg


def _meta(cfg: ExperimentConfig) -> dict:
    return {
        "command": cfg.command,
        "version": __version__,
        "config": {
            "cell": cfg.cell_spec,
            "period": cfg.period,
            "n": cfg.n,
            "n_max": cfg.n_max,
            "k_min": cfg.k_min,
            "k_max": cfg.k_max,
            "k_count": cfg.k_count,
            "k0": cfg.k0,
            "sigma": cfg.sigma,
            "format": cfg.fmt,
            "tol_edge": cfg.tol_edge,
            "fd_step": cfg.fd_step,
            "tol_unitarity": cfg.tol_unitarity,
            "displaced": cfg.displaced,
        },
    }


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
        s = cell_smatrix(cfg.cell, WaveNumber(float(kv)))
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
        z, rho = chebyshev_grid(cfg.cell, cfg.period, k_grid)
        t_cheb = chebyshev_closed_form(z, rho, cfg.n)[1].tolist()
        t_log, _, t, l, r = chain_end_amplitudes(cfg.lattice(cfg.n), k_grid)
        t_rec = np.exp(2.0 * t_log).tolist()
        rows = [
            _chain_row(kv, cfg.n, ScatteringMatrix(t=tv, l=lv, r=rv, k=WaveNumber(kv)),
                       t_r, t_ch, cfg)
            for kv, tv, lv, rv, t_r, t_ch in zip(k_grid.tolist(), t.tolist(), l.tolist(),
                                                 r.tolist(), t_rec, t_cheb)
        ]
        return _meta(cfg), rows
    k = WaveNumber(cfg.k0)
    state = chain_amplitudes(cfg.lattice(cfg.n_max), k)
    z, rho = chebyshev_inputs(cell_smatrix(cfg.cell, k), cfg.period)
    t_cheb = chebyshev_closed_form(z, rho, np.arange(1, cfg.n_max + 1))[1].tolist()
    rows = [
        _chain_row(cfg.k0, n, s, t_rec, t_ch, cfg)
        for n, s, t_rec, t_ch in zip(range(1, cfg.n_max + 1), state.matrices,
                                     state.transmissions.tolist(), t_cheb)
    ]
    return _meta(cfg), rows


def run_bands(cfg: ExperimentConfig):
    rows, inputs = [], []
    for kv in cfg.k_grid():
        k = WaveNumber(float(kv))
        s = cell_smatrix(cfg.cell, k)
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
            cfg.cell, cfg.period, WaveNumber(cfg.k0), cfg.n_max, fd_step=cfg.fd_step
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
    assert cfg.n is not None
    period = cfg.period if cfg.period is not None else max(cfg.cell.support_width, 1.0)
    k_grid = cfg.k_grid()
    displacements = (0.0, period) if cfg.displaced else (0.0,)
    tables = delay_scan(cfg.cell, period, cfg.n, k_grid, fd_step=cfg.fd_step,
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
    count = cfg.k_count if cfg.k_count is not None else max(2001, 32 * cfg.n_max + 1)
    if count % 2 == 0:
        count += 1
    k_values = np.linspace(k0 - 5.0 * sigma, k0 + 5.0 * sigma, count)
    z, rho = chebyshev_grid(cfg.cell, cfg.period, k_values)
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _render(meta: dict, rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        clean = [
            {key: (float(v) if isinstance(v, np.floating) else v) for key, v in row.items()}
            for row in rows
        ]
        return json.dumps({"meta": meta, "rows": clean}, indent=2) + "\n"
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
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--cell", help='cell spec, e.g. "delta:g=1" or "barrier:V0=2,w=1"')
        p.add_argument("--period", type=float, help="lattice period a")
        p.add_argument("--k-min", dest="k_min", type=float)
        p.add_argument("--k-max", dest="k_max", type=float)
        p.add_argument("--k-count", dest="k_count", type=int)
        p.add_argument("--N", dest="n", type=int, help="fixed chain length")
        p.add_argument("--N-max", dest="n_max", type=int, help="largest chain length")
        p.add_argument("--k0", type=float, help="single wave number for per-N scans")
        p.add_argument("--sigma", type=float, help="wave-packet width in k")
        p.add_argument("--tol-edge", dest="tol_edge", type=float)
        p.add_argument("--fd-step", dest="fd_step", type=float)
        p.add_argument("--tol-unitarity", dest="tol_unitarity", type=float)
        if name == "delay":
            p.add_argument(
                "--displaced", action="store_true", default=None,
                help="also tabulate the system displaced by one period",
            )
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
    text = _render(meta, rows, cfg.fmt)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
