"""Output checks for one command, against oracles this benchmark computes itself.

Each check parses the rendered CSV or JSON text and returns a CheckResult.
A command fails when its row count is wrong, a value breaks a gate, or the
text cannot be parsed.  The gates are the acceptance suite's: Kronig-Penney
z to 1e-12, dual-path agreement to 1e-10 for N <= 64, displacement delay
shifts to 1e-6, unitarity defect to the CLI's default 1e-10.  The long-chain
gate is new here: T_recurrence within 1e-9 relative of a 30-digit mpmath
Chebyshev evaluation, and exactly 0 where the true value underflows.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Optional

import mpmath

KP_TOL = 1e-12
DUAL_PATH_TOL = 1e-10
UNITARITY_TOL = 1e-10
DELAY_SHIFT_TOL = 1e-6
CHAIN_REL_TOL = 1e-9
MIN_NORMAL = 2.2250738585072014e-308
UNDERFLOW = 2.0 ** -1076  # a quarter of the smallest subnormal: must print as 0.0


@dataclass
class CheckResult:
    ok: bool
    message: str = ""
    oracle_err: Optional[float] = None
    unitarity_defect: Optional[float] = None
    dual_path_diff: Optional[float] = None


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Rows as dicts of floats (or None for empty/null cells)."""
    if fmt == "json":
        return json.loads(text)["rows"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return []
    header = rows[0]
    out = []
    for raw in rows[1:]:
        row = {}
        for key, value in zip(header, raw, strict=True):
            if value == "":
                row[key] = None
            else:
                try:
                    row[key] = float(value)
                except ValueError:
                    row[key] = value
        out.append(row)
    return out


def _worst(errors) -> float:
    """Largest error; NaN counts as infinitely wrong."""
    return max((math.inf if math.isnan(e) else e for e in errors), default=0.0)


def _max(values) -> Optional[float]:
    """Largest emitted value, skipping empty cells; None when all are empty."""
    values = [v for v in values if v is not None]
    return _worst(values) if values else None


def kp_oracle_err(rows: list[dict], g: float, a: float) -> float:
    """Worst |z - z_KP| / max(1, |z_KP|) over a bands table."""
    def err(k, z):
        z_kp = math.cos(k * a) + (g / k) * math.sin(k * a)
        return abs(z - z_kp) / max(1.0, abs(z_kp))

    return _worst(err(row["k"], row["z"]) for row in rows)


def chebyshev_T(g: float, a: float, k: float, n: int) -> mpmath.mpf:
    """|t^(N)|^2 of the delta comb at 30 digits: 1 / (1 + (g/k)^2 U_{N-1}(z)^2)."""
    with mpmath.workdps(30):
        g, a, k = mpmath.mpf(g), mpmath.mpf(a), mpmath.mpf(k)
        u = g / k
        z = mpmath.cos(k * a) + u * mpmath.sin(k * a)
        if abs(z) < 1:
            theta = mpmath.acos(z)
            cheb = mpmath.sin(n * theta) / mpmath.sin(theta)
        else:
            eta = mpmath.acosh(abs(z))
            cheb = mpmath.sinh(n * eta) / mpmath.sinh(eta)
        return 1 / (1 + u * u * cheb * cheb)


def sample_ns(n_max: int, count: int = 64) -> list[int]:
    """About ``count`` chain lengths in 1..n_max, half geometric and half linear."""
    half = count // 2
    ns = {round(n_max ** (i / (half - 1))) for i in range(half)}
    ns |= {1 + round((n_max - 1) * i / (half - 1)) for i in range(half)}
    return sorted(ns)


def chain_oracle_err(rows: list[dict], g: float, a: float, k0: float) -> float:
    """Worst relative error of T_recurrence against chebyshev_T at sampled N.

    Below the smallest normal double the error is measured against that
    threshold; a true value that underflows must be printed as exactly 0.
    """
    def err(n):
        row = rows[n - 1]
        if row["N"] != n:
            return math.inf
        got, true = row["T_recurrence"], chebyshev_T(g, a, k0, n)
        if true < UNDERFLOW:
            return 0.0 if got == 0.0 else math.inf
        return float(abs(got - true) / max(true, MIN_NORMAL))

    return _worst(err(n) for n in sample_ns(len(rows)))


def displacement_err(rows: list[dict], a: float) -> float:
    """Worst deviation from dtau_l = +2a/k, dtau_r = -2a/k, dtau_t = 0."""
    def err(row):
        shift = 2.0 * a / row["k"]
        dl, dr, dt = row["dtau_l"], row["dtau_r"], row["dtau_t"]
        if dl is None or dr is None or dt is None:
            return math.inf
        return _worst((abs(dl - shift), abs(dr + shift), abs(dt)))

    return _worst(err(row) for row in rows)


def check_output(check: str, params: dict, expect_rows: int, text: str, fmt: str) -> CheckResult:
    """Run the named check on one command's rendered output."""
    try:
        rows = parse_rows(text, fmt)
    except (ValueError, KeyError, TypeError, csv.Error) as exc:
        return CheckResult(False, f"unparsable output: {exc}")
    if len(rows) != expect_rows:
        return CheckResult(False, f"expected {expect_rows} rows, got {len(rows)}")
    try:
        return _CHECKS[check](rows, params)
    except (KeyError, TypeError, ValueError) as exc:
        return CheckResult(False, f"malformed row: {exc!r}")


def _rows_only(rows, params):
    return CheckResult(True)


def _cell(rows, params):
    defect = _max(r["unitarity_defect"] for r in rows)
    return CheckResult(defect <= UNITARITY_TOL, f"unitarity {defect:.3e}",
                       unitarity_defect=defect)


def _bands(rows, params):
    err = kp_oracle_err(rows, params["g"], params["a"])
    return CheckResult(err <= KP_TOL, f"Kronig-Penney z error {err:.3e}", oracle_err=err)


def _chain(rows, params):
    defect = _max(r["unitarity_defect"] for r in rows)
    diff = _max(r["dual_path_diff"] for r in rows)
    gated = _max(r["dual_path_diff"] for r in rows if r["N"] <= params["gate_n"])
    ok = defect <= UNITARITY_TOL and gated <= DUAL_PATH_TOL
    return CheckResult(ok, f"unitarity {defect:.3e}, dual path (N<={params['gate_n']}) {gated:.3e}",
                       unitarity_defect=defect, dual_path_diff=diff)


def _chain_oracle(rows, params):
    base = _chain(rows, params)
    err = chain_oracle_err(rows, params["g"], params["a"], params["k0"])
    base.ok = base.ok and err <= CHAIN_REL_TOL
    base.message += f", mpmath T error {err:.3e}"
    base.oracle_err = err
    return base


def _packet(rows, params):
    ok = all(0.0 <= r["averaged_T"] <= 1.0 and 0.0 <= r["pointwise_T_k0"] <= 1.0
             for r in rows)
    return CheckResult(ok, "averaged and pointwise T within [0, 1]")


def _displaced(rows, params):
    err = displacement_err(rows, params["a"])
    return CheckResult(err <= DELAY_SHIFT_TOL, f"displacement law error {err:.3e}",
                       oracle_err=err)


_CHECKS = {
    "rows": _rows_only,
    "cell": _cell,
    "bands": _bands,
    "chain": _chain,
    "chain_oracle": _chain_oracle,
    "packet": _packet,
    "displaced": _displaced,
}
