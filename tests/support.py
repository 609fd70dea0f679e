"""Helpers that only the tests use: the double epsilon that drift bounds
are stated in, the free-propagation matrix, the scattering-to-transfer
conversion with its matrix product (the reverse of the package's
transfer_to_smatrix path), the scalar closed forms of the cells, of
composition, of displacement, of the principal phases and of the closed
form's inputs (z, rho), which the package's array forms must agree with to
stated bounds, the closed form's kernel in one unplanned pass, the two
chain recurrences and the transmission phase slopes one step at a time,
which the package's must equal bit for bit, the CLI's
per-cell CSV rendering, and the CLI's column table built from row dicts, in
the column kinds its runners hand over, and read back into them."""

import cmath
import csv
import functools
import io
import math
import sys
from typing import Optional

import numpy as np

from scatterchain import (
    MODULUS_FLOOR,
    ChainState,
    Lattice,
    DeltaSpike,
    PiecewiseConstant,
    RectBarrier,
    ResonanceDivergenceError,
    ScatteringMatrix,
    SingularConversionError,
    TransferMatrix,
    UndefinedAmplitudeError,
    WaveNumber,
)
from scatterchain.cells import cell_lanes, cell_smatrix
from scatterchain.cli import _Table
from scatterchain.core import _LOG_HUGE, TWO_PI, position_phase, principal_phase

EPS = sys.float_info.epsilon


def identity_smatrix(k: WaveNumber) -> ScatteringMatrix:
    """Free propagation: t = 1 and no reflection."""
    return ScatteringMatrix(t=1.0 + 0.0j, l=0.0 + 0.0j, r=0.0 + 0.0j, k=k)


def smatrix_to_transfer(s: ScatteringMatrix) -> TransferMatrix:
    """Inverse of transfer_to_smatrix; requires |t| > 0.

    Deep-gap composite chains with underflowed t cannot be converted, which
    is why chain composition works in scattering form throughout.
    """
    if abs(s.t) < MODULUS_FLOOR:
        raise SingularConversionError("cannot build transfer matrix: |t| below floor")
    # m11 follows from det = 1.
    return TransferMatrix(
        m11=s.t - s.l * s.r / s.t,
        m12=s.r / s.t,
        m21=-s.l / s.t,
        m22=1.0 / s.t,
        k=s.k,
    )


def matmul(a: TransferMatrix, b: TransferMatrix) -> TransferMatrix:
    """Matrix product a @ b (b acts first, i.e. sits to the left)."""
    if a.k.k != b.k.k:
        raise ValueError("transfer matrices must share the same wave number")
    return TransferMatrix(
        m11=a.m11 * b.m11 + a.m12 * b.m21,
        m12=a.m11 * b.m12 + a.m12 * b.m22,
        m21=a.m21 * b.m11 + a.m22 * b.m21,
        m22=a.m21 * b.m12 + a.m22 * b.m22,
        k=a.k,
    )


# --- scalar reference closed forms ------------------------------------------

def scalar_displace(s: ScatteringMatrix, a: float) -> ScatteringMatrix:
    """s rigidly shifted right by a: l e^{2ika}, r e^{-2ika}, in complex scalars."""
    phase = cmath.exp(2.0j * s.k.k * a)
    return ScatteringMatrix(t=s.t, l=s.l * phase, r=s.r * phase.conjugate(), k=s.k)


def scalar_compose(sA: ScatteringMatrix, sB: ScatteringMatrix) -> ScatteringMatrix:
    """sA followed on its right by sB, by the geometric series in complex scalars."""
    if sA.k.k != sB.k.k:
        raise ValueError("cannot compose scattering matrices at different wave numbers")
    den = 1.0 - sB.l * sA.r
    if abs(den) < 1e-14:
        raise ResonanceDivergenceError(
            "composition denominator 1 - lB*rA vanished; inputs are not a "
            "valid unitary pair"
        )
    return ScatteringMatrix(
        t=sA.t * sB.t / den,
        l=sA.l + sA.t * sA.t * sB.l / den,
        r=sB.r + sB.t * sB.t * sA.r / den,
        k=sA.k,
    )


def _delta_smatrix(g: float, k: WaveNumber) -> ScatteringMatrix:
    # Matching psi'(0+) - psi'(0-) = 2 g psi(0) gives t = 1/(1 + i g/k).
    u = g / k.k
    den = 1.0 + 1.0j * u
    t = 1.0 / den
    lr = -1.0j * u / den
    return ScatteringMatrix(t=t, l=lr, r=lr, k=k)


def _rect_smatrix(V0: float, w: float, k: WaveNumber) -> ScatteringMatrix:
    """Closed-form amplitudes for a rectangular barrier on [0, w].

    Inside wavevector q = sqrt(k^2 - 2*V0) (imaginary under the barrier).
    t = e^{-ikw} / (cos(qw) - (i/2)(k/q + q/k) sin(qw))
    l = -i V0 sin(qw)/(k q) * t * e^{ikw},  r = l * e^{-2ikw}.
    The degenerate case q = 0 (E = V0) uses the linear-solution limit
    sin(qw)/q -> w instead of epsilon-shifting the energy.
    """
    kk = k.k
    q2 = kk * kk - 2.0 * V0
    if q2 == 0.0:
        den = 1.0 - 0.5j * kk * w
        sin_over_q = complex(w)
    else:
        q = cmath.sqrt(complex(q2))
        qw = q * w
        den = cmath.cos(qw) - 0.5j * (kk / q + q / kk) * cmath.sin(qw)
        sin_over_q = cmath.sin(qw) / q
    t = cmath.exp(-1.0j * kk * w) / den
    l = -1.0j * V0 * sin_over_q / kk * t * cmath.exp(1.0j * kk * w)
    r = l * cmath.exp(-2.0j * kk * w)
    return ScatteringMatrix(t=t, l=l, r=r, k=k)


def _piecewise_smatrix(cell: PiecewiseConstant, k: WaveNumber) -> ScatteringMatrix:
    # Compose the closed-form segment matrices left to right; positioning is
    # injected through displace, independent of the transfer-matrix oracle.
    segments, x = [], 0.0
    for width, height in cell.segments:
        segments.append(scalar_displace(_rect_smatrix(height, width, k), x))
        x += width
    return functools.reduce(scalar_compose, segments)


def scalar_cell_smatrix(cell, k: WaveNumber) -> ScatteringMatrix:
    """The cell's closed-form amplitudes at k, one complex scalar at a time."""
    if isinstance(cell, DeltaSpike):
        return _delta_smatrix(cell.g, k)
    if isinstance(cell, RectBarrier):
        return _rect_smatrix(cell.V0, cell.w, k)
    if isinstance(cell, PiecewiseConstant):
        return _piecewise_smatrix(cell, k)
    raise TypeError(f"unsupported cell type: {type(cell).__name__}")


def scalar_principal_phase(z: complex) -> float:
    """Argument of z on the branch (-pi, pi]."""
    p = cmath.phase(z)
    if p <= -math.pi:
        p += TWO_PI
    return p


def scalar_principal_phases(s: ScatteringMatrix) -> tuple[Optional[float], ...]:
    """Principal phases (alpha_t, alpha_l, alpha_r) of the three amplitudes.

    An amplitude whose modulus is below MODULUS_FLOOR has no meaningful
    phase; its slot is returned as None rather than as a number.
    """

    def arg_or_none(z: complex) -> Optional[float]:
        if abs(z) < MODULUS_FLOOR:
            return None
        return scalar_principal_phase(z)

    return arg_or_none(s.t), arg_or_none(s.l), arg_or_none(s.r)


def scalar_unitarity_defect(s: ScatteringMatrix) -> float:
    """max(||t|^2 + |l|^2 - 1|, ||t|^2 + |r|^2 - 1|, |t conj(r) + l conj(t)|)
    in complex scalars."""
    t2 = abs(s.t) ** 2
    left = abs(t2 + abs(s.l) ** 2 - 1.0)
    right = abs(t2 + abs(s.r) ** 2 - 1.0)
    overlap = abs(s.t * s.r.conjugate() + s.l * s.t.conjugate())
    return max(left, right, overlap)


def scalar_bloch_parameter(s_cell: ScatteringMatrix, a: float) -> float:
    """z = cos(alpha_t + k a) / |t| of a single cell, in floats."""
    mod = abs(s_cell.t)
    if mod < MODULUS_FLOOR:
        raise UndefinedAmplitudeError("cell transmission amplitude is below floor")
    phase = scalar_principal_phase(s_cell.t) + s_cell.k.k * a
    if not math.isfinite(phase):
        raise OverflowError(f"alpha_t + k a is not finite at k={s_cell.k.k!r}, a={a!r}")
    return math.cos(phase) / mod


def scalar_chebyshev_inputs(s_cell: ScatteringMatrix, a: float) -> tuple[float, float]:
    """(z, rho) of one cell for the closed form: z = cos(alpha_t + ka)/|t| and
    rho = (1 - |t|^2)/|t|^2, inf where |t|^2 underflows to 0."""
    mod2 = abs(s_cell.t) ** 2
    z = scalar_bloch_parameter(s_cell, a)
    return z, math.inf if mod2 == 0.0 else (1.0 - mod2) / mod2


# --- the chain recurrences, one step at a time -------------------------------

def _vanished(n: int) -> ResonanceDivergenceError:
    return ResonanceDivergenceError(f"recurrence denominator vanished at n={n}; inputs corrupted")


def _stepwise_grow(lattice: Lattice, s_cell: ScatteringMatrix, step) -> ChainState:
    # The loop both recurrences share: step(n, l, r, (t^(n))^2) gives D_n and
    # the next l, r; t^(n+1) = t^(n) t / D_n accumulates in log-polar form,
    # and t^(n) = exp(ln|t^(n)| + i arg t^(n)) underflows to 0 past -_LOG_HUGE.
    mod = abs(s_cell.t)
    if mod < MODULUS_FLOOR:
        raise UndefinedAmplitudeError("cell transmission amplitude is below floor")
    exp, log, phase, floor = cmath.exp, math.log, cmath.phase, -_LOG_HUGE
    lt_c, pt_c = log(mod), principal_phase(s_cell.t)
    lt, pt, l, r = lt_c, pt_c, s_cell.l, s_cell.r
    ts, ls, rs, lts, pts = [s_cell.t], [l], [r], [lt], [pt]
    for n in range(1, lattice.N):
        lt2 = 2.0 * lt
        den, l, r = step(n, l, r, 0j if lt2 < floor else exp(complex(lt2, 2.0 * pt)))
        lt += lt_c - log(abs(den))
        pt += pt_c - phase(den)
        ts.append(0j if lt < floor else exp(complex(lt, pt)))
        ls.append(l)
        rs.append(r)
        lts.append(lt)
        pts.append(pt)
    return ChainState(lattice=lattice, k=s_cell.k, t=ts, l=ls, r=rs, t_log_moduli=lts, t_phases=pts)


def stepwise_chain_amplitudes(lattice: Lattice, k: WaveNumber) -> ChainState:
    """chain_amplitudes one step at a time: each step computes e^{2ikna},
    D_n, both reflections and (t^(n))^2 from cmath.exp in Python complex
    scalars."""
    s_cell = cell_smatrix(lattice.cell, k)
    position_phase(k.k, lattice.a, lattice.N - 1)  # the last cell's e^{2ikna}
    lc, rc, tt = s_cell.l, s_cell.r, s_cell.t * s_cell.t
    exp, two_ik, a = cmath.exp, 2.0j * k.k, lattice.a

    def step(n, l, r, t_sq):
        pos_phase = exp(two_ik * n * a)
        den = 1.0 - lc * r * pos_phase
        if abs(den) < 1e-14:
            raise _vanished(n)
        return den, l + t_sq * lc * pos_phase / den, rc * pos_phase.conjugate() + tt * r / den

    return _stepwise_grow(lattice, s_cell, step)


def stepwise_chain_amplitudes_addleft(lattice: Lattice, k: WaveNumber) -> ChainState:
    """chain_amplitudes_addleft one step at a time, as stepwise_chain_amplitudes."""
    s_cell = cell_smatrix(lattice.cell, k)
    position_phase(k.k, lattice.a, lattice.N - 1)  # the chain's last position
    lc, rc, tt = s_cell.l, s_cell.r, s_cell.t * s_cell.t
    shift = cmath.exp(2.0j * k.k * lattice.a)
    unshift = shift.conjugate()

    def step(n, l, r, t_sq):
        den = 1.0 - l * shift * rc
        if abs(den) < 1e-14:
            raise _vanished(n)
        return den, lc + tt * l * shift / den, r * unshift + t_sq * rc / den

    return _stepwise_grow(lattice, s_cell, step)


def stepwise_transmission_phase_slopes(lattice: Lattice, k: WaveNumber) -> np.ndarray:
    """_transmission_phase_slopes one step at a time: each step computes
    e^{2ikna} from cmath.exp, then D_n, the product rule's D_n'/D_n, r^(n),
    its k-derivative and g_n in Python complex scalars."""
    cell = cell_lanes(lattice.cell, [k.k], derivatives=True)
    tc, lc, rc, g_c, dl_c, dr_c = (complex(x[0]) for x in cell)
    if abs(tc) < MODULUS_FLOOR:
        raise UndefinedAmplitudeError("cell transmission amplitude is below floor")
    position_phase(k.k, lattice.a, lattice.N - 1)  # the last cell's e^{2ikna}
    exp, two_ik, a, tt = cmath.exp, 2.0j * k.k, lattice.a, tc * tc
    g, r, dr = g_c, rc, dr_c
    out = np.full(lattice.N, g.imag)
    for n in range(1, lattice.N):
        pos = exp(two_ik * n * a)
        lc_pos = lc * pos
        den = 1.0 - lc_pos * r
        if abs(den) < 1e-14:
            raise _vanished(n)
        x2i, back = 2j * n * a, pos.conjugate()
        dlog = -(pos * dl_c * r + lc_pos * (dr + x2i * r)) / den
        dr = (dr_c - x2i * rc) * back + tt / den * (2.0 * g_c * r + dr - r * dlog)
        r = rc * back + tt * r / den
        g += g_c - dlog
        out[n] = g.imag
    return out


# --- the closed form in one pass, and per-cell CSV ---------------------------

def unplanned_closed_form(z, rho, N):
    """U_{N-1}(z) and 1 / (1 + rho U_{N-1}(z)^2), broadcast over (z, rho, N),
    with the band/gap split on |z|, every branch and the sign rule
    U_{N-1}(z) = (-1)^{N-1} U_{N-1}(|z|) evaluated in one pass;
    chebyshev_closed_form must equal it bit for bit."""
    z, rho, N = np.asarray(z, dtype=float), np.asarray(rho, dtype=float), np.asarray(N)
    if (N < 1).any():
        raise ValueError("cell counts must be >= 1")
    zeros = np.zeros(np.broadcast(z, rho, N).shape or (1,))
    z, rho, N = z + zeros, rho + zeros, N + zeros
    abs_z = np.abs(z)
    gap = abs_z > 1.0
    band = ~gap
    u = np.zeros(z.shape)

    if band.any():
        gamma = np.arccos(abs_z[band])
        u[band] = np.divide(np.sin(N[band] * gamma), np.sin(gamma), out=N[band],
                            where=gamma != 0.0)
    t = 1.0 / (1.0 + rho * u * u)
    if gap.any():
        n_gap = N[gap]
        eta = np.arccosh(abs_z[gap])
        ratio = np.expm1(-2.0 * n_gap * eta) / np.expm1(-2.0 * eta)
        log_u = (n_gap - 1.0) * eta + np.log(ratio)
        with np.errstate(over="ignore", divide="ignore"):
            u[gap] = np.exp(log_u)
            t[gap] = np.exp(-np.logaddexp(0.0, np.log(rho[gap]) + 2.0 * log_u))
    flip = (z < 0.0) & (N % 2 == 0)
    u[flip] = -u[flip]
    return u, t


def _format_csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def per_cell_csv(rows: list) -> str:
    """The CLI's CSV text of rows, one cell and one isinstance test at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_csv_value(row[key]) for key in header])
    return buffer.getvalue()


def typed_column(values: list):
    """values as the column kind a runner hands the CLI's table: text as a
    list, ints as an int64 array, floats with None where undefined as a
    float64 array with its defined mask (NaN under the mask)."""
    if values and all(isinstance(v, str) for v in values):
        return values
    if values and all(type(v) is int for v in values):
        return np.array(values, dtype=np.int64)
    defined = np.array([v is not None for v in values], dtype=bool)
    return np.array([math.nan if v is None else v for v in values], dtype=np.float64), defined


def column_table(keys: list, rows: list) -> _Table:
    """The CLI's column table of rows, dicts under keys, each column of the
    kind typed_column gives; keys alone name the columns of a table of no
    rows."""
    return _Table({key: typed_column([row[key] for row in rows]) for key in keys})


def table_rows(table: _Table) -> list:
    """One dict per row of the CLI's column table, under its column keys."""
    return [dict(zip(table.columns, row)) for row in zip(*table.columns.values())]


def run_starts(table: _Table) -> dict:
    """The run starts of each column of the CLI's table that is in runs, as lists."""
    return {key: starts.tolist() for key, starts in table.runs.items()}
