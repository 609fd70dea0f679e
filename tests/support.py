"""Helpers that only the tests use: the free-propagation matrix, the
scattering-to-transfer conversion with its matrix product (the reverse of
the package's transfer_to_smatrix path), amplitudes whose squared modulus
numpy rounds differently from CPython, the scalar closed forms of the
cells, of composition and of displacement, which the package's array forms
must equal bit for bit, the closed form's kernel in one unplanned pass, and
the CLI's per-cell CSV rendering."""

import cmath
import csv
import functools
import io

import numpy as np

from scatterchain import (
    MODULUS_FLOOR,
    DeltaSpike,
    PiecewiseConstant,
    RectBarrier,
    ResonanceDivergenceError,
    ScatteringMatrix,
    SingularConversionError,
    TransferMatrix,
    WaveNumber,
)
from scatterchain.chain import CHEBYSHEV_EDGE_WINDOW


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


def pow_square_mismatches(count: int, seed: int) -> np.ndarray:
    """count complex values whose modulus m has m ** 2 != m * m.

    CPython squares a float with libm pow, numpy's ** 2 with a product; an
    array form that should equal a scalar abs(t) ** 2 fails on these values
    if it squares the numpy way.
    """
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        z = complex(*rng.uniform(-1.0, 1.0, 2).tolist())
        if abs(z) ** 2 != abs(z) * abs(z):
            found.append(z)
    return np.array(found)


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


# --- the closed form in one pass, and per-cell CSV ---------------------------

def unplanned_closed_form(z, rho, N):
    """U_{N-1}(z) and 1 / (1 + rho U_{N-1}(z)^2), broadcast over (z, rho, N),
    with the band/gap/edge split and every branch evaluated in one pass;
    chebyshev_closed_form must equal it bit for bit."""
    z, rho, N = np.asarray(z, dtype=float), np.asarray(rho, dtype=float), np.asarray(N)
    if (N < 1).any():
        raise ValueError("cell counts must be >= 1")
    zeros = np.zeros(np.broadcast(z, rho, N).shape or (1,))
    z, rho, N = z + zeros, rho + zeros, N + zeros
    abs_z = np.abs(z)
    band = abs_z < 1.0 - CHEBYSHEV_EDGE_WINDOW
    gap = abs_z > 1.0 + CHEBYSHEV_EDGE_WINDOW
    edge = ~(band | gap)
    u = np.zeros(z.shape)

    if band.any():
        gamma = np.arccos(z[band])
        u[band] = np.sin(N[band] * gamma) / np.sin(gamma)
    if edge.any():
        z_edge, orders = z[edge], N[edge].astype(int) - 1
        distinct, which = np.unique(z_edge, return_inverse=True)
        values = np.empty(z_edge.size)
        for j, zj in enumerate(distinct.tolist()):
            mine = which == j
            seq = [1.0, 2.0 * zj]
            for _ in range(int(orders[mine].max()) - 1):
                seq.append(2.0 * zj * seq[-1] - seq[-2])
            values[mine] = np.array(seq)[orders[mine]]
        u[edge] = values
    t = 1.0 / (1.0 + rho * u * u)
    if gap.any():
        z_gap, n_gap = z[gap], N[gap]
        eta = np.arccosh(np.abs(z_gap))
        ratio = np.expm1(-2.0 * n_gap * eta) / np.expm1(-2.0 * eta)
        log_u = (n_gap - 1.0) * eta + np.log(ratio)
        sign = np.where((z_gap < 0.0) & (n_gap % 2 == 0), -1.0, 1.0)
        with np.errstate(over="ignore", divide="ignore"):
            u[gap] = sign * np.exp(log_u)
            t[gap] = np.exp(-np.logaddexp(0.0, np.log(rho[gap]) + 2.0 * log_u))
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
