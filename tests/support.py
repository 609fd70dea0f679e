"""Helpers that only the tests use: the free-propagation matrix, the
scattering-to-transfer conversion with its matrix product (the reverse of
the package's transfer_to_smatrix path), amplitudes whose squared modulus
numpy rounds differently from CPython, and the scalar closed forms of the
cells, of composition and of displacement, which the package's array forms
must equal bit for bit."""

import cmath
import functools

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
