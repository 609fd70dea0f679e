"""Unit-cell potentials and their single-cell scattering data.

Each built-in cell shape gets its scattering amplitudes two independent ways:
closed-form matching solutions, written once on arrays of wave numbers
(cell_lanes, with cell_smatrix its length-1 call), and exact products of
(psi, psi') segment maps (transfer_oracle), which stays scalar.  Both place
the cell with its support starting at x = 0.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (LANE_CHUNK, MODULUS_FLOOR, ScatteringMatrix, WaveNumber, check_finite,
                   compose_lanes, displace_lanes)
from .errors import NonFiniteAmplitudeError, SingularConversionError


@dataclass(frozen=True)
class DeltaSpike:
    """Point interaction V(x) = g * delta(x); g < 0 is attractive.

    The wavefunction derivative jumps by 2*g*psi(0) across the spike.
    """

    g: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", float(self.g))
        if not math.isfinite(self.g):
            raise ValueError("delta strength must be finite")

    @property
    def support_width(self) -> float:
        return 0.0


@dataclass(frozen=True)
class RectBarrier:
    """Rectangular barrier of height V0 (a well for V0 < 0) on [0, w]."""

    V0: float
    w: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "V0", float(self.V0))
        object.__setattr__(self, "w", float(self.w))
        if not math.isfinite(self.V0):
            raise ValueError("barrier height must be finite")
        if not (math.isfinite(self.w) and self.w > 0.0):
            raise ValueError(f"barrier width must be positive, got {self.w!r}")

    @property
    def support_width(self) -> float:
        return self.w


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise-constant profile: consecutive (width, height) segments from x = 0."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        segs = tuple((float(w), float(v)) for w, v in self.segments)
        if not segs:
            raise ValueError("piecewise cell needs at least one segment")
        for w, v in segs:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"segment width must be positive, got {w!r}")
            if not math.isfinite(v):
                raise ValueError("segment height must be finite")
        object.__setattr__(self, "segments", segs)

    @property
    def support_width(self) -> float:
        return sum(w for w, _ in self.segments)


PotentialCell = Union[DeltaSpike, RectBarrier, PiecewiseConstant]


def check_period(a: float) -> None:
    """ValueError unless the lattice period a is finite and positive."""
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"lattice period must be positive, got {float(a)!r}")


@dataclass(frozen=True)
class Lattice:
    """N identical non-overlapping cells with period a; cell n starts at (n-1)*a."""

    cell: PotentialCell
    a: float
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        if not (math.isfinite(self.N) and self.N == int(self.N)):
            raise ValueError(f"cell count must be a whole number, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        check_period(self.a)
        if self.a < self.cell.support_width:
            raise ValueError(
                f"period {self.a} smaller than cell support {self.cell.support_width}: "
                "cells would overlap"
            )
        if self.N < 1:
            raise ValueError(f"cell count must be >= 1, got {self.N}")


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 matrix mapping plane-wave coefficients (A, B) of A*e^{ikx} + B*e^{-ikx}
    on the left of a scatterer to the coefficients on its right.

    For a real potential det M = 1 and M has the structure
    m22 = conj(m11), m21 = conj(m12).
    """

    m11: complex
    m12: complex
    m21: complex
    m22: complex
    k: WaveNumber

    def __post_init__(self) -> None:
        for name in ("m11", "m12", "m21", "m22"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise NonFiniteAmplitudeError(
                    f"entry {name!r} must be finite, got {value!r}"
                )
            object.__setattr__(self, name, value)

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def defect(self) -> float:
        """Deviation from the real-potential structure: max of |det - 1| and
        the two conjugacy residuals."""
        return max(
            abs(self.det - 1.0),
            abs(self.m22 - self.m11.conjugate()),
            abs(self.m21 - self.m12.conjugate()),
        )


def _delta_lanes(g: float, k, derivatives: bool = False):
    # Matching psi'(0+) - psi'(0-) = 2 g psi(0) gives t = 1/(1 + i g/k); with
    # u = g/k, d ln t/dk = i u/(k D) and dl/dk = dr/dk = i u/(k D^2), D = 1 + i u.
    u = g / k
    den = 1.0 + 1j * u
    lr = -1j * u / den
    if not derivatives:
        return 1.0 / den, lr, lr
    g_t = 1j * u / (k * den)
    return 1.0 / den, lr, lr, g_t, g_t / den, g_t / den


# Taylor coefficients in x = q^2 w^2 of dS/d(q^2) / w^3, S = sin(qw)/q: the
# n-th is (-1)^n n/(2n+1)!, for n = 1..10; at |x| <= 1 the first omitted
# one is below 1e-21.
_DS_SERIES = tuple((-1) ** n * n / math.factorial(2 * n + 1) for n in range(10, 0, -1))


def _rect_lanes(V0: float, w: float, k, derivatives: bool = False):
    """Closed-form amplitudes for a rectangular barrier on [0, w].

    Inside wavevector q = sqrt(k^2 - 2*V0) (imaginary under the barrier).
    t = e^{-ikw} / (cos(qw) - (i/2)(k/q + q/k) sin(qw))
    l = -i V0 sin(qw)/(k q) * t * e^{ikw},  r = l * e^{-2ikw}.
    The degenerate case q = 0 (E = V0) uses the linear-solution limit
    sin(qw)/q -> w instead of epsilon-shifting the energy.

    With derivatives, also d ln t/dk, dl/dk and dr/dk.  In s = q^2, with
    C = cos(qw) and S = sin(qw)/q (both entire in s), the denominator is
    D = C - i S (k - V0/k), and d/dk = 2k d/ds; dS/ds = (wC - S)/(2s) is
    summed as its Taylor series where |s w^2| <= 1, so that it stays exact
    through s = 0 and no 1/q appears.
    """
    q2 = k * k - 2.0 * V0
    q = np.sqrt(q2 + 0j)
    cos_qw, sin_qw = np.cos(q * w), np.sin(q * w)
    degenerate = q2 == 0.0
    den = np.where(degenerate, 1.0 - 0.5j * k * w,
                   cos_qw - 0.5j * (k / q + q / k) * sin_qw)
    sin_over_q = np.where(degenerate, w, sin_qw / q)
    t = np.exp(-1j * k * w) / den
    l = -1j * V0 * sin_over_q / k * t * np.exp(1j * k * w)
    back = np.exp(-2j * k * w)
    if not derivatives:
        return t, l, l * back
    x = q2 * w * w
    ds = np.where(np.abs(x) <= 1.0, np.polyval(_DS_SERIES, x) * w ** 3,
                  (w * cos_qw - sin_over_q) / (2.0 * q2))
    dlog = (-k * w * sin_over_q - 1j * (2.0 * (k * k - V0) * ds
                                        + sin_over_q * (1.0 + V0 / (k * k)))) / den
    dl = -1j * V0 / (k * den) * (2.0 * k * ds - sin_over_q * (1.0 / k + dlog))
    return t, l, l * back, -1j * w - dlog, dl, (dl - 2j * w * l) * back


def _piecewise_lanes(cell: PiecewiseConstant, k, derivatives: bool = False):
    # Compose the closed-form segment matrices left to right; positioning is
    # injected through displace_lanes, independent of the transfer-matrix oracle.
    segments, x = [], 0.0
    for width, height in cell.segments:
        t, l, r, *dk = _rect_lanes(height, width, k, derivatives)  # dk: [g, dl, dr] or []
        l, r, *dl_dr = displace_lanes(k, l, r, x, *dk[1:])
        segments.append((t, l, r, *dk[:1], *dl_dr))
        x += width
    return functools.reduce(compose_lanes, segments)


def cell_lanes(cell, k_values, derivatives: bool = False) -> tuple[np.ndarray, ...]:
    """Closed-form (t, l, r) of the cell at every wave number of k_values, as
    complex arrays of k_values' shape, evaluated LANE_CHUNK lanes at a time.
    With derivatives, (t, l, r, g, dl/dk, dr/dk), g = d ln t/dk, which stays
    finite where t is tiny.  The wave numbers must be finite and positive;
    one check per call names the first non-finite amplitude."""
    if isinstance(cell, DeltaSpike):
        closed_form = functools.partial(_delta_lanes, cell.g)
    elif isinstance(cell, RectBarrier):
        closed_form = functools.partial(_rect_lanes, cell.V0, cell.w)
    elif isinstance(cell, PiecewiseConstant):
        closed_form = functools.partial(_piecewise_lanes, cell)
    else:
        raise TypeError(f"unsupported cell type: {type(cell).__name__}")
    k = np.asarray(k_values, dtype=float)
    valid = np.isfinite(k) & (k > 0.0)
    if not valid.all():
        raise ValueError(f"wave number must be finite and positive, got {float(k[~valid][0])!r}")
    lanes = np.empty((6 if derivatives else 3, k.size), dtype=complex)
    with np.errstate(all="ignore"):  # overflow leaves inf or NaN for the check below
        for start in range(0, k.size, LANE_CHUNK):
            lanes[:, start:start + LANE_CHUNK] = closed_form(
                k.ravel()[start:start + LANE_CHUNK], derivatives)
    lanes = lanes.reshape((len(lanes), *k.shape))
    check_finite(**dict(zip(("t", "l", "r", "d ln t/dk", "dl/dk", "dr/dk"), lanes)))
    return tuple(lanes)


def cell_smatrix(cell: PotentialCell, k: WaveNumber) -> ScatteringMatrix:
    """Closed-form scattering matrix of a single cell with support starting at
    x = 0: a length-1 call of cell_lanes."""
    return ScatteringMatrix(*cell_lanes(cell, k.k), k=k)


# --- transfer-matrix oracle ------------------------------------------------

def _flat_map(k: float, v: float, w: float):
    """(a, b, c, d): (psi, psi') at the right edge of a flat segment of height v
    and width w is [[a, b], [c, d]] times (psi, psi') at its left edge."""
    q2 = k * k - 2.0 * v
    if q2 == 0.0:  # linear solution: psi = A + B x
        return (1.0, w, 0.0, 1.0)
    q = cmath.sqrt(complex(q2))
    cos_qw, sin_qw = cmath.cos(q * w), cmath.sin(q * w)
    return (cos_qw, sin_qw / q, -q * sin_qw, cos_qw)


def transfer_oracle(cell: PotentialCell, k: WaveNumber) -> TransferMatrix:
    """Exact transfer matrix of a cell at the origin: the product, left to
    right, of the (psi, psi') maps of its flat segments and of the delta
    spike's jump psi' -> psi' + 2 g psi, read in the plane-wave basis.

    Serves as the independent verification path for cell_smatrix.
    """
    kk = k.k
    if isinstance(cell, DeltaSpike):
        maps = [(1.0, 0.0, 2.0 * cell.g, 1.0)]
    elif isinstance(cell, RectBarrier):
        maps = [_flat_map(kk, cell.V0, cell.w)]
    elif isinstance(cell, PiecewiseConstant):
        maps = [_flat_map(kk, v, w) for w, v in cell.segments]
    else:
        raise TypeError(f"unsupported cell type: {type(cell).__name__}")
    # (psi, psi') of e^{ikx} and of e^{-ikx} at x = 0, carried across the cell
    waves = [(1.0, 1.0j * kk), (1.0, -1.0j * kk)]
    for a, b, c, d in maps:
        waves = [(a * psi + b * dpsi, c * psi + d * dpsi) for psi, dpsi in waves]
    # at x = L, (psi, psi') = C e^{ikL} (1, ik) + D e^{-ikL} (1, -ik)
    width = cell.support_width
    back, fwd = cmath.exp(-1.0j * kk * width), cmath.exp(1.0j * kk * width)
    (m11, m21), (m12, m22) = (
        (0.5 * (psi - 1.0j * dpsi / kk) * back, 0.5 * (psi + 1.0j * dpsi / kk) * fwd)
        for psi, dpsi in waves
    )
    return TransferMatrix(m11=m11, m12=m12, m21=m21, m22=m22, k=k)


def transfer_to_smatrix(m: TransferMatrix) -> ScatteringMatrix:
    """Convert plane-wave transfer data to scattering amplitudes:
    t = 1/m22, r = m12/m22, l = -m21/m22."""
    if abs(m.m22) < MODULUS_FLOOR:
        raise SingularConversionError("transfer matrix has |m22| below floor")
    return ScatteringMatrix(
        t=1.0 / m.m22, l=-m.m21 / m.m22, r=m.m12 / m.m22, k=m.k
    )

