"""Unit-cell potentials and their single-cell scattering data.

Each built-in cell shape gets its scattering amplitudes two independent ways:
closed-form matching solutions (cell_smatrix) and exact products of
plane-wave interface matrices (transfer_oracle).  Both place the cell with
its support starting at x = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

from .core import MODULUS_FLOOR, ScatteringMatrix, WaveNumber
from .errors import SingularConversionError


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


@dataclass(frozen=True)
class Lattice:
    """N identical non-overlapping cells with period a; cell n starts at (n-1)*a."""

    cell: PotentialCell
    a: float
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "N", int(self.N))
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"lattice period must be positive, got {self.a!r}")
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
                raise ValueError(f"entry {name!r} must be finite, got {value!r}")
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
    from .chain import compose, displace

    result: ScatteringMatrix | None = None
    x = 0.0
    for width, height in cell.segments:
        seg = displace(_rect_smatrix(height, width, k), x)
        result = seg if result is None else compose(result, seg)
        x += width
    assert result is not None
    return result


def cell_smatrix(cell: PotentialCell, k: WaveNumber) -> ScatteringMatrix:
    """Closed-form scattering matrix of a single cell with support starting at x = 0."""
    if isinstance(cell, DeltaSpike):
        return _delta_smatrix(cell.g, k)
    if isinstance(cell, RectBarrier):
        return _rect_smatrix(cell.V0, cell.w, k)
    if isinstance(cell, PiecewiseConstant):
        return _piecewise_smatrix(cell, k)
    raise TypeError(f"unsupported cell type: {type(cell).__name__}")


# --- transfer-matrix oracle ------------------------------------------------

def _wave_basis(q: complex, x: float):
    """Columns map coefficients of e^{iqx}, e^{-iqx} to (psi, psi') at x."""
    ep = cmath.exp(1.0j * q * x)
    em = cmath.exp(-1.0j * q * x)
    return (ep, em, 1.0j * q * ep, -1.0j * q * em)


def _linear_basis(x: float):
    """Degenerate q = 0 region: psi = A + B x."""
    return (1.0 + 0.0j, complex(x), 0.0 + 0.0j, 1.0 + 0.0j)


def _match(basis_to, basis_from) -> tuple[complex, complex, complex, complex]:
    """Coefficient map across one interface: inverse(to) @ from."""
    a, b, c, d = basis_to
    det = a * d - b * c
    e, f, g, h = basis_from
    return (
        (d * e - b * g) / det,
        (d * f - b * h) / det,
        (a * g - c * e) / det,
        (a * h - c * f) / det,
    )


def transfer_oracle(cell: PotentialCell, k: WaveNumber) -> TransferMatrix:
    """Exact transfer matrix of a cell at the origin, built from interface and
    propagation matrices of the piecewise-constant profile.

    Serves as the independent verification path for cell_smatrix; the delta
    spike uses its exact 2x2 jump matrix.
    """
    kk = k.k
    if isinstance(cell, DeltaSpike):
        u = cell.g / kk
        return TransferMatrix(
            m11=1.0 - 1.0j * u,
            m12=-1.0j * u,
            m21=1.0j * u,
            m22=1.0 + 1.0j * u,
            k=k,
        )
    if isinstance(cell, RectBarrier):
        segments: tuple[tuple[float, float], ...] = ((cell.w, cell.V0),)
    elif isinstance(cell, PiecewiseConstant):
        segments = cell.segments
    else:
        raise TypeError(f"unsupported cell type: {type(cell).__name__}")

    def region_basis(v: float, x: float):
        q2 = kk * kk - 2.0 * v
        if q2 == 0.0:
            return _linear_basis(x)
        return _wave_basis(cmath.sqrt(complex(q2)), x)

    heights = [0.0] + [v for _, v in segments] + [0.0]
    xs = [0.0]
    for width, _ in segments:
        xs.append(xs[-1] + width)
    m = (1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j)
    for j, x in enumerate(xs):
        step = _match(region_basis(heights[j + 1], x), region_basis(heights[j], x))
        m = (
            step[0] * m[0] + step[1] * m[2],
            step[0] * m[1] + step[1] * m[3],
            step[2] * m[0] + step[3] * m[2],
            step[2] * m[1] + step[3] * m[3],
        )
    return TransferMatrix(m11=m[0], m12=m[1], m21=m[2], m22=m[3], k=k)


def transfer_to_smatrix(m: TransferMatrix) -> ScatteringMatrix:
    """Convert plane-wave transfer data to scattering amplitudes:
    t = 1/m22, r = m12/m22, l = -m21/m22."""
    if abs(m.m22) < MODULUS_FLOOR:
        raise SingularConversionError("transfer matrix has |m22| below floor")
    return ScatteringMatrix(
        t=1.0 / m.m22, l=-m.m21 / m.m22, r=m.m12 / m.m22, k=m.k
    )

