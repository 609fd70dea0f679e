"""Scalar scattering amplitudes at fixed energy: unitarity measures, phase
extraction on the (-pi, pi] branch, and nearest-branch phase unwrapping."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BranchAmbiguityError

TWO_PI = 2.0 * math.pi

# Below this modulus an amplitude carries no usable phase information.
MODULUS_FLOOR = 1e-300


@dataclass(frozen=True)
class WaveNumber:
    """Wave number k > 0 in natural units (hbar = m = 1): E = k^2/2, v = k."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", float(self.k))
        if not math.isfinite(self.k) or self.k <= 0.0:
            raise ValueError(f"wave number must be finite and positive, got {self.k!r}")

    @property
    def energy(self) -> float:
        return 0.5 * self.k * self.k

    @property
    def velocity(self) -> float:
        return self.k


@dataclass(frozen=True)
class ScatteringMatrix:
    """Amplitudes (t, l, r) of a one-channel scatterer at wave number k.

    t is the transmission amplitude; l and r are the reflection amplitudes
    for incidence from the left and from the right.  For a real potential
    the matrix [[t, r], [l, t]] is unitary.
    """

    t: complex
    l: complex
    r: complex
    k: WaveNumber

    def __post_init__(self) -> None:
        for name in ("t", "l", "r"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ValueError(f"amplitude {name!r} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def transmission(self) -> float:
        """Transmission probability |t|^2."""
        return abs(self.t) ** 2


def unitarity_defect(s: ScatteringMatrix) -> float:
    """Largest violation of the unitarity relations among (t, l, r).

    Evaluates |t|^2 + |l|^2 - 1, |t|^2 + |r|^2 - 1 and the column overlap
    t*conj(r) + l*conj(t), and returns the maximum magnitude of the three.
    Zero for an exactly unitary matrix.
    """
    t2 = abs(s.t) ** 2
    left = abs(t2 + abs(s.l) ** 2 - 1.0)
    right = abs(t2 + abs(s.r) ** 2 - 1.0)
    overlap = abs(s.t * s.r.conjugate() + s.l * s.t.conjugate())
    return max(left, right, overlap)


def principal_phase(z: complex) -> float:
    """Argument of z on the branch (-pi, pi]."""
    p = cmath.phase(z)
    if p <= -math.pi:
        p += TWO_PI
    return p


def math_map(fn, *arrays) -> np.ndarray:
    """fn, a function of the math module, applied to every entry of the
    broadcast float arrays.

    numpy's vectorised log and arctan2 differ from the C library in the last
    bit on some inputs; going through math keeps array code bit-identical to
    the scalar code it replaces.
    """
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in arrays))
    values = map(fn, *(x.ravel() for x in arrays))  # no lists: bounded memory
    return np.fromiter(values, dtype=float, count=arrays[0].size).reshape(arrays[0].shape)


def principal_phase_array(z) -> np.ndarray:
    """principal_phase of every entry of a complex array, bit for bit."""
    z = np.asarray(z, dtype=complex)
    p = math_map(math.atan2, z.imag, z.real)
    return np.where(p <= -math.pi, p + TWO_PI, p)


def wrap_to_principal(angle: float) -> float:
    """Reduce an angle to the (-pi, pi] branch."""
    r = math.remainder(angle, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def branch_distance(angle: float, period: float = TWO_PI) -> float:
    """Distance from angle to the nearest integer multiple of period."""
    return abs(math.remainder(angle, period))


def principal_phases(
    s: ScatteringMatrix,
) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """Principal phases (alpha_t, alpha_l, alpha_r) of the three amplitudes.

    An amplitude whose modulus is below MODULUS_FLOOR has no meaningful
    phase; its slot is returned as None rather than as a number.
    """

    def arg_or_none(z: complex) -> Optional[float]:
        if abs(z) < MODULUS_FLOOR:
            return None
        return principal_phase(z)

    return arg_or_none(s.t), arg_or_none(s.l), arg_or_none(s.r)


def phase_relation_residual(s: ScatteringMatrix) -> Optional[float]:
    """Distance of (alpha_l + alpha_r)/2 - alpha_t from the nearest pi/2 + n*pi.

    Vanishes in exact arithmetic for every unitary s; no branch is chosen,
    only the distance to the closest one is reported.  Returns None when any
    amplitude modulus is below MODULUS_FLOOR.
    """
    alpha_t, alpha_l, alpha_r = principal_phases(s)
    if alpha_t is None or alpha_l is None or alpha_r is None:
        return None
    x = 0.5 * (alpha_l + alpha_r) - alpha_t - 0.5 * math.pi
    return branch_distance(x, math.pi)


@dataclass(frozen=True)
class PhaseCurve:
    """Unwrapped phase of one amplitude sampled on a strictly increasing k-grid.

    label identifies the amplitude ("t", "l" or "r").  Adjacent values must
    differ by less than pi; a larger jump means the grid is too coarse and is
    rejected at construction.
    """

    grid: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self) -> None:
        grid = np.array(self.grid, dtype=float)  # copy: callers keep their arrays
        values = np.array(self.values, dtype=float)
        if self.label not in ("t", "l", "r"):
            raise ValueError(f"label must be 't', 'l' or 'r', got {self.label!r}")
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if grid.size < 1 or not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise ValueError("grid and values must be nonempty and finite")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if values.size > 1 and np.max(np.abs(np.diff(values))) >= math.pi:
            raise ValueError("adjacent phase values differ by >= pi; grid too coarse")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.grid.size)


def unwrap_phases(phases, grid) -> np.ndarray:
    """Nearest-branch unwrapping of phase sequences along the last axis.

    Each first value is kept; every following one is shifted by a multiple
    of 2*pi so the adjacent difference falls in (-pi, pi), i.e. the
    difference becomes math.remainder(delta, 2*pi): fmod, then the exact
    fold f - copysign(2*pi, f) where |f| > pi (Sterbenz), then a running
    sum.  A row that needs no shift is returned as given, since the running
    sum would only re-round it; this makes unwrapping idempotent.  A
    reduced difference within 1e-12 of +-pi is ambiguous and raises
    BranchAmbiguityError naming the two grid points (grid broadcasts
    against phases).
    """
    phases = np.asarray(phases, dtype=float)
    delta = np.diff(phases, axis=-1)
    f = np.fmod(delta, TWO_PI)
    reduced = np.where(np.abs(f) > math.pi, f - np.copysign(TWO_PI, f), f)
    ambiguous = np.abs(np.abs(reduced) - math.pi) < 1e-12
    if ambiguous.any():
        where = tuple(np.argwhere(ambiguous)[0])
        ks = np.broadcast_to(grid, phases.shape)[where[:-1]]
        i = where[-1] + 1
        raise BranchAmbiguityError(
            f"phase jump of pi between k={float(ks[i - 1])!r} and k={float(ks[i])!r}: "
            "branch cannot be resolved, refine the grid"
        )
    summed = np.add.accumulate(np.concatenate((phases[..., :1], reduced), axis=-1), axis=-1)
    shifted = (reduced != delta).any(axis=-1, keepdims=True)
    return np.where(shifted, summed, phases)


def unwrap(raw: Sequence[tuple[float, float]], label: str) -> PhaseCurve:
    """Continuize raw (k, phase) samples by adding multiples of 2*pi.

    The first sample is kept as is; every following value is shifted so the
    adjacent difference falls in (-pi, pi).  A raw difference that sits at pi
    within 1e-12 is ambiguous (either branch is equally near) and raises
    BranchAmbiguityError.  Already continuous data is returned unchanged,
    so the operation is idempotent.  One row of unwrap_phases.
    """
    if len(raw) == 0:
        raise ValueError("cannot unwrap an empty sample list")
    ks = np.array([float(k) for k, _ in raw])
    phases = np.array([float(p) for _, p in raw])
    return PhaseCurve(grid=ks, values=unwrap_phases(phases, ks), label=label)
