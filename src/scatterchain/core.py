"""Scalar scattering amplitudes at fixed energy: unitarity measures, phase
extraction on the (-pi, pi] branch, and nearest-branch phase unwrapping."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BranchAmbiguityError, NonFiniteAmplitudeError, ResonanceDivergenceError

TWO_PI = 2.0 * math.pi

# Below this modulus an amplitude carries no usable phase information.
MODULUS_FLOOR = 1e-300

_LOG_HUGE = 700.0  # exp beyond this overflows a double

# Lanes per pass of the array kernels: bounds their temporaries to ~1 MB at
# any k count, for one more round of per-pass numpy overhead per 1024 lanes.
LANE_CHUNK = 1024


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
                raise NonFiniteAmplitudeError(
                    f"amplitude {name!r} must be finite, got {value!r}"
                )
            object.__setattr__(self, name, value)

    @property
    def transmission(self) -> float:
        """Transmission probability |t|^2."""
        return abs(self.t) ** 2


def check_finite(**columns) -> None:
    """Raise NonFiniteAmplitudeError naming the first non-finite amplitude of
    the equally shaped arrays in columns, in (lane, name) order."""
    finite = np.stack([np.isfinite(np.ravel(z)) for z in columns.values()])
    if not finite.all():
        lane = int(np.argmin(finite.all(axis=0)))
        name = list(columns)[int(np.argmin(finite[:, lane]))]
        value = complex(np.ravel(columns[name])[lane])
        raise NonFiniteAmplitudeError(f"amplitude {name!r} must be finite, got {value!r}")


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


def unitarity_defect_lanes(t, l, r) -> np.ndarray:
    """unitarity_defect of every lane of the complex arrays t, l and r, bit for bit."""
    t2 = squared_moduli(t)
    left = np.abs(t2 + squared_moduli(l) - 1.0)
    right = np.abs(t2 + squared_moduli(r) - 1.0)
    overlap = _mul(t, r.conj()) + _mul(l, t.conj())
    return np.maximum(np.maximum(left, right), np.hypot(overlap.real, overlap.imag))


def squared_moduli(z) -> np.ndarray:
    """abs(z) ** 2 of every entry of the complex array z, bit for bit (pow, not m * m)."""
    return math_map(pow, np.hypot(z.real, z.imag), 2.0)


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


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _mul(a, b) -> np.ndarray:
    # a * b of complex arrays in CPython's formula, _Py_c_prod; numpy's
    # complex multiply and divide round differently on some inputs
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _quot(a, b) -> np.ndarray:
    # a / b (b != 0) as _mul does *: _Py_c_quot, Smith's method, scaled by
    # the larger part of b.  The branches differ only in the order of
    # commuting operands.
    real_big = np.abs(b.real) >= np.abs(b.imag)
    p, q = np.where(real_big, b.real, b.imag), np.where(real_big, b.imag, b.real)
    x, y = np.where(real_big, a.real, a.imag), np.where(real_big, a.imag, a.real)
    ratio = q / p
    denom = p + q * ratio
    return _complex((x + y * ratio) / denom,
                    np.where(real_big, y - x * ratio, x * ratio - y) / denom)


def _exp_lanes(log_mod, phase) -> np.ndarray:
    # exp(log_mod + i phase), 0 where log_mod < -_LOG_HUGE: chain._safe_exp
    # per lane (numpy's complex exp matches cmath.exp)
    out = np.zeros(log_mod.shape, dtype=complex)
    keep = ~(log_mod < -_LOG_HUGE)
    out[keep] = np.exp(_complex(log_mod[keep], phase[keep]))
    return out


def position_phase(k_values, a: float, n: int = 1) -> np.ndarray:
    """2 k x with x = n a at every wave number of k_values, the phase of
    e^{2ikx}; raises OverflowError naming the first k where it is not
    finite, and x, or n and a when x itself is past the double range."""
    x = n * a
    with np.errstate(over="ignore"):
        phase = 2.0 * np.asarray(k_values, dtype=float) * x
    if not np.isfinite(phase).all():
        k = float(np.broadcast_to(k_values, phase.shape)[~np.isfinite(phase)][0])
        where = f"x={float(x)!r}" if math.isfinite(x) else f"x = n a with n={n}, a={float(a)!r}"
        raise OverflowError(f"position phase 2 k x is not finite at k={k!r}, {where}")
    return phase


def displace_lanes(k_values, l, r, x: float) -> tuple[np.ndarray, np.ndarray]:
    """l and r of the scatterer rigidly shifted right by x (left for x < 0),
    in every lane: l e^{2ikx} and r e^{-2ikx}; t is untouched."""
    rot = np.exp(1j * position_phase(k_values, x))
    return _mul(l, rot), _mul(r, rot.conj())


def compose_lanes(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, l, r) of a = (tA, lA, rA) followed on its right by b = (tB, lB, rB),
    both in the same coordinates, in every lane.  Summing the bounces
    between the two gives the unitary, associative closed form

        t = tA tB / D,  l = lA + tA^2 lB / D,  r = rB + tB^2 rA / D,  D = 1 - lB rA.
    """
    (ta, la, ra), (tb, lb, rb) = a, b
    den = 1.0 - _mul(lb, ra)
    if (np.hypot(den.real, den.imag) < 1e-14).any():
        raise ResonanceDivergenceError("composition denominator 1 - lB*rA vanished; "
                                       "inputs are not a valid unitary pair")
    return (_quot(_mul(ta, tb), den),
            la + _quot(_mul(_mul(ta, ta), lb), den),
            rb + _quot(_mul(_mul(tb, tb), ra), den))


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


def phase_column(z) -> list[Optional[float]]:
    """principal_phases' slot for every entry of the complex array z: its
    principal phase, or None where the modulus is below MODULUS_FLOOR."""
    defined = (np.hypot(z.real, z.imag) >= MODULUS_FLOOR).tolist()
    return [p if ok else None for p, ok in zip(principal_phase_array(z).tolist(), defined)]


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
