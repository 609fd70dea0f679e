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
        """Transmission probability |t|^2: a length-1 call of the lanes' np.abs(t) ** 2."""
        return float((np.abs(*_lanes(self.t)) ** 2)[0])


def check_finite(**columns) -> None:
    """Raise NonFiniteAmplitudeError naming the first non-finite amplitude of
    the equally shaped arrays in columns, in (lane, name) order."""
    finite = np.stack([np.isfinite(np.ravel(z)) for z in columns.values()])
    if not finite.all():
        lane = int(np.argmin(finite.all(axis=0)))
        name = list(columns)[int(np.argmin(finite[:, lane]))]
        value = complex(np.ravel(columns[name])[lane])
        raise NonFiniteAmplitudeError(f"amplitude {name!r} must be finite, got {value!r}")


def _lanes(*values) -> tuple[np.ndarray, ...]:
    # each value as a 1-element array, so a length-1 call runs numpy's array
    # arithmetic, not Python's complex scalars, and equals its lane bit for bit
    return tuple(np.array([v]) for v in values)


def unitarity_defect(s: ScatteringMatrix) -> float:
    """Largest violation of the unitarity relations among (t, l, r).

    Evaluates |t|^2 + |l|^2 - 1, |t|^2 + |r|^2 - 1 and the column overlap
    t*conj(r) + l*conj(t), and returns the maximum magnitude of the three.
    Zero for an exactly unitary matrix.  A length-1 call of
    unitarity_defect_lanes.
    """
    return float(unitarity_defect_lanes(*_lanes(s.t, s.l, s.r))[0])


def unitarity_defect_lanes(t, l, r) -> np.ndarray:
    """unitarity_defect of every lane of the complex arrays t, l and r."""
    t2 = np.abs(t) ** 2
    left = np.abs(t2 + np.abs(l) ** 2 - 1.0)
    right = np.abs(t2 + np.abs(r) ** 2 - 1.0)
    return np.maximum(np.maximum(left, right), np.abs(t * r.conj() + l * t.conj()))


def principal_phase(z: complex) -> float:
    """Argument of z on the branch (-pi, pi]: a length-1 call of principal_phase_array."""
    return float(principal_phase_array(z))


def _exp_lanes(log_mod, phase) -> np.ndarray:
    # exp(complex(log_mod, phase)), signed zeros kept, 0 where log_mod < -_LOG_HUGE
    out = np.zeros(log_mod.shape, dtype=complex)
    keep = ~(log_mod < -_LOG_HUGE)
    out.real[keep], out.imag[keep] = log_mod[keep], phase[keep]
    return np.exp(out, out=out, where=keep)


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


def displace_lanes(k_values, l, r, x: float, *derivatives) -> tuple[np.ndarray, ...]:
    """l and r of the scatterer rigidly shifted right by x (left for x < 0),
    in every lane: l e^{2ikx} and r e^{-2ikx}; t is untouched.  Given also
    derivatives, (dl/dk, dr/dk), returns theirs after l and r: the product
    rule adds 2ix l to dl/dk and -2ix r to dr/dk before the rotation."""
    rot = np.exp(1j * position_phase(k_values, x))
    back = rot.conj()
    moved = (l * rot, r * back)
    if not derivatives:
        return moved
    dl, dr = derivatives
    return (*moved, (dl + 2j * x * l) * rot, (dr - 2j * x * r) * back)


def compose_lanes(a, b) -> tuple[np.ndarray, ...]:
    """(t, l, r) of a = (tA, lA, rA) followed on its right by b = (tB, lB, rB),
    both in the same coordinates, in every lane.  Summing the bounces
    between the two gives the unitary, associative closed form

        t = tA tB / D,  l = lA + tA^2 lB / D,  r = rB + tB^2 rA / D,  D = 1 - lB rA.

    When a and b each carry their k-derivatives (g, dl/dk, dr/dk) after
    (t, l, r), with g = d ln t/dk, so does the result, by the product rule:
    g = gA + gB - D'/D, which stays finite where t underflows.
    """
    den, _, *out = _compose(a[0] * a[0], a[1:], b[0] * b[0], b[1:], 1.0, 0.0)
    return (a[0] * b[0] / den, *out)


def _compose(tta, a, ttb, b, pos, x2i) -> tuple:
    # compose_lanes' body, b displaced right by x first: pos = e^{2ikx}, x2i = 2ix,
    # tta, ttb = tA^2, tB^2, a, b = (l, r[, g, dl/dk, dr/dk]) -> (D, |D|, l, r[, ...]).
    # The 2ix terms, growing with x, join what they add to before anything scales them.
    (la, ra, *da), (lb, rb, *db) = a, b
    den = 1.0 - lb * ra * pos
    abs_den = np.abs(den)
    if (abs_den < 1e-14).any():
        raise ResonanceDivergenceError("composition denominator 1 - lB*rA vanished; "
                                       "inputs are not a valid unitary pair")
    back = np.conj(pos)
    out = den, abs_den, la + tta * lb * pos / den, rb * back + ttb * ra / den
    if not da:
        return out
    (ga, dla, dra), (gb, dlb, drb) = da, db
    dlog = -pos * (dlb * ra + lb * (dra + x2i * ra)) / den  # D'/D
    return (*out, ga + (gb - dlog), dla + tta * pos / den * (lb * (2.0 * ga + x2i - dlog) + dlb),
            (drb - x2i * rb) * back + ttb / den * (2.0 * gb * ra + dra - ra * dlog))


def principal_phase_array(z) -> np.ndarray:
    """Argument of every entry of a complex array on the branch (-pi, pi]:
    np.angle, which is atan2(imag, real) with its signed zeros, infinities
    and NaN, with -pi folded onto pi."""
    return _fold(np.angle(np.asarray(z, dtype=complex)))


def _fold(p):
    # angles in [-pi, pi] onto the branch (-pi, pi]
    return np.where(p <= -math.pi, p + TWO_PI, p)


def wrap_to_principal(angle: float) -> float:
    """Reduce an angle to the (-pi, pi] branch."""
    return float(_fold(math.remainder(angle, TWO_PI)))


def branch_distance(angle: float, period: float = TWO_PI) -> float:
    """Distance from angle to the nearest integer multiple of period."""
    return abs(math.remainder(angle, period))


def principal_phases(
    s: ScatteringMatrix,
) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """Principal phases (alpha_t, alpha_l, alpha_r) of the three amplitudes,
    None for an amplitude with no meaningful phase: a length-1 call of
    phase_column over (t, l, r)."""
    return tuple(phase_column(np.array((s.t, s.l, s.r))))


def phase_column(z) -> list[Optional[float]]:
    """For every entry of the complex array z, its principal phase on
    (-pi, pi], or None where its modulus is below MODULUS_FLOOR and it
    carries no meaningful phase."""
    return _defined(principal_phase_array(z), np.abs(z) >= MODULUS_FLOOR)


def _defined(values: np.ndarray, ok: np.ndarray) -> list[Optional[float]]:
    # values as a list, None where ok is False
    return [v if defined else None for v, defined in zip(values.tolist(), ok.tolist())]


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
