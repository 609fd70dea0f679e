"""Chain algebra for equally spaced identical cells.

Two independent routes to the N-cell amplitudes: iterated recurrence
relations (exact scattering composition with explicit position phases) and
the Chebyshev closed form for the transmission probability.  Agreement of
the two is the standing cross-check for everything downstream.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cells import Lattice, cell_lanes, cell_smatrix
from .core import (LANE_CHUNK, MODULUS_FLOOR, ScatteringMatrix, WaveNumber, _LOG_HUGE, _exp_lanes,
                   _mul, _quot, check_finite, compose_lanes, displace_lanes, math_map,
                   position_phase, principal_phase, principal_phase_array, squared_moduli)
from .errors import ResonanceDivergenceError, UndefinedAmplitudeError


def displace(s: ScatteringMatrix, a: float) -> ScatteringMatrix:
    """s rigidly shifted right by a: a length-1 call of displace_lanes."""
    return ScatteringMatrix(s.t, *displace_lanes(s.k.k, s.l, s.r, a), k=s.k)


def compose(sA: ScatteringMatrix, sB: ScatteringMatrix) -> ScatteringMatrix:
    """sA followed on its right by sB, both in the same coordinates and at one
    wave number: a length-1 call of compose_lanes."""
    if sA.k.k != sB.k.k:
        raise ValueError("cannot compose scattering matrices at different wave numbers")
    return ScatteringMatrix(*compose_lanes((sA.t, sA.l, sA.r), (sB.t, sB.l, sB.r)), k=sA.k)


@dataclass(frozen=True)
class ChainState:
    """Amplitudes of a growing chain at fixed k, for n = 1..N, as read-only arrays.

    t, l and r hold t^(n), l^(n) and r^(n); t_log_moduli and t_phases track
    ln|t^(n)| and the continuously accumulated arg t^(n) from the recurrence
    itself, so transmission phases stay meaningful deep in a gap where the
    complex t underflows, and carry no mod-2pi ambiguity between successive
    n.  l and r must be finite: the recurrences' one finiteness check runs
    here (t^(n) cannot turn non-finite before l or r does).
    """

    lattice: Lattice
    k: WaveNumber
    t: np.ndarray
    l: np.ndarray
    r: np.ndarray
    t_log_moduli: np.ndarray
    t_phases: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("t", complex), ("l", complex), ("r", complex),
                            ("t_log_moduli", float), ("t_phases", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        check_finite(l=self.l, r=self.r)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def matrices(self) -> tuple[ScatteringMatrix, ...]:
        """s^(1)..s^(N) as ScatteringMatrix objects, built on each read."""
        return tuple(ScatteringMatrix(t=t, l=l, r=r, k=self.k)
                     for t, l, r in zip(self.t.tolist(), self.l.tolist(), self.r.tolist()))

    @property
    def transmissions(self) -> np.ndarray:
        """|t^(n)|^2 for n = 1..N, via the log moduli (graceful underflow)."""
        return np.exp(2.0 * self.t_log_moduli)


def _safe_exp(log_mod: float, phase: float) -> complex:
    # Underflows to 0 for very negative log moduli instead of raising.
    if log_mod < -_LOG_HUGE:
        return 0.0 + 0.0j
    return cmath.exp(complex(log_mod, phase))


def _checked(den: complex, n: int) -> complex:
    if abs(den) < 1e-14:
        raise ResonanceDivergenceError(
            f"recurrence denominator vanished at n={n}; inputs corrupted"
        )
    return den


def _grow(lattice: Lattice, s_cell: ScatteringMatrix, step) -> ChainState:
    # The loop both recurrences share: step(n, l, r, (t^(n))^2) gives D_n and
    # the next l, r; t^(n+1) = t^(n) t / D_n accumulates in log-polar form.
    mod = abs(s_cell.t)
    if mod < MODULUS_FLOOR:
        raise UndefinedAmplitudeError("cell transmission amplitude is below floor")
    lt_c, pt_c = math.log(mod), principal_phase(s_cell.t)
    lt, pt, l, r = lt_c, pt_c, s_cell.l, s_cell.r
    rows = [(s_cell.t, l, r, lt, pt)]
    for n in range(1, lattice.N):
        den, l, r = step(n, l, r, _safe_exp(2.0 * lt, 2.0 * pt))
        lt += lt_c - math.log(abs(den))
        pt += pt_c - cmath.phase(den)
        rows.append((_safe_exp(lt, pt), l, r, lt, pt))
    t, l, r, lt, pt = zip(*rows)
    return ChainState(lattice=lattice, k=s_cell.k, t=t, l=l, r=r, t_log_moduli=lt, t_phases=pt)


def chain_amplitudes(lattice: Lattice, k: WaveNumber) -> ChainState:
    """Grow the chain by appending cells on the right.

    With the single cell's (t, l, r) at the origin and n cells already in
    place, the cell added at x = n*a gives

        t^(n+1) = t^(n) t / D_n
        l^(n+1) = l^(n) + (t^(n))^2 l e^{2ikna} / D_n
        r^(n+1) = r e^{-2ikna} + t^2 r^(n) / D_n,   D_n = 1 - l r^(n) e^{2ikna}.

    Every s^(n) is unitary; t^(n) is tracked in log-polar form.
    """
    s_cell = cell_smatrix(lattice.cell, k)
    position_phase(k.k, lattice.a, lattice.N - 1)  # the last cell's e^{2ikna}
    tc, lc, rc = s_cell.t, s_cell.l, s_cell.r
    kk, a = k.k, lattice.a

    def step(n, l, r, t_sq):
        pos_phase = cmath.exp(2.0j * kk * n * a)
        den = _checked(1.0 - lc * r * pos_phase, n)
        return (den, l + t_sq * lc * pos_phase / den,
                rc * pos_phase.conjugate() + tc * tc * r / den)

    return _grow(lattice, s_cell, step)


def chain_end_amplitudes(
    lattice: Lattice, k_values
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t_log, t_phase, t, l, r) of the N-cell chain at every wave number of k_values.

    The k-batched form of chain_amplitudes: the loop runs over n and each
    step's arithmetic is vectorised over the k lanes.  Every lane equals
    chain_amplitudes at n = N bit for bit (t_log_moduli[-1], t_phases[-1],
    t[-1], l[-1] and r[-1]), because the complex arithmetic follows
    CPython's formulas and log and phase go through math.  The per-step
    numpy overhead makes it slower than the scalar loop below ~20 lanes;
    long chains at one k use chain_amplitudes.  Results have k_values'
    shape.
    """
    k = np.asarray(k_values, dtype=float)
    tc, lc, rc = (x.ravel() for x in cell_lanes(lattice.cell, k))
    mod = np.hypot(tc.real, tc.imag)
    if (mod < MODULUS_FLOOR).any():
        raise UndefinedAmplitudeError("cell transmission amplitude is below floor")
    lt, pt, t, l, r = math_map(math.log, mod), principal_phase_array(tc), tc, lc, rc
    if lattice.N > 1:
        position_phase(k, lattice.a, lattice.N - 1)  # the last cell's e^{2ikna}
        t, l, r = t.copy(), l.copy(), r.copy()
        for start in range(0, k.size, LANE_CHUNK):
            lanes = slice(start, start + LANE_CHUNK)
            lt[lanes], pt[lanes], t[lanes], l[lanes], r[lanes] = _grow_lanes(
                lattice, k.ravel()[lanes], lt[lanes], pt[lanes], tc[lanes], lc[lanes], rc[lanes]
            )
    return tuple(x.reshape(k.shape) for x in (lt, pt, t, l, r))


def _grow_lanes(lattice: Lattice, k, lt_c, pt_c, tc, lc, rc):
    # chain_amplitudes' loop, one vectorised step per n over the lanes; each
    # step line is the scalar one with * as _mul and / as _quot
    lt, pt, l, r = lt_c, pt_c, lc, rc
    tt = _mul(tc, tc)
    two_k = 2.0 * k
    for n in range(1, lattice.N):
        pos = _exp_lanes(np.zeros(two_k.shape), two_k * n * lattice.a)
        den = 1.0 - _mul(_mul(lc, r), pos)
        abs_den = np.hypot(den.real, den.imag)
        if (abs_den < 1e-14).any():
            raise ResonanceDivergenceError(
                f"recurrence denominator vanished at n={n}; inputs corrupted"
            )
        t_sq = _exp_lanes(2.0 * lt, 2.0 * pt)
        l = l + _quot(_mul(_mul(t_sq, lc), pos), den)
        r = _mul(rc, pos.conj()) + _quot(_mul(tt, r), den)
        lt = lt + (lt_c - math_map(math.log, abs_den))
        pt = pt + (pt_c - math_map(math.atan2, den.imag, den.real))
    return lt, pt, _exp_lanes(lt, pt), l, r


def chain_amplitudes_addleft(lattice: Lattice, k: WaveNumber) -> ChainState:
    """Grow the chain by shifting it right by a and prepending a cell at the origin.

    Independent recursion path, in particular for the right reflection:

        r^(n+1) = r^(n) e^{-2ika} + (t^(n))^2 r / (1 - l^(n) r e^{2ika}).

    Must reproduce chain_amplitudes exactly up to rounding.
    """
    s_cell = cell_smatrix(lattice.cell, k)
    position_phase(k.k, lattice.a, lattice.N - 1)  # the chain's last position
    tc, lc, rc = s_cell.t, s_cell.l, s_cell.r
    shift = cmath.exp(2.0j * k.k * lattice.a)

    def step(n, l, r, t_sq):
        den = _checked(1.0 - l * shift * rc, n)
        return den, lc + tc * tc * l * shift / den, r * shift.conjugate() + t_sq * rc / den

    return _grow(lattice, s_cell, step)


def bloch_parameter(s_cell: ScatteringMatrix, a: float) -> float:
    """z = cos(alpha_t + k a) / |t| of a single cell.

    |z| <= 1 marks a band of the infinite chain, |z| > 1 a gap with total
    reflection; for the delta comb z reduces to the Kronig-Penney dispersion
    cos(ka) + (g/k) sin(ka).
    """
    mod = abs(s_cell.t)
    if mod < MODULUS_FLOOR:
        raise UndefinedAmplitudeError("transmission amplitude below floor: z undefined")
    phase = principal_phase(s_cell.t) + s_cell.k.k * a
    if not math.isfinite(phase):
        raise OverflowError(f"alpha_t + k a is not finite at k={s_cell.k.k!r}, a={a!r}")
    return math.cos(phase) / mod


# Half-width of the |z| = 1 window where the trig/hyperbolic forms are 0/0
# and the three-term recurrence takes over, exact at U_n(+-1) = (n+1)(+-1)^n.
CHEBYSHEV_EDGE_WINDOW = 1e-8


def chebyshev_closed_form(z, rho, N) -> tuple[np.ndarray, np.ndarray]:
    """U_{N-1}(z) and |t^(N)|^2 = 1 / (1 + rho U_{N-1}(z)^2), broadcast over (z, rho, N).

    The one implementation of the closed form; N >= 1 is the chain length.
    Band entries (|z| < 1 - w, w = CHEBYSHEV_EDGE_WINDOW) use sin(N g)/sin(g)
    with g = arccos z.  Gap entries (|z| > 1 + w) use log|U| = (N-1) h
    + log((1 - e^{-2Nh}) / (1 - e^{-2h})), h = arccosh|z|: |t^(N)|^2 stays
    exact down to the double underflow threshold and then degrades
    gracefully to 0.0, and U saturates to +-inf.  Edge entries run the
    three-term recurrence, one pass per distinct z up to the largest N asked
    of it.  Both results have the broadcast shape, at least one-dimensional.

    It plans the N-free part on (z, rho) and evaluates the plan at N; a scan
    over many N at the same (z, rho) plans once and evaluates per N.
    """
    z, rho, N = np.asarray(z, dtype=float), np.asarray(rho, dtype=float), np.asarray(N)
    # Adding zeros broadcasts at a fraction of np.broadcast_arrays' cost on
    # length-1 calls; evaluate adds them to N as well.
    zeros = np.zeros(np.broadcast(z, rho, N).shape or (1,))
    return _ChebyshevPlan(z + zeros, rho + zeros).evaluate(N)


class _ChebyshevPlan:
    """The part of chebyshev_closed_form that does not depend on N, for
    equally shaped z and rho: the band/gap/edge masks, g and sin g on band
    entries, h, e^{-2h} - 1 and log rho on gap entries, and the three-term
    recurrence of each distinct edge z, extended as far as N asks."""

    def __init__(self, z: np.ndarray, rho: np.ndarray) -> None:
        self.zeros = np.zeros(z.shape)
        abs_z = np.abs(z)
        self.band = abs_z < 1.0 - CHEBYSHEV_EDGE_WINDOW
        self.gap = abs_z > 1.0 + CHEBYSHEV_EDGE_WINDOW
        self.edge = ~(self.band | self.gap)
        # gap entries get their own |t|^2; rho = inf there would give inf * 0
        self.rho = np.where(self.gap, 0.0, rho)
        self.gamma = np.arccos(z[self.band])
        self.sin_gamma = np.sin(self.gamma)
        self.edge_z, self.edge_which = np.unique(z[self.edge], return_inverse=True)
        self.edge_seqs = [[1.0, 2.0 * zj] for zj in self.edge_z.tolist()]
        z_gap = z[self.gap]
        self.eta = np.arccosh(np.abs(z_gap))
        self.gap_den = np.expm1(-2.0 * self.eta)
        self.gap_negative = z_gap < 0.0
        with np.errstate(divide="ignore"):  # rho = 0 gives log 0
            self.gap_log_rho = np.log(rho[self.gap])

    def evaluate(self, N) -> tuple[np.ndarray, np.ndarray]:
        """(U_{N-1}(z), |t^(N)|^2) at the cell counts N, which broadcast to the plan's shape."""
        N = np.asarray(N)
        if (N < 1).any():
            raise ValueError("cell counts must be >= 1")
        N = N + self.zeros  # float, exact for any realistic chain length
        u = np.zeros(N.shape)  # gap entries are filled last, with their own |t|^2

        if self.gamma.size:
            u[self.band] = np.sin(N[self.band] * self.gamma) / self.sin_gamma
        if self.edge_z.size:
            orders = N[self.edge].astype(int) - 1
            values = np.empty(orders.size)
            for j, (zj, seq) in enumerate(zip(self.edge_z.tolist(), self.edge_seqs)):
                mine = self.edge_which == j
                for _ in range(int(orders[mine].max()) + 1 - len(seq)):
                    seq.append(2.0 * zj * seq[-1] - seq[-2])
                values[mine] = np.array(seq)[orders[mine]]
            u[self.edge] = values
        t = 1.0 / (1.0 + self.rho * u * u)
        if self.eta.size:
            n_gap, eta = N[self.gap], self.eta
            # log(sinh(N eta) / sinh(eta)) in a form where nothing overflows
            ratio = np.expm1(-2.0 * n_gap * eta) / self.gap_den
            log_u = (n_gap - 1.0) * eta + np.log(ratio)
            sign = np.where(self.gap_negative & (n_gap % 2 == 0), -1.0, 1.0)
            with np.errstate(over="ignore"):  # U -> inf
                u[self.gap] = sign * np.exp(log_u)
                t[self.gap] = np.exp(-np.logaddexp(0.0, self.gap_log_rho + 2.0 * log_u))
        return u, t


def chebyshev_inputs(s_cell: ScatteringMatrix, a: float) -> tuple[float, float]:
    """(z, rho) of one cell for the closed form: z = cos(alpha_t + ka)/|t| and
    rho = (1 - |t|^2)/|t|^2."""
    mod2 = abs(s_cell.t) ** 2
    if mod2 == 0.0:
        raise UndefinedAmplitudeError("transmission amplitude below floor")
    return bloch_parameter(s_cell, a), (1.0 - mod2) / mod2


def chebyshev_input_lanes(k_values, t, a: float) -> tuple[np.ndarray, np.ndarray]:
    """chebyshev_inputs of a cell at every wave number of k_values, bit for
    bit, given its transmission amplitudes t there as a complex array."""
    mod2 = squared_moduli(t)
    if (mod2 == 0.0).any():
        raise UndefinedAmplitudeError("transmission amplitude below floor")
    with np.errstate(over="ignore"):  # rho = inf below |t| ~ 1e-154, as in the scalar form
        phase = principal_phase_array(t) + np.asarray(k_values, dtype=float) * a
        rho = (1.0 - mod2) / mod2
    overflow = ~np.isfinite(phase)
    if overflow.any():
        k = np.broadcast_to(k_values, phase.shape)[overflow][0]
        raise OverflowError(f"alpha_t + k a is not finite at k={float(k)!r}, a={a!r}")
    return math_map(math.cos, phase) / np.hypot(t.real, t.imag), rho


def chebyshev_transmission(s_cell: ScatteringMatrix, a: float, N: int) -> float:
    """Closed-form N-cell transmission probability

        |t^(N)|^2 = 1 / (1 + U_{N-1}(z)^2 (1 - |t|^2)/|t|^2),

    z = cos(alpha_t + ka)/|t| from the single cell: a length-1 call of
    chebyshev_closed_form.  Returns a value in [0, 1].
    """
    z, rho = chebyshev_inputs(s_cell, a)
    return float(chebyshev_closed_form(z, rho, N)[1][0])


def transmission_profile(
    cell, a: float, n_values: np.ndarray, k_values: np.ndarray
) -> np.ndarray:
    """|t^(N)|^2 on a (N, k) grid via the closed form.

    Returns an array of shape (len(n_values), len(k_values)).
    """
    z, rho = chebyshev_input_lanes(k_values, cell_lanes(cell, k_values)[0], a)
    return chebyshev_closed_form(z, rho, np.asarray(n_values, dtype=int)[:, None])[1]
