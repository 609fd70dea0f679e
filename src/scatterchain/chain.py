"""Chain algebra for equally spaced identical cells.

Two independent routes to the N-cell amplitudes: iterated recurrence
relations (exact scattering composition with explicit position phases) and
the Chebyshev closed form for the transmission probability.  Agreement of
the two is the standing cross-check for everything downstream.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .cells import Lattice, cell_lanes, cell_smatrix, check_period
from .core import (DENOMINATOR_FLOOR, LANE_CHUNK, MODULUS_FLOOR, ScatteringMatrix, WaveNumber,
                   _compose, _exp_lanes, _lanes, check_finite, compose_lanes, displace_lanes,
                   position_phase, principal_phase, principal_phase_array)
from .errors import ResonanceDivergenceError, UndefinedAmplitudeError


def displace(s: ScatteringMatrix, a: float) -> ScatteringMatrix:
    """s rigidly shifted right by a: a length-1 call of displace_lanes."""
    l, r = displace_lanes(*_lanes(s.k.k, s.l, s.r), a)
    return ScatteringMatrix(s.t, l[0], r[0], k=s.k)


def compose(sA: ScatteringMatrix, sB: ScatteringMatrix) -> ScatteringMatrix:
    """sA followed on its right by sB, both in the same coordinates and at one
    wave number: a length-1 call of compose_lanes."""
    if sA.k.k != sB.k.k:
        raise ValueError("cannot compose scattering matrices at different wave numbers")
    t, l, r = compose_lanes(_lanes(sA.t, sA.l, sA.r), _lanes(sB.t, sB.l, sB.r))
    return ScatteringMatrix(t[0], l[0], r[0], k=sA.k)


@dataclass(frozen=True)
class ChainState:
    """Amplitudes of a growing chain at fixed k, for n = 1..N, as read-only arrays.

    t, l and r hold t^(n), l^(n) and r^(n); t_log_moduli and t_phases track
    ln|t^(n)| and the continuously accumulated arg t^(n) from the recurrence
    itself, so transmission phases stay meaningful deep in a gap where the
    complex t underflows, and carry no mod-2pi ambiguity between successive
    n.  l, r and t must be finite: the recurrences' one finiteness check
    runs here, and an exp of ln|t^(n)| that overflows fails it.
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
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        check_finite(l=self.l, r=self.r, t=self.t)

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


def _vanished(n: int) -> ResonanceDivergenceError:
    return ResonanceDivergenceError(f"recurrence denominator vanished at n={n}; inputs corrupted")


def _check_floor(t_mod) -> None:
    """The one floor rule for the cell's t, given its |t| at every k."""
    if np.any(t_mod < MODULUS_FLOOR):
        raise UndefinedAmplitudeError("cell transmission amplitude is below floor")


def _check_inputs(lattice: Lattice, k, t_mod) -> None:
    """The one check in front of every chain recurrence, given the cell's |t| at k: not
    below MODULUS_FLOOR, then the last cell's e^{2ikna}, n = N - 1, a double."""
    _check_floor(t_mod)
    position_phase(k, lattice.a, lattice.N - 1)


def _grow(s_cell: ScatteringMatrix, dens: list):
    # t^(n+1) = t^(n) t / D_n, n = 1..N, from a recurrence loop's D_n: ln|t^(n)|, arg t^(n)
    # are running sums of ln|t| - ln|D_n| and arg t - arg D_n (D_0 term 0.0) from Python's
    # scalar log, abs and phase, which numpy's do not match; t^(n) = exp(complex(ln|t|, arg t)),
    # 0 past -_LOG_HUGE, and (t^(n))^2 for n < N as a list for the other reflection's products
    lt, pt = (np.fromiter(itertools.chain((0.0,), terms), float, len(dens) + 1)
              for terms in (map(math.log, map(abs, dens)), map(cmath.phase, dens)))
    for x, first in ((lt, math.log(abs(s_cell.t))), (pt, principal_phase(s_cell.t))):
        np.cumsum(np.subtract(first, x, out=x), out=x)
    with np.errstate(over="ignore"):  # ChainState's finiteness check reports it
        t, t_sq = _exp_lanes(lt, pt), _exp_lanes(2.0 * lt[:-1], 2.0 * pt[:-1])
    t[0] = s_cell.t
    return t, lt, pt, t_sq.tolist()


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
    _check_inputs(lattice, k.k, abs(s_cell.t))
    lc, rc, tt, floor = s_cell.l, s_cell.r, s_cell.t * s_cell.t, DENOMINATOR_FLOOR
    poss = np.exp(1j * position_phase(k.k, lattice.a, np.arange(1, lattice.N))).tolist()
    r, rs, dens = rc, [rc], []
    for n, p in zip(range(1, lattice.N), poss):
        den = 1.0 - lc * r * p
        if abs(den) < floor:
            raise _vanished(n)
        r = rc * p.conjugate() + tt * r / den
        rs.append(r)
        dens.append(den)
    rs = np.array(rs)
    t, lt, pt, t_sq = _grow(s_cell, dens)
    steps = map(operator.mul, map(operator.mul, t_sq, itertools.repeat(lc)), poss)
    l = itertools.accumulate(map(operator.truediv, steps, dens), operator.add, initial=lc)
    return ChainState(lattice, s_cell.k, t, np.fromiter(l, complex, lattice.N), rs, lt, pt)


def chain_end_amplitudes(
    lattice: Lattice, k_values
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t_log, t_phase, t, l, r) of the N-cell chain at every wave number of k_values.

    The k-batched form of chain_amplitudes: the loop runs over n and each
    step's arithmetic is vectorised over the k lanes.  Every lane agrees
    with chain_amplitudes at n = N (t_log_moduli[-1], t_phases[-1], t[-1],
    l[-1] and r[-1]) to rounding, and a length-1 call equals the same lane
    of a longer call bit for bit.  The per-step numpy overhead makes it
    slower than the scalar loop below ~20 lanes; long chains at one k use
    chain_amplitudes.  Results have k_values' shape.
    """
    k = np.asarray(k_values, dtype=float)
    return _end_amplitudes(lattice, k, cell_lanes(lattice.cell, k))


def _end_amplitudes(lattice: Lattice, k: np.ndarray, cell):
    # chain_end_amplitudes given the cell's (t, l, r) at k, for a caller that
    # has them already; given the cell's (t, l, r, g, dl/dk, dr/dk) of
    # cell_lanes(..., derivatives=True), the chain's g, dl/dk and dr/dk follow
    tc, lc, rc, *dk = (x.ravel() for x in cell)
    mod = np.abs(tc)
    _check_inputs(lattice, k, mod)
    one_cell = (np.log(mod), principal_phase_array(tc), tc, lc, rc, *dk)
    state = one_cell
    if lattice.N > 1:
        state = tuple(x.copy() for x in one_cell)
        for start in range(0, k.size, LANE_CHUNK):
            lanes = slice(start, start + LANE_CHUNK)
            grown = _grow_lanes(lattice, k.ravel()[lanes], *(x[lanes] for x in one_cell))
            for x, y in zip(state, grown):
                x[lanes] = y
    return tuple(x.reshape(k.shape) for x in state)


def _grow_lanes(lattice: Lattice, k, lt_c, pt_c, tc, lc, rc, *dk):
    # chain_amplitudes' loop, one vectorised step per n over the lanes: the cell at
    # x = n a appended by core._compose, with t^(n) in log form (a phase of -0.0
    # read as +0.0); given the cell's dk = (g, dl/dk, dr/dk), g = d ln t/dk, the chain's follow
    state = cell = (lc, rc, *dk)
    lt, pt, tt, two_k = lt_c, pt_c, tc * tc, 2.0 * k
    for n in range(1, lattice.N):
        pos = np.exp(1j * (two_k * n * lattice.a))
        try:
            den, abs_den, *state = _compose(_exp_lanes(2.0 * lt, 2.0 * pt + 0.0), state, tt, cell,
                                            pos, 2j * n * lattice.a)
        except ResonanceDivergenceError:
            raise _vanished(n) from None
        lt = lt + (lt_c - np.log(abs_den))
        pt = pt + (pt_c - np.angle(den))
    return (lt, pt, _exp_lanes(lt, pt + 0.0), *state)


def _transmission_phase_slopes(lattice: Lattice, k: WaveNumber, cell) -> np.ndarray:
    """d arg t^(n)/dk = Im g_n for n = 1..N at one k, g_n = d ln t^(n)/dk, given the
    cell there as cell_lanes(..., [k], derivatives=True) gives it: chain_amplitudes'
    recurrence carrying only what g needs, r^(n), its k-derivative and g_n itself:
    core._compose's product rule and grouping, on Python complex scalars, faster at one k."""
    tc, lc, rc, g_c, dl_c, dr_c = (complex(x[0]) for x in cell)
    _check_inputs(lattice, k.k, abs(tc))
    a, tt, floor, g, r, dr = lattice.a, tc * tc, DENOMINATOR_FLOOR, g_c, rc, dr_c
    out = np.full(lattice.N, g.imag)  # before the phases: an N past memory fails at once
    # e^{2ikna} one LANE_CHUNK block of n at a time, so that memory stays ~out's
    blocks = (np.arange(start, min(start + LANE_CHUNK, lattice.N))
              for start in range(1, lattice.N, LANE_CHUNK))
    for n, pos in itertools.chain.from_iterable(
            zip(ns.tolist(), np.exp(1j * position_phase(k.k, a, ns)).tolist()) for ns in blocks):
        lc_pos = lc * pos
        den = 1.0 - lc_pos * r
        if abs(den) < floor:
            raise _vanished(n)
        x2i, back = 2j * n * a, pos.conjugate()
        dlog = -(pos * dl_c * r + lc_pos * (dr + x2i * r)) / den
        dr = (dr_c - x2i * rc) * back + tt / den * (2.0 * g_c * r + dr - r * dlog)
        r = rc * back + tt * r / den
        g += g_c - dlog
        out[n] = g.imag
    return out


def chain_amplitudes_addleft(lattice: Lattice, k: WaveNumber) -> ChainState:
    """Grow the chain by shifting it right by a and prepending a cell at the origin.

    Independent recursion path, in particular for the right reflection:

        r^(n+1) = r^(n) e^{-2ika} + (t^(n))^2 r / (1 - l^(n) r e^{2ika}).

    Must reproduce chain_amplitudes exactly up to rounding.
    """
    s_cell = cell_smatrix(lattice.cell, k)
    _check_inputs(lattice, k.k, abs(s_cell.t))
    lc, rc, tt, floor = s_cell.l, s_cell.r, s_cell.t * s_cell.t, DENOMINATOR_FLOOR
    shift = cmath.exp(2.0j * k.k * lattice.a)
    unshift = shift.conjugate()
    l, ls, dens = lc, [lc], []
    for n in range(1, lattice.N):
        den = 1.0 - l * shift * rc
        if abs(den) < floor:
            raise _vanished(n)
        l = lc + tt * l * shift / den
        ls.append(l)
        dens.append(den)
    ls = np.array(ls)
    t, lt, pt, t_sq = _grow(s_cell, dens)
    steps = map(operator.truediv, map(operator.mul, t_sq, itertools.repeat(rc)), dens)
    r = itertools.accumulate(steps, lambda r, step: r * unshift + step, initial=rc)
    return ChainState(lattice, s_cell.k, t, ls, np.fromiter(r, complex, lattice.N), lt, pt)


def bloch_parameter(s_cell: ScatteringMatrix, a: float) -> float:
    """z = cos(alpha_t + k a) / |t| of a single cell: a length-1 call of
    chebyshev_input_lanes, so it raises as that does.

    |z| <= 1 marks a band of the infinite chain, |z| > 1 a gap with total
    reflection; for the delta comb z reduces to the Kronig-Penney dispersion
    cos(ka) + (g/k) sin(ka).
    """
    return float(chebyshev_input_lanes(s_cell.k.k, *_lanes(s_cell.t), a)[0][0])


def chebyshev_closed_form(z, rho, N) -> tuple[np.ndarray, np.ndarray]:
    """U_{N-1}(z) and |t^(N)|^2 = 1 / (1 + rho U_{N-1}(z)^2), broadcast over (z, rho, N).

    The one implementation of the closed form; N, whole and >= 1, is the chain length.
    It works on |z|: band entries (|z| <= 1) use sin(N g)/sin(g), g = arccos|z|
    (U = N where g = 0), and gap entries log|U| = (N-1) h + log((1 - e^{-2Nh})
    / (1 - e^{-2h})), h = arccosh|z|, so |t^(N)|^2 stays exact down to the double
    underflow threshold, then reads 0.0, and U saturates to +-inf (z = +-inf
    gives U = +-inf and |t^(N)|^2 = 0 from N = 2 on, and U = 1 at N = 1).  As
    U_{N-1}(z) = (-1)^{N-1} U_{N-1}(|z|), |t^(N)|^2 at -z is that at z bit for
    bit.  A NaN z gives NaNs.  Both results have the broadcast shape, at least 1-D.

    It plans the N-free part on (z, rho) and evaluates the plan at N; a scan
    over many N at the same (z, rho) plans once and evaluates per N.
    """
    z, rho, N = np.asarray(z, dtype=float), np.asarray(rho, dtype=float), np.asarray(N)
    if N.dtype.kind not in "biu" and not (whole := np.isfinite(N) & (N == np.trunc(N))).all():
        raise ValueError(f"cell counts must be whole numbers, got {float(N[~whole].flat[0])!r}")
    # Adding zeros broadcasts at a fraction of np.broadcast_arrays' cost on
    # length-1 calls; evaluate adds them to N as well.
    zeros = np.zeros(np.broadcast(z, rho, N).shape or (1,))
    return _ChebyshevPlan(z + zeros, rho + zeros).evaluate(N)


class _ChebyshevPlan:
    """The part of chebyshev_closed_form that does not depend on N, for
    equally shaped z and rho: the band (|z| <= 1), gap (|z| > 1) and z < 0
    masks, g and sin g on band entries, and h, e^{-2h} - 1 and log rho on gap
    entries.  evaluate serves one N, or N per entry; sweep serves every
    N = 1..n_max in order."""

    def __init__(self, z: np.ndarray, rho: np.ndarray) -> None:
        self.zeros = np.zeros(z.shape)
        self.abs_z = abs_z = np.abs(z)
        self.gap = abs_z > 1.0
        self.band = ~self.gap  # NaN z too, which arccos carries through
        self.negative = z < 0.0
        # gap entries get their own |t|^2; rho = inf there would give inf * 0
        self.rho = np.where(self.gap, 0.0, rho)
        self.gamma = np.arccos(abs_z[self.band])
        self.sin_gamma = np.sin(self.gamma)
        self.eta = np.arccosh(abs_z[self.gap])
        self.gap_den = np.expm1(-2.0 * self.eta)
        with np.errstate(divide="ignore"):  # rho = 0 gives log 0
            self.gap_log_rho = np.log(rho[self.gap])

    def evaluate(self, N) -> tuple[np.ndarray, np.ndarray]:
        """(U_{N-1}(z), |t^(N)|^2) at the cell counts N, which broadcast to the
        plan's shape, as new arrays."""
        N = np.asarray(N)
        if (N < 1).any():
            raise ValueError("cell counts must be >= 1")
        N = N + self.zeros  # float, exact for any realistic chain length
        u = np.zeros(N.shape)  # gap entries are filled last, with their own |t|^2

        if self.gamma.size:
            n_band = N[self.band]  # a copy, and U_{N-1}(1) = N where g = 0
            u[self.band] = np.divide(np.sin(n_band * self.gamma), self.sin_gamma,
                                     out=n_band, where=self.gamma != 0.0)
        t = 1.0 / (1.0 + self.rho * u * u)
        if self.eta.size:
            log_u, t[self.gap] = self._gap(N[self.gap])
            with np.errstate(over="ignore"):  # U -> inf
                u[self.gap] = np.exp(log_u)
        if self.negative.any():  # U_{N-1}(z) = (-1)^{N-1} U_{N-1}(|z|)
            u_neg = u[self.negative]
            u[self.negative] = np.negative(u_neg, out=u_neg, where=N[self.negative] % 2 == 0)
        return u, t

    def _gap(self, n_gap) -> tuple[np.ndarray, np.ndarray]:
        # (log|U_{N-1}|, |t^(N)|^2) on the gap entries at the cell counts
        # n_gap, floats; log(sinh(N eta) / sinh(eta)) in a form where nothing
        # overflows; (N - 1) h is 0 at N = 1 also where h = inf (z = +-inf),
        # as U_0 = 1
        eta = self.eta
        ratio = np.expm1(-2.0 * n_gap * eta) / self.gap_den
        log_u = np.multiply(n_gap - 1.0, eta, out=np.zeros(eta.shape), where=n_gap > 1.0)
        log_u += np.log(ratio)
        return log_u, np.exp(-np.logaddexp(0.0, self.gap_log_rho + 2.0 * log_u))

    def sweep(self, n_max: int):
        """Yield |t^(N)|^2 for N = 1, 2, ..., n_max, each written over the
        last in one buffer of the plan's shape.

        On band entries U_{N-1}(|z|)^2 = U_{N-1}(z)^2 comes from the
        three-term recurrence in Reinsch's form, e_n = e_{n-1} + c U_{n-1}
        and U_n = U_{n-1} + e_n with c = 2(|z| - 1) and U_0 = e_0 = 1, which
        stays accurate next to |z| = 1 (Gentleman, Comput. J. 12, 160 (1969))
        and gives U_{N-1}(1) = N exactly.  Gap entries keep c = 0, so nothing
        overflows, and their row is evaluate's log form at N."""
        shape = self.zeros.shape
        c = np.where(self.gap, 0.0, 2.0 * (self.abs_z - 1.0))
        u, e, t = np.ones(shape), np.ones(shape), np.empty(shape)
        for n in range(1, n_max + 1):
            if n > 1:
                np.multiply(c, u, out=t)
                np.add(e, t, out=e)
                np.add(u, e, out=u)
            np.multiply(u, u, out=t)
            np.multiply(self.rho, t, out=t)
            np.add(1.0, t, out=t)
            np.divide(1.0, t, out=t)
            if self.eta.size:
                t[self.gap] = self._gap(float(n))[1]
            yield t


def chebyshev_input_lanes(k_values, t, a: float) -> tuple[np.ndarray, np.ndarray]:
    """(z, rho) of a cell for the closed form at every wave number of
    k_values, given its transmission amplitudes t there as a complex array:
    z = cos(alpha_t + ka)/|t| and rho = (1 - |t|^2)/|t|^2, the one place z is
    formed.  UndefinedAmplitudeError where |t| is below MODULUS_FLOOR (the
    recurrences' rule), then ValueError for a bad period, then OverflowError at
    the first k where alpha_t + ka is not finite.  rho is inf where |t|^2 is
    subnormal or underflows to 0; the closed form then gives |t^(N)|^2 = 0."""
    mod = np.abs(t)
    _check_floor(mod)
    check_period(a)
    with np.errstate(over="ignore"):
        phase = principal_phase_array(t) + np.asarray(k_values, dtype=float) * a
    overflow = ~np.isfinite(phase)
    if overflow.any():
        k = np.broadcast_to(k_values, phase.shape)[overflow][0]
        raise OverflowError(f"alpha_t + k a is not finite at k={float(k)!r}, a={a!r}")
    np.cos(phase, out=phase)  # z in phase's buffer: no temporary array
    mod2 = mod ** 2
    with np.errstate(over="ignore", divide="ignore"):
        return np.divide(phase, mod, out=phase), (1.0 - mod2) / mod2


def chebyshev_transmission(s_cell: ScatteringMatrix, a: float, N: int) -> float:
    """Closed-form N-cell transmission probability

        |t^(N)|^2 = 1 / (1 + U_{N-1}(z)^2 (1 - |t|^2)/|t|^2),

    z = cos(alpha_t + ka)/|t| from the single cell: a length-1 call of
    chebyshev_input_lanes and chebyshev_closed_form.  Returns a value in [0, 1].
    """
    z, rho = chebyshev_input_lanes(s_cell.k.k, *_lanes(s_cell.t), a)
    return float(chebyshev_closed_form(z, rho, N)[1][0])


def transmission_profile(
    cell, a: float, n_values: np.ndarray, k_values: np.ndarray
) -> np.ndarray:
    """|t^(N)|^2 on a (N, k) grid via the closed form, of shape
    (len(n_values), len(k_values)); ValueError for a period Lattice rejects."""
    Lattice(cell, a, 1)
    z, rho = chebyshev_input_lanes(k_values, cell_lanes(cell, k_values)[0], a)
    return chebyshev_closed_form(z, rho, np.asarray(n_values)[:, None])[1]
