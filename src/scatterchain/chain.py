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

from .cells import Lattice, cell_smatrix
from .core import (
    MODULUS_FLOOR,
    ScatteringMatrix,
    WaveNumber,
    math_map,
    principal_phase,
    principal_phase_array,
)
from .errors import ResonanceDivergenceError, UndefinedAmplitudeError

_LOG_HUGE = 700.0  # exp beyond this overflows a double


def displace(s: ScatteringMatrix, a: float) -> ScatteringMatrix:
    """Amplitudes of the same scatterer rigidly shifted right by a.

    t is untouched; l picks up e^{2ika}, r picks up e^{-2ika}.  Negative a
    shifts left.  Moduli, hence unitarity, are preserved exactly.
    """
    phase = cmath.exp(2.0j * s.k.k * a)
    return ScatteringMatrix(t=s.t, l=s.l * phase, r=s.r * phase.conjugate(), k=s.k)


def compose(sA: ScatteringMatrix, sB: ScatteringMatrix) -> ScatteringMatrix:
    """Scattering matrix of two scatterers in series, sA entirely left of sB.

    Both inputs must already be expressed in the same global coordinates and
    share one wave number.  Summing all back-and-forth bounces between the
    two gives the geometric-series closed form

        t = tA tB / (1 - lB rA)
        l = lA + tA^2 lB / (1 - lB rA)
        r = rB + tB^2 rA / (1 - lB rA)

    which is unitary and associative.
    """
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
        finite = np.isfinite(np.stack((self.l, self.r)))
        if not finite.all():  # name the first non-finite amplitude in (n, l/r) order
            n = int(np.argmin(finite.all(axis=0)))
            name = "lr"[int(np.argmin(finite[:, n]))]
            value = complex(getattr(self, name)[n])
            raise ValueError(f"amplitude {name!r} must be finite, got {value!r}")

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
    tc, lc, rc = s_cell.t, s_cell.l, s_cell.r
    kk, a = k.k, lattice.a

    def step(n, l, r, t_sq):
        pos_phase = cmath.exp(2.0j * kk * n * a)
        den = _checked(1.0 - lc * r * pos_phase, n)
        return (den, l + t_sq * lc * pos_phase / den,
                rc * pos_phase.conjugate() + tc * tc * r / den)

    return _grow(lattice, s_cell, step)


def cell_lanes(cell, k_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, l, r) of the cell at every wave number of k_values, as complex
    arrays of k_values' shape, filled one cell_smatrix call at a time."""
    k_values = np.asarray(k_values, dtype=float)
    lanes = np.empty((3, k_values.size), dtype=complex)
    for i, kv in enumerate(k_values.ravel().tolist()):
        s = cell_smatrix(cell, WaveNumber(kv))
        lanes[:, i] = s.t, s.l, s.r
    t, l, r = lanes.reshape((3, *k_values.shape))
    return t, l, r


# Complex + - * / on (real, imag) float arrays, in CPython's own formulas, so
# every lane rounds exactly as the scalar recurrence does; numpy's complex
# multiply, divide and abs round differently on some inputs.

def _mul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi):
    # _Py_c_quot: Smith's method, scaled by the larger part of b (b != 0).
    # The branches differ only in the order of commuting operands.
    real_big = np.abs(br) >= np.abs(bi)
    p, q = np.where(real_big, br, bi), np.where(real_big, bi, br)
    x, y = np.where(real_big, ar, ai), np.where(real_big, ai, ar)
    ratio = q / p
    denom = p + q * ratio
    return (x + y * ratio) / denom, np.where(real_big, y - x * ratio, x * ratio - y) / denom


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _exp_lanes(log_mod, phase) -> np.ndarray:
    # _safe_exp per lane; numpy's complex exp matches cmath.exp
    out = np.zeros(log_mod.shape, dtype=complex)
    keep = ~(log_mod < -_LOG_HUGE)
    out[keep] = np.exp(_complex(log_mod[keep], phase[keep]))
    return out


def displace_lanes(
    k_values, l: np.ndarray, r: np.ndarray, a: float
) -> tuple[np.ndarray, np.ndarray]:
    """l and r of displace(s, a) in every lane of the arrays, bit for bit:
    l e^{2ika} and r e^{-2ika}."""
    k = np.asarray(k_values, dtype=float)
    rot = _exp_lanes(np.zeros(k.shape), 2.0 * k * a)
    l_re, l_im = _mul(l.real, l.imag, rot.real, rot.imag)
    r_re, r_im = _mul(r.real, r.imag, rot.real, -rot.imag)
    return _complex(l_re, l_im), _complex(r_re, r_im)


# Lanes per pass of the recurrence: bounds its temporaries to ~1 MB at any
# k count, for one more round of per-step numpy overhead per 1024 lanes.
_LANE_CHUNK = 1024


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
        t, l, r = t.copy(), l.copy(), r.copy()
        for start in range(0, k.size, _LANE_CHUNK):
            lanes = slice(start, start + _LANE_CHUNK)
            lt[lanes], pt[lanes], t[lanes], l[lanes], r[lanes] = _grow_lanes(
                lattice, k.ravel()[lanes], lt[lanes], pt[lanes], tc[lanes], lc[lanes], rc[lanes]
            )
    return tuple(x.reshape(k.shape) for x in (lt, pt, t, l, r))


def _grow_lanes(lattice: Lattice, k, lt_c, pt_c, tc, lc, rc):
    # chain_amplitudes' loop, one vectorised step per n over the lanes
    lt, pt = lt_c, pt_c
    lc_re, lc_im, rc_re, rc_im = lc.real, lc.imag, rc.real, rc.imag
    l_re, l_im, r_re, r_im = lc_re, lc_im, rc_re, rc_im
    tt_re, tt_im = _mul(tc.real, tc.imag, tc.real, tc.imag)
    two_k = 2.0 * k
    for n in range(1, lattice.N):
        pos = _exp_lanes(np.zeros(two_k.shape), two_k * n * lattice.a)
        p_re, p_im = pos.real, pos.imag
        w_re, w_im = _mul(*_mul(lc_re, lc_im, r_re, r_im), p_re, p_im)
        d_re, d_im = 1.0 - w_re, 0.0 - w_im
        abs_den = np.hypot(d_re, d_im)
        if (abs_den < 1e-14).any():
            raise ResonanceDivergenceError(
                f"recurrence denominator vanished at n={n}; inputs corrupted"
            )
        t_sq = _exp_lanes(2.0 * lt, 2.0 * pt)
        dl_re, dl_im = _quot(*_mul(*_mul(t_sq.real, t_sq.imag, lc_re, lc_im), p_re, p_im),
                             d_re, d_im)
        dr_re, dr_im = _quot(*_mul(tt_re, tt_im, r_re, r_im), d_re, d_im)
        sr_re, sr_im = _mul(rc_re, rc_im, p_re, -p_im)
        l_re, l_im = l_re + dl_re, l_im + dl_im
        r_re, r_im = sr_re + dr_re, sr_im + dr_im
        lt = lt + (lt_c - math_map(math.log, abs_den))
        pt = pt + (pt_c - math_map(math.atan2, d_im, d_re))
    return lt, pt, _exp_lanes(lt, pt), _complex(l_re, l_im), _complex(r_re, r_im)


def chain_amplitudes_addleft(lattice: Lattice, k: WaveNumber) -> ChainState:
    """Grow the chain by shifting it right by a and prepending a cell at the origin.

    Independent recursion path, in particular for the right reflection:

        r^(n+1) = r^(n) e^{-2ika} + (t^(n))^2 r / (1 - l^(n) r e^{2ika}).

    Must reproduce chain_amplitudes exactly up to rounding.
    """
    s_cell = cell_smatrix(lattice.cell, k)
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
    alpha_t = principal_phase(s_cell.t)
    return math.cos(alpha_t + s_cell.k.k * a) / mod


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
    """
    z, rho, N = np.asarray(z, dtype=float), np.asarray(rho, dtype=float), np.asarray(N)
    if (N < 1).any():
        raise ValueError("cell counts must be >= 1")
    # Adding zeros broadcasts at a fraction of np.broadcast_arrays' cost on
    # length-1 calls; N becomes float, exact for any realistic chain length.
    zeros = np.zeros(np.broadcast(z, rho, N).shape or (1,))
    z, rho, N = z + zeros, rho + zeros, N + zeros
    abs_z = np.abs(z)
    band = abs_z < 1.0 - CHEBYSHEV_EDGE_WINDOW
    gap = abs_z > 1.0 + CHEBYSHEV_EDGE_WINDOW
    edge = ~(band | gap)
    u = np.zeros(z.shape)  # gap entries are filled last, with their own |t|^2

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
        # log(sinh(N eta) / sinh(eta)) in a form where nothing overflows
        ratio = np.expm1(-2.0 * n_gap * eta) / np.expm1(-2.0 * eta)
        log_u = (n_gap - 1.0) * eta + np.log(ratio)
        sign = np.where((z_gap < 0.0) & (n_gap % 2 == 0), -1.0, 1.0)
        with np.errstate(over="ignore", divide="ignore"):  # U -> inf; rho = 0 gives log 0
            u[gap] = sign * np.exp(log_u)
            t[gap] = np.exp(-np.logaddexp(0.0, np.log(rho[gap]) + 2.0 * log_u))
    return u, t


def chebyshev_U(n: int, z: float) -> float:
    """Chebyshev polynomial of the second kind U_n(z) on the whole real line.

    A length-1 call of chebyshev_closed_form: exact at z = +-1, saturating
    to +-inf where the gap value overflows.
    """
    if n < 0:
        raise ValueError(f"polynomial order must be >= 0, got {n}")
    return float(chebyshev_closed_form(float(z), 0.0, n + 1)[0][0])


def chebyshev_inputs(s_cell: ScatteringMatrix, a: float) -> tuple[float, float]:
    """(z, rho) of one cell for the closed form: z = cos(alpha_t + ka)/|t| and
    rho = (1 - |t|^2)/|t|^2."""
    mod2 = abs(s_cell.t) ** 2
    if mod2 == 0.0:
        raise UndefinedAmplitudeError("transmission amplitude below floor")
    return bloch_parameter(s_cell, a), (1.0 - mod2) / mod2


def chebyshev_grid(cell, a: float, k_values) -> tuple[np.ndarray, np.ndarray]:
    """chebyshev_inputs of the cell at every wave number of k_values, as (z, rho) arrays."""
    pairs = [chebyshev_inputs(cell_smatrix(cell, WaveNumber(float(kv))), a) for kv in k_values]
    z, rho = np.array(pairs, dtype=float).reshape(-1, 2).T
    return z, rho


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
    z, rho = chebyshev_grid(cell, a, k_values)
    return chebyshev_closed_form(z, rho, np.asarray(n_values, dtype=int)[:, None])[1]
