"""Observables built on the chain amplitudes: Wigner time delays, Hartman
traversal times, band classification, large-N phase asymptotics, and
wave-packet averaged transmission."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .cells import Lattice, PotentialCell, cell_lanes
from .chain import (
    ChainState,
    _ChebyshevPlan,
    _end_amplitudes,
    _transmission_phase_slopes,
    bloch_parameter,
    chain_end_amplitudes,
    chebyshev_input_lanes,
)
from .core import (
    MODULUS_FLOOR,
    PhaseCurve,
    ScatteringMatrix,
    WaveNumber,
    _defined,
    displace_lanes,
    principal_phase_array,
    unwrap_phases,
    wrap_to_principal,
)
from .errors import (
    CoverageError,
    EdgeOfGridError,
    InBandWarning,
    UndefinedAmplitudeError,
)

DEFAULT_FD_STEP = 1e-4
DEFAULT_EDGE_TOL = 1e-9


class BandClass(Enum):
    BAND = "Band"
    GAP = "Gap"
    EDGE = "Edge"


@dataclass(frozen=True)
class BandVerdict:
    """Classification of one wave number against the infinite-chain spectrum.

    Gap iff |z| > 1 + tol (total reflection as N grows), Edge iff |z| is
    within tol of 1 (polynomial decay of transmission), Band otherwise.
    """

    k: WaveNumber
    z: float
    kind: BandClass
    edge_tolerance: float


def band_classify(
    s_cell: ScatteringMatrix, a: float, tol: float = DEFAULT_EDGE_TOL
) -> BandVerdict:
    """Classify s_cell's wave number from z = cos(alpha_t + ka)/|t|."""
    z = bloch_parameter(s_cell, a)
    return BandVerdict(k=s_cell.k, z=z, kind=band_class_lanes([z], tol)[0], edge_tolerance=tol)


def band_class_lanes(z, tol: float) -> np.ndarray:
    """The band rule for every Bloch parameter of the float array z: EDGE where
    |z| is within tol of 1, else GAP where |z| > 1, else BAND."""
    deviation = np.abs(np.asarray(z, dtype=float)) - 1.0
    kinds = np.where(deviation > 0.0, BandClass.GAP, BandClass.BAND)
    return np.where(np.abs(deviation) <= tol, BandClass.EDGE, kinds)


@dataclass(frozen=True)
class DelayRecord:
    """Time delays tau = (1/v) d(alpha)/dk at one wave number, v = k.

    A slot is None when the corresponding amplitude has no usable phase.
    method records the differentiation scheme and step.
    """

    k: WaveNumber
    tau_t: Optional[float]
    tau_l: Optional[float]
    tau_r: Optional[float]
    method: str


@dataclass(frozen=True)
class HartmanRecord:
    """Time delay tau_t_N of the transmitted particle through N cells."""

    N: int
    tau_t_N: float
    k: WaveNumber
    a: float

    @property
    def T_t_N(self) -> float:
        """The traversal time N*a/v + tau_t_N: free flight plus time delay."""
        return self.N * self.a / self.k.velocity + self.tau_t_N


@dataclass(frozen=True)
class AsymptoticFit:
    """Constants of the large-N phase laws alpha_r(N) = alpha - 2Nka + o(1)
    and alpha_t(N) = beta - Nka + o(1), fitted over the upper half of the
    available N range.

    slope_r and slope_t are the raw linear-fit slopes of the uncompensated
    phase sequences (expected -2ka and -ka); residual is the worst rms
    deviation of the compensated sequences from their fitted constants;
    l_limit_modulus is |l^(N_max)|, which must approach 1 in a gap.
    """

    alpha: float
    beta: float
    residual: float
    N_range: tuple[int, int]
    slope_r: float
    slope_t: float
    l_limit_modulus: float


def _stencil_window(k_center: float, fd_step: float) -> np.ndarray:
    """The 5-point window k + j*fd_step, j = -2..2."""
    ks = k_center + np.arange(-2, 3) * fd_step
    if ks[0] <= 0.0:
        raise ValueError(f"fd_step={fd_step!r}: finite-difference window around "
                         f"k={k_center!r} extends to k <= 0; lower fd_step")
    return ks


def _five_point(values: np.ndarray, window: np.ndarray) -> float:
    """d/dk at the centre of a 5-point window: central differences at steps
    h and 2h combined by one Richardson step.  Raises ValueError unless
    the window is uniform to 1e-9 relative: at large k or small fd_step,
    rounding of k + j*fd_step breaks the stencil."""
    steps = np.diff(window)
    h = float(steps[0])
    if not (h > 0.0 and np.abs(steps - h).max() <= 1e-9 * h):
        raise ValueError(f"stencil around k={float(window[2])!r} is not uniformly spaced "
                         "after rounding k + j*fd_step; raise fd_step")
    d_h = (values[3] - values[1]) / (2.0 * h)
    d_2h = (values[4] - values[0]) / (4.0 * h)
    return float((4.0 * d_h - d_2h) / 3.0)


def _stencil_derivative(curve: PhaseCurve, k: WaveNumber) -> float:
    """d(phase)/dk at a grid point by the 5-point formula."""
    grid = curve.grid
    idx = int(np.argmin(np.abs(grid - k.k)))
    if not math.isclose(float(grid[idx]), k.k, rel_tol=1e-12, abs_tol=1e-15):
        raise EdgeOfGridError(f"k={k.k!r} is not a sample point of the phase curve")
    if idx < 2 or idx > grid.size - 3:
        raise EdgeOfGridError("stencil needs at least two neighbors on each side of k")
    window = slice(idx - 2, idx + 3)
    return _five_point(curve.values[window], grid[window])


def time_delays(
    curves: Sequence[Optional[PhaseCurve]], k: WaveNumber
) -> DelayRecord:
    """Differentiate the (t, l, r) phase curves at k and divide by v = k.

    curves is the triple in (t, l, r) order; None slots (undefined phase)
    propagate to None delays.
    """
    if len(curves) != 3:
        raise ValueError("expected the (t, l, r) curve triple")
    taus: list[Optional[float]] = []
    h = None
    for curve in curves:
        if curve is None:
            taus.append(None)
        else:
            taus.append(_stencil_derivative(curve, k) / k.velocity)
            if h is None and len(curve) > 1:
                h = float(curve.grid[1] - curve.grid[0])
    method = "central5+richardson" + (f"(h={h:.6g})" if h is not None else "(undefined)")
    return DelayRecord(k=k, tau_t=taus[0], tau_l=taus[1], tau_r=taus[2], method=method)


def chain_phase_curves(
    cell: PotentialCell,
    a: float,
    N: int,
    k_center: float,
    *,
    fd_step: float = DEFAULT_FD_STEP,
    displacement: float = 0.0,
) -> tuple[Optional[PhaseCurve], Optional[PhaseCurve], Optional[PhaseCurve]]:
    """Phases of the N-cell chain on a uniform window around k_center.

    Returns the (t, l, r) curve triple ready for time_delays; a slot is None
    if its amplitude modulus falls below MODULUS_FLOOR anywhere on the
    window.  The t curve comes from the recurrence's accumulated phase, so
    it stays usable deep in a gap; displacement shifts the whole chain right
    by that distance before phases are read off.  With time_delays, the
    stencil cross-check of delay_scan's analytic delays.
    """
    ks = _stencil_window(float(k_center), fd_step)
    if N == 1:
        t, l, r = cell_lanes(cell, ks)
        with np.errstate(divide="ignore"):  # log 0 = -inf
            t_log, t_phase = np.log(np.abs(t)), principal_phase_array(t)
    else:
        t_log, t_phase, _, l, r = chain_end_amplitudes(Lattice(cell, a, N), ks)
    if displacement != 0.0:
        l, r = displace_lanes(ks, l, r, displacement)
    phases = [(t_phase, (t_log >= math.log(MODULUS_FLOOR)).all())]
    phases += [(principal_phase_array(z), (np.abs(z) >= MODULUS_FLOOR).all()) for z in (l, r)]
    return tuple(PhaseCurve(grid=ks, values=unwrap_phases(p, ks), label=label) if ok else None
                 for label, (p, ok) in zip("tlr", phases))


def delay_scan(
    cell: PotentialCell,
    a: float,
    N: int,
    k_values,
    *,
    displacements: Sequence[float] = (0.0,),
) -> list[tuple[list[Optional[float]], ...]]:
    """Time delays (tau_t, tau_l, tau_r) of the N-cell chain at every k of k_values.

    One batched recurrence, one lane per k, carries the amplitudes with
    their analytic k-derivatives, and tau_x = Im(x'/x)/k: for t from
    g = d ln t/dk in log form, so it stays defined deep in a gap.  Every
    displacement in displacements reuses them with l and r rotated, which
    adds exactly +-2x/k to tau_l and tau_r.  Returns one (tau_t, tau_l,
    tau_r) triple of lists per displacement, None where the amplitude's
    modulus at k is below MODULUS_FLOOR.  For N = 1 the cell's own
    amplitudes are used and a is not read (it may be None).
    """
    return [tuple(_defined(values, ok) for values, ok in lanes)
            for lanes in _delay_lanes(cell, a, N, k_values, displacements)]


def _delay_lanes(
    cell: PotentialCell, a: float, N: int, k_values, displacements: Sequence[float]
) -> list[tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """delay_scan's delays as arrays: per displacement, the (values, defined)
    pair of tau_t, tau_l and tau_r, values read only where defined is True.
    Every displacement shares one tau_t pair.  OverflowError names a delay
    and its first k where a defined value is not a finite double."""
    k = np.asarray(k_values, dtype=float)
    cell_dk = cell_lanes(cell, k, derivatives=True)
    if N == 1:
        _, l, r, g, dl, dr = cell_dk
        with np.errstate(divide="ignore"):  # log 0 = -inf
            t_log = np.log(np.abs(cell_dk[0]))
    else:
        t_log, _, _, l, r, g, dl, dr = _end_amplitudes(Lattice(cell, a, N), k, cell_dk)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports it
        tau_t = _finite("time delay tau_t", g.imag / k, t_log >= math.log(MODULUS_FLOOR), "k", k)
        tables = []
        for displacement in displacements:
            l_x, r_x, dl_x, dr_x = (displace_lanes(k, l, r, displacement, dl, dr)
                                    if displacement else (l, r, dl, dr))
            taus = [tau_t]
            for x, z, dz in (("l", l_x, dl_x), ("r", r_x, dr_x)):
                ok = np.abs(z) >= MODULUS_FLOOR
                log_dz = np.divide(dz, z, out=np.zeros(z.shape, dtype=complex), where=ok)
                taus.append(_finite(f"time delay tau_{x}", log_dz.imag / k, ok, "k", k))
            tables.append(tuple(taus))
    return tables


def _finite(what: str, values: np.ndarray, defined, name: str, at: np.ndarray) -> tuple:
    # (values, defined); OverflowError names the first name=at where a defined value is inf/NaN
    bad = ~np.isfinite(values) & defined
    if bad.any():
        raise OverflowError(f"{what} is not finite at {name}={at[bad][0].item()!r}")
    return values, defined


def hartman_scan(cell: PotentialCell, a: float, k: WaveNumber, n_max: int) -> list[HartmanRecord]:
    """Traversal times T_t(N) = N a/v + tau_t(N) for N = 1..n_max at fixed k,
    with tau_t(N) = Im(d ln t^(N)/dk)/k from one recurrence that carries
    the k-derivative analytically.

    In a gap the time delay approaches -N*a/v, so T_t(N) saturates instead
    of growing: the transmitted particle's effective traversal velocity is
    unbounded in N.  At an in-band k the scan still runs but warns, since
    T_t(N) then grows linearly with N.
    """
    a = float(a)
    taus, _, note = _hartman_delays(cell, a, k, n_max)
    if note:
        warnings.warn(InBandWarning(note))
    return [HartmanRecord(N=n, tau_t_N=tau, k=k, a=a) for n, tau in enumerate(taus.tolist(), 1)]


def _hartman_delays(cell: PotentialCell, a: float, k: WaveNumber, n_max: int) -> tuple:
    """hartman_scan's tau_t(N) and T_t(N) (in HartmanRecord.T_t_N's order) for
    N = 1..n_max as arrays from one evaluation of the cell, and its in-band note,
    "" at a gap k.  OverflowError names the first N where T_t is not finite."""
    cell_dk = cell_lanes(cell, [k.k], derivatives=True)
    z = float(chebyshev_input_lanes(k.k, cell_dk[0], a)[0][0])
    slopes = _transmission_phase_slopes(Lattice(cell, a, n_max), k, cell_dk)
    n = np.arange(1, n_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports it
        tau = slopes / k.velocity
        times = _finite("traversal time T_t", n * a / k.velocity + tau, True, "N", n)[0]
    gap = band_class_lanes([z], DEFAULT_EDGE_TOL)[0] is BandClass.GAP
    return tau, times, "" if gap else (f"k={k.k:.12g} is not in a gap (z={z:.6g}); "
                                       "traversal time will grow with N instead of saturating")


def asymptotic_phase_fit(chain: ChainState) -> AsymptoticFit:
    """Fit the large-N laws of the reflection and transmission phases.

    In a gap, alpha_r(N) + 2Nka and alpha_t(N) + Nka converge to constants
    alpha and beta; both are fitted over the upper half of 1..N_max, along
    with the raw slopes.  Refuses at an in-band wave number, where the
    phases oscillate indefinitely instead of converging.
    """
    n_max = len(chain)
    if n_max < 16:
        raise ValueError(f"need N_max >= 16 for the fit, got {n_max}")
    k = chain.k
    a = chain.lattice.a
    z = float(chebyshev_input_lanes(k.k, chain.t[:1], a)[0][0])  # t^(1) is the cell's t
    if band_class_lanes([z], DEFAULT_EDGE_TOL)[0] is BandClass.BAND:
        raise ValueError(f"k={k.k!r} is in a band (z={z:.6g}): phases do not converge")
    ka = k.k * a
    ns = np.arange(1, n_max + 1)

    if np.abs(chain.r).min() < MODULUS_FLOOR:
        raise UndefinedAmplitudeError("right reflection amplitude below floor")
    raw_r = principal_phase_array(chain.r) + 2.0 * ns * ka
    comp_r = unwrap_phases(raw_r, ns)
    comp_t = chain.t_phases + ns * ka

    upper = ns > n_max // 2
    n_lo = int(ns[upper][0])
    alpha_mean = float(np.mean(comp_r[upper]))
    beta_mean = float(np.mean(comp_t[upper]))
    resid_r = float(np.sqrt(np.mean((comp_r[upper] - alpha_mean) ** 2)))
    resid_t = float(np.sqrt(np.mean((comp_t[upper] - beta_mean) ** 2)))

    slope_r = float(np.polyfit(ns[upper], comp_r[upper] - 2.0 * ns[upper] * ka, 1)[0])
    slope_t = float(np.polyfit(ns[upper], chain.t_phases[upper], 1)[0])

    return AsymptoticFit(
        alpha=wrap_to_principal(alpha_mean),
        beta=wrap_to_principal(beta_mean),
        residual=max(resid_r, resid_t),
        N_range=(n_lo, n_max),
        slope_r=slope_r,
        slope_t=slope_t,
        l_limit_modulus=abs(complex(chain.l[-1])),
    )


def wavepacket_average(
    k_values: np.ndarray, transmissions: np.ndarray, k0: float, sigma: float
) -> float:
    """Gaussian-weighted average of a sampled transmission curve.

    Weight exp(-(k-k0)^2 / (2 sigma^2)), normalized over the same samples;
    the samples must cover [k0 - 5 sigma, k0 + 5 sigma].  This is the
    quantity that converges for large N at in-band energies, where the
    monoenergetic transmission keeps oscillating.
    """
    k_values = np.asarray(k_values, dtype=float)
    transmissions = np.asarray(transmissions, dtype=float)
    if k_values.ndim != 1 or k_values.shape != transmissions.shape:
        raise ValueError("k_values and transmissions must be 1-d and equally long")
    return _packet_averager(k_values, k0, sigma)(transmissions)


def _packet_averager(k_values: np.ndarray, k0: float, sigma: float):
    """wavepacket_average at fixed 1-d samples k_values, k0 and sigma, as a
    function of the transmissions: the samples are checked and the weight
    and its integral computed once, for a scan that averages many curves.
    The function works in buffers of its own, which each call overwrites."""
    steps = np.diff(k_values)
    if k_values.size < 2 or not np.all(steps > 0.0):  # also where a sample is NaN
        raise ValueError("k_values must be strictly increasing with >= 2 samples")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not math.isfinite(k0):
        raise ValueError(f"k0 must be finite, got {k0!r}")
    lo, hi = k0 - 5.0 * sigma, k0 + 5.0 * sigma
    pad = 1e-12 * max(1.0, abs(k0))
    if k_values[0] > lo + pad or k_values[-1] < hi - pad:
        raise CoverageError(
            f"samples [{k_values[0]:.6g}, {k_values[-1]:.6g}] do not cover "
            f"the window [{lo:.6g}, {hi:.6g}]"
        )
    weight = np.exp(-0.5 * ((k_values - k0) / sigma) ** 2)
    weighted, pairs = np.empty(k_values.size), np.empty(steps.size)

    def integral(y: np.ndarray):
        # numpy's trapezoid rule, (d * (y[1:] + y[:-1]) / 2.0).sum(), in place;
        # halving by * 0.5 is exact, so it equals / 2.0 bit for bit
        np.add(y[1:], y[:-1], out=pairs)
        np.multiply(steps, pairs, out=pairs)
        np.multiply(pairs, 0.5, out=pairs)
        return pairs.sum()

    norm = integral(weight)

    def average(transmissions) -> float:
        np.multiply(weight, transmissions, out=weighted)
        return float(integral(weighted) / norm)

    return average


def _packet_profile(z, rho, k_values: np.ndarray, k0: float, sigma: float,
                    n_max: int) -> np.ndarray:
    """wavepacket_average of the closed-form |t^(N)|^2 at (z, rho) for
    N = 1..n_max, as an array: the plan's sweep writes each row over the
    last in one buffer, so memory is O(k count), not O(n_max x k count)."""
    average = _packet_averager(k_values, k0, sigma)
    return np.fromiter(map(average, _ChebyshevPlan(z, rho).sweep(n_max)), float, n_max)
