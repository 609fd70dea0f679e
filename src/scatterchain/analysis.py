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

from .cells import Lattice, PotentialCell, cell_lanes, cell_smatrix
from .chain import (
    ChainState,
    bloch_parameter,
    chain_amplitudes,
    chain_end_amplitudes,
)
from .core import (
    MODULUS_FLOOR,
    PhaseCurve,
    ScatteringMatrix,
    WaveNumber,
    displace_lanes,
    math_map,
    principal_phase_array,
    unwrap_phases,
    wrap_to_principal,
)
from .errors import (
    ConfigError,
    CoverageError,
    EdgeOfGridError,
    InBandWarning,
    UndefinedAmplitudeError,
)

DEFAULT_FD_STEP = 1e-4
DEFAULT_EDGE_TOL = 1e-9

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


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
    """Traversal time of the transmitted particle through N cells:
    T = N*a/v + tau_t, the free flight over the chain plus the time delay."""

    N: int
    tau_t_N: float
    T_t_N: float
    k: WaveNumber
    a: float

    def __post_init__(self) -> None:
        expected = self.N * self.a / self.k.velocity + self.tau_t_N
        if not math.isclose(self.T_t_N, expected, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("T_t_N must equal N*a/v + tau_t_N")


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


def _stencil_windows(k_centers, fd_step: float) -> np.ndarray:
    """The 5-point windows k + j*fd_step, j = -2..2, along a new last axis."""
    offsets = np.arange(-2, 3) * fd_step
    ks = np.asarray(k_centers, dtype=float)[..., None] + offsets
    if (ks[..., 0] <= 0.0).any():
        k = float(np.min(k_centers))
        raise ConfigError(
            f"field 'fd_step': finite-difference window around k={k!r} "
            "extends to k <= 0; lower fd_step"
        )
    return ks


def _stencil_step(windows: np.ndarray) -> np.ndarray:
    """Step h of every 5-point window along the last axis.

    Raises ConfigError unless each window is uniform to 1e-9 relative: at
    large k or small fd_step, rounding of k + j*fd_step breaks the stencil.
    """
    steps = np.diff(windows, axis=-1)
    h = steps[..., 0]
    uniform = (h > 0.0) & (np.abs(steps - h[..., None]).max(axis=-1) <= 1e-9 * h)
    if not uniform.all():
        k = np.atleast_1d(windows[..., 2])[~np.atleast_1d(uniform)][0]
        raise ConfigError(
            f"field 'fd_step': stencil around k={float(k)!r} is not uniformly spaced "
            "after rounding; raise fd_step"
        )
    return h


def _five_point(values: np.ndarray, h) -> np.ndarray:
    """d/dk at the centre of 5-point windows along the last axis: central
    differences at steps h and 2h combined by one Richardson step."""
    d_h = (values[..., 3] - values[..., 1]) / (2.0 * h)
    d_2h = (values[..., 4] - values[..., 0]) / (4.0 * h)
    return (4.0 * d_h - d_2h) / 3.0


def _stencil_derivative(curve: PhaseCurve, k: WaveNumber) -> float:
    """d(phase)/dk at a grid point by the 5-point formula."""
    grid = curve.grid
    idx = int(np.argmin(np.abs(grid - k.k)))
    if not math.isclose(float(grid[idx]), k.k, rel_tol=1e-12, abs_tol=1e-15):
        raise EdgeOfGridError(f"k={k.k!r} is not a sample point of the phase curve")
    if idx < 2 or idx > grid.size - 3:
        raise EdgeOfGridError("stencil needs at least two neighbors on each side of k")
    window = slice(idx - 2, idx + 3)
    return float(_five_point(curve.values[window], _stencil_step(grid[window])))


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


def _window_amplitudes(cell: PotentialCell, a: float, N: int, ks: np.ndarray):
    """(t_log, t_phase, l, r) of the N-cell chain at every k of ks, in one
    batched recurrence; for N = 1 the cell amplitudes directly, with
    t_log = -inf where t vanishes."""
    if N == 1:
        t, l, r = cell_lanes(cell, ks)
        mod = np.hypot(t.real, t.imag)
        t_log = math_map(lambda m: math.log(m) if m > 0.0 else -math.inf, mod)
        return t_log, principal_phase_array(t), l, r
    t_log, t_phase, _, l, r = chain_end_amplitudes(Lattice(cell, a, N), ks)
    return t_log, t_phase, l, r


def _window_phases(ks, t_log, t_phase, l, r, displacement: float):
    """Raw (t, l, r) phases on the windows ks (window points along the last
    axis), each with a per-window flag that its modulus stays >= MODULUS_FLOOR;
    displacement shifts the chain right, rotating l and r."""
    if displacement != 0.0:
        l, r = displace_lanes(ks, l, r, displacement)
    t_ok = (t_log >= math.log(MODULUS_FLOOR)).all(axis=-1)
    l_ok = (np.hypot(l.real, l.imag) >= MODULUS_FLOOR).all(axis=-1)
    r_ok = (np.hypot(r.real, r.imag) >= MODULUS_FLOOR).all(axis=-1)
    return (t_phase, t_ok), (principal_phase_array(l), l_ok), (principal_phase_array(r), r_ok)


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
    by that distance before phases are read off.  The one-centre case of
    delay_scan's window phases.
    """
    ks = _stencil_windows(float(k_center), fd_step)
    amplitudes = _window_amplitudes(cell, a, N, ks)
    return tuple(
        PhaseCurve(grid=ks, values=unwrap_phases(phases, ks), label=label) if ok else None
        for label, (phases, ok) in zip(
            "tlr", _window_phases(ks, *amplitudes, displacement)
        )
    )


def delay_scan(
    cell: PotentialCell,
    a: float,
    N: int,
    k_values,
    *,
    fd_step: float = DEFAULT_FD_STEP,
    displacements: Sequence[float] = (0.0,),
) -> list[tuple[list[Optional[float]], ...]]:
    """Time delays (tau_t, tau_l, tau_r) of the N-cell chain at every k of k_values.

    One batched recurrence covers all 5-point stencil windows of the scan;
    every displacement in displacements reuses the same amplitudes with l
    and r rotated.  Returns one (tau_t, tau_l, tau_r) triple of lists per
    displacement, None where the phase is undefined on the window; each
    value equals time_delays(chain_phase_curves(...)) at that k.  For N = 1
    the cell's own amplitudes are used and a is not read (it may be None).
    Raises ConfigError when a window is not uniformly spaced.
    """
    k = np.asarray(k_values, dtype=float)
    ks = _stencil_windows(k, fd_step)
    h = _stencil_step(ks)
    amplitudes = _window_amplitudes(cell, a, N, ks)
    tables = []
    for displacement in displacements:
        taus = []
        for phases, ok in _window_phases(ks, *amplitudes, displacement):
            tau = np.zeros(k.shape)
            tau[ok] = _five_point(unwrap_phases(phases[ok], ks[ok]), h[ok]) / k[ok]
            taus.append([v if defined else None for v, defined in zip(tau.tolist(), ok.tolist())])
        tables.append(tuple(taus))
    return tables


def hartman_scan(
    cell: PotentialCell,
    a: float,
    k: WaveNumber,
    n_max: int,
    *,
    fd_step: float = DEFAULT_FD_STEP,
) -> list[HartmanRecord]:
    """Traversal times T_t(N) for N = 1..n_max at fixed k.

    In a gap the time delay approaches -N*a/v, so T_t(N) saturates instead
    of growing: the transmitted particle's effective traversal velocity is
    unbounded in N.  At an in-band k the scan still runs but warns, since
    T_t(N) then grows linearly with N.
    """
    verdict = band_classify(cell_smatrix(cell, k), a)
    if verdict.kind is not BandClass.GAP:
        warnings.warn(
            InBandWarning(
                f"k={k.k:.12g} is not in a gap (z={verdict.z:.6g}); "
                "traversal time will grow with N instead of saturating"
            )
        )
    ks = _stencil_windows(k.k, fd_step)
    h = _stencil_step(ks)
    sweeps = [chain_amplitudes(Lattice(cell, a, n_max), WaveNumber(kv)) for kv in ks.tolist()]
    phases = np.stack([sweep.t_phases for sweep in sweeps], axis=-1)
    taus = _five_point(unwrap_phases(phases, ks), h) / k.velocity
    a = float(a)
    return [HartmanRecord(N=n, tau_t_N=tau, T_t_N=n * a / k.velocity + tau, k=k, a=a)
            for n, tau in enumerate(taus.tolist(), 1)]


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
    verdict = band_classify(cell_smatrix(chain.lattice.cell, k), a)
    if verdict.kind is BandClass.BAND:
        raise ValueError(
            f"k={k.k!r} is in a band (z={verdict.z:.6g}): phases do not converge"
        )
    ka = k.k * a
    ns = np.arange(1, n_max + 1)

    if np.hypot(chain.r.real, chain.r.imag).min() < MODULUS_FLOOR:
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
    and its integral computed once, for a scan that averages many curves."""
    if k_values.size < 2 or np.any(np.diff(k_values) <= 0.0):
        raise ValueError("k_values must be strictly increasing with >= 2 samples")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    lo, hi = k0 - 5.0 * sigma, k0 + 5.0 * sigma
    pad = 1e-12 * max(1.0, abs(k0))
    if k_values[0] > lo + pad or k_values[-1] < hi - pad:
        raise CoverageError(
            f"samples [{k_values[0]:.6g}, {k_values[-1]:.6g}] do not cover "
            f"the window [{lo:.6g}, {hi:.6g}]"
        )
    weight = np.exp(-0.5 * ((k_values - k0) / sigma) ** 2)
    norm = _trapezoid(weight, k_values)
    return lambda transmissions: float(_trapezoid(weight * transmissions, k_values) / norm)
