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

from .cells import Lattice, PotentialCell, cell_smatrix
from .chain import ChainState, bloch_parameter, chain_amplitudes, displace
from .core import (
    MODULUS_FLOOR,
    PhaseCurve,
    ScatteringMatrix,
    WaveNumber,
    principal_phase,
    unwrap,
    wrap_to_principal,
)
from .errors import CoverageError, EdgeOfGridError, InBandWarning, UndefinedAmplitudeError

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
    deviation = abs(z) - 1.0
    if abs(deviation) <= tol:
        kind = BandClass.EDGE
    elif deviation > 0.0:
        kind = BandClass.GAP
    else:
        kind = BandClass.BAND
    return BandVerdict(k=s_cell.k, z=z, kind=kind, edge_tolerance=tol)


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


def _stencil_derivative(curve: PhaseCurve, k: WaveNumber) -> float:
    """d(phase)/dk at a grid point: central difference at steps h and 2h
    combined by one Richardson step, i.e. the 5-point formula."""
    grid = curve.grid
    idx = int(np.argmin(np.abs(grid - k.k)))
    if not math.isclose(float(grid[idx]), k.k, rel_tol=1e-12, abs_tol=1e-15):
        raise EdgeOfGridError(f"k={k.k!r} is not a sample point of the phase curve")
    if idx < 2 or idx > grid.size - 3:
        raise EdgeOfGridError("stencil needs at least two neighbors on each side of k")
    steps = np.diff(grid[idx - 2 : idx + 3])
    h = float(steps[0])
    if float(np.max(np.abs(steps - h))) > 1e-9 * h:
        raise ValueError("stencil requires uniform grid spacing around k")
    v = curve.values
    d_h = (v[idx + 1] - v[idx - 1]) / (2.0 * h)
    d_2h = (v[idx + 2] - v[idx - 2]) / (4.0 * h)
    return float((4.0 * d_h - d_2h) / 3.0)


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
    half_points: int = 2,
    displacement: float = 0.0,
    floor: float = MODULUS_FLOOR,
) -> tuple[Optional[PhaseCurve], Optional[PhaseCurve], Optional[PhaseCurve]]:
    """Phases of the N-cell chain on a uniform window around k_center.

    Returns the (t, l, r) curve triple ready for time_delays; a slot is None
    if its amplitude modulus falls below floor anywhere on the window.  The
    t curve comes from the recurrence's accumulated phase, so it stays
    usable deep in a gap; displacement shifts the whole chain right by that
    distance before phases are read off.
    """
    if half_points < 2:
        raise ValueError("need at least two points on each side for the stencil")
    ks = [k_center + j * fd_step for j in range(-half_points, half_points + 1)]
    if ks[0] <= 0.0:
        raise ValueError("fd window extends to k <= 0; reduce fd_step")
    log_floor = math.log(floor) if floor > 0.0 else -math.inf

    t_ok = l_ok = r_ok = True
    t_raw: list[tuple[float, float]] = []
    l_raw: list[tuple[float, float]] = []
    r_raw: list[tuple[float, float]] = []
    for kv in ks:
        k = WaveNumber(kv)
        if N == 1:
            s = cell_smatrix(cell, k)
            mod = abs(s.t)
            t_log = math.log(mod) if mod > 0.0 else -math.inf
            t_phase = principal_phase(s.t)
        else:
            state = chain_amplitudes(Lattice(cell, a, N), k)
            s = state.matrices[-1]
            t_log = float(state.t_log_moduli[-1])
            t_phase = float(state.t_phases[-1])
        if displacement != 0.0:
            s = displace(s, displacement)
        t_ok = t_ok and t_log >= log_floor
        l_ok = l_ok and abs(s.l) >= floor
        r_ok = r_ok and abs(s.r) >= floor
        t_raw.append((kv, t_phase))
        l_raw.append((kv, principal_phase(s.l) if abs(s.l) >= floor else 0.0))
        r_raw.append((kv, principal_phase(s.r) if abs(s.r) >= floor else 0.0))
    curve_t = unwrap(t_raw, "t") if t_ok else None
    curve_l = unwrap(l_raw, "l") if l_ok else None
    curve_r = unwrap(r_raw, "r") if r_ok else None
    return curve_t, curve_l, curve_r


def traversal_time(N: int, a: float, k: WaveNumber, tau_t_N: float) -> HartmanRecord:
    """T = N*a/v + tau_t: free flight over the chain plus the time delay."""
    return HartmanRecord(
        N=int(N), tau_t_N=float(tau_t_N),
        T_t_N=int(N) * float(a) / k.velocity + float(tau_t_N),
        k=k, a=float(a),
    )


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
    ks = [k.k + j * fd_step for j in range(-2, 3)]
    if ks[0] <= 0.0:
        raise ValueError("fd window extends to k <= 0; reduce fd_step")
    sweeps = [chain_amplitudes(Lattice(cell, a, n_max), WaveNumber(kv)) for kv in ks]
    records = []
    for n in range(1, n_max + 1):
        raw = [(kv, float(sw.t_phases[n - 1])) for kv, sw in zip(ks, sweeps)]
        curve = unwrap(raw, "t")
        tau = _stencil_derivative(curve, k) / k.velocity
        records.append(traversal_time(n, a, k, tau))
    return records


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

    r_moduli = [abs(m.r) for m in chain.matrices]
    if min(r_moduli) < MODULUS_FLOOR:
        raise UndefinedAmplitudeError("right reflection amplitude below floor")
    comp_r = unwrap(
        [(n, principal_phase(m.r) + 2.0 * n * ka) for n, m in zip(ns, chain.matrices)], "r"
    ).values
    comp_t = chain.t_phases + ns * ka

    upper = ns > n_max // 2
    n_lo = int(ns[upper][0])
    alpha_mean = float(np.mean(comp_r[upper]))
    beta_mean = float(np.mean(comp_t[upper]))
    resid_r = float(np.sqrt(np.mean((comp_r[upper] - alpha_mean) ** 2)))
    resid_t = float(np.sqrt(np.mean((comp_t[upper] - beta_mean) ** 2)))

    slope_r = float(np.polyfit(ns[upper], comp_r[upper] - 2.0 * ns[upper] * ka, 1)[0])
    slope_t = float(np.polyfit(ns[upper], np.asarray(chain.t_phases)[upper], 1)[0])

    return AsymptoticFit(
        alpha=wrap_to_principal(alpha_mean),
        beta=wrap_to_principal(beta_mean),
        residual=max(resid_r, resid_t),
        N_range=(n_lo, n_max),
        slope_r=slope_r,
        slope_t=slope_t,
        l_limit_modulus=abs(chain.matrices[-1].l),
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
    return float(_trapezoid(weight * transmissions, k_values)
                 / _trapezoid(weight, k_values))
