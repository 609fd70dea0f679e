"""Accuracy of the cell and chain amplitudes, their k-derivatives and the time
delays against a 40-digit mpmath oracle.

The oracle is independent of the package's arithmetic: each cell's
transfer matrix is the product of exact (psi, psi') segment maps, as in
transfer_oracle, and the N-cell chain's is M_N = S^{-N} (S M)^N with
S = diag(e^{ika}, e^{-ika}), raised to N by binary powering.  Errors are
absolute, in units of the double epsilon, over t, l, r and ln|t| (the
amplitudes have modulus <= 1; ln|t| carries the relative error of t where
t itself underflows).  The k-derivatives of the amplitudes, and the delays
built on them, are checked against a central difference of the oracle at
twice its digits.  The Chebyshev closed form's |t^(N)|^2, by packet's sweep
over N and at single N, is checked against 1/(1 + rho U_{N-1}(z)^2) with
U_{N-1} in its trigonometric or hyperbolic form, as a relative error.  The bounds hold at least twice the worst error seen,
so they gate accuracy without fixing a single output bit.
"""

import sys
import warnings

import mpmath
import numpy as np
import pytest

import scatterchain as sc

EPS = sys.float_info.epsilon
DPS = 40
K_VALUES = np.linspace(0.3, 4.0, 24)

CELLS = {
    "delta": sc.DeltaSpike(1.0),
    "barrier": sc.RectBarrier(2.0, 1.0),
    "well": sc.RectBarrier(-1.5, 0.5),
    "piecewise": sc.PiecewiseConstant(((0.4, 1.2), (0.3, -2.0), (0.5, 0.8))),
}
PERIODS = {"delta": 1.0, "well": 1.2, "piecewise": 1.5}

# Bounds in eps on the worst error of cell_lanes, per cell (worst seen:
# delta 0.6, barrier 2.2, well 1.7, piecewise 3.9) ...
CELL_BOUNDS = {"delta": 2.0, "barrier": 5.0, "well": 4.0, "piecewise": 8.0}
# ... and of the three chain routes, per cell and N (worst seen at N = 2, 64,
# 400: delta 2.7, 614, 16156; well 10.6, 317, 3728; piecewise 8.6, 402, 4694)
CHAIN_BOUNDS = {
    "delta": {2: 6.0, 64: 1300.0, 400: 33000.0},
    "well": {2: 22.0, 64: 640.0, 400: 7500.0},
    "piecewise": {2: 18.0, 64: 810.0, 400: 9400.0},
}


def _mul(a, b):
    (a11, a12, a21, a22), (b11, b12, b21, b22) = a, b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _power(m, n):
    # m^n by binary powering
    out = (mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1))
    while n:
        if n & 1:
            out = _mul(out, m)
        m, n = _mul(m, m), n >> 1
    return out


def exact_transfer(cell, k):
    """The cell's plane-wave transfer matrix (m11, m12, m21, m22) at k, in
    mpmath: (psi, psi') carried across its flat segments and delta jump."""
    k = mpmath.mpf(k)
    if isinstance(cell, sc.DeltaSpike):
        maps = [(1, 0, 2 * mpmath.mpf(cell.g), 1)]
        width = mpmath.mpf(0)
    else:
        segments = [(cell.w, cell.V0)] if isinstance(cell, sc.RectBarrier) else cell.segments
        maps = []
        for w, v in segments:
            w, q2 = mpmath.mpf(w), k * k - 2 * mpmath.mpf(v)
            if q2 == 0:
                maps.append((1, w, 0, 1))
            else:
                q = mpmath.sqrt(mpmath.mpc(q2))
                maps.append((mpmath.cos(q * w), mpmath.sin(q * w) / q,
                             -q * mpmath.sin(q * w), mpmath.cos(q * w)))
        width = sum(mpmath.mpf(w) for w, _ in segments)
    waves = [(mpmath.mpc(1), 1j * k), (mpmath.mpc(1), -1j * k)]
    for a, b, c, d in maps:
        waves = [(a * psi + b * dpsi, c * psi + d * dpsi) for psi, dpsi in waves]
    back, fwd = mpmath.exp(-1j * k * width), mpmath.exp(1j * k * width)
    (m11, m21), (m12, m22) = ((0.5 * (psi - 1j * dpsi / k) * back,
                               0.5 * (psi + 1j * dpsi / k) * fwd) for psi, dpsi in waves)
    return m11, m12, m21, m22


def exact_amplitudes(cell, k, a=None, n=1, dps=DPS):
    """(t, l, r) of n cells of period a at k: t = 1/m22, l = -m21/m22,
    r = m12/m22 of M_N = S^{-N} (S M)^N, at dps digits."""
    with mpmath.workdps(dps):
        m = exact_transfer(cell, k)
        if n > 1:
            phase = mpmath.exp(1j * mpmath.mpf(k) * mpmath.mpf(a))
            s_m = _mul((phase, 0, 0, 1 / phase), m)
            m11, m12, m21, m22 = _mul((phase ** -n, 0, 0, phase ** n), _power(s_m, n))
        else:
            m11, m12, m21, m22 = m
        return 1 / m22, -m21 / m22, m12 / m22


def exact_derivatives(cell, k, a=None, n=1):
    """(t, l, r) of exact_amplitudes and their k-derivatives (t', l', r'),
    by a central difference of step k 10^-DPS at 2 DPS digits: its
    truncation error is near 10^-2DPS relative, its rounding error near
    10^-DPS."""
    with mpmath.workdps(2 * DPS):
        k = mpmath.mpf(k)
        h = k * mpmath.mpf(10) ** -DPS
        plus, minus = (exact_amplitudes(cell, kv, a, n, 2 * DPS) for kv in (k + h, k - h))
        return (exact_amplitudes(cell, k, a, n, 2 * DPS),
                tuple((p - m) / (2 * h) for p, m in zip(plus, minus)))


def exact_delays(cell, k, a=None, n=1):
    """The exact (tau_t, tau_l, tau_r) = Im(x'/x)/k, as floats."""
    amplitudes, derivatives = exact_derivatives(cell, k, a, n)
    with mpmath.workdps(2 * DPS):
        return tuple(float(mpmath.im(d / x) / k) for x, d in zip(amplitudes, derivatives))


def error_eps(exact, t, l, r, t_log=None) -> float:
    """Worst absolute error of t, l, r and t_log (if given) against the
    exact (t, l, r) and ln|t|, in eps."""
    t_x, l_x, r_x = exact
    with mpmath.workdps(DPS):
        errors = [abs(mpmath.mpc(g) - x) for g, x in ((t, t_x), (l, l_x), (r, r_x))]
        if t_log is not None:
            errors.append(abs(mpmath.mpf(t_log) - mpmath.log(abs(t_x))))
    return float(max(errors)) / EPS


def cell_error(name) -> float:
    """Worst error of cell_lanes over K_VALUES, in eps."""
    cell = CELLS[name]
    lanes = zip(*(x.tolist() for x in sc.cells.cell_lanes(cell, K_VALUES)))
    return max(error_eps(exact_amplitudes(cell, kv), *amplitudes)
               for kv, amplitudes in zip(K_VALUES.tolist(), lanes))


def chain_errors(name, n) -> dict:
    """Worst error of each chain route at n cells over K_VALUES, in eps."""
    cell, a = CELLS[name], PERIODS[name]
    lattice = sc.Lattice(cell, a, n)
    exact = [exact_amplitudes(cell, kv, a, n) for kv in K_VALUES.tolist()]
    t_log, _, t, l, r = sc.chain_end_amplitudes(lattice, K_VALUES)
    lanes = zip(t.tolist(), l.tolist(), r.tolist(), t_log.tolist())
    errors = {"chain_end_amplitudes": max(map(error_eps, exact, *zip(*lanes)))}
    for route in (sc.chain_amplitudes, sc.chain_amplitudes_addleft):
        states = [route(lattice, sc.WaveNumber(kv)) for kv in K_VALUES.tolist()]
        errors[route.__name__] = max(
            error_eps(x, s.t[-1], s.l[-1], s.r[-1], s.t_log_moduli[-1])
            for x, s in zip(exact, states))
    return errors


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_lanes(name):
    worst = cell_error(name)
    assert worst <= CELL_BOUNDS[name], worst


@pytest.mark.parametrize("n", [2, 64, 400])
@pytest.mark.parametrize("name", sorted(PERIODS))
def test_chain_routes(name, n):
    errors = chain_errors(name, n)
    assert max(errors.values()) <= CHAIN_BOUNDS[name][n], errors


# Bounds in eps on the worst error of the k-derivatives (g = d ln t/dk,
# dl/dk, dr/dk), each relative to max(1, |exact value|), of cell_lanes per
# cell (worst seen: delta 0.83, barrier 4.7, well 1.3, piecewise 11.9) ...
DERIVATIVE_CELL_BOUNDS = {"delta": 2.0, "barrier": 10.0, "well": 3.0, "piecewise": 24.0}
# ... barrier wave numbers on and next to q^2 = k^2 - 2 V0 = 0 (V0 = 2): k = 2
# exactly, and |q^2| <= 1e-10 ...
DEGENERATE_K = [2.0, 2.0 + 1e-11, 2.0 - 1e-11, 2.0 + 2.5e-11, 2.0 - 2.5e-11, 2.0 + 4e-16]
# ... and of the chain's, per cell and N, over its three routes (worst seen
# at N = 2, 64, 400: delta 4.5, 846, 47752; well 7.6, 1348, 27904;
# piecewise 16.1, 2388, 16482, each time on the lanes' derivatives)
DERIVATIVE_CHAIN_BOUNDS = {
    "delta": {2: 10.0, 64: 1800.0, 400: 96000.0},
    "well": {2: 16.0, 64: 2700.0, 400: 56000.0},
    "piecewise": {2: 33.0, 64: 4800.0, 400: 33000.0},
}


def derivative_error_eps(exact, derivatives) -> float:
    """Worst error of (g, dl/dk, dr/dk) against exact_derivatives' result,
    each relative to max(1, |exact|), in eps."""
    (t, _, _), (dt, dl, dr) = exact
    with mpmath.workdps(DPS):
        errors = [abs(mpmath.mpc(got) - x) / max(1, abs(x))
                  for got, x in zip(derivatives, (dt / t, dl, dr))]
    return float(max(errors)) / EPS


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_derivatives(name):
    cell = CELLS[name]
    ks = np.concatenate([K_VALUES, DEGENERATE_K if name == "barrier" else []])
    lanes = zip(*(x.tolist() for x in sc.cells.cell_lanes(cell, ks, derivatives=True)[3:]))
    worst = max(derivative_error_eps(exact_derivatives(cell, kv), dk)
                for kv, dk in zip(ks.tolist(), lanes))
    assert worst <= DERIVATIVE_CELL_BOUNDS[name], worst


def delay_error_eps(k, taus, exact) -> float:
    """Worst error of (tau_t, tau_l, tau_r) times k against Im(x'/x) of
    exact_derivatives' result, in eps.  For t it is relative to
    max(1, |t'/t|), as for g.  For l and r, errors dx' and dx give the
    error (|dx'| + |x'/x| |dx|)/|x| of x'/x, which grows without bound as
    |x| -> 0, so it is divided by (max(1, |x'|) + |x'/x|)/|x|: what remains
    is in the units of derivative_error_eps and error_eps."""
    errors = []
    with mpmath.workdps(DPS):
        for i, (tau, x, d) in enumerate(zip(taus, *exact)):
            ratio = abs(d / x)
            scale = 1 / max(1, ratio) if i == 0 else abs(x) / (max(1, abs(d)) + ratio)
            errors.append(abs(mpmath.mpf(tau) * k - mpmath.im(d / x)) * scale)
    return float(max(errors)) / EPS


def chain_derivative_errors(name, n) -> dict:
    """Worst error of each route to the chain's k-derivatives at n cells
    over K_VALUES, in eps: the lanes' (g, dl/dk, dr/dk), and the delays of
    delay_scan and of hartman_scan (tau_t(n) alone)."""
    cell, a = CELLS[name], PERIODS[name]
    exact = [exact_derivatives(cell, kv, a, n) for kv in K_VALUES.tolist()]
    lanes = sc.chain._end_amplitudes(sc.Lattice(cell, a, n), K_VALUES,
                                     sc.cells.cell_lanes(cell, K_VALUES, derivatives=True))
    delays = zip(*sc.delay_scan(cell, a, n, K_VALUES)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sc.InBandWarning)
        hartman = [sc.hartman_scan(cell, a, sc.WaveNumber(kv), n)[-1].tau_t_N
                   for kv in K_VALUES.tolist()]
    ks = K_VALUES.tolist()
    return {
        "lanes": max(map(derivative_error_eps, exact, zip(*(x.tolist() for x in lanes[5:])))),
        "delay_scan": max(map(delay_error_eps, ks, delays, exact)),
        "hartman_scan": max(delay_error_eps(kv, [tau], ([x[0]], [d[0]]))
                            for kv, tau, (x, d) in zip(ks, hartman, exact)),
    }


@pytest.mark.parametrize("n", [2, 64, 400])
@pytest.mark.parametrize("name", sorted(PERIODS))
def test_chain_derivatives(name, n):
    errors = chain_derivative_errors(name, n)
    assert max(errors.values()) <= DERIVATIVE_CHAIN_BOUNDS[name][n], errors


# k from 1e-2 to 1e5, where tau_t = g/(k (k^2 + g^2)) spans some 17 decades
DELTA_DELAY_K = np.geomspace(1e-2, 1e5, 29)


@pytest.mark.parametrize("g", [1.0, -0.7, 5.0])
def test_single_delta_delay_closed_form(g):
    # worst relative error seen: 1.5 eps (g = 1), 2.0 (g = -0.7), 2.3 (g = 5)
    taus = sc.delay_scan(sc.DeltaSpike(g), None, 1, DELTA_DELAY_K)[0]
    with mpmath.workdps(DPS):
        exact = [g / (k * (k * k + g * g)) for k in map(mpmath.mpf, DELTA_DELAY_K.tolist())]
        worst = max(float(abs(tau - x) / abs(x)) / EPS for column in taus
                    for tau, x in zip(column, exact))
    assert worst <= 5.0, worst


# packet's rows: the closed form |t^(N)|^2 = 1/(1 + rho U_{N-1}(z)^2) of the
# plan's sweep over N = 1..10^4, and of chebyshev_closed_form at each N, on
# |z| in four groups, each z taken with both signs and each rho below; the
# edge-window group holds |z| within 1e-8 of 1
SWEEP_Z = {
    "band": np.linspace(0.0, 0.95, 20).tolist(),
    "near-edge": [1.0 - 10.0 ** -p for p in range(2, 9)],  # 1 - |z| = 1e-2 .. 1e-8
    "edge-window": [1.0, 1.0 - 5e-9, 1.0 + 5e-9, 1.0 + 1e-8],
    "gap": [1.0 + 2e-8, 1.0 + 1e-4, 1.06, 1.5, 4.75],
}
SWEEP_RHO = (0.05, 0.7, 3.0)
SWEEP_N = (1, 2, 3, 10, 64, 400, 1000, 4096, 9999, 10000)
# Bounds in eps on the sweep's worst relative error per group, twice the
# worst seen (band 4117, near-edge 722, edge-window 42, gap 279; the gap rows
# are chebyshev_closed_form's log form, where |t|^2 = e^{-2 N h} carries the
# rounding of its exponent).
SWEEP_BOUNDS = {"band": 8300.0, "near-edge": 1500.0, "edge-window": 90.0, "gap": 560.0}
# The same for chebyshev_closed_form at each N of SWEEP_N: worst seen band
# 15 521, near-edge 2 893, edge-window 16 and gap 279.  Next to |z| = 1 the
# sine form on g = arccos|z| is the more accurate of the two routes; further
# in, the sweep is.
CLOSED_FORM_BOUNDS = {"band": 31100.0, "near-edge": 5800.0, "edge-window": 33.0, "gap": 560.0}


def exact_closed_form(z, rho, n):
    """|t^(n)|^2 = 1/(1 + rho U_{n-1}(z)^2) in mpmath, U_{n-1}(|z|) being
    sin(n g)/sin g, n or sinh(n h)/sinh h with cos g = |z| or cosh h = |z|."""
    z, rho = abs(mpmath.mpf(z)), mpmath.mpf(rho)
    if z < 1:
        g = mpmath.acos(z)
        u = mpmath.sin(n * g) / mpmath.sin(g)
    elif z == 1:
        u = mpmath.mpf(n)
    else:
        h = mpmath.acosh(z)
        u = mpmath.sinh(n * h) / mpmath.sinh(h)
    return 1 / (1 + rho * u * u)


def relative_error_eps(exact, got) -> float:
    """Worst |got - exact| / max(exact, smallest normal double), in eps: the
    relative error of |t|^2, and its absolute error in the subnormal range."""
    floor = mpmath.mpf(sys.float_info.min)
    with mpmath.workdps(DPS):
        return float(max(abs(mpmath.mpf(g) - x) / max(x, floor)
                         for g, x in zip(got.tolist(), exact))) / EPS


@pytest.mark.parametrize("group", SWEEP_Z)
def test_chebyshev_sweep(group):
    z = np.repeat([s * x for x in SWEEP_Z[group] for s in (1.0, -1.0)], len(SWEEP_RHO))
    rho = np.tile(SWEEP_RHO, z.size // len(SWEEP_RHO))
    with mpmath.workdps(DPS):
        exact = {n: [exact_closed_form(*lane, n) for lane in zip(z.tolist(), rho.tolist())]
                 for n in SWEEP_N}
    rows = sc.chain._ChebyshevPlan(z, rho).sweep(max(SWEEP_N))
    sweep = max(relative_error_eps(exact[n], t) for n, t in enumerate(rows, 1) if n in exact)
    closed_form = max(relative_error_eps(exact[n], sc.chebyshev_closed_form(z, rho, n)[1])
                      for n in SWEEP_N)
    assert sweep <= SWEEP_BOUNDS[group], sweep
    assert closed_form <= CLOSED_FORM_BOUNDS[group], closed_form
    if group != "edge-window":
        assert sweep <= closed_form, (sweep, closed_form)
