"""Accuracy of the cell and chain amplitudes against a 40-digit mpmath oracle.

The oracle is independent of the package's arithmetic: each cell's
transfer matrix is the product of exact (psi, psi') segment maps, as in
transfer_oracle, and the N-cell chain's is M_N = S^{-N} (S M)^N with
S = diag(e^{ika}, e^{-ika}), raised to N by binary powering.  Errors are
absolute, in units of the double epsilon, over t, l, r and ln|t| (the
amplitudes have modulus <= 1; ln|t| carries the relative error of t where
t itself underflows).  The bounds hold at least twice the worst error seen,
so they gate accuracy without fixing a single output bit.
"""

import sys

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


def exact_amplitudes(cell, k, a=None, n=1):
    """(t, l, r) of n cells of period a at k: t = 1/m22, l = -m21/m22,
    r = m12/m22 of M_N = S^{-N} (S M)^N."""
    with mpmath.workdps(DPS):
        m = exact_transfer(cell, k)
        if n > 1:
            phase = mpmath.exp(1j * mpmath.mpf(k) * mpmath.mpf(a))
            s_m = _mul((phase, 0, 0, 1 / phase), m)
            m11, m12, m21, m22 = _mul((phase ** -n, 0, 0, phase ** n), _power(s_m, n))
        else:
            m11, m12, m21, m22 = m
        return 1 / m22, -m21 / m22, m12 / m22


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
