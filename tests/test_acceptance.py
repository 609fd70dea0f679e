"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single pass/fail line (run with `pytest -s` to see them
on success) and asserts at the criterion's stated tolerance.
"""

import math
import time

import numpy as np
import pytest

import scatterchain as sc


K_GRID = np.linspace(0.1, 10.0, 200)
CELLS = [
    sc.DeltaSpike(1.0),
    sc.DeltaSpike(5.0),
    sc.DeltaSpike(-0.7),
    sc.RectBarrier(2.0, 1.0),
    sc.RectBarrier(-1.5, 0.8),
    sc.PiecewiseConstant(((0.4, 2.0), (0.3, -1.0), (0.3, 0.5))),
]
CHAIN_CELLS = [sc.DeltaSpike(5.0), sc.RectBarrier(2.0, 1.0),
               sc.PiecewiseConstant(((0.4, 2.0), (0.3, -1.0), (0.3, 0.5)))]
N_MAX = 64


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_unitarity():
    start = time.perf_counter()
    worst = 0.0
    for cell in CELLS:
        for kv in K_GRID:
            worst = max(worst, sc.unitarity_defect(sc.cell_smatrix(cell, sc.WaveNumber(float(kv)))))
    for cell in CHAIN_CELLS:
        lattice = sc.Lattice(cell, 1.0, N_MAX)
        for kv in K_GRID:
            state = sc.chain_amplitudes(lattice, sc.WaveNumber(float(kv)))
            worst = max(worst, max(sc.unitarity_defect(s) for s in state.matrices))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"unitarity defect < 1e-10 for all cells and chains N<={N_MAX} "
        f"(worst {worst:.3e}, {elapsed:.2f}s of 5s)",
    )


def test_criterion_2_dual_path_equivalence():
    start = time.perf_counter()
    worst = 0.0
    ks = np.concatenate([K_GRID, [math.pi, 2.0 * math.pi, 3.0 * math.pi]])
    for cell in (sc.DeltaSpike(5.0), sc.RectBarrier(2.0, 1.0)):
        lattice = sc.Lattice(cell, 1.0, N_MAX)
        for kv in ks:
            k = sc.WaveNumber(float(kv))
            state = sc.chain_amplitudes(lattice, k)
            s_cell = sc.cell_smatrix(cell, k)
            for n in range(1, N_MAX + 1):
                cheb = sc.chebyshev_transmission(s_cell, 1.0, n)
                worst = max(worst, abs(float(state.transmissions[n - 1]) - cheb))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst < 1e-10 and elapsed < 10.0,
        f"recurrence vs Chebyshev |t^(N)|^2 agree to 1e-10 incl. edge points "
        f"ka = m*pi (worst {worst:.3e}, {elapsed:.2f}s of 10s)",
    )


def test_criterion_3_kronig_penney_oracle():
    worst = 0.0
    for g in (1.0, 5.0):
        for a in (1.0, 1.7):
            for kv in K_GRID:
                k = sc.WaveNumber(float(kv))
                z = sc.bloch_parameter(sc.cell_smatrix(sc.DeltaSpike(g), k), a)
                oracle = math.cos(kv * a) + (g / kv) * math.sin(kv * a)
                worst = max(worst, abs(z - oracle))
    _report(
        3,
        worst < 1e-12,
        f"z equals cos(ka) + (g/k) sin(ka) for the delta comb (worst {worst:.3e})",
    )


def test_criterion_4_displacement_laws():
    worst_phase = 0.0
    bitwise_ok = True
    for cell in (sc.DeltaSpike(1.0), sc.RectBarrier(2.0, 1.0)):
        for a in (0.7, 1.3):
            for kv in K_GRID[::8]:
                k = sc.WaveNumber(float(kv))
                s = sc.cell_smatrix(cell, k)
                d = sc.displace(s, a)
                bitwise_ok = bitwise_ok and d.t == s.t
                before = sc.principal_phases(s)
                after = sc.principal_phases(d)
                worst_phase = max(
                    worst_phase,
                    sc.branch_distance(after[1] - before[1] - 2.0 * kv * a),
                    sc.branch_distance(after[2] - before[2] + 2.0 * kv * a),
                )
    worst_delay = 0.0
    for kv in (0.8, 1.3, 2.6):
        for a in (0.7, 1.3):
            k = sc.WaveNumber(kv)
            base = sc.time_delays(sc.chain_phase_curves(sc.DeltaSpike(1.0), 2.0, 1, kv), k)
            moved = sc.time_delays(
                sc.chain_phase_curves(sc.DeltaSpike(1.0), 2.0, 1, kv, displacement=a), k
            )
            worst_delay = max(
                worst_delay,
                abs(moved.tau_l - base.tau_l - 2.0 * a / kv),
                abs(moved.tau_r - base.tau_r + 2.0 * a / kv),
                abs(moved.tau_t - base.tau_t),
            )
    _report(
        4,
        bitwise_ok and worst_phase < 1e-12 and worst_delay < 1e-6,
        f"displace: t bit-identical, phase shifts +-2ka to 1e-12 "
        f"(worst {worst_phase:.3e}), delay shifts +-2a/v to 1e-6 (worst {worst_delay:.3e})",
    )


def test_criterion_5_phase_relations():
    # Composite chains: distance of (alpha_l + alpha_r)/2 - alpha_t from the
    # nearest pi/2 + n*pi.  Amplitudes below 1e-5 are excluded: the phase of
    # an amplitude of modulus m carries O(eps_machine * N / m) noise, so the
    # 1e-9 bound is only meaningful above that conditioning floor.
    worst_general = 0.0
    checked = 0
    for cell in CHAIN_CELLS:
        lattice = sc.Lattice(cell, 1.0, N_MAX)
        for kv in K_GRID[::4]:
            state = sc.chain_amplitudes(lattice, sc.WaveNumber(float(kv)))
            for s in state.matrices:
                if min(abs(s.t), abs(s.l), abs(s.r)) < 1e-5:
                    continue
                worst_general = max(worst_general, sc.phase_relation_residual(s))
                checked += 1
    worst_symmetric = 0.0
    for cell in (sc.DeltaSpike(1.0), sc.DeltaSpike(5.0), sc.RectBarrier(2.0, 1.0)):
        for kv in K_GRID:
            k = sc.WaveNumber(float(kv))
            s = sc.displace(sc.cell_smatrix(cell, k), -0.5 * cell.support_width)
            alpha_t, alpha_l, _ = sc.principal_phases(s)
            worst_symmetric = max(
                worst_symmetric,
                sc.branch_distance(alpha_l - alpha_t - math.pi / 2, math.pi),
            )
    _report(
        5,
        worst_general < 1e-9 and worst_symmetric < 1e-10 and checked > 1000,
        f"(alpha_l+alpha_r)/2 - alpha_t = pi/2 mod pi to 1e-9 on {checked} "
        f"composites (worst {worst_general:.3e}); symmetric-cell pi/2 law to "
        f"1e-10 (worst {worst_symmetric:.3e})",
    )


def test_criterion_6_total_reflection():
    k_gap = sc.WaveNumber(1.0)
    comb = sc.DeltaSpike(5.0)
    state = sc.chain_amplitudes(sc.Lattice(comb, 1.0, 64), k_gap)
    t64_rec = float(state.transmissions[63])
    t64_cheb = sc.chebyshev_transmission(sc.cell_smatrix(comb, k_gap), 1.0, 64)
    z = sc.bloch_parameter(sc.cell_smatrix(comb, k_gap), 1.0)

    k_edge = sc.WaveNumber(math.pi)
    s_edge = sc.cell_smatrix(comb, k_edge)
    rho = (1.0 - s_edge.transmission) / s_edge.transmission
    edge_state = sc.chain_amplitudes(sc.Lattice(comb, 1.0, 64), k_edge)
    worst_edge = 0.0
    for n in range(1, 65):
        law = 1.0 / (1.0 + n * n * rho)
        worst_edge = max(
            worst_edge,
            abs(float(edge_state.transmissions[n - 1]) - law),
            abs(sc.chebyshev_transmission(s_edge, 1.0, n) - law),
        )
    _report(
        6,
        t64_rec < 1e-6 and t64_cheb < 1e-6 and abs(z) > 1.0 and worst_edge < 1e-10,
        f"gap (z={z:.4f}): |t^(64)|^2 = {t64_rec:.3e} < 1e-6; edge ka=pi obeys "
        f"1/(1 + N^2 rho) to 1e-10 (worst {worst_edge:.3e})",
    )


def test_criterion_7_hartman_saturation_and_asymptotics():
    comb, a, k = sc.DeltaSpike(5.0), 1.0, sc.WaveNumber(1.0)
    records = sc.hartman_scan(comb, a, k, 32)
    T = [rec.T_t_N for rec in records]
    tau = [rec.tau_t_N for rec in records]
    sub_free_flight = all(T[n - 1] < n * a / k.k for n in range(2, 33))
    tau_decreasing = all(b < a_ for a_, b in zip(tau, tau[1:]))
    saturation = abs(T[31] - T[30])

    fit = sc.asymptotic_phase_fit(sc.chain_amplitudes(sc.Lattice(comb, a, 64), k))
    ka = k.k * a
    slopes_ok = abs(fit.slope_r + 2.0 * ka) < 1e-6 and abs(fit.slope_t + ka) < 1e-6
    _report(
        7,
        sub_free_flight and tau_decreasing and saturation < 1e-3 * (a / k.k)
        and slopes_ok and fit.residual < 1e-6,
        f"T saturates: |T(32)-T(31)| = {saturation:.3e} < 1e-3*a/v, T < N*a/v, "
        f"tau decreasing; fitted slopes ({fit.slope_r:.9f}, {fit.slope_t:.9f}) "
        f"= (-2ka, -ka), residual {fit.residual:.3e}",
    )


def test_criterion_8_wavepacket_convergence():
    cell, a, k0, sigma = sc.DeltaSpike(1.0), 1.0, 2.0, 0.02
    k_values = np.linspace(k0 - 5 * sigma, k0 + 5 * sigma, 4001)
    profile = sc.transmission_profile(cell, a, np.array([200, 400]), k_values)
    avg_200 = sc.wavepacket_average(k_values, profile[0], k0, sigma)
    avg_400 = sc.wavepacket_average(k_values, profile[1], k0, sigma)
    pointwise = sc.chain_amplitudes(
        sc.Lattice(cell, a, 400), sc.WaveNumber(k0)
    ).transmissions[199:]
    swing = float(pointwise.max() - pointwise.min())
    _report(
        8,
        abs(avg_200 - avg_400) < 1e-3 and swing > 0.1,
        f"mid-band averages converge: |avg(200)-avg(400)| = "
        f"{abs(avg_200 - avg_400):.3e} < 1e-3 while pointwise swings {swing:.3f} > 0.1",
    )


def test_criterion_9_delay_oracle():
    worst_rel = 0.0
    for kv in (0.5, 1.0, 2.0, 5.0):
        curves = sc.chain_phase_curves(sc.DeltaSpike(1.0), 1.0, 1, kv)
        rec = sc.time_delays(curves, sc.WaveNumber(kv))
        exact = (1.0 / kv) / (1.0 + kv * kv)
        worst_rel = max(worst_rel, abs(rec.tau_t - exact) / exact)
    _report(
        9,
        worst_rel < 1e-6,
        f"single-delta tau_t matches (1/k)/(1+k^2) to relative 1e-6 "
        f"(worst {worst_rel:.3e})",
    )
