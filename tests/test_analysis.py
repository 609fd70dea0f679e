"""Unit tests for time delays, Hartman scans, band verdicts, asymptotic fits
and wave-packet averaging."""

import math
import warnings

import numpy as np
import pytest

import scatterchain as sc
from support import identity_smatrix


K1 = sc.WaveNumber(1.0)
DELTA = sc.DeltaSpike(1.0)
COMB5 = sc.DeltaSpike(5.0)


def delta_tau_t(g, k):
    # d/dk of -arctan(g/k), divided by v = k.
    return (1.0 / k) * g / (k * k + g * g)


class TestTimeDelays:
    def test_free_particle_zero_delay(self):
        grid = np.linspace(0.9, 1.1, 5)
        zero = sc.PhaseCurve(grid=grid, values=np.zeros(5), label="t")
        rec = sc.time_delays((zero, None, None), K1)
        assert rec.tau_t == 0.0
        assert rec.tau_l is None and rec.tau_r is None

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 5.0])
    def test_delta_spike_oracle(self, k):
        curves = sc.chain_phase_curves(DELTA, 1.0, 1, k)
        rec = sc.time_delays(curves, sc.WaveNumber(k))
        expected = delta_tau_t(1.0, k)
        assert rec.tau_t == pytest.approx(expected, rel=1e-6)
        # symmetric single cell: reflection delays equal the transmission delay
        assert rec.tau_l == pytest.approx(expected, rel=1e-6)

    def test_displacement_adds_round_trip_time(self):
        k, a = 1.3, 0.7
        base = sc.time_delays(
            sc.chain_phase_curves(DELTA, 1.0, 1, k), sc.WaveNumber(k)
        )
        moved = sc.time_delays(
            sc.chain_phase_curves(DELTA, 1.0, 1, k, displacement=a), sc.WaveNumber(k)
        )
        assert moved.tau_t == base.tau_t
        assert moved.tau_l - base.tau_l == pytest.approx(2 * a / k, abs=1e-6)
        assert moved.tau_r - base.tau_r == pytest.approx(-2 * a / k, abs=1e-6)

    def test_halving_step_improves_fourth_order(self):
        exact = delta_tau_t(1.0, 1.0)
        errors = []
        for h in (0.04, 0.02, 0.01):
            curves = sc.chain_phase_curves(DELTA, 1.0, 1, 1.0, fd_step=h)
            rec = sc.time_delays(curves, K1)
            errors.append(abs(rec.tau_t - exact))
        assert errors[0] / errors[1] >= 4.0
        assert errors[1] / errors[2] >= 4.0

    def test_edge_of_grid_rejected(self):
        grid = np.linspace(0.9, 1.1, 5)
        curve = sc.PhaseCurve(grid=grid, values=np.zeros(5), label="t")
        with pytest.raises(sc.EdgeOfGridError):
            sc.time_delays((curve, None, None), sc.WaveNumber(0.9))
        with pytest.raises(sc.EdgeOfGridError):
            sc.time_delays((curve, None, None), sc.WaveNumber(1.05))

    def test_method_descriptor(self):
        curves = sc.chain_phase_curves(DELTA, 1.0, 1, 1.0)
        rec = sc.time_delays(curves, K1)
        assert "richardson" in rec.method


class TestTraversalTime:
    def test_free_flight(self):
        rec = sc.traversal_time(5, 1.0, K1, 0.0)
        assert rec.T_t_N == 5.0

    def test_exact_hartman_limit(self):
        rec = sc.traversal_time(5, 1.0, K1, -5.0)
        assert rec.T_t_N == 0.0

    def test_inconsistent_record_rejected(self):
        with pytest.raises(ValueError):
            sc.HartmanRecord(N=5, tau_t_N=0.0, T_t_N=1.0, k=K1, a=1.0)


class TestHartmanScan:
    def test_free_cell_is_pure_free_flight(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sc.InBandWarning)
            records = sc.hartman_scan(sc.DeltaSpike(0.0), 1.0, sc.WaveNumber(1.3), 6)
        for rec in records:
            assert rec.T_t_N == rec.N * 1.0 / 1.3

    def test_gap_saturation(self):
        records = sc.hartman_scan(COMB5, 1.0, K1, 32)
        T = [rec.T_t_N for rec in records]
        # below free flight from N >= 2, geometric early decay, saturated tail
        assert all(T[n - 1] < n * 1.0 / 1.0 for n in range(2, 33))
        diffs = [abs(b - a) for a, b in zip(T, T[1:])]
        assert all(b < a for a, b in zip(diffs[:5], diffs[1:6]))
        assert abs(T[31] - T[30]) < 1e-3 * (1.0 / 1.0)

    def test_band_point_warns_and_grows(self):
        with pytest.warns(sc.InBandWarning):
            records = sc.hartman_scan(COMB5, 1.0, sc.WaveNumber(2.5), 24)
        T = [rec.T_t_N for rec in records]
        assert T[23] > 10.0 * T[3]  # no saturation: grows with N

    @pytest.mark.parametrize("k", [1.0, 2.5], ids=["gap", "band"])
    def test_equals_per_n_loop_reference(self, k):
        # Five scalar sweeps, then per N: unwrap the window and apply the
        # 5-point formula, as hartman_scan did one N at a time.
        h, n_max = 1e-4, 40
        ks = [k + j * h for j in range(-2, 3)]
        sweeps = [sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, n_max), sc.WaveNumber(kv))
                  for kv in ks]
        expected = []
        for n in range(1, n_max + 1):
            v = sc.unwrap([(kv, float(sw.t_phases[n - 1])) for kv, sw in zip(ks, sweeps)],
                          "t").values
            step = ks[1] - ks[0]
            d_h = (v[3] - v[1]) / (2.0 * step)
            d_2h = (v[4] - v[0]) / (4.0 * step)
            expected.append(float((4.0 * d_h - d_2h) / 3.0) / k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sc.InBandWarning)
            records = sc.hartman_scan(COMB5, 1.0, sc.WaveNumber(k), n_max, fd_step=h)
        assert [rec.tau_t_N for rec in records] == expected

    def test_nonuniform_window_is_a_config_error(self):
        with warnings.catch_warnings(), pytest.raises(sc.ConfigError, match="fd_step"):
            warnings.simplefilter("ignore", sc.InBandWarning)
            sc.hartman_scan(COMB5, 1.0, sc.WaveNumber(1e5), 4)

    def test_gap_point_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", sc.InBandWarning)
            sc.hartman_scan(COMB5, 1.0, K1, 4)


class TestBandClassify:
    def test_free_cell_always_band(self):
        for kv in (0.4, 1.0, 2.0, 2.9):
            verdict = sc.band_classify(identity_smatrix(sc.WaveNumber(kv)), 1.0)
            assert verdict.kind is sc.BandClass.BAND

    def test_gap_at_known_point(self):
        verdict = sc.band_classify(sc.cell_smatrix(COMB5, K1), 1.0)
        assert verdict.kind is sc.BandClass.GAP
        assert verdict.z == pytest.approx(4.747657, abs=1e-5)

    def test_edge_at_ka_pi(self):
        verdict = sc.band_classify(sc.cell_smatrix(COMB5, sc.WaveNumber(math.pi)), 1.0)
        assert verdict.kind is sc.BandClass.EDGE
        assert verdict.z == pytest.approx(-1.0, abs=1e-12)


@pytest.fixture(scope="module")
def gap_chain():
    return sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 64), K1)


class TestAsymptoticFit:
    def test_slopes_and_residual(self, gap_chain):
        fit = sc.asymptotic_phase_fit(gap_chain)
        ka = 1.0
        assert fit.slope_r == pytest.approx(-2.0 * ka, abs=1e-6)
        assert fit.slope_t == pytest.approx(-ka, abs=1e-6)
        assert fit.residual < 1e-6
        assert fit.N_range == (33, 64)

    def test_left_reflection_reaches_unit_modulus(self, gap_chain):
        fit = sc.asymptotic_phase_fit(gap_chain)
        assert abs(fit.l_limit_modulus - 1.0) < 1e-10

    def test_phase_relation_links_constants(self, gap_chain):
        # beta must agree with (alpha + alpha_l_inf)/2 + pi/2 modulo pi.
        fit = sc.asymptotic_phase_fit(gap_chain)
        alpha_l_inf = sc.principal_phases(gap_chain.matrices[-1])[1]
        predicted = 0.5 * (fit.alpha + alpha_l_inf) + 0.5 * math.pi
        assert sc.branch_distance(fit.beta - predicted, math.pi) < 1e-6

    def test_successive_r_phase_decrements(self, gap_chain):
        # alpha_r(N+1) - alpha_r(N) -> -2ka in the gap
        ka = 1.0
        phases = [sc.principal_phases(m)[2] for m in gap_chain.matrices[40:50]]
        for p0, p1 in zip(phases, phases[1:]):
            assert sc.branch_distance(p1 - p0 + 2.0 * ka) < 1e-8

    @pytest.mark.parametrize("k", [1.0, math.pi])
    def test_equals_per_matrix_reference(self, k):
        # the fit as computed from the per-N matrices with scalar calls
        state = sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 64), sc.WaveNumber(k))
        ka = k * 1.0
        ns = np.arange(1, 65)
        assert min(abs(m.r) for m in state.matrices) >= sc.MODULUS_FLOOR
        raw_r = np.array([sc.principal_phase(m.r) for m in state.matrices]) + 2.0 * ns * ka
        comp_r = sc.unwrap_phases(raw_r, ns)
        comp_t = state.t_phases + ns * ka
        upper = ns > 32
        alpha_mean = float(np.mean(comp_r[upper]))
        beta_mean = float(np.mean(comp_t[upper]))
        resid_r = float(np.sqrt(np.mean((comp_r[upper] - alpha_mean) ** 2)))
        resid_t = float(np.sqrt(np.mean((comp_t[upper] - beta_mean) ** 2)))
        expected = sc.AsymptoticFit(
            alpha=sc.wrap_to_principal(alpha_mean),
            beta=sc.wrap_to_principal(beta_mean),
            residual=max(resid_r, resid_t),
            N_range=(33, 64),
            slope_r=float(np.polyfit(ns[upper], comp_r[upper] - 2.0 * ns[upper] * ka, 1)[0]),
            slope_t=float(np.polyfit(ns[upper], state.t_phases[upper], 1)[0]),
            l_limit_modulus=abs(state.matrices[-1].l),
        )
        assert sc.asymptotic_phase_fit(state) == expected

    def test_refuses_in_band(self):
        state = sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 32), sc.WaveNumber(2.5))
        with pytest.raises(ValueError, match="band"):
            sc.asymptotic_phase_fit(state)

    def test_needs_enough_cells(self):
        state = sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 8), K1)
        with pytest.raises(ValueError, match="N_max"):
            sc.asymptotic_phase_fit(state)


class TestWavepacketAverage:
    def test_free_cell_is_one(self):
        k_values = np.linspace(1.0, 3.0, 501)
        ones = np.ones_like(k_values)
        assert sc.wavepacket_average(k_values, ones, 2.0, 0.02) == 1.0

    def test_midband_average_converges_while_pointwise_oscillates(self):
        k0, sigma = 2.0, 0.02
        k_values = np.linspace(k0 - 5 * sigma, k0 + 5 * sigma, 2001)
        profile = sc.transmission_profile(DELTA, 1.0, np.array([64, 128]), k_values)
        avg_64 = sc.wavepacket_average(k_values, profile[0], k0, sigma)
        avg_128 = sc.wavepacket_average(k_values, profile[1], k0, sigma)
        assert abs(avg_64 - avg_128) < 1e-3
        pointwise = sc.chain_amplitudes(
            sc.Lattice(DELTA, 1.0, 128), sc.WaveNumber(k0)
        ).transmissions[63:]
        assert pointwise.max() - pointwise.min() > 0.1

    def test_midgap_average_vanishes(self):
        k0, sigma = 1.0, 0.02
        k_values = np.linspace(k0 - 5 * sigma, k0 + 5 * sigma, 801)
        profile = sc.transmission_profile(COMB5, 1.0, np.array([64]), k_values)
        assert sc.wavepacket_average(k_values, profile[0], k0, sigma) < 1e-6

    def test_coverage_error(self):
        k_values = np.linspace(1.95, 2.05, 101)
        with pytest.raises(sc.CoverageError):
            sc.wavepacket_average(k_values, np.ones_like(k_values), 2.0, 0.02)

    def test_rejects_bad_sigma(self):
        k_values = np.linspace(1.0, 3.0, 11)
        with pytest.raises(ValueError):
            sc.wavepacket_average(k_values, np.ones_like(k_values), 2.0, 0.0)
