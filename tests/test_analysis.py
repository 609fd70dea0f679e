"""Unit tests for time delays, Hartman scans, band verdicts, asymptotic fits
and wave-packet averaging."""

import math
import sys
import warnings

import numpy as np
import pytest

import scatterchain as sc
from scatterchain import analysis
from support import identity_smatrix
from test_accuracy import exact_delays


K1 = sc.WaveNumber(1.0)
DELTA = sc.DeltaSpike(1.0)
COMB5 = sc.DeltaSpike(5.0)


# (cell, period, a gap k, a band k)
STENCIL_CELLS = {
    "delta": (sc.DeltaSpike(1.171994), 0.987217, 3.3, 4.9055),
    "well": (sc.RectBarrier(-1.5, 0.5), 1.0, 2.9, 1.3),
    "piecewise": (sc.PiecewiseConstant(((0.3, 2.0), (0.2, -1.0), (0.25, 0.5))), 1.0, 0.5, 2.0),
}


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

    @pytest.mark.parametrize("name", sorted(STENCIL_CELLS))
    @pytest.mark.parametrize("N", [2, 8])
    def test_chain_stencil_meets_analytic_delays(self, name, N):
        # chain_phase_curves' chain branch against delay_scan, at a gap and a
        # band k, unshifted and displaced by one period; worst measured
        # 1.1e-11 (piecewise, band k, N = 2, tau_l), relative above 1
        cell, a, gap_k, band_k = STENCIL_CELLS[name]
        for k in (gap_k, band_k):
            for displacement in (0.0, a):
                curves = sc.chain_phase_curves(cell, a, N, k, displacement=displacement)
                rec = sc.time_delays(curves, sc.WaveNumber(k))
                (analytic,) = sc.delay_scan(cell, a, N, [k], displacements=(displacement,))
                for got, (want,) in zip((rec.tau_t, rec.tau_l, rec.tau_r), analytic):
                    assert abs(got - want) <= 5e-11 * max(1.0, abs(want)), (k, displacement)

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

    def test_off_grid_k_rejected(self):
        curve = sc.PhaseCurve(grid=np.linspace(0.9, 1.1, 5), values=np.zeros(5), label="t")
        with pytest.raises(sc.EdgeOfGridError) as info:
            sc.time_delays((curve, None, None), sc.WaveNumber(1.02))
        assert str(info.value) == "k=1.02 is not a sample point of the phase curve"

    def test_rejects_two_curves(self):
        curve = sc.PhaseCurve(grid=np.linspace(0.9, 1.1, 5), values=np.zeros(5), label="t")
        with pytest.raises(ValueError) as info:
            sc.time_delays((curve, None), K1)
        assert str(info.value) == "expected the (t, l, r) curve triple"

    def test_window_reaching_k_le_0_names_fd_step(self):
        with pytest.raises(ValueError, match=r"^fd_step=0\.001: .* extends to k <= 0") as info:
            sc.chain_phase_curves(DELTA, 1.0, 1, 0.0015, fd_step=1e-3)
        assert type(info.value) is ValueError

    def test_stencil_not_uniform_after_rounding_names_fd_step(self):
        # at k = 1e5 a step of 1.0003e-8 is 687.4 ulps: the window's steps
        # round to 688, 687, 687 and 688 of them
        curves = sc.chain_phase_curves(DELTA, 1.0, 1, 1e5, fd_step=1.0003e-8)
        with pytest.raises(ValueError, match="not uniformly spaced.*; raise fd_step$") as info:
            sc.time_delays(curves, sc.WaveNumber(1e5))
        assert type(info.value) is ValueError

    def test_method_descriptor(self):
        curves = sc.chain_phase_curves(DELTA, 1.0, 1, 1.0)
        rec = sc.time_delays(curves, K1)
        assert "richardson" in rec.method


class TestTraversalTime:
    def test_free_flight(self):
        rec = sc.HartmanRecord(N=5, tau_t_N=0.0, k=K1, a=1.0)
        assert rec.T_t_N == 5.0

    def test_exact_hartman_limit(self):
        rec = sc.HartmanRecord(N=5, tau_t_N=-5.0, k=K1, a=1.0)
        assert rec.T_t_N == 0.0

    def test_traversal_time_is_derived(self):
        # N a/v + tau in hartman_scan's order; no constructor argument can
        # make a record whose time disagrees with it
        rec = sc.HartmanRecord(N=7, tau_t_N=-0.3, k=sc.WaveNumber(1.3), a=0.9)
        assert rec.T_t_N == 7 * 0.9 / 1.3 + -0.3
        with pytest.raises(TypeError):
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
        # 5-point formula, the stencil cross-check of the analytic delays,
        # met to the delay-oracle tolerance, relative above 1.
        h, n_max = 1e-4, 40
        ks = [k + j * h for j in range(-2, 3)]
        sweeps = [sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, n_max), sc.WaveNumber(kv))
                  for kv in ks]
        expected = []
        for n in range(1, n_max + 1):
            v = sc.unwrap_phases([float(sw.t_phases[n - 1]) for sw in sweeps], ks)
            step = ks[1] - ks[0]
            d_h = (v[3] - v[1]) / (2.0 * step)
            d_2h = (v[4] - v[0]) / (4.0 * step)
            expected.append(float((4.0 * d_h - d_2h) / 3.0) / k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sc.InBandWarning)
            records = sc.hartman_scan(COMB5, 1.0, sc.WaveNumber(k), n_max)
        for rec, want in zip(records, expected, strict=True):
            assert rec.tau_t_N == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_large_k_delays_are_exact(self):
        # at k = 1e5 rounding of k + j*1e-4 breaks a 5-point stencil; the
        # analytic derivative needs no step
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sc.InBandWarning)
            records = sc.hartman_scan(COMB5, 1.0, sc.WaveNumber(1e5), 4)
        for rec in records:
            exact = exact_delays(COMB5, 1e5, 1.0, rec.N)[0]
            assert rec.tau_t_N == pytest.approx(exact, rel=1e-12)

    def test_infinite_delays_raise(self):
        # at k = 1e-306, d arg t/dk of a g = 1e-320 spike, divided by k,
        # overflows; undefined cells stay None, but these are defined
        cell = sc.DeltaSpike(1e-320)
        with pytest.raises(OverflowError, match="^traversal time T_t is not finite at N=1$"):
            sc.hartman_scan(cell, 1.0, sc.WaveNumber(1e-306), 4)
        message = "^time delay tau_t is not finite at k=1e-306$"
        for N in (1, 3):
            with pytest.raises(OverflowError, match=message):
                sc.delay_scan(cell, 1.0, N, [1e-306, 2e-306])

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


def ladder_rule(z, tol):
    """The band rule as a scalar if-ladder, the reference for band_class_lanes."""
    deviation = abs(z) - 1.0
    if abs(deviation) <= tol:
        return sc.BandClass.EDGE
    return sc.BandClass.GAP if deviation > 0.0 else sc.BandClass.BAND


class TestBandClassLanes:
    """The array band rule against band_classify and the scalar rule, with ==."""

    def test_exactly_at_and_next_to_the_edge_tolerance(self):
        tol = 2.0 ** -10  # |z| - 1 = +-tol is exact for these z
        at = [1.0 + tol, 1.0 - tol, -1.0 - tol, -1.0 + tol]
        near = [math.nextafter(z, direction) for z in at for direction in (0.0, 2 * z)]
        z = np.array([*at, *near, 0.0, 1.0, -1.0, 2.0, -2.0, 0.999])
        expected = [ladder_rule(v, tol) for v in z.tolist()]
        assert expected[:4] == [sc.BandClass.EDGE] * 4
        assert {sc.BandClass.BAND, sc.BandClass.GAP} <= set(expected[4:12])
        assert analysis.band_class_lanes(z, tol).tolist() == expected

    @pytest.mark.parametrize("cell", [sc.DeltaSpike(0.0), COMB5, sc.RectBarrier(-1.5, 0.5)])
    def test_equals_band_classify(self, cell):
        k_values = np.append(np.linspace(0.3, 9.0, 300), math.pi)  # ka = pi: z ~ -1
        matrices = [sc.cell_smatrix(cell, sc.WaveNumber(kv)) for kv in k_values.tolist()]
        z = np.array([sc.bloch_parameter(s, 1.0) for s in matrices])
        edge_tol = abs(abs(z[-1]) - 1.0)  # the ka = pi row sits exactly on the tolerance
        for tol in (analysis.DEFAULT_EDGE_TOL, edge_tol, math.nextafter(edge_tol, 0.0)):
            verdicts = [sc.band_classify(s, 1.0, tol=tol) for s in matrices]
            assert [v.z for v in verdicts] == z.tolist()
            assert analysis.band_class_lanes(z, tol).tolist() == [v.kind for v in verdicts]
            assert [ladder_rule(v, tol) for v in z.tolist()] == [v.kind for v in verdicts]


@pytest.fixture(scope="module")
def gap_chain():
    return sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 64), K1)


class TestAsymptoticFit:
    def test_free_chain_at_edge_has_undefined_reflection(self):
        # ka = pi is a band edge of the free chain (not a band, so the fit is
        # attempted), and r vanishes identically there.
        free = sc.chain_amplitudes(sc.Lattice(sc.DeltaSpike(0.0), 1.0, 16),
                                   sc.WaveNumber(math.pi))
        with pytest.raises(sc.UndefinedAmplitudeError) as info:
            sc.asymptotic_phase_fit(free)
        assert str(info.value) == "right reflection amplitude below floor"

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
    def test_sweep_rows_equal_evaluate_at_every_n(self):
        # packet's rows: one plan of band, gap and |z| ~ 1 entries swept
        # over N = 1..300 against evaluate at each N.  The two routes differ
        # by rounding on band entries (worst seen 272 eps) and share the log
        # form on gap entries.
        z = np.concatenate([np.linspace(-1.2, 1.2, 401), [1.0, -1.0, 1.0 + 5e-9, -1.0 + 9e-9]])
        rho = np.linspace(0.0, 3.0, z.size)
        plan = sc.chain._ChebyshevPlan(z, rho)
        gap = np.abs(z) > 1.0
        for n, t in enumerate(plan.sweep(300), 1):
            want = plan.evaluate(n)[1]
            assert np.abs(t - want).max() <= 2000 * sys.float_info.epsilon, n
            assert t[gap].tobytes() == want[gap].tobytes(), n

    def test_averager_is_numpys_trapezoid_rule(self):
        # the averager runs the trapezoid rule in its own buffers; each
        # average equals numpy's rule on fresh arrays, bit for bit, however
        # often the buffers are reused
        k0, sigma = 2.0, 0.02
        k_values = np.linspace(k0 - 5 * sigma, k0 + 5 * sigma, 2001)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        weight = np.exp(-0.5 * ((k_values - k0) / sigma) ** 2)
        norm = trapezoid(weight, k_values)
        average = analysis._packet_averager(k_values, k0, sigma)
        profile = sc.transmission_profile(DELTA, 1.0, np.arange(1, 41), k_values)
        for transmissions in [*profile, profile[3]]:
            want = float(trapezoid(weight * transmissions, k_values) / norm)
            assert average(transmissions) == want

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

    @pytest.mark.parametrize("k_values, transmissions, message", [
        (np.linspace(3.0, 1.0, 11), np.ones(11),
         "k_values must be strictly increasing with >= 2 samples"),
        (np.linspace(1.0, 3.0, 11), np.ones(10),
         "k_values and transmissions must be 1-d and equally long"),
        (np.where(np.arange(11) == 5, math.nan, np.linspace(1.0, 3.0, 11)), np.ones(11),
         "k_values must be strictly increasing with >= 2 samples"),
    ], ids=["decreasing", "mismatched", "nan-sample"])
    def test_rejects_bad_samples(self, k_values, transmissions, message):
        with pytest.raises(ValueError) as info:
            sc.wavepacket_average(k_values, transmissions, 2.0, 0.02)
        assert str(info.value) == message

    @pytest.mark.parametrize("k0", [math.nan, math.inf])
    def test_rejects_non_finite_k0(self, k0):
        k_values = np.linspace(1.0, 3.0, 11)
        with pytest.raises(ValueError) as info:
            sc.wavepacket_average(k_values, np.ones_like(k_values), k0, 0.02)
        assert str(info.value) == f"k0 must be finite, got {k0!r}"

    def test_rejects_bad_sigma(self):
        k_values = np.linspace(1.0, 3.0, 11)
        with pytest.raises(ValueError):
            sc.wavepacket_average(k_values, np.ones_like(k_values), 2.0, 0.0)
