"""Unit tests for displacement, composition, recurrences and the Chebyshev form."""

import cmath
import math
import random
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterchain as sc
from support import (EPS, identity_smatrix, matmul, scalar_chebyshev_inputs,
                     stepwise_chain_amplitudes, stepwise_chain_amplitudes_addleft,
                     unplanned_closed_form)


K1 = sc.WaveNumber(1.0)
DELTA = sc.DeltaSpike(1.0)
COMB5 = sc.DeltaSpike(5.0)


def componentwise_diff(s1, s2):
    return max(abs(s1.t - s2.t), abs(s1.l - s2.l), abs(s1.r - s2.r))


def reference_chebyshev(n, z):
    """Plain three-term recurrence, the oracle for every branch of U in
    chebyshev_closed_form."""
    u_prev, u = 1.0, 2.0 * z
    if n == 0:
        return u_prev
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * z * u - u_prev
    return u


class TestDisplace:
    def test_zero_shift_is_identity(self):
        s = sc.cell_smatrix(DELTA, K1)
        d = sc.displace(s, 0.0)
        assert d.t == s.t and d.l == s.l and d.r == s.r

    def test_full_turn_at_2ka_equal_2pi(self):
        s = sc.cell_smatrix(DELTA, K1)
        d = sc.displace(s, math.pi)  # 2ka = 2*pi
        assert d.t == s.t
        assert abs(d.l - s.l) < 1e-15 and abs(d.r - s.r) < 1e-15

    def test_group_inverse(self):
        s = sc.cell_smatrix(DELTA, sc.WaveNumber(1.7))
        back = sc.displace(sc.displace(s, 0.83), -0.83)
        assert componentwise_diff(s, back) < 1e-15

    @given(a=st.floats(-30.0, 30.0), k=st.floats(0.1, 8.0), g=st.floats(-4.0, 4.0))
    @settings(max_examples=100)
    def test_moduli_and_t_invariant(self, a, k, g):
        s = sc.cell_smatrix(sc.DeltaSpike(g), sc.WaveNumber(k))
        d = sc.displace(s, a)
        assert d.t == s.t  # bit-identical
        assert abs(abs(d.l) - abs(s.l)) < 1e-15
        assert abs(abs(d.r) - abs(s.r)) < 1e-15
        assert sc.unitarity_defect(d) < 1e-14


class TestCompose:
    def test_identity_neutral(self):
        s = sc.cell_smatrix(DELTA, K1)
        e = identity_smatrix(K1)
        assert componentwise_diff(sc.compose(s, e), s) < 1e-15
        assert componentwise_diff(sc.compose(e, s), s) < 1e-15

    def test_two_deltas_against_transfer_product(self):
        # Independent path: displace the transfer matrix by conjugating with
        # the plane-wave phases, multiply, convert back.
        a = 1.0
        s = sc.cell_smatrix(DELTA, K1)
        composed = sc.compose(s, sc.displace(s, a))
        m = sc.transfer_oracle(DELTA, K1)
        ph2 = cmath.exp(2.0j * K1.k * a)
        m_shifted = sc.TransferMatrix(
            m11=m.m11, m12=m.m12 / ph2, m21=m.m21 * ph2, m22=m.m22, k=K1
        )
        expected = sc.transfer_to_smatrix(matmul(m_shifted, m))
        assert componentwise_diff(composed, expected) < 1e-12

    def test_associative_on_three_delta_cells(self):
        rng = random.Random(20240901)
        for _ in range(25):
            k = sc.WaveNumber(rng.uniform(0.3, 6.0))
            mats = []
            x = 0.0
            for _ in range(3):
                x += rng.uniform(0.5, 2.0)
                cell = sc.cell_smatrix(sc.DeltaSpike(rng.uniform(-3, 3)), k)
                mats.append(sc.displace(cell, x))
            a, b, c = mats
            left = sc.compose(sc.compose(a, b), c)
            right = sc.compose(a, sc.compose(b, c))
            assert componentwise_diff(left, right) < 1e-12

    def test_mismatched_wavenumbers_rejected(self):
        s1 = sc.cell_smatrix(DELTA, K1)
        s2 = sc.cell_smatrix(DELTA, sc.WaveNumber(2.0))
        with pytest.raises(ValueError):
            sc.compose(s1, s2)

    def test_resonance_divergence_on_corrupted_input(self):
        bad_a = sc.ScatteringMatrix(t=1e-8, l=1.0, r=1.0, k=K1)
        bad_b = sc.ScatteringMatrix(t=1e-8, l=1.0, r=1.0, k=K1)
        with pytest.raises(sc.ResonanceDivergenceError):
            sc.compose(bad_a, bad_b)


class TestChainAmplitudes:
    def test_free_cell(self):
        state = sc.chain_amplitudes(sc.Lattice(sc.DeltaSpike(0.0), 1.0, 12), K1)
        for s in state.matrices:
            assert s.t == 1.0 and abs(s.l) == 0.0 and abs(s.r) == 0.0
        assert np.all(state.transmissions == 1.0)

    def test_n2_equals_compose(self):
        state = sc.chain_amplitudes(sc.Lattice(DELTA, 1.0, 2), K1)
        s = sc.cell_smatrix(DELTA, K1)
        expected = sc.compose(s, sc.displace(s, 1.0))
        assert componentwise_diff(state.matrices[1], expected) < 1e-13

    def test_gap_point_matches_chebyshev(self):
        state = sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 8), K1)
        s_cell = sc.cell_smatrix(COMB5, K1)
        expected = sc.chebyshev_transmission(s_cell, 1.0, 8)
        assert abs(state.transmissions[7] - expected) < 1e-10

    @pytest.mark.parametrize(
        "cell", [DELTA, sc.RectBarrier(2.0, 0.6)], ids=["delta", "barrier"]
    )
    def test_equals_fold_of_composed_displaced_cells(self, cell):
        k = sc.WaveNumber(1.3)
        n = 16
        state = sc.chain_amplitudes(sc.Lattice(cell, 1.0, n), k)
        s_cell = sc.cell_smatrix(cell, k)
        acc = s_cell
        for i in range(1, n):
            acc = sc.compose(acc, sc.displace(s_cell, i * 1.0))
            assert componentwise_diff(acc, state.matrices[i]) < 1e-11

    def test_first_entry_is_the_cell(self):
        state = sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 4), K1)
        assert componentwise_diff(state.matrices[0], sc.cell_smatrix(COMB5, K1)) == 0.0

    def test_deep_gap_stays_unitary(self):
        state = sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 64), K1)
        assert state.transmissions[-1] < 1e-100  # far below any noise floor
        assert abs(abs(state.matrices[-1].l) - 1.0) < 1e-12
        assert max(sc.unitarity_defect(s) for s in state.matrices) < 1e-10

    def test_accumulated_phase_matches_principal(self):
        state = sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 24), K1)
        for i, s in enumerate(state.matrices):
            expected = sc.principal_phases(s)[0]
            assert sc.branch_distance(state.t_phases[i] - expected) < 1e-10


class TestAddLeft:
    def test_free_cell(self):
        state = sc.chain_amplitudes_addleft(sc.Lattice(sc.DeltaSpike(0.0), 1.0, 8), K1)
        assert all(abs(s.r) == 0.0 for s in state.matrices)

    def test_base_case(self):
        state = sc.chain_amplitudes_addleft(sc.Lattice(DELTA, 1.0, 1), K1)
        assert componentwise_diff(state.matrices[0], sc.cell_smatrix(DELTA, K1)) == 0.0

    def test_agrees_with_addright(self):
        k = sc.WaveNumber(1.3)
        lattice = sc.Lattice(DELTA, 1.0, 32)
        right = sc.chain_amplitudes(lattice, k)
        left = sc.chain_amplitudes_addleft(lattice, k)
        worst = max(
            componentwise_diff(a, b) for a, b in zip(right.matrices, left.matrices)
        )
        assert worst < 1e-10


RECURRENCES = [sc.chain_amplitudes, sc.chain_amplitudes_addleft]

# (cell, period, a gap k, a band k) of each cell kind
CELL_KINDS = {
    "delta": (sc.DeltaSpike(1.171994), 0.987217, 3.3, 4.9055),
    "barrier": (sc.RectBarrier(2.0, 0.4), 1.0, 0.7, 2.0),
    "well": (sc.RectBarrier(-1.5, 0.5), 1.0, 2.9, 1.3),
    "piecewise": (sc.PiecewiseConstant(((0.3, 2.0), (0.2, -1.0), (0.25, 0.5))), 1.0, 0.5, 2.0),
}
STEPWISE_CASES = [
    *((kind, cell, a, k) for kind, (cell, a, *ks) in CELL_KINDS.items() for k in ks),
    ("delta edge", DELTA, 1.0, 3.14158265),
    # zero potentials, whose t = 1 - 0j at this k gives arg t^(n) = -0.0
    ("free", sc.DeltaSpike(0.0), 1.0, 7.849750158449662),
    ("zero barrier", sc.RectBarrier(0.0, 0.5), 1.0, 7.849750158449662),
]


class TestStepwiseReference:
    """Both recurrences against support's stepwise loops, which take one
    Python step per n with cmath.exp for e^{2ikna} and (t^(n))^2: equal bit
    for bit in every array, signed zeros included."""

    @pytest.mark.parametrize("route, reference", [
        (sc.chain_amplitudes, stepwise_chain_amplitudes),
        (sc.chain_amplitudes_addleft, stepwise_chain_amplitudes_addleft)])
    @pytest.mark.parametrize("kind, cell, a, k",
                             [pytest.param(*case, id=f"{case[0]}-{case[3]}")
                              for case in STEPWISE_CASES])
    def test_bit_for_bit(self, route, reference, kind, cell, a, k):
        for n in (1, 2, 3, 64, 2000):
            lattice = sc.Lattice(cell, a, n)
            got, want = route(lattice, sc.WaveNumber(k)), reference(lattice, sc.WaveNumber(k))
            for name in ("t", "l", "r", "t_log_moduli", "t_phases"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (n, name)

    def test_overflowing_t_is_an_arithmetic_error(self, monkeypatch):
        # |t| = 1e200 is not unitary: (t^(1))^2 = e^{921} overflows a double
        def corrupted(cell, k_values):
            return tuple(np.full(np.shape(k_values), z, dtype=complex) for z in (1e200, 0.0, 0.0))

        monkeypatch.setattr(sc.cells, "cell_lanes", corrupted)
        for route in RECURRENCES:
            with pytest.raises(ArithmeticError):
                route(sc.Lattice(DELTA, 1.0, 3), K1)


class TestChainState:
    """The recurrences' array-native result: columns, not per-step objects."""

    @pytest.mark.parametrize("recurrence", RECURRENCES)
    def test_builds_at_most_the_cell_matrix(self, recurrence, monkeypatch):
        built = []
        original = sc.ScatteringMatrix.__post_init__

        def counted(s):
            built.append(s)
            original(s)

        monkeypatch.setattr(sc.ScatteringMatrix, "__post_init__", counted)
        state = recurrence(sc.Lattice(DELTA, 1.0, 400), sc.WaveNumber(1.3))
        assert len(state) == 400
        assert len(built) <= 1

    @pytest.mark.parametrize("recurrence", RECURRENCES)
    def test_columns_equal_matrices_and_are_read_only(self, recurrence):
        state = recurrence(sc.Lattice(sc.RectBarrier(-1.5, 0.5), 1.2, 40), sc.WaveNumber(1.7))
        matrices = state.matrices
        assert len(matrices) == len(state) == 40
        for n, s in enumerate(matrices):
            assert (state.t[n], state.l[n], state.r[n]) == (s.t, s.l, s.r)
            assert s.k == state.k
        for column in (state.t, state.l, state.r, state.t_log_moduli, state.t_phases):
            with pytest.raises(ValueError):
                column[0] = 0.0

    @pytest.mark.parametrize("recurrence", RECURRENCES)
    @pytest.mark.parametrize("name", ["l", "r"])
    def test_overflowing_reflection_is_a_value_error(self, recurrence, name, monkeypatch):
        # |t| = 2 is not unitary: the reflection amplitude named grows past
        # the double range within a few cells, and the other one stays 0
        amplitudes = {"l": 0.0, "r": 0.0, name: 1e308}

        def corrupted(cell, k):
            return sc.ScatteringMatrix(t=2.0, **amplitudes, k=k)

        monkeypatch.setattr(sc.chain, "cell_smatrix", corrupted)
        with pytest.raises(ValueError, match=f"amplitude '{name}' must be finite"):
            recurrence(sc.Lattice(DELTA, 1.0, 50), sc.WaveNumber(1.3))


def assert_near_recurrence(got, expected, n):
    """Each of got within 5 n eps of expected, relative where |expected| > 1:
    numpy's complex arithmetic, log and arctan2 round differently from
    CPython's, and the worst drift over the scans below is 2.4 n eps."""
    for g, e in zip(got, expected):
        assert abs(g - e) <= 5 * n * EPS * max(1.0, abs(e)), (g, e)


class TestChainEndAmplitudes:
    """The k-batched kernel against the scalar recurrence, lane by lane, to
    assert_near_recurrence's bound."""

    CELLS = {
        "delta": (DELTA, 1.0),
        "deep_gap_delta": (COMB5, 1.0),
        "well": (sc.RectBarrier(-1.5, 0.5), 1.2),
        "piecewise": (sc.PiecewiseConstant(((0.4, 1.2), (0.3, -2.0), (0.5, 0.8))), 1.5),
    }

    @pytest.mark.parametrize("n", [1, 2, 32, 64, 400])
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_equals_scalar_recurrence_in_every_lane(self, name, n):
        cell, a = self.CELLS[name]
        k_values = np.linspace(0.3, 4.0, 24)
        if name == "deep_gap_delta":
            k_values = np.linspace(0.8, 1.2, 9)  # mid first gap of the g = 5 comb
        lattice = sc.Lattice(cell, a, n)
        t_log, t_phase, t, l, r = sc.chain_end_amplitudes(lattice, k_values.reshape(-1, 3))
        assert t_log.shape == (k_values.size // 3, 3)
        for i, kv in enumerate(k_values.tolist()):
            state = sc.chain_amplitudes(lattice, sc.WaveNumber(kv))
            last = state.matrices[-1]
            got = (x.flat[i] for x in (t_log, t_phase, t, l, r))
            expected = (state.t_log_moduli[-1], state.t_phases[-1], last.t, last.l, last.r)
            assert_near_recurrence(got, expected, n)
        if name == "deep_gap_delta" and n == 400:
            assert (2.0 * t_log < -700.0).all() and (t == 0.0).all()

    def test_lanes_beyond_one_chunk(self):
        k_values = np.linspace(0.3, 4.0, 2500)  # three passes of the lane loop
        lattice = sc.Lattice(sc.RectBarrier(-1.5, 0.5), 1.2, 3)
        t_log, t_phase, t, l, r = sc.chain_end_amplitudes(lattice, k_values)
        for i, kv in enumerate(k_values.tolist()):
            state = sc.chain_amplitudes(lattice, sc.WaveNumber(kv))
            last = state.matrices[-1]
            assert_near_recurrence((t_log[i], t_phase[i], t[i], l[i], r[i]), (
                state.t_log_moduli[-1], state.t_phases[-1], last.t, last.l, last.r), 3)

    def test_cell_below_floor_is_typed(self):
        # |t| ~ 5.6e-307 for this barrier at k = 1
        lattice = sc.Lattice(sc.RectBarrier(245000.0, 1.0), 1.0, 3)
        with pytest.raises(sc.UndefinedAmplitudeError):
            sc.chain_amplitudes(lattice, K1)
        with pytest.raises(sc.UndefinedAmplitudeError):
            sc.chain_end_amplitudes(lattice, [0.9, 1.0])

    def test_vanished_denominator_is_typed(self, monkeypatch):
        # l = r = 1 is not unitary: at ka = pi, D_1 = 1 - e^{2i pi} vanishes
        def corrupted(cell, k_values):
            return tuple(np.full(np.shape(k_values), z, dtype=complex) for z in (1e-8, 1.0, 1.0))

        for module in (sc.cells, sc.chain):  # cell_smatrix looks it up in cells
            monkeypatch.setattr(module, "cell_lanes", corrupted)
        lattice = sc.Lattice(DELTA, 1.0, 4)
        for scalar_route in (sc.chain_amplitudes, sc.chain_amplitudes_addleft):
            with pytest.raises(sc.ResonanceDivergenceError, match="n=1"):
                scalar_route(lattice, sc.WaveNumber(math.pi))
        with pytest.raises(sc.ResonanceDivergenceError, match="n=1"):
            sc.chain_end_amplitudes(lattice, [1.0, math.pi])


class TestBlochParameter:
    def test_free_cell(self):
        for kv in (0.4, 1.0, 2.9):
            s = identity_smatrix(sc.WaveNumber(kv))
            z = sc.bloch_parameter(s, 1.0)
            assert z == pytest.approx(math.cos(kv), abs=1e-15)
            assert abs(z) <= 1.0 + 1e-15

    @pytest.mark.parametrize("g", [1.0, 5.0, -2.0])
    def test_kronig_penney_oracle(self, g):
        for kv in np.linspace(0.1, 10.0, 200):
            k = sc.WaveNumber(float(kv))
            s = sc.cell_smatrix(sc.DeltaSpike(g), k)
            z = sc.bloch_parameter(s, 1.0)
            expected = math.cos(kv) + (g / kv) * math.sin(kv)
            assert abs(z - expected) < 1e-12

    def test_edge_at_ka_pi(self):
        k = sc.WaveNumber(math.pi)
        s = sc.cell_smatrix(COMB5, k)
        assert sc.bloch_parameter(s, 1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_opaque_cell_is_undefined(self):
        s = sc.ScatteringMatrix(t=0.0, l=1.0, r=1.0, k=K1)
        with pytest.raises(sc.UndefinedAmplitudeError) as info:
            sc.bloch_parameter(s, 1.0)
        assert str(info.value) == "transmission amplitude below floor: z undefined"

    @pytest.mark.parametrize("mod", [1e-200, 1e-170])
    def test_tiny_t_has_z_but_no_closed_form(self, mod):
        # above MODULUS_FLOOR z is defined, while |t|^2 underflows to 0 and
        # leaves rho undefined
        s = sc.ScatteringMatrix(t=mod, l=1.0, r=1.0, k=K1)
        z = sc.bloch_parameter(s, 1.0)
        assert abs(z - math.cos(1.0) / mod) <= 2 * EPS * abs(z) and math.isfinite(z)
        with pytest.raises(sc.UndefinedAmplitudeError) as info:
            sc.chebyshev_transmission(s, 1.0, 4)
        assert str(info.value) == "transmission amplitude below floor"

    def test_phase_past_the_double_range_overflows(self):
        s = sc.cell_smatrix(sc.DeltaSpike(1.0), sc.WaveNumber(3.0))
        message = "alpha_t + k a is not finite at k=3.0, a=1e+308"
        with pytest.raises(OverflowError, match=re.escape(message)):
            sc.bloch_parameter(s, 1e308)
        k = np.array([0.5, 1.0, 3.0, 4.0])
        t = sc.cells.cell_lanes(sc.DeltaSpike(1.0), k)[0]
        with pytest.raises(OverflowError, match=re.escape(message)):
            sc.chain.chebyshev_input_lanes(k, t, 1e308)


class TestChebyshevInputLanes:
    """The array (z, rho) against scalar_chebyshev_inputs, lane by lane, to
    10 eps, relative where the value exceeds 1: numpy's cos, arctan2 and
    squared modulus round differently from CPython's (4.9 eps at worst on
    the scans below)."""

    @staticmethod
    def assert_near(got, expected):
        for pair, pair_ref in zip(got, expected, strict=True):
            for x, ref in zip(pair, pair_ref):  # z, then rho, which may be inf
                assert x == ref or abs(x - ref) <= 10 * EPS * max(1.0, abs(ref)), (x, ref)

    CELLS = {
        "free": (sc.DeltaSpike(0.0), 1.0),
        "comb": (COMB5, 1.0),  # deep gaps, and ka = pi on the band edge
        "well": (sc.RectBarrier(-1.5, 0.5), 1.2),
        "piecewise": (sc.PiecewiseConstant(((0.4, 1.2), (0.3, -2.0), (0.5, 0.8))), 1.5),
    }

    @staticmethod
    def scalar(k_values, t, a):
        return [scalar_chebyshev_inputs(sc.ScatteringMatrix(t=tv, l=0.0, r=0.0,
                                                            k=sc.WaveNumber(kv)), a)
                for kv, tv in zip(k_values.tolist(), t.tolist())]

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_cell_scan(self, name):
        cell, a = self.CELLS[name]
        k_values = np.append(np.linspace(0.3, 9.0, 300), math.pi / a)
        t = sc.cells.cell_lanes(cell, k_values)[0]
        z, rho = sc.chain.chebyshev_input_lanes(k_values, t, a)
        expected = [scalar_chebyshev_inputs(sc.cell_smatrix(cell, sc.WaveNumber(kv)), a)
                    for kv in k_values.tolist()]
        self.assert_near(zip(z.tolist(), rho.tolist()), expected)

    @pytest.mark.parametrize("t_below", [0.0, 1e-301, 1e-170])
    def test_floor_condition_and_error(self, t_below):
        # |t|^2 underflows to 0 below |t| ~ 1e-162, also above MODULUS_FLOOR
        k_values, t = np.array([0.5, 1.0]), np.array([0.6 + 0.1j, t_below])
        with pytest.raises(sc.UndefinedAmplitudeError) as scalar:
            self.scalar(k_values, t, 1.0)
        with pytest.raises(sc.UndefinedAmplitudeError) as lanes:
            sc.chain.chebyshev_input_lanes(k_values, t, 1.0)
        assert str(lanes.value) == str(scalar.value)

    def test_overflowing_rho_is_inf_without_a_warning(self):
        k_values, t = np.array([1.0]), np.array([1e-160 + 0j])  # |t|^2 is subnormal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, rho = sc.chain.chebyshev_input_lanes(k_values, t, 1.0)
        self.assert_near([(z[0], rho[0])], self.scalar(k_values, t, 1.0))
        assert rho[0] == math.inf


class TestChebyshevU:
    """U_n(z) is chebyshev_closed_form(z, 0.0, n + 1)[0]."""

    def test_special_value_plus_one(self):
        assert sc.chebyshev_closed_form(1.0, 0.0, 4)[0].tolist() == [4.0]

    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError) as info:
            sc.chebyshev_closed_form(0.5, 1.0, 0)
        assert str(info.value) == "cell counts must be >= 1"

    @pytest.mark.parametrize("call, message", [
        (lambda: sc.chebyshev_closed_form([0.5, 1.0, 1.5], 1.0, 2.5),
         "cell counts must be whole numbers, got 2.5"),
        (lambda: sc.transmission_profile(DELTA, 1.0, [1.5, 2.5], np.linspace(0.5, 2.0, 4)),
         "cell counts must be whole numbers, got 1.5"),
    ], ids=["closed-form", "profile"])
    def test_rejects_fractional_cell_counts(self, call, message):
        # a float count is not truncated: 2.5 cells is not a chain
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_special_value_minus_one(self):
        u = sc.chebyshev_closed_form(-1.0, 0.0, np.arange(1, 7))[0]
        assert u.tolist() == [(n + 1) * (-1.0) ** n for n in range(6)]

    def test_u2_at_zero(self):
        assert sc.chebyshev_closed_form(0.0, 0.0, 3)[0][0] == pytest.approx(-1.0, abs=1e-15)

    def test_hyperbolic_branch_against_recurrence(self):
        u = sc.chebyshev_closed_form(1.2, 0.0, 11)[0][0]
        ref = reference_chebyshev(10, 1.2)
        assert abs(u - ref) / abs(ref) < 1e-12

    @given(
        n=st.integers(0, 30),
        z=st.floats(-3.0, 3.0).filter(
            lambda z: abs(abs(z) - 1.0) > 1e-6
        ),
    )
    @settings(max_examples=200)
    def test_all_branches_against_recurrence(self, n, z):
        ref = reference_chebyshev(n, z)
        u = sc.chebyshev_closed_form(z, 0.0, n + 1)[0][0]
        assert u == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_continuity_across_edge_window(self):
        for z0 in (1.0, -1.0):
            for side in (1.0 - 2e-8, 1.0 + 2e-8):
                z = z0 * side
                assert sc.chebyshev_closed_form(z, 0.0, 13)[0][0] == pytest.approx(
                    reference_chebyshev(12, z), rel=1e-9
                )

    def test_overflow_saturates(self):
        assert math.isinf(sc.chebyshev_closed_form(4.75, 0.0, 401)[0][0])


def same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestChebyshevPlan:
    """chebyshev_closed_form plans on (z, rho) once and evaluates per N: U and
    |t|^2 equal the one-pass kernel of tests/support.py bit for bit."""

    BAND = [0.0, 0.3, -0.77, 0.999, -0.9999, 1.0 - 2e-8, -1.0 + 2e-8, 5e-324]
    GAP = [1.06, -1.06, 1.5, -1.5, 4.75, -4.75, 1.0 + 2e-8, -1.0 - 2e-8, 1e10, -1e300]
    EDGE = [1.0, -1.0, 1.0 + 5e-9, 1.0 - 5e-9, -1.0 + 9e-9, -1.0 - 3e-9]
    RHO = [0.0, 1e-4, 0.5, 24.0, 1e300, math.inf]
    N = [1, 2, 3, 4, 10, 101, 1000, 10000]

    @staticmethod
    def check(z, rho, n):
        u, t = sc.chebyshev_closed_form(z, rho, n)
        with np.errstate(invalid="ignore"):  # the one-pass form gives inf * 0 at rho = inf
            u_ref, t_ref = unplanned_closed_form(z, rho, n)
        assert same_bits(u, u_ref) and same_bits(t, t_ref)
        return u, t

    @pytest.mark.parametrize("zs", [BAND, GAP, EDGE, BAND + GAP + EDGE],
                             ids=["band", "gap", "edge", "mixed"])
    def test_grid_equals_one_pass_form(self, zs):
        z = np.array(zs)[:, None, None]
        rho = np.array(self.RHO)[None, :, None]
        n = np.array(self.N)[None, None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, _ = self.check(z, rho, n)
        assert u.shape == (len(zs), len(self.RHO), len(self.N))

    def test_regimes_are_hit(self):
        u, t = self.check(np.array([-1.0, 1.0, -1.5, -1.5, 4.75, -4.75]), 24.0,
                          np.array([4, 4, 2, 3, 1000, 1000]))
        assert u[:2].tolist() == [-4.0, 4.0]  # U_3(+-1) = 4 (+-1)^3
        assert u[2] < 0.0 < u[3]  # the sign of U_{N-1}(z < 0) for even and odd N
        assert u[4] == math.inf and u[5] == -math.inf and t[4:].tolist() == [0.0, 0.0]

    def test_rho_inf_in_a_gap_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, t = self.check(np.array([1.5, -3.0, 0.5]), math.inf, 3)
        assert t[:2].tolist() == [0.0, 0.0] and u[1] == pytest.approx(35.0)  # U_2(-3)

    @pytest.mark.parametrize("z", [0.3, -1.06, 1.0, -1.0 + 9e-9])
    def test_scalar_z_against_n_column(self, z):
        # the per-N chain table: one (z, rho) and N = 1..N_max
        self.check(z, 0.7, np.arange(1, 2001))

    def test_z_row_against_scalar_n(self):
        # bands and packet: z over a k grid at one N
        z = np.concatenate([np.linspace(-1.2, 1.2, 2001), self.EDGE])
        for n in (1, 2, 64, 10000):
            self.check(z, np.linspace(0.0, 3.0, z.size), n)

    def test_one_plan_over_many_n(self):
        # a plan evaluated per N, in any order
        z = np.array(self.BAND + self.GAP + self.EDGE + self.EDGE)
        rho = np.linspace(0.0, 2.0, z.size)
        plan = sc.chain._ChebyshevPlan(z, rho)
        for n in (7, 1, 300, 2, 10000, 299, 1):
            got = plan.evaluate(n)
            want = unplanned_closed_form(z, rho, n)
            assert all(same_bits(g, w) for g, w in zip(got, want)), n

    def test_negative_z_folds_onto_positive(self):
        # U_{N-1}(-z) = (-1)^{N-1} U_{N-1}(z): the kernel works on |z|, so
        # |t|^2 at -z is that at z bit for bit, in bands, within 1e-8 of
        # |z| = 1 and in gaps
        z = np.array([0.05, 0.3, 0.77, 0.999, 1.0 - 5e-9, 1.0, 1.0 + 5e-9,
                      1.06, 1.5, 4.75])[:, None, None]
        rho = np.array([1e-4, 0.5, 24.0])[None, :, None]
        n = np.arange(1, 401)[None, None, :]
        u, t = sc.chebyshev_closed_form(z, rho, n)
        u_neg, t_neg = sc.chebyshev_closed_form(-z, rho, n)
        assert same_bits(t_neg, t)
        assert same_bits(u_neg, np.where(n % 2 == 0, -u, u))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_nan_z_gives_nan(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, t = self.check(math.nan, 0.5, n)
        assert math.isnan(u[0]) and math.isnan(t[0])

    def test_infinite_z(self):
        # U_0 = 1 at any z, so N = 1 reads 1 / (1 + rho) as every gap z does
        # there; from N = 2 on U saturates to +-inf and |t|^2 reads 0.  Both
        # evaluate and sweep, quietly.  rho > 0, as rho = 0 (|t| = 1) puts
        # z in the band
        z = np.array([math.inf, -math.inf])[:, None]
        rho = np.array(self.RHO[1:])[None, :]
        n = np.array([1, 2, 3, 1000])[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, t = sc.chebyshev_closed_form(z, rho, n)
            plan = sc.chain._ChebyshevPlan(*np.broadcast_arrays(z, rho))
            rows = [row.copy() for row in plan.sweep(3)]
            t_finite = sc.chebyshev_closed_form(1e300, rho, 1)[1]
        assert (u[0] == 1.0).all() and same_bits(t[0], np.broadcast_to(t_finite, t[0].shape))
        assert t[0, 0].tolist() == pytest.approx([1.0 / (1.0 + r) for r in self.RHO[1:]],
                                                 rel=1e-12)
        assert (u[1:, 0] == math.inf).all() and (t[1:] == 0.0).all()
        assert u[1:, 1, 0].tolist() == [-math.inf, math.inf, -math.inf]  # (-1)^{N-1}
        assert all(same_bits(row, t[i]) for i, row in enumerate(rows))

    def test_rejects_zero_cells_in_a_plan(self):
        plan = sc.chain._ChebyshevPlan(np.array([0.5, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="cell counts must be >= 1"):
            plan.evaluate(np.array([1, 0]))


class TestPeriodValidation:
    """The closed-form routes reject the periods Lattice rejects."""

    @pytest.mark.parametrize("a", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_period_that_is_not_finite_and_positive(self, a):
        s_cell = sc.cell_smatrix(COMB5, K1)
        calls = (lambda: sc.bloch_parameter(s_cell, a),
                 lambda: sc.chebyshev_transmission(s_cell, a, 4),
                 lambda: sc.chain.chebyshev_input_lanes([1.0], np.array([s_cell.t]), a),
                 lambda: sc.transmission_profile(COMB5, a, np.array([4]), np.array([1.0])))
        message = re.escape(f"lattice period must be positive, got {a!r}")
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_profile_rejects_overlapping_cells(self):
        with pytest.raises(ValueError, match="cells would overlap"):
            sc.transmission_profile(sc.RectBarrier(1.0, 2.0), 0.5, np.array([1, 2]),
                                    np.array([1.0, 2.0]))

    def test_huge_period_still_overflows(self):
        # a = 1e308 is a valid period; alpha_t + k a overflows at k = 2
        with pytest.raises(OverflowError, match="not finite at k=2.0"):
            sc.bloch_parameter(sc.cell_smatrix(COMB5, sc.WaveNumber(2.0)), 1e308)


class TestChebyshevTransmission:
    def test_single_cell(self):
        s = sc.cell_smatrix(COMB5, K1)
        assert sc.chebyshev_transmission(s, 1.0, 1) == pytest.approx(
            s.transmission, abs=1e-15
        )

    def test_free_cell_any_n(self):
        e = identity_smatrix(K1)
        for n in (1, 2, 7, 400):
            assert sc.chebyshev_transmission(e, 1.0, n) == 1.0

    def test_gap_matches_recurrence_at_n16(self):
        state = sc.chain_amplitudes(sc.Lattice(COMB5, 1.0, 16), K1)
        s_cell = sc.cell_smatrix(COMB5, K1)
        assert abs(
            sc.chebyshev_transmission(s_cell, 1.0, 16) - state.transmissions[15]
        ) < 1e-10

    def test_monotone_decreasing_in_gap(self):
        s_cell = sc.cell_smatrix(COMB5, K1)
        values = [sc.chebyshev_transmission(s_cell, 1.0, n) for n in range(1, 65)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_underflow_is_graceful_zero(self):
        s_cell = sc.cell_smatrix(COMB5, K1)
        assert sc.chebyshev_transmission(s_cell, 1.0, 500) == 0.0


class TestDualPathFuzz:
    @given(
        g=st.floats(-4.0, 4.0),
        a=st.floats(0.5, 3.0),
        k=st.floats(0.1, 9.0),
        n=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_recurrence_agrees_with_closed_form_delta(self, g, a, k, n):
        kw = sc.WaveNumber(k)
        state = sc.chain_amplitudes(sc.Lattice(sc.DeltaSpike(g), a, n), kw)
        cheb = sc.chebyshev_transmission(sc.cell_smatrix(sc.DeltaSpike(g), kw), a, n)
        assert abs(float(state.transmissions[-1]) - cheb) < 1e-9

    @given(
        v0=st.floats(-3.0, 5.0),
        w=st.floats(0.1, 1.5),
        k=st.floats(0.2, 7.0),
        n=st.integers(1, 24),
    )
    @settings(max_examples=100, deadline=None)
    def test_recurrence_agrees_with_closed_form_barrier(self, v0, w, k, n):
        cell = sc.RectBarrier(v0, w)
        kw = sc.WaveNumber(k)
        state = sc.chain_amplitudes(sc.Lattice(cell, w + 0.5, n), kw)
        cheb = sc.chebyshev_transmission(sc.cell_smatrix(cell, kw), w + 0.5, n)
        assert abs(float(state.transmissions[-1]) - cheb) < 1e-9
        assert max(sc.unitarity_defect(s) for s in state.matrices) < 1e-10


class TestTransmissionProfile:
    def test_matches_scalar_path(self):
        k_values = np.linspace(0.5, 9.5, 101)
        n_values = np.array([1, 2, 8, 33])
        profile = sc.transmission_profile(COMB5, 1.0, n_values, k_values)
        for j, kv in enumerate(k_values):
            s_cell = sc.cell_smatrix(COMB5, sc.WaveNumber(float(kv)))
            for i, n in enumerate(n_values):
                expected = sc.chebyshev_transmission(s_cell, 1.0, int(n))
                assert profile[i, j] == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_edge_column(self):
        k_values = np.array([3.0, math.pi, 3.3])
        profile = sc.transmission_profile(COMB5, 1.0, np.array([16]), k_values)
        s_edge = sc.cell_smatrix(COMB5, sc.WaveNumber(math.pi))
        rho = (1.0 - s_edge.transmission) / s_edge.transmission
        assert profile[0, 1] == pytest.approx(1.0 / (1.0 + 256.0 * rho), rel=1e-10)


class TestClosedFormOracle:
    """chebyshev_closed_form against mpmath.chebyu at 60 digits, on exact
    double inputs, across band points, points near |z| = 1 and within 1e-8
    of it, and gap points."""

    Z = [
        0.0, 0.3, -0.77, 0.999, -0.9999,  # band
        1.0 + 2e-8, 1.0 - 2e-8, -1.0 + 2e-8, -1.0 - 2e-8,
        1.0 + 1e-6, 1.0 - 1e-6, -1.0 + 1e-6, -1.0 - 1e-6,
        1.0, -1.0, 1.0 + 5e-9, 1.0 - 5e-9, -1.0 + 9e-9, -1.0 - 3e-9,  # within 1e-8
        1.06, -1.06, 1.5, -1.5,  # gap, down to underflow
    ]
    RHO = [1e-4, 0.5, 24.0]
    N = [1, 2, 10, 100, 1000, 10000]

    @staticmethod
    def exact_u(n, z):
        # U_n(-z) = (-1)^n U_n(z); the series for negative z cancels badly.
        with mpmath.workdps(60):
            u = mpmath.chebyu(n, mpmath.mpf(abs(z)), maxprec=100000, maxterms=10**6)
            return u if z > 0.0 or n % 2 == 0 else -u

    def test_transmission_against_mpmath(self):
        z = np.array(self.Z)[:, None, None]
        rho = np.array(self.RHO)[None, :, None]
        n = np.array(self.N)[None, None, :]
        t = sc.chebyshev_closed_form(z, rho, n)[1]
        assert t.shape == (len(self.Z), len(self.RHO), len(self.N))
        regimes = set()
        for i, zv in enumerate(self.Z):
            for m, nv in enumerate(self.N):
                u = self.exact_u(nv - 1, zv)
                for j, rv in enumerate(self.RHO):
                    with mpmath.workdps(60):
                        exact = 1 / (1 + mpmath.mpf(rv) * u * u)
                    got = float(t[i, j, m])
                    if exact >= mpmath.mpf("1e-300"):
                        regimes.add("representable")
                        assert float(abs(got - exact) / exact) < 1e-9, (zv, rv, nv, got)
                    else:
                        regimes.add("underflow")
                        assert 0.0 <= got < 1e-300, (zv, rv, nv, got)
        assert regimes == {"representable", "underflow"}
