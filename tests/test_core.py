"""Unit tests for amplitudes, unitarity measures, phases and unwrapping."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scatterchain as sc
from support import (EPS, identity_smatrix, scalar_principal_phase, scalar_principal_phases,
                     scalar_unitarity_defect)


K1 = sc.WaveNumber(1.0)


class TestWaveNumber:
    def test_natural_units(self):
        k = sc.WaveNumber(2.0)
        assert k.energy == 2.0
        assert k.velocity == 2.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            sc.WaveNumber(bad)


class TestUnitarityDefect:
    def test_identity_is_exact(self):
        assert sc.unitarity_defect(identity_smatrix(K1)) == 0.0

    def test_delta_spike_amplitudes(self):
        s = sc.cell_smatrix(sc.DeltaSpike(1.0), K1)
        assert sc.unitarity_defect(s) < 1e-14

    def test_forced_defect(self):
        # The probability row is off by 0.01 but the column overlap
        # |t*conj(r) + l*conj(t)| = 0.1 dominates the maximum.
        s = sc.ScatteringMatrix(t=1.0, l=0.1, r=0.0, k=K1)
        assert sc.unitarity_defect(s) == pytest.approx(0.1, abs=1e-15)

    def test_rejects_nonfinite_amplitudes(self):
        with pytest.raises(ValueError):
            sc.ScatteringMatrix(t=complex("nan"), l=0.0, r=0.0, k=K1)

    def test_non_finite_amplitude_is_a_typed_arithmetic_error(self):
        assert issubclass(sc.NonFiniteAmplitudeError, (ValueError, ArithmeticError))
        with pytest.raises(sc.NonFiniteAmplitudeError, match="amplitude 'l' must be finite"):
            sc.ScatteringMatrix(t=0.5, l=complex("inf"), r=0.0, k=K1)
        with pytest.raises(sc.NonFiniteAmplitudeError, match="entry 'm21' must be finite"):
            sc.TransferMatrix(m11=1.0, m12=0.0, m21=complex("nan"), m22=1.0, k=K1)
        with pytest.raises(sc.NonFiniteAmplitudeError, match="amplitude 'r' must be finite"):
            sc.ChainState(lattice=sc.Lattice(sc.DeltaSpike(1.0), 1.0, 1), k=K1, t=[0.5],
                          l=[0.5], r=[complex("nan")], t_log_moduli=[0.0], t_phases=[0.0])

    def test_chain_state_checks_t_too(self):
        # a t^(n) whose exp overflowed, with finite reflections
        with pytest.raises(sc.NonFiniteAmplitudeError, match="amplitude 't' must be finite"):
            sc.ChainState(lattice=sc.Lattice(sc.DeltaSpike(1.0), 1.0, 1), k=K1,
                          t=[complex("inf")], l=[0.5], r=[0.5], t_log_moduli=[800.0],
                          t_phases=[0.0])


class TestUnitarityDefectLanes:
    """The array defect against scalar_unitarity_defect, CPython's complex
    arithmetic, lane by lane to DRIFT; a length-1 call equals its lane."""

    # numpy's complex multiply and abs round differently from CPython's:
    # worst seen 2 eps on unitary cells, 4.6 eps relative on the random
    # triples, whose defects are of order 1 to 10
    DRIFT = 10 * EPS

    @staticmethod
    def scalar(t, l, r):
        return [scalar_unitarity_defect(sc.ScatteringMatrix(t=tv, l=lv, r=rv, k=K1))
                for tv, lv, rv in zip(t.tolist(), l.tolist(), r.tolist())]

    def assert_lanes(self, t, l, r):
        got = sc.core.unitarity_defect_lanes(t, l, r).tolist()
        for value, want in zip(got, self.scalar(t, l, r), strict=True):
            assert abs(value - want) <= self.DRIFT * max(1.0, want), (value, want)
        for j in range(0, t.size, 37):
            s = sc.ScatteringMatrix(t=t[j].item(), l=l[j].item(), r=r[j].item(), k=K1)
            assert sc.unitarity_defect(s) == got[j]

    @pytest.mark.parametrize("cell", [
        sc.DeltaSpike(0.0), sc.DeltaSpike(5.0), sc.RectBarrier(-1.5, 0.5),
        sc.RectBarrier(9450.0, 5.0),  # |t| ~ 1e-300: |t|^2 underflows
        sc.PiecewiseConstant(((0.4, 1.2), (0.3, -2.0), (0.5, 0.8))),
    ])
    def test_cell_amplitudes(self, cell):
        self.assert_lanes(*sc.cells.cell_lanes(cell, np.linspace(0.3, 9.0, 400)))

    def test_non_unitary_triples(self):
        rng = np.random.default_rng(2)
        self.assert_lanes(*(rng.normal(size=500) + 1j * rng.normal(size=500) for _ in range(3)))


class TestDisplacedComposition:
    """The composition body with b displaced by x against compose_lanes after
    displace_lanes, on cells with their k-derivatives.  The two group the
    displacement's terms differently, so they agree to rounding; each error
    is relative to max(1, |value|) over (t, l, r, g, dl/dk, dr/dk)."""

    K = np.linspace(0.3, 4.0, 400)
    CELLS = {"delta": (sc.DeltaSpike(1.0), 1.0), "well": (sc.RectBarrier(-1.5, 0.5), 1.2),
             "piecewise": (sc.PiecewiseConstant(((0.4, 1.2), (0.3, -2.0), (0.5, 0.8))), 1.5)}
    # bounds in eps, twice the worst seen over x: the difference (delta 5.0,
    # well 10.0, piecewise 3.04) and the unitarity defect of the result
    # (delta 6, well 20, piecewise 30; at x = 0 the cells' own 4, 8 and 18)
    DIFF_BOUNDS = {"delta": 10.0, "well": 20.0, "piecewise": 7.0}
    DEFECT_BOUNDS = {"delta": 12.0, "well": 40.0, "piecewise": 60.0}

    @pytest.mark.parametrize("cells", [0, 1, 400])
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_equals_compose_after_displace(self, name, cells):
        cell, period = self.CELLS[name]
        x, k = cells * period, self.K
        a = sc.cells.cell_lanes(cell, k, derivatives=True)
        t, lb, rb, gb, dlb, drb = a  # b is the same cell, displaced by x
        pos = np.exp(1j * sc.core.position_phase(k, x))
        den, _, *body = sc.core._compose(t * t, a[1:], t * t, a[1:], pos, 2j * x)
        got = (t * t / den, *body)
        l, r, dl, dr = sc.core.displace_lanes(k, lb, rb, x, dlb, drb)
        want = sc.core.compose_lanes(a, (t, l, r, gb, dl, dr))
        diff = max(np.max(np.abs(g - w) / np.maximum(1.0, np.abs(w))) for g, w in zip(got, want))
        assert diff <= self.DIFF_BOUNDS[name] * EPS, diff / EPS
        defect = np.max(sc.core.unitarity_defect_lanes(*got[:3]))
        assert defect <= self.DEFECT_BOUNDS[name] * EPS, defect / EPS


class TestPhaseColumn:
    def test_equals_principal_phases(self):
        floor = sc.MODULUS_FLOOR
        below = math.nextafter(floor, 0.0)
        rng = np.random.default_rng(3)
        values = [
            0j, complex(-0.0, 0.0), complex(-1.0, 0.0), complex(-1.0, -0.0),
            complex(floor, 0.0), complex(0.0, -floor), complex(-floor, -0.0),
            complex(below, 0.0), complex(0.0, below), complex(-below, 0.0),
            floor * (0.6 + 0.8j), below * (0.6 - 0.8j),
            *(rng.normal(size=50) + 1j * rng.normal(size=50)).tolist(),
        ]
        expected = [scalar_principal_phases(sc.ScatteringMatrix(t=v, l=0.0, r=0.0, k=K1))[0]
                    for v in values]
        assert expected[4:7] == [0.0, -math.pi / 2, math.pi]  # at the floor
        assert expected[7:10] == [None, None, None]  # just below it
        got = sc.core.phase_column(np.array(values))
        assert [p is None for p in got] == [p is None for p in expected]
        # numpy's arctan2 and libm's atan2 may round differently: 2 ulps of pi
        assert all(abs(p - q) <= 4 * EPS for p, q in zip(got, expected) if q is not None)


class TestPrincipalPhases:
    def test_identity(self):
        assert sc.principal_phases(identity_smatrix(K1)) == (0.0, None, None)

    def test_quarter_turn(self):
        s = sc.ScatteringMatrix(t=1.0 / (1.0 + 1.0j), l=0.0, r=0.0, k=K1)
        alpha_t, _, _ = sc.principal_phases(s)
        assert alpha_t == pytest.approx(-math.pi / 4, abs=1e-15)

    def test_branch_convention_at_minus_one(self):
        s = sc.ScatteringMatrix(t=-1.0, l=0.0, r=0.0, k=K1)
        assert sc.principal_phases(s)[0] == pytest.approx(math.pi)
        s2 = sc.ScatteringMatrix(t=complex(-1.0, -0.0), l=0.0, r=0.0, k=K1)
        assert sc.principal_phases(s2)[0] == pytest.approx(math.pi)

    @given(phi=st.floats(-20.0, 20.0))
    def test_multiplying_by_phase_shifts_phase(self, phi):
        s = sc.cell_smatrix(sc.DeltaSpike(1.0), K1)
        rotated = sc.ScatteringMatrix(
            t=s.t * complex(math.cos(phi), math.sin(phi)), l=s.l, r=s.r, k=K1
        )
        before = sc.principal_phases(s)[0]
        after = sc.principal_phases(rotated)[0]
        assert sc.branch_distance(after - before - phi) < 1e-9

    @pytest.mark.parametrize("slot", [1, 2], ids=["l", "r"])
    def test_floor_in_the_reflection_slots(self, slot):
        floor = sc.MODULUS_FLOOR
        below = math.nextafter(floor, 0.0)
        cases = [(complex(-floor, -0.0), math.pi), (complex(0.0, floor), math.pi / 2),
                 (complex(below, 0.0), None), (complex(0.0, -below), None)]
        for value, expected in cases:
            amplitudes = dict(zip("lr", (value, 0.0) if slot == 1 else (0.0, value)))
            s = sc.ScatteringMatrix(t=1.0, **amplitudes, k=K1)
            assert sc.principal_phases(s)[slot] == expected, value

    @pytest.mark.parametrize("z", [
        complex(-1.0, -0.0), complex(-1.0, 0.0), complex(0.0, 0.0), complex(-0.0, 0.0),
        complex(0.0, -0.0), complex(-0.0, -0.0), complex(math.inf, 1.0),
        complex(-math.inf, -0.0), complex(1.0, -math.inf), complex(-math.inf, math.inf),
        complex(math.nan, 1.0), complex(1.0, math.nan),
    ])
    def test_special_values_are_cmath_phase_folded(self, z):
        # repr tells -0.0 from 0.0 and matches nan with nan
        assert repr(sc.principal_phase(z)) == repr(scalar_principal_phase(z))

    def test_wrap_maps_minus_pi_to_pi(self):
        # the branch is (-pi, pi]: its open end folds onto the closed one
        assert sc.wrap_to_principal(-math.pi) == math.pi


class TestPhaseRelationResidual:
    @pytest.mark.parametrize("g,k", [(1.0, 1.0), (5.0, 0.7), (-2.0, 3.1)])
    def test_single_delta(self, g, k):
        s = sc.cell_smatrix(sc.DeltaSpike(g), sc.WaveNumber(k))
        assert sc.phase_relation_residual(s) < 1e-12

    def test_two_cell_composite(self):
        s = sc.cell_smatrix(sc.DeltaSpike(1.0), K1)
        composite = sc.compose(s, sc.displace(s, 1.0))
        assert sc.phase_relation_residual(composite) < 1e-10

    def test_identity_undefined(self):
        assert sc.phase_relation_residual(identity_smatrix(K1)) is None


class TestUnwrap:
    def test_jump_across_branch_cut(self):
        values = sc.unwrap_phases([3.0, -3.0], [1.0, 1.1])
        assert values[0] == 3.0
        assert values[1] == pytest.approx(2 * math.pi - 3.0)

    def test_constant_phase_unchanged(self):
        values = sc.unwrap_phases([0.3, 0.3, 0.3], [1.0, 2.0, 3.0])
        assert np.all(values == 0.3)

    def test_single_delta_phase_curve_is_continuous(self):
        # alpha_t = -arctan(g/k) is smooth and increasing over the window.
        ks = np.linspace(0.5, 3.0, 500)
        raw = [sc.principal_phases(sc.cell_smatrix(sc.DeltaSpike(1.0), sc.WaveNumber(kv)))[0]
               for kv in ks.tolist()]
        curve = sc.PhaseCurve(grid=ks, values=sc.unwrap_phases(raw, ks), label="t")
        diffs = np.diff(curve.values)
        assert np.all(diffs > 0.0)
        assert np.max(np.abs(diffs)) < math.pi

    def test_ambiguous_pi_jump_rejected(self):
        with pytest.raises(sc.BranchAmbiguityError):
            sc.unwrap_phases([0.0, math.pi], [0.0, 1.0])

    @given(
        values=st.lists(
            st.floats(-math.pi + 1e-6, math.pi - 1e-6), min_size=1, max_size=30
        )
    )
    @settings(max_examples=200)
    @example(values=[1.0, 0.0001, -2.0])  # a running sum re-rounds 0.0001 and -2.0
    def test_idempotent(self, values):
        for a, b in zip(values, values[1:]):
            # a jump of exactly pi is legitimately ambiguous and rejected
            assume(abs(abs(math.remainder(b - a, 2 * math.pi)) - math.pi) > 1e-9)
        grid = np.arange(float(len(values)))
        once = sc.PhaseCurve(grid=grid, values=sc.unwrap_phases(values, grid), label="t")
        twice = sc.unwrap_phases(once.values, grid)
        assert np.allclose(once.values, twice, rtol=0.0, atol=0.0)


def remainder_loop_unwrap(phases):
    """The scalar unwrap loop: each step adds math.remainder(delta, 2 pi)."""
    out = [phases[0]]
    for prev, cur in zip(phases, phases[1:]):
        out.append(out[-1] + math.remainder(cur - prev, 2.0 * math.pi))
    return out


class TestUnwrapPhases:
    def test_rows_equal_the_remainder_loop(self):
        rng = np.random.default_rng(7)
        steps = rng.uniform(-3.1, 3.1, (300, 7)) + 2.0 * math.pi * rng.integers(-40, 41, (300, 7))
        rows = np.cumsum(steps, axis=-1) * rng.choice([1e-3, 1.0, 1e3], (300, 1))
        rows[:, 1] = rows[:, 0] + 2.0 * math.pi  # exact multiples fold to +-0
        unwrapped = sc.unwrap_phases(rows, np.arange(7.0))
        long_row = np.cumsum(rng.uniform(-3.0, 3.0, 20000)) + rng.uniform(-1e4, 1e4, 20000)
        assert unwrapped.tolist() == [remainder_loop_unwrap(row) for row in rows.tolist()]
        assert (sc.unwrap_phases(long_row, np.arange(20000.0)).tolist()
                == remainder_loop_unwrap(long_row.tolist()))

    def test_rows_without_a_shift_are_returned_as_given(self):
        rows = np.array([[1.0, 0.0001, -2.0], [1.0, 0.0001, 3.5]])
        unwrapped = sc.unwrap_phases(rows, np.arange(3.0))
        assert unwrapped[0].tolist() == [1.0, 0.0001, -2.0]
        assert unwrapped[1].tolist() == remainder_loop_unwrap(rows[1].tolist())
        assert unwrapped[1, 2] == pytest.approx(3.5 - 2.0 * math.pi, abs=1e-12)

    def test_ambiguity_names_the_grid_points(self):
        rows = np.array([[0.0, 0.1, 0.2], [0.0, 0.1, 0.1 + math.pi]])
        with pytest.raises(sc.BranchAmbiguityError, match="k=1.5 and k=2.5"):
            sc.unwrap_phases(rows, np.array([0.5, 1.5, 2.5]))


class TestPhaseCurve:
    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            sc.PhaseCurve(grid=np.array([1.0, 0.5]), values=np.array([0.0, 0.1]), label="t")

    def test_rejects_coarse_phases(self):
        with pytest.raises(ValueError):
            sc.PhaseCurve(
                grid=np.array([1.0, 2.0]), values=np.array([0.0, 3.2]), label="t"
            )

    @pytest.mark.parametrize("values, message", [
        (np.array([0.0]), "grid and values must be 1-d arrays of equal length"),
        (np.array([0.0, math.nan]), "grid and values must be nonempty and finite"),
    ], ids=["mismatched", "nan"])
    def test_rejects_bad_values(self, values, message):
        with pytest.raises(ValueError) as info:
            sc.PhaseCurve(grid=np.array([1.0, 2.0]), values=values, label="t")
        assert str(info.value) == message

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            sc.PhaseCurve(grid=np.array([1.0]), values=np.array([0.0]), label="x")
