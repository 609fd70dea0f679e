"""Unit tests for amplitudes, unitarity measures, phases and unwrapping."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scatterchain as sc
from support import identity_smatrix


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
        curve = sc.unwrap([(1.0, 3.0), (1.1, -3.0)], "t")
        assert curve.values[0] == 3.0
        assert curve.values[1] == pytest.approx(2 * math.pi - 3.0)

    def test_constant_phase_unchanged(self):
        curve = sc.unwrap([(1.0, 0.3), (2.0, 0.3), (3.0, 0.3)], "l")
        assert np.all(curve.values == 0.3)

    def test_single_delta_phase_curve_is_continuous(self):
        # alpha_t = -arctan(g/k) is smooth and increasing over the window.
        ks = np.linspace(0.5, 3.0, 500)
        raw = []
        for kv in ks:
            s = sc.cell_smatrix(sc.DeltaSpike(1.0), sc.WaveNumber(float(kv)))
            raw.append((float(kv), sc.principal_phases(s)[0]))
        curve = sc.unwrap(raw, "t")
        diffs = np.diff(curve.values)
        assert np.all(diffs > 0.0)
        assert np.max(np.abs(diffs)) < math.pi

    def test_ambiguous_pi_jump_rejected(self):
        with pytest.raises(sc.BranchAmbiguityError):
            sc.unwrap([(0.0, 0.0), (1.0, math.pi)], "t")

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
        raw = [(float(i), v) for i, v in enumerate(values)]
        once = sc.unwrap(raw, "t")
        twice = sc.unwrap(list(zip(once.grid, once.values)), "t")
        assert np.allclose(once.values, twice.values, rtol=0.0, atol=0.0)


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

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            sc.PhaseCurve(grid=np.array([1.0]), values=np.array([0.0]), label="x")
