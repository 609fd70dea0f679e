"""Unit tests for cell shapes, closed-form amplitudes and the transfer oracle."""

import cmath
import math

import numpy as np
import pytest

import scatterchain as sc
from support import identity_smatrix, smatrix_to_transfer


K1 = sc.WaveNumber(1.0)
K_GRID = np.linspace(0.1, 10.0, 200)

ALL_CELLS = [
    sc.DeltaSpike(1.0),
    sc.DeltaSpike(5.0),
    sc.DeltaSpike(-0.7),
    sc.RectBarrier(2.0, 1.0),
    sc.RectBarrier(-1.5, 0.8),
    sc.PiecewiseConstant(((0.4, 2.0), (0.3, -1.0), (0.3, 0.5))),
]


def componentwise_diff(s1, s2):
    return max(abs(s1.t - s2.t), abs(s1.l - s2.l), abs(s1.r - s2.r))


class TestShapes:
    def test_support_widths(self):
        assert sc.DeltaSpike(1.0).support_width == 0.0
        assert sc.RectBarrier(2.0, 1.5).support_width == 1.5
        cell = sc.PiecewiseConstant(((0.4, 2.0), (0.6, -1.0)))
        assert cell.support_width == pytest.approx(1.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            sc.RectBarrier(1.0, 0.0)
        with pytest.raises(ValueError):
            sc.PiecewiseConstant(((0.0, 1.0),))

    def test_lattice_rejects_overlap(self):
        with pytest.raises(ValueError):
            sc.Lattice(sc.RectBarrier(1.0, 2.0), 1.0, 4)

    def test_lattice_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sc.Lattice(sc.DeltaSpike(1.0), 1.0, 0)


class TestDeltaSpike:
    def test_zero_strength_is_free(self):
        for kv in (0.3, 1.0, 4.2):
            s = sc.cell_smatrix(sc.DeltaSpike(0.0), sc.WaveNumber(kv))
            assert s.t == 1.0 and abs(s.l) == 0.0 and abs(s.r) == 0.0

    def test_unit_strength_amplitudes(self):
        s = sc.cell_smatrix(sc.DeltaSpike(1.0), K1)
        assert s.t == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-15)
        assert s.transmission == pytest.approx(0.5, abs=1e-15)

    def test_staircase_cross_check(self):
        # A thin tall barrier of the same area approaches the point limit
        # at first order in its width (error/width -> 0.8333 at g = k = 1).
        s_delta = sc.cell_smatrix(sc.DeltaSpike(1.0), K1)
        s_stair = sc.cell_smatrix(sc.RectBarrier(1.0e4, 1.0e-4), K1)
        assert componentwise_diff(s_delta, s_stair) < 1e-4

    def test_staircase_first_order_convergence(self):
        s_delta = sc.cell_smatrix(sc.DeltaSpike(1.0), K1)
        errors = []
        for w in (1e-2, 1e-3, 1e-4):
            s_stair = sc.cell_smatrix(sc.RectBarrier(1.0 / w, w), K1)
            errors.append(componentwise_diff(s_delta, s_stair))
        assert 4.0 < errors[0] / errors[1] < 30.0
        assert 4.0 < errors[1] / errors[2] < 30.0


class TestRectBarrier:
    def test_tunneling_probability(self):
        # E = 0.5 below V0 = 2: the standard barrier formula is the oracle.
        V0, w, E = 2.0, 1.0, 0.5
        kappa = math.sqrt(2.0 * (V0 - E))
        expected = 1.0 / (1.0 + V0**2 * math.sinh(kappa * w) ** 2 / (4 * E * (V0 - E)))
        s = sc.cell_smatrix(sc.RectBarrier(V0, w), K1)
        assert 0.0 < s.transmission < 1.0
        assert s.transmission == pytest.approx(expected, abs=1e-14)
        oracle = sc.transfer_to_smatrix(sc.transfer_oracle(sc.RectBarrier(V0, w), K1))
        assert componentwise_diff(s, oracle) < 1e-10

    def test_degenerate_energy_exact_limit(self):
        # E = V0 exactly: linear interior solution, |t|^2 = 1/(1 + V0 w^2 / 2).
        V0, w = 2.0, 1.3
        k = sc.WaveNumber(math.sqrt(2.0 * V0))
        s = sc.cell_smatrix(sc.RectBarrier(V0, w), k)
        assert s.transmission == pytest.approx(1.0 / (1.0 + V0 * w**2 / 2.0), abs=1e-14)
        assert sc.unitarity_defect(s) < 1e-14
        oracle = sc.transfer_to_smatrix(sc.transfer_oracle(sc.RectBarrier(V0, w), k))
        assert componentwise_diff(s, oracle) < 1e-12

    def test_zero_height_is_free(self):
        s = sc.cell_smatrix(sc.RectBarrier(0.0, 1.0), sc.WaveNumber(2.2))
        assert abs(s.t - 1.0) < 1e-15 and abs(s.l) < 1e-15

    def test_degenerate_segment_inside_piecewise(self):
        # E hits the middle segment height exactly; both paths stay exact.
        cell = sc.PiecewiseConstant(((0.3, 1.0), (0.4, 2.0), (0.3, -0.5)))
        k = sc.WaveNumber(2.0)  # E = 2.0
        s1 = sc.cell_smatrix(cell, k)
        s2 = sc.transfer_to_smatrix(sc.transfer_oracle(cell, k))
        assert componentwise_diff(s1, s2) < 1e-12
        assert sc.unitarity_defect(s1) < 1e-14


class TestTransferOracle:
    def test_free_cell_identity(self):
        m = sc.transfer_oracle(sc.DeltaSpike(0.0), K1)
        assert m.m11 == 1.0 and m.m22 == 1.0 and m.m12 == 0.0 and m.m21 == 0.0

    def test_delta_jump_matrix(self):
        m = sc.transfer_oracle(sc.DeltaSpike(1.0), K1)
        assert abs(abs(m.m11) ** 2 - abs(m.m12) ** 2 - 1.0) < 1e-14
        assert m.defect() < 1e-14

    def test_well_determinant(self):
        m = sc.transfer_oracle(sc.RectBarrier(-1.0, 2.0), K1)
        assert abs(m.det - 1.0) < 1e-12

    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: type(c).__name__)
    def test_structure_across_grid(self, cell):
        worst = max(
            sc.transfer_oracle(cell, sc.WaveNumber(float(kv))).defect() for kv in K_GRID
        )
        assert worst < 1e-10

    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: type(c).__name__)
    def test_analytic_matches_oracle_across_grid(self, cell):
        worst = 0.0
        for kv in K_GRID:
            k = sc.WaveNumber(float(kv))
            s1 = sc.cell_smatrix(cell, k)
            s2 = sc.transfer_to_smatrix(sc.transfer_oracle(cell, k))
            worst = max(worst, componentwise_diff(s1, s2))
        assert worst < 1e-10

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            sc.transfer_oracle(sc.DeltaSpike(1.0), sc.WaveNumber(-1.0))


class TestConversions:
    def test_identity_round_trip(self):
        m = smatrix_to_transfer(identity_smatrix(K1))
        assert m.m11 == 1.0 and m.m12 == 0.0 and m.m21 == 0.0 and m.m22 == 1.0
        s = sc.transfer_to_smatrix(m)
        assert s.t == 1.0 and s.l == 0.0 and s.r == 0.0

    def test_delta_both_paths_agree(self):
        s_direct = sc.cell_smatrix(sc.DeltaSpike(1.0), K1)
        s_via_transfer = sc.transfer_to_smatrix(sc.transfer_oracle(sc.DeltaSpike(1.0), K1))
        assert componentwise_diff(s_direct, s_via_transfer) < 1e-12

    @pytest.mark.parametrize("cell", ALL_CELLS, ids=lambda c: type(c).__name__)
    def test_round_trip(self, cell):
        m = sc.transfer_oracle(cell, K1)
        m2 = smatrix_to_transfer(sc.transfer_to_smatrix(m))
        diff = max(
            abs(m.m11 - m2.m11), abs(m.m12 - m2.m12),
            abs(m.m21 - m2.m21), abs(m.m22 - m2.m22),
        )
        assert diff < 1e-12

    def test_singular_conversion_raises(self):
        with pytest.raises(sc.SingularConversionError):
            smatrix_to_transfer(sc.ScatteringMatrix(t=0.0, l=1.0, r=1.0, k=K1))
        singular = sc.TransferMatrix(m11=1.0, m12=0.0, m21=0.0, m22=0.0, k=K1)
        with pytest.raises(sc.SingularConversionError):
            sc.transfer_to_smatrix(singular)


class TestSymmetry:
    # A parity-symmetric cell has l = r once positioned symmetrically; with
    # support starting at x = 0 that means after recentering by -width/2.
    @pytest.mark.parametrize(
        "cell",
        [
            sc.DeltaSpike(1.3),
            sc.RectBarrier(2.0, 1.0),
            sc.PiecewiseConstant(((0.3, 1.0), (0.4, 2.5), (0.3, 1.0))),
        ],
        ids=["delta", "barrier", "piecewise"],
    )
    def test_centered_symmetric_cell(self, cell):
        for kv in K_GRID[::10]:
            k = sc.WaveNumber(float(kv))
            s = sc.displace(sc.cell_smatrix(cell, k), -0.5 * cell.support_width)
            assert abs(s.l - s.r) < 1e-12
            alpha_t, alpha_l, _ = sc.principal_phases(s)
            assert sc.branch_distance(alpha_l - alpha_t - math.pi / 2, math.pi) < 1e-10

    def test_origin_based_barrier_reflections(self):
        # With support on [0, w] the symmetric cell satisfies r = l e^{-2ikw}.
        w = 1.0
        for kv in (0.5, 1.0, 3.3):
            k = sc.WaveNumber(kv)
            s = sc.cell_smatrix(sc.RectBarrier(2.0, w), k)
            assert abs(s.r - s.l * cmath.exp(-2.0j * k.k * w)) < 1e-14
