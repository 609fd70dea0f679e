"""Unit tests for cell shapes, closed-form amplitudes and the transfer oracle."""

import cmath
import math

import numpy as np
import pytest

import scatterchain as sc
from support import (
    EPS,
    identity_smatrix,
    scalar_cell_smatrix,
    scalar_compose,
    scalar_displace,
    smatrix_to_transfer,
)


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

    @pytest.mark.parametrize("build, message", [
        (lambda: sc.DeltaSpike(math.nan), "delta strength must be finite"),
        (lambda: sc.RectBarrier(math.inf, 1.0), "barrier height must be finite"),
        (lambda: sc.PiecewiseConstant(()), "piecewise cell needs at least one segment"),
        (lambda: sc.PiecewiseConstant(((0.5, math.nan),)), "segment height must be finite"),
        (lambda: sc.Lattice(sc.DeltaSpike(1.0), 0.0, 1), "lattice period must be positive, got 0.0"),
        (lambda: sc.Lattice(sc.DeltaSpike(1.0), 1.0, 2.5), "cell count must be a whole number, got 2.5"),
        (lambda: sc.TransferMatrix(m11=math.nan, m12=0.0, m21=0.0, m22=1.0, k=K1),
         "entry 'm11' must be finite, got (nan+0j)"),
    ], ids=["delta-nan", "barrier-inf", "piecewise-empty", "segment-nan", "period-zero",
            "count-fraction", "transfer-nan"])
    def test_rejects_non_finite_or_empty_input(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("path", [sc.cell_smatrix, sc.transfer_oracle],
                             ids=["cell_smatrix", "transfer_oracle"])
    def test_rejects_unknown_cell_type(self, path):
        with pytest.raises(TypeError) as info:
            path(object(), K1)
        assert str(info.value) == "unsupported cell type: object"


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


def random_cells(seed):
    """Delta spikes of both signs, barriers, wells and 1-4-segment piecewise cells."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(3):
        cells += [
            sc.DeltaSpike(rng.uniform(0.1, 6.0)),
            sc.DeltaSpike(-rng.uniform(0.1, 6.0)),
            sc.RectBarrier(rng.uniform(0.1, 20.0), rng.uniform(0.05, 3.0)),
            sc.RectBarrier(-rng.uniform(0.1, 20.0), rng.uniform(0.05, 3.0)),
            sc.PiecewiseConstant(tuple(
                (rng.uniform(0.05, 2.0), rng.uniform(-10.0, 10.0))
                for _ in range(int(rng.integers(1, 5)))
            )),
        ]
    return cells


# numpy's complex arithmetic and libm's cmath round differently; amplitudes
# have modulus <= 1, and the worst drift seen on the scans below is 18 eps
CELL_DRIFT = 64 * EPS


def assert_lanes_near_scalar(cell, k_values):
    t, l, r = sc.cells.cell_lanes(cell, k_values)
    assert t.shape == l.shape == r.shape == np.shape(k_values)
    for i, kv in enumerate(np.ravel(k_values).tolist()):
        s = scalar_cell_smatrix(cell, sc.WaveNumber(kv))
        got, expected = (t.flat[i], l.flat[i], r.flat[i]), (s.t, s.l, s.r)
        assert max(map(abs, np.subtract(got, expected))) <= CELL_DRIFT, (cell, kv)


class TestCellLanes:
    """The array closed forms against the scalar ones of tests/support.py,
    to CELL_DRIFT."""

    @pytest.mark.parametrize("cell", random_cells(11), ids=repr)
    def test_random_wave_numbers(self, cell):
        rng = np.random.default_rng(5)
        assert_lanes_near_scalar(cell, np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 300)))

    @pytest.mark.parametrize("cell", [
        sc.RectBarrier(2.0, 1.0),
        sc.PiecewiseConstant(((0.3, 2.0), (0.5, -1.0), (0.4, 2.0))),
    ], ids=["barrier", "piecewise"])
    def test_exact_degenerate_energy(self, cell):
        # q^2 = k^2 - 2 V0 is exactly 0 at k = 2 for V0 = 2, next to ordinary lanes
        assert_lanes_near_scalar(cell, np.array([1.5, 2.0, np.nextafter(2.0, 3.0), 2.0]))

    def test_two_dimensional_shape(self):
        assert_lanes_near_scalar(ALL_CELLS[5], np.linspace(0.2, 6.0, 24).reshape(4, 6))

    def test_lanes_beyond_one_chunk(self):
        k_values = np.linspace(0.01, 30.0, 2500)  # three passes of LANE_CHUNK lanes
        assert k_values.size > 2 * sc.core.LANE_CHUNK
        assert_lanes_near_scalar(ALL_CELLS[5], k_values)

    def test_length_one_calls(self):
        for cell in ALL_CELLS:
            s, ref = sc.cell_smatrix(cell, K1), scalar_cell_smatrix(cell, K1)
            assert s.k == ref.k and componentwise_diff(s, ref) <= CELL_DRIFT

    def test_rejects_bad_wave_number(self):
        with pytest.raises(ValueError, match="wave number must be finite and positive, got -1.0"):
            sc.cells.cell_lanes(ALL_CELLS[0], [1.0, -1.0, 0.0])

    def test_first_non_finite_amplitude_is_named(self):
        # the closed form of this barrier overflows to NaN at k = 0.5, not at k = 150
        with pytest.raises(sc.NonFiniteAmplitudeError,
                           match=r"amplitude 'l' must be finite, got \(nan\+nanj\)"):
            sc.cells.cell_lanes(sc.RectBarrier(1e4, 5.0), [150.0, 0.5, 150.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_compose_and_displace_equal_scalar_expressions(self, seed):
        rng = np.random.default_rng(seed)
        k = sc.WaveNumber(rng.uniform(0.1, 8.0))
        a, b = (sc.cell_smatrix(cell, k) for cell in rng.choice(ALL_CELLS, 2))
        x = rng.uniform(-3.0, 3.0)
        for got, expected in ((sc.displace(a, x), scalar_displace(a, x)),
                              (sc.compose(a, b), scalar_compose(a, b)),
                              (sc.compose(a, sc.displace(b, x)),
                               scalar_compose(a, scalar_displace(b, x)))):
            assert componentwise_diff(got, expected) <= CELL_DRIFT


    def test_compose_and_displace_equal_their_lanes(self):
        # a length-1 call runs the array code, so it equals its lane bit for bit
        k_values = np.linspace(0.3, 6.0, 40)
        a, b = (sc.cells.cell_lanes(cell, k_values) for cell in ALL_CELLS[4:])
        moved = (b[0], *sc.core.displace_lanes(k_values, b[1], b[2], 0.77))
        composed = sc.core.compose_lanes(a, moved)
        for i, kv in enumerate(k_values.tolist()):
            sa, sb = (sc.ScatteringMatrix(*(x[i] for x in lanes), k=sc.WaveNumber(kv))
                      for lanes in (a, b))
            d = sc.displace(sb, 0.77)
            c = sc.compose(sa, d)
            assert (d.t, d.l, d.r) == tuple(x[i] for x in moved)
            assert (c.t, c.l, c.r) == tuple(x[i] for x in composed)


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

    @pytest.mark.parametrize(
        "cell",
        [sc.RectBarrier(2.0, 1.0), sc.PiecewiseConstant(((0.3, 1.0), (0.4, 2.0), (0.3, -0.5)))],
        ids=["barrier", "piecewise"],
    )
    def test_analytic_matches_oracle_near_degenerate_energy(self, cell):
        # k = 2 +- 10^-j puts E within ~2*10^-j of the height-2 segment, where
        # q = sqrt(k^2 - 4) is tiny but not zero.
        for j in range(2, 15):
            for sign in (1.0, -1.0):
                k = sc.WaveNumber(2.0 + sign * 10.0**-j)
                s1 = sc.cell_smatrix(cell, k)
                s2 = sc.transfer_to_smatrix(sc.transfer_oracle(cell, k))
                assert componentwise_diff(s1, s2) < 1e-12, (j, sign)


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
