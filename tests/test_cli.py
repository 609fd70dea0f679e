"""End-to-end tests of the command-line interface and its file formats."""

import csv
import io
import json
import math
import re
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from scatterchain import cli
from scatterchain.cli import main, parse_cell_spec
import scatterchain as sc
from support import EPS, scalar_chebyshev_inputs
from test_accuracy import exact_delays


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


def reference_delay_rows(cell, a, n, k_grid, fd_step, displaced):
    """delay rows by the scalar loop: per k and stencil point one chain_amplitudes
    run, then displace, unwrap and the 5-point formula; None below the floor."""

    def taus(amplitudes, ks, kv):
        out = []
        for slot in range(3):  # t, l, r
            raw, defined = [], True
            for t_log, t_phase, s in amplitudes:
                if slot == 0:
                    defined = defined and t_log >= math.log(sc.MODULUS_FLOOR)
                    raw.append(t_phase)
                else:
                    z = s.l if slot == 1 else s.r
                    defined = defined and abs(z) >= sc.MODULUS_FLOOR
                    raw.append(sc.principal_phase(z))
            if not defined:
                out.append(None)
                continue
            v = sc.unwrap_phases(raw, ks)
            h = ks[1] - ks[0]
            d_h = (v[3] - v[1]) / (2.0 * h)
            d_2h = (v[4] - v[0]) / (4.0 * h)
            out.append(float((4.0 * d_h - d_2h) / 3.0) / kv)
        return out

    rows = []
    for kv in k_grid:
        ks = [kv + j * fd_step for j in range(-2, 3)]
        amplitudes = []
        for kj in ks:
            if n == 1:
                s = sc.cell_smatrix(cell, sc.WaveNumber(kj))
                amplitudes.append((math.log(abs(s.t)), sc.principal_phase(s.t), s))
            else:
                state = sc.chain_amplitudes(sc.Lattice(cell, a, n), sc.WaveNumber(kj))
                amplitudes.append((state.t_log_moduli[-1], state.t_phases[-1],
                                   state.matrices[-1]))
        row = dict(zip(("tau_t", "tau_l", "tau_r"), taus(amplitudes, ks, kv)))
        if displaced:
            moved = [(lt, pt, sc.displace(s, a)) for lt, pt, s in amplitudes]
            for name, x, y in zip("tlr", row.copy().values(), taus(moved, ks, kv)):
                row[f"tau_{name}_displaced"] = y
                row[f"dtau_{name}"] = None if x is None or y is None else y - x
        rows.append(row)
    return rows


def count_cell_smatrix(monkeypatch):
    """Count the cells built: the wave numbers passed to cell_lanes through
    every module that looks it up."""
    calls = []
    original = sc.cells.cell_lanes

    def counted(cell, k_values, *args, **kwargs):
        calls.extend(np.ravel(k_values).tolist())
        return original(cell, k_values, *args, **kwargs)

    for module in (sc.cells, sc.chain, sc.analysis, sc.cli):
        monkeypatch.setattr(module, "cell_lanes", counted)
    return calls


def count_smatrices(monkeypatch):
    """Count ScatteringMatrix objects built, through a patched __post_init__."""
    built = []
    original = sc.ScatteringMatrix.__post_init__

    def counted(s):
        built.append(s)
        original(s)

    monkeypatch.setattr(sc.ScatteringMatrix, "__post_init__", counted)
    return built


def assert_rows_near(rows, expected, bounds):
    """rows equal expected, except that a float of a column named in bounds
    may differ from its reference by that column's bound, relative where the
    reference exceeds 1 in magnitude."""
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        assert row.keys() == ref.keys()
        for key, value in row.items():
            want = ref[key]
            if key in bounds and isinstance(value, float) and isinstance(want, float):
                assert value == want or abs(value - want) <= bounds[key] * max(1.0, abs(want)), (
                    key, value, want)
            else:
                assert value == want, (key, value, want)


# Drift per cell of the columns from their CPython references, which round
# complex arithmetic, log, arctan2, cos and squares differently from numpy:
# amplitude columns against the scalar recurrence (worst seen 6.7 eps, on
# alpha_r), closed-form columns against (z, rho) from CPython (19 eps, on
# T_N_max next to band edges).
CHAIN_DRIFT = 16 * EPS
CHEBYSHEV_DRIFT = 40 * EPS
# Analytic delays against the 5-point stencil of the scalar loop: the
# delay-oracle tolerance, relative where the reference exceeds 1 in magnitude.
DELAY_ORACLE_TOL = 1e-6


def amplitude_columns(s):
    """The phase and unitarity columns of one row, by the scalar functions."""
    alpha_t, alpha_l, alpha_r = sc.principal_phases(s)
    return {"alpha_t": alpha_t, "alpha_l": alpha_l, "alpha_r": alpha_r,
            "unitarity_defect": sc.unitarity_defect(s)}


# a scan and a --tol-unitarity between two of its rows' defects, with the
# first violating row, not row 0, named in the exit-3 line, and its chain
# length: the defect, recorded from the 0.2.0 CLI, drifts with numpy's
# rounding by up to 2.6 N eps
VIOLATIONS = {
    "cell": (["cell", "--cell", "barrier:V0=2,w=1", "--k-min", "0.7", "--k-max", "3.1",
              "--k-count", "7", "--tol-unitarity", "3e-16"],
             "unitarity defect 4.441e-16 exceeds 3.000e-16 at k=1.1"),
    "chain_per_k": (["chain", "--cell", "barrier:V0=2,w=1", "--period", "1.5", "--N", "16",
                     "--k-min", "0.7", "--k-max", "3.1", "--k-count", "7",
                     "--tol-unitarity", "1e-15"],
                    "unitarity defect 6.550e-15 exceeds 1.000e-15 at k=1.9000000000000001, N=16"),
    "chain_per_n": (["chain", "--cell", "delta:g=5", "--period", "1", "--k0", "2.5",
                     "--N-max", "12", "--tol-unitarity", "1e-15"],
                    "unitarity defect 1.770e-15 exceeds 1.000e-15 at k=2.5, N=3"),
    "bands": (["bands", "--cell", "barrier:V0=2,w=1", "--period", "1.5", "--N-max", "8",
               "--k-min", "0.7", "--k-max", "3.1", "--k-count", "7",
               "--tol-unitarity", "3e-16"],
              "unitarity defect 4.441e-16 exceeds 3.000e-16 at k=1.1"),
}


@pytest.mark.parametrize("table", sorted(VIOLATIONS))
def test_unitarity_violation_names_the_first_violating_row(capsys, table):
    argv, message = VIOLATIONS[table]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    prefix = "numerical contract violated: unitarity defect "
    assert err.startswith(prefix)
    defect, rest = err.removeprefix(prefix).split(" ", 1)
    recorded, recorded_rest = message.removeprefix("unitarity defect ").split(" ", 1)
    assert rest == recorded_rest + "\n"
    n = int(dict(zip(argv, argv[1:])).get("--N", 1))
    assert abs(float(defect) - float(recorded)) <= 2.6 * n * EPS


@pytest.mark.parametrize("argv", [
    ("cell", "--cell", "piecewise:0.4:1.2,0.3:-2,0.5:0.8"),
    ("delay", "--cell", "piecewise:0.4:1.2,0.3:-2,0.5:0.8", "--N", "1"),
    ("delay", "--cell", "barrier:V0=-1.5,w=0.5", "--period", "1.2", "--N", "4", "--displaced"),
], ids=["cell", "delay-cell", "delay-chain"])
def test_scans_build_no_scattering_matrix_per_k(capsys, monkeypatch, argv):
    built = count_smatrices(monkeypatch)
    code, out, _ = run_cli(capsys, *argv, "--k-min", "0.5", "--k-max", "2.5", "--k-count", "400")
    assert code == 0 and len(parse_csv(out)) == 400
    assert len(built) == 0


class TestCellSpecParsing:
    def test_delta(self):
        cell = parse_cell_spec("delta:g=1.5")
        assert isinstance(cell, sc.DeltaSpike) and cell.g == 1.5

    def test_barrier(self):
        cell = parse_cell_spec("barrier:V0=2,w=1")
        assert isinstance(cell, sc.RectBarrier) and cell.V0 == 2.0 and cell.w == 1.0

    def test_piecewise(self):
        cell = parse_cell_spec("piecewise:0.5:2.0,0.25:-1.0")
        assert isinstance(cell, sc.PiecewiseConstant)
        assert cell.segments == ((0.5, 2.0), (0.25, -1.0))

    @pytest.mark.parametrize(
        "bad",
        ["delta", "delta:q=1", "barrier:V0=2", "piecewise:0.5", "squarewell:V0=1"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(sc.ConfigError):
            parse_cell_spec(bad)

    @pytest.mark.parametrize("spec, message", [
        ("delta:g=nan", "field 'cell': delta strength must be finite"),
        ("delta:g", "field 'cell': parameter 'g' is not 'name=value'"),
        ("barrier:V0=x,w=1",
         "field 'cell': parameter 'V0': could not convert string to float: 'x'"),
        ("delta:g=1,g=2", "field 'cell': duplicate parameter 'g'"),
    ])
    def test_cell_flag_diagnostics(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "cell", "--cell", spec, "--k-min", "1",
                                 "--k-max", "2", "--k-count", "2")
        assert (code, out, err) == (2, "", f"config error: {message}\n")


class TestConfigFile:
    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "absent.cfg")
        code, _, err = run_cli(capsys, "cell", "--config", path)
        assert code == 2
        assert err == (f"config error: cannot read config {path!r}: "
                       f"[Errno 2] No such file or directory: {path!r}\n")

    @pytest.mark.parametrize("text, message", [
        ("cell = delta:g=1\nk_min 1\n", "2: expected 'key = value', got 'k_min 1'"),
        ("cell = delta:g=1\ncell = delta:g=2\n", "2: duplicate key 'cell'"),
    ], ids=["no-equals", "repeated-key"])
    def test_line_diagnostics(self, tmp_path, capsys, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "cell", "--config", str(config))
        assert (code, err) == (2, f"config error: {config}:{message}\n")

    @pytest.mark.parametrize("word", ["yes", "true", "1", "no", "false", "0"])
    @pytest.mark.parametrize("case", [str.lower, str.upper, str.title])
    def test_displaced_words_match_the_flag(self, tmp_path, capsys, word, case):
        argv = ["delay", "--cell", "delta:g=1", "--period", "1", "--N", "2",
                "--k-min", "0.5", "--k-max", "1.5", "--k-count", "5"]
        config = tmp_path / "run.cfg"
        config.write_text(f"displaced = {case(word)}\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, *argv, "--config", str(config))
        displaced = word in ("yes", "true", "1")
        _, expected, _ = run_cli(capsys, *argv, *(["--displaced"] if displaced else []))
        assert code == 0 and out == expected


class TestCellCommand:
    def test_free_cell_transmission_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "cell", "--cell", "delta:g=0", "--k-min", "0.5",
            "--k-max", "1.5", "--k-count", "3",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [row["T"] for row in rows] == ["1", "1", "1"]

    def test_delta_half_transmission(self, capsys):
        code, out, _ = run_cli(
            capsys, "cell", "--cell", "delta:g=1", "--k-min", "1",
            "--k-max", "2", "--k-count", "2",
        )
        rows = parse_csv(out)
        assert float(rows[0]["T"]) == pytest.approx(0.5, abs=1e-12)

    def test_malformed_config_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "cell", "--cell", "delta:g=1", "--k-min", "0",
            "--k-max", "2", "--k-count", "5",
        )
        assert code == 2
        assert "k_min" in err

    def test_config_file_with_line_diagnostics(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("cell = delta:g=1\nk_min = 0\nk_max = 2\nk_count = 5\n")
        code, _, err = run_cli(capsys, "cell", "--config", str(config))
        assert code == 2
        assert "run.cfg:2" in err and "k_min" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("cell = delta:g=1\nwavelength = 3\n")
        code, _, err = run_cli(capsys, "cell", "--config", str(config))
        assert code == 2
        assert "unknown key" in err and "wavelength" in err

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "cell = delta:g=0\nk_min = 1\nk_max = 2\nk_count = 2\nformat = json\n"
        )
        code, out, _ = run_cli(
            capsys, "cell", "--config", str(config), "--cell", "delta:g=1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["config"]["cell"] == "delta:g=1"
        assert payload["rows"][0]["T"] == pytest.approx(0.5)

    def test_contract_violation_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "cell", "--cell", "delta:g=1", "--k-min", "1",
            "--k-max", "2", "--k-count", "2", "--tol-unitarity", "1e-20",
        )
        assert code == 3
        assert "unitarity" in err

    def test_unrepresentable_amplitude_exit_code(self, capsys):
        # cos of a complex argument past the double range inside the barrier
        # leaves a non-finite amplitude, which the closed form's check names
        code, out, err = run_cli(
            capsys, "cell", "--cell", "barrier:V0=1e6,w=10", "--k-min", "1",
            "--k-max", "2", "--k-count", "2",
        )
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "NonFiniteAmplitudeError" in err

    @pytest.mark.parametrize("cell, k_count", [
        ("delta:g=0", 7),  # free cell: reflection phases undefined
        ("delta:g=1", 400),
        ("barrier:V0=-1.5,w=0.5", 400),
        ("barrier:V0=9450,w=5", 37),  # |t| ~ 1e-300 crosses MODULUS_FLOOR; |t|^2 is 0
        ("piecewise:0.4:1.2,0.3:-2.0,0.5:0.8", 37),
    ])
    def test_rows_equal_the_scalar_loop(self, capsys, cell, k_count):
        code, out, _ = run_cli(
            capsys, "cell", "--cell", cell, "--k-min", "0.3", "--k-max", "4.0",
            "--k-count", str(k_count), "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == k_count
        for row in rows:
            s = sc.cell_smatrix(parse_cell_spec(cell), sc.WaveNumber(row["k"]))
            # T and transmission are both np.abs(t) ** 2, so T is compared with ==
            assert_rows_near([row], [{
                "k": row["k"],
                "re_t": s.t.real, "im_t": s.t.imag,
                "re_l": s.l.real, "im_l": s.l.imag,
                "re_r": s.r.real, "im_r": s.r.imag,
                "T": s.transmission,
                **amplitude_columns(s),
            }], {})

    def test_peak_memory_of_a_long_csv_scan(self, tmp_path):
        # tracemalloc peak with numpy 2.4.6: 26.3 MB while rows were dicts
        # built from the columns, 18.8 MB since the renderer reads the columns
        out = tmp_path / "cell.csv"
        tracemalloc.start()
        try:
            code = main(["cell", "--cell", "piecewise:0.5:1.2,0.4:-1.5,0.6:0.8",
                         "--k-min", "0.05", "--k-max", "6", "--k-count", "20000",
                         "--format", "csv", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.read_bytes().count(b"\r\n") == 20001
        assert peak < 22e6

    def test_float_columns_render_from_their_arrays(self, tmp_path):
        # the same scan: 19.0 MB while every float column became a Python
        # list before rendering, 13.4 MB since the renderer reads the arrays
        # one LANE_CHUNK block at a time
        out = tmp_path / "cell.csv"
        tracemalloc.start()
        try:
            code = main(["cell", "--cell", "piecewise:0.5:1.2,0.4:-1.5,0.6:0.8",
                         "--k-min", "0.05", "--k-max", "6", "--k-count", "20000",
                         "--format", "csv", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 16e6


class TestChainCommand:
    def test_dual_path_agreement_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain", "--cell", "delta:g=5", "--period", "1",
            "--k-min", "0.5", "--k-max", "4.0", "--k-count", "15", "--N", "12",
        )
        assert code == 0
        rows = parse_csv(out)
        assert all(float(row["dual_path_diff"]) < 1e-10 for row in rows)

    def test_free_cell_all_ones(self, capsys):
        _, out, _ = run_cli(
            capsys, "chain", "--cell", "delta:g=0", "--period", "1",
            "--k-min", "0.5", "--k-max", "1.5", "--k-count", "3", "--N", "16",
        )
        rows = parse_csv(out)
        assert all(row["T_recurrence"] == "1" for row in rows)

    def test_n1_row_matches_cell_command(self, capsys):
        _, out_chain, _ = run_cli(
            capsys, "chain", "--cell", "delta:g=1", "--period", "1",
            "--k-min", "1", "--k-max", "2", "--k-count", "2", "--N", "1",
        )
        _, out_cell, _ = run_cli(
            capsys, "cell", "--cell", "delta:g=1", "--k-min", "1",
            "--k-max", "2", "--k-count", "2",
        )
        chain_rows = parse_csv(out_chain)
        cell_rows = parse_csv(out_cell)
        for chain_row, cell_row in zip(chain_rows, cell_rows):
            assert chain_row["T_recurrence"] == cell_row["T"]
            assert chain_row["alpha_t"] == cell_row["alpha_t"]

    def test_per_n_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain", "--cell", "delta:g=5", "--period", "1",
            "--k0", "1.0", "--N-max", "8", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["N"] for row in payload["rows"]] == list(range(1, 9))
        assert all(row["dual_path_diff"] < 1e-10 for row in payload["rows"])

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = run_cli(
            capsys, "chain", "--cell", "delta:g=5", "--period", "1",
            "--k-min", "1", "--k-max", "2", "--k-count", "2",
        )
        assert code == 2 and "chain" in err

    def test_per_k_table_evaluates_each_cell_once(self, capsys, monkeypatch):
        # the recurrence and the closed form share one cell_lanes call
        calls = count_cell_smatrix(monkeypatch)
        code, out, _ = run_cli(
            capsys, "chain", "--cell", "barrier:V0=-1.5,w=0.5", "--period", "1.2",
            "--k-min", "0.5", "--k-max", "4.0", "--k-count", "15", "--N", "12",
        )
        assert code == 0 and len(parse_csv(out)) == 15
        assert calls == np.linspace(0.5, 4.0, 15).tolist()

    def test_per_n_mode_reads_transmissions_once(self, capsys, monkeypatch):
        reads = []
        original = sc.ChainState.transmissions

        def counted(state):
            reads.append(len(state))
            return original.fget(state)

        monkeypatch.setattr(sc.ChainState, "transmissions", property(counted))
        code, out, _ = run_cli(
            capsys, "chain", "--cell", "delta:g=5", "--period", "1",
            "--k0", "1.0", "--N-max", "32",
        )
        assert code == 0 and len(parse_csv(out)) == 32
        assert reads == [32]

    def test_per_n_mode_at_band_edge_is_linear_in_n_max(self, capsys):
        # ka = pi sits in the closed form's edge window, where the recurrence
        # for U must run once up to N_max, not once per row.
        start = time.perf_counter()
        code, _, _ = run_cli(
            capsys, "chain", "--cell", "delta:g=1", "--period", "1",
            "--k0", "3.141592653589793", "--N-max", "10000",
        )
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < 2.5


    @pytest.mark.parametrize("cell, period, n", [
        ("barrier:V0=-1.5,w=0.5", "1.2", "1"),
        ("barrier:V0=-1.5,w=0.5", "1.2", "32"),
        ("delta:g=5", "1", "64"),
        ("piecewise:0.4:1.2,0.3:-2.0,0.5:0.8", "1.5", "5"),
    ])
    def test_per_k_rows_equal_the_scalar_loop(self, capsys, cell, period, n):
        code, out, _ = run_cli(
            capsys, "chain", "--cell", cell, "--period", period, "--N", n,
            "--k-min", "0.3", "--k-max", "4.0", "--k-count", "37", "--format", "json",
        )
        assert code == 0
        lattice = sc.Lattice(parse_cell_spec(cell), float(period), int(n))
        for row in json.loads(out)["rows"]:
            state = sc.chain_amplitudes(lattice, sc.WaveNumber(row["k"]))
            expected = {"T_recurrence": float(state.transmissions[-1]),
                        **amplitude_columns(state.matrices[-1])}
            # the k-batched kernel against the scalar recurrence: numpy's
            # rounding drifts from CPython's with the chain length
            assert_rows_near([{key: row[key] for key in expected}], [expected],
                             dict.fromkeys(expected, CHAIN_DRIFT * int(n)))

    @pytest.mark.parametrize("cell, period, k0", [
        ("delta:g=5", "1", "1.0"),  # deep gap: t^(N) falls below MODULUS_FLOOR
        ("delta:g=1", "1", "3.141592653589793"),  # ka = pi: the closed form's edge window
        ("barrier:V0=-1.5,w=0.5", "1.2", "1.7"),
        ("piecewise:0.4:1.2,0.3:-2.0,0.5:0.8", "1.5", "2.2"),
    ])
    def test_per_n_rows_equal_the_scalar_loop(self, capsys, cell, period, k0):
        code, out, _ = run_cli(
            capsys, "chain", "--cell", cell, "--period", period, "--k0", k0,
            "--N-max", "400", "--format", "json",
        )
        assert code == 0
        potential, a, k = parse_cell_spec(cell), float(period), sc.WaveNumber(float(k0))
        state = sc.chain_amplitudes(sc.Lattice(potential, a, 400), k)
        z, rho = scalar_chebyshev_inputs(sc.cell_smatrix(potential, k), a)
        rows = json.loads(out)["rows"]
        assert [row["N"] for row in rows] == list(range(1, 401))
        expected = []
        for row, s, t_rec in zip(rows, state.matrices, state.transmissions.tolist()):
            t_cheb = float(sc.chebyshev_closed_form(z, rho, row["N"])[1][0])
            expected.append({
                "k": k.k, "N": row["N"],
                "T_recurrence": t_rec, "T_chebyshev": t_cheb,
                "dual_path_diff": abs(t_rec - t_cheb),
                **amplitude_columns(s),
            })
        # the CLI's (z, rho) are numpy's, the reference's CPython's
        bound = CHEBYSHEV_DRIFT * 400
        assert_rows_near(rows, expected, {"T_chebyshev": bound, "dual_path_diff": bound})

    def test_per_n_table_builds_no_matrix_per_row(self, capsys, monkeypatch):
        built = count_smatrices(monkeypatch)
        counts = []
        for n_max in ("4", "400"):
            code, _, _ = run_cli(
                capsys, "chain", "--cell", "delta:g=5", "--period", "1",
                "--k0", "1.0", "--N-max", n_max,
            )
            assert code == 0
            counts.append(len(built))
            built.clear()
        assert counts[0] == counts[1]

    def test_per_k_table_builds_two_matrices_per_k(self, capsys, monkeypatch):
        built = count_smatrices(monkeypatch)
        code, out, _ = run_cli(
            capsys, "chain", "--cell", "delta:g=1", "--period", "1", "--N", "8",
            "--k-min", "0.3", "--k-max", "4.0", "--k-count", "40",
        )
        assert code == 0 and len(parse_csv(out)) == 40
        assert len(built) == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the recurrence's unitarity "
                       "defect reaches 1.048e-10 at N=1228 next to the ka = pi edge")
    def test_long_chain_next_to_band_edge_holds_unitarity(self, capsys):
        code, _, err = run_cli(
            capsys, "chain", "--cell", "delta:g=1", "--period", "1",
            "--k0", "3.14158265", "--N-max", "10000",
        )
        assert code == 0, err

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: mid-band (z = -0.107) the "
                       "recurrence's unitarity defect reaches 1.000e-10 at N=135586")
    def test_long_chain_mid_band_holds_unitarity(self, capsys):
        # long_chain seed 7's band k0; with --N-max 135585 the command exits 0
        code, _, err = run_cli(
            capsys, "chain", "--cell", "delta:g=1.171994", "--period", "0.987217",
            "--k0", "4.905507556349526", "--N-max", "135586",
        )
        assert code == 0, err


    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: mid-band (z = 0.243) "
                       "T_recurrence is 1.56e-9 relative off the exact T at N=18710, "
                       "where the unitarity defect is only 3.5e-12")
    def test_long_chain_mid_band_holds_accuracy(self, capsys):
        # long_chain seed 27's band command, against Kronig-Penney's exact T
        # to 30 digits at 1e-9 relative, the benchmark's gate; T_chebyshev
        # is off by 1.2e-13 there
        code, out, err = run_cli(
            capsys, "chain", "--cell", "delta:g=1.177833", "--period", "1.012303",
            "--k0", "5.115095296924437", "--N-max", "20000", "--format", "json",
        )
        assert code == 0, err
        row = json.loads(out)["rows"][18709]
        with mpmath.workdps(30):
            g, a, k = map(mpmath.mpf, (1.177833, 1.012303, 5.115095296924437))
            gamma = mpmath.acos(mpmath.cos(k * a) + g / k * mpmath.sin(k * a))
            u = mpmath.sin(row["N"] * gamma) / mpmath.sin(gamma)
            exact = float(1 / (1 + (g / k) ** 2 * u * u))  # rho = (g/k)^2
        assert abs(row["T_chebyshev"] - exact) <= 1e-9 * exact
        assert abs(row["T_recurrence"] - exact) <= 1e-9 * exact

class TestBandsCommand:
    def test_delta_comb_band_gap_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "bands", "--cell", "delta:g=5", "--period", "1",
            "--k-min", "0.2", "--k-max", "9.0", "--k-count", "200", "--N-max", "32",
        )
        assert code == 0
        rows = parse_csv(out)
        verdicts = [row["verdict"] for row in rows]
        assert {"Band", "Gap"} <= set(verdicts)
        # contiguous blocks alternate between Band and Gap intervals
        blocks = [v for i, v in enumerate(verdicts) if i == 0 or verdicts[i - 1] != v]
        assert len(blocks) >= 4
        k_one = min(rows, key=lambda row: abs(float(row["k"]) - 1.0))
        assert k_one["verdict"] == "Gap"

    def test_free_cell_all_band(self, capsys):
        _, out, _ = run_cli(
            capsys, "bands", "--cell", "delta:g=0", "--period", "1",
            "--k-min", "0.3", "--k-max", "2.8", "--k-count", "40", "--N-max", "8",
        )
        rows = parse_csv(out)
        assert all(row["verdict"] == "Band" for row in rows)

    def test_edge_row_at_ka_pi(self, capsys):
        _, out, _ = run_cli(
            capsys, "bands", "--cell", "delta:g=5", "--period", "1",
            "--k-min", str(math.pi), "--k-max", "4.0", "--k-count", "5", "--N-max", "8",
        )
        rows = parse_csv(out)
        assert rows[0]["verdict"] == "Edge"
        assert float(rows[0]["z"]) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("cell, period, k_min, tol_edge", [
        ("delta:g=0", "1", "0.3", "1e-9"),  # free cell: all band
        ("delta:g=5", "1", "3.141592653589793", "1e-9"),  # ka = pi edge row, deep gaps
        ("delta:g=5", "1", "3.141592653589793", "1e-3"),
        ("barrier:V0=-1.5,w=0.5", "1.2", "0.3", "1e-9"),
        ("piecewise:0.4:1.2,0.3:-2.0,0.5:0.8", "1.5", "0.3", "1e-9"),
    ])
    def test_rows_equal_the_scalar_loop(self, capsys, cell, period, k_min, tol_edge):
        code, out, _ = run_cli(
            capsys, "bands", "--cell", cell, "--period", period, "--k-min", k_min,
            "--k-max", "9.0", "--k-count", "200", "--N-max", "32",
            "--tol-edge", tol_edge, "--format", "json",
        )
        assert code == 0
        potential, a = parse_cell_spec(cell), float(period)
        for row in json.loads(out)["rows"]:
            s = sc.cell_smatrix(potential, sc.WaveNumber(row["k"]))
            verdict = sc.band_classify(s, a, tol=float(tol_edge))
            z, rho = scalar_chebyshev_inputs(s, a)
            # z by numpy's cos and arctan2, the closed form's inputs by CPython's
            assert_rows_near([row], [{
                "k": row["k"], "z": verdict.z, "abs_z": abs(verdict.z),
                "verdict": verdict.kind.value,
                "T_N_max": float(sc.chebyshev_closed_form(z, rho, 32)[1][0]),
            }], {"T_N_max": CHEBYSHEV_DRIFT * 32})


class TestHartmanCommand:
    def test_gap_saturation_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "hartman", "--cell", "delta:g=5", "--period", "1",
            "--k0", "1.0", "--N-max", "12",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["increment"] == ""
        assert all(row["warning"] == "" for row in rows)
        final_increment = abs(float(rows[-1]["increment"]))
        assert final_increment < 1e-6

    def test_free_cell_exact_free_flight(self, capsys):
        _, out, _ = run_cli(
            capsys, "hartman", "--cell", "delta:g=0", "--period", "1",
            "--k0", "1.3", "--N-max", "5",
        )
        rows = parse_csv(out)
        for row in rows:
            assert float(row["T_t"]) == pytest.approx(int(row["N"]) / 1.3, rel=1e-12)

    def test_band_point_populates_warning(self, capsys):
        code, out, _ = run_cli(
            capsys, "hartman", "--cell", "delta:g=5", "--period", "1",
            "--k0", "2.5", "--N-max", "6",
        )
        assert code == 0
        rows = parse_csv(out)
        assert all("not in a gap" in row["warning"] for row in rows)

    @pytest.mark.parametrize("k0", [1.0, 2.5], ids=["gap", "band"])
    def test_table_equals_hartman_scan(self, capsys, k0):
        # the table's tau_t, T_t and increment, bit for bit, against the
        # records' tau_t_N, T_t_N and their consecutive differences
        code, out, _ = run_cli(capsys, "hartman", "--cell", "delta:g=5", "--period", "1",
                               "--k0", repr(k0), "--N-max", "50", "--format", "json")
        assert code == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = sc.hartman_scan(sc.DeltaSpike(5.0), 1.0, sc.WaveNumber(k0), 50)
        in_band = [w for w in caught if issubclass(w.category, sc.InBandWarning)]
        rows = json.loads(out)["rows"]
        assert len(in_band) == (k0 == 2.5) and len(rows) == len(records) == 50
        times = [rec.T_t_N for rec in records]
        assert [row["N"] for row in rows] == [rec.N for rec in records]
        assert [row["tau_t"] for row in rows] == [rec.tau_t_N for rec in records]
        assert [row["T_t"] for row in rows] == times
        assert [row["increment"] for row in rows] == [None] + [
            b - a for a, b in zip(times, times[1:])]
        warning = str(in_band[0].message) if in_band else ""
        assert all(row["warning"] == warning for row in rows)


    # A 5-point stencil cannot resolve these k0; the analytic derivative
    # needs no step.  At k0 = 1e-5 the cell's |l| is 1 - 5e-11, so D_n cancels
    # to about 4e-5 and the rounding of l alone moves d ln t/dk, whose real
    # part is about 1/k0, by ~1e-11 of it: tau_t keeps ~6 digits (worst seen
    # 3.0e-6 relative).
    @pytest.mark.parametrize("k0, rel", [("1e5", 1e-12), ("1e-5", 1e-5)], ids=["1e5", "1e-5"])
    def test_extreme_k0_delays_are_exact(self, capsys, k0, rel):
        code, out, err = run_cli(
            capsys, "hartman", "--cell", "delta:g=1", "--period", "1",
            "--k0", k0, "--N-max", "4",
        )
        assert code == 0 and err == ""
        for row in parse_csv(out):
            exact = exact_delays(sc.DeltaSpike(1.0), float(k0), 1.0, int(row["N"]))[0]
            assert float(row["tau_t"]) == pytest.approx(exact, rel=rel)


class TestDelayCommand:
    def test_displaced_pair_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "delay", "--cell", "delta:g=1", "--period", "0.7",
            "--k-min", "0.5", "--k-max", "1.5", "--k-count", "3", "--displaced",
        )
        assert code == 0
        for row in parse_csv(out):
            k = float(row["k"])
            assert abs(float(row["dtau_t"])) < 1e-9
            assert float(row["dtau_l"]) == pytest.approx(2 * 0.7 / k, abs=1e-6)
            assert float(row["dtau_r"]) == pytest.approx(-2 * 0.7 / k, abs=1e-6)

    # A barrier chain whose k grid holds a transmission resonance, at
    # RESONANCE_K, where |r| is about 3.8e-3: a 5-point stencil there straddles
    # the +-pi jump of alpha_r (it gave dtau_r = 14346.88); Im(r'/r) has no branch.
    RESONANCE_ARGS = (
        "delay", "--cell", "barrier:V0=-2.218715,w=0.327098", "--period", "1.010354",
        "--N", "32", "--displaced", "--k-min", "0.2", "--k-max", "4.0", "--k-count", "1000",
    )
    RESONANCE_K = "2.5545545545545547"

    def resonance_rows(self, capsys):
        code, out, _ = run_cli(capsys, *self.RESONANCE_ARGS)
        assert code == 0
        return {row["k"]: row for row in parse_csv(out)}

    def test_displacement_law_beside_a_transmission_resonance(self, capsys):
        rows = self.resonance_rows(capsys)
        assert len(rows) == 1000 and self.RESONANCE_K in rows
        for k, row in rows.items():
            shift = 2 * 1.010354 / float(k)
            assert abs(float(row["dtau_t"])) < 1e-6
            assert float(row["dtau_l"]) == pytest.approx(shift, abs=1e-6)
            if k != self.RESONANCE_K:
                assert float(row["dtau_r"]) == pytest.approx(-shift, abs=1e-6), k

    def test_displacement_law_on_a_transmission_resonance(self, capsys):
        row = self.resonance_rows(capsys)[self.RESONANCE_K]
        shift = 2 * 1.010354 / float(self.RESONANCE_K)
        assert float(row["dtau_r"]) == pytest.approx(-shift, abs=1e-6)

    def test_free_cell_zero_delay_undefined_reflections(self, capsys):
        _, out, _ = run_cli(
            capsys, "delay", "--cell", "delta:g=0", "--k-min", "0.5",
            "--k-max", "1.5", "--k-count", "3",
        )
        for row in parse_csv(out):
            assert abs(float(row["tau_t"])) < 1e-9
            assert row["tau_l"] == "" and row["tau_r"] == ""


    @pytest.mark.parametrize("cell, period, n, displaced", [
        ("barrier:V0=-1.5,w=0.5", "1.2", 32, True),
        ("delta:g=5", "1", 64, True),  # deep gap: tau_t from the accumulated phase
        ("delta:g=0", "1", 4, True),  # free cell: reflections undefined
        ("piecewise:0.4:1.2,0.3:-2.0,0.5:0.8", "1.5", 1, False),
    ])
    def test_rows_equal_the_scalar_loop(self, capsys, cell, period, n, displaced):
        argv = ["delay", "--cell", cell, "--period", period, "--N", str(n), "--k-min", "0.3",
                "--k-max", "4.0", "--k-count", "23", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv, *(["--displaced"] if displaced else []))
        assert code == 0
        rows = json.loads(out)["rows"]
        k_grid = [row.pop("k") for row in rows]
        # a step of 1e-5: at 1e-4 the stencil's truncation error reaches 7e-5
        # relative next to the N = 64 comb's in-band resonances (k = 2.318)
        expected = reference_delay_rows(parse_cell_spec(cell), float(period), n, k_grid,
                                        1e-5, displaced)
        assert_rows_near(rows, expected, dict.fromkeys(expected[0], DELAY_ORACLE_TOL))

    # deep in the comb's gap t^(1000) is below the floor on 24 of the 41 k,
    # while l and r are defined on every row
    MIXED = ("delay", "--cell", "delta:g=5", "--period", "1", "--N", "1000",
             "--k-min", "2.5", "--k-max", "4.5", "--k-count", "41", "--displaced")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_undefined_delays_keep_their_cells_empty(self, capsys, fmt):
        code, out, err = run_cli(capsys, *self.MIXED, "--format", fmt)
        assert code == 0 and err == ""
        k_grid = np.linspace(2.5, 4.5, 41)
        base, moved = sc.delay_scan(sc.DeltaSpike(5.0), 1.0, 1000, k_grid,
                                    displacements=(0.0, 1.0))
        assert [taus.count(None) for taus in (*base, *moved)] == [24, 0, 0, 24, 0, 0]
        expected = {f"tau_{x}": taus for x, taus in zip("tlr", base)}
        expected.update({f"tau_{x}_displaced": taus for x, taus in zip("tlr", moved)})
        expected.update({f"dtau_{x}": [None if a is None or b is None else b - a
                                       for a, b in zip(*pair)]
                         for x, *pair in zip("tlr", base, moved)})
        rows = json.loads(out)["rows"] if fmt == "json" else parse_csv(out)
        assert len(rows) == 41
        for key, column in expected.items():
            cells = [row[key] for row in rows]
            if fmt == "json":
                assert cells == column, key
            else:
                assert [c == "" for c in cells] == [v is None for v in column], key
                assert [float(c) for c in cells if c] == [v for v in column if v is not None]

    def test_displaced_scan_builds_each_cell_once(self, capsys, monkeypatch):
        calls = count_cell_smatrix(monkeypatch)
        code, _, _ = run_cli(
            capsys, "delay", "--cell", "barrier:V0=-1.5,w=0.5", "--period", "1.2",
            "--N", "32", "--k-min", "0.5", "--k-max", "2.0", "--k-count", "7", "--displaced",
        )
        assert code == 0
        assert len(calls) == 7  # one per k, shared by both tables

    @pytest.mark.parametrize("grid", [
        ("--k-min", "100", "--k-max", "101", "--k-count", "3"),
        ("--k-min", "1e5", "--k-max", "1.0001e5", "--k-count", "3"),
    ])
    def test_large_k_delays_match_the_closed_form(self, capsys, grid):
        # grids where rounding breaks a 5-point stencil; a single delta's
        # three delays are all g/(k (k^2 + g^2))
        code, out, err = run_cli(capsys, "delay", "--cell", "delta:g=1", *grid)
        assert code == 0 and err == ""
        for row in parse_csv(out):
            k = float(row["k"])
            for key in ("tau_t", "tau_l", "tau_r"):
                assert float(row[key]) == pytest.approx(1.0 / (k * (k * k + 1.0)), rel=1e-12)


class TestPacketCommand:
    def test_midgap_average_vanishes(self, capsys):
        code, out, _ = run_cli(
            capsys, "packet", "--cell", "delta:g=5", "--period", "1",
            "--k0", "1.0", "--sigma", "0.02", "--N-max", "32",
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[-1]["averaged_T"]) < 1e-6

    def test_free_cell_average_is_one(self, capsys):
        _, out, _ = run_cli(
            capsys, "packet", "--cell", "delta:g=0", "--period", "1",
            "--k0", "2.0", "--sigma", "0.05", "--N-max", "3",
        )
        rows = parse_csv(out)
        assert all(row["averaged_T"] == "1" for row in rows)

    def test_midband_average_steadier_than_pointwise(self, capsys):
        _, out, _ = run_cli(
            capsys, "packet", "--cell", "delta:g=1", "--period", "1",
            "--k0", "2.0", "--sigma", "0.02", "--N-max", "48",
        )
        rows = parse_csv(out)[31:]  # N = 32..48
        averaged = [float(row["averaged_T"]) for row in rows]
        pointwise = [float(row["pointwise_T_k0"]) for row in rows]
        spread_avg = max(averaged) - min(averaged)
        spread_point = max(pointwise) - min(pointwise)
        assert spread_point > 0.1
        assert spread_avg < spread_point / 3.0

    @pytest.mark.parametrize("k0, regimes", [
        (4.5, {"band"}), (3.3, {"gap"}), (math.pi, {"band", "edge", "gap"}),
    ], ids=["band", "gap", "edge"])
    def test_averages_equal_one_closed_form_call_per_row(self, capsys, k0, regimes):
        # packet plans the kernel once and hoists the weight; each row must
        # equal a closed-form call and a wavepacket_average of its own
        cell, a, sigma, n_max = sc.DeltaSpike(1.0), 1.0, 0.01, 40
        _, out, _ = run_cli(capsys, "packet", "--cell", "delta:g=1", "--period", "1",
                            "--k0", repr(k0), "--sigma", "0.01", "--N-max", str(n_max),
                            "--format", "json")
        k = np.linspace(k0 - 5.0 * sigma, k0 + 5.0 * sigma, 2001)
        z, rho = sc.chain.chebyshev_input_lanes(k, sc.cells.cell_lanes(cell, k)[0], a)
        # edge: |z| within 1e-8 of 1, where the band's sin(N g)/sin g has g ~ 1e-4
        near = abs(abs(z) - 1.0) <= 1e-8
        hit = {name for name, mask in (("band", (abs(z) < 1.0) & ~near), ("edge", near),
                                       ("gap", (abs(z) > 1.0) & ~near)) if mask.any()}
        assert hit == regimes
        expected = [sc.wavepacket_average(k, sc.chebyshev_closed_form(z, rho, n)[1], k0, sigma)
                    for n in range(1, n_max + 1)]
        # the rows come from the plan's sweep over N, which rounds otherwise
        # than the closed form at one N: worst seen 1.6 eps
        got = [row["averaged_T"] for row in json.loads(out)["rows"]]
        assert len(got) == n_max
        assert max(abs(g - e) for g, e in zip(got, expected)) <= 8 * EPS

    PACKET = ("packet", "--cell", "delta:g=1", "--period", "1", "--sigma", "0.01",
              "--N-max", "7", "--format", "json")

    @pytest.mark.parametrize("k0", ["4.5", repr(math.pi)], ids=["band", "band-edge-gap"])
    def test_computes_on_the_calling_thread(self, capsys, monkeypatch, k0):
        # packet constructs no thread, whichever regimes its window holds
        built = []

        class CountedThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", CountedThread)
        code, out, _ = run_cli(capsys, *self.PACKET, "--k0", k0)
        assert code == 0 and len(json.loads(out)["rows"]) == 7 and built == []

    def test_peak_memory_does_not_grow_with_the_profile(self, capsys):
        # 400 rows x 12 801 wave numbers would be a 41 MB profile
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, "packet", "--cell", "delta:g=1", "--period", "1",
                "--k0", "2", "--sigma", "0.02", "--N-max", "400",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 10e6


@pytest.mark.parametrize("argv, floats", [
    (("delay", "--cell", "barrier:V0=-1.5,w=0.5", "--period", "1.2", "--N", "32",
      "--k-min", "0.5", "--k-max", "2.0", "--k-count", "7", "--displaced"),
     ("k", *(f"{d}tau_{x}{s}" for d, s in (("", ""), ("", "_displaced"), ("d", ""))
             for x in "tlr"))),
    (("hartman", "--cell", "delta:g=5", "--period", "1", "--k0", "2.5", "--N-max", "9"),
     ("tau_t", "T_t")),
    (("packet", "--cell", "delta:g=1", "--period", "1", "--k0", "2", "--sigma", "0.02",
      "--N-max", "9"), ("averaged_T", "pointwise_T_k0")),
], ids=["delay", "hartman", "packet"])
def test_float_columns_reach_the_renderer_as_arrays(argv, floats):
    # every row defined: the runner hands the renderer float64 arrays, not lists
    cfg = cli._resolve(cli.build_parser().parse_args(list(argv)))
    table = cli._RUNNERS[cfg.command](cfg)[1]
    for key in floats:
        column = table.stored[key]
        assert isinstance(column, np.ndarray) and column.dtype == np.float64, key


class TestOutputFormats:
    def test_csv_uses_crlf_and_17_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "cell", "--cell", "delta:g=1", "--k-min", "0.1",
            "--k-max", "0.3", "--k-count", "2",
        )
        assert "\r\n" in out
        row = parse_csv(out)[0]
        assert row["k"] == "0.10000000000000001"

    def test_json_meta_and_rows(self, capsys):
        _, out, _ = run_cli(
            capsys, "cell", "--cell", "delta:g=0", "--k-min", "1",
            "--k-max", "2", "--k-count", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["meta"]["command"] == "cell"
        assert payload["meta"]["version"] == sc.__version__
        keys = {tuple(row.keys()) for row in payload["rows"]}
        assert len(keys) == 1  # identical keys on every row
        # undefined phases serialize as null, never clamped
        assert payload["rows"][0]["alpha_l"] is None

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "bands", "--cell", "delta:g=5", "--period", "1", "--k-min", "0.5",
            "--k-max", "6.0", "--k-count", "64", "--N-max", "16",
        ]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        out_path = tmp_path / "table.csv"
        code = main(args + ["--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        assert out_path.read_bytes().decode("utf-8") == first

    def test_unwritable_out_is_a_config_error(self, capsys, tmp_path):
        path = str(tmp_path / "absent" / "table.csv")
        code, out, err = run_cli(capsys, "cell", "--cell", "delta:g=1", "--k-min", "1",
                                 "--k-max", "2", "--k-count", "2", "--out", path)
        assert (code, out) == (2, "")
        assert err == (f"config error: cannot write output {path!r}: "
                       f"[Errno 2] No such file or directory: {path!r}\n")

    def test_out_file_json(self, capsys, tmp_path):
        out_path = tmp_path / "table.json"
        code = main([
            "cell", "--cell", "delta:g=1", "--k-min", "1", "--k-max", "2",
            "--k-count", "2", "--format", "json", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["rows"]) == 2


# argv lists of every subcommand, mixed with a config error (exit 2), two
# argparse usage errors (SystemExit 2) and a contract violation (exit 3)
MIXED_ARGVS = [
    ["cell", "--cell", "delta:g=1", "--k-min", "0.5", "--k-max", "2", "--k-count", "5"],
    ["chain", "--cell", "delta:g=1", "--period", "1", "--N", "4", "--k-min", "0.5",
     "--k-max", "2", "--k-count", "5", "--format", "json"],
    ["cell", "--cell", "delta:g=1", "--k-min", "2", "--k-max", "1", "--k-count", "5"],
    ["chain", "--cell", "delta:g=5", "--period", "1", "--k0", "1", "--N-max", "40"],
    ["bands", "--cell", "delta:g=1", "--period", "1", "--k-min", "0.5", "--k-max", "4",
     "--k-count", "9", "--N-max", "8"],
    ["hartman", "--cell", "delta:g=1", "--period", "1", "--k-count", "many"],
    ["hartman", "--cell", "delta:g=1", "--period", "1", "--k0", "3.3", "--N-max", "12"],
    ["delay", "--cell", "delta:g=1", "--period", "1", "--N", "3", "--displaced",
     "--k-min", "0.5", "--k-max", "4", "--k-count", "9"],
    VIOLATIONS["chain_per_n"][0],
    ["packet", "--cell", "delta:g=1", "--period", "1", "--k0", "2", "--sigma", "0.05",
     "--N-max", "5", "--format", "json"],
    ["bands", "--bogus"],
    ["cell", "--cell", "delta:g=1", "--k-min", "0.5", "--k-max", "2", "--k-count", "5"],
]


@pytest.fixture
def fresh_parser():
    """main's parser cache emptied before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


class TestParserReuse:
    def test_main_builds_its_parser_once_per_process(self, capsys, monkeypatch, fresh_parser):
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        for argv in MIXED_ARGVS[:3]:
            run_cli(capsys, *argv)
        assert len(calls) == 1

    def test_build_parser_returns_a_new_parser_each_call(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_a_reused_parser_answers_as_fresh_ones(self, capsys, fresh_parser):
        def outcome(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            return (code, *capsys.readouterr())

        reused = [outcome(argv) for argv in MIXED_ARGVS]
        fresh = []
        for argv in MIXED_ARGVS:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh
        usage = ("SystemExit", 2)
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, usage, 0, 0, 3, 0, usage, 0]


class TestUnrepresentableInputs:
    """Valid configs whose numbers leave the double range exit 3 (or 2, for a
    packet window doubles cannot sample) with a one-line diagnostic."""

    GRID = ("--k-min", "0.5", "--k-max", "3", "--k-count", "5")
    TALL = ("--cell", "barrier:V0=1e4,w=5")  # its closed form overflows to NaN
    HUGE_PERIOD = ("--cell", "delta:g=1", "--period", "1e308")
    TINY_K = ("--cell", "delta:g=1e-320", "--period", "1")

    @pytest.mark.parametrize("args, expected", [
        (("cell", *TALL, *GRID),
         "numerical failure: NonFiniteAmplitudeError: amplitude 'l' must be finite, "
         "got (nan+nanj)"),
        (("bands", *TALL, "--period", "6", *GRID, "--N-max", "3"),
         "numerical failure: NonFiniteAmplitudeError: amplitude 'l' must be finite, "
         "got (nan+nanj)"),
        (("hartman", *TALL, "--period", "6", "--k0", "1", "--N-max", "3"),
         "numerical failure: NonFiniteAmplitudeError: amplitude 'l' must be finite, "
         "got (nan+nanj)"),
        (("delay", *TALL, "--period", "6", "--N", "2", *GRID),
         "numerical failure: NonFiniteAmplitudeError: amplitude 'l' must be finite, "
         "got (nan+nanj)"),
        (("packet", *TALL, "--period", "6", "--k0", "1", "--sigma", "0.1", "--N-max", "3"),
         "numerical failure: NonFiniteAmplitudeError: amplitude 'l' must be finite, "
         "got (nan+nanj)"),
        (("chain", "--cell", "delta:g=1", "--period", "1", "--k0", "1e308", "--N-max", "3"),
         "numerical failure: OverflowError: position phase 2 k x is not finite at k=1e+308, "
         "x=2.0"),
        (("chain", *HUGE_PERIOD, "--N", "3", *GRID),
         "numerical failure: OverflowError: alpha_t + k a is not finite at k=2.375, a=1e+308"),
        (("bands", *HUGE_PERIOD, *GRID, "--N-max", "3"),
         "numerical failure: OverflowError: alpha_t + k a is not finite at k=2.375, a=1e+308"),
        (("hartman", *HUGE_PERIOD, "--k0", "3", "--N-max", "3"),
         "numerical failure: OverflowError: alpha_t + k a is not finite at k=3.0, a=1e+308"),
        (("packet", *HUGE_PERIOD, "--k0", "3", "--sigma", "0.1", "--N-max", "3"),
         "numerical failure: OverflowError: alpha_t + k a is not finite at k=2.5, a=1e+308"),
        (("packet", "--cell", "delta:g=1", "--period", "1", "--k0", "2", "--sigma", "1e-300",
          "--N-max", "3"),
         "config error: field 'sigma': the window k0 +- 5 sigma with k0=2.0 and "
         "sigma=1e-300 has no 2001 strictly increasing doubles"),
        (("packet", "--cell", "delta:g=1", "--period", "1", "--k0", "1e300", "--sigma", "1",
          "--N-max", "3"),
         "config error: field 'sigma': the window k0 +- 5 sigma with k0=1e+300 and "
         "sigma=1.0 has no 2001 strictly increasing doubles"),
        (("packet", "--cell", "delta:g=1", "--period", "1", "--k0", "1.79e308",
          "--sigma", "3e307", "--N-max", "3"),  # k0 + 5 sigma overflows
         "config error: field 'sigma': the window k0 +- 5 sigma with k0=1.79e+308 and "
         "sigma=3e+307 has no 2001 strictly increasing doubles"),
        (("chain", *HUGE_PERIOD, "--k0", "3", "--N-max", "3"),
         "numerical failure: OverflowError: position phase 2 k x is not finite at k=3.0, "
         "x = n a with n=2, a=1e+308"),
        (("delay", *HUGE_PERIOD, "--N", "3", *GRID),
         "numerical failure: OverflowError: position phase 2 k x is not finite at k=0.5, "
         "x = n a with n=2, a=1e+308"),
        (("chain", "--cell", "delta:g=1", "--period", "1e307", "--k0", "3", "--N-max", "20"),
         "numerical failure: OverflowError: position phase 2 k x is not finite at k=3.0, "
         "x = n a with n=19, a=1e+307"),
        (("delay", *HUGE_PERIOD, "--N", "1", "--displaced", *GRID),
         "numerical failure: OverflowError: position phase 2 k x is not finite at k=1.125, "
         "x=1e+308"),
        (("cell", "--cell", "barrier:V0=1,w=1e200", "--k-min", "1e200", "--k-max", "1.1e200",
          "--k-count", "2"),  # k w overflows inside the closed form
         "numerical failure: NonFiniteAmplitudeError: amplitude 't' must be finite, "
         "got (nan+nanj)"),
        (("hartman", *TINY_K, "--k0", "1e-306", "--N-max", "1000"),  # d arg t/dk / k = inf
         "numerical failure: OverflowError: traversal time T_t is not finite at N=1"),
        (("delay", *TINY_K, "--N", "3", "--k-min", "1e-306", "--k-max", "2e-306",
          "--k-count", "2"),
         "numerical failure: OverflowError: time delay tau_t is not finite at k=1e-306"),
        (("hartman", "--cell", "piecewise:0.5:245000,0.5:245000,0.5:245000", "--period", "2",
          "--k0", "1", "--N-max", "3"),  # the cell's t underflows to 0, so z = inf
         "numerical failure: UndefinedAmplitudeError: cell transmission amplitude is below floor"),
    ], ids=[*(f"{c}-nan-amplitude" for c in ("cell", "bands", "hartman", "delay", "packet")),
            "chain-huge-k0", *(f"{c}-huge-period" for c in ("chain", "bands", "hartman", "packet")),
            "packet-narrow-sigma", "packet-huge-k0", "packet-overflowed-window",
            "chain-huge-position", "delay-huge-position", "chain-huge-last-position",
            "delay-displaced-huge-position",
            "cell-huge-kw", "hartman-infinite-delay", "delay-infinite-delay",
            "hartman-underflowed-t"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's would add stderr lines
    def test_one_line_diagnostic(self, capsys, args, expected):
        code, out, err = run_cli(capsys, *args)
        assert (code, out, err) == (2 if "config error" in expected else 3, "", expected + "\n")

    def test_last_position_past_the_double_range_runs(self, capsys):
        # x = (N - 1) a = 1e309 overflows, but the phases the recurrence
        # forms, (2 k n) a, stay below 2.1e9
        code, out, err = run_cli(capsys, "chain", "--cell", "delta:g=1e-310", "--period", "1e307",
                                 "--k0", "1e-300", "--N-max", "101")
        assert (code, err) == (0, "")
        assert [row["N"] for row in parse_csv(out)] == [str(n) for n in range(1, 102)]

    @pytest.mark.parametrize("command, target", [("chain", "chain_amplitudes"),
                                                 ("hartman", "_hartman_delays")])
    def test_per_n_table_past_memory_is_a_config_error(self, capsys, monkeypatch, command,
                                                       target):
        # an N_max whose arrays fit in an array's size but not in memory, as
        # the MemoryError of its per-N recurrence, raised without allocating
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, target, out_of_memory)
        code, out, err = run_cli(capsys, command, "--cell", "delta:g=1", "--period", "1",
                                 "--k0", "3.3", "--N-max", "1000")
        assert (code, out, err) == (
            2, "", "config error: field 'n_max': 1000 rows do not fit in memory\n")

    def test_per_k_table_past_memory_stays_a_memory_error(self, monkeypatch):
        # chain's per-k table is sized by k_count, not by an N_max
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_end_amplitudes", out_of_memory)
        with pytest.raises(MemoryError):
            main(["chain", "--cell", "delta:g=1", "--period", "1", "--N", "3", *self.GRID])


class TestCellFloor:
    """One floor rule for the cell's t.  At barrier:V0=245000,w=1, k = 1,
    |t| = 5.6e-307 is below MODULUS_FLOOR, and every command that needs the
    cell's t exits 3 with one message; at V0=106000, |t| = 9.4e-203 is above
    it although |t|^2 underflows to 0, and every command tabulates."""

    BELOW, ABOVE = "barrier:V0=245000,w=1", "barrier:V0=106000,w=1"
    GRID = ("--k-min", "1", "--k-max", "1.001", "--k-count", "2")
    GATED = {
        "bands": ("bands", *GRID, "--N-max", "8"),
        "chain-N": ("chain", "--N", "3", *GRID),
        "chain-N-max": ("chain", "--k0", "1", "--N-max", "4"),
        "hartman": ("hartman", "--k0", "1", "--N-max", "4"),
        "delay-N-3": ("delay", "--N", "3", *GRID),
        "packet": ("packet", "--k0", "1", "--sigma", "0.01", "--N-max", "4"),
    }
    UNGATED = {"cell": ("cell", *GRID), "delay-N-1": ("delay", "--N", "1", *GRID)}

    @pytest.mark.parametrize("name", GATED)
    @pytest.mark.filterwarnings("error")
    def test_below_the_floor_one_message(self, capsys, name):
        code, out, err = run_cli(capsys, *self.GATED[name], "--cell", self.BELOW, "--period", "1")
        assert (code, out, err) == (3, "", "numerical failure: UndefinedAmplitudeError: "
                                           "cell transmission amplitude is below floor\n")

    @staticmethod
    def assert_tabulates(capsys, args, cell):
        code, out, err = run_cli(capsys, *args, "--cell", cell, "--period", "1")
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("name", [*GATED, *UNGATED])
    @pytest.mark.filterwarnings("error")
    def test_above_the_floor_every_command_tabulates(self, capsys, name):
        self.assert_tabulates(capsys, {**self.GATED, **self.UNGATED}[name], self.ABOVE)

    @pytest.mark.parametrize("name", UNGATED)
    @pytest.mark.filterwarnings("error")
    def test_below_the_floor_cell_and_one_cell_delays_tabulate(self, capsys, name):
        self.assert_tabulates(capsys, self.UNGATED[name], self.BELOW)

    @pytest.mark.filterwarnings("error")
    def test_bands_reads_a_gap_where_the_cell_square_underflows(self, capsys):
        code, out, err = run_cli(capsys, *self.GATED["bands"], "--cell", self.ABOVE,
                                 "--period", "1")
        rows = parse_csv(out)
        assert (code, err) == (0, "") and len(rows) == 2
        assert all(row["verdict"] == "Gap" and float(row["T_N_max"]) == 0.0 for row in rows)


def test_package_version_matches_project_metadata():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None and match.group(1) == sc.__version__
