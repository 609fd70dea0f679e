"""The CLI's option contract, pinned literally: the flags of each subcommand,
the JSON meta echo of one run per command, the row value types, and the exit
code and stderr of every single-fault input."""

import csv
import io
import json
import re

import pytest

from scatterchain import cli
import scatterchain as sc
from support import per_cell_csv, run_starts, table_rows


def flag(key):
    return {"n": "--N", "n_max": "--N-max"}.get(key, "--" + key.replace("_", "-"))


# One valid option set per command (chain in both of its modes).
BASE = {
    "cell": ("cell", {"cell": "delta:g=1", "k_min": "0.5", "k_max": "1.5", "k_count": "3"}),
    "chain_k": ("chain", {"cell": "delta:g=1", "period": "1", "n": "4", "k_min": "0.5",
                          "k_max": "1.5", "k_count": "3"}),
    "chain_n": ("chain", {"cell": "delta:g=1", "period": "1", "k0": "1", "n_max": "4"}),
    "bands": ("bands", {"cell": "delta:g=1", "period": "1", "k_min": "0.5", "k_max": "1.5",
                        "k_count": "3", "n_max": "4"}),
    "hartman": ("hartman", {"cell": "delta:g=5", "period": "1", "k0": "1", "n_max": "4"}),
    "delay": ("delay", {"cell": "delta:g=1", "period": "1", "n": "2", "k_min": "0.5",
                        "k_max": "1.5", "k_count": "3", "displaced": "true"}),
    "packet": ("packet", {"cell": "delta:g=1", "period": "1", "k0": "1", "sigma": "0.02",
                          "n_max": "4"}),
}

# (key, value): one value per rule a key's value must obey.  Type errors and
# --format values are refused by argparse when given as flags, so those are
# given by config file only.
BAD = [
    ("cell", "squarewell:V0=1"), ("cell", "barrier:V0=1,w=2"), ("period", "0"),
    ("period", "-1"), ("n", "0"), ("n_max", "0"), ("k_min", "0"), ("k_min", "nan"),
    ("k_max", "0.1"), ("k_count", "1"), ("k0", "0"), ("sigma", "0"), ("sigma", "1"),
    ("tol_edge", "0"), ("fd_step", "0"), ("tol_unitarity", "-1"), ("tol_unitarity", "inf"),
    ("n", "18446744073709551616"), ("n_max", "18446744073709551616"),
]  # fd_step is a retired key: its flag is refused by argparse, its config key is unknown
# Values that one mode alone refuses, given as flags and by config file: packet's
# 32 N_max + 1 samples past memory (2**52: past a 47-bit address space, so
# nothing is allocated) and past an array's size, and the per-N tables of
# chain and hartman past an array's size (2**62 rows), refused before any
# array is allocated.
BAD_FOR = {"packet": [("n_max", "4503599627370496"), ("n_max", "144115188075855872"),
                      ("n_max", "288230376151711744")],
           "chain_n": [("n_max", "4611686018427387904")],
           "hartman": [("n_max", "4611686018427387904")]}
CONFIG_ONLY = [("format", "xml"), ("k_count", "2.5"), ("k0", "abc"), ("displaced", "maybe")]


def argv_for(command, options):
    argv = [command]
    for key, value in options.items():
        argv += [flag(key)] if key == "displaced" else [flag(key), value]
    return argv


def fault_cases():
    """(id, argv, config text or None) for every single-fault input."""
    cases = []
    for mode, (command, base) in BASE.items():
        for key in base:
            options = {k: v for k, v in base.items() if k != key}
            cases.append((f"{mode}/missing/{key}", argv_for(command, options), None))
        for key, value in BAD + CONFIG_ONLY + BAD_FOR.get(mode, []):
            options = {k: v for k, v in base.items() if k != key}
            if (key, value) not in CONFIG_ONLY:
                cases.append((f"{mode}/flag/{key}={value}",
                               argv_for(command, {**options, key: value}), None))
            cases.append((f"{mode}/config/{key}={value}",
                          argv_for(command, options) + ["--config", "run.cfg"],
                          f"{key} = {value}\n"))
    return cases


def run(capsys, argv, config, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the flag: exit 2 after its usage
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# id  exit code  stderr, recorded from the 0.2.0 CLI (the fd_step rows from
# 0.4.0, which retired that key; the cell counts past 2**63, and packet's past
# an array, from 0.5.0; packet's past memory from 0.6.0; the per-N tables of
# chain and hartman past an array from 0.7.0).  Exit 0 rows are
# inputs whose command ignores the faulty key.  For a flag that argparse refuses, stderr is its usage block
# followed by the one line recorded here.
SINGLE_FAULTS = """
cell/missing/cell  2  config error: field 'cell' is required for command 'cell' (set it in the config file or via --cell)
cell/missing/k_min  2  config error: field 'k_min' is required for command 'cell' (set it in the config file or via --k-min)
cell/missing/k_max  2  config error: field 'k_max' is required for command 'cell' (set it in the config file or via --k-max)
cell/missing/k_count  2  config error: field 'k_count' is required for command 'cell' (set it in the config file or via --k-count)
cell/flag/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
cell/config/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
cell/flag/cell=barrier:V0=1,w=2  0
cell/config/cell=barrier:V0=1,w=2  0
cell/flag/period=0  0
cell/config/period=0  0
cell/flag/period=-1  0
cell/config/period=-1  0
cell/flag/n=0  0
cell/config/n=0  0
cell/flag/n_max=0  0
cell/config/n_max=0  0
cell/flag/k_min=0  2  config error: --k-min: field 'k_min' must be > 0, got 0.0
cell/config/k_min=0  2  config error: run.cfg:1: field 'k_min' must be > 0, got 0.0
cell/flag/k_min=nan  2  config error: --k-min: field 'k_min' must be > 0, got nan
cell/config/k_min=nan  2  config error: run.cfg:1: field 'k_min' must be > 0, got nan
cell/flag/k_max=0.1  2  config error: --k-max: field 'k_max' must exceed k_min
cell/config/k_max=0.1  2  config error: run.cfg:1: field 'k_max' must exceed k_min
cell/flag/k_count=1  2  config error: --k-count: field 'k_count' must be >= 2
cell/config/k_count=1  2  config error: run.cfg:1: field 'k_count' must be >= 2
cell/flag/k0=0  0
cell/config/k0=0  0
cell/flag/sigma=0  0
cell/config/sigma=0  0
cell/flag/sigma=1  0
cell/config/sigma=1  0
cell/flag/tol_edge=0  2  config error: --tol-edge: field 'tol_edge' must be > 0, got 0.0
cell/config/tol_edge=0  2  config error: run.cfg:1: field 'tol_edge' must be > 0, got 0.0
cell/flag/fd_step=0  2  scatterchain: error: unrecognized arguments: --fd-step 0
cell/config/fd_step=0  2  config error: run.cfg:1: unknown key 'fd_step'
cell/flag/tol_unitarity=-1  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got -1.0
cell/config/tol_unitarity=-1  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got -1.0
cell/flag/tol_unitarity=inf  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got inf
cell/config/tol_unitarity=inf  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got inf
cell/flag/n=18446744073709551616  0
cell/config/n=18446744073709551616  0
cell/flag/n_max=18446744073709551616  0
cell/config/n_max=18446744073709551616  0
cell/config/format=xml  2  config error: run.cfg:1: format must be 'csv' or 'json', got 'xml'
cell/config/k_count=2.5  2  config error: run.cfg:1: field 'k_count': invalid literal for int() with base 10: '2.5'
cell/config/k0=abc  2  config error: run.cfg:1: field 'k0': could not convert string to float: 'abc'
cell/config/displaced=maybe  2  config error: run.cfg:1: field 'displaced': expected true/false, got 'maybe'
chain_k/missing/cell  2  config error: field 'cell' is required for command 'chain' (set it in the config file or via --cell)
chain_k/missing/period  2  config error: field 'period' is required for command 'chain' (set it in the config file or via --period)
chain_k/missing/n  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_k/missing/k_min  2  config error: field 'k_min' is required for command 'chain' (set it in the config file or via --k-min)
chain_k/missing/k_max  2  config error: field 'k_max' is required for command 'chain' (set it in the config file or via --k-max)
chain_k/missing/k_count  2  config error: field 'k_count' is required for command 'chain' (set it in the config file or via --k-count)
chain_k/flag/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
chain_k/config/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
chain_k/flag/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
chain_k/config/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
chain_k/flag/period=0  2  config error: --period: field 'period' must be > 0, got 0.0
chain_k/config/period=0  2  config error: run.cfg:1: field 'period' must be > 0, got 0.0
chain_k/flag/period=-1  2  config error: --period: field 'period' must be > 0, got -1.0
chain_k/config/period=-1  2  config error: run.cfg:1: field 'period' must be > 0, got -1.0
chain_k/flag/n=0  2  config error: --N: field 'n' must be >= 1, got 0
chain_k/config/n=0  2  config error: run.cfg:1: field 'n' must be >= 1, got 0
chain_k/flag/n_max=0  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_k/config/n_max=0  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_k/flag/k_min=0  2  config error: --k-min: field 'k_min' must be > 0, got 0.0
chain_k/config/k_min=0  2  config error: run.cfg:1: field 'k_min' must be > 0, got 0.0
chain_k/flag/k_min=nan  2  config error: --k-min: field 'k_min' must be > 0, got nan
chain_k/config/k_min=nan  2  config error: run.cfg:1: field 'k_min' must be > 0, got nan
chain_k/flag/k_max=0.1  2  config error: --k-max: field 'k_max' must exceed k_min
chain_k/config/k_max=0.1  2  config error: run.cfg:1: field 'k_max' must exceed k_min
chain_k/flag/k_count=1  2  config error: --k-count: field 'k_count' must be >= 2
chain_k/config/k_count=1  2  config error: run.cfg:1: field 'k_count' must be >= 2
chain_k/flag/k0=0  0
chain_k/config/k0=0  0
chain_k/flag/sigma=0  0
chain_k/config/sigma=0  0
chain_k/flag/sigma=1  0
chain_k/config/sigma=1  0
chain_k/flag/tol_edge=0  2  config error: --tol-edge: field 'tol_edge' must be > 0, got 0.0
chain_k/config/tol_edge=0  2  config error: run.cfg:1: field 'tol_edge' must be > 0, got 0.0
chain_k/flag/fd_step=0  2  scatterchain: error: unrecognized arguments: --fd-step 0
chain_k/config/fd_step=0  2  config error: run.cfg:1: unknown key 'fd_step'
chain_k/flag/tol_unitarity=-1  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got -1.0
chain_k/config/tol_unitarity=-1  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got -1.0
chain_k/flag/tol_unitarity=inf  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got inf
chain_k/config/tol_unitarity=inf  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got inf
chain_k/flag/n=18446744073709551616  2  config error: --N: field 'n' must be < 2**63, got 18446744073709551616
chain_k/config/n=18446744073709551616  2  config error: run.cfg:1: field 'n' must be < 2**63, got 18446744073709551616
chain_k/flag/n_max=18446744073709551616  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_k/config/n_max=18446744073709551616  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_k/config/format=xml  2  config error: run.cfg:1: format must be 'csv' or 'json', got 'xml'
chain_k/config/k_count=2.5  2  config error: run.cfg:1: field 'k_count': invalid literal for int() with base 10: '2.5'
chain_k/config/k0=abc  2  config error: run.cfg:1: field 'k0': could not convert string to float: 'abc'
chain_k/config/displaced=maybe  2  config error: run.cfg:1: field 'displaced': expected true/false, got 'maybe'
chain_n/missing/cell  2  config error: field 'cell' is required for command 'chain' (set it in the config file or via --cell)
chain_n/missing/period  2  config error: field 'period' is required for command 'chain' (set it in the config file or via --period)
chain_n/missing/k0  2  config error: field 'k0' is required for command 'chain' (set it in the config file or via --k0)
chain_n/missing/n_max  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_n/flag/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
chain_n/config/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
chain_n/flag/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
chain_n/config/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
chain_n/flag/period=0  2  config error: --period: field 'period' must be > 0, got 0.0
chain_n/config/period=0  2  config error: run.cfg:1: field 'period' must be > 0, got 0.0
chain_n/flag/period=-1  2  config error: --period: field 'period' must be > 0, got -1.0
chain_n/config/period=-1  2  config error: run.cfg:1: field 'period' must be > 0, got -1.0
chain_n/flag/n=0  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_n/config/n=0  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_n/flag/n_max=0  2  config error: --N-max: field 'n_max' must be >= 1, got 0
chain_n/config/n_max=0  2  config error: run.cfg:1: field 'n_max' must be >= 1, got 0
chain_n/flag/k_min=0  0
chain_n/config/k_min=0  0
chain_n/flag/k_min=nan  0
chain_n/config/k_min=nan  0
chain_n/flag/k_max=0.1  0
chain_n/config/k_max=0.1  0
chain_n/flag/k_count=1  0
chain_n/config/k_count=1  0
chain_n/flag/k0=0  2  config error: --k0: field 'k0' must be > 0, got 0.0
chain_n/config/k0=0  2  config error: run.cfg:1: field 'k0' must be > 0, got 0.0
chain_n/flag/sigma=0  0
chain_n/config/sigma=0  0
chain_n/flag/sigma=1  0
chain_n/config/sigma=1  0
chain_n/flag/tol_edge=0  2  config error: --tol-edge: field 'tol_edge' must be > 0, got 0.0
chain_n/config/tol_edge=0  2  config error: run.cfg:1: field 'tol_edge' must be > 0, got 0.0
chain_n/flag/fd_step=0  2  scatterchain: error: unrecognized arguments: --fd-step 0
chain_n/config/fd_step=0  2  config error: run.cfg:1: unknown key 'fd_step'
chain_n/flag/tol_unitarity=-1  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got -1.0
chain_n/config/tol_unitarity=-1  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got -1.0
chain_n/flag/tol_unitarity=inf  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got inf
chain_n/config/tol_unitarity=inf  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got inf
chain_n/flag/n=18446744073709551616  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_n/config/n=18446744073709551616  2  config error: command 'chain' needs exactly one of 'n' (per-k table) or 'n_max' (per-N table at k0)
chain_n/flag/n_max=18446744073709551616  2  config error: --N-max: field 'n_max' must be < 2**63, got 18446744073709551616
chain_n/config/n_max=18446744073709551616  2  config error: run.cfg:1: field 'n_max' must be < 2**63, got 18446744073709551616
chain_n/flag/n_max=4611686018427387904  2  config error: --N-max: field 'n_max': 4611686018427387904 rows do not fit in memory
chain_n/config/n_max=4611686018427387904  2  config error: run.cfg:1: field 'n_max': 4611686018427387904 rows do not fit in memory
chain_n/config/format=xml  2  config error: run.cfg:1: format must be 'csv' or 'json', got 'xml'
chain_n/config/k_count=2.5  2  config error: run.cfg:1: field 'k_count': invalid literal for int() with base 10: '2.5'
chain_n/config/k0=abc  2  config error: run.cfg:1: field 'k0': could not convert string to float: 'abc'
chain_n/config/displaced=maybe  2  config error: run.cfg:1: field 'displaced': expected true/false, got 'maybe'
bands/missing/cell  2  config error: field 'cell' is required for command 'bands' (set it in the config file or via --cell)
bands/missing/period  2  config error: field 'period' is required for command 'bands' (set it in the config file or via --period)
bands/missing/k_min  2  config error: field 'k_min' is required for command 'bands' (set it in the config file or via --k-min)
bands/missing/k_max  2  config error: field 'k_max' is required for command 'bands' (set it in the config file or via --k-max)
bands/missing/k_count  2  config error: field 'k_count' is required for command 'bands' (set it in the config file or via --k-count)
bands/missing/n_max  2  config error: field 'n_max' is required for command 'bands' (set it in the config file or via --N-max)
bands/flag/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
bands/config/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
bands/flag/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
bands/config/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
bands/flag/period=0  2  config error: --period: field 'period' must be > 0, got 0.0
bands/config/period=0  2  config error: run.cfg:1: field 'period' must be > 0, got 0.0
bands/flag/period=-1  2  config error: --period: field 'period' must be > 0, got -1.0
bands/config/period=-1  2  config error: run.cfg:1: field 'period' must be > 0, got -1.0
bands/flag/n=0  0
bands/config/n=0  0
bands/flag/n_max=0  2  config error: --N-max: field 'n_max' must be >= 1, got 0
bands/config/n_max=0  2  config error: run.cfg:1: field 'n_max' must be >= 1, got 0
bands/flag/k_min=0  2  config error: --k-min: field 'k_min' must be > 0, got 0.0
bands/config/k_min=0  2  config error: run.cfg:1: field 'k_min' must be > 0, got 0.0
bands/flag/k_min=nan  2  config error: --k-min: field 'k_min' must be > 0, got nan
bands/config/k_min=nan  2  config error: run.cfg:1: field 'k_min' must be > 0, got nan
bands/flag/k_max=0.1  2  config error: --k-max: field 'k_max' must exceed k_min
bands/config/k_max=0.1  2  config error: run.cfg:1: field 'k_max' must exceed k_min
bands/flag/k_count=1  2  config error: --k-count: field 'k_count' must be >= 2
bands/config/k_count=1  2  config error: run.cfg:1: field 'k_count' must be >= 2
bands/flag/k0=0  0
bands/config/k0=0  0
bands/flag/sigma=0  0
bands/config/sigma=0  0
bands/flag/sigma=1  0
bands/config/sigma=1  0
bands/flag/tol_edge=0  2  config error: --tol-edge: field 'tol_edge' must be > 0, got 0.0
bands/config/tol_edge=0  2  config error: run.cfg:1: field 'tol_edge' must be > 0, got 0.0
bands/flag/fd_step=0  2  scatterchain: error: unrecognized arguments: --fd-step 0
bands/config/fd_step=0  2  config error: run.cfg:1: unknown key 'fd_step'
bands/flag/tol_unitarity=-1  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got -1.0
bands/config/tol_unitarity=-1  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got -1.0
bands/flag/tol_unitarity=inf  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got inf
bands/config/tol_unitarity=inf  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got inf
bands/flag/n=18446744073709551616  0
bands/config/n=18446744073709551616  0
bands/flag/n_max=18446744073709551616  2  config error: --N-max: field 'n_max' must be < 2**63, got 18446744073709551616
bands/config/n_max=18446744073709551616  2  config error: run.cfg:1: field 'n_max' must be < 2**63, got 18446744073709551616
bands/config/format=xml  2  config error: run.cfg:1: format must be 'csv' or 'json', got 'xml'
bands/config/k_count=2.5  2  config error: run.cfg:1: field 'k_count': invalid literal for int() with base 10: '2.5'
bands/config/k0=abc  2  config error: run.cfg:1: field 'k0': could not convert string to float: 'abc'
bands/config/displaced=maybe  2  config error: run.cfg:1: field 'displaced': expected true/false, got 'maybe'
hartman/missing/cell  2  config error: field 'cell' is required for command 'hartman' (set it in the config file or via --cell)
hartman/missing/period  2  config error: field 'period' is required for command 'hartman' (set it in the config file or via --period)
hartman/missing/k0  2  config error: field 'k0' is required for command 'hartman' (set it in the config file or via --k0)
hartman/missing/n_max  2  config error: field 'n_max' is required for command 'hartman' (set it in the config file or via --N-max)
hartman/flag/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
hartman/config/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
hartman/flag/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
hartman/config/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
hartman/flag/period=0  2  config error: --period: field 'period' must be > 0, got 0.0
hartman/config/period=0  2  config error: run.cfg:1: field 'period' must be > 0, got 0.0
hartman/flag/period=-1  2  config error: --period: field 'period' must be > 0, got -1.0
hartman/config/period=-1  2  config error: run.cfg:1: field 'period' must be > 0, got -1.0
hartman/flag/n=0  0
hartman/config/n=0  0
hartman/flag/n_max=0  2  config error: --N-max: field 'n_max' must be >= 1, got 0
hartman/config/n_max=0  2  config error: run.cfg:1: field 'n_max' must be >= 1, got 0
hartman/flag/k_min=0  0
hartman/config/k_min=0  0
hartman/flag/k_min=nan  0
hartman/config/k_min=nan  0
hartman/flag/k_max=0.1  0
hartman/config/k_max=0.1  0
hartman/flag/k_count=1  0
hartman/config/k_count=1  0
hartman/flag/k0=0  2  config error: --k0: field 'k0' must be > 0, got 0.0
hartman/config/k0=0  2  config error: run.cfg:1: field 'k0' must be > 0, got 0.0
hartman/flag/sigma=0  0
hartman/config/sigma=0  0
hartman/flag/sigma=1  0
hartman/config/sigma=1  0
hartman/flag/tol_edge=0  2  config error: --tol-edge: field 'tol_edge' must be > 0, got 0.0
hartman/config/tol_edge=0  2  config error: run.cfg:1: field 'tol_edge' must be > 0, got 0.0
hartman/flag/fd_step=0  2  scatterchain: error: unrecognized arguments: --fd-step 0
hartman/config/fd_step=0  2  config error: run.cfg:1: unknown key 'fd_step'
hartman/flag/tol_unitarity=-1  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got -1.0
hartman/config/tol_unitarity=-1  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got -1.0
hartman/flag/tol_unitarity=inf  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got inf
hartman/config/tol_unitarity=inf  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got inf
hartman/flag/n=18446744073709551616  0
hartman/config/n=18446744073709551616  0
hartman/flag/n_max=18446744073709551616  2  config error: --N-max: field 'n_max' must be < 2**63, got 18446744073709551616
hartman/config/n_max=18446744073709551616  2  config error: run.cfg:1: field 'n_max' must be < 2**63, got 18446744073709551616
hartman/flag/n_max=4611686018427387904  2  config error: --N-max: field 'n_max': 4611686018427387904 rows do not fit in memory
hartman/config/n_max=4611686018427387904  2  config error: run.cfg:1: field 'n_max': 4611686018427387904 rows do not fit in memory
hartman/config/format=xml  2  config error: run.cfg:1: format must be 'csv' or 'json', got 'xml'
hartman/config/k_count=2.5  2  config error: run.cfg:1: field 'k_count': invalid literal for int() with base 10: '2.5'
hartman/config/k0=abc  2  config error: run.cfg:1: field 'k0': could not convert string to float: 'abc'
hartman/config/displaced=maybe  2  config error: run.cfg:1: field 'displaced': expected true/false, got 'maybe'
delay/missing/cell  2  config error: field 'cell' is required for command 'delay' (set it in the config file or via --cell)
delay/missing/period  2  config error: field 'period' is required for command 'delay' (set it in the config file or via --period)
delay/missing/n  0
delay/missing/k_min  2  config error: field 'k_min' is required for command 'delay' (set it in the config file or via --k-min)
delay/missing/k_max  2  config error: field 'k_max' is required for command 'delay' (set it in the config file or via --k-max)
delay/missing/k_count  2  config error: field 'k_count' is required for command 'delay' (set it in the config file or via --k-count)
delay/missing/displaced  0
delay/flag/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
delay/config/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
delay/flag/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
delay/config/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
delay/flag/period=0  2  config error: --period: field 'period' must be > 0, got 0.0
delay/config/period=0  2  config error: run.cfg:1: field 'period' must be > 0, got 0.0
delay/flag/period=-1  2  config error: --period: field 'period' must be > 0, got -1.0
delay/config/period=-1  2  config error: run.cfg:1: field 'period' must be > 0, got -1.0
delay/flag/n=0  2  config error: --N: field 'n' must be >= 1, got 0
delay/config/n=0  2  config error: run.cfg:1: field 'n' must be >= 1, got 0
delay/flag/n_max=0  0
delay/config/n_max=0  0
delay/flag/k_min=0  2  config error: --k-min: field 'k_min' must be > 0, got 0.0
delay/config/k_min=0  2  config error: run.cfg:1: field 'k_min' must be > 0, got 0.0
delay/flag/k_min=nan  2  config error: --k-min: field 'k_min' must be > 0, got nan
delay/config/k_min=nan  2  config error: run.cfg:1: field 'k_min' must be > 0, got nan
delay/flag/k_max=0.1  2  config error: --k-max: field 'k_max' must exceed k_min
delay/config/k_max=0.1  2  config error: run.cfg:1: field 'k_max' must exceed k_min
delay/flag/k_count=1  2  config error: --k-count: field 'k_count' must be >= 2
delay/config/k_count=1  2  config error: run.cfg:1: field 'k_count' must be >= 2
delay/flag/k0=0  0
delay/config/k0=0  0
delay/flag/sigma=0  0
delay/config/sigma=0  0
delay/flag/sigma=1  0
delay/config/sigma=1  0
delay/flag/tol_edge=0  2  config error: --tol-edge: field 'tol_edge' must be > 0, got 0.0
delay/config/tol_edge=0  2  config error: run.cfg:1: field 'tol_edge' must be > 0, got 0.0
delay/flag/fd_step=0  2  scatterchain: error: unrecognized arguments: --fd-step 0
delay/config/fd_step=0  2  config error: run.cfg:1: unknown key 'fd_step'
delay/flag/tol_unitarity=-1  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got -1.0
delay/config/tol_unitarity=-1  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got -1.0
delay/flag/tol_unitarity=inf  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got inf
delay/config/tol_unitarity=inf  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got inf
delay/flag/n=18446744073709551616  2  config error: --N: field 'n' must be < 2**63, got 18446744073709551616
delay/config/n=18446744073709551616  2  config error: run.cfg:1: field 'n' must be < 2**63, got 18446744073709551616
delay/flag/n_max=18446744073709551616  0
delay/config/n_max=18446744073709551616  0
delay/config/format=xml  2  config error: run.cfg:1: format must be 'csv' or 'json', got 'xml'
delay/config/k_count=2.5  2  config error: run.cfg:1: field 'k_count': invalid literal for int() with base 10: '2.5'
delay/config/k0=abc  2  config error: run.cfg:1: field 'k0': could not convert string to float: 'abc'
delay/config/displaced=maybe  2  config error: run.cfg:1: field 'displaced': expected true/false, got 'maybe'
packet/missing/cell  2  config error: field 'cell' is required for command 'packet' (set it in the config file or via --cell)
packet/missing/period  2  config error: field 'period' is required for command 'packet' (set it in the config file or via --period)
packet/missing/k0  2  config error: field 'k0' is required for command 'packet' (set it in the config file or via --k0)
packet/missing/sigma  2  config error: field 'sigma' is required for command 'packet' (set it in the config file or via --sigma)
packet/missing/n_max  2  config error: field 'n_max' is required for command 'packet' (set it in the config file or via --N-max)
packet/flag/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
packet/config/cell=squarewell:V0=1  2  config error: field 'cell': unknown kind 'squarewell' (expected delta, barrier or piecewise)
packet/flag/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
packet/config/cell=barrier:V0=1,w=2  2  config error: field 'period': period 1.0 smaller than cell support 2.0: cells would overlap
packet/flag/period=0  2  config error: --period: field 'period' must be > 0, got 0.0
packet/config/period=0  2  config error: run.cfg:1: field 'period' must be > 0, got 0.0
packet/flag/period=-1  2  config error: --period: field 'period' must be > 0, got -1.0
packet/config/period=-1  2  config error: run.cfg:1: field 'period' must be > 0, got -1.0
packet/flag/n=0  0
packet/config/n=0  0
packet/flag/n_max=0  2  config error: --N-max: field 'n_max' must be >= 1, got 0
packet/config/n_max=0  2  config error: run.cfg:1: field 'n_max' must be >= 1, got 0
packet/flag/k_min=0  0
packet/config/k_min=0  0
packet/flag/k_min=nan  0
packet/config/k_min=nan  0
packet/flag/k_max=0.1  0
packet/config/k_max=0.1  0
packet/flag/k_count=1  0
packet/config/k_count=1  0
packet/flag/k0=0  2  config error: --k0: field 'k0' must be > 0, got 0.0
packet/config/k0=0  2  config error: run.cfg:1: field 'k0' must be > 0, got 0.0
packet/flag/sigma=0  2  config error: --sigma: field 'sigma' must be > 0, got 0.0
packet/config/sigma=0  2  config error: run.cfg:1: field 'sigma' must be > 0, got 0.0
packet/flag/sigma=1  2  config error: --sigma: packet window extends to k <= 0
packet/config/sigma=1  2  config error: run.cfg:1: packet window extends to k <= 0
packet/flag/tol_edge=0  2  config error: --tol-edge: field 'tol_edge' must be > 0, got 0.0
packet/config/tol_edge=0  2  config error: run.cfg:1: field 'tol_edge' must be > 0, got 0.0
packet/flag/fd_step=0  2  scatterchain: error: unrecognized arguments: --fd-step 0
packet/config/fd_step=0  2  config error: run.cfg:1: unknown key 'fd_step'
packet/flag/tol_unitarity=-1  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got -1.0
packet/config/tol_unitarity=-1  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got -1.0
packet/flag/tol_unitarity=inf  2  config error: --tol-unitarity: field 'tol_unitarity' must be > 0, got inf
packet/config/tol_unitarity=inf  2  config error: run.cfg:1: field 'tol_unitarity' must be > 0, got inf
packet/flag/n=18446744073709551616  0
packet/config/n=18446744073709551616  0
packet/flag/n_max=18446744073709551616  2  config error: --N-max: field 'n_max' must be < 2**63, got 18446744073709551616
packet/config/n_max=18446744073709551616  2  config error: run.cfg:1: field 'n_max' must be < 2**63, got 18446744073709551616
packet/flag/n_max=4503599627370496  2  config error: field 'n_max': 144115188075855873 k samples, 32 N_max + 1, do not fit in memory
packet/config/n_max=4503599627370496  2  config error: field 'n_max': 144115188075855873 k samples, 32 N_max + 1, do not fit in memory
packet/flag/n_max=144115188075855872  2  config error: field 'n_max': 4611686018427387905 k samples, 32 N_max + 1, do not fit in an array
packet/config/n_max=144115188075855872  2  config error: field 'n_max': 4611686018427387905 k samples, 32 N_max + 1, do not fit in an array
packet/flag/n_max=288230376151711744  2  config error: field 'n_max': 9223372036854775809 k samples, 32 N_max + 1, do not fit in an array
packet/config/n_max=288230376151711744  2  config error: field 'n_max': 9223372036854775809 k samples, 32 N_max + 1, do not fit in an array
packet/config/format=xml  2  config error: run.cfg:1: format must be 'csv' or 'json', got 'xml'
packet/config/k_count=2.5  2  config error: run.cfg:1: field 'k_count': invalid literal for int() with base 10: '2.5'
packet/config/k0=abc  2  config error: run.cfg:1: field 'k0': could not convert string to float: 'abc'
packet/config/displaced=maybe  2  config error: run.cfg:1: field 'displaced': expected true/false, got 'maybe'
"""


def expected_faults():
    rows = {}
    for line in SINGLE_FAULTS.strip().splitlines():
        case_id, code, *message = line.split("  ")
        rows[case_id] = (int(code), "".join(message) + "\n" if message else "")
    return rows


def test_fault_table_covers_every_case():
    assert sorted(expected_faults()) == sorted(case_id for case_id, _, _ in fault_cases())


@pytest.mark.parametrize("case_id, argv, config",
                         [pytest.param(*case, id=case[0]) for case in fault_cases()])
def test_single_fault(capsys, tmp_path, monkeypatch, case_id, argv, config):
    code, _, err = run(capsys, argv, config, tmp_path, monkeypatch)
    err = re.sub(r"\Ausage: .*\n(?: .*\n)*", "", err)  # argparse's usage block
    assert (code, err) == expected_faults()[case_id]


@pytest.mark.parametrize("mode", ["cell", "chain_k", "bands", "delay"])
@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("by_config", [False, True])
def test_non_finite_k_max_is_a_config_error(capsys, tmp_path, monkeypatch, mode, value,
                                            by_config):
    command, base = BASE[mode]
    if by_config:
        options = {k: v for k, v in base.items() if k != "k_max"}
        argv, config = argv_for(command, options) + ["--config", "run.cfg"], f"k_max = {value}\n"
        where = "run.cfg:1"
    else:
        argv, config, where = argv_for(command, {**base, "k_max": value}), None, "--k-max"
    code, out, err = run(capsys, argv, config, tmp_path, monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"config error: {where}: field 'k_max' must be finite, got {value}\n"


FLAGS = ["--cell", "--config", "--format", "--k-count", "--k-max", "--k-min",
         "--k0", "--N", "--N-max", "--out", "--period", "--sigma", "--tol-edge",
         "--tol-unitarity", "-h", "--help"]


def test_flags_of_each_subcommand():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a.choices, dict)]
    flags = {name: sorted(s for a in p._actions for s in a.option_strings)
             for name, p in sub.choices.items()}
    assert sorted(flags) == ["bands", "cell", "chain", "delay", "hartman", "packet"]
    for name, found in flags.items():
        assert found == sorted(FLAGS + (["--displaced"] if name == "delay" else []))


def golden_config(**overrides):
    config = {"cell": "delta:g=1", "period": 1.0, "n": None, "n_max": None, "k_min": 0.5,
              "k_max": 1.5, "k_count": 3, "k0": None, "sigma": None, "format": "json",
              "tol_edge": 1e-09, "tol_unitarity": 1e-10,
              "displaced": False}
    assert set(overrides) <= set(config)
    return {**config, **overrides}


GOLDEN_META = {
    "cell": golden_config(period=None),
    "chain_k": golden_config(n=4),
    "bands": golden_config(n_max=4),
    "hartman": golden_config(cell="delta:g=5", n_max=4, k_min=None, k_max=None,
                             k_count=None, k0=1.0),
    "delay": golden_config(n=2, displaced=True),
    "packet": golden_config(n_max=4, k_min=None, k_max=None, k_count=None, k0=1.0,
                            sigma=0.02),
}


@pytest.mark.parametrize("mode", GOLDEN_META)
def test_json_meta_echo(capsys, tmp_path, monkeypatch, mode):
    command, base = BASE[mode]
    code, out, _ = run(capsys, argv_for(command, base) + ["--format", "json"], None,
                       tmp_path, monkeypatch)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert list(meta) == ["command", "version", "config"]
    assert (meta["command"], meta["version"]) == (command, sc.__version__)
    assert list(meta["config"].items()) == list(GOLDEN_META[mode].items())


def test_unread_key_is_neither_checked_nor_echoed(capsys, tmp_path, monkeypatch):
    command, base = BASE["hartman"]
    code, out, _ = run(capsys, argv_for(command, base) + ["--sigma", "-1", "--format", "json"],
                       None, tmp_path, monkeypatch)
    assert code == 0
    assert json.loads(out)["meta"]["config"]["sigma"] is None


def test_delay_of_one_cell_ignores_period(capsys, tmp_path, monkeypatch):
    options = {k: v for k, v in BASE["delay"][1].items() if k not in ("period", "displaced")}
    argv = argv_for("delay", {**options, "n": "1"}) + ["--format", "json"]
    _, without, _ = run(capsys, argv, None, tmp_path, monkeypatch)
    code, given, _ = run(capsys, argv + ["--period", "0.7"], None, tmp_path, monkeypatch)
    assert (code, given) == (0, without)
    assert json.loads(given)["meta"]["config"]["period"] is None


ROW_RUNS = {
    "cell": BASE["cell"],
    "chain_k": BASE["chain_k"],
    "chain_n": BASE["chain_n"],
    "bands": BASE["bands"],
    "hartman_gap": BASE["hartman"],
    "hartman_band": ("hartman", {**BASE["hartman"][1], "k0": "2.5"}),
    "delay": BASE["delay"],
    "delay_free": ("delay", {"cell": "delta:g=0", "k_min": "0.5", "k_max": "1.5",
                             "k_count": "3"}),
    "packet": BASE["packet"],
}


def run_table(run_id):
    """The meta and the column table that the runner of ROW_RUNS[run_id] returns."""
    command, options = ROW_RUNS[run_id]
    cfg = cli._resolve(cli.build_parser().parse_args(argv_for(command, options)))
    return cli._RUNNERS[command](cfg)


@pytest.mark.parametrize("run_id", ROW_RUNS)
def test_row_values_are_plain_python(run_id):
    meta, table = run_table(run_id)
    rows = table_rows(table)
    assert rows
    kinds = {type(value) for row in rows for value in row.values()}
    assert kinds <= {type(None), int, float, str}
    # the row template spells the runner's real rows as the per-cell writers do
    assert cli._render(meta, table, "csv") == per_cell_csv(rows)
    expected = json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    assert cli._render(meta, table, "json") == expected


@pytest.mark.parametrize("run_id", ROW_RUNS)
def test_table_length_is_the_rendered_row_count(run_id):
    # the benchmark's tracer counts a runner's rows as len(result[1]), the
    # length of the table it returns
    meta, table = run_table(run_id)
    csv_rows = list(csv.reader(io.StringIO(cli._render(meta, table, "csv"), newline="")))
    assert len(table) == len(csv_rows) - 1
    assert len(table) == len(json.loads(cli._render(meta, table, "json"))["rows"])


@pytest.mark.parametrize("run_id, repeated", [
    ("chain_n", {"k"}), ("chain_k", {"N"}), ("hartman_gap", {"warning"}),
    ("hartman_band", {"warning"}),
])
def test_repeated_columns_are_spelled_once(run_id, repeated):
    # k0 on every row of the per-N chain table, N on every row of the per-k
    # one, and hartman's one warning: each column's value is spelled once
    starts = run_starts(run_table(run_id)[1])
    assert {key for key, column_starts in starts.items() if column_starts == [0]} == repeated
