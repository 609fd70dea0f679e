"""Check that the benchmark's workload commands print the same bytes as at REV.

    python3 tools/same_outputs.py REV    # e.g. HEAD~1 or a base commit

Run from the root of a checkout.  The committed files of REV are exported
(``git archive``) to a temporary directory.  On that tree and on the working
tree, one fresh interpreter each runs every command of
``perfbench/workloads.campaign(workload, seed)`` for the three workloads and
seeds 7, 320, 1 and 2, then every argv list of ``PASSING`` and then every
one of ``FAILING``, by calling ``scatterchain.cli.main(argv)`` in-process
with stdout captured to a file and stderr in memory.  Both sides run the
working tree's campaign and lists, so they run the same argv lists.  Every
campaign command exits 0 with an empty stderr, every delay it tabulates is
defined and every hartman k0 lies in a gap; ``PASSING`` holds commands that
exit 0 on the paths the campaigns miss: a delay table with undefined cells
(empty in CSV, null in JSON), also past the row count from which CSV is
built in blocks, a hartman scan at an in-band k0, whose warning column is
filled, the per-N chain table and the hartman scan on a well and on a
piecewise cell, which the campaigns run on delta combs alone, and a bands
table holding zeros, and values below 1e-250 that the block speller leaves
to Python, and the per-N chain table deep in a gap, whose alpha_t is
undefined on its last rows, so that a masked run reaches the block path.
``FAILING``
holds commands that exit 2 (a config error) or 3 (a contract violation), so
that their exit codes and messages are compared too.

The exit code and the sha256 of the stdout and of the stderr of each
command are compared.  Every command that differs is listed; for one whose
stdout differs, the tables are parsed (``perfbench/checks.parse_rows``) and
each column's worst relative change |new - old| / max(|old|, |new|) and
worst absolute change |new - old| over its cells that are numbers on both
sides are printed, with the count of its other cells that differ
(strings, or a number against an empty cell); where either side exited
non-zero, its partial stdout is not parsed.  The exit
status is 1 if an exit code differs, or if a stdout or a stderr differs
while the two sides' ``scatterchain.__version__`` are equal: the output
contract is "byte-identical across reruns of the same config and version",
so a version bump is the one point where bytes may change, and the column
changes are then its drift table.  perfbench/ is read, never written.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (7, 320, 1, 2)
WORKLOADS = ("grid_scan", "long_chain", "delay_sweep")

# label and argv of commands that pass on paths no campaign command takes:
# tau_t, tau_t_displaced and dtau_t undefined on 24 of 41 rows in a deep gap
# while tau_l and tau_r are defined on all, and the same on 2000 rows, past
# the row count from which CSV is built in blocks (cli._render), an
# in-band hartman k0, the per-N chain table on a well in a gap (z = -1.011,
# where (t^(N))^2 underflows to 0 from N = 2316) and on a piecewise cell in
# a band, hartman on the same well and k0 and on that piecewise cell in its
# second gap (k0 = 3.3, z = -1.009, as bands reports), and bands deep in the
# gaps of a strong comb, whose T_N_max holds zeros and values below 1e-250
# (down to 3.5e-323) that the block speller leaves to Python, and the per-N
# chain table deep in a gap, alpha_t undefined (t below MODULUS_FLOOR) on
# its last ~90 rows, in CSV (the masked block path) and JSON
_MIXED_DELAY = ("delay", "--cell", "delta:g=5", "--period", "1", "--N", "1000",
                "--k-min", "2.5", "--k-max", "4.5", "--k-count", "41", "--displaced")
_LONG_MIXED_DELAY = tuple("2000" if arg == "41" else arg for arg in _MIXED_DELAY)
_DEEP_GAP_CHAIN = ("chain", "--cell", "delta:g=5", "--period", "1", "--k0", "1",
                   "--N-max", "400")
PASSING = (
    ("undefined delays, csv", _MIXED_DELAY),
    ("undefined delays, json", (*_MIXED_DELAY, "--format", "json")),
    ("undefined delays on 2000 rows, csv", _LONG_MIXED_DELAY),
    ("in-band hartman", ("hartman", "--cell", "delta:g=5", "--period", "1", "--k0", "2.5",
                         "--N-max", "50")),
    ("per-N chain on a well, csv", ("chain", "--cell", "barrier:V0=-1.5,w=0.5", "--period",
                                    "1", "--k0", "2.9", "--N-max", "3000")),
    ("per-N chain on a piecewise cell, json", (
        "chain", "--cell", "piecewise:0.3:2,0.2:-1,0.25:0.5", "--period", "1", "--k0", "2.0",
        "--N-max", "2000", "--format", "json")),
    ("hartman on a well, csv", ("hartman", "--cell", "barrier:V0=-1.5,w=0.5", "--period", "1",
                                "--k0", "2.9", "--N-max", "3000")),
    ("hartman on a piecewise cell, json", (
        "hartman", "--cell", "piecewise:0.3:2,0.2:-1,0.25:0.5", "--period", "1", "--k0", "3.3",
        "--N-max", "2000", "--format", "json")),
    ("bands with subnormal T_N_max, csv", ("bands", "--cell", "delta:g=40", "--period", "1",
                                           "--k-min", "0.05", "--k-max", "12", "--k-count",
                                           "3000", "--N-max", "400")),
    ("per-N chain with undefined alpha_t, csv", _DEEP_GAP_CHAIN),
    ("per-N chain with undefined alpha_t, json", (*_DEEP_GAP_CHAIN, "--format", "json")),
)

# label and argv of commands that fail: exit 2, then exit 3 twice (a
# non-finite cell amplitude, and the unitarity defect of a long chain next
# to a band edge, first past 1e-10 at N = 1228)
FAILING = (
    ("config error", ("delay", "--cell", "delta:g=1", "--period", "1", "--N", "3",
                      "--k-min", "0", "--k-max", "1", "--k-count", "3")),
    ("non-finite amplitude", ("cell", "--cell", "barrier:V0=1e6,w=10", "--k-min", "1",
                              "--k-max", "2", "--k-count", "2")),
    ("unitarity violation", ("chain", "--cell", "delta:g=1", "--period", "1",
                             "--k0", "3.14158265", "--N-max", "10000")),
)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from checks import parse_rows  # noqa: E402


def side_outputs(src: str, into: str) -> dict:
    """Run every campaign command against the package under src, in this
    interpreter, writing the stdout of the i-th to into/i; return the
    package's version and, per command, the exit code and the sha256 of its
    stdout and of its stderr."""
    sys.path.insert(0, src)
    import scatterchain
    from scatterchain import cli
    import workloads

    if not os.path.abspath(scatterchain.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported {scatterchain.__file__}, not the package under {src}")
    commands = [(f"{workload} seed {seed} #{index}", command.argv)
                for workload in WORKLOADS for seed in SEEDS
                for index, command in enumerate(workloads.campaign(workload, seed))]
    outputs = []
    commands += [(f"passing: {label}", argv) for label, argv in PASSING]
    commands += [(f"failing: {label}", argv) for label, argv in FAILING]
    for label, argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        text = out.getvalue()
        with open(os.path.join(into, str(len(outputs))), "w", encoding="utf-8") as fh:
            fh.write(text)
        outputs.append({"command": label, "argv": list(argv), "code": code,
                        "sha256": _digest(text), "stderr_sha256": _digest(err.getvalue())})
    return {"version": scatterchain.__version__, "outputs": outputs}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_side(src: str, into: str) -> dict:
    """side_outputs in a fresh interpreter, so each side imports its own package."""
    argv = [sys.executable, "-B", os.path.abspath(__file__), "--side", src, into]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"the run on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def export(rev: str, into: str) -> None:
    """Write the committed files of rev under into."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _change(old, new) -> tuple[float, float]:
    """(|new - old| / max(|old|, |new|), |new - old|) of two numbers: zeros
    when equal, a relative 1 for a zero against a nonzero, and infs where
    either is not finite and they differ."""
    if old == new or (old != old and new != new):  # equal, or both NaN
        return 0.0, 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf, math.inf
    diff = abs(new - old)
    return diff / max(abs(old), abs(new)), diff


def column_changes(old_text: str, new_text: str, fmt: str) -> str:
    """Each column's worst relative and worst absolute change between two
    renderings of a table over the cells that are numbers on both sides, and
    how many other cells differ (a string, or a number against an empty
    cell)."""
    old, new = parse_rows(old_text, fmt), parse_rows(new_text, fmt)
    if len(old) != len(new) or (old and old[0].keys() != new[0].keys()):
        return f"table shape {len(old)} -> {len(new)} rows"
    parts = []
    for key in old[0] if old else ():
        numbers, others = [], 0
        for a, b in ((row[key], changed[key]) for row, changed in zip(old, new)):
            if _number(a) and _number(b):
                numbers.append(_change(a, b))
            else:
                others += a != b
        if numbers:
            relative, absolute = map(max, zip(*numbers))
            text = f"{key} {relative:.1e} (abs {absolute:.1e})"
        else:
            text = key
        parts.append(f"{text} +{others} cells" if others else text)
    return ", ".join(parts)


def compare(base: dict, change: dict, base_dir: str, change_dir: str) -> list[str]:
    """One line per command whose exit code, stdout or stderr differs, a
    stdout change followed by an indented line of its column changes."""
    lines = []
    for i, (old, new) in enumerate(zip(base["outputs"], change["outputs"], strict=True)):
        what = [f"exit {old['code']} -> {new['code']}"] if old["code"] != new["code"] else []
        if old["sha256"] != new["sha256"]:
            what.append(f"stdout {old['sha256'][:12]} -> {new['sha256'][:12]}")
        if old["stderr_sha256"] != new["stderr_sha256"]:
            what.append(f"stderr {old['stderr_sha256'][:12]} -> {new['stderr_sha256'][:12]}")
        if not what:
            continue
        lines.append(f"{new['command']}: {', '.join(what)}: {' '.join(new['argv'])}")
        if old["sha256"] == new["sha256"]:
            continue
        if old["code"] != 0 or new["code"] != 0:
            lines.append("    tables not parsed: a side exited non-zero")
        else:
            argv = new["argv"]
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
            texts = []
            for side in (base_dir, change_dir):
                with open(os.path.join(side, str(i)), encoding="utf-8") as fh:
                    texts.append(fh.read())
            lines.append(f"    {column_changes(*texts, fmt)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare against")
    parser.add_argument("--side", nargs=2, help=argparse.SUPPRESS)  # internal: one side's run
    args = parser.parse_args(argv)
    if args.side:
        json.dump(side_outputs(*args.side), sys.stdout)
        return 0
    if not args.rev:
        parser.error("REV is required")
    with tempfile.TemporaryDirectory() as tmp:
        tree, base_dir, change_dir = (os.path.join(tmp, name) for name in ("tree", "base", "change"))
        for path in (tree, base_dir, change_dir):
            os.mkdir(path)
        export(args.rev, tree)
        base = run_side(os.path.join(tree, "src"), base_dir)
        change = run_side(os.path.join(ROOT, "src"), change_dir)
        for line in compare(base, change, base_dir, change_dir):
            print(line)
    pairs = list(zip(base["outputs"], change["outputs"]))
    same = sum(old == new for old, new in pairs)
    codes = sum(old["code"] == new["code"] for old, new in pairs)
    print(f"{same} of {len(pairs)} commands identical to {args.rev} "
          f"(stdout and stderr sha256 and exit code, seeds {', '.join(map(str, SEEDS))}, "
          f"{len(PASSING)} more passing and {len(FAILING)} failing commands)")
    if base["version"] != change["version"]:
        print(f"scatterchain {base['version']} at {args.rev}, {change['version']} here: "
              "outputs are only promised identical within one version; "
              f"{codes} of {len(pairs)} exit codes equal")
        return 0 if codes == len(pairs) else 1
    return 0 if same == len(pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
