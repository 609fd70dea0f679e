"""Check that the benchmark's workload commands print the same bytes as at REV.

    python3 tools/same_outputs.py REV    # e.g. HEAD~1 or a base commit

Run from the root of a checkout.  The committed files of REV are exported
(``git archive``) to a temporary directory.  On that tree and on the working
tree, one fresh interpreter each runs every command of
``perfbench/workloads.campaign(workload, seed)`` for the three workloads and
seeds 7, 320, 1 and 2, by calling ``scatterchain.cli.main(argv)`` in-process
with stdout captured.  Both sides run the working tree's campaign, so they
run the same argv lists.

The sha256 of each command's stdout and its exit code are compared.  Every
command that differs is listed, and the exit status is 1.  When the two
sides' ``scatterchain.__version__`` differ, the output contract ("byte-
identical across reruns of the same config and version") does not apply:
that is reported, and the exit status is 0.  perfbench/ is read, never
written.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (7, 320, 1, 2)
WORKLOADS = ("grid_scan", "long_chain", "delay_sweep")


def side_outputs(src: str) -> dict:
    """Run every campaign command against the package under src, in this
    interpreter; return its version and, per command, the exit code and the
    sha256 of its stdout."""
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import scatterchain
    from scatterchain import cli
    import workloads

    if not os.path.abspath(scatterchain.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported {scatterchain.__file__}, not the package under {src}")
    outputs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for index, command in enumerate(workloads.campaign(workload, seed)):
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(list(command.argv))
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                outputs.append({"command": f"{workload} seed {seed} #{index}",
                                "argv": list(command.argv), "code": code, "sha256": digest})
    return {"version": scatterchain.__version__, "outputs": outputs}


def run_side(src: str) -> dict:
    """side_outputs in a fresh interpreter, so each side imports its own package."""
    argv = [sys.executable, "-B", os.path.abspath(__file__), "--side", src]
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


def compare(base: dict, change: dict) -> list[str]:
    """One line per command whose exit code or stdout differs."""
    lines = []
    for old, new in zip(base["outputs"], change["outputs"], strict=True):
        what = [f"exit {old['code']} -> {new['code']}"] if old["code"] != new["code"] else []
        if old["sha256"] != new["sha256"]:
            what.append(f"stdout {old['sha256'][:12]} -> {new['sha256'][:12]}")
        if what:
            lines.append(f"{new['command']}: {', '.join(what)}: {' '.join(new['argv'])}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare against")
    parser.add_argument("--side", help=argparse.SUPPRESS)  # internal: one side's run
    args = parser.parse_args(argv)
    if args.side:
        json.dump(side_outputs(args.side), sys.stdout)
        return 0
    if not args.rev:
        parser.error("REV is required")
    with tempfile.TemporaryDirectory() as tree:
        export(args.rev, tree)
        base = run_side(os.path.join(tree, "src"))
    change = run_side(os.path.join(ROOT, "src"))
    if base["version"] != change["version"]:
        print(f"scatterchain {base['version']} at {args.rev}, {change['version']} here: "
              "outputs are only promised identical within one version; not compared")
        return 0
    differ = compare(base, change)
    for line in differ:
        print(line)
    total = len(change["outputs"])
    print(f"{total - len(differ)} of {total} commands identical to {args.rev} "
          f"(stdout sha256 and exit code, seeds {', '.join(map(str, SEEDS))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
