"""Benchmark entry point: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload grid_scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (or pass --workload all to run the three
workloads in turn).  Each run spawns fresh interpreters: set-up probes
(import scatterchain.cli and build the parser, then time the reference
kernel of perfbench/reference.py), half before and half after one campaign
worker (perfbench/campaign.py).  The parent then checks the worker's
outputs against the benchmark's own oracles (perfbench/checks.py), prints
a table of every metric with its unit, writes the full record to
perfbench/results/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import workloads
from reference import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0

# Declared in BENCHMARK.json; printed on the last line with --trace 0.
END_TO_END = {"setup_s": "s", "scan_norm_s": "s", "peak_rss_mb": "MB"}
# Printed in the table only.  setup_wall_s and scan_s are the raw wall times,
# which move with the shared host's speed by more than any useful bound (ref_s
# is the reference kernel's median time that shows that speed); the accuracy
# figures move with the seed, and failed_frac is 0 on correct code, so neither
# can carry a regression bound either.
REPORTED = {"setup_wall_s": "s", "scan_s": "s", "ref_s": "s", "failed_frac": "1",
            "max_oracle_err": "1", "max_unitarity_defect": "1", "max_dual_path_diff": "1"}

# Declared in BENCHMARK.json; printed on the last line with --trace 1.
PER_LAYER = {
    "cli.render_s": "s", "cli.rows_s": "s", "cli.rows_out": "count", "cli.bytes_out": "bytes",
    "cells.smatrix_calls": "count", "cells.smatrix_s": "s",
    "chain.compose_calls": "count", "chain.compose_s": "s",
    "chain.recurrence_calls": "count", "chain.recurrence_steps": "count",
    "chain.recurrence_s": "s", "core.smatrix_built": "count",
    "chain.transmissions_calls": "count", "chain.transmissions_elems": "count",
    "chain.transmissions_s": "s",
    "chain.profile_entries": "count", "chain.profile_bytes": "bytes",
    "chain.profile_s": "s",
    "chain.chebyshev_calls": "count", "chain.chebyshev_s": "s",
    "analysis.phase_curves_calls": "count", "analysis.phase_curves_s": "s",
    "analysis.delays_s": "s", "analysis.hartman_s": "s", "analysis.band_classify_s": "s",
    "analysis.packet_avg_s": "s", "analysis.recurrence_steps_per_row": "steps/row",
    "core.unwrap_calls": "count", "core.unwrap_s": "s",
    "core.defect_calls": "count", "core.defect_s": "s", "core.phases_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "1",
}

# Prints the import-and-parser seconds and, after them, the median of three
# reference-kernel runs in the same interpreter (one more warms it).
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import scatterchain.cli as c; "
    "c.build_parser(); t = time.perf_counter() - t0\n"
    "import statistics, sys; sys.path.insert(0, 'perfbench'); import reference\n"
    "r = [reference.reference_block() for _ in range(4)][1:]\n"
    "print(repr(t), repr(statistics.median(r)))"
)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program's output)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def _spawn(args: list[str], stdin: str | None, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before spawning a child process")
    try:
        proc = subprocess.run(args, input=stdin, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child timed out: {args}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited {proc.returncode}: {args}\n{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(deadline: float, probes: int, cold: bool) -> list[tuple[float, float]]:
    """(import-and-parser seconds, reference seconds) of fresh interpreters;
    a cold first probe is dropped."""
    args = [sys.executable, "-c", SETUP_SNIPPET]
    if cold:
        _spawn(args, None, deadline)
    return [tuple(map(float, _spawn(args, None, deadline).split())) for _ in range(probes)]


def machine_record(seed: int) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def check_outputs(commands, out_dir: str, worker: dict) -> dict:
    """Apply each command's check to its warm-up output and count failures."""
    attempted = sum(worker["runs"])
    failed = 0
    worst = {"max_oracle_err": None, "max_unitarity_defect": None, "max_dual_path_diff": None}
    problems = []
    for i, cmd in enumerate(commands):
        with open(os.path.join(out_dir, f"{i}.out"), encoding="utf-8", newline="") as fh:
            text = fh.read()
        fmt = cmd.argv[cmd.argv.index("--format") + 1]
        result = checks.check_output(cmd.check, cmd.params, cmd.rows, text, fmt)
        if not result.ok:
            failed += worker["runs"][i]
            problems.append(f"command {i} ({cmd.argv[0]}): {result.message}")
        else:
            failed += worker["bad_runs"][i]
            if worker["bad_runs"][i]:
                problems.append(f"command {i} ({cmd.argv[0]}): {worker['errors'][i]}")
        for key, value in (("max_oracle_err", result.oracle_err),
                           ("max_unitarity_defect", result.unitarity_defect),
                           ("max_dual_path_diff", result.dual_path_diff)):
            if value is not None:
                worst[key] = value if worst[key] is None else max(worst[key], value)
    return {"attempted": attempted, "failed": failed, "problems": problems, **worst}


def traced_layers(worker: dict) -> dict[str, float]:
    """Medians of the per-campaign layer times; counts must repeat exactly."""
    layers = worker["layers"]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            out[name] = worker["overhead_s"]
            continue
        values = [campaign[name] for campaign in layers]
        if unit in ("count", "bytes", "steps/row"):
            if len(set(values)) != 1:
                raise BenchmarkError(f"count {name} differs between campaigns: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 toy: bool = False) -> dict:
    """One benchmark run; returns the full record (result line, table, machine)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    commands = workloads.campaign(workload, seed, toy)
    out_dir = os.path.join(HERE, "out", workload)
    record = {"workload": workload, "trace": int(trace), "seconds": seconds, "toy": toy,
              "machine": machine_record(seed),
              "argv": [list(cmd.argv) for cmd in commands]}
    half = 0 if trace else SETUP_PROBES // 2
    setup = measure_setup(deadline, half, cold=True) if half else []
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "toy": toy, "out_dir": out_dir}
    worker = json.loads(_spawn([sys.executable, os.path.join(HERE, "campaign.py")],
                               json.dumps(job), deadline))
    if half:
        setup += measure_setup(deadline, SETUP_PROBES - half, cold=False)
    verdict = check_outputs(commands, out_dir, worker)
    table = {
        "setup_s": statistics.median(t * REF_S / r for t, r in setup) if setup else None,
        "scan_norm_s": statistics.median(worker["scan_norm_s"]),
        # the traced worker also holds its spans, so its peak is not the program's
        "peak_rss_mb": None if trace else worker["peak_rss_mb"],
        "setup_wall_s": statistics.median(t for t, _ in setup) if setup else None,
        "scan_s": statistics.median(worker["scan_s"]),
        "ref_s": statistics.median(t for ref in worker["ref_s"] for t in ref),
        "failed_frac": verdict["failed"] / verdict["attempted"],
        **{k: verdict[k] for k in ("max_oracle_err", "max_unitarity_defect",
                                   "max_dual_path_diff")},
    }
    record.update(setup_samples_s=setup, scan_samples_s=worker["scan_s"],
                  scan_norm_samples_s=worker["scan_norm_s"], ref_samples_s=worker["ref_s"],
                  command_samples_s=worker["command_s"],
                  repeats=len(worker["scan_s"]), problems=verdict["problems"], table=table)
    if trace:
        declared = PER_LAYER
        values = traced_layers(worker)
        record.update(traced_samples_s=worker["traced_s"], layers_per_campaign=worker["layers"])
    else:
        declared = END_TO_END
        values = table
    record["result"] = {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    return record


def print_record(record: dict) -> None:
    units = {**END_TO_END, **REPORTED}
    print(f"# {record['workload']}  machine {json.dumps(record['machine'])}")
    print(f"#   repeats {record['repeats']}, commands attempted "
          f"{record['result']['attempted']}, failed {record['result']['failed']}")
    rows = [(name, record["table"][name], unit) for name, unit in units.items()
            if record["table"][name] is not None]
    if record["trace"]:
        rows += [(name, m["value"], m["unit"]) for name, m in record["result"]["metrics"].items()]
    for name, value, unit in rows:
        print(f"#   {name:36s} {value:<24.6g} {unit}")
    for problem in record["problems"]:
        print(f"#   FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print_record(record)
        print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
