"""Campaign worker: runs one workload's CLI campaign in this fresh process.

Reads a JSON job from stdin: {"workload", "seed", "seconds", "trace", "toy",
"out_dir"}.  The campaign is a closed loop from one thread: each command is
``scatterchain.cli.main(argv)`` called in-process, the next one issued when
the previous one returns, stdout and stderr captured in memory.

One untimed warm-up campaign at toy sizes comes first.  Timed campaigns
follow until about ``seconds`` have passed.  The first timed campaign's
outputs are written to out_dir for the parent to check, and every later
output must hash like them.
With trace on, untraced and traced campaigns alternate, so the tracing
overhead is measured in the same process.  While an untraced campaign
runs, a SIGALRM handler runs the reference kernel (reference.py) every
``SAMPLE_INTERVAL_S`` of wall time; its seconds are left out of the command
times, and the mean host speed they show scales the campaign time to
``scan_norm_s``.  The last stdout line is a JSON result.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import workloads
from reference import REF_S, reference_block
from tracer import Tracer

# Fewest timed campaigns (rounds, when traced) before the time budget may end a run.
MIN_ROUNDS = {False: 3, True: 2}
# Wall seconds between reference-kernel samples; each takes about 5 ms.
SAMPLE_INTERVAL_S = 0.1


def run_campaign(main, commands, samples=None):
    """Run every command once.

    With ``samples`` (a list), reference_block runs from a SIGALRM handler
    every SAMPLE_INTERVAL_S while the commands run and appends its seconds
    there; that time is left out of the command times.  Returns each
    command's seconds and [(exit code, stdout, stderr)] per command.
    """
    sampled = samples is not None
    samples = samples if sampled else []
    buffers, seconds = [], []
    clock = time.perf_counter
    if sampled:
        signal.signal(signal.SIGALRM, lambda *_: samples.append(reference_block()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            done = len(samples)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = None
                err.write(traceback.format_exc())
            seconds.append(clock() - t0 - sum(samples[done:]))
            buffers.append((code, out, err))
    finally:
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, 0)
    results = [(code, out.getvalue(), err.getvalue()) for code, out, err in buffers]
    return seconds, results


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (Linux VmHWM).

    Not ru_maxrss: Linux carries the parent's peak into it across fork and
    exec, so a small worker would report its parent's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer values of one traced campaign."""
    g = tracer.group_self_s()
    c = tracer.counts
    calls = tracer.calls_of
    rows = c["analysis_rows"]
    return {
        "cli.render_s": g.get("cli.render", 0.0),
        "cli.rows_s": g.get("cli.rows", 0.0),
        "cli.rows_out": c["rows_out"],
        "cli.bytes_out": c["bytes_out"],
        "cells.smatrix_calls": calls("cells.cell_smatrix"),
        "cells.smatrix_s": g.get("cells.smatrix", 0.0),
        "chain.compose_calls": calls("chain.compose", "chain.displace"),
        "chain.compose_s": g.get("chain.compose", 0.0),
        "chain.recurrence_calls": calls("chain.chain_amplitudes", "chain.chain_amplitudes_addleft"),
        "chain.recurrence_steps": c["recurrence_steps"],
        "chain.recurrence_s": g.get("chain.recurrence", 0.0),
        "core.smatrix_built": c["smatrix_built"],
        "chain.transmissions_calls": calls("chain.ChainState.transmissions"),
        "chain.transmissions_elems": c["transmissions_elems"],
        "chain.transmissions_s": g.get("chain.transmissions", 0.0),
        "chain.profile_entries": c["profile_entries"],
        "chain.profile_bytes": 8 * c["profile_entries"],
        "chain.profile_s": g.get("chain.profile", 0.0),
        "chain.chebyshev_calls": calls("chain.chebyshev_transmission"),
        "chain.chebyshev_s": g.get("chain.chebyshev", 0.0),
        "analysis.phase_curves_calls": calls("analysis.chain_phase_curves"),
        "analysis.phase_curves_s": g.get("analysis.phase_curves", 0.0),
        "analysis.delays_s": g.get("analysis.delays", 0.0),
        "analysis.hartman_s": g.get("analysis.hartman", 0.0),
        "analysis.band_classify_s": g.get("analysis.band_classify", 0.0),
        "analysis.packet_avg_s": g.get("analysis.packet_avg", 0.0),
        "analysis.recurrence_steps_per_row": c["analysis_steps"] / rows if rows else 0.0,
        "core.unwrap_calls": calls("core.unwrap"),
        "core.unwrap_s": g.get("core.unwrap", 0.0),
        "core.defect_calls": calls("core.unitarity_defect"),
        "core.defect_s": g.get("core.defect", 0.0),
        "core.phases_s": g.get("core.phases", 0.0),
        "trace.coverage": tracer.root_span_s() / wall,
    }


def _save_spans(tracer: Tracer, campaigns: list[dict], path: str) -> None:
    import numpy as np

    columns = {}
    for i, spans in enumerate(campaigns):
        for key, values in spans.items():
            columns.setdefault(key, []).append(np.asarray(values))
        columns.setdefault("campaign", []).append(np.full(len(spans["fn"]), i))
    np.savez(path, names=np.array(tracer.names),
             **{k: np.concatenate(v) for k, v in columns.items()})


def main() -> int:
    job = json.load(sys.stdin)
    from scatterchain import cli

    commands = workloads.campaign(job["workload"], job["seed"], job["toy"])
    out_dir = job["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    # Warm imports, caches and code paths on the toy-size campaign.
    run_campaign(cli.main, workloads.campaign(job["workload"], job["seed"], toy=True))

    runs = [0] * len(commands)
    bad = [0] * len(commands)
    errors = [""] * len(commands)
    reference: list[str] = []

    def tally(results):
        """Count failures; the first timed campaign's outputs become the reference."""
        for i, (code, text, err) in enumerate(results):
            if len(reference) < len(commands):
                with open(os.path.join(out_dir, f"{i}.out"), "w", encoding="utf-8",
                          newline="") as fh:
                    fh.write(text)
                reference.append(_digest(text))
            runs[i] += 1
            if code != 0 or _digest(text) != reference[i]:
                bad[i] += 1
                errors[i] = errors[i] or err[-2000:] or "output differs from the first run"

    tracer = Tracer() if job["trace"] else None
    scan_s, scan_norm_s, command_s, ref_s, traced_s, layers, span_sets = [], [], [], [], [], [], []
    for _ in range(3):
        reference_block()  # warm
    start = time.perf_counter()
    while True:
        # One sample ahead of the commands, so a toy-size campaign has one too.
        samples = [reference_block()]
        per_command, results = run_campaign(cli.main, commands, samples)
        scan_s.append(sum(per_command))
        # Samples fall evenly in wall time, so their mean speed is the campaign's.
        scan_norm_s.append(sum(per_command) * statistics.fmean(REF_S / t for t in samples))
        command_s.append(per_command)
        ref_s.append(samples)
        tally(results)
        if tracer is not None:
            tracer.install()
            try:
                wall = time.perf_counter()
                _, results = run_campaign(cli.main, commands)
                wall = time.perf_counter() - wall
            finally:
                tracer.uninstall()
            tracer.counts["bytes_out"] = sum(len(text) for _, text, _ in results)
            traced_s.append(wall)
            layers.append(layer_metrics(tracer, wall))
            span_sets.append(tracer.spans())
            tally(results)
        del results
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(scan_s)
        if elapsed >= job["seconds"] or (
                len(scan_s) >= MIN_ROUNDS[tracer is not None]
                and elapsed + per_round > job["seconds"]):
            break
    peak_rss_mb = own_peak_rss_mb()

    result = {
        "scan_s": scan_s,
        "scan_norm_s": scan_norm_s,
        "command_s": command_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "runs": runs,
        "bad_runs": bad,
        "errors": errors,
    }
    if tracer is not None:
        result["traced_s"] = traced_s
        result["layers"] = layers
        _save_spans(tracer, span_sets, os.path.join(out_dir, "spans.npz"))
        result["overhead_s"] = statistics.median(traced_s) - statistics.median(scan_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
