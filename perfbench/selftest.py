"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that every declared metric is emitted with its unit on every
workload, that argv depends on the seed and only on it, that corrupted
output rows count as failed, that two traced runs give identical counts,
and that BENCHMARK.json matches the metric tables in run.py.  Takes about
half a minute.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from contextlib import redirect_stdout

import checks
import run
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

COUNT_UNITS = ("count", "bytes", "steps/row")
_failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        _failures.append(message)


def test_benchmark_json_matches_code() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect({w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS,
           "BENCHMARK.json workloads match workloads.WORKLOADS")


def test_seeded_argv() -> None:
    for name in workloads.WORKLOADS:
        first = [c.argv for c in workloads.campaign(name, 7)]
        again = [c.argv for c in workloads.campaign(name, 7)]
        other = [c.argv for c in workloads.campaign(name, 8)]
        expect(first == again, f"{name}: same seed gives identical argv")
        expect(first != other, f"{name}: another seed gives different argv")
        sizes = [(c.argv[0], c.rows) for c in workloads.campaign(name, 7)]
        expect(sizes == [(c.argv[0], c.rows) for c in workloads.campaign(name, 8)],
               f"{name}: sizes do not depend on the seed")


def _metrics_complete(record: dict, declared: dict) -> bool:
    metrics = record["result"]["metrics"]
    return (set(metrics) == set(declared)
            and all(metrics[k]["unit"] == u and isinstance(metrics[k]["value"], (int, float))
                    for k, u in declared.items()))


def test_toy_runs() -> None:
    for name in workloads.WORKLOADS:
        plain = run.run_workload(name, 3, 1, trace=False, toy=True)
        expect(plain["result"]["correct"] and plain["result"]["failed"] == 0,
               f"{name}: toy run passes its output checks")
        expect(_metrics_complete(plain, run.END_TO_END),
               f"{name}: every end-to-end metric emitted with its unit")
        expect(all(plain["table"][k] is not None for k in run.REPORTED),
               f"{name}: failed_frac and the accuracy figures are reported")
        traced = [run.run_workload(name, 3, 1, trace=True, toy=True) for _ in range(2)]
        expect(all(_metrics_complete(t, run.PER_LAYER) for t in traced),
               f"{name}: every per-layer metric emitted with its unit")
        counts = [{k: m["value"] for k, m in t["result"]["metrics"].items()
                   if m["unit"] in COUNT_UNITS} for t in traced]
        expect(counts[0] == counts[1], f"{name}: two traced runs give identical counts")


def _render(cmd: workloads.Command) -> str:
    from scatterchain import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(cmd.argv))
    if code != 0:
        raise RuntimeError(f"toy command failed: {cmd.argv}")
    return buffer.getvalue()


def _corrupt(text: str, fmt: str, row: int, column: str, value: float) -> str:
    if fmt == "json":
        doc = json.loads(text)
        doc["rows"][row][column] = value
        return json.dumps(doc)
    lines = text.split("\r\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = repr(value)
    lines[row + 1] = ",".join(cells)
    return "\r\n".join(lines)


def _drop_last_row(text: str, fmt: str) -> str:
    if fmt == "json":
        doc = json.loads(text)
        doc["rows"].pop()
        return json.dumps(doc)
    return text.rsplit("\r\n", 2)[0] + "\r\n"


def test_corrupted_rows_fail() -> None:
    cases = {
        "grid_scan": [(1, "z", lambda v: v + 1e-9), (1, "z", lambda v: math.nan),
                      (2, "dual_path_diff", lambda v: 1e-9),
                      (2, "unitarity_defect", lambda v: math.nan)],
        "long_chain": [(0, "T_recurrence", lambda v: v * (1 + 1e-6)),
                       (1, "T_recurrence", lambda v: v * (1 + 1e-6))],
        "delay_sweep": [(0, "dtau_l", lambda v: v + 1e-5)],
    }
    for name, edits in cases.items():
        commands = workloads.campaign(name, 5, toy=True)
        for index, column, change in edits:
            cmd = commands[index]
            fmt = cmd.argv[cmd.argv.index("--format") + 1]
            text = _render(cmd)
            clean = checks.check_output(cmd.check, cmd.params, cmd.rows, text, fmt)
            rows = checks.parse_rows(text, fmt)
            row = len(rows) - 1  # the last row is among the sampled N of chain_oracle
            bad = _corrupt(text, fmt, row, column, change(rows[row][column]))
            broken = checks.check_output(cmd.check, cmd.params, cmd.rows, bad, fmt)
            expect(clean.ok and not broken.ok,
                   f"{name}: corrupted {column} in {cmd.argv[0]} output fails ({broken.message})")
        cmd = commands[0]
        fmt = cmd.argv[cmd.argv.index("--format") + 1]
        short = checks.check_output(cmd.check, cmd.params, cmd.rows,
                                    _drop_last_row(_render(cmd), fmt), fmt)
        expect(not short.ok, f"{name}: a missing row fails ({short.message})")

    # A failed check counts every execution of that command as failed.
    commands = workloads.campaign("grid_scan", 5, toy=True)
    out_dir = os.path.join(run.HERE, "out", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    for i, cmd in enumerate(commands):
        text = _render(cmd)
        if i == 1:
            rows = checks.parse_rows(text, "csv")
            text = _corrupt(text, "csv", 0, "z", rows[0]["z"] + 1e-6)
        with open(os.path.join(out_dir, f"{i}.out"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    worker = {"runs": [4] * len(commands), "bad_runs": [0] * len(commands),
              "errors": [""] * len(commands)}
    verdict = run.check_outputs(commands, out_dir, worker)
    expect(verdict["failed"] == 4 and verdict["attempted"] == 4 * len(commands),
           "a corrupted row counts its command's executions as failed")


def main() -> int:
    test_benchmark_json_matches_code()
    test_seeded_argv()
    test_corrupted_rows_fail()
    test_toy_runs()
    print(f"{len(_failures)} failure(s)")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
