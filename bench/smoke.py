#!/usr/bin/env python3
"""The benchmark's own smoke test, at a tiny size (about a minute).

    python3 bench/smoke.py

Checks that
* every workload, with and without tracing, prints every metric that
  BENCHMARK.json names, with its unit, and a last line with exactly the
  result keys;
* deliberately wrong outputs are caught: a mismatched stored summary, a
  program that swaps type labels, a raising op and a failing fuzz job each
  count in ``failed``, and swapped labels on stratum samples fail the run;
* the traced run covers a fixed set of ops: two traced runs with the same
  seed report the same call counts;
* without the sources (only BENCHMARK.json and bench/ present) the benchmark
  exits nonzero without printing a result.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gapcurve as gc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, RECOVERED, REJECTED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def bench_run(workload, trace):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )


def check_metrics_printed():
    calls = {}
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench_run(w["name"], trace)
            where = f"{w['name']} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0 and lines, f"{where} exits 0 with output")
            result = json.loads(lines[-1])
            check(set(result) == RESULT_KEYS, f"{where} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where} correct, {result['attempted']} attempted")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == want, f"{where} prints every {key} metric with its unit")
            text = "\n".join(lines[:-1])
            missing = [
                m for m, unit in want.items()
                if not isinstance(result["metrics"][m]["value"], (int, float))
                or not re.search(rf"^\s+{re.escape(m)}\s+\S+ {re.escape(unit)}$", text, re.M)
            ]
            check(not missing, f"{where} prints a number and unit per metric (missing: {missing})")
            if trace:
                calls[w["name"]] = {m: v for m, v in result["metrics"].items() if m.endswith(".calls")}
    return calls


def check_traced_set_fixed(calls):
    name = "fp_roundtrip"
    again = json.loads(bench_run(name, 1).stdout.strip().splitlines()[-1])["metrics"]
    check(calls[name] == {m: again[m] for m in calls[name]},
          f"{name} traced twice with one seed: the same call counts")


def _swap_labels(report):
    for cl in report.clusters:
        cl.stype = gc.concrete_type("3.4" if cl.type_label != "3.4" else "1.1")
    return report


def check_wrong_outputs_counted():
    ops = workloads.build("q_roundtrip", 3, 1)
    generic = next(op for op in workloads.load_expected("q_roundtrip") if op.expected)
    stratum = next(op for op in ops if isinstance(op, workloads.StratumRoundTrip))

    tally = run.run_in_process([generic, stratum], count=2)
    check(tally.status[FAILED] == 0 and tally.status[RECOVERED] == 1, "unchanged outputs pass")

    tampered = workloads.AnalyzeStored(generic.curve, generic.center, json.loads(json.dumps(generic.expected)))
    tampered.expected[0]["type"] = "3.4"
    tally = run.run_in_process([tampered], count=1)
    v = run.verdict([tally])
    check(v["failed"] == 1 and not v["correct"], "a mismatched stored summary counts as failed")

    real = gc.analyze
    gc.analyze = lambda *a, **k: _swap_labels(real(*a, **k))
    try:
        tally = run.run_in_process([generic, stratum], count=2)
    finally:
        gc.analyze = real
    v = run.verdict([tally])
    check(tally.status[FAILED] == 1 and tally.status[REJECTED] == 1 and not v["correct"],
          "swapped type labels fail the generic check and the stratum recovery bound")

    class Raising:
        def run(self):
            raise gc.GapcurveError("boom")

    v = run.verdict([run.run_in_process([Raising()], count=1)])
    check(v["failed"] == 1 and v["attempted"] == 1, "a raising op counts as failed")

    job = workloads.build("cli_fuzz_batch", 3, 1)[0]
    envelope = job.run()
    check(job.check(envelope)[0] != FAILED, "a real fuzz job passes its check")
    envelope["result"]["all_hold"] = False
    check(job.check(envelope)[0] == FAILED, "a fuzz job with all_hold false counts as failed")


def check_refuses_without_sources():
    tmp = Path(tempfile.mkdtemp(prefix=".run-smoke-", dir=BENCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(BENCH, tmp / "bench", ignore=shutil.ignore_patterns(".run-*", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fp_roundtrip", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout, "no sources: nonzero exit, no result")


def main():
    check_refuses_without_sources()
    check_wrong_outputs_counted()
    check_traced_set_fixed(check_metrics_printed())
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
