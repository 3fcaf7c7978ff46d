#!/usr/bin/env python3
"""Record a baseline: repeated seeded runs, their spread, and the layer shares.

    python3 bench/record.py --out bench/BENCH_0.json

For every workload of BENCHMARK.json it makes two sets of ten end-to-end
runs of ``run_seconds`` each, with seeds 101 to 110 (round-robin over the
workloads, so that drift in machine load spreads over all of them), and one
traced run with the default seed.  For each end-to-end metric and set it
stores the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the metric's bound from BENCHMARK.json, and how much
worse the second set's median is than the first one's, as a share of it.
Provenance (git sha, Python and numpy versions, CPU count and model, load
average at start) goes into the same file.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
RUNS, SETS, FIRST_SEED = 10, 2, 101


def _git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "src")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "loadavg_at_start": list(os.getloadavg()),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    record = {"provenance": provenance(), "run_seconds": seconds, "workloads": {}}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
    values = {w: {m: [[] for _ in range(SETS)] for m in metrics} for w in names}
    attempted = {w: 0 for w in names}
    for k in range(SETS):
        for seed in seeds:
            for w in names:
                result = run_once(w, seed, seconds, 0)
                attempted[w] += result["attempted"]
                for m in metrics:
                    values[w][m][k].append(result["metrics"][m]["value"])
                print(f"set {k + 1} {w} seed {seed}: " + ", ".join(
                    f"{m} {result['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for w in names:
        e2e = {}
        for m, info in metrics.items():
            sets = [spread(v) for v in values[w][m]]
            sign = 1 if info["better"] == "lower" else -1
            e2e[m] = {
                "bound": info["bound"],
                "sets": sets,
                "median_worse_than_first": sign * (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"],
            }
        entry = {
            "why": whys[w],
            "seeds": [seeds[0], seeds[-1]],
            "ops_attempted": attempted[w],
            "end_to_end": e2e,
        }
        traced = run_once(w, 1, seconds, 1)["metrics"]
        entry["layer_shares"] = {
            k.split(".")[1]: v["value"] for k, v in traced.items() if k.endswith(".share")
        }
        entry["trace_overhead_ratio"] = traced["trace.overhead_ratio"]["value"]
        record["workloads"][w] = entry
        print(w + ": " + ", ".join(
            f"{m} spread {max(s['spread'] for s in e2e[m]['sets']):.3f} "
            f"shift {e2e[m]['median_worse_than_first']:+.3f} (bound {e2e[m]['bound']})"
            for m in metrics), flush=True)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
