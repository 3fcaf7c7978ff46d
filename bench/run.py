#!/usr/bin/env python3
"""gapcurve benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload fp_roundtrip [--seed 1] [--seconds 20] [--trace 0]
    python3 bench/run.py --workload all          # every workload, each in its own process

Run it from anywhere inside a checkout: it imports ``gapcurve`` from the
checkout's ``src/`` and exits with code 2 if there is none.  Inputs come from
``--seed``; building them is untimed.  Ops run closed-loop, one at a time,
for ``--seconds``; every output is checked.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an output
check failed.

``--trace 0`` prints the end-to-end metrics (see bench/README.md).
``--trace 1`` takes a fixed set of ops, the first ones built from the seed
(``workloads.build_traced``), runs each once untraced and once traced
(bench/tracer.py), and prints the per-layer metrics, totals over that set, so
that a faster program shows lower counts and times, not more ops;
``trace.overhead_ratio`` is traced over untraced throughput on the set.  For
``cli_fuzz_batch`` the set first runs as CLI batches, for the pool's wall
time, and then serially in process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1  # the held-out seed for confirming claims is in README.md
# fresh set-up processes per run: at least 5, and more (up to 25) while they
# take under 3 s in total, so that a fast set-up gets a steadier median
MIN_SETUP_PROBES, MAX_SETUP_PROBES, SETUP_PROBE_S = 5, 25, 3.0
MIN_RECOVERED = 0.90  # criterion 8: at most 10% boundary rejections
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_MAIN = "import sys; from gapcurve.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 150


def metric_units(key: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under `key`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)


def run_child(args, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a Python child from the checkout root with captured output.

    Reading the pipes to EOF returns as soon as the child exits; a plain
    ``wait(timeout)`` would poll in 50 ms steps and quantize short wall times.
    On timeout the child's whole process group (a CLI pool included) is killed.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


class Tally:
    """Work time, latency and check outcome of each op of one phase."""

    def __init__(self):
        self.durations: list[float] = []  # sums to the phase's busy time
        self.latencies: list[float] = []  # what the op's caller waited
        self.status: Counter = Counter()
        self.details: list[str] = []

    @property
    def n(self) -> int:
        return len(self.durations)

    @property
    def op_seconds(self) -> float:
        return sum(self.durations)

    def record(self, duration, status, detail, latency=None):
        from workloads import FAILED

        self.durations.append(duration)
        self.latencies.append(duration if latency is None else latency)
        self.status[status] += 1
        if status == FAILED and len(self.details) < 5:
            self.details.append(detail)


# ---------------------------------------------------------------------------
# running ops


def run_in_process(ops, seconds=None, count=None, tracer=None) -> Tally:
    """Closed loop over the ops, for `seconds` of wall time or `count` ops."""
    from workloads import FAILED

    tally = Tally()
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while (count is None and time.perf_counter() < deadline) or (count is not None and i < count):
        op = ops[i % len(ops)]
        i += 1
        t0 = time.perf_counter()
        try:
            result = tracer.op(op.run) if tracer else op.run()
        except Exception as exc:  # a raising op is a failed op; keep measuring
            tally.record(time.perf_counter() - t0, FAILED, f"{type(exc).__name__}: {exc}")
            continue
        duration = time.perf_counter() - t0
        tally.record(duration, *op.check(result))
    return tally


def cli_batch(jobs, workdir: Path):
    """Run `gapcurve --batch` on the jobs; (wall seconds, envelopes or None)."""
    path = workdir / "batch.json"
    path.write_text(json.dumps(jobs), encoding="utf-8")
    t0 = time.perf_counter()
    proc = run_child(["-c", CLI_MAIN, "--batch", str(path)])
    wall = time.perf_counter() - t0
    try:
        envelopes = json.loads(proc.stdout)
    except json.JSONDecodeError:
        envelopes = None
    if not isinstance(envelopes, list) or len(envelopes) != len(jobs):
        sys.stderr.write(f"gapcurve --batch exited {proc.returncode}: {proc.stderr[-2000:]}\n")
        envelopes = None
    return wall, envelopes


def run_cli(ops, workdir: Path, seconds=None, count=None) -> Tally:
    """Closed loop of CLI batches, for `seconds` of wall time or `count` ops;
    each job's latency is its batch's wall time, the time its caller waits
    for the result."""
    from workloads import FAILED, JOBS_PER_BATCH

    tally = Tally()
    deadline = time.perf_counter() + (seconds or 0.0)
    start = 0
    while (count is None and time.perf_counter() < deadline) or (count is not None and start < count):
        batch = [ops[(start + k) % len(ops)] for k in range(JOBS_PER_BATCH)]
        start += JOBS_PER_BATCH
        wall, envelopes = cli_batch([op.job for op in batch], workdir)
        for k, op in enumerate(batch):
            if envelopes is None:
                status, detail = FAILED, "batch produced no report"
            else:
                status, detail = op.check(envelopes[k])
            tally.record(wall / len(batch), status, detail, latency=wall)
    return tally


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(name: str, workdir: Path) -> list[float]:
    walls = []
    while len(walls) < MIN_SETUP_PROBES or (
        sum(walls) < SETUP_PROBE_S and len(walls) < MAX_SETUP_PROBES
    ):
        if name == "cli_fuzz_batch":
            wall, envelopes = cli_batch([{"command": "enumerate-types"}], workdir)
            if not envelopes or envelopes[0].get("result", {}).get("count") != 21:
                raise RuntimeError(f"set-up batch failed: {envelopes}")
        else:
            t0 = time.perf_counter()
            proc = run_child([str(Path(__file__).resolve()), "--workload", name, "--setup-probe"])
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
        walls.append(wall)
    return walls


# ---------------------------------------------------------------------------
# one workload


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(name, seed, seconds, workdir):
    import workloads

    setup = measure_setup(name, workdir)
    ops = workloads.build(name, seed, seconds)
    if name == "cli_fuzz_batch":
        tally = run_cli(ops, workdir, seconds=seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        workloads.warm_up(name)
        tally = run_in_process(ops, seconds=seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = tally.latencies
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": tally.n / tally.op_seconds,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = [
        f"set-up samples: {len(setup)}, {min(setup):.3f} to {max(setup):.3f} s",
        f"op samples: {len(latencies)}",
    ]
    return metrics, [tally], notes


def traced(name, seed, seconds, workdir):
    import tracer as tracer_mod
    import workloads
    from workloads import REJECTED

    ops = workloads.build_traced(name, seed, seconds)
    phases = []
    if name == "cli_fuzz_batch":
        # the pool's wall time, then the same jobs serially in this process
        batches = run_cli(ops, workdir, count=len(ops))
        phases.append(batches)
    workloads.warm_up(name)
    untraced = run_in_process(ops, count=len(ops))
    tracer = tracer_mod.Tracer()
    tracer.install()
    traced_tally = run_in_process(ops, count=len(ops), tracer=tracer)
    phases += [untraced, traced_tally]

    metrics = tracer.metrics()
    wall = batches.op_seconds if name == "cli_fuzz_batch" else 0.0
    compute = untraced.op_seconds if wall else 0.0
    metrics["cli.batch_wall_s"] = wall
    metrics["cli.job_compute_s"] = compute
    metrics["cli.pool_efficiency"] = compute / (wall * os.cpu_count()) if wall else 0.0
    metrics["schubert.boundary_rejections"] = traced_tally.status[REJECTED]
    metrics["trace.overhead_ratio"] = untraced.op_seconds / traced_tally.op_seconds
    notes = [f"traced ops: {traced_tally.n} (untraced {untraced.op_seconds:.3f} s, "
             f"traced {traced_tally.op_seconds:.3f} s)"]
    for layer in tracer_mod.LAYERS:
        notes.append(f"layer {layer:9s} share {metrics[f'layer.{layer}.share']:.3f}")
    return metrics, phases, notes


def run_workload(name, seed, seconds, trace):
    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=BENCH))
    try:
        if trace:
            metrics, phases, notes = traced(name, seed, seconds, workdir)
            units = metric_units("per_layer")
        else:
            metrics, phases, notes = end_to_end(name, seed, seconds, workdir)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    v = verdict(phases)
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    for metric in units:
        print(f"  {metric:45s} {metrics[metric]:.6g} {units[metric]}")
    print(f"  {'failed_ratio':45s} {v['failed'] / v['attempted']:.6g} ratio "
          f"({v['failed']} failed of {v['attempted']} attempted)")
    if v["planted"]:
        print(f"  stratum samples recovered: {v['recovered']} of {v['planted']} "
              f"(at least {MIN_RECOVERED:.0%} required)")
    for note in notes:
        print(f"  {note}")
    for t in phases:
        for detail in t.details:
            print(f"  FAILED: {detail}")
    return {
        "correct": v["correct"],
        "attempted": v["attempted"],
        "failed": v["failed"],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def verdict(phases) -> dict:
    """Counts over all phases: no op may fail, and at least MIN_RECOVERED of
    the stratum samples must recover their planted points and type."""
    from workloads import FAILED, RECOVERED, REJECTED

    status = sum((t.status for t in phases), Counter())
    planted = status[RECOVERED] + status[REJECTED]
    failed = status[FAILED]
    return {
        "attempted": sum(t.n for t in phases),
        "failed": failed,
        "planted": planted,
        "recovered": status[RECOVERED],
        "correct": failed == 0 and (not planted or status[RECOVERED] >= MIN_RECOVERED * planted),
    }


def run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed by workload."""
    from workloads import NAMES

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = run_child(
            [str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=180,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gapcurve" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no gapcurve sources under {SRC}; run from a full checkout\n")
        return 2
    os.environ.update(SINGLE_THREAD)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import gapcurve

    if not Path(gapcurve.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"bench: imported gapcurve from {gapcurve.__file__}, not {SRC}\n")
        return 2
    import workloads

    if args.setup_probe:  # the body of one fresh set-up process
        workloads.warm_up(args.workload)
        return 0
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in workloads.NAMES:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
