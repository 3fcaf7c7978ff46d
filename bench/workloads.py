"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

Each workload is built from a seed into a list of ops, run in order and
cycled if a run outlasts the list.  Building is untimed;
``Op.run`` is the timed call into the public API and ``Op.check`` inspects
its output.  Library code is always reached through module attributes
(``gc.analyze``, ``cli.run``), never through names bound at import, so the
tracer's wrappers see every call.

Why these four workloads (measured at the commit that added them):

* ``fp_roundtrip`` is the north-star mixed pipeline: stratum_spec ->
  sample_center -> analyze over F_10007 for the 21 types at (d, n) = (8, 5)
  and the 7 types with delta <= 2 at (5, 3).  Ramification scan, dual-path
  elimination and closure all carry weight.
* ``fp_large_p`` analyzes centers over F_100003 (d in 5..8, ell <= 3): two
  thirds from the stored corpus (generic rows, plus one stored stratum member
  in six, so that the exact summary check sees clusters), one third stratum
  members sampled while building.  The O(p) scan does
  almost all the work, and its O(p d^2) arrays set the peak memory.
* ``q_roundtrip`` is the same round trip over Q for the delta <= 2 types at
  (5, 3) with small integer points, mixed 1:2 with generic d = 5, ell = 2
  centers with small integer entries.  Fraction gcds and resultants in
  ``binforms`` dominate.  d >= 7 over Q takes seconds per center and is left
  out so that the run stays steady.
* ``cli_fuzz_batch`` runs ``gapcurve --batch`` on batches of key-lemma fuzz
  jobs over F_101.  Closure dominates the jobs; the process pool, pickling
  and JSON are the CLI layer, which no other workload touches.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import gapcurve as gc
from gapcurve import cli
from gapcurve.classify import enumerate_types

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

SMALL_P = 10007
LARGE_P = 100003  # (d+1)(p-1)^2 < 2^63 for d <= 8: the int64 scan stays exact
# (d, ell) shapes over F_LARGE_P, the criterion-6 corpus: d in 5..8, ell <= 3
FP_SHAPES = [(d, ell) for ell in (1, 2, 3) for d in range(5, 9) if d >= 2 * ell + 1 and d - ell >= 3]
FUZZ_FIELD = "Fp:101"
JOBS_PER_BATCH = 8
FUZZ_COUNT = 10
Q_POINT_RANGE = 3  # stratum points (a : 1) with |a| <= 3 over Q: small heights keep runs steady
DEEP_TYPES = ("3.1.d", "3.2.f")  # single-cluster samplers only; kept out of mixed corpora

# check outcomes; a stratum sample is either recovered or a boundary rejection
OK, RECOVERED, REJECTED, FAILED = "ok", "recovered", "rejected", "failed"


# ---------------------------------------------------------------------------
# output checks


def cluster_summary(report) -> list:
    """Canonical per-cluster summary: points, type label, delta, tangent flags."""
    out = []
    for cl in report.clusters:
        field = cl.points[0].field
        out.append(
            {
                "points": [[field.to_json(q.a), field.to_json(q.b)] for q in cl.points],
                "type": cl.type_label,
                "delta": cl.delta,
                "tangent": list(cl.tangent),
            }
        )
    return out


def invariant_failure(report, ell: int) -> str:
    """Criterion 6 on one report; empty string when it holds."""
    if report.delta_total > ell:
        return f"delta_total {report.delta_total} > ell {ell}"
    if not report.genus_bound["holds"]:
        return f"genus bound fails: {report.genus_bound}"
    return ""


def check_planted(report, points, label: str, ell: int):
    """A stratum sample must recover its planted points and type; anything
    else that keeps the invariants is a boundary rejection (criterion 8)."""
    bad = invariant_failure(report, ell)
    if bad:
        return FAILED, bad
    got = {q.coords() for cl in report.clusters for q in cl.points}
    labels = [cl.type_label for cl in report.clusters]
    if got == {q.coords() for q in points} and labels == [label]:
        return RECOVERED, ""
    return REJECTED, f"planted {label}, got {labels}"


def check_fuzz(envelope: dict, count: int):
    if not envelope.get("ok"):
        return FAILED, f"job failed: {envelope.get('error')}"
    result = envelope["result"]
    if result.get("all_hold") is not True or result.get("checked") != count:
        return FAILED, f"fuzz result {result}"
    return OK, ""


# ---------------------------------------------------------------------------
# ops


@dataclass
class StratumRoundTrip:
    """stratum_spec -> sample_center -> analyze, all timed."""

    curve: object
    stype: object
    ell: int
    points: list
    sample_seed: int

    def run(self):
        spec = gc.stratum_spec(self.stype, self.points, self.curve, self.ell)
        center = gc.sample_center(spec, self.sample_seed, self.curve)
        return gc.analyze(center, self.curve)

    def check(self, report):
        return check_planted(report, self.points, self.stype.label, self.ell)


@dataclass
class AnalyzeSampled:
    """analyze on a stratum member sampled while building the workload."""

    curve: object
    center: object
    stype: object
    points: list

    def run(self):
        return gc.analyze(self.center, self.curve)

    def check(self, report):
        return check_planted(report, self.points, self.stype.label, self.center.ell)


@dataclass
class AnalyzeStored:
    """analyze on a stored center, compared with its stored summary."""

    curve: object
    center: object
    expected: list

    def run(self):
        return gc.analyze(self.center, self.curve)

    def check(self, report):
        bad = invariant_failure(report, self.center.ell)
        if bad:
            return FAILED, bad
        got = cluster_summary(report)
        if got != self.expected:
            return FAILED, f"summary {got} != stored {self.expected}"
        return OK, ""


@dataclass
class FuzzJob:
    """One key-lemma fuzz job; a batch of them is one CLI invocation."""

    job: dict

    def run(self):
        return cli.run(cli.JobSpec(self.job))[1]

    def check(self, envelope):
        return check_fuzz(envelope, self.job["params"]["count"])


# ---------------------------------------------------------------------------
# input generation


def load_expected(name: str):
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        data = json.load(fh)[name]
    field = gc.field_from_name(data["field"])
    curves = {}
    out = []
    for entry in data["centers"]:
        d = entry["degree"]
        curve = curves.setdefault(d, gc.RationalNormalCurve(field, d))
        center = gc.ProjectionCenter.from_rows(field, d, entry["rows"])
        out.append(AnalyzeStored(curve, center, entry["clusters"]))
    return out


def _distinct_points(curve, count, draw):
    pts = []
    while len(pts) < count:
        cand = curve.point(curve.field(draw()), curve.field.one)
        if cand not in pts:
            pts.append(cand)
    return pts


def _cycles(seconds: float, cycle_s: float) -> int:
    """Enough cycles of ops for a run of the given length, with headroom."""
    return max(2, math.ceil(1.25 * seconds / cycle_s))


def _interleave(rng, strata, corpus):
    """One stratum op after every two stored ops drawn from the corpus
    (without repeats until the corpus is used up)."""
    drawn = []
    while len(drawn) < 2 * len(strata):
        drawn.extend(rng.sample(corpus, len(corpus)))
    out = []
    for i, op in enumerate(strata):
        out.extend(drawn[2 * i : 2 * i + 2])
        out.append(op)
    return out


def build_fp_roundtrip(rng, seconds):
    field = gc.GF(SMALL_P)
    types = enumerate_types()
    cases = [(t, 8, 5) for t in types] + [(t, 5, 3) for t in types if t.delta <= 2]
    curves = {d: gc.RationalNormalCurve(field, d) for d in (8, 5)}
    ops = []
    for _ in range(_cycles(seconds, 1.4)):
        order = list(cases)
        rng.shuffle(order)
        for stype, d, n in order:
            curve = curves[d]
            pts = _distinct_points(curve, stype.branches, lambda: rng.randrange(SMALL_P))
            ops.append(StratumRoundTrip(curve, stype, d - n, pts, rng.randrange(10**9)))
    return ops


def draw_fp_stratum(rng, curves):
    """One stratum member over F_LARGE_P of a random corpus shape and a
    feasible type: (center, type, planted points), or None when the draw is
    infeasible.  `curves` maps each degree of FP_SHAPES to its curve."""
    d, ell = FP_SHAPES[rng.randrange(len(FP_SHAPES))]
    curve = curves[d]
    feasible = [
        t
        for t in enumerate_types()
        if t.delta <= ell and 2 * t.branches <= d and t.label not in DEEP_TYPES
    ]
    stype = feasible[rng.randrange(len(feasible))]
    pts = _distinct_points(curve, stype.branches, lambda: rng.randrange(LARGE_P))
    try:
        spec = gc.stratum_spec(stype, pts, curve, ell)
        center = gc.sample_center(spec, rng.randrange(10**9), curve)
    except gc.GapcurveError:
        return None
    return center, stype, pts


def fp_curves():
    field = gc.GF(LARGE_P)
    return {d: gc.RationalNormalCurve(field, d) for d in range(5, 9)}


def build_fp_large_p(rng, seconds):
    stored = load_expected("fp_large_p")
    curves = fp_curves()
    n_strata = _cycles(seconds, 0.5)
    strata = []
    while len(strata) < n_strata:
        drawn = draw_fp_stratum(rng, curves)
        if drawn is None:
            continue  # an infeasible draw; the next one replaces it
        center, stype, pts = drawn
        strata.append(AnalyzeSampled(curves[center.degree], center, stype, pts))
    return _interleave(rng, strata, stored)


def build_q_roundtrip(rng, seconds):
    field = gc.QQ
    generic = load_expected("q_roundtrip")
    curve = gc.RationalNormalCurve(field, 5)
    cases = [t for t in enumerate_types() if t.delta <= 2]
    strata = []
    for _ in range(_cycles(seconds, 1.4)):
        order = list(cases)
        rng.shuffle(order)
        for stype in order:
            pts = _distinct_points(
                curve, stype.branches, lambda: rng.randrange(-Q_POINT_RANGE, Q_POINT_RANGE + 1)
            )
            strata.append(StratumRoundTrip(curve, stype, 2, pts, rng.randrange(10**9)))
    return _interleave(rng, strata, generic)


def build_cli_fuzz_batch(rng, seconds):
    seeds = set()
    ops = []
    for _ in range(_cycles(seconds, 0.75) * JOBS_PER_BATCH):
        seed = rng.randrange(2**31)
        while seed in seeds:
            seed = rng.randrange(2**31)
        seeds.add(seed)
        job = {
            "command": "fuzz-key-lemma",
            "field": FUZZ_FIELD,
            "seed": seed,
            "params": {"count": FUZZ_COUNT},
        }
        ops.append(FuzzJob(job))
    return ops


BUILDERS = {
    "fp_roundtrip": build_fp_roundtrip,
    "fp_large_p": build_fp_large_p,
    "q_roundtrip": build_q_roundtrip,
    "cli_fuzz_batch": build_cli_fuzz_batch,
}
NAMES = tuple(BUILDERS)


# Size of the traced run's op set, in ops per second of --seconds: about half
# of each workload's throughput at the commit that set it, so that one
# untraced and one traced pass over the set take about --seconds together.
# The set is the first ops built from the seed, not as many as a time budget
# allows, so the per-layer counts and times of two commits cover the same work.
TRACED_OPS_PER_S = {"fp_roundtrip": 11, "fp_large_p": 3.5, "q_roundtrip": 7.5, "cli_fuzz_batch": 2}


def build(name: str, seed: int, seconds: float) -> list:
    return BUILDERS[name](random.Random(seed), seconds)


def build_traced(name: str, seed: int, seconds: float) -> list:
    """The traced run's fixed op set; whole CLI batches for cli_fuzz_batch."""
    count = max(1, round(TRACED_OPS_PER_S[name] * seconds))
    if name == "cli_fuzz_batch":
        count = JOBS_PER_BATCH * math.ceil(count / JOBS_PER_BATCH)
    return build(name, seed, seconds)[:count]


# ---------------------------------------------------------------------------
# set-up


def warm_center(field, degree: int):
    """The sharp-family center with ell = 1: one cluster, at (1:0), delta 1."""
    forms = []
    for idx in [0] + list(range(2, degree + 1)):
        row = [0] * (degree + 1)
        row[idx] = 1
        forms.append(row)
    return gc.ProjectionCenter.from_linear_system(field, degree, forms)


def warm_up(name: str):
    """One untimed analyze per distinct (field, degree) of the workload; over
    F_p this fills the per-(p, d) scan tables."""
    fields = {
        "fp_roundtrip": [(gc.GF(SMALL_P), 8), (gc.GF(SMALL_P), 5)],
        "fp_large_p": [(gc.GF(LARGE_P), d) for d in range(5, 9)],
        "q_roundtrip": [(gc.QQ, 5)],
        "cli_fuzz_batch": [],
    }[name]
    for field, d in fields:
        gc.analyze(warm_center(field, d), gc.RationalNormalCurve(field, d))
    if name == "cli_fuzz_batch":
        FuzzJob({"command": "fuzz-key-lemma", "field": FUZZ_FIELD, "params": {"count": 1}}).run()
