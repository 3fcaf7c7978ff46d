"""Command-line front end: JSON jobs in, canonical JSON reports out.

A job is a single JSON object:

    {
      "schema_version": 1,
      "command": "analyze-projection",
      "field": "rational" | "Fp:<p>",
      "seed": 0,
      "truncation_cap": 64,
      "out": "report.json",        # optional; --out overrides
      "params": { ... per command ... }
    }

Unknown keys are rejected.  Output is deterministic for a fixed job: keys
are sorted, rationals serialize as "p/q" strings, prime-field elements as
integers in [0, p).  Exit codes: 0 success, 2 validation error, 3 hypothesis
violation, 4 indeterminate over the base field, 5 truncation cap hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import schubert
from .classify import (
    classify_ring,
    classify_vector_space,
    enumerate_types,
    type_description,
)
from .curve import ExpansionCurveModel, RationalNormalCurve
from .errors import GapcurveError, ValidationError
from .fields import field_from_name
from .gaps import (
    ALGEBRA_CLOSED,
    TRUNCATION_CAP,
    VECTOR_SPACE,
    GapFunction,
    close_algebra,
    close_and_stabilize,
    key_lemma_holds,
)
from .project import ProjectionCenter, analyze
from .series import Ambient, SeriesSubspace, TruncatedSeries

SCHEMA_VERSION = 1

COMMANDS = (
    "classify-series",
    "analyze-projection",
    "sample-stratum",
    "verify-bounds",
    "enumerate-types",
    "fuzz-key-lemma",
)

_TOP_KEYS = {"schema_version", "command", "field", "seed", "truncation_cap", "out", "params"}


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown {where} fields: {sorted(unknown)}")


class JobSpec:
    def __init__(self, obj: dict):
        if not isinstance(obj, dict):
            raise ValidationError("job must be a JSON object")
        _check_keys(obj, _TOP_KEYS, "job")
        if obj.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema_version {obj.get('schema_version')}")
        command = obj.get("command")
        if command not in COMMANDS:
            raise ValidationError(f"command must be one of {COMMANDS}, got {command!r}")
        self.command = command
        self.field = field_from_name(obj.get("field", "rational"))
        self.seed = obj.get("seed", 0)
        if not isinstance(self.seed, int):
            raise ValidationError("seed must be an integer")
        self.truncation_cap = obj.get("truncation_cap", TRUNCATION_CAP)
        if not isinstance(self.truncation_cap, int) or self.truncation_cap < 4:
            raise ValidationError("truncation_cap must be an integer >= 4")
        self.out = obj.get("out")
        self.params = obj.get("params", {})
        if not isinstance(self.params, dict):
            raise ValidationError("params must be an object")


def _ser(field, x):
    return field.to_json(x)


def _ser_seq(field, xs):
    return [field.to_json(x) for x in xs]


def _point_json(field, point):
    if isinstance(point, str):
        return point  # a point name of a user-supplied curve model
    return [_ser(field, point.a), _ser(field, point.b)]


def _report_json(report, field):
    clusters = []
    for cl in report.clusters:
        clusters.append(
            {
                "points": [_point_json(field, p) for p in cl.points],
                "branches": cl.branches,
                "tangent": cl.tangent,
                "delta": cl.delta,
                "type": cl.type_label,
                "vs_type": cl.vs_label,
                "lambda_prime": {
                    ",".join(map(str, alpha)): v for alpha, v in sorted(cl.lambda_samples.items())
                },
                "section": _ser_seq(field, cl.section_used),
            }
        )
    return {
        "degree": report.degree,
        "n": report.n,
        "ell": report.ell,
        "genus": report.genus,
        "hypotheses": report.hypotheses,
        "basepoint_free": report.basepoint_free,
        "birational": report.birational,
        "delta_total": report.delta_total,
        "genus_bound": report.genus_bound,
        "completeness": report.completeness,
        "clusters": clusters,
    }


# ---------------------------------------------------------------------------
# command implementations


def _parse_series_vectors(field, params):
    _check_keys(
        params, {"branches", "truncation", "vectors", "adjoin_unit"}, "classify-series params"
    )
    r = params.get("branches")
    n = params.get("truncation", 16)
    vectors = params.get("vectors")
    if not isinstance(r, int) or r < 1:
        raise ValidationError("branches must be a positive integer")
    if not isinstance(n, int) or n < 2:
        raise ValidationError("truncation must be an integer >= 2")
    if not isinstance(vectors, list) or not vectors:
        raise ValidationError("vectors must be a nonempty list")
    amb = Ambient(field, r, n)
    out = []
    for vec in vectors:
        terms = []
        for term in vec:
            if not isinstance(term, list) or len(term) != 3:
                raise ValidationError("each term is [branch, exponent, coefficient]")
            b, e, c = term
            if e < n:
                terms.append((b, e, field.from_json(c)))
        out.append(TruncatedSeries.from_monomials(amb, terms))
    if params.get("adjoin_unit", False):
        out.insert(0, TruncatedSeries.unit(amb))
    return amb, out


def _cmd_classify_series(job: JobSpec):
    amb, vectors = _parse_series_vectors(job.field, job.params)
    space = SeriesSubspace.span(amb, vectors)

    def builder(n):
        # the input is already at fixed precision; escalation past it is capped
        return amb, [TruncatedSeries.from_flat(amb, row) for row in space.rows]

    closed, gap, delta = close_and_stabilize(builder, amb.truncation, cap=amb.truncation)
    stype = classify_ring(gap)
    vs_label = None
    try:
        vs_label = classify_vector_space(GapFunction(space, VECTOR_SPACE)).label
    except GapcurveError:
        pass
    return {
        "type": stype.label,
        "description": type_description(stype),
        "delta": delta,
        "branches": amb.branches,
        "input_dim": space.dim,
        "closure_dim": closed.dim,
        "vs_type": vs_label,
    }


def _parse_center(field, degree, spec) -> ProjectionCenter:
    if not isinstance(spec, dict):
        raise ValidationError("center must be an object")
    _check_keys(spec, {"rows", "linear_system", "points"}, "center")
    given = [k for k in ("rows", "linear_system", "points") if k in spec]
    if len(given) != 1:
        raise ValidationError("center needs exactly one of rows/linear_system/points")
    rows = [[field.from_json(c) for c in row] for row in spec[given[0]]]
    if given[0] == "linear_system":
        return ProjectionCenter.from_linear_system(field, degree, rows)
    return ProjectionCenter.from_rows(field, degree, rows)


_ANALYZE_KEYS = {"degree", "center", "enforce_hypotheses", "crosscheck", "certify",
                 "curve_model", "clusters"}


def _parse_curve_model(field, degree, spec):
    """Built-in rational normal curve, or a user expansion-table model."""
    if spec is None:
        return RationalNormalCurve(field, degree)
    _check_keys(spec, {"dim_w", "genus", "expansions"}, "curve_model")
    dim_w = spec.get("dim_w", degree + 1)
    genus = spec.get("genus", 0)
    tables = spec.get("expansions")
    if not isinstance(tables, dict) or not tables:
        raise ValidationError("curve_model.expansions must map point names to tables")
    parsed = {
        key: [[field.from_json(c) for c in row] for row in table]
        for key, table in tables.items()
    }
    return ExpansionCurveModel(field, dim_w, degree, genus, parsed)


def _parse_clusters(params):
    """Optional lists of point names; they only make sense for a user model."""
    clusters = params.get("clusters")
    if clusters is None:
        return None
    if params.get("curve_model") is None:
        raise ValidationError("clusters need a curve_model; built-in curves are searched")
    if not isinstance(clusters, list) or not all(
        isinstance(cl, list) and all(isinstance(key, str) for key in cl) for cl in clusters
    ):
        raise ValidationError("clusters must be lists of point names")
    return clusters or None


def _cmd_analyze(job: JobSpec, enforce_default=True):
    params = job.params
    _check_keys(params, _ANALYZE_KEYS, "analyze params")
    degree = params.get("degree")
    if not isinstance(degree, int) or degree < 1:
        raise ValidationError("degree must be a positive integer")
    center = _parse_center(job.field, degree, params.get("center"))
    curve = _parse_curve_model(job.field, degree, params.get("curve_model"))
    clusters = _parse_clusters(params)
    import random as _random

    return analyze(
        center,
        curve,
        clusters=clusters,
        enforce_hypotheses=params.get("enforce_hypotheses", enforce_default),
        crosscheck=params.get("crosscheck", True),
        certify=params.get("certify"),
        truncation_cap=job.truncation_cap,
        rng=_random.Random(job.seed),
    )


def _cmd_analyze_projection(job: JobSpec):
    return _report_json(_cmd_analyze(job), job.field)


def _cmd_verify_bounds(job: JobSpec):
    report = _cmd_analyze(job, enforce_default=False)
    return {
        "hypotheses": report.hypotheses,
        "delta_total": report.delta_total,
        "genus_bound": report.genus_bound,
    }


def _cmd_enumerate_types(job: JobSpec):
    _check_keys(job.params, set(), "enumerate-types params")
    out = []
    for t in enumerate_types():
        coef, const = schubert._CODIM_FORMULA[t.label]
        out.append(
            {
                "label": t.label,
                "delta": t.delta,
                "branches": t.branches,
                "description": type_description(t),
                "stratum_codim": f"{coef}n{const:+d}",
            }
        )
    return {"types": out, "count": len(out)}


def _cmd_sample_stratum(job: JobSpec):
    params = job.params
    _check_keys(
        params, {"degree", "dim_center", "type", "points", "types", "count"}, "sample params"
    )
    degree = params.get("degree")
    ell = params.get("dim_center")
    count = params.get("count", 1)
    if not all(isinstance(x, int) for x in (degree, ell, count)) or count < 1:
        raise ValidationError("degree, dim_center, and count must be integers")
    curve = RationalNormalCurve(job.field, degree)

    def parse_points(raw):
        return [
            curve.point(job.field.from_json(a), job.field.from_json(b)) for a, b in raw
        ]

    if "types" in params:
        # a configuration: list of {"type": label, "points": [[a, b], ...]}
        if "type" in params or "points" in params:
            raise ValidationError("give either type/points or types, not both")
        specs = []
        for entry in params["types"]:
            _check_keys(entry, {"type", "points"}, "configuration entry")
            specs.append(
                schubert.stratum_spec(entry["type"], parse_points(entry["points"]), curve, ell)
            )
    else:
        specs = [
            schubert.stratum_spec(params.get("type"), parse_points(params.get("points")), curve, ell)
        ]
    n = degree - ell
    codim, family_dim = schubert.configuration_codim(
        [s.stype for s in specs], degree, n
    )
    import random as _random

    rng = _random.Random(job.seed)
    samples = []
    for _ in range(count):
        if len(specs) == 1:
            center = schubert.sample_center(specs[0], rng, curve)
        else:
            center = schubert.sample_configuration(specs, ell, rng, curve)
        samples.append(
            {
                "rows": [_ser_seq(job.field, row) for row in center.rows],
                "linear_system": [_ser_seq(job.field, row) for row in center.m_basis()],
            }
        )
    return {
        "clusters": [
            {
                "type": s.stype.label,
                "points": [_point_json(job.field, p) for p in s.points],
                "conditions": [
                    {"alpha": list(alpha), "min_dim": v} for alpha, v in s.conditions
                ],
                "partition": list(s.partition.parts),
                "codim": s.codim,
            }
            for s in specs
        ],
        "codim_total": codim,
        "family_dim": family_dim,
        "samples": samples,
    }


def _cmd_fuzz_key_lemma(job: JobSpec):
    params = job.params
    _check_keys(params, {"count", "max_branches", "max_delta"}, "fuzz params")
    count = params.get("count", 50)
    max_branches = params.get("max_branches", 3)
    max_delta = params.get("max_delta", 4)
    import random as _random

    rng = _random.Random(job.seed)
    field = job.field
    checked = 0
    failures = []
    attempts = 0
    while checked < count and attempts < 50 * count:
        attempts += 1
        r = rng.randrange(1, max_branches + 1)
        n = 2 * max_delta + 6
        amb = Ambient(field, r, n)
        vectors = [TruncatedSeries.unit(amb)]
        for i in range(r):
            for e in sorted({rng.randrange(1, 6) for _ in range(rng.randrange(1, 4))}):
                terms = [(i, e, field.from_json(1))]
                if rng.random() < 0.5 and e + 1 < n:
                    terms.append((i, e + 1, field.random_element(rng)))
                vectors.append(TruncatedSeries.from_monomials(amb, terms))
        space = SeriesSubspace.span(amb, vectors)
        closed = close_algebra(space)
        gap = GapFunction(closed, ALGEBRA_CLOSED)
        try:
            delta = gap.degree()
        except GapcurveError:
            continue
        if delta > max_delta:
            continue
        for gamma in (delta, delta + 1):
            if gap.truncation < 2 * gamma + 2:
                continue
            if not key_lemma_holds(gap, gamma):
                failures.append({"gamma": gamma, "delta": delta, "branches": r})
        checked += 1
    return {"checked": checked, "all_hold": not failures, "failures": failures}


_HANDLERS = {
    "classify-series": _cmd_classify_series,
    "analyze-projection": _cmd_analyze_projection,
    "sample-stratum": _cmd_sample_stratum,
    "verify-bounds": _cmd_verify_bounds,
    "enumerate-types": _cmd_enumerate_types,
    "fuzz-key-lemma": _cmd_fuzz_key_lemma,
}


def run(job: JobSpec):
    """Execute one job; returns (exit_code, envelope dict)."""
    try:
        result = _HANDLERS[job.command](job)
    except GapcurveError as exc:
        return exc.exit_code, {
            "schema_version": SCHEMA_VERSION,
            "command": job.command,
            "field": job.field.name,
            "seed": job.seed,
            "ok": False,
            "error": {"kind": type(exc).__name__, "code": exc.exit_code, "message": str(exc)},
        }
    return 0, {
        "schema_version": SCHEMA_VERSION,
        "command": job.command,
        "field": job.field.name,
        "seed": job.seed,
        "ok": True,
        "result": result,
    }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _run_job_obj(obj: dict):
    try:
        job = JobSpec(obj)
    except GapcurveError as exc:
        return exc.exit_code, {
            "schema_version": SCHEMA_VERSION,
            "ok": False,
            "error": {"kind": type(exc).__name__, "code": exc.exit_code, "message": str(exc)},
        }
    return run(job)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapcurve",
        description="Exact singularity analysis of projected rational normal curves",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="command to run")
    parser.add_argument("--job", help="path to a JSON job file, or - for stdin")
    parser.add_argument("--params", help="inline JSON params for the positional command")
    parser.add_argument("--field", help="rational or Fp:<p>")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--truncation-cap", type=int, help="series precision cap")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout echo")
    parser.add_argument("--batch", help="JSON file with a list of jobs, run in parallel")
    args = parser.parse_args(argv)

    try:
        if args.batch:
            with open(args.batch, "r", encoding="utf-8") as fh:
                jobs = json.load(fh)
            if not isinstance(jobs, list):
                raise ValidationError("batch file must hold a JSON list of jobs")
            with ProcessPoolExecutor() as pool:
                outcomes = list(pool.map(_run_job_obj, jobs))
            code = max((c for c, _ in outcomes), default=0)
            payload = _dump([o for _, o in outcomes])
            _emit(payload, args.out, args.quiet)
            return code

        obj = {}
        if args.job:
            raw = sys.stdin.read() if args.job == "-" else open(args.job, encoding="utf-8").read()
            obj = json.loads(raw)
        if args.command:
            obj["command"] = args.command
        if args.params:
            obj["params"] = json.loads(args.params)
        if args.field:
            obj["field"] = args.field
        if args.seed is not None:
            obj["seed"] = args.seed
        if args.truncation_cap is not None:
            obj["truncation_cap"] = args.truncation_cap
        code, outcome = _run_job_obj(obj)
        out_path = args.out or outcome.get("out") or (obj.get("out") if isinstance(obj, dict) else None)
        _emit(_dump(outcome), out_path, args.quiet)
        return code
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"gapcurve: {exc}\n")
        return 2


def _emit(payload: str, out_path, quiet: bool):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        if not quiet:
            sys.stdout.write(payload)
    elif not quiet:
        sys.stdout.write(payload)


if __name__ == "__main__":
    sys.exit(main())
