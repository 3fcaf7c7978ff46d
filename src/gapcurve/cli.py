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

Unknown keys are rejected.  Integers and booleans must be JSON integers and
JSON booleans (``true`` is not the integer 1, and ``"no"`` is not false), and
``out`` must be a string.  Output is deterministic for a fixed job: keys
are sorted, rationals serialize as "p/q" strings, prime-field elements as
integers in [0, p).  Exit codes: 0 success, 1 internal error (an unexpected
exception in one job, reported in that job's envelope), 2 validation error,
3 hypothesis violation, 4 indeterminate over the base field, 5 truncation cap
hit.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
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
    delta_lower_bound,
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
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown {where} fields: {sorted(unknown)}")


def _check_int(name: str, value, least=None):
    """The value, if it is a JSON integer (not a boolean) and at least ``least``."""
    floor = "" if least is None else f" >= {least}"
    if isinstance(value, bool) or not isinstance(value, int) or floor and value < least:
        raise ValidationError(f"{name} must be an integer{floor}")
    return value


def _get_bool(params: dict, name: str, default: bool) -> bool:
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be true or false")
    return value


class JobSpec:
    def __init__(self, obj: dict):
        if not isinstance(obj, dict):
            raise ValidationError("job must be a JSON object")
        _check_keys(obj, _TOP_KEYS, "job")
        version = _check_int("schema_version", obj.get("schema_version", SCHEMA_VERSION))
        if version != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema_version {version}")
        command = obj.get("command")
        if command not in COMMANDS:
            raise ValidationError(f"command must be one of {COMMANDS}, got {command!r}")
        self.command = command
        self.field = field_from_name(obj.get("field", "rational"))
        self.seed = _check_int("seed", obj.get("seed", 0))
        self.truncation_cap = _check_int(
            "truncation_cap", obj.get("truncation_cap", TRUNCATION_CAP), 4
        )
        self.out = obj.get("out")
        if self.out is not None and not isinstance(self.out, str):
            raise ValidationError("out must be a string path")
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


def _parse_series_vectors(field, params, cap):
    _check_keys(
        params, {"branches", "truncation", "vectors", "adjoin_unit"}, "classify-series params"
    )
    r = _check_int("branches", params.get("branches"), 1)
    n = _check_int("truncation", params.get("truncation", 16), 2)
    if n > cap:
        raise ValidationError(f"truncation {n} exceeds truncation_cap {cap}")
    vectors = params.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ValidationError("vectors must be a nonempty list")
    amb = Ambient(field, r, n)
    out = []
    for vec in vectors:
        if not isinstance(vec, list):
            raise ValidationError("each vector is a list of terms")
        terms = []
        for term in vec:
            if not isinstance(term, list) or len(term) != 3:
                raise ValidationError("each term is [branch, exponent, coefficient]")
            b, e = _check_int("term branch", term[0]), _check_int("term exponent", term[1])
            if e < n:
                terms.append((b, e, field.from_json(term[2])))
        out.append(TruncatedSeries.from_monomials(amb, terms))
    if _get_bool(params, "adjoin_unit", False):
        out.insert(0, TruncatedSeries.unit(amb))
    return amb, out


def _cmd_classify_series(job: JobSpec):
    amb, vectors = _parse_series_vectors(job.field, job.params, job.truncation_cap)
    # the input is already at fixed precision; escalation past it is capped
    space, closed, gap, delta = close_and_stabilize(
        lambda n: (amb, vectors), amb.truncation, cap=amb.truncation
    )
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
    _check_keys(spec, {"rows", "linear_system", "points"}, "center")
    given = [k for k in ("rows", "linear_system", "points") if k in spec]
    if len(given) != 1:
        raise ValidationError("center needs exactly one of rows/linear_system/points")
    raw = spec[given[0]]
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValidationError(f"center {given[0]} must be a list of lists")
    rows = [[field.from_json(c) for c in row] for row in raw]
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
    dim_w = _check_int("curve_model.dim_w", spec.get("dim_w", degree + 1), 1)
    genus = _check_int("curve_model.genus", spec.get("genus", 0), 0)
    tables = spec.get("expansions")
    if not isinstance(tables, dict) or not tables or not all(
        isinstance(table, list) and all(isinstance(row, list) for row in table)
        for table in tables.values()
    ):
        raise ValidationError("curve_model.expansions must map point names to lists of rows")
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
    degree = _check_int("degree", params.get("degree"), 1)
    center = _parse_center(job.field, degree, params.get("center"))
    curve = _parse_curve_model(job.field, degree, params.get("curve_model"))
    clusters = _parse_clusters(params)
    import random as _random

    return analyze(
        center,
        curve,
        clusters=clusters,
        enforce_hypotheses=_get_bool(params, "enforce_hypotheses", enforce_default),
        crosscheck=_get_bool(params, "crosscheck", True),
        certify=_get_bool(params, "certify", False),
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
    degree = _check_int("degree", params.get("degree"), 1)
    ell = _check_int("dim_center", params.get("dim_center"), 1)
    count = _check_int("count", params.get("count", 1), 1)
    curve = RationalNormalCurve(job.field, degree)

    def parse_spec(entry):
        label, raw = entry.get("type"), entry.get("points")
        if not isinstance(label, str):
            raise ValidationError("type must be a type label")
        if not isinstance(raw, list) or not all(isinstance(q, list) and len(q) == 2 for q in raw):
            raise ValidationError("points must be a list of [a, b] pairs")
        points = [curve.point(job.field.from_json(a), job.field.from_json(b)) for a, b in raw]
        return schubert.stratum_spec(label, points, curve, ell)

    if "types" in params:
        # a configuration: list of {"type": label, "points": [[a, b], ...]}
        if "type" in params or "points" in params:
            raise ValidationError("give either type/points or types, not both")
        if not isinstance(params["types"], list) or not params["types"]:
            raise ValidationError("types must be a nonempty list of {type, points} objects")
        specs = []
        for entry in params["types"]:
            _check_keys(entry, {"type", "points"}, "configuration entry")
            specs.append(parse_spec(entry))
    else:
        specs = [parse_spec(params)]
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
    count = _check_int("count", params.get("count", 50), 0)
    max_branches = _check_int("max_branches", params.get("max_branches", 3), 1)
    max_delta = _check_int("max_delta", params.get("max_delta", 4), 0)
    n = 2 * max_delta + 6
    if n > job.truncation_cap:
        raise ValidationError(
            f"max_delta {max_delta} needs truncation 2*max_delta + 6 = {n}, "
            f"above truncation_cap {job.truncation_cap}"
        )
    import random as _random

    rng = _random.Random(job.seed)
    field = job.field
    checked = 0
    failures = []
    attempts = 0
    while checked < count and attempts < 50 * count:
        attempts += 1
        r = rng.randrange(1, max_branches + 1)
        amb = Ambient(field, r, n)
        vectors = [TruncatedSeries.unit(amb)]
        for i in range(r):
            for e in sorted({rng.randrange(1, 6) for _ in range(rng.randrange(1, 4))}):
                terms = [(i, e, field.from_json(1))]
                if rng.random() < 0.5 and e + 1 < n:
                    terms.append((i, e + 1, field.random_element(rng)))
                vectors.append(TruncatedSeries.from_monomials(amb, terms))
        space = SeriesSubspace.span(amb, vectors)
        if delta_lower_bound(space) > max_delta:
            continue  # not certified, or delta > max_delta: discarded below anyway
        closed = close_algebra(space)
        gap = GapFunction(closed, ALGEBRA_CLOSED)
        try:
            delta = gap.degree()
        except GapcurveError:
            continue
        if delta > max_delta:
            continue
        for gamma in (delta + 1, delta):  # the larger bound's window lines top the other's
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


def _error(exc: Exception):
    """(exit code, error object); anything but a GapcurveError is internal,
    and its traceback goes to stderr."""
    if isinstance(exc, GapcurveError):
        kind, code, message = type(exc).__name__, exc.exit_code, str(exc)
    else:
        sys.stderr.write("".join(traceback.format_exception(exc)))
        kind, code, message = "InternalError", 1, f"{type(exc).__name__}: {exc}"
    return code, {"kind": kind, "code": code, "message": message}


def run(job: JobSpec):
    """Execute one job; returns (exit_code, envelope dict).

    An unexpected exception becomes an ``InternalError`` envelope with exit
    code 1, so that one failing job never aborts a batch.
    """
    try:
        result = _HANDLERS[job.command](job)
    except Exception as exc:
        code, error = _error(exc)
        return code, {
            "schema_version": SCHEMA_VERSION,
            "command": job.command,
            "field": job.field.name,
            "seed": job.seed,
            "ok": False,
            "error": error,
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
    except Exception as exc:
        code, error = _error(exc)
        return code, {"schema_version": SCHEMA_VERSION, "ok": False, "error": error}
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
            if not isinstance(obj, dict):
                raise ValidationError("job must be a JSON object")
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
        out = obj.get("out")
        _emit(_dump(outcome), args.out or (out if isinstance(out, str) else None), args.quiet)
        return code
    except (OSError, json.JSONDecodeError, ValidationError) as exc:
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
