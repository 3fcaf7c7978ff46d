import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcurve import cli
from gapcurve.cli import JobSpec, _run_job_obj, main
from gapcurve.errors import ValidationError


def run_job(obj):
    return _run_job_obj(obj)


def quintic_345_job(**extra):
    params = {
        "degree": 5,
        "center": {
            "linear_system": [
                [1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 1],
            ]
        },
    }
    params.update(extra)
    return {"command": "analyze-projection", "field": "Fp:10007", "params": params}


def test_enumerate_types_job():
    code, out = run_job({"command": "enumerate-types", "field": "rational"})
    assert code == 0 and out["ok"]
    assert out["result"]["count"] == 21
    labels = [t["label"] for t in out["result"]["types"]]
    assert "3.2.f" in labels and "3.4" in labels
    node = next(t for t in out["result"]["types"] if t["label"] == "1.2")
    assert node["stratum_codim"] == "1n-2"


def test_classify_series_cusp():
    job = {
        "command": "classify-series",
        "field": "rational",
        "params": {
            "branches": 1,
            "truncation": 12,
            "adjoin_unit": True,
            "vectors": [[[0, 2, 1]], [[0, 3, 1]]],
        },
    }
    code, out = run_job(job)
    assert code == 0
    assert out["result"]["type"] == "1.1"
    assert out["result"]["delta"] == 1


def test_classify_series_validation_error():
    code, out = run_job(
        {
            "command": "classify-series",
            "params": {"branches": 0, "vectors": [[[0, 1, 1]]]},
        }
    )
    assert code == 2 and not out["ok"]


def test_unknown_job_fields_rejected():
    code, out = run_job({"command": "enumerate-types", "bogus": 1})
    assert code == 2
    with pytest.raises(ValidationError):
        JobSpec({"command": "no-such-command"})


@pytest.mark.parametrize("field", ["rational", "Fp:101"])
@pytest.mark.parametrize("literal", ["x", "1/0"])
def test_malformed_literal_is_validation_error(field, literal):
    job = {
        "command": "analyze-projection",
        "field": field,
        "params": {"degree": 5, "center": {"rows": [[1, literal, 0, 0, 0, 0]]}},
    }
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"


_QUINTIC_M = [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
_PINF_TABLE = [[1 if j == k else 0 for j in range(14)] for k in range(6)]


def _model_params(model):
    center = {"linear_system": _QUINTIC_M}
    return {"degree": 5, "center": center, "curve_model": model, "clusters": [["P"]]}


def _sample_params(**extra):
    return {"degree": 8, "dim_center": 3, **extra}


@pytest.mark.parametrize(
    "command,params",
    [
        ("analyze-projection", {"degree": 5, "center": {"rows": 5}}),
        ("analyze-projection", {"degree": 5, "center": {"rows": [5]}}),
        ("classify-series", {"branches": 1, "vectors": [[[0, "2", 1]]]}),
        ("classify-series", {"branches": 1, "vectors": [[[0, 2.5, 1]]]}),
        ("sample-stratum", _sample_params(types=[5])),
        ("sample-stratum", _sample_params(type="1.1", points=5)),
        ("sample-stratum", _sample_params(type="1.1", points=[[1]])),
        ("sample-stratum", _sample_params(type="1.1")),
        ("sample-stratum", _sample_params(types=[{"type": "1.1"}])),
        ("analyze-projection", _model_params(5)),
        ("analyze-projection", _model_params({"expansions": {"P": 5}})),
        ("analyze-projection", _model_params({"dim_w": 1, "expansions": {"P": [[]]}})),
        ("analyze-projection", _model_params({"genus": "x", "expansions": {"P": _PINF_TABLE}})),
    ],
)
def test_malformed_input_shape_is_validation_error(command, params):
    code, out = run_job({"command": command, "field": "rational", "params": params})
    assert code == 2 and out["error"]["kind"] == "ValidationError"


@pytest.mark.parametrize(
    "job",
    [
        {"command": "classify-series", "params": {
            "branches": 1, "vectors": [[[0, 2, 1]]], "adjoin_unit": "no"}},
        quintic_345_job(crosscheck="no"),
        quintic_345_job(certify=7),
        quintic_345_job(degree=True),
        dict(quintic_345_job(), seed=True),
        {"command": "sample-stratum", "field": "Fp:10007",
         "params": _sample_params(dim_center=True, type="1.1", points=[[6, 1]])},
        {"command": "enumerate-types", "out": True},
        {"command": "enumerate-types", "out": 5},
        {"command": "enumerate-types", "schema_version": True},
        {"command": "enumerate-types", "schema_version": 1.0},
        {"command": "enumerate-types", "field": 5},
        {"command": "enumerate-types", "field": None},
        {"command": "enumerate-types", "field": ["rational"]},
    ],
)
def test_json_types_are_strict(job):
    # booleans are JSON booleans, integers are never booleans, out is a path
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"


def test_analyze_projection_quintic():
    code, out = run_job(quintic_345_job())
    assert code == 0
    res = out["result"]
    assert res["delta_total"] == 2
    assert res["clusters"][0]["type"] == "2.1.a"
    assert res["genus_bound"]["holds"] is True
    assert res["hypotheses"]["two_ell_lt_d_minus_2g"] is True


def test_analyze_projection_gate_exit_code():
    job = {
        "command": "analyze-projection",
        "field": "Fp:10007",
        "params": {
            "degree": 5,
            "center": {
                "linear_system": [
                    [1, 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 1, 0],
                    [0, 0, 0, 0, 0, 1],
                ]
            },
        },
    }
    code, out = run_job(job)
    assert code == 3 and not out["ok"]
    assert out["error"]["kind"] == "HypothesisViolationError"


def test_analyze_projection_indeterminate_exit_code():
    rows = []
    for j in range(4):
        row = [0] * 6
        row[j] = 1
        row[j + 2] = -2
        rows.append(row)
    job = {
        "command": "analyze-projection",
        "field": "rational",
        "params": {"degree": 5, "center": {"linear_system": rows}},
    }
    code, out = run_job(job)
    assert code == 4


def _cusp_job(a):
    """A rational center on the tangent line at (a : 1): the image has a cusp there."""
    row = [5 * a**4, 4 * a**3, 3 * a**2, 2 * a, 1, 0]
    return {"command": "analyze-projection", "field": "rational",
            "params": {"degree": 5, "center": {"rows": [row]}}}


def test_rational_root_search_has_no_size_cap():
    code, out = run_job(_cusp_job(10007))
    assert code == 0 and out["result"]["clusters"][0]["points"] == [[10007, 1]]
    # a double root at height 10^12 + 39: its candidate forms have coefficients
    # far above 10^12, and the p-adic lift still finds it
    start = time.monotonic()
    code, out = run_job(_cusp_job(10**12 + 39))
    assert code == 0
    [cluster] = out["result"]["clusters"]
    assert cluster["points"] == [[1000000000039, 1]]
    assert cluster["type"] == "1.1" and cluster["delta"] == 1
    assert time.monotonic() - start < 30


def test_analyze_projection_conjugate_basepoints_over_fp_exit_code():
    # M = (x^2 + y^2) * all sextics: basepoints (+-i : 1) over F_10007^2
    rows = [[1 if k in (j, j + 2) else 0 for k in range(9)] for j in range(7)]
    job = {
        "command": "analyze-projection",
        "field": "Fp:10007",
        "params": {"degree": 8, "center": {"linear_system": rows}},
    }
    code, out = run_job(job)
    assert code == 4 and out["error"]["kind"] == "IndeterminateOverFieldError"


def test_verify_bounds_d_equals_2n():
    n = 3
    d = 2 * n
    system = [[0] * (d + 1) for _ in range(n + 1)]
    system[0][0] = 1
    for i, idx in enumerate(range(n + 1, d + 1)):
        system[i + 1][idx] = 1
    job = {
        "command": "verify-bounds",
        "field": "Fp:10007",
        "params": {"degree": d, "center": {"linear_system": system}},
    }
    code, out = run_job(job)
    assert code == 0
    res = out["result"]
    assert res["hypotheses"]["two_ell_lt_d_minus_2g"] is False
    assert res["genus_bound"]["sigma_delta"] == n + 1
    assert res["genus_bound"]["hypotheses_hold"] is False


def test_sample_stratum_round_trip():
    job = {
        "command": "sample-stratum",
        "field": "Fp:10007",
        "seed": 5,
        "params": {
            "degree": 8,
            "dim_center": 3,
            "type": "2.3",
            "points": [[2, 1], [3, 1], [5, 1]],
            "count": 2,
        },
    }
    code, out = run_job(job)
    assert code == 0
    res = out["result"]
    assert res["clusters"][0]["codim"] == 2 * 5 - 3
    assert res["codim_total"] == 2 * 5 - 3
    assert res["family_dim"] == 3 * 6 - (2 * 5 - 3)
    assert len(res["samples"]) == 2
    # feed the first sample back through analyze-projection
    job2 = {
        "command": "analyze-projection",
        "field": "Fp:10007",
        "params": {"degree": 8, "center": {"rows": res["samples"][0]["rows"]}},
    }
    code2, out2 = run_job(job2)
    assert code2 == 0
    assert [cl["type"] for cl in out2["result"]["clusters"]] == ["2.3"]


def test_sample_stratum_configuration():
    job = {
        "command": "sample-stratum",
        "field": "Fp:10007",
        "seed": 3,
        "params": {
            "degree": 8,
            "dim_center": 3,
            "types": [
                {"type": "1.2", "points": [[2, 1], [9, 1]]},
                {"type": "1.1", "points": [[4, 1]]},
            ],
        },
    }
    code, out = run_job(job)
    assert code == 0
    res = out["result"]
    assert res["codim_total"] == (5 - 2) + (5 - 1)
    job2 = {
        "command": "analyze-projection",
        "field": "Fp:10007",
        "params": {"degree": 8, "center": {"rows": res["samples"][0]["rows"]}},
    }
    code2, out2 = run_job(job2)
    assert code2 == 0
    assert sorted(cl["type"] for cl in out2["result"]["clusters"]) == ["1.1", "1.2"]


def test_analyze_user_curve_model():
    # expansion tables built from the rational quintic at (1:0); manual cluster
    from gapcurve.curve import RationalNormalCurve
    from gapcurve.fields import GF

    F = GF(10007)
    curve = RationalNormalCurve(F, 5)
    inf = curve.point(1, 0)
    table = []
    for k in range(6):
        row = [0] * 6
        row[k] = 1
        table.append([c.value for c in curve.local_expansion(row, inf, 14).coeffs[0]])
    job = {
        "command": "analyze-projection",
        "field": "Fp:10007",
        "params": {
            "degree": 5,
            "center": {
                "linear_system": [
                    [1, 0, 0, 0, 0, 0],
                    [0, 0, 0, 1, 0, 0],
                    [0, 0, 0, 0, 1, 0],
                    [0, 0, 0, 0, 0, 1],
                ]
            },
            "curve_model": {"dim_w": 6, "genus": 0, "expansions": {"Pinf": table}},
            "clusters": [["Pinf"]],
        },
    }
    code, out = run_job(job)
    assert code == 0
    res = out["result"]
    assert res["clusters"][0]["type"] == "2.1.a"
    assert res["clusters"][0]["points"] == ["Pinf"]
    assert res["delta_total"] == 2
    # clusters are mandatory for user models
    bad = json.loads(json.dumps(job))
    del bad["params"]["clusters"]
    code, out = run_job(bad)
    assert code == 2


def _user_model_job(**extra):
    # the rational quintic's monomial expansions at (1:0), t = y/x
    table = [[1 if j == k else 0 for j in range(14)] for k in range(6)]
    model = {"dim_w": 6, "genus": 0, "expansions": {"Pinf": table}}
    return quintic_345_job(curve_model=model, clusters=[["Pinf"]], **extra)


def test_analyze_clusters_need_curve_model():
    job = quintic_345_job(clusters=[["Pinf"]])
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"
    assert "curve_model" in out["error"]["message"]
    code, out = run_job(quintic_345_job(curve_model=None, clusters=[["Pinf"]]))
    assert code == 2 and out["error"]["kind"] == "ValidationError"


def test_analyze_user_model_unknown_point():
    job = _user_model_job()
    job["params"]["clusters"] = [["nope"]]
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"
    job["params"]["clusters"] = [[["Pinf"]]]
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"


@pytest.mark.parametrize("field", ["Fp:10007", "rational"])
@pytest.mark.parametrize("dim_w", [5, 7])
def test_curve_model_width_must_match_center(field, dim_w):
    # before the check: an InternalError over F_p, and over Q a dual-path
    # mismatch (dim_w 5) or a silently wrong ok report (dim_w 7)
    table = [[1 if j == k else 0 for j in range(14)] for k in range(dim_w)]
    job = quintic_345_job(
        curve_model={"dim_w": dim_w, "genus": 0, "expansions": {"Pinf": table}},
        clusters=[["Pinf"]],
    )
    job["field"] = field
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"
    assert "dim_w" in out["error"]["message"]


@pytest.mark.parametrize("field", ["Fp:101", "rational"])
@pytest.mark.parametrize("powers", [[0, 1], [0, 2, 4, 6, 8, 10]], ids=["t0-t1", "t2k"])
def test_rank_deficient_expansion_table_exits_2(field, powers):
    # a nonzero section of a degree-5 model vanishes to order at most 5, so the
    # rows t^0..t^5 of a table have rank dim_w; before the check these tables
    # ended in a dual-path mismatch (exit 1) or a stabilization error (exit 5)
    table = [[int(j == e) for j in range(20)] for e in powers]
    table += [[0] * 20 for _ in range(6 - len(powers))]
    job = {
        "command": "analyze-projection",
        "field": field,
        "params": {
            "degree": 5,
            "center": {"rows": [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]},
            "curve_model": {"dim_w": 6, "expansions": {"P": table}},
            "clusters": [["P"]],
        },
    }
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"
    assert "expansion table at 'P'" in out["error"]["message"]


def test_analyze_user_model_hypothesis_gate():
    job = _user_model_job()
    job["params"]["curve_model"]["genus"] = 1  # ell = 2, d = 5: 2*ell < d - 2g fails
    code, out = run_job(job)
    assert code == 3 and out["error"]["kind"] == "HypothesisViolationError"
    job["params"]["enforce_hypotheses"] = False
    code, out = run_job(job)
    assert code == 0
    assert out["result"]["hypotheses"]["two_ell_lt_d_minus_2g"] is False
    job["command"] = "verify-bounds"
    del job["params"]["enforce_hypotheses"]
    code, out = run_job(job)
    assert code == 0 and out["result"]["genus_bound"]["hypotheses_hold"] is False


def test_fuzz_key_lemma_job():
    job = {
        "command": "fuzz-key-lemma",
        "field": "Fp:101",
        "seed": 9,
        "params": {"count": 10, "max_branches": 2, "max_delta": 3},
    }
    code, out = run_job(job)
    assert code == 0
    assert out["result"]["checked"] == 10
    assert out["result"]["all_hold"] is True


def test_output_determinism():
    from gapcurve.cli import _dump

    code1, out1 = run_job(quintic_345_job())
    code2, out2 = run_job(quintic_345_job())
    assert _dump(out1) == _dump(out2)  # byte-identical serialized reports
    # a sampling command with a fixed seed is just as reproducible
    job = {
        "command": "sample-stratum",
        "field": "Fp:10007",
        "seed": 21,
        "params": {"degree": 8, "dim_center": 3, "type": "1.1", "points": [[6, 1]]},
    }
    assert _dump(run_job(job)[1]) == _dump(run_job(job)[1])


def test_main_with_job_file(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(quintic_345_job()))
    out_path = tmp_path / "report.json"
    code = main(["--job", str(path), "--out", str(out_path), "--quiet"])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["ok"] and payload["result"]["delta_total"] == 2
    assert capsys.readouterr().out == ""


def test_main_positional_command(capsys):
    code = main(["enumerate-types"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["count"] == 21


def test_main_flag_overrides(tmp_path):
    path = tmp_path / "job.json"
    job = quintic_345_job()
    job["field"] = "rational"
    path.write_text(json.dumps(job))
    code = main(["--job", str(path), "--field", "Fp:10007", "--quiet"])
    assert code == 0


def test_main_job_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text("[1]")
    assert main(["enumerate-types", "--job", str(path)]) == 2
    assert "job must be a JSON object" in capsys.readouterr().err


def test_main_out_that_is_not_a_string(tmp_path, capsys):
    # the error report goes to stdout, which stays open
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"out": True}))
    assert main(["enumerate-types", "--job", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["message"] == "out must be a string path"


def test_main_batch(tmp_path, capsys):
    jobs = [
        {"command": "enumerate-types"},
        quintic_345_job(),
        {"command": "enumerate-types", "bogus": True},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(jobs))
    code = main(["--batch", str(path), "--quiet", "--out", str(tmp_path / "out.json")])
    assert code == 2  # worst job dominates
    results = json.loads((tmp_path / "out.json").read_text())
    assert len(results) == 3
    assert results[0]["ok"] and results[1]["ok"] and not results[2]["ok"]


@pytest.mark.parametrize("field", ["rational", "Fp:101"])
def test_center_equal_to_v_is_validation_error(field):
    job = {
        "command": "analyze-projection",
        "field": field,
        "params": {"degree": 5, "center": {"linear_system": []}},
    }
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"
    assert out["error"]["message"] == "center must be a proper subspace of V"


@pytest.mark.parametrize(
    "params",
    [
        {"count": "3"},
        {"count": 2.0},
        {"count": True},
        {"count": -1},
        {"max_branches": 0},
        {"max_branches": False},
        {"max_branches": None},
        {"max_delta": -1},
        {"max_delta": [2]},
    ],
)
def test_fuzz_key_lemma_params_validated(params):
    job = {"command": "fuzz-key-lemma", "field": "Fp:101", "params": params}
    code, out = run_job(job)
    assert code == 2 and out["error"]["kind"] == "ValidationError"


_FUZZ_PARAMS = [{"count": 10}] + [{"max_delta": m} for m in (0, 2, 5, 7)] + [
    {"max_branches": b} for b in (1, 4)
]


@pytest.mark.parametrize("field", ["Fp:3", "Fp:101", "Fp:2147483647", "rational"])
def test_fuzz_skip_never_changes_a_result(monkeypatch, field):
    """A draw whose delta bound exceeds max_delta is skipped before its
    closure; with a bound of 0, which skips nothing, every envelope is the
    same, and so is every lemma check, draw by draw."""
    bounds, checks = [], []
    bound, holds = cli.delta_lower_bound, cli.key_lemma_holds

    def counted(space):
        bounds.append(bound(space))
        return bounds[-1]

    def logged(gap, gamma):
        checks.append((gap.arity, gap.degree(), gamma))
        return holds(gap, gamma)

    jobs = [{"command": "fuzz-key-lemma", "field": field, "seed": seed, "params": p}
            for seed, p in enumerate(_FUZZ_PARAMS)]
    monkeypatch.setattr(cli, "key_lemma_holds", logged)
    monkeypatch.setattr(cli, "delta_lower_bound", counted)
    with_skip = [cli._dump(run_job(job)[1]) for job in jobs]
    kept = list(checks)
    checks.clear()
    monkeypatch.setattr(cli, "delta_lower_bound", lambda space: 0)
    assert [cli._dump(run_job(job)[1]) for job in jobs] == with_skip
    assert checks == kept
    assert all(json.loads(out)["ok"] for out in with_skip)
    assert any(b > 7 for b in bounds)


def test_skipped_fuzz_draws_are_discarded(monkeypatch):
    """On the first 48 jobs of the benchmark's seed-42 fuzz batches, every
    skipped draw, closed, is one the fuzz discards: its degree is not
    certified or exceeds max_delta."""
    from gapcurve.errors import GapcurveError
    from gapcurve.gaps import ALGEBRA_CLOSED, GapFunction, close_algebra

    rng = random.Random(42)
    seeds = []
    while len(seeds) < 48:
        seed = rng.randrange(2**31)
        if seed not in seeds:
            seeds.append(seed)
    skipped = []
    bound = cli.delta_lower_bound

    def recorded(space):
        b = bound(space)
        if b > 4:
            skipped.append(space)
        return b

    monkeypatch.setattr(cli, "delta_lower_bound", recorded)
    for seed in seeds:
        job = {"command": "fuzz-key-lemma", "field": "Fp:101", "seed": seed,
               "params": {"count": 10}}
        assert run_job(job)[1]["result"]["checked"] == 10
    assert len(skipped) > 500
    for space in skipped:
        gap = GapFunction(close_algebra(space), ALGEBRA_CLOSED)
        try:
            delta = gap.degree()
        except GapcurveError:
            continue
        assert delta > 4


def test_fuzz_truncation_above_the_cap_is_validation_error():
    # N = 2*max_delta + 6: the cap is checked before any array is built
    for cap, max_delta in ((64, 30), (64, 2000), (10, 3)):
        job = {"command": "fuzz-key-lemma", "field": "Fp:101", "truncation_cap": cap,
               "params": {"count": 1, "max_delta": max_delta}}
        code, out = run_job(job)
        assert code == 2 and out["error"]["kind"] == "ValidationError"
        message = out["error"]["message"]
        assert f"= {2 * max_delta + 6}," in message and f"truncation_cap {cap}" in message
    job = {"command": "fuzz-key-lemma", "field": "Fp:101", "truncation_cap": 10,
           "params": {"count": 2, "max_delta": 2}}
    code, out = run_job(job)
    assert code == 0 and out["result"]["checked"] == 2


def test_classify_series_truncation_above_the_cap_is_validation_error():
    params = {"branches": 1, "adjoin_unit": True, "vectors": [[[0, 2, 1]], [[0, 3, 1]]]}
    for cap, truncation in ((64, 65), (12, 16), (8, 10**9)):
        job = {"command": "classify-series", "field": "Fp:101", "truncation_cap": cap,
               "params": dict(params, truncation=truncation)}
        code, out = run_job(job)
        assert code == 2 and out["error"]["kind"] == "ValidationError"
        assert out["error"]["message"] == f"truncation {truncation} exceeds truncation_cap {cap}"
    job = {"command": "classify-series", "field": "Fp:101", "truncation_cap": 12,
           "params": dict(params, truncation=12)}
    code, out = run_job(job)
    assert code == 0 and out["result"]["delta"] == 1


def test_fuzz_key_lemma_zero_count():
    job = {"command": "fuzz-key-lemma", "field": "Fp:101", "params": {"count": 0}}
    code, out = run_job(job)
    assert code == 0 and out["result"] == {"checked": 0, "all_hold": True, "failures": []}


def _boom(job):
    raise RuntimeError("boom")


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    monkeypatch.setitem(cli._HANDLERS, "enumerate-types", _boom)
    code, out = run_job({"command": "enumerate-types", "seed": 4})
    assert code == 1 and not out["ok"]
    assert out["error"] == {"kind": "InternalError", "code": 1, "message": "RuntimeError: boom"}
    assert out["command"] == "enumerate-types" and out["seed"] == 4
    assert "in _boom" in capsys.readouterr().err  # the traceback is kept on stderr


class _SerialPool:
    """Stands in for the process pool, so that a patched handler is seen."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_batch_survives_internal_error(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "enumerate-types", _boom)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    jobs = [
        {"command": "fuzz-key-lemma", "field": "Fp:101", "params": {"count": 1}},
        {"command": "enumerate-types"},
        {"command": "fuzz-key-lemma", "field": "Fp:101", "params": {"count": "3"}},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(jobs))
    code = main(["--batch", str(path), "--quiet", "--out", str(tmp_path / "out.json")])
    results = json.loads((tmp_path / "out.json").read_text())
    assert [r["ok"] for r in results] == [True, False, False]
    assert [r["error"]["code"] for r in results[1:]] == [1, 2]
    assert results[1]["error"]["kind"] == "InternalError"
    assert code == 2  # worst job dominates


# hypothesis: arbitrary JSON-like values at the CLI boundary give a clean exit

_scalars = st.one_of(
    st.integers(-3, 3),
    st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    params=st.dictionaries(
        st.sampled_from(["count", "max_branches", "max_delta"]), _values, max_size=3
    )
)
def test_fuzz_key_lemma_params_boundary(params):
    code, out = run_job({"command": "fuzz-key-lemma", "field": "Fp:101", "params": params})
    assert code in {0, 2, 3}, out
    assert out["ok"] == (code == 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    field=st.sampled_from(["rational", "Fp:101"]),
    key=st.sampled_from(["rows", "linear_system", "points"]),
    shape=st.one_of(
        _values,
        st.lists(st.lists(_scalars, max_size=7), max_size=7),
        st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), max_size=6),
    ),
)
def test_center_shape_boundary(field, key, shape):
    job = {
        "command": "analyze-projection",
        "field": field,
        "params": {"degree": 5, "center": {key: shape}},
    }
    code, out = run_job(job)
    # A well-formed center may also meet the curve over an extension (4) or
    # outrun the truncation cap (5): documented verdicts.  Only exit 1, an
    # InternalError, would mean an exception escaped.
    assert code in {0, 2, 3, 4, 5}, out
    assert out["ok"] == (code == 0)


_DELETE = object()


def _mutations(bases, good):
    """A well-formed object from ``bases`` with up to two fields replaced (by a
    value of the right shape, or by arbitrary JSON) or deleted."""

    def apply(args):
        base, changes = args
        out = json.loads(json.dumps(base))
        for key, value in changes:
            if value is _DELETE:
                out.pop(key, None)
            else:
                out[key] = value
        return out

    change = st.sampled_from(sorted(good)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(good[key], _values, st.just(_DELETE)))
    )
    return st.tuples(st.sampled_from(bases), st.lists(change, max_size=2)).map(apply)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    job=_mutations(
        [{"command": "enumerate-types"}],
        {
            "field": st.sampled_from(["rational", "Fp:101", "Fp:4", "Fp:"]),
            "schema_version": st.sampled_from([1, 2]),
            "seed": st.integers(0, 3),
            "truncation_cap": st.integers(3, 64),
            "out": st.just("report.json"),
            "command": st.sampled_from(["enumerate-types", "frobnicate"]),
        },
    )
)
def test_top_level_job_boundary(job):
    # "out" is only read by main, so no file is written here
    code, out = run_job(job)
    assert code in {0, 2}, out
    assert out["ok"] == (code == 0)


_point_pairs = st.lists(st.lists(st.integers(0, 12), min_size=2, max_size=2), max_size=4)
_labels = st.sampled_from(["1.1", "1.2", "2.1.a", "2.2.b", "2.3", "3.1.d", "3.2.f", "3.4", "x"])
_SAMPLE_PARAMS = [
    {"degree": 8, "dim_center": 3, "type": "1.1", "points": [[6, 1]]},
    {"degree": 5, "dim_center": 2, "type": "1.2", "points": [[2, 1], [1, 0]]},
    {"degree": 8, "dim_center": 3, "types": [
        {"type": "1.2", "points": [[2, 1], [9, 1]]}, {"type": "1.1", "points": [[4, 1]]}]},
]
_one_type = st.fixed_dictionaries({"type": _labels, "points": _point_pairs})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    params=_mutations(
        _SAMPLE_PARAMS,
        {
            "degree": st.integers(-1, 8),
            "dim_center": st.integers(-1, 4),
            "type": _labels,
            "points": _point_pairs,
            "types": st.lists(st.one_of(_one_type, _values), max_size=3),
        },
    )
)
def test_sample_stratum_params_boundary(params):
    params["count"] = 1
    code, out = run_job({"command": "sample-stratum", "field": "Fp:10007", "params": params})
    assert code in {0, 2, 3}, out
    assert out["ok"] == (code == 0)


# the quintic's monomial expansions at (0:1), with t = x/y
_P0_TABLE = [[1 if j == 5 - k else 0 for j in range(14)] for k in range(6)]


def _tables(width):
    exact = {"P": [row[:width] for row in _PINF_TABLE], "Q": [row[:width] for row in _P0_TABLE]}
    table = st.lists(
        st.lists(st.integers(-2, 2), min_size=width, max_size=width), min_size=5, max_size=7
    )
    return st.one_of(st.just(exact), st.dictionaries(st.sampled_from(["P", "Q"]), table))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    model=_mutations(
        [{"expansions": {"P": _PINF_TABLE, "Q": _P0_TABLE}}],
        {
            "dim_w": st.integers(0, 7),
            "genus": st.integers(-1, 2),
            "expansions": st.integers(0, 14).flatmap(_tables),
        },
    ),
    clusters=st.sampled_from([[["P"]], [["P", "Q"]], [["P"], ["Q"]]]),
)
def test_curve_model_boundary(model, clusters):
    params = dict(_model_params(model), clusters=clusters)
    code, out = run_job({"command": "analyze-projection", "field": "Fp:101", "params": params})
    assert code in {0, 2, 3, 4, 5}, out
    assert out["ok"] == (code == 0)
