import json

import pytest

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
