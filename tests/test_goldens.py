"""Stored CLI reports: the serialized envelope of each job must match its
golden file byte for byte.

The goldens were written from the same job set before the CLI's analyze
route was folded into ``project.analyze``; they pin both analyze routes
(search and user-supplied clusters) and the RNG draw order of the stratum
samplers.  Regenerate only for a deliberate output change:

    PYTHONPATH=src python tests/test_goldens.py
"""

from pathlib import Path

import pytest

from gapcurve.cli import _dump, _run_job_obj

GOLDEN_DIR = Path(__file__).parent / "goldens"

_QUINTIC_SYSTEM = [
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
]


def _quintic(field, **extra):
    params = {"degree": 5, "center": {"linear_system": _QUINTIC_SYSTEM}}
    params.update(extra)
    return {"command": "analyze-projection", "field": field, "params": params}


def _verify_bounds_job():
    n, d = 3, 6
    system = [[0] * (d + 1) for _ in range(n + 1)]
    system[0][0] = 1
    for i, idx in enumerate(range(n + 1, d + 1)):
        system[i + 1][idx] = 1
    return {
        "command": "verify-bounds",
        "field": "Fp:10007",
        "params": {"degree": d, "center": {"linear_system": system}},
    }


# expansions of the monomial basis of the rational quintic at (1:0), t = y/x
_PINF_TABLE = [[1 if j == k else 0 for j in range(14)] for k in range(6)]

JOBS = {
    "analyze_fp": _quintic("Fp:10007"),
    "analyze_fp_certify": _quintic("Fp:10007", certify=True),
    "analyze_rational": _quintic("rational"),
    "verify_bounds": _verify_bounds_job(),
    "classify_series": {
        "command": "classify-series",
        "field": "rational",
        "params": {
            "branches": 1,
            "truncation": 12,
            "adjoin_unit": True,
            "vectors": [[[0, 2, 1]], [[0, 3, 1]]],
        },
    },
    "user_model": _quintic(
        "Fp:10007",
        curve_model={"dim_w": 6, "genus": 0, "expansions": {"Pinf": _PINF_TABLE}},
        clusters=[["Pinf"]],
    ),
    "sample_single": {
        "command": "sample-stratum",
        "field": "Fp:10007",
        "seed": 21,
        "params": {"degree": 8, "dim_center": 3, "type": "1.1", "points": [[6, 1]], "count": 2},
    },
    "sample_configuration": {
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
    },
    "sample_deep_cusp": {
        "command": "sample-stratum",
        "field": "Fp:10007",
        "seed": 7,
        "params": {"degree": 8, "dim_center": 3, "type": "3.1.d", "points": [[3, 1]]},
    },
    "sample_deep_node": {
        "command": "sample-stratum",
        "field": "Fp:10007",
        "seed": 8,
        "params": {"degree": 8, "dim_center": 3, "type": "3.2.f", "points": [[2, 1], [5, 1]]},
    },
    "enumerate_types": {"command": "enumerate-types", "field": "rational"},
}


def _render(name):
    code, envelope = _run_job_obj(JOBS[name])
    assert code == 0, envelope
    return _dump(envelope)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_cli_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert _render(name) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for job_name in sorted(JOBS):
        (GOLDEN_DIR / f"{job_name}.json").write_text(_render(job_name), encoding="utf-8")
