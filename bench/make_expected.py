"""Regenerate bench/expected.json: the stored generic-center corpora.

    PYTHONPATH=src python3 bench/make_expected.py

The generic centers of ``fp_large_p`` and ``q_roundtrip`` do not go through
the stratum sampler, so their analysis has no planted answer.  Instead this
script draws them once from a fixed corpus seed, analyzes them, and stores
each center with its canonical per-cluster summary; a benchmark run draws
centers from these corpora by its own seed and compares every report with
the stored summary.  Random rows over F_100003 almost never have a cluster,
so the ``fp_large_p`` corpus also stores stratum members sampled once here,
each kept only if its analysis recovers the planted points and type; that
way the exact comparison also covers points, type, delta and tangent flags
of the large-p scan.  Rerunning it records whatever the current
code answers, so rerun it only when the corpus definition changes, never to
make a failing comparison pass.
"""

from __future__ import annotations

import json
import random

import gapcurve as gc
from workloads import (
    EXPECTED_FILE,
    FP_SHAPES,
    LARGE_P,
    RECOVERED,
    check_planted,
    cluster_summary,
    draw_fp_stratum,
    fp_curves,
)

CORPUS_SEED = 20190527
FP_CENTERS = 300
FP_STRATUM_CENTERS = 60
Q_CENTERS = 200
Q_ENTRY_RANGE = 1  # entries in {-1, 0, 1}: about one center in six has clusters


def _corpus(field, combos, count, draw):
    out = []
    skipped = 0
    i = 0
    while len(out) < count:
        d, ell = combos[i % len(combos)]
        i += 1
        rows = [[draw() for _ in range(d + 1)] for _ in range(ell)]
        curve = gc.RationalNormalCurve(field, d)
        try:
            center = gc.ProjectionCenter.from_rows(field, d, rows)
            if center.ell != ell or not gc.check_center(center, curve).basepoint_free:
                skipped += 1
                continue
            report = gc.analyze(center, curve)
        except gc.GapcurveError:
            skipped += 1
            continue
        out.append({"degree": d, "rows": rows, "clusters": cluster_summary(report)})
    with_clusters = sum(1 for e in out if e["clusters"])
    print(f"{field.name}: {len(out)} centers ({with_clusters} with clusters), {skipped} draws skipped")
    return out


def _stratum_corpus(rng, count):
    curves = fp_curves()
    out = []
    skipped = 0
    while len(out) < count:
        drawn = draw_fp_stratum(rng, curves)
        if drawn is None:
            skipped += 1
            continue
        center, stype, pts = drawn
        report = gc.analyze(center, curves[center.degree])
        if check_planted(report, pts, stype.label, center.ell)[0] != RECOVERED:
            skipped += 1
            continue
        rows = [[center.field.to_json(c) for c in row] for row in center.rows]
        out.append({"degree": center.degree, "rows": rows, "clusters": cluster_summary(report)})
    print(f"{center.field.name}: {len(out)} stratum members, {skipped} draws skipped")
    return out


def main():
    rng = random.Random(CORPUS_SEED)
    fp = _corpus(gc.GF(LARGE_P), FP_SHAPES, FP_CENTERS, lambda: rng.randrange(LARGE_P))
    q = _corpus(gc.QQ, [(5, 2)], Q_CENTERS, lambda: rng.randint(-Q_ENTRY_RANGE, Q_ENTRY_RANGE))
    fp += _stratum_corpus(rng, FP_STRATUM_CENTERS)  # drawn last: the corpora above stay as they were
    data = {
        "corpus_seed": CORPUS_SEED,
        "fp_large_p": {"field": f"Fp:{LARGE_P}", "centers": fp},
        "q_roundtrip": {"field": "rational", "centers": q},
    }
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
