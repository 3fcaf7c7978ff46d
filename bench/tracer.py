"""Outside-in span tracer for the gapcurve modules.

The tracer wraps functions from outside the package, so the program under
test is unchanged.  Every public module-level function of each layer (the
modules of ``src/gapcurve`` except ``fields``, whose element arithmetic is
too fine-grained to time and is attributed to its callers) plus a few hot
methods is replaced by a timing wrapper.  A name is replaced wherever it is
looked up at call time: modules that did ``from .gaps import close_algebra``
hold their own binding, so every module namespace that binds the same
function object is patched, not only the defining one.

A span is opened where a call crosses from one layer into another, and at
every call of a function whose self time is reported by name; other calls
within a layer are counted, but their time stays in the calling span.  Spans
are kept in memory as a stack of open spans.  A span's self time is its
duration minus the durations of its direct child spans, so it is time spent
in that layer.  Each operation of the workload is one root span, so the self
times of all layers plus the unattributed root time add up to the traced op
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

import gapcurve

LAYERS = ("project", "gaps", "series", "linalg", "binforms", "classify", "schubert", "curve", "cli")

# hot methods traced on their class, in addition to the module-level functions
METHODS = {
    "gaps": ("GapFunction.__call__",),
    "curve": ("RationalNormalCurve.local_expansion", "Multifiltration.subspace_rows"),
}

# traced functions whose calls and self time are reported by name
_TIMED = (
    "project.find_ramification",
    "project.check_center",
    "project.analyze_at_points",
    "binforms.form_gcd",
    "binforms.resultant_in_q",
    "binforms.projective_roots",
    "gaps.close_algebra",
    "gaps.close_and_stabilize",
    "linalg.intersection_dim",
    "linalg.rref",
    "linalg.batch_inverse",
    "curve.Multifiltration.subspace_rows",
    "series.quotient_dim",
    "classify.classify_ring",
    "classify.classify_vector_space",
    "curve.RationalNormalCurve.local_expansion",
    "schubert.sample_center",
    "schubert.stratum_spec",
)


class Tracer:
    """Installs the wrappers once and aggregates spans and counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.op_seconds = 0.0
        self._open: list[list] = []

    # -- spans ----------------------------------------------------------------

    def _timed(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        layer = name.split(".")[0]
        named = name in _TIMED
        open_spans = self._open  # [layer, child seconds] per open span
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if not open_spans or (open_spans[-1][0] == layer and not named):
                return fn(*args, **kwargs)
            span = [layer, 0.0]
            open_spans.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                open_spans.pop()
                stat[1] += dur - span[1]
                open_spans[-1][1] += dur

        return wrapper

    def op(self, fn, *args):
        """Run one workload op as a root span; returns its result."""
        self._open.append(["op", 0.0])
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.op_seconds += time.perf_counter() - t0
            self._open.pop()

    # -- counters measured at the same boundaries -----------------------------

    def _counting(self, name, fn):
        counts = self.counts
        if name == "gaps.GapFunction.__call__":

            def inner(gap, alpha):
                counts["evals"] += 1
                counts["memo_hits"] += tuple(alpha) in gap._memo
                return fn(gap, alpha)

        elif name == "gaps.close_algebra":

            def inner(space):
                counts["close_algebra.dim_in"] += space.dim
                out = fn(space)
                counts["close_algebra.dim_out"] += out.dim
                return out

        elif name == "gaps.close_and_stabilize":

            def inner(builder, *args, **kwargs):
                tries = 0

                def counted(n):
                    nonlocal tries
                    tries += 1
                    return builder(n)

                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    counts["close_and_stabilize.escalations"] += max(tries - 1, 0)
                    counts["close_and_stabilize.first_try"] += tries == 1

        elif name == "project.find_ramification":

            def inner(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts["find_ramification.clusters"] += len(out)
                return out

        else:
            return fn
        return functools.wraps(fn)(inner)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every traced function in every namespace that binds it (once
        per process: a second tracer would wrap the first one's wrappers)."""
        targets = {}  # id(original) -> (name, original)
        for layer in LAYERS:
            mod = importlib.import_module(f"gapcurve.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                name = f"{layer}.{qual}"
                setattr(cls, meth, self._timed(name, self._counting(name, vars(cls)[meth])))
        wrapped = {
            key: self._timed(name, self._counting(name, fn)) for key, (name, fn) in targets.items()
        }
        modules = [gapcurve] + [
            importlib.import_module(f"gapcurve.{info.name}")
            for info in pkgutil.iter_modules(gapcurve.__path__)
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and targets[id(obj)][1] is obj:
                    setattr(mod, attr, wrapped[id(obj)])

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values from the spans and counters (no cli/trace/schubert
        harness values; the caller adds those)."""
        out = {}
        for name in _TIMED:
            calls, self_s = self.stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        c = self.counts
        ca_calls = self.stats.get("gaps.close_algebra", (0, 0.0))[0]
        cs_calls = self.stats.get("gaps.close_and_stabilize", (0, 0.0))[0]
        evals = c["evals"]
        out["project.find_ramification.clusters"] = c["find_ramification.clusters"]
        out["gaps.close_algebra.dim_in"] = c["close_algebra.dim_in"] / ca_calls if ca_calls else 0.0
        out["gaps.close_algebra.dim_out"] = c["close_algebra.dim_out"] / ca_calls if ca_calls else 0.0
        out["gaps.close_and_stabilize.escalations"] = c["close_and_stabilize.escalations"]
        out["gaps.close_and_stabilize.first_try_ratio"] = (
            c["close_and_stabilize.first_try"] / cs_calls if cs_calls else 0.0
        )
        out["gaps.GapFunction.evals"] = evals
        out["gaps.memo_hit_ratio"] = c["memo_hits"] / evals if evals else 0.0
        for layer in LAYERS:
            calls = sum(s[0] for n, s in self.stats.items() if n.split(".")[0] == layer)
            self_s = sum(s[1] for n, s in self.stats.items() if n.split(".")[0] == layer)
            out[f"layer.{layer}.calls"] = calls
            out[f"layer.{layer}.self_s"] = self_s
            out[f"layer.{layer}.share"] = self_s / self.op_seconds if self.op_seconds else 0.0
        return out
