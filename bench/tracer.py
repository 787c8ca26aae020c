"""Span recorder for the traced benchmark run.

While installed, the recorder replaces the public functions of every
frozenplanet layer, and the public methods (plus ``__init__`` and
``__call__``) of ``Loop``, ``PairObjective`` and ``ReciprocalIntegral``, with
timing wrappers.  The modules call one another as ``module.func`` and
same-module calls resolve through module globals, so replacing the module
attribute catches cross-layer and intra-module calls alike.  Spans stay in
memory; every original object is put back when the block ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = (
    "loops",
    "levi_civita",
    "elliptic",
    "frozen",
    "helium",
    "solve",
    "detline",
    "serialize",
    "cli",
)
TRACED_CLASSES = {
    "loops": ("Loop",),
    "helium": ("PairObjective",),
    "levi_civita": ("ReciprocalIntegral",),
}

# Counts read from returned objects rather than from span counts.
RETURN_COUNTERS = {
    "solve.newton": lambda rep: {"solve.newton.iterations": rep.iterations},
    "solve.continuation": lambda path: {
        "solve.continuation.steps_accepted": len(path.steps),
        "solve.continuation.steps_rejected": len(path.failures),
    },
    "detline.holonomy": lambda out: {"detline.holonomy.steps": len(out["taus"]) - 1},
}


class Tracer:
    """Spans as ``[name, start, end, parent_index]``; parent -1 is the root."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        on_return = RETURN_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                counters.update(on_return(out))
            return out

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every traced attribute of ``package``'s layers for the block."""
        saved = []
        try:
            for owner, attr, name, fn in traced_attributes(package):
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def traced_attributes(package):
    """``(owner, attribute, span name, original)`` for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, obj in sorted(vars(mod).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out.append((mod, attr, f"{layer}.{attr}", obj))
        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            for attr, obj in sorted(vars(cls).items()):
                if inspect.isfunction(obj) and (
                    not attr.startswith("_") or attr in ("__init__", "__call__")
                ):
                    suffix = "" if attr == "__init__" else f".{attr}"
                    out.append((cls, attr, f"{layer}.{cls_name}{suffix}", obj))
    return out


def self_times(spans):
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[idx]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# per-layer report
# ---------------------------------------------------------------------------

# Spans reported as ``<span>.calls`` and ``<span>.self_s``: the boundaries an
# optimisation of one layer is most likely to move (see bench/README.md).
SPAN_METRICS = (
    "loops.basis_matrix",
    "loops.synthesize",
    "loops.from_coeffs",
    "loops.cube",
    "loops.project",
    "frozen.gradient",
    "frozen.hessian_analytic",
    "frozen.certify",
    "levi_civita.tau_of_t",
    "levi_civita.forward",
    "levi_civita.q_residual",
    "levi_civita.inverse",
    "levi_civita.ReciprocalIntegral",
    "levi_civita.ReciprocalIntegral.solve",
    "levi_civita.ReciprocalIntegral.cumulative",
    "levi_civita.ReciprocalIntegral.q_eval",
    "helium.b_av",
    "helium.b_in",
    "helium.PairObjective.gradient",
    "helium.PairObjective.hessian",
    "helium.PairObjective.admissible",
    "solve.newton",
    "solve.spectrum_report",
    "detline.holonomy",
    "serialize.dumps",
)

# Spans reported as ``<span>.mean_ms``: inclusive time per call, comparable
# with the hand-measured baseline table in ROADMAP.md item 1.
MEAN_METRICS = (
    "frozen.gradient",
    "frozen.hessian_analytic",
    "frozen.certify",
    "levi_civita.forward",
    "levi_civita.ReciprocalIntegral",
    "levi_civita.inverse",
    "detline.holonomy",
    "solve.frozen_step_diagnostics",
    "solve.solve_frozen",
    "helium.PairObjective.hessian",
)

COUNTER_METRICS = (
    "solve.newton.iterations",
    "solve.continuation.steps_accepted",
    "solve.continuation.steps_rejected",
    "detline.holonomy.steps",
)


def _ancestor_named(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics ``{name: (value, unit)}`` of one traced block."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _), own in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        layer_self[name.split(".", 1)[0]] += own

    out = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    for name in SPAN_METRICS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in MEAN_METRICS:
        out[f"{name}.mean_ms"] = (1e3 * _ratio(total_s[name], calls[name]), "ms")
    for name in COUNTER_METRICS:
        out[name] = (tracer.counters[name], "count")

    accepted = tracer.counters["solve.continuation.steps_accepted"]
    rejected = tracer.counters["solve.continuation.steps_rejected"]
    out["solve.continuation.accept_ratio"] = (_ratio(accepted, accepted + rejected), "ratio")
    hessians = calls["helium.PairObjective.hessian"] + calls["frozen.hessian_analytic"]
    out["solve.hessians_per_step"] = (_ratio(hessians, accepted), "ratio")
    grad = "helium.PairObjective.gradient"
    in_hessian = sum(
        1
        for idx, span in enumerate(spans)
        if span[0] == grad and _ancestor_named(spans, idx, "helium.PairObjective.hessian")
    )
    out["helium.hessian_grad_share"] = (_ratio(in_hessian, calls[grad]), "ratio")
    out["helium.tau_of_t_per_b_in"] = (
        _ratio(calls["levi_civita.tau_of_t"], calls["helium.b_in"]),
        "ratio",
    )
    out["trace.spans"] = (len(spans), "count")
    return out
