"""Spans and counters around latflow's layers, installed from outside.

Nothing in `src/` is edited. Each traced function is replaced by a wrapper
in every latflow module that binds it, so a call is caught wherever the name
is looked up (`latflow.cli.translate_experiment`, the `curve_eval` global of
`lab.experiments`, the `gram_schmidt` global that `_lll_core` calls, ...).
Methods are wrapped on their class.

Spans are kept in memory as [name, parent index, start, end] and written
once at the end of the pass. A span's self time is its duration minus the
durations of its direct children; the self times of a pass add up to the
durations of its root spans, which are the benchmark's own per-call spans.

Known limit: the Fraction head evaluation of `_flow_stats` (its `embed` and
`sup_of` closures) has no public name, so it runs inside the
`lab.reduction` spans that call it and is counted there. Splitting it out
needs tracing inside the program.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# module -> traced functions; a span is named after the module without its
# "latflow." prefix and the function, e.g. "lab.reduction.enumerate_ball"
FUNCTIONS = {
    "latflow.cli": ("main",),
    "latflow.lab.experiments": ("translate_experiment",),
    "latflow.flows": ("curve_eval", "load_curve"),
    "latflow.lab.reduction": ("reduce_embedded", "gram_schmidt", "sup_first_minimum",
                              "box_count_embedded", "enumerate_ball", "lll_with_transform"),
    "latflow.dioph": ("best_approximations", "w_probe", "probe_singular", "a_ext"),
    "latflow.wedge": ("wedge_matrix", "pfaffian"),
    "latflow.instability": ("kempf_optimum", "min_norm_point"),
    "latflow.rootsys": ("build_root_system", "saturate", "classification_check"),
    "latflow.lab.descent": ("descend_to_vector",),
    "latflow.lab.symplectic": ("residual_check",),
    "latflow.lab.kfield": ("quadratic_subspace_example",),
}

# (module, class, method, span name)
METHODS = [
    ("latflow.lab.experiments", "ExperimentReport", "write_csv", "lab.experiments.write_csv"),
    ("latflow.lab.grids", "Grid3", "__init__", "lab.grids.build"),
    ("latflow.lab.grids", "Grid3", "lambda1_sup", "lab.grids.lambda1_sup"),
    ("latflow.lab.grids", "Grid3", "box_count", "lab.grids.box_count"),
] + [
    ("latflow.exact", "ExactMatrix", m, "exact.matrix")
    for m in ("det", "rref", "inverse", "apply", "__matmul__")
]

# ExactScalar arithmetic is counted, not spanned: it runs millions of times
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")


def _rows(counts, args, kwargs, result):
    counts["lab.experiments.rows"] += len(result.rows)


def _points(counts, args, kwargs, result):
    counts["lab.reduction.enumerate_ball.points"] += len(result)


def _shell(counts, args, kwargs, result):
    # computed from the arguments as (2 qmax + 1)^ell, not counted in the walk
    import numpy as np

    a = args[0]
    qmax = args[1] if len(args) > 1 else kwargs["qmax"]
    ell = a.ncols if hasattr(a, "ncols") else np.asarray(a).shape[1]
    counts["dioph.shell_points"] += (2 * qmax + 1) ** ell
    counts["dioph.records"] += len(result)


def _cells(counts, args, kwargs, result):
    import numpy as np

    grid = args[0]
    k = int(max(np.abs(grid.b_lam).max(initial=0), np.abs(grid.b_box).max(initial=0)))
    counts["lab.grids.cells"] += (2 * k + 1) ** 2


# counters updated from a span's arguments and result
HOOKS = {
    "lab.experiments.translate_experiment": _rows,
    "lab.reduction.enumerate_ball": _points,
    "dioph.best_approximations": _shell,
    "lab.grids.build": _cells,
}


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and method of the loaded latflow."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "latflow" or name.startswith("latflow.")]
        for mod_name, attrs in FUNCTIONS.items():
            for attr in attrs:
                name = f"{mod_name.removeprefix('latflow.')}.{attr}"
                orig = getattr(sys.modules[mod_name], attr)
                wrapped = self.wrap(name, orig, HOOKS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], HOOKS.get(name)))
        scalar = sys.modules["latflow.exact"].ExactScalar
        for attr in SCALAR_OPS:
            setattr(scalar, attr, self.count("exact.scalar_ops", vars(scalar)[attr]))


# -- per-layer metrics --------------------------------------------------------

# span name -> the metrics reported for it: calls (span count), s (time of
# the outermost spans of that name) or self_s; each becomes "<span>.<kind>"
SPAN_KINDS = {
    "cli.main": ("calls", "self_s"),
    "lab.experiments.translate_experiment": ("calls", "self_s"),
    "lab.experiments.write_csv": ("s",),
    "flows.curve_eval": ("calls", "s"),
    "flows.load_curve": ("s",),
    "lab.grids.build": ("calls", "s"),
    "lab.grids.lambda1_sup": ("calls", "s"),
    "lab.grids.box_count": ("calls", "s"),
    "lab.reduction.reduce_embedded": ("calls", "s"),
    "lab.reduction.sup_first_minimum": ("s",),
    "lab.reduction.box_count_embedded": ("s",),
    "lab.reduction.enumerate_ball": ("calls", "s"),
    "dioph.best_approximations": ("calls", "s"),
    "dioph.w_probe": ("s",),
    "dioph.probe_singular": ("s",),
    "dioph.a_ext": ("s",),
    "exact.matrix": ("calls", "s"),
    "wedge.wedge_matrix": ("calls", "s"),
    "wedge.pfaffian": ("calls", "s"),
    "instability.kempf_optimum": ("calls", "s"),
    "instability.min_norm_point": ("s",),
    "rootsys.build_root_system": ("s",),
    "rootsys.saturate": ("s",),
    "rootsys.classification_check": ("s",),
    "lab.descent.descend_to_vector": ("s",),
    "lab.symplectic.residual_check": ("s",),
    "lab.kfield.quadratic_subspace_example": ("s",),
}
SPAN_METRICS = {f"{span}.{kind}": (span, kind)
                for span, kinds in SPAN_KINDS.items() for kind in kinds}

COUNT_METRICS = ("lab.experiments.rows", "lab.grids.cells",
                 "lab.reduction.enumerate_ball.points", "dioph.shell_points",
                 "dioph.records", "exact.scalar_ops")

# a layer is the module part of a span name; "call" is the benchmark's own
# per-call span, whose self time is work outside every traced function
LAYERS = ("call", "cli", "lab.experiments", "flows", "lab.grids", "lab.reduction",
          "dioph", "exact", "wedge", "instability", "rootsys", "lab.descent",
          "lab.symplectic", "lab.kfield")


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def self_times(spans: List[list]) -> List[float]:
    out = [s[3] - s[2] for s in spans]
    for name, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def pass_metrics(spans: List[list], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    incl: Counter = Counter()
    own: Counter = Counter()
    layer_self: Counter = Counter()
    sweeps = 0
    for i, (name, parent, start, end) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        layer_self[layer_of(name)] += selfs[i]
        if not _has_ancestor(spans, i, name):
            incl[name] += end - start
        if name == "lab.reduction.gram_schmidt" and _has_ancestor(
                spans, i, "lab.reduction.reduce_embedded"):
            sweeps += 1
    table = {"calls": calls, "s": incl, "self_s": own}
    out = {metric: float(table[kind][span]) for metric, (span, kind) in SPAN_METRICS.items()}
    out["lab.reduction.lll_sweeps"] = float(sweeps)
    for name in COUNT_METRICS:
        out[name] = float(counts.get(name, 0))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(layer_self[layer])
    out["trace.spans"] = float(len(spans))
    out["trace.self_sum_s"] = float(math.fsum(selfs))
    return out


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
