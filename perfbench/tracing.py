"""In-memory tracer for one benchmark pass.

`install()` wraps every public function of the convalg modules at every
name it is bound under (a function imported into `cli` from `certify` is
replaced in both places), plus the methods `WeightFn.eval` and
`PrueferGroup.subgroup_elements`.  Nothing under `src/` changes: the
wrappers are put in place from here, after `import convalg`, and live only
in this process.

Two kinds of record are kept, all in memory until `write()`:

* spans for the functions whose single calls matter (checks, `conv_at`,
  commands, classifiers): name, weight type, start, duration, self time and
  the index of the enclosing span;
* counters for the hot leaves (`groups.*`, `rational.*`, `intervals.*`,
  `WeightFn.eval`, quadrature panels): calls, inclusive and self time.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  `metrics()` turns the records into the per-layer metrics named
in `METRICS`.
"""

from __future__ import annotations

import json
import statistics
import types
from collections import Counter
from time import perf_counter

# per-layer metrics, in the order they are printed
METRICS = (
    ("convolution.layer.self_s", "s"),
    ("convolution.rationals.self_s", "s"),
    ("convolution.sum.self_s", "s"),
    ("convolution.point_ms.p50", "ms"),
    ("convolution.point_ms.p99", "ms"),
    ("convolution.conv_at.calls", "count"),
    ("convolution.conv_at.distinct_ratio", "ratio"),
    ("convolution.layer.distinct_ratio", "ratio"),
    ("groups.add.calls", "count"),
    ("groups.add.self_s", "s"),
    ("groups.layer_of.calls", "count"),
    ("groups.layer_of.self_s", "s"),
    ("groups.subgroup_elements.points", "count"),
    ("weights.eval.calls", "count"),
    ("weights.eval.self_s", "s"),
    ("certify.check_b.s", "s"),
    ("certify.check_b.points", "count"),
    ("certify.other.s", "s"),
    ("sequences.sigma_constant.s", "s"),
    ("sequences.countex.s", "s"),
    ("quadrature.beurling.s", "s"),
    ("quadrature.conv_ratio.s", "s"),
    ("quadrature.panel_integral.calls", "count"),
    ("domar.partial.s", "s"),
    ("domar.classify.s", "s"),
    ("serialize.dumps.s", "s"),
    ("serialize.load.s", "s"),
    ("serialize.bytes", "count"),
    ("trace.overhead_s", "s"),
)

# modules whose functions are counted as leaves, not recorded as spans
_LEAF_MODULES = {"groups", "rational", "intervals"}
_LEAF_FUNCTIONS = {"formulas.as_number", "formulas.builtin_weight",
                   "quadrature.panel_integral", "quadrature.composite_integral",
                   "serialize.point_to_json", "serialize.descriptor_to_json",
                   "certificates.window_info", "certificates.worst_verdict"}

# inclusive-time groups: a call adds its duration unless an enclosing call
# of the same group is already open (so nested calls are not counted twice)
_GROUPS = {
    "certify.check_b": "certify.check_b.s",
    "certify.check_positivity": "certify.other.s",
    "certify.check_evenness": "certify.other.s",
    "certify.check_poly_decay": "certify.other.s",
    "certify.ess_inf_check": "certify.other.s",
    "certify.check_submultiplicative": "certify.other.s",
    "sequences.sigma_subconvolutive_constant": "sequences.sigma_constant.s",
    "sequences.build_q_sequence": "sequences.countex.s",
    "sequences.check_q_fractional_bound": "sequences.countex.s",
    "sequences.q_fractional_interval": "sequences.countex.s",
    "sequences.countex_divergence_lower_bound": "sequences.countex.s",
    "quadrature.beurling_integral": "quadrature.beurling.s",
    "quadrature.circle_conv_ratio": "quadrature.conv_ratio.s",
    "quadrature.line_conv_ratio": "quadrature.conv_ratio.s",
    "domar.domar_partial": "domar.partial.s",
    "domar.domar_classify": "domar.classify.s",
    "serialize.canonical_dumps": "serialize.dumps.s",
    "serialize.weight_from_provenance": "serialize.load.s",
    "serialize.certificate_from_json": "serialize.load.s",
    "serialize.point_from_json": "serialize.load.s",
    "serialize.descriptor_from_json": "serialize.load.s",
}

_WEIGHT_KINDS = {"LayerWeight": "layer", "RationalsLayerWeight": "rationals",
                 "DirectSumWeight": "sum", "EuclideanWeight": "euclidean",
                 "ProductWeight": "product", "AlgebraWeight": "algebra",
                 "FormulaWeight": "formula"}


def _weight_kind(args) -> str | None:
    if args:
        return _WEIGHT_KINDS.get(type(args[0]).__name__)
    return None


class Tracer:
    """Span and counter records for one process; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []       # [name, kind, start, dur, self, parent]
        self.leaves: dict[str, list] = {}  # name -> [calls, inclusive, self]
        self.groups: Counter = Counter()   # group -> inclusive seconds
        self.counts: Counter = Counter()   # extra counts (points, bytes)
        self.conv_keys: list[tuple] = []   # (kind, key) per conv_at call
        self._stack: list[list] = []       # open calls: [child_time, span_index]
        self._open_groups: Counter = Counter()
        self._origin = perf_counter()

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, leaf: bool):
        group = _GROUPS.get(name)
        stack = self._stack
        open_groups = self._open_groups
        tracer = self

        if leaf:
            entry = self.leaves.setdefault(name, [0, 0.0, 0.0])
            points = name == "groups.subgroup_elements"

            def leaf_wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += dur - frame[0]
                if points:
                    tracer.counts[name + ".points"] += len(result)
                return result

            leaf_wrapper.__wrapped__ = fn
            return leaf_wrapper

        def span_wrapper(*args, **kwargs):
            kind = _weight_kind(args)
            parent = stack[-1][1] if stack else None
            index = len(tracer.spans)
            record = [name, kind, 0.0, 0.0, 0.0, parent]
            tracer.spans.append(record)
            frame = [0.0, index]
            stack.append(frame)
            if group:
                open_groups[group] += 1
            if name == "convolution.conv_at":
                tracer.conv_keys.append((kind, (id(args[0]), args[1], args[2])))
            elif name == "certify.check_b":
                tracer.counts["certify.check_b.points"] += len(args[1].points)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                record[2] = t0 - tracer._origin
                record[3] = dur
                record[4] = dur - frame[0]
                if group:
                    open_groups[group] -= 1
                    if not open_groups[group]:
                        tracer.groups[group] += dur
            if name == "serialize.canonical_dumps":
                tracer.counts["serialize.bytes"] += len(result.encode())
            return result

        span_wrapper.__wrapped__ = fn
        return span_wrapper

    # ------------------------------------------------------------------
    def install(self, package) -> None:
        """Wrap convalg's public functions at every binding, and the methods
        whose call counts the per-layer metrics need."""
        modules = [m for m in vars(package).values()
                   if isinstance(m, types.ModuleType) and m.__name__.startswith(package.__name__ + ".")]
        namespaces = [vars(package)] + [vars(m) for m in modules]
        wrappers: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    module = name.split(".", 1)[0]
                    leaf = module in _LEAF_MODULES or name in _LEAF_FUNCTIONS
                    wrapper = wrappers[id(obj)] = self.wrap(name, obj, leaf)
                ns[attr] = wrapper
        groups = package.groups
        weights = package.weights
        for cls, attr, name in ((weights.WeightFn, "eval", "weights.eval"),
                                (groups.PrueferGroup, "subgroup_elements", "groups.subgroup_elements")):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), leaf=True))

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far (trace.overhead_s
        is filled in by the caller, which has the untraced time)."""
        out = {}
        conv_self = Counter()
        point_ms = []
        for name, kind, _start, dur, self_t, parent in self.spans:
            if name != "convolution.conv_at":
                continue
            conv_self[kind] += self_t
            if parent is None or self.spans[parent][0] != "convolution.conv_at":
                point_ms.append(dur * 1e3)
        out["convolution.layer.self_s"] = float(conv_self["layer"])
        out["convolution.rationals.self_s"] = float(conv_self["rationals"])
        out["convolution.sum.self_s"] = float(conv_self["sum"])
        out["convolution.point_ms.p50"] = statistics.median(point_ms) if point_ms else 0.0
        out["convolution.point_ms.p99"] = _percentile(point_ms, 99)
        calls = len(self.conv_keys)
        layer_keys = [key for kind, key in self.conv_keys if kind == "layer"]
        out["convolution.conv_at.calls"] = calls
        out["convolution.conv_at.distinct_ratio"] = (
            len(set(self.conv_keys)) / calls if calls else 0.0)
        out["convolution.layer.distinct_ratio"] = (
            len(set(layer_keys)) / len(layer_keys) if layer_keys else 0.0)
        for leaf, metric in (("groups.add", "groups.add"),
                             ("groups.layer_of", "groups.layer_of"),
                             ("weights.eval", "weights.eval")):
            calls_, _incl, self_t = self.leaves.get(leaf, (0, 0.0, 0.0))
            out[f"{metric}.calls"] = calls_
            out[f"{metric}.self_s"] = self_t
        out["groups.subgroup_elements.points"] = self.counts["groups.subgroup_elements.points"]
        out["certify.check_b.points"] = self.counts["certify.check_b.points"]
        out["quadrature.panel_integral.calls"] = self.leaves.get(
            "quadrature.panel_integral", (0,))[0]
        out["serialize.bytes"] = self.counts["serialize.bytes"]
        for group in set(_GROUPS.values()):
            out[group] = float(self.groups[group])
        return out

    def write(self, path) -> None:
        """All spans and counters as JSON lines."""
        with open(path, "w") as fh:
            for name, kind, start, dur, self_t, parent in self.spans:
                fh.write(json.dumps({"span": name, "weight": kind, "start_s": start,
                                     "dur_s": dur, "self_s": self_t, "parent": parent}) + "\n")
            for name, (calls, incl, self_t) in sorted(self.leaves.items()):
                if calls:
                    fh.write(json.dumps({"leaf": name, "calls": calls, "incl_s": incl,
                                         "self_s": self_t}) + "\n")
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": value}) + "\n")


def _percentile(values: list, pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
