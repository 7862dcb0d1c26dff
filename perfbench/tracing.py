"""Span tracer for the cyclotome benchmark.

``install`` wraps, in place, the public functions, public methods,
properties and cached properties of the six cyclotome modules, plus each
class constructor and the arithmetic operators of ``CycInt``.  Nothing
under ``src/`` is edited: module globals and class attributes are swapped
for wrappers, and ``uninstall`` puts the originals back.

Every call of a wrapped callable records one span (name, start, end,
parent span, op id) in memory.  The benchmark opens a root span ``cli.op``
around each op, so the spans of one op form a tree and the layer self
times of an op sum to its root span.  A few hooks turn arguments and
results into work counts (candidates scanned, pairs enumerated, bytes of
tables) computed here, outside the library.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("fields", "cycint", "charsums", "code", "theorem", "cli")

# Element-level O(1) arithmetic runs millions of times per op (one call per
# pair in f_enumerate, per coordinate in the trace tables).  A span per call
# would multiply the traced run time, so these stay unwrapped and their time
# counts as self time of the caller.
_ELEMENT_LEVEL = {
    "FieldElement": None,  # the whole class
    "FieldTower": {
        "add", "neg", "sub", "mul", "inv", "pow", "zero", "one", "alpha",
        "element", "from_coeffs", "coeffs_of_index", "elements", "dlog",
        "coset_index_of", "coset_index", "trace_to_q", "trace_to_p",
        "trace_to_q_index", "trace_to_p_index", "in_subfield_q",
    },
}

_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__",
)
_OPERATOR_CLASSES = {"CycInt"}

ROOT = "cli.op"


def _table_bytes(value) -> int:
    return len(value) * value.itemsize


def _poly_candidates(args, kwargs, result) -> int:
    """Candidates the lexicographic scan visited: rank of the result plus 1."""
    p = args[0]
    low = result[:-1]
    rank = 0
    for c in low:
        rank = rank * p + c
    return rank + 1


def _tower_tables(args, kwargs, result) -> int:
    return sum(_table_bytes(v) for v in vars(args[0]).values() if isinstance(v, array))


def _brute_units(args, kwargs, result) -> int:
    params = args[0]
    return params.tower.r ** 2 * params.n


def _enumerate_pairs(args, kwargs, result) -> int:
    return args[0].tower.r ** 2


# span name -> (counter, hook(args, kwargs, result) -> amount); runs on normal return
_HOOKS = {
    "fields.find_primitive_polynomial": ("fields.poly_candidates", _poly_candidates),
    "fields.FieldTower.__init__": ("fields.table_bytes", _tower_tables),
    "code.brute_distribution": ("code.brute_units", _brute_units),
    "charsums.f_enumerate": ("charsums.f_enumerate_pairs", _enumerate_pairs),
}

# metric -> (span name, "total" for outermost-span durations or "self")
SPAN_METRICS = {
    "fields.poly_search_s": ("fields.find_primitive_polynomial", "total"),
    "fields.tables_s": ("fields.FieldTower.__init__", "total"),
    "fields.trace_q_s": ("fields.FieldTower.trace_q_table", "total"),
    "fields.trace_p_s": ("fields.FieldTower.trace_p_table", "total"),
    "fields.build_tower_s": ("fields.build_tower", "total"),
    "code.brute_s": ("code.brute_distribution", "total"),
    "code.semi_s": ("code.semi_analytic_distribution", "total"),
    "charsums.char_system_s": ("charsums.CharSystem.__init__", "self"),
    "charsums.f_enumerate_s": ("charsums.f_enumerate", "total"),
    "charsums.f_charsum_s": ("charsums.f_charsum", "total"),
    "charsums.jacobi_sum_s": ("charsums.CharSystem.jacobi_sum", "total"),
    "charsums.gauss_sum_s": ("charsums.CharSystem.gauss_sum", "total"),
    "cycint.mul_s": ("cycint.CycInt.__mul__", "total"),
    "theorem.classify_s": ("theorem.classify", "total"),
    "theorem.table_s": ("theorem.table_distribution", "total"),
    "cli.op_s": (ROOT, "total"),
}

# metric -> span name whose calls are counted
CALL_METRICS = {
    "fields.towers_built": "fields.FieldTower.__init__",
    "cycint.mul_calls": "cycint.CycInt.__mul__",
}

COUNTERS = (
    "fields.poly_candidates",
    "fields.table_bytes",
    "code.brute_units",
    "charsums.f_enumerate_pairs",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory spans and counters; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, outermost]
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._depth: Counter = Counter()
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _enter(self, name: str) -> list:
        self._depth[name] += 1
        rec = [name, 0.0, 0.0, self._stack[-1], self._op, self._depth[name] == 1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()
        self._depth[rec[0]] -= 1

    def call_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` under a root span for op ``op_id``."""
        self._op = op_id
        rec = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(rec)
            self._op = -1

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        in_fields = layer_of(name) == "fields"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if hook is not None:
                tracer.counts[hook[0]] += hook[1](args, kwargs, result)
            if in_fields and isinstance(result, array):
                tracer.counts["fields.table_bytes"] += _table_bytes(result)
            return result

        return traced

    # -- installing the wrappers -------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced callable of ``package``'s six layer modules."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_clear"):
                    wrapped[id(value)] = self._wrap(f"{layer}.{value.__qualname__}", value)
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    self._wrap_class(layer, value)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        skip = _ELEMENT_LEVEL.get(cls.__name__, set())
        if skip is None:
            return
        done: dict[int, object] = {}
        for attr, value in list(vars(cls).items()):
            if attr in skip:
                continue
            public = not attr.startswith("_")
            operator = attr in _OPERATORS and cls.__name__ in _OPERATOR_CLASSES
            if not (public or operator or attr == "__init__"):
                continue
            if isinstance(value, functools.cached_property):
                new = functools.cached_property(self._wrap(f"{layer}.{cls.__name__}.{attr}", value.func))
                new.__set_name__(cls, attr)
            elif isinstance(value, property):
                new = value.getter(self._wrap(f"{layer}.{cls.__name__}.{attr}", value.fget))
            elif isinstance(value, classmethod):
                new = classmethod(self._wrap(f"{layer}.{value.__func__.__qualname__}", value.__func__))
            elif isinstance(value, staticmethod):
                new = staticmethod(self._wrap(f"{layer}.{value.__func__.__qualname__}", value.__func__))
            elif inspect.isfunction(value):
                # aliases such as __rmul__ = __mul__ share one wrapper and one name
                if id(value) not in done:
                    done[id(value)] = self._wrap(f"{layer}.{value.__qualname__}", value)
                new = done[id(value)]
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore = []

    # -- deriving per-layer metrics ----------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``.

        Raises if, for some op, the layer self times do not sum to the
        root span: that would mean a span escaped its op's tree.
        """
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        metrics: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name in SPAN_METRICS:
            metrics[name] = 0.0
        by_span = defaultdict(list)
        for metric, (span, kind) in SPAN_METRICS.items():
            by_span[span].append((metric, kind))
        calls = {span: metric for metric, span in CALL_METRICS.items()}
        for metric in CALL_METRICS:
            metrics[metric] = 0
        metrics["theorem.classify_calls"] = 0
        op_root: dict[int, float] = {}
        op_self: dict[int, float] = defaultdict(float)
        for i, s in enumerate(spans):
            name, _, _, parent, op, outermost = s
            self_time = dur[i] - child[i]
            metrics[f"{layer_of(name)}.self_s"] += self_time
            op_self[op] += self_time
            if parent < 0:
                if name != ROOT or op in op_root:
                    raise RuntimeError(f"span {name} of op {op} has no root")
                op_root[op] = dur[i]
            for metric, kind in by_span.get(name, ()):
                if kind == "self":
                    metrics[metric] += self_time
                elif outermost:
                    metrics[metric] += dur[i]
            if name in calls:
                metrics[calls[name]] += 1
            # classify calls made from another layer: the parameter sets
            # classified, not table_distribution's own re-check
            if name == "theorem.classify" and parent >= 0 and layer_of(spans[parent][0]) != "theorem":
                metrics["theorem.classify_calls"] += 1
        for op, root in op_root.items():
            if abs(op_self[op] - root) > 1e-6:
                raise RuntimeError(f"op {op}: layer self times {op_self[op]} != op span {root}")
        for name in COUNTERS:
            metrics[name] = self.counts.get(name, 0)
        return metrics
