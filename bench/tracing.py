"""Spans and counters around faberfib's public functions, installed from outside.

`Tracer.install()` replaces every binding of a wrapped function in every
faberfib module (so `golden.partial_bell`, `tremblay.solve_schwarz` and
`cli.bound_a2` are wrapped as well as the home definitions) and every
class attribute that aliases a wrapped method (`__rmul__` is the same
function as `__mul__`).  `uninstall()` puts the originals back.

Timed functions record a span (op, span id, parent id, name, start, end)
kept in memory; self time is a span's duration minus that of its child
spans.  The hot ring operations of the exact tower are only counted,
because timing them would cost more than they do.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("exact", "series", "faber", "golden", "tremblay", "bounds", "cli")

# (module, attribute path) -> span or counter name; unlisted public functions
# of a module are timed under "<module>.<function>"
TIMED_METHODS = {
    ("series", "TruncatedSeries.__mul__"): "series.mul",
    ("series", "TruncatedSeries.compose"): "series.compose",
    ("series", "TruncatedSeries.revert"): "series.revert",
    ("series", "TruncatedSeries.reciprocal"): "series.reciprocal",
    ("series", "TruncatedSeries.scaled"): "series.scaled",
    ("exact", "QSqrt5.__float__"): "exact.qsqrt5_float",
}
COUNTED_METHODS = {
    ("exact", "QSqrt5.__mul__"): "exact.qsqrt5_mul",
    ("exact", "QSqrt5.__add__"): "exact.qsqrt5_add",
    ("exact", "ExactComplex.__mul__"): "exact.complex_mul",
    ("exact", "ExactComplex.__add__"): "exact.complex_add",
    ("exact", "Interval.from_qsqrt5"): "exact.interval.from_qsqrt5",
}
BOUND_FUNCTIONS = ("bound_theorem1", "bound_a2", "bound_a3")


def partition_count(n: int, m: int) -> int:
    """Number of partitions of n into exactly m parts."""
    table = [[0] * (m + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for total in range(1, n + 1):
        for parts in range(1, min(total, m) + 1):
            table[total][parts] = table[total - 1][parts - 1] + table[total - parts][parts]
    return table[n][m]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.op_index = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._precision: list[int] = []
        self._installed: list[tuple] = []
        self._partitions = functools.lru_cache(maxsize=None)(partition_count)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn, before=None, after=None):
        tracer = self
        calls, self_time, stack, spans = self.calls, self.self_time, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((tracer.op_index, span_id, parent, name, start, end))
                if after is not None:
                    after()

        return wrapper

    def _counted(self, name: str, fn, before=None):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _on_partial_bell(self, args, kwargs):
        n, m = args[:2] if len(args) >= 2 else (kwargs["n"], kwargs["m"])
        if 1 <= m <= n:
            self.counts["faber.partition_terms"] += self._partitions(n, m)

    def _bound_hooks(self, fn):
        signature = inspect.signature(fn)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._precision.append(bound.arguments["precision"])

        def after():
            self._precision.pop()

        return before, after

    def _on_interval(self, args, kwargs):
        bits = args[2] if len(args) > 2 else kwargs["bits"]
        self.max_bits = max(self.max_bits, bits)
        if self._precision and bits > self._precision[-1]:
            self.counts["bounds.escalations"] += 1

    # -- installation ------------------------------------------------------------

    def _replace_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        package = importlib.import_module("faberfib")
        modules = [package] + [importlib.import_module(f"faberfib.{m}") for m in MODULES]
        for module_name in MODULES:
            module = importlib.import_module(f"faberfib.{module_name}")
            public = getattr(module, "__all__", None) or ["main"]
            for attr in public:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                name = f"{module_name}.{attr}"
                before = after = None
                if attr == "partial_bell":
                    before = self._on_partial_bell
                elif attr in BOUND_FUNCTIONS:
                    before, after = self._bound_hooks(fn)
                self._replace_everywhere(modules, fn, self._timed(name, fn, before, after))
        for table, make in ((TIMED_METHODS, self._timed), (COUNTED_METHODS, self._counted)):
            for (module_name, path), name in table.items():
                cls_name, method = path.split(".")
                cls = getattr(importlib.import_module(f"faberfib.{module_name}"), cls_name)
                raw = vars(cls)[method]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(make(name, raw.__func__, self._on_interval))
                else:
                    wrapper = make(name, raw)
                for attr, value in list(vars(cls).items()):
                    if value is raw:  # the method and each alias of it
                        self._installed.append((cls, attr, value))
                        setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attr, value = self._installed.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        counts = dict(self.calls)
        counts.update(self.counts)
        return {"calls": counts, "self_s": dict(self.self_time), "max_bits": self.max_bits}
