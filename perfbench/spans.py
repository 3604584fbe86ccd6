"""Span tracing of the drinfeld package for the traced benchmark run.

`Tracer.install()` wraps every function and method defined in the layer
modules (`LAYERS`) and rebinds each wrapper at every place the original
is bound: the defining module, every `drinfeld.*` module that imported it
with `from .x import name`, and the class for methods. Each call is then a
span whose self time is its duration minus the time of the spans it
caused.

Spans are aggregated per name as they close (calls, self time, items
yielded by generators), because a census makes millions of field calls.
Full records (`RECORD_COLUMNS`) are kept in memory for the spans at most
`MAX_DEPTH` below the request, up to `MAX_RECORDS` of them; the benchmark
process writes them to a file when its requests are done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from functools import cached_property

LAYERS = (
    "fields",
    "apoly",
    "lattices",
    "linalg",
    "extfield",
    "skew",
    "modules",
    "invariants",
    "orders",
    "action",
    "census",
    "serialize",
)

# F_q scalar operations are table lookups that cost less than a span, and
# a census makes tens of millions of them: they stay unwrapped, so their
# time is self time of the calling span and they are not counted
UNSPANNED = frozenset(
    f"fields.Fq.{op}" for op in ("add", "sub", "neg", "mul", "inv", "pow", "_digits", "_encode")
)

# full records are kept for spans this close to the request root, and at
# most this many: a census makes millions of deeper spans
MAX_DEPTH = 3
MAX_RECORDS = 50_000
RECORD_COLUMNS = ("id", "parent", "request", "name", "start", "end")

# functions whose return value is a tri-state outcome worth counting
OUTCOME_OF = {"orders.lin_equiv": lambda result: result[0]}


class Tracer:
    def __init__(self):
        # per span name: [calls, self seconds, items yielded, inclusive seconds]
        self.stats: dict[str, list] = {}
        self.outcomes: dict[str, dict[str, int]] = {}
        # child-time accumulators; slot 0 collects the top-level spans
        self.stack: list[float] = [0.0]
        # span ids of the open spans at depth 0..MAX_DEPTH (0 = request)
        self.ids: list[int] = [0] * (MAX_DEPTH + 1)
        self.records: list[tuple] = []
        self.dropped = 0
        self.next_id = 1
        self.request: str | None = None

    # -- requests --

    def begin_request(self, request_id: str) -> float:
        self.request = request_id
        self.ids[0] = self.next_id
        self.next_id += 1
        self.stack[0] = 0.0
        return time.perf_counter()

    def end_request(self, name: str, start: float) -> float:
        """Close the request span, whose record is kept past the limit;
        returns the traced (attributed) time."""
        end = time.perf_counter()
        self.records.append((self.ids[0], 0, self.request, name, start, end))
        return self.stack[0]

    def _record(self, sid: int, parent: int, name: str, start: float, end: float) -> None:
        if len(self.records) < MAX_RECORDS:
            self.records.append((sid, parent, self.request, name, start, end))
        else:
            self.dropped += 1

    # -- wrappers --

    def _wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, [0, 0.0, 0, 0.0])
        stack = self.stack
        ids = self.ids
        clock = time.perf_counter
        outcome = OUTCOME_OF.get(name)
        counts = self.outcomes.setdefault(name, {}) if outcome else None

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                stat[0] += 1
                while True:
                    depth = len(stack)
                    sid = self._open(depth)
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._close(stat, name, sid, depth, start)
                        return
                    except BaseException:
                        self._close(stat, name, sid, depth, start)
                        raise
                    self._close(stat, name, sid, depth, start)
                    stat[2] += 1
                    yield item

            return gen_wrapper

        # _open and _close inlined: this wrapper runs millions of times
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = len(stack)
            if depth <= MAX_DEPTH:
                sid = self.next_id
                self.next_id += 1
                ids[depth] = sid
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - stack.pop()
                stat[3] += dur
                stack[-1] += dur
                if depth <= MAX_DEPTH:
                    self._record(sid, ids[depth - 1], name, start, end)
            if counts is not None:
                key = outcome(result)
                counts[key] = counts.get(key, 0) + 1
            return result

        return wrapper

    def _open(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            return 0
        sid = self.next_id
        self.next_id += 1
        self.ids[depth] = sid
        return sid

    def _close(self, stat: list, name: str, sid: int, depth: int, start: float) -> None:
        end = time.perf_counter()
        dur = end - start
        stat[1] += dur - self.stack.pop()
        stat[3] += dur
        self.stack[-1] += dur
        if depth <= MAX_DEPTH:
            self._record(sid, self.ids[depth - 1], name, start, end)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNSPANNED:
                continue
            if inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, name))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(val.__func__, name)))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(val.__func__, name)))
            elif isinstance(val, property) and val.fget is not None:
                setattr(cls, attr, property(self._wrap(val.fget, name), val.fset, val.fdel, val.__doc__))
            elif isinstance(val, cached_property):
                new = cached_property(self._wrap(val.func, name))
                new.__set_name__(cls, attr)
                setattr(cls, attr, new)

    def install(self) -> None:
        """Wrap the layer modules of the already importable drinfeld package."""
        replaced: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"drinfeld.{layer}")
            for attr, val in list(vars(mod).items()):
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    replaced[id(val)] = (val, self._wrap(val, f"{layer}.{attr}"))
                elif inspect.isclass(val):
                    self._wrap_class(val, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "drinfeld" and not mod_name.startswith("drinfeld."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    # -- results --

    def summary(self) -> dict:
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0] or v[2]},
            "outcomes": self.outcomes,
            "span_records": len(self.records),
            "span_records_dropped": self.dropped,
        }
