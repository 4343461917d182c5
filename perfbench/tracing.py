"""Span recording around the pipeline's public functions, plus the arithmetic
the benchmark reports (percentiles, self time, per-layer aggregates).

Spans are recorded from outside the package: :func:`install` swaps each
named function or method for a wrapper in every ``ensemble_judge`` module
that holds it, so no package code changes. Spans live in memory as tuples
and are written out once the traced stage ends.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from typing import Callable, Iterable, Sequence

# (span id, parent id or 0, name, start s, end s)
Span = tuple[int, int, str, float, float]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of the child intervals."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span may overlap (worker threads), so the union of their
    intervals is subtracted, not the sum of their durations.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered((start, end), children.get(sid, ()))
        for sid, _parent, _name, start, end in spans
    }


class Tracer:
    """Collects spans and counters from any thread of one traced process.

    A span's parent is the innermost open span on its thread; a span opened
    on a worker thread with nothing open gets the current root span, so pool
    work hangs under the stage that submitted it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a root span that adopts spans from worker threads."""
        sid = next(self._ids)
        previous, self.root = self.root, sid
        self._stack().append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self.root = previous
            self.spans.append((sid, previous, name, start, end))


def install(tracer: Tracer, targets: Sequence[tuple]) -> None:
    """Wrap each target in place.

    A target is ``(owner, attribute, span name[, on_result])``. When the owner
    is a class the method is replaced on the class. When it is a module the
    function is replaced in every loaded ``ensemble_judge`` module that bound
    the same object, so ``from .x import f`` call sites are traced too.
    """
    for owner, attr, name, *hook in targets:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hook[0] if hook else None)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ensemble_judge" and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def aggregate(spans: Sequence[Span]) -> dict[str, dict]:
    """Per span name: call count, total seconds and total self seconds."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for sid, _parent, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own[sid]
    return out
