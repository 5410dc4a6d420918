"""In-memory span tracing around distqc's public module attributes.

The tracer replaces named functions (and class methods) with thin wrappers
that record one span per call: name, start, end, parent span and the id of
the benchmark instance (one compile or one verdict) that caused it.  Spans
are recorded only while an instance span is open, so warm-up calls and the
benchmark's own checks never count.  A target whose attribute no longer
exists is reported in ``missing`` and simply yields no spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One layer boundary: ``attr`` of ``module`` (``Class.method`` allowed).

    ``count`` maps a call's return value to extra counters, e.g. the number
    of commodities an extraction produced.
    """

    layer: str
    module: str
    attr: str
    count: Callable[[object], dict[str, int]] | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans; None for an instance span
    instance: str
    counts: dict[str, int] | None = None


def interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - interval_union(children[i]) for i, s in enumerate(spans)]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, instance: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if instance is None:
            instance = self.spans[parent].instance
        self.spans.append(Span(name, self.clock(), 0.0, parent, instance))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def instance(self, name: str, instance: str):
        """Open a root span; layer calls inside it are recorded."""
        if self._stack:
            raise RuntimeError("instance spans do not nest")
        index = self._open(name, instance)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(target.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if target.count is not None:
                self.spans[index].counts = target.count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target that exists; remember the names that do not."""
        self.missing = []
        for t in targets:
            module = sys.modules.get(t.module)
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self._wrap(t, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            # a function may also be bound in sibling modules
            # (``from .pushing import normalize_frame``) or as a parameter
            # default (``subsolver=solve_mcf_exact``): rebind every reference
            package = t.module.split(".")[0]
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == package or name.startswith(package + ".")):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, wrapper)
                    fn = getattr(value, "__wrapped__", value)  # may already be traced
                    defaults = getattr(fn, "__defaults__", None)
                    if defaults and any(d is original for d in defaults):
                        rebound = tuple(wrapper if d is original else d for d in defaults)
                        self._patch(fn, "__defaults__", rebound)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------------

    def summary(self, keep: Callable[[str], bool]) -> tuple[dict[str, tuple[float, int]], dict[str, int]]:
        """Over the layer spans of the instances ``keep`` accepts: per layer
        (self seconds, calls), and the summed counters."""
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        counts: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self_times(self.spans)):
            if span.parent is None or not keep(span.instance):
                continue
            totals[span.name][0] += own
            totals[span.name][1] += 1
            for key, value in (span.counts or {}).items():
                counts[key] += value
        return {name: (s, n) for name, (s, n) in totals.items()}, dict(counts)

    def coverage(self, names: set[str]) -> list[float]:
        """Per instance span named in ``names``: share of its wall time that
        layer spans cover."""
        own = self_times(self.spans)
        out = []
        for span, free in zip(self.spans, own):
            if span.parent is None and span.name in names:
                wall = span.end - span.start
                out.append((wall - free) / wall if wall > 0 else 0.0)
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "instance": s.instance, "counts": s.counts}
            for s in self.spans
        ]
