"""In-memory span recording around the program's public functions.

A span is opened when a wrapped function is entered and closed when it
returns; spans nest on a stack (the program is single-threaded), so each
span knows its parent and the time its direct children covered. A layer's
self time is its duration minus that child time.

Functions are wrapped at the name their caller looks up (for example
``ransnn.readout.encode_sample``, which ``extract_features`` resolves from
the readout module's globals). A site whose module or attribute no longer
exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    call: int  # index of the workload call the span belongs to
    start: float
    parent: "Span | None" = None
    end: float = 0.0
    child_time: float = 0.0
    result: object = None  # kept only for sites that asked for it

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass(frozen=True)
class Site:
    """Where to wrap: module, dotted attribute within it, span name, and
    whether to keep the wrapped function's return value on the span."""

    module: str
    attr: str
    span: str
    keep_result: bool = False


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    missing: set[str] = field(default_factory=set)
    call: int = 0
    _stack: list[Span] = field(default_factory=list)

    def open(self, name: str, now: float | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, call=self.call, parent=parent,
                    start=time.perf_counter() if now is None else now)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span, now: float | None = None) -> None:
        span.end = time.perf_counter() if now is None else now
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_time += span.duration

    def wrap(self, name: str, fn, keep_result: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    span.result = result
                return result
            finally:
                self.close(span)
        return traced

    @contextmanager
    def installed(self, sites):
        """Wrap every site that exists for the duration of the block."""
        undo = []
        try:
            for site in sites:
                target = _resolve(site)
                if target is None:
                    self.missing.add(site.span)
                    continue
                owner, attr, raw = target
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(site.span, raw.__func__, site.keep_result))
                else:
                    new = self.wrap(site.span, raw, site.keep_result)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def drop(self, call: int) -> None:
        """Forget the spans of one workload call (one that failed)."""
        self.spans = [s for s in self.spans if s.call != call]

    def per_call(self, names, value) -> list[float]:
        """value(span) summed over the spans named in names, one entry per
        workload call that was traced."""
        sums = {c: 0.0 for c in self.calls()}
        for s in self.spans:
            if s.name in names:
                sums[s.call] += value(s)
        return [sums[c] for c in sorted(sums)]

    def calls(self) -> set[int]:
        return {s.call for s in self.spans if s.name == "workload"}

    def durations(self, names) -> list[float]:
        return [s.duration for s in self.spans if s.name in names]


def _resolve(site: Site):
    """(owner, attribute, raw value) for a site, or None if it is gone."""
    try:
        owner = importlib.import_module(site.module)
    except ImportError:
        return None
    *path, attr = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        return None
    return owner, attr, raw


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
