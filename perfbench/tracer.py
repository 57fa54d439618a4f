"""In-memory span tracer that wraps markedgibbs layer functions from outside.

The program has no spans of its own, so the benchmark patches each traced
public function (and every module attribute bound to the same object, since
`cluster`, `gibbsmc` and `cli` import their callees by name) with a wrapper
that records a span: name, parent, start, end. Generator functions get one
span per generator whose duration is the time spent inside `next()`, so the
consumer's work between items stays with the consumer.

Self time of a span is its duration minus the durations of its children, so
the self times of all spans under a root add up to the root's duration.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

_now = time.perf_counter


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    busy: float | None = None  # set for generator spans: time inside next()
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to trace: where it is defined, its span name, and an
    optional hook that turns (args, kwargs, result) into span attributes."""

    module: str
    attr: str
    span: str
    attrs: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, _now(), attrs=dict(attrs)))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span stack out of order: {popped} != {sid}")
        self.spans[sid].end = _now()

    def reset(self):
        self.spans = []
        self._stack = []

    # -- patching ------------------------------------------------------

    def _wrap_function(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if target.attrs is not None:
                target.attrs(tracer.spans[sid].attrs, args, kwargs, result)
            return result
        return wrapper

    def _wrap_generator(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(target.span, parent, _now(), busy=0.0)
            tracer.spans.append(span)
            sid = len(tracer.spans) - 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    t0 = _now()
                    tracer._stack.append(sid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._stack.pop()
                        span.end = _now()
                        span.busy += span.end - t0
                    if target.attrs is not None:
                        target.attrs(span.attrs, args, kwargs, item)
                    yield item
            finally:
                inner.close()
        return wrapper

    def install(self, targets: list[Target]):
        """Patch every targeted function wherever a markedgibbs module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "markedgibbs" or name.startswith("markedgibbs.")]
        for target in targets:
            owner = sys.modules[target.module]
            obj_path = target.attr.split(".")
            holder = owner
            for part in obj_path[:-1]:
                holder = getattr(holder, part)
            original = getattr(holder, obj_path[-1])
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(target, original)
            else:
                wrapped = self._wrap_function(target, original)
            self._patch(holder, obj_path[-1], wrapped)
            if len(obj_path) == 1:
                for mod in modules:
                    if mod is not owner and getattr(mod, target.attr, None) is original:
                        self._patch(mod, target.attr, wrapped)

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]
