"""In-memory spans recorded around calls into the package's public functions.

The traced run rebinds module attributes (``oscspec.quantize.apply_quantization``
and the like) to wrappers that open a span, call the original and close the
span.  Callers inside the package look these names up on their module at call
time, so rebinding the attribute is enough to see every call; nothing in the
package itself changes.  Stdlib only.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans in call order; ``parent`` is the index of the enclosing span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **info):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), float("nan"), parent, self.op, dict(info))
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap.

    ``annotate(args, kwargs, result)`` returns counts to attach to the span;
    ``peak_memory`` records the tracemalloc peak reached inside the call.
    """

    module: object
    attr: str
    name: str
    annotate: object = None
    peak_memory: bool = False


def _traced(recorder: SpanRecorder, original, target: Target):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(target.name) as span:
            if target.peak_memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            result = original(*args, **kwargs)
            if target.peak_memory:
                span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            if target.annotate is not None:
                span.info.update(target.annotate(args, kwargs, result))
            return result

    return traced


@contextmanager
def instrumented(recorder: SpanRecorder, targets: list[Target]):
    """Rebind every target for the duration of the block, with tracemalloc on
    when a target asks for peak memory; originals are restored on exit."""
    saved = []
    memory = any(t.peak_memory for t in targets) and not tracemalloc.is_tracing()
    if memory:
        tracemalloc.start()
    try:
        for t in targets:
            original = getattr(t.module, t.attr)
            saved.append((t.module, t.attr, original))
            setattr(t.module, t.attr, _traced(recorder, original, t))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        if memory:
            tracemalloc.stop()
