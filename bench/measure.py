"""Measurement primitives for the dualvq benchmark, free of numpy and dualvq.

- ``Tracer`` keeps spans (name, start, end, parent) in memory.
- ``patched`` swaps named functions for span-recording wrappers and always
  puts the originals back.
- ``self_times`` gives each span's duration minus the time its children cover.
- ``percentile`` is a nearest-rank percentile that leaves at least ten
  samples beyond it.
- ``Tally`` counts operations attempted and failed; a failure is recorded,
  never raised.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import re
import time
from dataclasses import dataclass, field

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one process, in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, 0.0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)


def wrap(tracer: Tracer, name: str, fn, annotate=None):
    """``fn`` inside a span called ``name``.

    ``annotate(args, kwargs, result) -> dict`` fills the span's attrs after
    it closes, inside a ``trace.bookkeeping`` span of its own so that its
    cost is not charged to the caller's self time.
    """

    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if annotate is not None:
            with tracer.span("trace.bookkeeping"):
                span.attrs = annotate(args, kwargs, result)
        return result

    return wrapper


def _resolve(path: str):
    """'pkg.mod' or 'pkg.mod.Class' -> the module or class object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Replace each ``(owner_path, attr, span_name[, annotate])`` with a
    span-recording wrapper for the duration of the block.

    The wrapper replaces the name in the module that calls it, since the
    package binds its functions with ``from ... import``. Every original is
    restored on the way out, also when the block raises.
    """
    saved = []
    try:
        for target in targets:
            owner_path, attr, name = target[:3]
            annotate = target[3] if len(target) > 3 else None
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(tracer, name, original, annotate))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def percentile(samples, q: int) -> float:
    """The nearest-rank q-th percentile of ``samples``, refusing sample
    sets that leave fewer than ten samples beyond it."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs) / 100)
    if rank < 1 or len(xs) - rank < TAIL_MIN_BEYOND:
        raise ValueError(f"p{q} of {len(xs)} samples leaves fewer than {TAIL_MIN_BEYOND} beyond")
    return xs[rank - 1]


class Tally:
    """Operations attempted and failed.

    ``check`` records one operation; ``attempt`` runs a call and records it
    only if it raises. Neither lets an exception escape.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{what}: {'; '.join(map(str, problems))}")

    def attempt(self, what: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not raised
            self.record(what, [f"{type(exc).__name__}: {exc}"])
            return None

    def check(self, what: str, fn, *args, **kwargs):
        """Run ``fn`` (returning a list of problems) as one operation."""
        try:
            problems = fn(*args, **kwargs)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        self.record(what, problems)
        return not problems
