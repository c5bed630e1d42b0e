"""Measurement primitives shared by the workloads.

Nothing here imports the program under test, so the helpers can be
unit-tested on their own:

* :func:`tail_percentile` / :func:`timing_summary` — a timing is a
  median plus the highest percentile that still has at least ten
  samples beyond it, reported with its sample count;
* :class:`SpanRecorder` and :func:`instrument` — the traced run's
  spans, recorded from outside the program by wrapping the methods of
  the objects the benchmark builds or passes in;
* :class:`CheckFailed` / :func:`check` — an output check that fails
  the run.
"""

from __future__ import annotations

import copy
import copyreg
import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A reported percentile must have at least this many samples above it.
MIN_BEYOND = 10


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


def tail_percentile(count: int) -> float | None:
    """Highest percentile of :data:`TAIL_LADDER` with >= 10 samples beyond.

    ``None`` when even the median has fewer than ten samples above it.
    """
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample list."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass(frozen=True)
class TimingSummary:
    """Median and tail of a set of durations (seconds)."""

    count: int
    p50: float
    tail_pct: float | None
    tail: float | None

    def describe(self, scale: float = 1e3, unit: str = "ms") -> str:
        if self.count == 0:
            return "no samples"
        text = f"p50 {self.p50 * scale:.4g} {unit}"
        if self.tail_pct is not None:
            text += f", p{self.tail_pct:g} {self.tail * scale:.4g} {unit}"
        return text + f" (n={self.count})"


def timing_summary(samples) -> TimingSummary:
    """Median plus the highest well-supported percentile of ``samples``."""
    samples = list(samples)
    if not samples:
        return TimingSummary(0, 0.0, None, None)
    pct = tail_percentile(len(samples))
    return TimingSummary(
        count=len(samples),
        p50=percentile(samples, 50.0),
        tail_pct=pct,
        tail=percentile(samples, pct) if pct is not None else None,
    )


# -- spans -----------------------------------------------------------------
@dataclass
class Span:
    """One wrapped call: its layer name, interval and causing span."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    child_seconds: float = 0.0
    result: object = None  # the call's return value, when the recorder keeps it

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part covered by wrapped child calls."""
        return self.seconds - self.child_seconds


@dataclass
class SpanRecorder:
    """Keeps every span of a traced run in memory.

    Spans nest by call stack: the wrapped calls are synchronous, so
    even inside an asyncio daemon one call finishes before the loop can
    start another.  With ``keep_results`` each span also holds its
    call's return value.
    """

    keep_results: bool = False
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=len(self.spans),
            parent_id=parent.span_id if parent else None,
            name=name,
            start=0.0,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if self.keep_results:
                span.result = result
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_seconds += span.seconds

    def wrap(self, fn, name: str):
        """A transparent timed stand-in for the callable ``fn``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return timed

    def by_name(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.name].append(span)
        return grouped


def instrument(obj, methods: dict[str, str], recorder) -> None:
    """Route ``obj``'s methods through ``recorder.call`` under layer names.

    ``obj`` is moved to a subclass of its own class that keeps the
    class name, module and method signatures (``functools.wraps``), so
    code that inspects the object — type names in telemetry, ``isinstance``
    or ``inspect.signature`` checks — sees no difference.  A deep copy
    stays instrumented (an adaptation candidate cloned from a wrapped
    forecaster is timed too); pickling stores the plain class, so a
    checkpoint written from a wrapped object loads without this module.
    """
    base = type(obj)
    namespace: dict = {"__slots__": (), "__module__": base.__module__}
    for method, name in methods.items():
        namespace[method] = _timed_method(getattr(base, method), name, recorder)

    def __deepcopy__(self, memo):
        self.__class__ = base
        try:
            clone = copy.deepcopy(self, memo)
        finally:
            self.__class__ = traced
        clone.__class__ = traced
        return clone

    def __reduce_ex__(self, protocol):
        self.__class__ = base
        try:
            func, args, *rest = self.__reduce_ex__(protocol)
        finally:
            self.__class__ = traced
        if func is copyreg.__newobj__ and args == (base,):
            # pickle rejects __newobj__ for a class other than the
            # object's own; the older reconstructor builds the same
            # plain-class object without that check.
            func, args = copyreg._reconstructor, (base, object, None)
        return (func, args, *rest)

    namespace["__deepcopy__"] = __deepcopy__
    namespace["__reduce_ex__"] = __reduce_ex__
    traced = type(base.__name__, (base,), namespace)
    traced.__qualname__ = base.__qualname__
    obj.__class__ = traced


def _timed_method(method, name: str, recorder):
    @functools.wraps(method)
    def timed(self, *args, **kwargs):
        return recorder.call(name, method, (self,) + args, kwargs)

    return timed
