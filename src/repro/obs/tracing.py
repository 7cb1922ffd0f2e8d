"""Trace spans: context-propagated causality for the join/serving pipeline.

A *span* is a named, timed region of work.  Spans nest through a
:mod:`contextvars` variable, so a request handled by the service produces a
single tree — protocol decode → admission wait → coalescer wait → engine
execution (candidate → dedup → sketch-filter → verify) → response write —
correlated by one trace id even as the work hops between the event loop,
the engine thread, and repetition workers.

Design constraints, in order:

1. **Determinism.**  Span and trace ids come from :func:`itertools.count`,
   never from ``random`` — enabling tracing must not perturb the seeded
   randomness that makes pair sets bit-identical across backends/executors.
2. **Near-zero disabled overhead.**  When no tracer is installed,
   :func:`span` returns a shared no-op singleton: one global read, no
   allocation.  Hot loops stay un-instrumented; spans wrap *stages*.
3. **Plain data out.**  An emitted span is one JSON-safe dict; the optional
   sink (:class:`TraceWriter`) writes JSON lines a human — or the
   ``repro-join trace`` CLI — can read directly.

Thread hand-offs do not copy context automatically; code that moves work to
an executor wraps the callable with :func:`contextvars.copy_context` (see
``SimilarityServer._run_on_engine`` and the repetition engine) so child
spans land under the right parent.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Optional

__all__ = [
    "NullSpan",
    "Span",
    "TraceWriter",
    "Tracer",
    "current_span",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "ensure_tracing",
    "event",
    "span",
    "tracer",
]

_CURRENT_SPAN: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

SpanSink = Callable[[Dict[str, Any]], None]


class Span:
    """One timed, named region; a context manager that nests via contextvars."""

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "extra",
        "child_seconds",
        "start_unix",
        "duration_seconds",
        "_start_perf",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: Optional[str],
        parent: Optional["Span"],
        extra: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        if trace_id is not None:
            self.trace_id = trace_id
        elif parent is not None:
            self.trace_id = parent.trace_id
        else:
            self.trace_id = tracer.new_trace_id()
        self.span_id = tracer.new_span_id()
        self.parent_id = parent.span_id if parent is not None else None
        self.extra = extra
        self.child_seconds: Dict[str, float] = {}
        self.start_unix = 0.0
        self.duration_seconds = 0.0
        self._start_perf = 0.0
        self._token: Optional[contextvars.Token] = None

    def annotate(self, **extra: Any) -> None:
        """Attach key/value detail to the span (counts, outcomes, sizes)."""
        self.extra.update(extra)

    @property
    def enabled(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.duration_seconds = time.perf_counter() - self._start_perf
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            parent.child_seconds[self.name] = (
                parent.child_seconds.get(self.name, 0.0) + self.duration_seconds
            )
        if exc_type is not None and "error" not in self.extra:
            self.extra["error"] = getattr(exc_type, "__name__", str(exc_type))
        self.tracer.emit(self._record())

    def _record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_seconds": self.duration_seconds,
        }
        if self.extra:
            record["extra"] = self.extra
        return record


class NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    duration_seconds = 0.0

    @property
    def child_seconds(self) -> Dict[str, float]:
        return {}

    @property
    def enabled(self) -> bool:
        return False

    def annotate(self, **extra: Any) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = NullSpan()


class Tracer:
    """Allocates ids and fans emitted spans out to an optional sink.

    Ids are sequential (``t1``, ``s1``, ...) from :func:`itertools.count`:
    deterministic, cheap, and — critically — independent of the seeded
    ``random`` state the join algorithms rely on.
    """

    def __init__(self, sink: Optional[SpanSink] = None) -> None:
        self.sink = sink
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    def new_trace_id(self) -> str:
        return f"t{next(self._trace_ids)}"

    def new_span_id(self) -> str:
        return f"s{next(self._span_ids)}"

    def emit(self, record: Dict[str, Any]) -> None:
        sink = self.sink
        if sink is not None:
            sink(record)


_TRACER: Optional[Tracer] = None


def enable_tracing(sink: Optional[SpanSink] = None) -> Tracer:
    """Install a process-global tracer (optionally with a span sink)."""
    global _TRACER
    _TRACER = Tracer(sink)
    return _TRACER


def ensure_tracing() -> Tracer:
    """Return the installed tracer, installing a sink-less one if absent.

    Sink-less tracing still builds span trees and per-parent
    ``child_seconds`` breakdowns (the slow-query log needs those) — it just
    writes nothing anywhere.
    """
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer(None)
    return _TRACER


def disable_tracing() -> None:
    global _TRACER
    _TRACER = None


def tracer() -> Optional[Tracer]:
    return _TRACER


def current_span() -> Optional[Span]:
    return _CURRENT_SPAN.get()


def current_trace_id() -> Optional[str]:
    active = _CURRENT_SPAN.get()
    return active.trace_id if active is not None else None


def span(name: str, trace_id: Optional[str] = None, **extra: Any):
    """Open a span under the current context, or a no-op when disabled.

    ``trace_id`` pins the root of a new tree to an externally meaningful id
    (the service uses ``req-<n>`` so spans correlate with request logs);
    child spans inherit their parent's id automatically.
    """
    active = _TRACER
    if active is None:
        return _NULL_SPAN
    return Span(active, name, trace_id, _CURRENT_SPAN.get(), extra)


def event(name: str, **extra: Any) -> None:
    """Emit a zero-duration marker under the current span."""
    active = _TRACER
    if active is None:
        return
    parent = _CURRENT_SPAN.get()
    record: Dict[str, Any] = {
        "trace": parent.trace_id if parent is not None else active.new_trace_id(),
        "span": active.new_span_id(),
        "parent": parent.span_id if parent is not None else None,
        "name": name,
        "start_unix": time.time(),
        "duration_seconds": 0.0,
    }
    if extra:
        record["extra"] = extra
    active.emit(record)


class TraceWriter:
    """A span sink appending JSON lines to a file; safe across threads."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")

    def __call__(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")

    def flush(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()
