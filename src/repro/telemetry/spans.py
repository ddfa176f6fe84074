"""Structured run tracing: nested spans streamed to an append-only JSONL sink.

A *span* is one timed region of the run — ``run > bracket > rung > trial >
fold > fit`` — with wall-clock and CPU durations, free-form JSON-able
attributes (trial seed, rung budget, gamma, journal sequence number) and
annotations (guard events).  :class:`Tracer` hands out spans as context
managers and maintains the parent stack; :class:`TraceSink` streams each
closed span as one JSON line, so a crash loses at most the spans that were
still open plus one torn final line — which :meth:`TraceSink.read`
tolerates exactly like the run journal tolerates its own torn tail.

The format is deliberately dumb: a ``header`` line followed by ``span``
lines (children may appear *before* their parent, since a parent closes
last), optionally ending in a ``metrics`` snapshot line.
``tools/trace_view.py`` converts a trace file into Chrome-trace/Perfetto
JSON via :func:`repro.telemetry.export.to_chrome_trace`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from .._jsonl import read_log
from ..obs import flightrec as _flightrec

__all__ = ["TRACE_VERSION", "Span", "TraceSink", "Tracer"]

#: On-disk trace format version; bump when the record schema changes.
TRACE_VERSION = 1


class Span:
    """One open span: mutable attributes until the context manager closes it.

    Attributes
    ----------
    span_id, parent_id:
        Sequential identity assigned by the tracer and the enclosing
        span (``None`` for a root span).
    name, kind:
        What the region is (``"trial"``) and which taxonomy lane it
        belongs to (usually equal to ``name``; distinct for custom spans).
    attrs:
        JSON-able facts about the region; mutable while the span is open
        so code can attach results (a fold's score) discovered mid-span.
    annotations:
        List of JSON-able dicts attached to the span — the engine links
        guard events here.
    """

    __slots__ = ("span_id", "parent_id", "name", "kind", "attrs", "annotations", "t0", "cpu0")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        attrs: Dict[str, Any],
        t0: float,
        cpu0: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.annotations: List[Dict[str, Any]] = []
        self.t0 = t0
        self.cpu0 = cpu0

    def annotate(self, payload: Dict[str, Any]) -> None:
        """Attach one JSON-able annotation (e.g. a guard event)."""
        self.annotations.append(payload)


class TraceSink:
    """Append-only JSONL span stream with journal-style torn-tail tolerance.

    Parameters
    ----------
    path:
        Trace file location; parents are created on first write.
    trace_id:
        Optional string stamped into the header as ``trace_id``, which is
        how a whole file of spans is claimed by one cross-process trace
        without per-span overhead.

    Notes
    -----
    The writer is lazy: the file (and its ``header`` line) is only created
    when the first span closes, so constructing a telemetry object is free
    until something actually happens.  Records are flushed, never fsync'd:
    a trace is observability, not the source of truth the run journal is.
    """

    def __init__(
        self,
        path: Union[str, Path],
        trace_id: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.trace_id = trace_id
        self._handle = None
        self.spans_written = 0

    # -- writing ---------------------------------------------------------------

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a compact JSON line (header auto-written).

        Every span written here is also noted in the flight recorder as
        ``span.close`` — the one place a span leaves the process.
        """
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w")
            header: Dict[str, Any] = {
                "type": "header",
                "version": TRACE_VERSION,
                "created_unix": round(time.time(), 3),
                "pid": os.getpid(),
            }
            if self.trace_id is not None:
                header["trace_id"] = self.trace_id
            self._write_line(header)
        self._write_line(record)
        if record.get("type") == "span":
            self.spans_written += 1
            _flightrec.note("span.close", name=record["name"], span=record["id"], dur=record["dur"])

    def _write_line(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the file (idempotent); an unopened sink leaves no file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def read(
        path: Union[str, Path],
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]], int]:
        """Parse a trace file into ``(header, records, n_dropped)``.

        The same reader as :meth:`repro.engine.journal.RunJournal.read`
        (:func:`repro._jsonl.read_log`): parsing stops at the first
        undecodable record and reports how many trailing lines were
        dropped; a missing or wrong-version header raises ``ValueError``.
        """
        return read_log(path, "trace", TRACE_VERSION, ValueError)

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Tracer:
    """Produces nested spans and streams them to a sink as they close.

    Parameters
    ----------
    sink:
        Where closed spans are written: a :class:`TraceSink`, or anything
        else with a ``write(record)`` method (a trial collector's
        in-memory list).  ``None`` disables span recording entirely —
        :meth:`span` then returns a no-op context so call sites stay
        branch-free.
    clock, cpu_clock:
        Injectable wall (monotonic) and CPU clocks; tests pass fakes to
        make span durations deterministic.

    Notes
    -----
    Span ids are sequential integers starting at 1, in *open* order, so
    ids are deterministic for a deterministic schedule even though the
    file holds spans in close order.  The tracer is intentionally
    single-threaded: the engine settles all trials in the parent process,
    and worker-side (fold/fit) spans arrive as records of a collector's
    own tracer, timed relative to its start, that :meth:`emit` grafts
    under their trial span.
    """

    def __init__(
        self,
        sink: Optional[TraceSink] = None,
        clock: Callable[[], float] = time.monotonic,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        self.sink = sink
        self.clock = clock
        self.cpu_clock = cpu_clock
        self._next_id = 1
        self._stack: List[int] = []

    @property
    def enabled(self) -> bool:
        """Whether spans are being recorded at all."""
        return self.sink is not None

    @property
    def current_id(self) -> Optional[int]:
        """Id of the innermost open span (``None`` at top level)."""
        return self._stack[-1] if self._stack else None

    def _allocate(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    # -- span production -------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: Optional[str] = None, **attrs: Any) -> Iterator[Optional[Span]]:
        """Open a child span of the innermost open span.

        Yields the mutable :class:`Span` (or ``None`` when tracing is
        disabled, so ``with tracer.span(...) as s:`` call sites must
        guard attribute writes with ``if s is not None`` — or simply not
        take the target).
        """
        if self.sink is None:
            yield None
            return
        span = Span(
            span_id=self._allocate(),
            parent_id=self.current_id,
            name=name,
            kind=kind if kind is not None else name,
            attrs=dict(attrs),
            t0=self.clock(),
            cpu0=self.cpu_clock(),
        )
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            self._write_span(
                span.span_id,
                span.parent_id,
                span.name,
                span.kind,
                span.t0,
                self.clock() - span.t0,
                self.cpu_clock() - span.cpu0,
                span.attrs,
                span.annotations,
            )

    def emit(
        self,
        name: str,
        kind: str,
        t0: float,
        dur: float,
        cpu_dur: float = 0.0,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
        annotations: Optional[List[Dict[str, Any]]] = None,
        children: Optional[List[Dict[str, Any]]] = None,
        origin: Optional[Dict[str, Any]] = None,
    ) -> Optional[int]:
        """Write one already-timed span (plus optional collected children).

        This is the grafting entry point for spans whose timing happened
        elsewhere — a trial measured by the engine, or the fold/fit span
        records a :class:`~repro.telemetry.collect.TrialCollector`'s tracer
        wrote, whose ``t0`` is relative to the collector's start.
        Children are re-rooted under the new span: their local ids are
        remapped to fresh tracer ids and their ``t0`` offsets are laid
        out inside the tail of the parent span's window (the evaluation
        itself runs at the end of a trial span; the head is queue wait).
        When ``origin`` (``{"pid": ..., "worker": ...}``, stamped by the
        executor that ran the evaluation) is given, each grafted child
        carries it as span attributes — that is what makes the process
        boundary visible in a stitched Chrome trace.

        Returns the new span's id, or ``None`` when tracing is disabled.
        """
        if self.sink is None:
            return None
        span_id = self._allocate()
        if parent_id is None:
            parent_id = self.current_id
        self._write_span(
            span_id, parent_id, name, kind, t0, dur, cpu_dur, attrs or {}, annotations or []
        )
        if children:
            # Worker-relative records are offsets from the collection start;
            # the collection window is the last `window` seconds of the span.
            window = max((child["t0"] + child["dur"] for child in children), default=0.0)
            base = t0 + max(0.0, dur - window)
            # Children arrive in *close* order — a fold closes after its fit
            # spans — so allocate every id before resolving parent links.
            id_map: Dict[int, int] = {child["id"]: self._allocate() for child in children}
            for child in children:
                mapped_parent = id_map.get(child["parent"], span_id)
                child_attrs = dict(child.get("attrs") or {})
                if origin:
                    child_attrs.setdefault("pid", origin.get("pid"))
                    if origin.get("worker") is not None:
                        child_attrs.setdefault("worker", origin.get("worker"))
                self._write_span(
                    id_map[child["id"]],
                    mapped_parent,
                    child["name"],
                    child["kind"],
                    base + child["t0"],
                    child["dur"],
                    child["cpu_dur"],
                    child_attrs,
                    child.get("ann") or [],
                )
        return span_id

    def _write_span(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        t0: float,
        dur: float,
        cpu_dur: float,
        attrs: Dict[str, Any],
        annotations: List[Dict[str, Any]],
    ) -> None:
        record: Dict[str, Any] = {
            "type": "span",
            "id": span_id,
            "parent": parent_id,
            "name": name,
            "kind": kind,
            "t0": round(t0, 6),
            "dur": round(dur, 6),
            "cpu_dur": round(cpu_dur, 6),
        }
        if attrs:
            record["attrs"] = attrs
        if annotations:
            record["ann"] = annotations
        self.sink.write(record)
