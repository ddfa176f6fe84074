"""Unified telemetry: run tracing and the metrics registry.

The package is zero-dependency (stdlib only) and threads through every
layer of the repo — engine, searchers, evaluator, journal, guard, faults,
CLI — behind a single :class:`Telemetry` facade, attached to the engine
(the one place a run's telemetry lives):

>>> from repro.telemetry import Telemetry
>>> telemetry = Telemetry(trace="run.trace")          # doctest: +SKIP
>>> engine = TrialEngine(telemetry=telemetry)         # doctest: +SKIP
>>> outcome = optimize(..., engine=engine)            # doctest: +SKIP
>>> telemetry.close()                                 # doctest: +SKIP

Two cooperating pieces:

- **Spans** (:mod:`.spans`): nested timed regions
  ``run > bracket > rung > trial > fold > fit`` streamed to a JSONL sink,
  exportable to Chrome-trace/Perfetto JSON (:mod:`.export`,
  ``tools/trace_view.py``).
- **Metrics** (:mod:`.metrics`): counters/gauges/histograms that merge
  deterministically, so serial and parallel runs of the same seed produce
  identical counters.

Each evaluation records into a per-trial collector (:mod:`.collect`) — a
tracer and a registry of the same two classes — whose payload travels
home on the executor's completion record, beside the evaluation result
and never on it, so telemetry is bit-for-bit neutral on run outputs and
on everything persisted.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Union
from pathlib import Path

from .collect import (
    COLLECT_METRICS,
    COLLECT_SPANS,
    TrialCollector,
    current_collector,
    install_collector,
)
from .export import merge_chrome_traces, to_chrome_trace
from .formatting import format_percent, format_seconds
from .metrics import METRICS_SCHEMA_VERSION, HistogramSummary, MetricsRegistry
from .spans import TRACE_VERSION, Span, TraceSink, Tracer

__all__ = [
    "Telemetry",
    "Tracer",
    "TraceSink",
    "Span",
    "TRACE_VERSION",
    "MetricsRegistry",
    "HistogramSummary",
    "METRICS_SCHEMA_VERSION",
    "TrialCollector",
    "install_collector",
    "current_collector",
    "COLLECT_SPANS",
    "COLLECT_METRICS",
    "to_chrome_trace",
    "merge_chrome_traces",
    "format_percent",
    "format_seconds",
]


class Telemetry:
    """One run's telemetry: a tracer, a metrics registry and the wiring.

    Parameters
    ----------
    trace:
        Path for the JSONL span trace; ``None`` disables span recording
        (the registry still collects metrics).
    on_trial:
        Optional callback ``f(telemetry, attrs)`` invoked after every
        trial is recorded — the CLI's live progress line hangs off this.
    trace_id:
        Optional string stamped into the trace file header, claiming
        every span in the file for one cross-process trace (the serve
        daemon passes the job id).
    clock, cpu_clock:
        Injectable clocks for the tracer; the engine stamps trials with
        ``clock`` too.

    Notes
    -----
    A ``Telemetry`` object is **single-run, single-process** on the
    recording side: the engine and searchers call it only from the parent
    process; worker-side observations arrive as collector payloads.
    Close it (or use it as a context manager) to flush the final metrics
    snapshot into the trace file.
    """

    def __init__(
        self,
        trace: Optional[Union[str, Path]] = None,
        on_trial: Optional[Callable[["Telemetry", Dict[str, Any]], None]] = None,
        trace_id: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        self.sink = (
            TraceSink(trace, trace_id=trace_id) if trace is not None else None
        )
        self.tracer = Tracer(self.sink, clock=clock, cpu_clock=cpu_clock)
        self.registry = MetricsRegistry()
        self.on_trial = on_trial
        self.clock = clock
        self.trials_seen = 0
        self._closed = False

    # -- wiring ----------------------------------------------------------------

    @property
    def collection_flags(self) -> int:
        """Bitmask shipped to executors/workers for per-trial collection."""
        flags = COLLECT_METRICS
        if self.tracer.enabled:
            flags |= COLLECT_SPANS
        return flags

    def span(self, name: str, kind: Optional[str] = None, **attrs: Any):
        """Open a structural span (run/bracket/rung) — tracer passthrough."""
        return self.tracer.span(name, kind, **attrs)

    def emit_trial(
        self,
        t0: float,
        dur: float,
        attrs: Optional[Dict[str, Any]] = None,
        cpu_dur: float = 0.0,
        annotations: Optional[List[Dict[str, Any]]] = None,
        payload: Optional[Dict[str, Any]] = None,
        parent_id: Optional[int] = None,
    ) -> None:
        """Record one finished trial: metrics merge + trial span + children.

        The engine calls it per settled outcome, with the collector
        payload its executor completion carried (``None`` for cache hits
        and replays).
        """
        if payload is not None:
            self.registry.merge(payload["registry"])
        self.tracer.emit(
            "trial",
            "trial",
            t0,
            dur,
            cpu_dur=cpu_dur,
            parent_id=parent_id,
            attrs=attrs,
            annotations=annotations,
            children=(payload or {}).get("spans"),
            origin=(payload or {}).get("origin"),
        )
        self.trials_seen += 1
        if self.on_trial is not None:
            self.on_trial(self, attrs or {})

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush the final metrics snapshot into the trace and close it.

        Idempotent.  With tracing off this is a no-op apart from marking
        the object closed; the registry stays readable either way.
        """
        if self._closed:
            return
        self._closed = True
        if self.sink is not None:
            if self.sink.spans_written and len(self.registry):
                self.sink.write({"type": "metrics", **self.registry.as_dict()})
            self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        trace = self.sink.path if self.sink is not None else None
        return (
            f"Telemetry(trace={str(trace)!r}, "
            f"trials_seen={self.trials_seen}, metrics={len(self.registry)})"
        )
