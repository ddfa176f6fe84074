"""Worker-side telemetry collection that rides evaluation results home.

Worker processes cannot write to the parent's tracer or registry, and the
executor pipes already carry exactly one object per trial: the
:class:`~repro.bandit.base.EvaluationResult`.  So collection works like
this:

1. The executor gives each evaluation a :class:`TrialCollector`, which
   :func:`install_collector` makes discoverable via
   :func:`current_collector` around every phase touching that trial.
2. Instrumented code (the evaluator's folds and fits) records
   spans/counters/timings into that collector with no
   knowledge of where it runs.
3. The executor attaches :meth:`TrialCollector.payload` to the result via
   :func:`attach_payload`; the payload is a plain JSON-able dict that
   pickles over the pipe for free.
4. The engine detaches it with :func:`detach_payload` *before* the result
   is cached or journaled (cached results must stay byte-identical to an
   untraced run) and merges it into the run's registry/tracer.

Span times inside a collector are **relative** to the collector's start —
worker monotonic clocks are not comparable to the parent's, so the parent
grafts the records into the tail of the trial span instead
(:meth:`repro.telemetry.spans.Tracer.emit`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "COLLECT_SPANS",
    "COLLECT_METRICS",
    "TrialCollector",
    "current_collector",
    "install_collector",
    "attach_payload",
    "detach_payload",
]

#: Bit in the collection flags: record fold/fit spans.
COLLECT_SPANS = 1
#: Bit in the collection flags: install a collector at all (counters and
#: fold-score timings).  Always set while a ``Telemetry`` object is active.
COLLECT_METRICS = 4

#: Attribute name the payload rides under on ``EvaluationResult.__dict__``.
PAYLOAD_ATTR = "_telemetry"

#: The installed collector, tracked per *thread*: the serve daemon runs
#: several jobs concurrently in worker threads, each with its own serial
#: engine, and one job's collector must never see another's folds.
_local = threading.local()


class TrialCollector:
    """Accumulates one trial's spans, counters and timings in-process.

    Parameters
    ----------
    flags:
        Bitmask of :data:`COLLECT_SPANS` / :data:`COLLECT_METRICS`; a zero
        mask still collects counters (they are nearly free).
    clock, cpu_clock:
        Injectable clocks, as everywhere else in the repo.

    Notes
    -----
    Span records use local sequential ids and ``rel0`` offsets from the
    collector's construction time; the parent remaps both when grafting.
    """

    __slots__ = ("flags", "clock", "cpu_clock", "_t0", "_spans", "_stack",
                 "_counters", "_timings", "_next_id")

    def __init__(
        self,
        flags: int = COLLECT_SPANS,
        clock: Callable[[], float] = time.monotonic,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        self.flags = flags
        self.clock = clock
        self.cpu_clock = cpu_clock
        self._t0 = clock()
        self._spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._counters: Dict[str, int] = {}
        self._timings: Dict[str, List[float]] = {}
        self._next_id = 1

    @property
    def wants_spans(self) -> bool:
        return bool(self.flags & COLLECT_SPANS)

    # -- recording -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: Optional[str] = None, **attrs: Any) -> Iterator[Optional[Dict[str, Any]]]:
        """Record one relative span (no-op context when spans are off).

        Yields the mutable record so the caller can attach attributes
        discovered mid-span (``record["attrs"]["score"] = ...``); yields
        ``None`` when span collection is disabled.
        """
        if not self.wants_spans:
            yield None
            return
        span_id = self._next_id
        self._next_id += 1
        record: Dict[str, Any] = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "kind": kind if kind is not None else name,
            "attrs": dict(attrs),
        }
        t0, cpu0 = self.clock(), self.cpu_clock()
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["rel0"] = round(t0 - self._t0, 6)
            record["dur"] = round(self.clock() - t0, 6)
            record["cpu_dur"] = round(self.cpu_clock() - cpu0, 6)
            if not record["attrs"]:
                del record["attrs"]
            self._spans.append(record)

    def inc(self, name: str, value: int = 1) -> None:
        """Add to an integer counter (always collected, flags or not)."""
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one value into a ``[count, total, min, max]`` timing."""
        value = float(value)
        wire = self._timings.get(name)
        if wire is None:
            self._timings[name] = [1, value, value, value]
        else:
            wire[0] += 1
            wire[1] += value
            if value < wire[2]:
                wire[2] = value
            if value > wire[3]:
                wire[3] = value

    # -- export ----------------------------------------------------------------

    def payload(self) -> Optional[Dict[str, Any]]:
        """JSON-able dict to ship home, or ``None`` when nothing was recorded."""
        out: Dict[str, Any] = {}
        if self._spans:
            out["spans"] = self._spans
        if self._counters:
            out["counters"] = self._counters
        if self._timings:
            out["timings"] = self._timings
        return out or None


def current_collector() -> Optional[TrialCollector]:
    """The collector installed for the evaluation in progress, if any.

    Instrumented code calls this on its hot path; a ``None`` return means
    telemetry is off and the caller should do nothing.  The slot is
    process-local by construction — each worker process gets its own
    module state after fork — and *thread*-local on top, so concurrent
    serve jobs in one daemon each see only their own collector.
    """
    return getattr(_local, "collector", None)


@contextmanager
def install_collector(collector: Optional[TrialCollector]) -> Iterator[Optional[TrialCollector]]:
    """Install an *existing* collector for the duration of the block.

    The mega-batch path evaluates several trials interleaved (plan all,
    fit all folds fused, score all), so each trial's collector is
    created once and re-installed around every phase that touches that
    trial — counters and spans accumulate across installs into the same
    payload.  ``None`` (telemetry off) installs nothing.
    """
    if collector is None:
        yield None
        return
    previous = getattr(_local, "collector", None)
    _local.collector = collector
    try:
        yield collector
    finally:
        _local.collector = previous


def attach_payload(result: Any, collector: Optional[TrialCollector]) -> None:
    """Stash the collector's payload on the result (if there is anything).

    Uses ``__dict__`` directly so plain dataclass results carry it across
    pickling without schema changes — the wire format of an untelemetered
    result is untouched.
    """
    if collector is None:
        return
    payload = collector.payload()
    if payload is not None:
        result.__dict__[PAYLOAD_ATTR] = payload


def detach_payload(result: Any) -> Optional[Dict[str, Any]]:
    """Remove and return the payload (``None`` when absent).

    The engine calls this before caching or journaling a result so stored
    results stay byte-identical to a telemetry-off run.
    """
    payload = result.__dict__.pop(PAYLOAD_ATTR, None) if hasattr(result, "__dict__") else None
    return payload
