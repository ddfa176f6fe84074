"""Per-trial telemetry collection, wherever the trial runs.

Worker processes cannot write to the parent's tracer or registry, so each
evaluation records into its own :class:`TrialCollector` — a
:class:`~repro.telemetry.spans.Tracer` over an in-memory list and a
:class:`~repro.telemetry.metrics.MetricsRegistry`, the same two classes
the parent records into.  Collection works like this:

1. The executor gives each evaluation a collector, which
   :func:`install_collector` makes discoverable via
   :func:`current_collector` around every phase touching that trial.
2. Instrumented code (the evaluator's folds and fits) calls the
   collector's ``tracer`` and ``registry`` directly, with no knowledge of
   where it runs.
3. The executor puts :meth:`TrialCollector.payload` on the trial's
   :class:`~repro.engine.protocol.Completion` — never on the result, so
   the result the cache and the journal see is the untraced one.
4. The engine folds the payload's registry into the run's registry
   (:meth:`~repro.telemetry.metrics.MetricsRegistry.merge`) and grafts its
   span records under the trial span
   (:meth:`~repro.telemetry.spans.Tracer.emit`).

Span times inside a collector are **relative** to the collector's start —
worker monotonic clocks are not comparable to the parent's, so the parent
lays the records out in the tail of the trial span instead.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = [
    "COLLECT_SPANS",
    "COLLECT_METRICS",
    "TrialCollector",
    "current_collector",
    "install_collector",
]

#: Bit in the collection flags: record fold/fit spans.
COLLECT_SPANS = 1
#: Bit in the collection flags: install a collector at all (counters and
#: fold-score timings).  Always set while a ``Telemetry`` object is active.
COLLECT_METRICS = 4

#: The installed collector, tracked per *thread*: the serve daemon runs
#: several jobs concurrently in worker threads, each with its own serial
#: engine, and one job's collector must never see another's folds.
_local = threading.local()


class _SpanList:
    """In-memory span sink: keeps the records a :class:`Tracer` writes.

    Deliberately not a :class:`~repro.telemetry.spans.TraceSink`: a
    collected span is written to the run's sink once, when the parent
    grafts it, and counts (and reaches the flight recorder) only then.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


class TrialCollector:
    """One trial's spans and metrics, recorded in-process.

    Parameters
    ----------
    flags:
        Bitmask of :data:`COLLECT_SPANS` / :data:`COLLECT_METRICS`; without
        :data:`COLLECT_SPANS` the tracer has no sink and its spans are
        no-ops, while the registry always records (it is nearly free).
    clock, cpu_clock:
        Injectable clocks, as everywhere else in the repo.

    Attributes
    ----------
    tracer:
        Records spans with sequential local ids and ``t0`` offsets from
        the collector's construction; the parent remaps both when grafting.
    registry:
        The trial's counters and histograms.
    """

    __slots__ = ("tracer", "registry")

    def __init__(
        self,
        flags: int = COLLECT_SPANS,
        clock: Callable[[], float] = time.monotonic,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        start = clock()
        self.tracer = Tracer(
            _SpanList() if flags & COLLECT_SPANS else None,
            clock=lambda: clock() - start,
            cpu_clock=cpu_clock,
        )
        self.registry = MetricsRegistry()

    def payload(self) -> Optional[Dict[str, Any]]:
        """``{"registry", "spans"}`` to ship home, or ``None`` when nothing was recorded."""
        spans = self.tracer.sink.records if self.tracer.sink is not None else []
        if not spans and not len(self.registry):
            return None
        return {"registry": self.registry, "spans": spans}


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
