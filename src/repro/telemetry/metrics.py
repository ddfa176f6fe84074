"""Metrics registry: counters, gauges and histogram summaries that merge.

The registry is the numeric half of the telemetry layer (spans being the
temporal half).  Three design constraints shape it:

- **Zero dependencies and process safety.**  Worker processes never touch
  a shared registry; each trial records into a registry of its own (a
  :class:`~repro.telemetry.collect.TrialCollector`'s), which travels back
  to the parent on the executor's completion record and is folded in
  with :meth:`MetricsRegistry.merge`.  Nothing is locked because nothing
  is shared.
- **Deterministic merge.**  Counters are plain integers, so merging is
  commutative and associative: a serial run and a parallel run of the
  same seed produce *identical* merged counters no matter the completion
  order.  Histogram summaries (count/total/min/max) are commutative for
  count/min/max; ``total`` is a float sum whose last-ulp rounding can in
  principle depend on order, which is why comparisons across executors
  should use :meth:`MetricsRegistry.counters` rather than histogram
  totals.
- **Bounded memory.**  Histograms keep a four-number summary, not the
  observations, so a million-trial run costs the same as a ten-trial one.

Metric names are dot-namespaced strings (``engine.cache_hits``,
``trial.execute_s``, ``fold.score_s``); the full vocabulary lives in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

__all__ = ["METRICS_SCHEMA_VERSION", "HistogramSummary", "MetricsRegistry"]

#: Version of the :meth:`MetricsRegistry.as_dict` payload; bump when the
#: shape changes so trace-file readers can pin on it.
METRICS_SCHEMA_VERSION = 1


class HistogramSummary:
    """Streaming summary of observations: count, total, min, max.

    Deliberately not a bucketed histogram: the telemetry layer's
    consumers (bench JSON, CLI summaries, tests) want aggregates, and a
    four-float summary merges in O(1) with no binning decisions baked
    into the wire format.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "HistogramSummary") -> None:
        """Fold another summary into this one."""
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-able summary including the derived mean."""
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": round(self.mean, 9),
        }

    def __repr__(self) -> str:
        return (
            f"HistogramSummary(count={self.count}, total={self.total:.6g}, "
            f"min={self.minimum:.6g}, max={self.maximum:.6g})"
        )


class MetricsRegistry:
    """Process-local registry of counters, gauges and histogram summaries.

    One registry lives on each :class:`~repro.telemetry.Telemetry`
    instance (i.e. one per run, in the parent process) and one on each
    trial's collector; the engine folds the latter into the former with
    :meth:`merge`.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.inc("engine.cache_hits")
    >>> registry.observe("trial.execute_s", 0.25)
    >>> registry.counters()["engine.cache_hits"]
    1
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramSummary] = {}

    # -- recording -------------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the integer counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest value."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one observation into the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = HistogramSummary()
        histogram.observe(value)

    # -- merging ---------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters sum, gauges last-write)."""
        for name, value in other._counters.items():
            self.inc(name, value)
        self._gauges.update(other._gauges)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self._histograms[name] = HistogramSummary()
            mine.merge(histogram)

    # -- reading ---------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Name-sorted copy of every counter — the deterministic comparator."""
        return {name: self._counters[name] for name in sorted(self._counters)}

    def gauges(self) -> Dict[str, float]:
        """Name-sorted copy of every gauge."""
        return {name: self._gauges[name] for name in sorted(self._gauges)}

    def histograms(self) -> Dict[str, HistogramSummary]:
        """Name-sorted shallow copy of the histogram summaries."""
        return {name: self._histograms[name] for name in sorted(self._histograms)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from an :meth:`as_dict` snapshot.

        The inverse up to histogram totals' 9-decimal rounding; used by
        ``repro obs snapshot`` to re-render a finished run's trace-file
        metrics as Prometheus text.
        """
        registry = cls()
        for name, value in (payload.get("counters") or {}).items():
            registry._counters[name] = int(value)
        for name, value in (payload.get("gauges") or {}).items():
            registry._gauges[name] = float(value)
        for name, summary in (payload.get("histograms") or {}).items():
            if summary.get("count"):
                histogram = registry._histograms[name] = HistogramSummary()
                histogram.count = int(summary["count"])
                histogram.total = float(summary["total"])
                histogram.minimum = float(summary["min"])
                histogram.maximum = float(summary["max"])
        return registry

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot with every section name-sorted (stable output)."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": self.counters(),
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {
                name: histogram.as_dict() for name, histogram in self.histograms().items()
            },
        }

    def render_lines(self) -> List[str]:
        """Human-readable dump for CLI summaries (sorted, aligned)."""
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            width = max(len(name) for name in self._counters)
            for name, value in self.counters().items():
                lines.append(f"  {name:<{width}}  {value}")
        if self._gauges:
            lines.append("gauges:")
            width = max(len(name) for name in self._gauges)
            for name in sorted(self._gauges):
                lines.append(f"  {name:<{width}}  {self._gauges[name]:.6g}")
        if self._histograms:
            lines.append("histograms (count / mean / max seconds-or-units):")
            width = max(len(name) for name in self._histograms)
            for name, histogram in self.histograms().items():
                lines.append(
                    f"  {name:<{width}}  n={histogram.count}"
                    f"  mean={histogram.mean:.6g}  max={histogram.maximum:.6g}"
                )
        return lines

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
