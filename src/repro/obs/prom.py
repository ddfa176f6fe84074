"""Prometheus text-format rendering of registries and live serve state.

The exposition format is the version-0.0.4 text format every Prometheus
scraper (and ``promtool``) understands::

    # HELP repro_engine_submitted_total Counter repro.engine.submitted
    # TYPE repro_engine_submitted_total counter
    repro_engine_submitted_total 69
    repro_serve_queue_depth{tenant="alpha"} 3

Rendering is **deterministic**: families sort by metric name, samples
sort by their label items, and values use ``repr`` formatting — so two
scrapes of an unchanged system are byte-identical and a ``diff`` of two
scrapes reads as exactly the metrics that moved.  Time-derived values
(uptime, rates-per-second) are deliberately not exported; a scraper
computes rates from counters and timestamps, and excluding them is what
makes idle scrapes diffable.

Three layers:

- :class:`Family` / :func:`render` — the format itself;
- :func:`registry_families` — a
  :class:`~repro.telemetry.metrics.MetricsRegistry` as counter, gauge
  and summary families (dotted names sanitized to underscores);
- :func:`serve_families` — the daemon's live operational state: jobs by
  state, per-tenant queue depth / running / quota / virtual clock,
  shared-cache hit rates, connection budget, degraded mode, per-tenant
  merged engine counters, and per-running-job trial progress plus rung
  occupancy per active bracket.

:func:`parse_prometheus` is the strict line-grammar reader the test
suite (and any in-repo consumer) validates scrapes with.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Family",
    "render",
    "registry_families",
    "render_registry",
    "serve_families",
    "parse_prometheus",
    "metric_name",
    "CONTENT_TYPE",
]

#: The Content-Type a /metrics response must declare.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

#: One exposition line: name, optional {labels}, value.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def metric_name(raw: str, prefix: str = "repro") -> str:
    """Sanitize a dotted registry name into a legal Prometheus name."""
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", raw)
    if prefix:
        name = f"{prefix}_{name}"
    if not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class Family:
    """One metric family: a name, a type, help text and its samples.

    Samples are ``(labels, value)`` pairs where ``labels`` is a mapping
    (possibly empty).  ``suffixed`` samples (``_count``/``_sum`` of a
    summary) carry the suffix as the third tuple element.
    """

    __slots__ = ("name", "type", "help", "samples")

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str,
        samples: Optional[Iterable[Tuple[Dict[str, Any], Any]]] = None,
    ) -> None:
        if not _NAME_OK.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if type_ not in ("counter", "gauge", "summary", "untyped"):
            raise ValueError(f"invalid metric type {type_!r}")
        self.name = name
        self.type = type_
        self.help = help_
        self.samples: List[Tuple[str, Tuple[Tuple[str, str], ...], Any]] = []
        for labels, value in samples or ():
            self.add(labels, value)

    def add(self, labels: Dict[str, Any], value: Any, suffix: str = "") -> "Family":
        """Append one sample (labels are canonicalized to sorted items)."""
        items = tuple(sorted((str(k), _escape_label(v)) for k, v in (labels or {}).items()))
        for key, _ in items:
            if not _LABEL_OK.match(key):
                raise ValueError(f"invalid label name {key!r}")
        self.samples.append((suffix, items, value))
        return self

    def render_lines(self) -> List[str]:
        """The family's exposition lines (samples in stable sorted order)."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.type}"]
        for suffix, items, value in sorted(self.samples, key=lambda s: (s[0], s[1])):
            labels = ",".join(f'{key}="{val}"' for key, val in items)
            label_blob = f"{{{labels}}}" if labels else ""
            lines.append(f"{self.name}{suffix}{label_blob} {_format_value(value)}")
        return lines


def render(families: Sequence[Family]) -> str:
    """Render families as one scrape body, sorted by family name."""
    lines: List[str] = []
    for family in sorted(families, key=lambda f: f.name):
        if family.samples:
            lines.extend(family.render_lines())
    return "\n".join(lines) + "\n" if lines else "\n"


# -- registry rendering --------------------------------------------------------


def registry_families(registry) -> List[Family]:
    """A :class:`MetricsRegistry` as unlabelled ``repro_`` counter/gauge/summary families.

    Counters get the conventional ``_total`` suffix; histograms render as
    summaries (``_count``/``_sum``) plus ``_min``/``_max`` gauge
    families, which round-trips everything
    :class:`~repro.telemetry.metrics.HistogramSummary` keeps.
    """
    families: List[Family] = []
    for raw, value in registry.counters().items():
        families.append(
            Family(metric_name(raw) + "_total", "counter", f"Counter repro.{raw}").add({}, value)
        )
    for raw, value in registry.gauges().items():
        families.append(Family(metric_name(raw), "gauge", f"Gauge repro.{raw}").add({}, value))
    for raw, histogram in registry.histograms().items():
        base = metric_name(raw)
        summary = Family(base, "summary", f"Summary repro.{raw}")
        summary.add({}, histogram.count, suffix="_count")
        summary.add({}, histogram.total, suffix="_sum")
        families.append(summary)
        families.append(
            Family(base + "_min", "gauge", f"Minimum observed repro.{raw}").add(
                {}, histogram.minimum
            )
        )
        families.append(
            Family(base + "_max", "gauge", f"Maximum observed repro.{raw}").add(
                {}, histogram.maximum
            )
        )
    return families


def render_registry(registry) -> str:
    """One registry straight to scrape text (the ``obs snapshot`` body)."""
    return render(registry_families(registry))


# -- live serve state ----------------------------------------------------------

#: Every job state the registry can hold — emitted even at zero so a
#: dashboard's series exist from the first scrape.
_JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Counter name prefix the engine uses for per-rung occupancy tallies.
_RUNG_COUNTER = re.compile(r"^engine\.rung_trials\.b(?P<bracket>-?\d+)\.r(?P<rung>-?\d+)$")

#: Gauge name the engine uses for mega-batch lane occupancy per rung
#: (fraction of a rung's batchable folds fused into stacked lanes).
_RUNG_OCCUPANCY = re.compile(
    r"^engine\.rung_occupancy\.b(?P<bracket>-?\d+)\.r(?P<rung>-?\d+)$"
)


def serve_families(daemon) -> List[Family]:
    """The daemon's live operational state as metric families.

    Reads only lock-cheap snapshots (the scheduler's own snapshot lock,
    plain attribute reads, and C-level dict copies of per-job registries)
    so a scrape can never block job dispatch.  Deliberately excludes
    wall-clock-derived values — see the module docstring.
    """
    families: List[Family] = []

    def gauge(name: str, help_: str) -> Family:
        family = Family(name, "gauge", help_)
        families.append(family)
        return family

    def counter(name: str, help_: str) -> Family:
        family = Family(name, "counter", help_)
        families.append(family)
        return family

    gauge("repro_serve_up", "Daemon liveness (always 1 while scrapeable)").add({}, 1)
    gauge("repro_serve_draining", "1 while the daemon refuses new jobs").add(
        {}, daemon.draining
    )
    gauge("repro_serve_degraded", "1 while durable writes are failing").add(
        {}, daemon.degraded_reason is not None
    )
    gauge("repro_serve_workers", "Configured job-executor threads").add(
        {}, daemon.n_workers
    )

    by_state = {state: 0 for state in _JOB_STATES}
    for record in daemon.registry.all():
        by_state[record.state] = by_state.get(record.state, 0) + 1
    jobs = gauge("repro_serve_jobs", "Jobs in the registry by state")
    for state in sorted(by_state):
        jobs.add({"state": state}, by_state[state])

    counter("repro_serve_recovered_jobs_total", "Jobs re-queued by crash recovery").add(
        {}, daemon.recovered_jobs
    )
    counter("repro_serve_shed_jobs_total", "Submits shed with 429").add(
        {}, daemon.shed_jobs
    )
    counter("repro_serve_deduped_jobs_total", "Jobs subscribed to an in-flight twin").add(
        {}, daemon.deduped_jobs
    )
    counter(
        "repro_serve_quarantined_records_total", "Corrupt job records quarantined"
    ).add({}, daemon.registry.quarantined)

    gauge("repro_serve_queue_limit", "Admission queue bound").add(
        {}, daemon.scheduler.max_queued
    )
    depth = gauge("repro_serve_queue_depth", "Queued jobs per tenant")
    running = gauge("repro_serve_running", "Running jobs per tenant")
    quota = gauge("repro_serve_quota", "Concurrency quota per tenant")
    vtime = gauge("repro_serve_vtime", "Fair-share virtual clock per tenant")
    for tenant, row in daemon.scheduler.snapshot().items():
        labels = {"tenant": tenant}
        depth.add(labels, row["queued"])
        running.add(labels, row["running"])
        quota.add(labels, row["quota"])
        vtime.add(labels, row["vtime"])

    connections = gauge("repro_serve_connections", "HTTP connection budget state")
    connections.add({"kind": "active"}, daemon._active_connections)
    connections.add({"kind": "peak"}, daemon.connections_peak)
    connections.add({"kind": "limit"}, daemon.max_connections)
    counter("repro_serve_connections_rejected_total", "Connections refused with 503").add(
        {}, daemon.connections_rejected
    )

    shared = daemon.shared.stats()
    gauge("repro_cache_contexts", "Evaluation contexts with a shared cache").add(
        {}, shared["contexts"]
    )
    gauge("repro_cache_entries", "Entries across shared evaluation caches").add(
        {}, shared["entries"]
    )
    counter("repro_cache_hits_total", "Shared-cache hits").add({}, shared["hits"])
    counter("repro_cache_misses_total", "Shared-cache misses").add({}, shared["misses"])
    gauge("repro_cache_hit_rate", "Shared-cache hit rate").add({}, shared["hit_rate"])
    gauge("repro_checkpoint_contexts", "Contexts with a checkpoint store").add(
        {}, shared["checkpoint_contexts"]
    )
    gauge("repro_checkpoints_stored", "Checkpoints held across stores").add(
        {}, shared["checkpoints_stored"]
    )

    tenant_jobs = counter("repro_tenant_jobs_total", "Finished jobs per tenant by outcome")
    tenant_trials = counter("repro_tenant_trials_total", "Trials run per tenant")
    tenant_cache = counter("repro_tenant_cache_total", "Cache lookups per tenant by outcome")
    tenant_engine = counter(
        "repro_tenant_engine_total",
        "Per-tenant engine telemetry counters (merged over finished jobs)",
    )
    for tenant, stats in sorted(daemon.registry.tenants().items()):
        labels = {"tenant": tenant}
        tenant_jobs.add({**labels, "outcome": "submitted"}, stats.submitted)
        tenant_jobs.add({**labels, "outcome": "completed"}, stats.completed)
        tenant_jobs.add({**labels, "outcome": "failed"}, stats.failed)
        tenant_jobs.add({**labels, "outcome": "cancelled"}, stats.cancelled)
        tenant_trials.add(labels, stats.trials)
        tenant_cache.add({**labels, "outcome": "hit"}, stats.cache_hits)
        tenant_cache.add({**labels, "outcome": "miss"}, stats.cache_misses)
        for raw, value in stats.metrics.counters().items():
            tenant_engine.add({**labels, "counter": metric_name(raw, "")}, value)

    live = getattr(daemon, "live_jobs", None)
    if live is not None:
        progress = gauge("repro_job_trials_done", "Settled trials per running job")
        rung_trials = gauge(
            "repro_job_rung_trials", "Trials settled per rung of each active bracket"
        )
        rung_occupancy = gauge(
            "repro_job_rung_occupancy",
            "Mega-batch lane occupancy per rung (fused folds / batchable folds)",
        )
        for record, telemetry in live.snapshot():
            labels = {"job_id": record.job_id, "tenant": record.spec.tenant}
            progress.add(labels, record.trials_done)
            for raw, value in telemetry.registry.counters().items():
                match = _RUNG_COUNTER.match(raw)
                if match is not None:
                    rung_trials.add(
                        {**labels, "bracket": match.group("bracket"), "rung": match.group("rung")},
                        value,
                    )
            for raw, value in telemetry.registry.gauges().items():
                match = _RUNG_OCCUPANCY.match(raw)
                if match is not None:
                    rung_occupancy.add(
                        {**labels, "bracket": match.group("bracket"), "rung": match.group("rung")},
                        value,
                    )
    return families


# -- parsing (validation-grade) ------------------------------------------------


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Strictly parse an exposition body; raises ``ValueError`` on bad lines.

    Returns ``{metric_name: [(labels, value), ...]}``.  Used by the test
    suite to assert every scrape parses line by line, and by anything in
    the repo that wants to read its own exporter back.
    """
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        if line.startswith("#"):
            raise ValueError(f"line {number}: bad comment {line!r}")
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {number}: not a sample line: {line!r}")
        labels: Dict[str, str] = {}
        blob = match.group("labels")
        if blob:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(blob):
                labels[pair.group(1)] = pair.group(2)
                consumed = pair.end()
            remainder = blob[consumed:].strip(", ")
            if remainder:
                raise ValueError(f"line {number}: bad labels {blob!r}")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {number}: bad value {match.group('value')!r}") from exc
        out.setdefault(match.group("name"), []).append((labels, value))
    return out
