"""Daemon-side state: the job registry and the shared warm engine state.

Two long-lived structures back the service:

- :class:`JobRegistry` — every accepted job's :class:`~repro.serve.protocol.JobRecord`,
  held in memory and mirrored to ``<root>/jobs/<job_id>/job.json`` with
  atomic write-temp-then-rename updates.  The on-disk copy is the crash
  contract: a job is only acknowledged to the client after its record is
  durable, and on restart :meth:`JobRegistry.load_all` rebuilds the
  in-memory view so interrupted jobs can be re-queued and
  journal-resumed.  The registry also accumulates per-tenant counters and
  merges each finished job's telemetry metrics into a per-tenant
  :class:`~repro.telemetry.MetricsRegistry` (exported via ``/stats``).
- :class:`SharedEngineState` — the process-lifetime evaluation caches and
  checkpoint stores, one pair per *evaluation context* (see
  :func:`~repro.serve.protocol.eval_context`).  Jobs with the same
  context share one thread-safe
  :class:`~repro.engine.cache.EvaluationCache`, so tenant B submitting a
  search overlapping tenant A's hits A's warm results instantly; jobs
  with different contexts (different dataset, seed, guard, ...) get
  different caches and can never alias.  Checkpoint stores spill under
  ``<root>/checkpoints/<context>/`` and are therefore durable across
  daemon restarts.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..engine.cache import EvaluationCache
from ..obs import flightrec as _flightrec
from ..engine.checkpoint import CheckpointStore
from ..engine.durability import atomic_publish
from ..telemetry import MetricsRegistry
from .protocol import JobRecord, JobSpec, ProtocolError

__all__ = ["JobRegistry", "SharedEngineState", "TenantStats"]


class TenantStats:
    """Mutable per-tenant counters surfaced by ``/stats``.

    Attributes
    ----------
    submitted, completed, failed, cancelled:
        Job-lifecycle counts since daemon start.
    trials, cache_hits, cache_misses:
        Sums over finished jobs' engine stats — ``cache_hits`` counts
        every evaluation this tenant got for free (from its own or
        another tenant's earlier work).
    job_seconds:
        Total run duration of finished jobs.
    metrics:
        Deterministically-merged telemetry registry of the tenant's
        finished jobs.
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.trials = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.job_seconds = 0.0
        self.metrics = MetricsRegistry()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (metrics reduced to counter totals)."""
        lookups = self.cache_hits + self.cache_misses
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "trials": self.trials,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "job_seconds": round(self.job_seconds, 6),
            "metrics": self.metrics.counters(),
        }


def _atomic_write_json(
    path: Path, payload: Dict[str, Any], site: str = "registry.record"
) -> None:
    """Durably publish ``payload`` as JSON at ``path`` (never a torn file).

    :func:`~repro.engine.durability.atomic_publish` does the work; its
    ``<name>.*.tmp`` temp names are what :meth:`JobRegistry.load_all`
    quarantines after a crash.  ``site`` names the fault-point prefix so
    the crash-schedule explorer can distinguish spec-sidecar writes from
    job-record updates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    body = json.dumps(payload, indent=2).encode("utf-8")
    atomic_publish(path, lambda handle: handle.write(body), site)


class SharedEngineState:
    """Process-lifetime caches and checkpoint stores, keyed by eval context.

    Parameters
    ----------
    root:
        Serve root directory; checkpoint spills live under
        ``root/checkpoints/<context>/``.
    cache_entries:
        Optional LRU bound per context cache (``None`` = unbounded).
        Each context's checkpoint store keeps
        :class:`~repro.engine.checkpoint.CheckpointStore`'s default
        in-memory bound.
    """

    def __init__(
        self,
        root: Union[str, Path],
        cache_entries: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        self.cache_entries = cache_entries
        self._lock = threading.Lock()
        self._caches: Dict[str, EvaluationCache] = {}
        self._checkpoints: Dict[str, CheckpointStore] = {}

    def cache_for(self, context: str) -> EvaluationCache:
        """The shared (thread-safe) evaluation cache of one context."""
        with self._lock:
            cache = self._caches.get(context)
            if cache is None:
                cache = EvaluationCache(max_entries=self.cache_entries)
                self._caches[context] = cache
            return cache

    def checkpoints_for(self, context: str) -> CheckpointStore:
        """The shared durable checkpoint store of one context."""
        with self._lock:
            store = self._checkpoints.get(context)
            if store is None:
                store = CheckpointStore(spill_dir=self.root / "checkpoints" / context)
                self._checkpoints[context] = store
            return store

    def stats(self) -> Dict[str, Any]:
        """Aggregate sizes and hit counters across every context."""
        with self._lock:
            caches = dict(self._caches)
            checkpoints = dict(self._checkpoints)
        hits = sum(c.hits for c in caches.values())
        misses = sum(c.misses for c in caches.values())
        lookups = hits + misses
        return {
            "contexts": len(caches),
            "entries": sum(len(c) for c in caches.values()),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "checkpoint_contexts": len(checkpoints),
            "checkpoints_stored": sum(s.stores for s in checkpoints.values()),
        }


class JobRegistry:
    """All jobs the daemon knows about, durable under ``<root>/jobs/``.

    Parameters
    ----------
    root:
        Serve root directory.  Created (with parents) if missing.
    clock:
        Injectable wall clock for record timestamps.
    """

    def __init__(self, root: Union[str, Path], clock=time.time) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        self._lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}
        self._tenants: Dict[str, TenantStats] = {}
        # Long-polling readers park here (its own lock, never ``_lock``).
        self._finished = threading.Condition()
        self._waiters_released = False
        #: Corrupt record files moved aside by :meth:`load_all` since start.
        self.quarantined = 0

    # -- paths -----------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        """Directory holding one job's record, journal, trace and result."""
        return self.jobs_dir / job_id

    def spec_path(self, job_id: str) -> Path:
        """The job's immutable spec sidecar.

        Written once at admission and never touched again, it is the
        recovery anchor when ``job.json`` itself is lost to corruption:
        the spec plus the journal reconstruct the job bit for bit.
        """
        return self.job_dir(job_id) / "spec.json"

    def quarantine_dir(self) -> Path:
        """Where corrupt record files are moved aside for post-mortems."""
        return self.root / "quarantine"

    def journal_path(self, job_id: str) -> Path:
        """The job's write-ahead-log location."""
        return self.job_dir(job_id) / "journal.wal"

    def trace_path(self, job_id: str) -> Path:
        """The job's telemetry trace location (when tracing is requested)."""
        return self.job_dir(job_id) / "trace.jsonl"

    def result_path(self, job_id: str) -> Path:
        """The job's full search-record location (written when done)."""
        return self.job_dir(job_id) / "result.json"

    def publish_result(self, job_id: str, body: bytes) -> None:
        """Durably write the job's ``result.json`` (fault sites ``serve.result.*``).

        Called before the terminal record is published, so a durable
        ``done`` never points at a result file that could be empty or
        torn after a power cut; a stray ``result.json.*.tmp`` from a crash
        mid-write is quarantined by :meth:`load_all`.
        """
        atomic_publish(self.result_path(job_id), lambda handle: handle.write(body), "serve.result")

    # -- lifecycle -------------------------------------------------------------

    def create(self, spec: JobSpec) -> JobRecord:
        """Admit one job: assign an id, persist the record, count the tenant.

        Durability first, bookkeeping second: the record and its spec
        sidecar hit disk before the in-memory view or tenant counters
        change, so a failed write (disk full) leaves no phantom job
        behind and the caller can shed the request cleanly.
        """
        job_id = uuid.uuid4().hex[:12]
        record = JobRecord(job_id=job_id, spec=spec, created_at=self.clock())
        try:
            _atomic_write_json(self.spec_path(job_id), spec.to_dict(), site="registry.spec")
            _atomic_write_json(self.job_dir(job_id) / "job.json", record.to_dict())
        except OSError:
            # The caller sheds this job; a spec sidecar left behind would be
            # enough for load_all to revive it on the next start.
            shutil.rmtree(self.job_dir(job_id), ignore_errors=True)
            raise
        with self._lock:
            self._records[job_id] = record
            self.tenant(spec.tenant).submitted += 1
        return record

    def probe(self) -> None:
        """Prove the registry can still write durably (raises ``OSError``).

        Used by the daemon's readiness check and degraded-mode recovery:
        an atomic write of a tiny probe file exercises the same
        mkstemp/fsync/rename path every record update takes.
        """
        _atomic_write_json(self.jobs_dir / ".probe", {"t": self.clock()}, site="registry.probe")

    def persist(self, record: JobRecord) -> None:
        """Atomically write the record's current state to its job.json."""
        with self._lock:
            payload = record.to_dict()
        _atomic_write_json(self.job_dir(record.job_id) / "job.json", payload)

    def discard(self, record: JobRecord) -> None:
        """Forget a job that failed admission (e.g. queue full after persist)."""
        with self._lock:
            self._records.pop(record.job_id, None)
            stats = self._tenants.get(record.spec.tenant)
            if stats is not None and stats.submitted > 0:
                stats.submitted -= 1
        job_dir = self.job_dir(record.job_id)
        try:
            for child in job_dir.iterdir():
                child.unlink()
            job_dir.rmdir()
        except OSError:
            pass

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id``, or ``None``."""
        with self._lock:
            return self._records.get(job_id)

    def all(self) -> List[JobRecord]:
        """Every known record, newest first."""
        with self._lock:
            records = list(self._records.values())
        return sorted(records, key=lambda r: (r.created_at or 0.0), reverse=True)

    def tenant(self, name: str) -> TenantStats:
        """The (auto-created) stats object of one tenant."""
        with self._lock:
            stats = self._tenants.get(name)
            if stats is None:
                stats = TenantStats()
                self._tenants[name] = stats
            return stats

    def tenants(self) -> Dict[str, TenantStats]:
        """Snapshot of the per-tenant stats map."""
        with self._lock:
            return dict(self._tenants)

    # -- transitions -----------------------------------------------------------

    def mark_running(self, record: JobRecord) -> None:
        """queued -> running (persisted)."""
        with self._lock:
            record.state = "running"
            record.started_at = self.clock()
        self.persist(record)

    def mark_finished(
        self,
        record: JobRecord,
        state: str,
        error: Optional[str] = None,
        incumbent: Optional[Dict[str, Any]] = None,
        engine_stats: Optional[Dict[str, Any]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """running -> done/failed/cancelled, with tenant accounting (persisted).

        Ordering: the in-memory record flips first, then :meth:`persist`
        makes it durable, then :meth:`wait_finished` waiters are notified.
        A plain read between the first two steps can therefore see a
        terminal record that is not on disk yet (a kill there recovers the
        job as ``running`` and its journal replays it bitwise); a waiter
        woken by this call always finds the terminal record on disk.
        """
        with self._lock:
            record.state = state
            record.finished_at = self.clock()
            record.error = error
            if incumbent is not None:
                record.incumbent = incumbent
            if engine_stats is not None:
                record.engine_stats = dict(engine_stats)
            stats = self.tenant(record.spec.tenant)
            if state == "done":
                stats.completed += 1
            elif state == "failed":
                stats.failed += 1
            elif state == "cancelled":
                stats.cancelled += 1
            if engine_stats:
                stats.trials += int(engine_stats.get("submitted", 0))
                stats.cache_hits += int(engine_stats.get("cache_hits", 0))
                stats.cache_misses += int(engine_stats.get("cache_misses", 0))
            if record.duration is not None:
                stats.job_seconds += record.duration
            if metrics is not None:
                stats.metrics.merge(metrics)
        try:
            self.persist(record)
        finally:
            with self._finished:
                self._finished.notify_all()

    def wait_finished(self, record: JobRecord, timeout: float) -> bool:
        """Park until ``record`` is terminal; ``False`` when ``timeout`` elapses first.

        Returns at once for a terminal record and after
        :meth:`release_waiters`.  Holds no registry lock while parked.
        """
        with self._finished:
            return self._finished.wait_for(
                lambda: record.terminal or self._waiters_released, timeout
            )

    def release_waiters(self) -> None:
        """Wake every parked waiter and park no more (drain/stop)."""
        with self._finished:
            self._waiters_released = True
            self._finished.notify_all()

    # -- recovery --------------------------------------------------------------

    def load_all(self) -> List[JobRecord]:
        """Rebuild the in-memory view from disk; return recovered records.

        Called once at daemon start.  Jobs found in ``queued``/``running``
        state are the interrupted ones the server re-queues for
        journal-resumed execution.

        Hostile on-disk state never crashes the daemon and never silently
        drops a job.  Three corruption shapes are handled, all counted in
        :attr:`quarantined` and moved under ``<root>/quarantine/`` for
        post-mortems:

        - stray ``job.json.*.tmp`` and ``result.json.*.tmp`` files (a write
          that crashed before its rename) are moved aside;
        - a truncated/corrupt/unparseable ``job.json`` is moved aside and
          the record is rebuilt ``queued`` from the immutable ``spec.json``
          sidecar — the job's journal then replays the already-durable
          trials, so the re-run stays bitwise-equal to an uninterrupted
          one;
        - a ``job.json`` missing entirely (the rename never happened) is
          rebuilt from ``spec.json`` the same way.

        Only a directory whose ``spec.json`` is *also* unreadable is
        skipped — there is nothing left to recover from.
        """
        recovered: List[JobRecord] = []
        for job_dir in sorted(self.jobs_dir.iterdir()):
            if not job_dir.is_dir():
                continue
            for stray in sorted(job_dir.glob("*.tmp")):
                self._quarantine(stray)
            record_path = job_dir / "job.json"
            record: Optional[JobRecord] = None
            if record_path.is_file():
                try:
                    record = JobRecord.from_dict(json.loads(record_path.read_text()))
                except (json.JSONDecodeError, ProtocolError, OSError, UnicodeDecodeError):
                    self._quarantine(record_path)
                    record = None
            if record is None:
                record = self._rebuild_from_spec(job_dir)
                if record is None:
                    continue
            with self._lock:
                self._records[record.job_id] = record
            recovered.append(record)
        return recovered

    def _quarantine(self, path: Path) -> None:
        """Move one corrupt file aside (never raises, always counts)."""
        target_dir = self.quarantine_dir() / path.parent.name
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(str(path), str(target_dir / path.name))
        except OSError:
            try:
                path.unlink()
            except OSError:
                return  # could not even remove it; leave it for the operator
        self.quarantined += 1
        _flightrec.note("registry.quarantine", path=str(path))

    def _rebuild_from_spec(self, job_dir: Path) -> Optional[JobRecord]:
        """Reconstruct a queued record from the immutable spec sidecar."""
        spec_path = job_dir / "spec.json"
        if not spec_path.is_file():
            return None
        try:
            spec = JobSpec.from_dict(json.loads(spec_path.read_text()))
        except (json.JSONDecodeError, ProtocolError, OSError, UnicodeDecodeError):
            self._quarantine(spec_path)
            return None
        record = JobRecord(job_id=job_dir.name, spec=spec, created_at=self.clock())
        try:
            self.persist(record)
        except OSError:
            pass  # still recoverable in memory; the next persist retries
        return record
