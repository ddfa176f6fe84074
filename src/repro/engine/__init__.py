"""Execution engine: parallel, memoized, fault-tolerant, crash-safe dispatch.

This package decouples *what a searcher wants evaluated* from *how the
evaluations run*.  It is a layer below the searchers and imports none of
them: it owns the trial record
(:class:`~repro.engine.protocol.EvaluationResult`) and its wire format,
and it is the one place a run's telemetry is attached.  Searchers
describe work as
:class:`~repro.engine.protocol.TrialRequest` objects; a
:class:`~repro.engine.core.TrialEngine` derives a deterministic per-trial
seed for each, memoizes repeated ``(config, budget)`` pairs, retries
worker failures with seeded backoff, and dispatches the rest through a
pluggable executor — :class:`~repro.engine.executors.SerialExecutor`
in-process, or the watchdog-supervised
:class:`~repro.engine.executors.ParallelExecutor` across worker processes
(per-trial deadlines, hung-worker detection, death recovery).

Durability comes from :class:`~repro.engine.journal.RunJournal`, a
write-ahead log of every executed outcome: an interrupted run resumes
from its last durable trial and — because seeds are derived rather than
drawn from a shared stream — reproduces the uninterrupted result bit for
bit.  :mod:`repro.faults` schedules crashes, raises and hangs at named
points of this package so those guarantees stay exercised::

    from repro.engine import TrialEngine, ParallelExecutor

    engine = TrialEngine(executor=ParallelExecutor(n_workers=4, trial_timeout=60),
                         journal="run.wal")
    searcher = HyperBand(space, evaluator, random_state=0, engine=engine)
    result = searcher.fit(configurations=pool)   # == serial run, faster
    print(engine.stats.hit_rate)                 # memoization at work
"""

from .arena import (
    ArenaError,
    ArenaIntegrityError,
    ArenaRef,
    SharedArena,
    arena_available,
    list_segments,
    reap_stale,
)
from .cache import EvaluationCache
from .checkpoint import CheckpointStore, FoldCheckpoint
from .core import FAILURE_SCORE, STATS_SCHEMA_VERSION, EngineStats, TrialEngine, backoff_delay
from .executors import ParallelExecutor, SerialExecutor, TrialExecutor
from .journal import JOURNAL_VERSION, JournalError, RunJournal, space_fingerprint
from .protocol import EvaluationResult, TrialOutcome, TrialRequest, derive_seed

__all__ = [
    "ArenaError",
    "ArenaIntegrityError",
    "ArenaRef",
    "SharedArena",
    "arena_available",
    "list_segments",
    "reap_stale",
    "CheckpointStore",
    "EvaluationCache",
    "EngineStats",
    "EvaluationResult",
    "FAILURE_SCORE",
    "FoldCheckpoint",
    "JOURNAL_VERSION",
    "JournalError",
    "ParallelExecutor",
    "RunJournal",
    "STATS_SCHEMA_VERSION",
    "SerialExecutor",
    "TrialEngine",
    "TrialExecutor",
    "TrialOutcome",
    "TrialRequest",
    "backoff_delay",
    "derive_seed",
    "space_fingerprint",
]
