"""Execution engine: parallel, memoized, fault-tolerant, crash-safe dispatch.

This package decouples *what a searcher wants evaluated* from *how the
evaluations run*.  Searchers describe work as
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
bit.  :class:`~repro.engine.chaos.ChaosExecutor` injects failures, hangs,
worker deaths and corrupted scores so those guarantees stay exercised::

    from repro.engine import TrialEngine, ParallelExecutor

    engine = TrialEngine(executor=ParallelExecutor(n_workers=4, trial_timeout=60),
                         journal="run.wal")
    searcher = HyperBand(space, evaluator, random_state=0, engine=engine)
    result = searcher.fit(configurations=pool)   # == serial run, faster
    print(engine.stats.hit_rate)                 # memoization at work
"""

from .._lazy import lazy_exports
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
from .executors import (
    ParallelExecutor,
    SerialExecutor,
    TrialExecutor,
    current_worker_connection,
)
from .journal import JOURNAL_VERSION, JournalEntry, JournalError, RunJournal, space_fingerprint
from .protocol import TrialOutcome, TrialRequest, derive_seed

# The fault injector is test and chaos-suite equipment: no search loads it.
__getattr__, __dir__ = lazy_exports(
    __name__, {".chaos": ["ChaosError", "ChaosExecutor", "ChaosPolicy", "DataCorruption"]}
)

__all__ = [
    "ArenaError",
    "ArenaIntegrityError",
    "ArenaRef",
    "SharedArena",
    "arena_available",
    "list_segments",
    "reap_stale",
    "ChaosError",
    "ChaosExecutor",
    "ChaosPolicy",
    "CheckpointStore",
    "DataCorruption",
    "EvaluationCache",
    "EngineStats",
    "FAILURE_SCORE",
    "FoldCheckpoint",
    "JOURNAL_VERSION",
    "JournalEntry",
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
    "current_worker_connection",
    "derive_seed",
    "space_fingerprint",
]
