"""The trial engine: batching, memoization, retries, durability, degradation.

:class:`TrialEngine` sits between a searcher ("what to evaluate") and a
:class:`~repro.engine.executors.TrialExecutor` ("how it runs").  It

1. assigns every :class:`~repro.engine.protocol.TrialRequest` a stable
   ``trial_id`` and a deterministic per-trial seed
   (:func:`~repro.engine.protocol.derive_seed`), making results
   independent of worker count and completion order;
2. memoizes results in an :class:`~repro.engine.cache.EvaluationCache`
   and deduplicates identical requests that are in flight simultaneously
   (HyperBand rungs routinely contain duplicate survivors);
3. retries failed trials up to ``max_retries`` times — each retry under a
   freshly derived seed, after a seeded exponential-backoff-with-jitter
   delay — then *degrades* a permanently-failing trial to a sentinel
   worst-score outcome instead of aborting the search;
4. treats non-finite evaluation results (NaN/inf score, mean or std) as
   failures, so a numerically-exploding learner cannot poison the
   ``mu + alpha*beta*sigma`` ranking and instead flows through the same
   retry-then-degrade path;
5. optionally write-ahead-logs every executed outcome to a
   :class:`~repro.engine.journal.RunJournal` (one durable commit per
   rung of ``run_batch``) and, on the next ``bind``, replays the journal
   so an interrupted run resumes from its last durable rung and
   reproduces the uninterrupted result bit for bit.

Two consumption styles are offered: :meth:`TrialEngine.run_batch` for
synchronous rung-at-a-time searchers (SHA / HyperBand / BOHB), returning
outcomes in request order, and :meth:`TrialEngine.submit` /
:meth:`TrialEngine.wait_one` for asynchronous schedulers (ASHA), where
completions are delivered as they land.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from collections import deque

import numpy as np

from ..faults.points import active_controller, fault_point
from ..obs import flightrec as _flightrec
from ..telemetry import Telemetry
from .cache import EvaluationCache
from .checkpoint import CheckpointStore
from .executors import (
    SerialExecutor,
    TIMEOUT_ERROR_PREFIX,
    TrialExecutor,
    WORKER_HUNG_PREFIX,
)
from .journal import RunJournal, replay_key
from .protocol import EvaluationResult, TrialOutcome, TrialRequest, derive_seed

__all__ = [
    "TrialEngine",
    "EngineStats",
    "FAILURE_SCORE",
    "STATS_SCHEMA_VERSION",
    "backoff_delay",
]


def backoff_delay(base: float, attempt: int, maximum: float, seed: int) -> float:
    """Seeded exponential backoff with jitter, shared across subsystems.

    Attempt ``k`` (1-based) sleeps ``min(base * 2**(k-1), maximum)``
    scaled by a deterministic jitter factor in ``[0.5, 1.0]`` drawn from
    ``seed`` — doubling spaces out repeated hits on a struggling
    resource, the jitter de-synchronises concurrent retriers, and the
    seed keeps every delay a pure function of its inputs.  Used by the
    engine's trial retries (seeded per trial attempt) and by
    :class:`~repro.serve.client.ServeClient`'s transport retries.
    ``base <= 0`` disables the delay entirely.
    """
    if base <= 0.0:
        return 0.0
    capped = min(base * 2.0 ** (max(1, attempt) - 1), maximum)
    rng = np.random.default_rng(seed)
    return capped * (0.5 + 0.5 * float(rng.random()))

#: Sentinel score assigned to permanently-failing trials: finite (so JSON
#: round-trips and argsort stay well-behaved) yet below any real metric.
FAILURE_SCORE = -1e30

#: Version of the :meth:`EngineStats.as_dict` payload; bump when counters
#: are added, renamed or removed so ``/stats`` consumers can pin on it.
STATS_SCHEMA_VERSION = 7


@dataclass
class EngineStats:
    """Counters accumulated over the engine's lifetime.

    Attributes
    ----------
    submitted:
        Requests handed to the engine (cache hits included).
    executed:
        Evaluations actually run (every retry attempt counts).
    cache_hits, cache_misses:
        Lookup outcomes, counting in-flight deduplication as hits.
    retries:
        Re-executions triggered by failures.
    failures:
        Trials degraded to the sentinel after exhausting retries.
    timeouts:
        Watchdog interventions (trial deadline exceeded or worker hung);
        each is also counted as the failure/retry it triggers.
    resumed:
        Outcomes replayed from the run journal instead of executed.
    non_finite:
        Evaluations whose result carried a NaN/inf score, mean or std and
        was therefore converted to a failure.
    guard_events:
        Data-integrity guard events carried on settled or replayed
        results (see :mod:`repro.guard.events`); 0 when no guard is
        active.
    warm_hits, warm_misses:
        With a checkpoint store configured: submissions that found a
        lower-budget donor to warm-start from vs. those that ran cold
        (both stay 0 without a store).
    checkpoints_stored:
        Evaluations whose captured fold states entered the store.
    megabatch_trials, megabatch_folds:
        Rung-level mega-batching activity: trials whose folds were fused
        across trial boundaries into shared lanes, and the fold count
        that ran fused.  0 under per-trial execution.
    journal_commits, spill_segments:
        Journal write+fsync groups and checkpoint spill segments
        published.  ``run_batch`` commits once per rung, so ``executed /
        journal_commits`` is the records-per-fsync a run is getting
        (1.0 under plain ``submit``/``wait_one``).
    """

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    resumed: int = 0
    non_finite: int = 0
    guard_events: int = 0
    warm_hits: int = 0
    warm_misses: int = 0
    checkpoints_stored: int = 0
    megabatch_trials: int = 0
    megabatch_folds: int = 0
    journal_commits: int = 0
    spill_segments: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of submissions served without a new evaluation."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (for CLI summaries and benchmark JSON)."""
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "submitted": self.submitted,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "retries": self.retries,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "resumed": self.resumed,
            "non_finite": self.non_finite,
            "guard_events": self.guard_events,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "checkpoints_stored": self.checkpoints_stored,
            "megabatch_trials": self.megabatch_trials,
            "megabatch_folds": self.megabatch_folds,
            "journal_commits": self.journal_commits,
            "spill_segments": self.spill_segments,
            "hit_rate": self.hit_rate,
        }


def _sentinel_result(budget_fraction: float) -> EvaluationResult:
    """Worst-score placeholder for a trial whose every attempt raised."""
    return EvaluationResult(
        mean=FAILURE_SCORE,
        std=0.0,
        score=FAILURE_SCORE,
        gamma=100.0 * budget_fraction,
        fold_scores=[],
        n_instances=0,
        cost=0.0,
    )


def _result_is_finite(result: EvaluationResult) -> bool:
    """Whether every ranking-relevant field is a finite number."""
    try:
        return (
            math.isfinite(result.score)
            and math.isfinite(result.mean)
            and math.isfinite(result.std)
        )
    except TypeError:
        return False


class TrialEngine:
    """Caching, retrying, journaling trial dispatcher over a pluggable executor.

    Parameters
    ----------
    executor:
        A :class:`~repro.engine.executors.TrialExecutor`; defaults to a
        fresh :class:`~repro.engine.executors.SerialExecutor`, which keeps
        single-process behaviour while still enabling memoization and
        fault tolerance.
    cache:
        ``True`` (default) builds an unbounded
        :class:`~repro.engine.cache.EvaluationCache`; pass an instance to
        share or bound one, or ``False``/``None`` to disable memoization.
    max_retries:
        Failed-trial re-executions before degradation (0 disables retry);
        a trial that exhausts them settles at :data:`FAILURE_SCORE`.
    root_seed:
        Root of per-trial seed derivation; usually supplied later by the
        searcher through :meth:`bind` (its ``random_state``).
    journal:
        A :class:`~repro.engine.journal.RunJournal` (or just a path) to
        write-ahead-log every executed outcome into.  If the file already
        holds entries from an interrupted run with the same identity, they
        are replayed at :meth:`bind` time and served instantly with
        ``resumed=True`` — the deterministic per-trial seeds guarantee the
        resumed run matches the uninterrupted one bit for bit.
    retry_backoff:
        Base delay in seconds before re-executing a failed trial; retry
        ``k`` sleeps ``min(retry_backoff * 2**(k-1), retry_backoff_max)``
        scaled by a deterministic jitter in ``[0.5, 1.0]`` drawn from the
        trial's derived seed.  ``0`` restores immediate re-execution.
    retry_backoff_max:
        Upper bound on a single backoff delay.
    sleep:
        Injectable sleep function (tests pass a recorder; default
        :func:`time.sleep`).
    telemetry:
        A :class:`~repro.telemetry.Telemetry` object to record into:
        every settled outcome becomes a ``trial`` span (with any
        fold/fit spans the worker collected grafted underneath, guard
        events as annotations, and the journal sequence number when
        journaling), and the engine mirrors its counters into the
        metrics registry plus queue-wait/execute histograms.  ``None``
        (default) records nothing and adds no per-trial work.
    checkpoints:
        Opt-in cross-rung warm starting.  ``True`` builds an in-memory
        :class:`~repro.engine.checkpoint.CheckpointStore`; a path builds
        one spilling to that directory (durable across restarts); an
        instance is used as-is; ``None`` (default) disables warm starts
        entirely.  With a store configured every evaluation captures its
        per-fold trained parameters, and every submission warm-starts
        from the largest lower-budget checkpoint of its configuration.
        Combining a *non-durable* store with a journal raises at
        :meth:`bind`: replayed trials never execute, so only a spill
        directory can repopulate their checkpoints on resume.

    Examples
    --------
    >>> from repro.engine import TrialEngine, SerialExecutor
    >>> engine = TrialEngine(executor=SerialExecutor(), max_retries=2)

    Searchers accept the engine directly::

        searcher = SuccessiveHalving(space, evaluator, random_state=0,
                                     engine=engine)
    """

    def __init__(
        self,
        executor: Optional[TrialExecutor] = None,
        cache: Union[EvaluationCache, bool, None] = True,
        max_retries: int = 1,
        root_seed: Optional[int] = None,
        journal: Union[RunJournal, str, Path, None] = None,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        sleep: Optional[Callable[[float], None]] = None,
        telemetry: Optional[Telemetry] = None,
        checkpoints: Union[CheckpointStore, str, Path, bool, None] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.executor = executor if executor is not None else SerialExecutor()
        if cache is True:
            self.cache: Optional[EvaluationCache] = EvaluationCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.max_retries = max_retries
        self.root_seed = root_seed
        if journal is not None and not isinstance(journal, RunJournal):
            journal = RunJournal(journal)
        self.journal = journal
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self._sleep = sleep if sleep is not None else time.sleep
        self.telemetry = telemetry
        if checkpoints is True:
            self.checkpoints: Optional[CheckpointStore] = CheckpointStore()
        elif checkpoints is False or checkpoints is None:
            self.checkpoints = None
        elif isinstance(checkpoints, CheckpointStore):
            self.checkpoints = checkpoints
        else:
            self.checkpoints = CheckpointStore(spill_dir=checkpoints)
        #: Submit timestamps by trial id (telemetry only): queue-wait
        #: tracking and trial-span start times.
        self._submit_time: Dict[int, float] = {}
        self.stats = EngineStats()
        self._evaluator = None
        self._next_trial_id = 0
        self._journal_open = False
        #: Journaled outcomes keyed by the attempt-0 lookup key, consulted
        #: before the cache so failed (sentinel) outcomes also replay.
        self._replayed: Dict[Tuple, TrialOutcome] = {}
        # Async bookkeeping: outcomes ready for pickup, in-flight requests,
        # and followers piggy-backing on an identical in-flight request.
        self._ready: Deque[TrialOutcome] = deque()
        self._in_flight: Dict[int, TrialRequest] = {}
        self._followers: Dict[Tuple, List[TrialRequest]] = {}
        self._primary_key: Dict[int, Tuple] = {}
        #: ``(checkpoint entries, journal lines)`` staged by the rung
        #: :meth:`run_batch` is collecting (``None`` outside it): pending
        #: state is the engine's, never the possibly shared store's.
        self._rung: Optional[Tuple[List, List[str]]] = None

    # -- lifecycle ------------------------------------------------------------

    def bind(self, evaluator, root_seed: Optional[int] = None, metadata=None) -> None:
        """Attach the evaluator (and optionally the seed root) before use.

        Searchers call this from ``fit()`` with their evaluator,
        ``random_state`` and identity metadata (searcher name, space
        fingerprint); the cache and counters intentionally survive
        re-binding so repeated fits share memoized work when the evaluator
        is unchanged.  When a journal is configured, binding opens it:
        a pre-existing file is identity-checked (root seed plus any
        metadata keys both sides know) and replayed, making the next
        ``fit()`` a resume of the interrupted run.
        """
        self._evaluator = evaluator
        if root_seed is not None:
            self.root_seed = root_seed
        if self.checkpoints is not None and self.journal is not None:
            if not self.checkpoints.durable:
                raise ValueError(
                    "warm-start checkpoints combined with a journal require a "
                    "durable store: journal replay never re-executes trials, so "
                    "only a CheckpointStore spill_dir can repopulate their "
                    "checkpoints on resume"
                )
            metadata = dict(metadata or {})
            metadata["warm"] = True
        if self.journal is not None:
            if not self._journal_open:
                for entry in self.journal.open(self.root_seed, metadata=metadata):
                    self._replayed[replay_key(entry, self.root_seed)] = entry
                self._journal_open = True
            else:
                self.journal.check_identity(self.root_seed, metadata)
        self.executor.bind(evaluator)

    @property
    def capacity(self) -> int:
        """Concurrency the underlying executor genuinely provides."""
        return self.executor.capacity

    def shutdown(self) -> None:
        """Release executor resources (workers, queues) and close the journal."""
        if self.telemetry is not None:
            pool_stats = getattr(self.executor, "pool_stats", None)
            if pool_stats is not None:
                # Final pool shape as gauges (idempotent on double shutdown).
                for key, value in pool_stats().items():
                    self.telemetry.registry.set_gauge(f"pool.{key}", value)
        self.executor.shutdown()
        if self.journal is not None:
            self.journal.close()
            self._journal_open = False
        if self.telemetry is not None:
            controller = active_controller()
            if controller is not None:
                # Gauges (not counters) so a double shutdown cannot
                # double-count; keyed per site for the fault catalog.
                for site, hits in sorted(controller.snapshot().items()):
                    self.telemetry.registry.set_gauge(f"faults.hits.{site}", hits)

    def __enter__(self) -> "TrialEngine":
        """Support ``with TrialEngine(...) as engine:``."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Shut down the executor on scope exit."""
        self.shutdown()

    # -- request preparation ---------------------------------------------------

    def _prepare(self, request: TrialRequest) -> TrialRequest:
        """Assign trial id, configuration key and derived seed."""
        if self._evaluator is None:
            raise RuntimeError("TrialEngine used before bind(); attach an evaluator first")
        request.trial_id = self._next_trial_id
        self._next_trial_id += 1
        key = request.resolved_key()
        if request.seed is None:
            request.seed = derive_seed(
                self.root_seed, key, request.budget_fraction, request.attempt
            )
        if self.checkpoints is not None:
            request.capture = True
            source = self.checkpoints.best_source(key, request.budget_fraction)
            if source is not None:
                request.warm_source, request.warm_states = source
                self._count("warm_hits")
            else:
                self._count("warm_misses")
        self._count("submitted")
        if self.telemetry is not None:
            request.telemetry = self.telemetry.collection_flags
            self._submit_time[request.trial_id] = self.telemetry.clock()
        _flightrec.note(
            "trial.submit",
            trial=request.trial_id,
            bracket=request.bracket,
            rung=request.iteration,
            budget=request.budget_fraction,
        )
        return request

    def _cache_key(self, request: TrialRequest) -> Tuple:
        return EvaluationCache.make_key(
            request.resolved_key(),
            request.budget_fraction,
            request.seed,
            request.warm_source,
        )

    # -- telemetry -------------------------------------------------------------

    def _inc(self, name: str, value: int = 1) -> None:
        """Bump a registry-only counter (no-op when telemetry is off)."""
        if self.telemetry is not None:
            self.telemetry.registry.inc(name, value)

    def _count(self, name: str, n: int = 1) -> None:
        """Bump ``stats.<name>`` and its ``engine.<name>`` registry mirror.

        The one place either moves, so ``stats`` and ``/metrics`` cannot
        drift apart; a zero ``n`` touches neither (no empty registry row).
        """
        if n:
            setattr(self.stats, name, getattr(self.stats, name) + n)
            self._inc(f"engine.{name}", n)

    def _emit_trial(self, outcome: TrialOutcome, payload: Optional[Dict] = None) -> None:
        """Record one settled outcome as a trial span plus merged metrics.

        Called exactly once per outcome, at the moment it is *queued*
        (submit's replay/cache-hit branches and ``_settle`` including
        followers) — never at ``wait_one`` return, where ``run_batch``'s
        spillover re-queue would double-emit.
        """
        request = outcome.request
        _flightrec.note(
            "trial.settle",
            trial=request.trial_id,
            bracket=request.bracket,
            rung=request.iteration,
            failed=outcome.failed,
            cache_hit=outcome.cache_hit,
        )
        telemetry = self.telemetry
        if telemetry is None:
            return
        result = outcome.result
        now = telemetry.clock()
        t0 = self._submit_time.pop(request.trial_id, now)
        duration = now - t0
        attrs = {
            "trial_id": request.trial_id,
            "seed": request.seed,
            "budget_fraction": request.budget_fraction,
            "iteration": request.iteration,
            "bracket": request.bracket,
            "attempts": outcome.attempts,
            "cache_hit": outcome.cache_hit,
            "resumed": outcome.resumed,
            "failed": outcome.failed,
            "score": float(result.score),
            "gamma": float(result.gamma),
            "cost": float(result.cost),
        }
        if outcome.journal_seq is not None:
            attrs["journal_seq"] = outcome.journal_seq
        if outcome.error is not None:
            attrs["error"] = outcome.error
        if request.warm_source is not None:
            attrs["warm_source"] = request.warm_source
        # Rung occupancy: one deterministic counter per (bracket, rung), the
        # dashboard axis Hyperband's structure makes legible.  Emitted per
        # settled outcome, so serial == parallel counts hold.
        bracket = request.bracket if request.bracket is not None else 0
        rung = request.iteration if request.iteration is not None else 0
        telemetry.registry.inc(f"engine.rung_trials.b{bracket}.r{rung}")
        annotations = [dict(event) for event in result.guard_events]
        if payload is not None and not outcome.cache_hit and not outcome.resumed:
            execute = payload["registry"].histograms().get("trial.execute_s")
            if execute is not None:
                telemetry.registry.observe("engine.execute_s", execute.total)
                telemetry.registry.observe(
                    "engine.queue_wait_s", max(0.0, duration - execute.total)
                )
        telemetry.emit_trial(
            t0, duration, attrs=attrs, annotations=annotations, payload=payload
        )

    # -- async protocol --------------------------------------------------------

    def submit(self, request: TrialRequest) -> TrialRequest:
        """Schedule one request; its outcome arrives via :meth:`wait_one`.

        Journal-replayed and cached outcomes complete immediately (queued
        for the next :meth:`wait_one`), an identical in-flight request is
        joined as a follower rather than re-executed, and everything else
        goes to the executor.  Returns the request with
        ``trial_id``/``seed`` filled in so callers can correlate
        completions.
        """
        request = self._prepare(request)
        cache_key = self._cache_key(request)
        if self._replayed:
            entry = self._replayed.get(cache_key)
            if entry is not None:
                fault_point("engine.replay.pre_serve")
                self._count("resumed")
                self._count("guard_events", len(entry.result.guard_events))
                outcome = replace(entry, request=request)
                self._ready.append(outcome)
                self._emit_trial(outcome)
                return request
        if self.cache is not None:
            cached = self.cache.get(*cache_key)
            if cached is not None:
                self._count("cache_hits")
                self._inc(f"engine.cache_hits.rung.{request.iteration}")
                outcome = TrialOutcome(
                    request=request, result=cached, attempts=0, cache_hit=True
                )
                self._ready.append(outcome)
                self._emit_trial(outcome)
                return request
            if cache_key in self._followers:
                self._count("cache_hits")
                self._inc(f"engine.cache_hits.rung.{request.iteration}")
                self._followers[cache_key].append(request)
                return request
            self._count("cache_misses")
            self._followers[cache_key] = []
            self._primary_key[request.trial_id] = cache_key
        fault_point("engine.submit.pre_dispatch")
        self._in_flight[request.trial_id] = request
        self.executor.submit(request)
        self._count("executed")
        return request

    def pending(self) -> int:
        """Outcomes still owed to the caller (in flight, followers, ready)."""
        followers = sum(len(f) for f in self._followers.values())
        return len(self._in_flight) + followers + len(self._ready)

    def wait_one(self) -> TrialOutcome:
        """Block until the next outcome (replay, cache hit, success, degradation).

        Failed executions — including watchdog timeouts and non-finite
        results — are retried transparently after a backoff delay; the
        caller only ever sees terminal outcomes.
        """
        while True:
            if self._ready:
                return self._ready.popleft()
            if not self._in_flight:
                raise RuntimeError("wait_one called with no pending trials")
            completion = self.executor.wait_one()
            request = self._in_flight.pop(completion.trial_id)
            ok, result, error = completion.ok, completion.result, completion.error
            payload = completion.telemetry
            if completion.megabatch is not None:
                self._note_megabatch(request, completion.megabatch)
            if ok and not _result_is_finite(result):
                self._count("non_finite")
                if payload is not None and self.telemetry is not None:
                    # The result is discarded, but what happened inside it
                    # (counters, timings) still counts.
                    self.telemetry.registry.merge(payload["registry"])
                    payload = None
                ok, result, error = False, None, (
                    f"NonFiniteScore: evaluation returned a non-finite result "
                    f"(score={result.score!r}, mean={result.mean!r}, std={result.std!r})"
                )
            if ok:
                self._settle(request, result, failed=False, error=None, payload=payload)
                continue
            if error and error.startswith((TIMEOUT_ERROR_PREFIX, WORKER_HUNG_PREFIX)):
                self._count("timeouts")
            if request.attempt < self.max_retries:
                self._count("retries")
                attempt = request.attempt + 1
                seed = derive_seed(
                    self.root_seed, request.resolved_key(), request.budget_fraction, attempt
                )
                retry = replace(request, attempt=attempt, seed=seed)
                delay = self._retry_delay(retry)
                if delay > 0.0:
                    self._sleep(delay)
                self._in_flight[retry.trial_id] = retry
                self.executor.submit(retry)
                self._count("executed")
                continue
            self._count("failures")
            sentinel = _sentinel_result(request.budget_fraction)
            self._settle(request, sentinel, failed=True, error=error)

    def _retry_delay(self, retry: TrialRequest) -> float:
        """Seeded exponential backoff with jitter for one retry attempt.

        Doubling per attempt spaces out repeated hits on a struggling
        resource; the jitter factor in ``[0.5, 1.0]`` de-synchronises
        concurrent retries.  The jitter is drawn from the retry's own
        derived seed, so delays — like everything else in the engine —
        are a pure function of ``(root_seed, config, budget, attempt)``.
        """
        return backoff_delay(
            self.retry_backoff, retry.attempt, self.retry_backoff_max, retry.seed
        )

    def _settle(
        self,
        request: TrialRequest,
        result: EvaluationResult,
        failed: bool,
        error: Optional[str],
        payload: Optional[Dict] = None,
    ) -> None:
        """Journal then queue the terminal outcome, release followers, cache it.

        The checkpoint and journal record are staged and committed
        *before* the outcome can reach the searcher — right here, or with
        the rest of the rung :meth:`run_batch` is collecting — the
        write-ahead ordering that guarantees any result a searcher has
        observed is recoverable after a crash.  The result's captured
        ``fold_states`` are taken (and the field cleared) first, so the
        cache, the journal and the searcher never see them.  The telemetry
        payload (from the completion, never on the result) is recorded
        here, once per executed trial; followers get their own cache-hit
        spans.
        """
        attempts = request.attempt + 1
        staged = self._rung or ([], [])
        fold_states, result.fold_states = result.fold_states, None
        if fold_states is not None and self.checkpoints is not None and not failed:
            self.checkpoints.put(
                request.resolved_key(), request.budget_fraction, fold_states, batch=staged[0]
            )
            self._count("checkpoints_stored")
        self._count("guard_events", len(result.guard_events))
        outcome = TrialOutcome(
            request=request, result=result, attempts=attempts, failed=failed, error=error
        )
        if self.journal is not None and self._journal_open:
            fault_point("engine.settle.pre_journal")
            outcome.journal_seq = self.journal.append(outcome, batch=staged[1])
        if self._rung is None:
            self._commit(staged)
        fault_point("engine.settle.pre_commit")
        self._ready.append(outcome)
        self._emit_trial(outcome, payload=payload)
        cache_key = self._primary_key.pop(request.trial_id, None)
        if cache_key is None:
            return
        for follower in self._followers.pop(cache_key, []):
            follower_outcome = TrialOutcome(
                request=follower, result=result, attempts=0, cache_hit=True,
                failed=failed, error=error,
            )
            self._ready.append(follower_outcome)
            self._emit_trial(follower_outcome)
        if not failed and self.cache is not None:
            fault_point("engine.cache.pre_insert")
            self.cache.put(*cache_key[:3], result, *cache_key[3:])

    def _commit(self, staged: Tuple[List, List[str]]) -> None:
        """Make staged work durable: the checkpoint segment, then the journal
        — so a durable record implies its checkpoint is loadable (a crash in
        between leaves a segment whose trials re-execute bitwise on resume)."""
        checkpoints, lines = staged
        if checkpoints and self.checkpoints.commit(checkpoints):
            self._count("spill_segments")
        if lines:
            self.journal.commit(lines)
            self._count("journal_commits")

    def _note_megabatch(self, request: TrialRequest, summary: Dict) -> None:
        """Account one mega-batch: an evaluator call that fused trials.

        ``summary`` is what the call's first completion carried —
        :meth:`~repro.learners.batched.MegaBatchStats.as_dict` plus the
        call's ``wall_s`` — whether the call ran here (serial
        ``flush_batch``) or in a worker, with telemetry or without.
        Stats counters accumulate over the run; the occupancy gauge is
        keyed per (bracket, rung) — lanes filled over lane capacity for
        the rung that just fused — which is what the ``/metrics``
        exporter surfaces as ``repro_job_rung_occupancy``; and a
        ``megabatch`` span, as long as the call, lands under the open
        rung span.
        """
        attrs = dict(summary)
        wall = attrs.pop("wall_s")
        self._count("megabatch_trials", attrs["trials"])
        self._count("megabatch_folds", attrs["fused_folds"])
        telemetry = self.telemetry
        if telemetry is None:
            return
        bracket = request.bracket if request.bracket is not None else 0
        rung = request.iteration if request.iteration is not None else 0
        telemetry.registry.set_gauge(f"engine.rung_occupancy.b{bracket}.r{rung}", attrs["occupancy"])
        telemetry.tracer.emit(
            "megabatch",
            "megabatch",
            telemetry.clock() - wall,
            wall,
            attrs={**attrs, "bracket": request.bracket, "rung": request.iteration},
        )

    # -- batch protocol --------------------------------------------------------

    def run_batch(self, requests: Sequence[TrialRequest]) -> List[TrialOutcome]:
        """Evaluate a batch and return outcomes **in request order**.

        This is the synchronous entry point used by rung-at-a-time
        searchers: submission order fixes both trial ids and the returned
        order, so a fixed-seed search is bitwise identical under serial
        and parallel executors — and, via journal replay, across an
        interruption.

        After the whole rung is submitted the executor gets one
        :meth:`~repro.engine.executors.TrialExecutor.flush_batch` call —
        its chance to fuse the queued trials into a rung-level mega-batch
        (shape-matched fold lanes stacked across trials), whose summary
        :meth:`wait_one` reads off the completions.  Fusion changes
        scheduling only: results, cache keys and journal records are
        bitwise-identical to per-trial execution.

        The rung is also the unit of durable commit: outcomes settling in
        here only stage, and one commit — a spill segment, then one
        journal write + fsync — lands before they are returned (or before
        an exception that cuts the rung short propagates, so whatever
        stays claimable is durable too).  A crash loses at most this
        rung, which re-executes bitwise on resume.
        """
        self._rung = staged = ([], [])
        try:
            submitted = [self.submit(request) for request in requests]
            if submitted:
                self.executor.flush_batch()
            outcomes: Dict[int, TrialOutcome] = {}
            wanted = {request.trial_id for request in submitted}
            spillover: List[TrialOutcome] = []
            while len(outcomes) < len(submitted):
                outcome = self.wait_one()
                if outcome.request.trial_id in wanted:
                    outcomes[outcome.request.trial_id] = outcome
                else:  # outcome of an earlier async submission; keep it claimable
                    spillover.append(outcome)
            self._ready.extendleft(reversed(spillover))
        finally:
            self._rung = None
            self._commit(staged)
        return [outcomes[request.trial_id] for request in submitted]
