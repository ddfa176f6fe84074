"""ASHA — Asynchronous Successive Halving (Li et al., 2018).

One scheduler (greedy promotion of any configuration in the top ``1/eta``
of its rung, bottom-rung backfill otherwise) keeps up to ``n_workers``
trials in flight on the searcher's :class:`~repro.engine.TrialEngine`.  On
the default serial engine completions arrive in submission order, so the
run is deterministic and ``simulated_makespan_`` — a greedy list-scheduling
estimate over the measured costs — answers "how long on ``n_workers``
machines".  With a :class:`~repro.engine.ParallelExecutor` the asynchrony
is *real*: scheduler decisions react to genuine completion order and
``measured_makespan_`` reports actual wall-clock time.

A journal-backed engine makes ASHA crash-resumable
(:meth:`~repro.bandit.base.BaseSearcher.resume`): replayed completions are
delivered in submission order, so the resumed prefix reproduces the
promotion decisions of a run whose completions arrived in submission
order — exactly the serial executor's behaviour.  Per-trial scores are
reproducible under any executor; with a parallel executor only the
*promotion schedule* may differ between an original and a resumed run,
just as it may differ between two parallel runs of a real asynchronous
deployment.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..engine.protocol import TrialRequest
from ..space import config_key
from .base import BaseSearcher, SearchResult

__all__ = ["ASHA"]


@dataclass
class _Rung:
    """Completed evaluations at one budget level."""

    completed: List[Tuple[float, int]] = field(default_factory=list)  # (score, config_id)
    promoted: Set[int] = field(default_factory=set)


class _Scheduler:
    """ASHA's promote-else-grow job source."""

    def __init__(self, pool: List[Dict[str, Any]], eta: float, max_rung: int) -> None:
        self.pool = pool
        self.eta = eta
        self.rungs: Dict[int, _Rung] = {k: _Rung() for k in range(max_rung + 1)}
        self.configs_by_id: Dict[int, Dict[str, Any]] = {}
        self._key_to_id: Dict[Tuple, int] = {}
        self._next_new = 0
        self._max_rung = max_rung

    def _register(self, config: Dict[str, Any]) -> int:
        key = config_key(config)
        if key not in self._key_to_id:
            new_id = len(self._key_to_id)
            self._key_to_id[key] = new_id
            self.configs_by_id[new_id] = config
        return self._key_to_id[key]

    def next_job(self) -> Optional[Tuple[int, int]]:
        """(config_id, rung): promote from the highest promotable rung, else grow."""
        for rung_index in range(self._max_rung - 1, -1, -1):
            rung = self.rungs[rung_index]
            if not rung.completed:
                continue
            n_promotable = int(len(rung.completed) / self.eta)
            ranked = sorted(rung.completed, key=lambda item: -item[0])
            for _, config_id in ranked[:n_promotable]:
                if config_id not in rung.promoted:
                    rung.promoted.add(config_id)
                    return config_id, rung_index + 1
        if self._next_new < len(self.pool):
            config_id = self._register(self.pool[self._next_new])
            self._next_new += 1
            return config_id, 0
        return None

    def complete(self, config_id: int, rung_index: int, score: float) -> None:
        """Make a finished evaluation visible to future scheduling decisions."""
        self.rungs[rung_index].completed.append((score, config_id))


class ASHA(BaseSearcher):
    """Asynchronous successive halving.

    Parameters
    ----------
    space, evaluator, random_state, engine:
        See :class:`~repro.bandit.base.BaseSearcher`.  Up to ``n_workers``
        trials are kept in flight on the engine's executor.
    eta:
        Promotion rate: a configuration is promoted when it ranks in the
        top ``1/eta`` of completions at its rung.
    min_budget_fraction:
        Rung-0 instance fraction; rung ``k`` uses ``min * eta**k``.
    n_workers:
        Number of trials kept in flight.
    max_started:
        Cap on distinct configurations started at rung 0 when :meth:`fit`
        receives no explicit candidates.

    Attributes
    ----------
    simulated_makespan_:
        Greedy ``n_workers``-machine list-scheduling estimate over the
        measured evaluation costs.
    measured_makespan_:
        Actual wall-clock seconds of the dispatch loop (the serial
        evaluation time on the default engine; genuinely smaller when a
        parallel executor overlaps trials).
    """

    method_name = "ASHA"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        eta: float = 2.0,
        min_budget_fraction: float = 1.0 / 8.0,
        n_workers: int = 4,
        max_started: int = 32,
        engine=None,
    ) -> None:
        super().__init__(space, evaluator, random_state, engine=engine)
        if eta <= 1.0:
            raise ValueError(f"eta must be > 1, got {eta}")
        if not 0.0 < min_budget_fraction <= 1.0:
            raise ValueError(f"min_budget_fraction must be in (0, 1], got {min_budget_fraction}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.eta = eta
        self.min_budget_fraction = min_budget_fraction
        self.n_workers = n_workers
        self.max_started = max_started
        self.simulated_makespan_: float = 0.0
        self.measured_makespan_: float = 0.0

    @property
    def max_rung(self) -> int:
        """Highest rung index (budget fraction capped at 1.0)."""
        return int(math.floor(math.log(1.0 / self.min_budget_fraction, self.eta)))

    def _budget_at(self, rung: int) -> float:
        return min(1.0, self.min_budget_fraction * self.eta**rung)

    def _resolve_pool(
        self,
        configurations: Optional[Sequence[Dict[str, Any]]],
        n_configurations: Optional[int],
    ) -> List[Dict[str, Any]]:
        if configurations is not None or n_configurations is not None:
            return list(self._initial_configurations(configurations, n_configurations))
        return list(self.space.sample_batch(self.max_started, rng=self._rng))

    def _fit(
        self,
        configurations: Optional[Sequence[Dict[str, Any]]] = None,
        n_configurations: Optional[int] = None,
    ) -> SearchResult:
        """Keep up to ``n_workers`` trials in flight on the engine.

        Scheduling decisions consume *actual* completion order, so with a
        parallel executor this is true ASHA rather than a simulation.  The
        per-trial derived seeds still make each individual evaluation
        reproducible; only the promotion schedule may differ between
        executors, exactly as in a real asynchronous deployment.
        """
        self._reset()
        start = time.perf_counter()
        pool = self._resolve_pool(configurations, n_configurations)
        scheduler = _Scheduler(pool, self.eta, self.max_rung)
        best = None  # (budget, rung, config, score)
        in_flight: Dict[int, Tuple[int, int]] = {}  # trial_id -> (config_id, rung)
        durations: List[float] = []
        while True:
            while len(in_flight) < self.n_workers:
                job = scheduler.next_job()
                if job is None:
                    break
                config_id, rung_index = job
                request = self.engine.submit(
                    TrialRequest(
                        config=scheduler.configs_by_id[config_id],
                        budget_fraction=self._budget_at(rung_index),
                        iteration=rung_index,
                    )
                )
                in_flight[request.trial_id] = (config_id, rung_index)
            if not in_flight:
                break
            outcome = self.engine.wait_one()
            config_id, rung_index = in_flight.pop(outcome.request.trial_id)
            trial = self._record_outcome(outcome)
            scheduler.complete(config_id, rung_index, trial.result.score)
            durations.append(max(trial.result.cost, 1e-9))
            candidate = (self._budget_at(rung_index), rung_index, trial.config, trial.result.score)
            if best is None or (candidate[0], candidate[3]) > (best[0], best[3]):
                best = candidate

        self.simulated_makespan_ = self._list_schedule_makespan(durations)
        self.measured_makespan_ = time.perf_counter() - start
        assert best is not None  # the pool is never empty
        return SearchResult(
            best_config=best[2],
            best_score=best[3],
            trials=list(self._trials),
            wall_time=time.perf_counter() - start,
            method=self.method_name,
        )

    def _list_schedule_makespan(self, durations: List[float]) -> float:
        """Greedy ``n_workers``-machine makespan estimate over observed costs."""
        if not durations:
            return 0.0
        worker_free = [0.0] * self.n_workers
        heapq.heapify(worker_free)
        for duration in durations:
            heapq.heappush(worker_free, heapq.heappop(worker_free) + duration)
        return max(worker_free)
