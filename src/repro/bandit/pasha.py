"""PASHA — Progressive ASHA (Bohdal et al., 2023), simplified.

Listed in the paper's related work as a HyperBand improvement: instead of
fixing the maximum rung up front, PASHA starts with a *small* rung ceiling
and only unlocks the next rung when the ranking of the top configurations
at the two highest active rungs disagrees — i.e. more budget is spent only
when the cheap budgets have not yet stabilised the leaderboard.

This implementation follows the published stopping rule (soft rank
stability of the top ``1/eta`` configurations) on top of ASHA's
promote-else-grow scheduling, one trial at a time.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..space import config_key
from .base import BaseSearcher, SearchResult

__all__ = ["PASHA"]


class PASHA(BaseSearcher):
    """Progressive successive halving with dynamic rung unlocking.

    Parameters
    ----------
    space, evaluator, random_state:
        See :class:`~repro.bandit.base.BaseSearcher`.
    eta:
        Promotion rate.
    min_budget_fraction:
        Rung-0 instance fraction.
    initial_rungs:
        Active rungs at the start (the reference uses the two cheapest).
    max_started:
        Configurations started at rung 0 when no pool is given.
    """

    method_name = "PASHA"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        eta: float = 2.0,
        min_budget_fraction: float = 1.0 / 8.0,
        initial_rungs: int = 2,
        max_started: int = 32,
    ) -> None:
        super().__init__(space, evaluator, random_state)
        if eta <= 1.0:
            raise ValueError(f"eta must be > 1, got {eta}")
        if not 0.0 < min_budget_fraction <= 1.0:
            raise ValueError(f"min_budget_fraction must be in (0, 1], got {min_budget_fraction}")
        if initial_rungs < 1:
            raise ValueError(f"initial_rungs must be >= 1, got {initial_rungs}")
        self.eta = eta
        self.min_budget_fraction = min_budget_fraction
        self.initial_rungs = initial_rungs
        self.max_started = max_started

    @property
    def max_rung(self) -> int:
        """Highest rung the schedule can ever unlock."""
        return int(math.floor(math.log(1.0 / self.min_budget_fraction, self.eta)))

    def _budget_at(self, rung: int) -> float:
        return min(1.0, self.min_budget_fraction * self.eta**rung)

    @staticmethod
    def _top_ranking(completed: List[Tuple[float, int]], k: int) -> List[int]:
        ranked = sorted(completed, key=lambda item: (-item[0], item[1]))
        return [config_id for _, config_id in ranked[:k]]

    def _should_unlock(self, rungs: Dict[int, List[Tuple[float, int]]], ceiling: int) -> bool:
        """Unlock the next rung when the top sets of the two highest active
        rungs disagree (the reference's ranking-stability test)."""
        if ceiling >= self.max_rung:
            return False
        high, low = rungs[ceiling], rungs.get(ceiling - 1, [])
        if len(high) < 2 or len(low) < 2:
            return False
        k = max(1, int(len(high) / self.eta))
        top_high = set(self._top_ranking(high, k))
        top_low = set(self._top_ranking(low, k))
        return not top_high <= top_low

    def _fit(
        self,
        configurations: Optional[Sequence[Dict[str, Any]]] = None,
        n_configurations: Optional[int] = None,
    ) -> SearchResult:
        """Run PASHA sequentially (promotion rule identical to ASHA's)."""
        self._reset()
        start = time.perf_counter()
        if configurations is not None or n_configurations is not None:
            pool = self._initial_configurations(configurations, n_configurations)
        else:
            pool = self.space.sample_batch(self.max_started, rng=self._rng)
        pool = list(pool)
        next_new = 0

        rungs: Dict[int, List[Tuple[float, int]]] = {k: [] for k in range(self.max_rung + 1)}
        promoted: Dict[int, Set[int]] = {k: set() for k in range(self.max_rung + 1)}
        configs_by_id: Dict[int, Dict[str, Any]] = {}
        key_to_id: Dict[Tuple, int] = {}
        ceiling = min(self.initial_rungs - 1, self.max_rung)
        best: Optional[Tuple[float, float]] = None
        best_config: Optional[Dict[str, Any]] = None

        def register(config: Dict[str, Any]) -> int:
            key = config_key(config)
            if key not in key_to_id:
                key_to_id[key] = len(key_to_id)
                configs_by_id[key_to_id[key]] = config
            return key_to_id[key]

        def next_job() -> Optional[Tuple[int, int]]:
            nonlocal next_new
            for rung_index in range(ceiling - 1, -1, -1):
                completed = rungs[rung_index]
                if not completed:
                    continue
                n_promotable = int(len(completed) / self.eta)
                for config_id in self._top_ranking(completed, n_promotable):
                    if config_id not in promoted[rung_index]:
                        promoted[rung_index].add(config_id)
                        return config_id, rung_index + 1
            if next_new < len(pool):
                config_id = register(pool[next_new])
                next_new += 1
                return config_id, 0
            return None

        while True:
            job = next_job()
            if job is None:
                if self._should_unlock(rungs, ceiling):
                    ceiling += 1
                    continue
                break
            config_id, rung_index = job
            trial = self._evaluate(
                configs_by_id[config_id], self._budget_at(rung_index), iteration=rung_index
            )
            rungs[rung_index].append((trial.result.score, config_id))
            key = (self._budget_at(rung_index), trial.result.score)
            if best is None or key > best:
                best = key
                best_config = configs_by_id[config_id]

        self.final_ceiling_ = ceiling
        assert best_config is not None
        return SearchResult(
            best_config=best_config,
            best_score=best[1],
            trials=list(self._trials),
            wall_time=time.perf_counter() - start,
            method=self.method_name,
        )
