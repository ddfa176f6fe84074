"""Successive Halving (SHA) — Jamieson & Talwalkar, 2016.

Implements Algorithm 1 of the paper with instances as the budget: each
iteration allocates ``b_t = B / |T_t|`` instances to every surviving
configuration, scores them through the evaluator, and keeps the top
``1/eta`` fraction until one configuration remains (Figure 1 shows the
``eta = 2`` trace with 8 configurations).

The halving schedule is a pure function of the candidate list and the
seed, so a journal-backed engine makes interrupted runs resumable: see
:meth:`~repro.bandit.base.BaseSearcher.resume`.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence

from .base import BaseSearcher, SearchResult, Trial, top_k_indices

__all__ = ["SuccessiveHalving"]


class SuccessiveHalving(BaseSearcher):
    """Successive halving over a candidate set.

    Parameters
    ----------
    space, evaluator, random_state, engine:
        See :class:`~repro.bandit.base.BaseSearcher`; each halving
        iteration is submitted to the engine as one batch, so a parallel
        executor evaluates a whole rung concurrently.
    eta:
        Elimination rate: the top ``1/eta`` of configurations survive each
        iteration.  The paper halves, so the default is 2.
    min_budget_fraction:
        Floor on the per-configuration instance fraction, protecting very
        large candidate sets from degenerate one-instance evaluations.

    Examples
    --------
    Budget doubles as the candidate set halves::

        iteration 0: 8 configs x 1/8 budget
        iteration 1: 4 configs x 1/4 budget
        iteration 2: 2 configs x 1/2 budget
        iteration 3: 1 config   (winner)
    """

    method_name = "SHA"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        eta: float = 2.0,
        min_budget_fraction: float = 0.01,
        engine=None,
    ) -> None:
        super().__init__(space, evaluator, random_state, engine=engine)
        if eta <= 1.0:
            raise ValueError(f"eta must be > 1, got {eta}")
        if not 0.0 < min_budget_fraction <= 1.0:
            raise ValueError(f"min_budget_fraction must be in (0, 1], got {min_budget_fraction}")
        self.eta = eta
        self.min_budget_fraction = min_budget_fraction

    def _fit(
        self,
        configurations: Optional[Sequence[Dict[str, Any]]] = None,
        n_configurations: Optional[int] = None,
    ) -> SearchResult:
        """Run halving until a single configuration survives."""
        self._reset()
        start = time.perf_counter()
        survivors = self._initial_configurations(configurations, n_configurations)
        last_trials: List[Trial] = []
        iteration = 0
        while len(survivors) > 1:
            budget_fraction = max(1.0 / len(survivors), self.min_budget_fraction)
            budget_fraction = min(budget_fraction, 1.0)
            last_trials = self._evaluate_batch(survivors, budget_fraction, iteration=iteration)
            n_keep = max(1, math.ceil(len(survivors) / self.eta))
            keep = top_k_indices([t.result.score for t in last_trials], n_keep)
            survivors = [last_trials[i].config for i in keep]
            iteration += 1

        if last_trials:
            scores = {id(t.config): t.result.score for t in last_trials}
            best_score = scores.get(id(survivors[0]), last_trials[0].result.score)
        else:
            # Single candidate: evaluate once at full budget for a score.
            trial = self._evaluate(survivors[0], 1.0, iteration=0)
            best_score = trial.result.score
        return SearchResult(
            best_config=survivors[0],
            best_score=float(best_score),
            trials=list(self._trials),
            wall_time=time.perf_counter() - start,
            method=self.method_name,
        )
