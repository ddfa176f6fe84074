"""HyperBand — Li et al., JMLR 2017.

Runs several Successive-Halving brackets that trade off the number of
configurations against their starting budget ("exploration-exploitation"
over resource allocation).  Bracket ``s`` starts ``n_s`` configurations at
fraction ``eta^-s`` of the instance budget and halves ``s`` times.

The configuration-proposal step is isolated in :meth:`_propose_configs` so
that BOHB can subclass and replace random sampling with its model-based
sampler while inheriting the bracket machinery unchanged.

HyperBand runs are the expensive restarts the engine's run journal exists
for: with ``engine=TrialEngine(..., journal=path)`` every completed rung
evaluation is durable, and re-running :meth:`fit` (or calling
:meth:`~repro.bandit.base.BaseSearcher.resume`) after a crash replays the
completed brackets from disk and continues from the first lost trial.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence

from .base import BaseSearcher, SearchResult, Trial, top_k_indices

__all__ = ["HyperBand"]


class HyperBand(BaseSearcher):
    """HyperBand over instance budgets.

    Parameters
    ----------
    space, evaluator, random_state, engine:
        See :class:`~repro.bandit.base.BaseSearcher`; every rung of every
        bracket is submitted to the engine as one batch, and cycled pool
        configurations hit the engine's evaluation cache across brackets.
    eta:
        Halving rate inside each bracket (HpBandSter's default of 3).
    min_budget_fraction:
        Smallest per-configuration instance fraction; determines the number
        of brackets ``s_max = floor(log_eta(1 / min_budget_fraction))``.
    """

    method_name = "HB"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        eta: float = 3.0,
        min_budget_fraction: float = 1.0 / 27.0,
        engine=None,
    ) -> None:
        super().__init__(space, evaluator, random_state, engine=engine)
        if eta <= 1.0:
            raise ValueError(f"eta must be > 1, got {eta}")
        if not 0.0 < min_budget_fraction <= 1.0:
            raise ValueError(f"min_budget_fraction must be in (0, 1], got {min_budget_fraction}")
        self.eta = eta
        self.min_budget_fraction = min_budget_fraction

    @property
    def s_max(self) -> int:
        """Deepest bracket index."""
        return int(math.floor(math.log(1.0 / self.min_budget_fraction, self.eta)))

    def bracket_plan(self) -> List[Dict[str, float]]:
        """The (n_configs, starting fraction) of every bracket, deep first."""
        plan = []
        for s in range(self.s_max, -1, -1):
            n = int(math.ceil((self.s_max + 1) / (s + 1) * self.eta**s))
            r = self.eta**-s
            plan.append({"s": s, "n_configs": n, "budget_fraction": r})
        return plan

    # -- hook for BOHB -------------------------------------------------------

    def _propose_configs(self, n: int, budget_fraction: float) -> List[Dict[str, Any]]:
        """Candidate configurations for a new bracket (random here)."""
        return self.space.sample_batch(n, rng=self._rng, unique=False)

    def _observe(self, trial: Trial) -> None:
        """Notification hook after every evaluation (no-op for HB)."""

    # -- main loop ------------------------------------------------------------

    def _fit(
        self,
        configurations: Optional[Sequence[Dict[str, Any]]] = None,
        n_configurations: Optional[int] = None,
    ) -> SearchResult:
        """Run every bracket and return the best configuration found.

        When an explicit candidate list is given (the paper's fixed-grid
        comparison), brackets draw from that pool instead of sampling the
        space, cycling when a bracket wants more configurations than the
        pool holds.
        """
        self._reset()
        start = time.perf_counter()
        pool: Optional[List[Dict[str, Any]]] = None
        if configurations is not None or n_configurations is not None:
            pool = self._initial_configurations(configurations, n_configurations)
            pool_order = list(self._rng.permutation(len(pool)))
        best_trial: Optional[Trial] = None

        for bracket in self.bracket_plan():
            s = int(bracket["s"])
            n = int(bracket["n_configs"])
            budget_fraction = float(bracket["budget_fraction"])
            if pool is not None:
                candidates = []
                while len(candidates) < n:
                    if not pool_order:
                        pool_order = list(self._rng.permutation(len(pool)))
                    candidates.append(dict(pool[pool_order.pop()]))
                candidates = candidates[:n]
            else:
                candidates = self._propose_configs(n, budget_fraction)

            with self._span(
                "bracket", s=s, n_configs=n, budget_fraction=budget_fraction
            ):
                survivors = candidates
                rung_budget = budget_fraction
                for rung in range(s + 1):
                    trials = self._evaluate_batch(
                        survivors, min(rung_budget, 1.0), iteration=rung, bracket=s
                    )
                    for trial in trials:
                        self._observe(trial)
                        if best_trial is None or self._is_better(trial, best_trial):
                            best_trial = trial
                    n_keep = max(1, int(len(survivors) / self.eta))
                    keep = top_k_indices([t.result.score for t in trials], n_keep)
                    survivors = [trials[i].config for i in keep]
                    rung_budget *= self.eta
                    if len(survivors) == 1 and rung == s:
                        break

        assert best_trial is not None  # at least one bracket always runs
        return SearchResult(
            best_config=best_trial.config,
            best_score=best_trial.result.score,
            trials=list(self._trials),
            wall_time=time.perf_counter() - start,
            method=self.method_name,
        )

    @staticmethod
    def _is_better(candidate: Trial, incumbent: Trial) -> bool:
        """Prefer larger budgets; break ties on score.

        A score measured on a larger subset is more reliable, so the
        incumbent is only displaced by an equal-or-larger-budget trial with
        a better score, or by any strictly-larger-budget trial.
        """
        if candidate.budget_fraction > incumbent.budget_fraction:
            return True
        if candidate.budget_fraction == incumbent.budget_fraction:
            return candidate.result.score > incumbent.result.score
        return False
