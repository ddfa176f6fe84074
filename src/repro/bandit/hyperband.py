"""HyperBand — Li et al., JMLR 2017.

Runs several Successive-Halving brackets that trade off the number of
configurations against their starting budget ("exploration-exploitation"
over resource allocation).  Bracket ``s`` starts ``n_s`` configurations at
fraction ``eta^-s`` of the instance budget and halves ``s`` times.

HyperBand is a schedule: :meth:`_schedule` yields every bracket's rungs
and :meth:`~repro.bandit.base.BaseSearcher._fit` — the rung loop every
synchronous searcher shares — evaluates them and keeps the incumbent.  The
configuration-proposal step is isolated in :meth:`_propose_configs` (and
the per-trial notification in ``_observe``) so that BOHB and DEHB replace
random sampling with their model-based samplers while inheriting the
bracket machinery unchanged.

HyperBand runs are the expensive restarts the engine's run journal exists
for: with ``engine=TrialEngine(..., journal=path)`` every completed rung
evaluation is durable, and re-running :meth:`fit` (or calling
:meth:`~repro.bandit.base.BaseSearcher.resume`) after a crash replays the
completed brackets from disk and continues from the first lost trial.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, Tuple

import numpy as np

from .base import BaseSearcher, Trial, deepest_rung, top_k_indices

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
        self._set_budgets(eta, min_budget_fraction)

    @property
    def s_max(self) -> int:
        """Deepest bracket index."""
        return deepest_rung(self.eta, self.min_budget_fraction)

    def bracket_plan(self) -> List[Dict[str, float]]:
        """The (n_configs, starting fraction) of every bracket, deep first."""
        plan = []
        for s in range(self.s_max, -1, -1):
            n = int(math.ceil((self.s_max + 1) / (s + 1) * self.eta**s))
            r = self.eta**-s
            plan.append({"s": s, "n_configs": n, "budget_fraction": r})
        return plan

    def _propose_configs(self, n: int, budget_fraction: float) -> List[Dict[str, Any]]:
        """Candidates for a new bracket: random here; BOHB and DEHB override it."""
        return self.space.sample_batch(n, rng=self._rng, unique=False)

    def _schedule(self, configurations, n_configurations):
        """Every bracket's rungs, deep bracket first.

        When candidates are given (the paper's fixed-grid comparison),
        brackets draw from that pool instead of sampling the space,
        cycling when a bracket wants more configurations than the pool
        holds.  Each bracket's ``bracket`` span stays open around its rungs.
        """
        pool = None
        if configurations is not None or n_configurations is not None:
            pool = self._initial_configurations(configurations, n_configurations)
            pool_order = list(self._rng.permutation(len(pool)))

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
            else:
                candidates = self._propose_configs(n, budget_fraction)

            with self._span("bracket", s=s, n_configs=n, budget_fraction=budget_fraction):
                survivors = candidates
                rung_budget = budget_fraction
                for rung in range(s + 1):
                    trials = yield survivors, min(rung_budget, 1.0), rung, s
                    n_keep = max(1, int(len(survivors) / self.eta))
                    keep = top_k_indices([t.result.score for t in trials], n_keep)
                    survivors = [trials[i].config for i in keep]
                    rung_budget *= self.eta


class ModelBasedHyperBand(HyperBand):
    """A HyperBand whose proposals learn from what it has evaluated.

    ``_history`` maps each budget fraction (rounded to 6 places) to the
    ``(encoded config, score)`` of every trial run at it, in evaluation
    order: BOHB fits its densities to one budget's list, DEHB draws its
    parents from them.  A fresh run starts it empty.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._history: Dict[float, List[Tuple[np.ndarray, float]]] = defaultdict(list)

    def _reset(self) -> None:
        super()._reset()
        self._history = defaultdict(list)

    def _observe(self, trial: Trial) -> None:
        """Record (encoded config, score) under the trial's budget."""
        observation = (self.space.encode(trial.config), trial.result.score)
        self._history[round(trial.budget_fraction, 6)].append(observation)
