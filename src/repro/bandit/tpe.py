"""Sequential TPE — an Optuna-style full-budget baseline.

The paper compares against Optuna and SMAC3 in the text (Section IV-B) and
reports that, under a time budget similar to SHA's, they perform close to
random search — which is why Table IV keeps only the random baseline.  This
sequential Tree-structured Parzen Estimator lets that claim be reproduced:
it evaluates one configuration at a time at *full* budget, proposing each
next candidate from the good/bad density ratio (the same machinery BOHB
uses, without multi-fidelity budgets).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from .base import BaseSearcher, take_nearest, trial_count
from .bohb import density_ratio_proposal

__all__ = ["TPESearch"]


class TPESearch(BaseSearcher):
    """Sequential model-based search with a TPE sampler.

    Parameters
    ----------
    space, evaluator, random_state:
        See :class:`~repro.bandit.base.BaseSearcher`.
    n_trials:
        Total configurations evaluated (each at full budget).
    n_startup:
        Random evaluations before the density model activates.
    top_n_percent:
        Good/bad split percentile.
    n_candidates:
        Candidates scored per model proposal.
    """

    method_name = "TPE"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        n_trials: int = 10,
        n_startup: int = 5,
        top_n_percent: float = 25.0,
        n_candidates: int = 24,
    ) -> None:
        super().__init__(space, evaluator, random_state)
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        if n_startup < 1:
            raise ValueError(f"n_startup must be >= 1, got {n_startup}")
        if not 0.0 < top_n_percent < 100.0:
            raise ValueError(f"top_n_percent must be in (0, 100), got {top_n_percent}")
        self.n_trials = n_trials
        self.n_startup = n_startup
        self.top_n_percent = top_n_percent
        self.n_candidates = n_candidates

    def _propose(self, observations: List[Tuple[np.ndarray, float]]) -> Dict[str, Any]:
        if len(observations) < max(self.n_startup, 3):
            return self.space.sample(self._rng)
        return self.space.decode(
            density_ratio_proposal(
                observations, self.top_n_percent, 1, self.n_candidates, self._rng
            )
        )

    def _schedule(self, configurations, n_configurations):
        """One full-budget rung of one configuration per trial.

        When an explicit candidate pool is given, proposals are snapped to
        the nearest unevaluated pool member (grid-restricted TPE).
        """
        pool = None
        if configurations is not None:
            pool = self._initial_configurations(configurations, None)
            vectors = np.array([self.space.encode(c) for c in pool])
            remaining = list(range(len(pool)))

        observations: List[Tuple[np.ndarray, float]] = []
        for _ in range(trial_count(n_configurations, self.n_trials)):
            proposal = self._propose(observations)
            if pool is not None:
                if not remaining:
                    break
                proposal = take_nearest(pool, vectors, remaining, self.space.encode(proposal))
            (trial,) = yield [proposal], 1.0, 0, 0
            observations.append((self.space.encode(proposal), trial.result.score))
