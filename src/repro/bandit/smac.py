"""SMAC-style Bayesian optimization with a random-forest surrogate.

The paper's Section IV-B compares against SMAC3, whose defining features
are a random-forest surrogate (mean + per-tree variance) and an expected-
improvement acquisition optimized over candidate configurations.  This
sequential implementation reproduces that recipe on top of
:class:`repro.learners.forest.RandomForestRegressor`, evaluating every
accepted configuration at full budget like the paper's comparison did.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .base import BaseSearcher, take_nearest, trial_count

__all__ = ["SMACSearch", "expected_improvement"]


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01) -> np.ndarray:
    """EI acquisition ``E[max(0, f - best - xi)]`` for maximisation.

    Parameters
    ----------
    mean, std:
        Surrogate predictions per candidate.
    best:
        Current incumbent value.
    xi:
        Exploration margin.
    """
    # The standard normal's cdf and pdf, written out: scipy's ``norm``
    # distribution computes exactly these, behind a second of imports.
    from scipy.special import ndtr

    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = mean - best - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
        pdf = np.exp(-(z**2) / 2.0) / math.sqrt(2 * math.pi)
        ei = np.where(
            std > 0,
            improvement * ndtr(z) + std * pdf,
            np.maximum(improvement, 0.0),
        )
    return ei


class SMACSearch(BaseSearcher):
    """Sequential model-based optimization with an RF surrogate + EI.

    Parameters
    ----------
    space, evaluator, random_state:
        See :class:`~repro.bandit.base.BaseSearcher`.
    n_trials:
        Total full-budget evaluations.
    n_startup:
        Random evaluations before the surrogate activates.
    n_candidates:
        Random candidates scored by EI per iteration.
    n_estimators:
        Trees in the surrogate forest.
    """

    method_name = "SMAC"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        n_trials: int = 10,
        n_startup: int = 4,
        n_candidates: int = 64,
        n_estimators: int = 10,
    ) -> None:
        super().__init__(space, evaluator, random_state)
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        if n_startup < 1:
            raise ValueError(f"n_startup must be >= 1, got {n_startup}")
        if n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
        self.n_trials = n_trials
        self.n_startup = n_startup
        self.n_candidates = n_candidates
        self.n_estimators = n_estimators

    def _propose(
        self, observations: List[Tuple[np.ndarray, float]], pool_vectors: Optional[np.ndarray]
    ) -> np.ndarray:
        """Next encoded configuration: random during startup, EI-argmax after."""
        if len(observations) < self.n_startup:
            if pool_vectors is not None:
                return pool_vectors[int(self._rng.integers(len(pool_vectors)))]
            return self.space.encode(self.space.sample(self._rng))

        from ..learners.forest import RandomForestRegressor

        X = np.array([obs[0] for obs in observations])
        y = np.array([obs[1] for obs in observations])
        surrogate = RandomForestRegressor(
            n_estimators=self.n_estimators,
            min_samples_leaf=1,
            random_state=int(self._rng.integers(2**31)),
        ).fit(X, y)

        if pool_vectors is not None:
            candidates = pool_vectors
        else:
            candidates = np.array([
                self.space.encode(self.space.sample(self._rng))
                for _ in range(self.n_candidates)
            ])
        mean, std = surrogate.predict_with_std(candidates)
        acquisition = expected_improvement(mean, std, best=float(y.max()))
        return candidates[int(acquisition.argmax())]

    def _schedule(self, configurations, n_configurations):
        """One full-budget rung of one configuration per trial."""
        pool = pool_vectors = None
        if configurations is not None:
            pool = self._initial_configurations(configurations, None)
            pool_vectors = np.array([self.space.encode(c) for c in pool])
            remaining = list(range(len(pool)))  # unevaluated pool indices, ascending

        observations: List[Tuple[np.ndarray, float]] = []
        for _ in range(trial_count(n_configurations, self.n_trials)):
            if pool is None:
                config = self.space.decode(self._propose(observations, None))
            else:
                if not remaining:
                    break
                vector = self._propose(observations, pool_vectors[remaining])
                config = take_nearest(pool, pool_vectors, remaining, vector)
            (trial,) = yield [config], 1.0, 0, 0
            observations.append((self.space.encode(config), trial.result.score))
