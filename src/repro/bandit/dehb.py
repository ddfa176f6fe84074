"""DEHB — Differential Evolution HyperBand (Awad et al., IJCAI 2021),
simplified.

Listed in the paper's related work: HyperBand's random configuration
sampling is replaced by differential evolution over the unit-hypercube
encodings.  This implementation keeps HyperBand's bracket machinery (via
subclassing) and maintains one evolving population per budget level; new
bracket candidates are produced with rand/1 mutation + binomial crossover
against the population of the corresponding budget (falling back to random
sampling until enough parents exist).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from .hyperband import ModelBasedHyperBand

__all__ = ["DEHB"]


class DEHB(ModelBasedHyperBand):
    """HyperBand with differential-evolution proposals.

    Parameters
    ----------
    space, evaluator, random_state, eta, min_budget_fraction:
        See :class:`~repro.bandit.hyperband.HyperBand`.
    mutation_factor:
        DE scale factor ``F`` in the mutant ``a + F (b - c)``.
    crossover_prob:
        Per-dimension probability of inheriting from the mutant.
    min_population:
        Parents required at a budget before DE activates there.
    """

    method_name = "DEHB"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        eta: float = 3.0,
        min_budget_fraction: float = 1.0 / 27.0,
        mutation_factor: float = 0.5,
        crossover_prob: float = 0.5,
        min_population: int = 4,
    ) -> None:
        super().__init__(
            space, evaluator, random_state=random_state,
            eta=eta, min_budget_fraction=min_budget_fraction,
        )
        if not 0.0 < mutation_factor <= 2.0:
            raise ValueError(f"mutation_factor must be in (0, 2], got {mutation_factor}")
        if not 0.0 <= crossover_prob <= 1.0:
            raise ValueError(f"crossover_prob must be in [0, 1], got {crossover_prob}")
        if min_population < 4:
            raise ValueError(f"min_population must be >= 4 (rand/1 needs 3 parents + target), got {min_population}")
        self.mutation_factor = mutation_factor
        self.crossover_prob = crossover_prob
        self.min_population = min_population

    # -- HyperBand hooks -----------------------------------------------------

    def _parent_pool(self, budget: float) -> List[Tuple[np.ndarray, float]]:
        """Population at this budget, backfilled from neighbouring budgets."""
        pool = list(self._history[round(budget, 6)])
        if len(pool) < self.min_population:
            for other_budget in sorted(self._history, reverse=True):
                if round(budget, 6) == other_budget:
                    continue
                pool.extend(self._history[other_budget])
                if len(pool) >= self.min_population:
                    break
        return pool

    def _propose_configs(self, n: int, budget_fraction: float) -> List[Dict[str, Any]]:
        """DE rand/1 + binomial crossover proposals (random until warm)."""
        pool = self._parent_pool(budget_fraction)
        proposals: List[Dict[str, Any]] = []
        for _ in range(n):
            if len(pool) < self.min_population:
                proposals.append(self.space.sample(self._rng))
                continue
            # Target: a good member (tournament of 2); parents a, b, c random distinct.
            contender_ids = self._rng.choice(len(pool), size=2, replace=False)
            target_id = max(contender_ids, key=lambda i: pool[i][1])
            parent_ids = self._rng.choice(len(pool), size=3, replace=False)
            a, b, c = (pool[i][0] for i in parent_ids)
            mutant = np.clip(a + self.mutation_factor * (b - c), 0.0, 1.0)
            target = pool[target_id][0]
            cross = self._rng.random(len(target)) < self.crossover_prob
            # Guarantee at least one mutant dimension (standard DE rule).
            cross[int(self._rng.integers(len(target)))] = True
            child = np.where(cross, mutant, target)
            proposals.append(self.space.decode(child))
        return proposals
