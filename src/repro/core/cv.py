"""Standalone cross-validation application (paper Section IV-C).

Beyond full HPO runs, the paper applies its fold construction and metric
directly to k-fold cross-validation: every candidate configuration is
cross-validated on a subset of a given ratio, one configuration is
recommended, and the quality of the *ranking* (against ground-truth test
accuracies) is measured with nDCG.  :class:`CrossValidationStudy` packages
that protocol; the Figure 5-7 and Table V experiments are parameterisations
of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..engine.protocol import EvaluationResult
from ..metrics import ndcg_score
from .evaluator import SubsetCVEvaluator

__all__ = ["ConfigurationRanking", "CrossValidationStudy"]


@dataclass
class ConfigurationRanking:
    """Scores and recommendation for one CV pass over the candidates.

    Attributes
    ----------
    results:
        Per-configuration :class:`~repro.engine.protocol.EvaluationResult`.
    scores:
        The ranking scores (``result.score``) in candidate order.
    recommended_index:
        Argmax of ``scores``.
    """

    results: List[EvaluationResult] = field(default_factory=list)

    @property
    def scores(self) -> np.ndarray:
        """Ranking score per candidate."""
        return np.array([r.score for r in self.results])

    @property
    def means(self) -> np.ndarray:
        """Mean fold score per candidate."""
        return np.array([r.mean for r in self.results])

    @property
    def recommended_index(self) -> int:
        """Index of the recommended (top-scoring) configuration."""
        return int(self.scores.argmax())

    def ndcg(self, true_relevance: Sequence[float]) -> float:
        """nDCG of this ranking against ground-truth qualities."""
        return ndcg_score(true_relevance, self.scores)


class CrossValidationStudy:
    """Rank a fixed set of configurations with a CV strategy.

    Parameters
    ----------
    evaluator:
        Any :class:`~repro.core.evaluator.SubsetCVEvaluator`; its sampling /
        folding / metric axes define the CV method being studied.
    configurations:
        The candidate configurations (the paper uses an 18-config grid).
    """

    def __init__(
        self,
        evaluator: SubsetCVEvaluator,
        configurations: Sequence[Dict[str, Any]],
    ) -> None:
        if not configurations:
            raise ValueError("configurations must be non-empty")
        self.evaluator = evaluator
        self.configurations = [dict(c) for c in configurations]

    def run(
        self,
        subset_ratio: float = 1.0,
        random_state: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> ConfigurationRanking:
        """Cross-validate every configuration on a ``subset_ratio`` subset."""
        if rng is None:
            rng = np.random.default_rng(random_state)
        ranking = ConfigurationRanking()
        for config in self.configurations:
            ranking.results.append(self.evaluator.evaluate(config, subset_ratio, rng))
        return ranking

    def ground_truth(
        self,
        X_test: np.ndarray,
        y_test: np.ndarray,
        random_state: Optional[int] = None,
    ) -> np.ndarray:
        """Test score of each configuration trained on the full training set.

        This is the "actual ranking" the paper compares predicted rankings
        against; it is expensive (one full fit per configuration) and
        shared across all CV methods in an experiment.
        """
        truths = []
        for config in self.configurations:
            model = self.evaluator.fit_full(config, random_state=random_state)
            truths.append(float(self.evaluator.scorer(model, X_test, y_test)))
        return np.array(truths)
