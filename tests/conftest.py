"""Shared fixtures: small datasets, spaces, and a fast synthetic evaluator."""

from __future__ import annotations

from typing import Any, Dict

import numpy as np
import pytest

from repro.bandit.base import EvaluationResult
from repro.datasets import make_classification, make_regression
from repro.space import Categorical, SearchSpace


@pytest.fixture(scope="session")
def small_classification():
    """300 instances, 2 balanced classes, 8 features."""
    return make_classification(
        n_samples=300, n_features=8, n_classes=2, class_sep=1.5, flip_y=0.02, random_state=0
    )


@pytest.fixture(scope="session")
def small_multiclass():
    """360 instances, 3 classes, 10 features."""
    return make_classification(
        n_samples=360, n_features=10, n_classes=3, class_sep=1.5, flip_y=0.02, random_state=1
    )


@pytest.fixture(scope="session")
def imbalanced_classification():
    """400 instances with a 10% minority class."""
    return make_classification(
        n_samples=400,
        n_features=8,
        n_classes=2,
        weights=[0.9, 0.1],
        class_sep=2.0,
        flip_y=0.0,
        random_state=2,
    )


@pytest.fixture(scope="session")
def small_regression():
    """250 instances, 6 features, standardized target."""
    return make_regression(n_samples=250, n_features=6, noise=0.1, random_state=3)


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_space():
    """A 6-configuration categorical space."""
    return SearchSpace(
        [
            Categorical("a", [1, 2, 3]),
            Categorical("b", ["x", "y"]),
        ]
    )


class SyntheticEvaluator:
    """Deterministic-quality evaluator for bandit-logic tests.

    Each configuration has a true quality given by ``quality_fn``; observed
    scores add zero-mean noise shrinking with the budget fraction, modelling
    the paper's "small subsets are unreliable" premise without any training.
    """

    def __init__(self, quality_fn, noise: float = 0.05, cost_fn=None, seed: int = 0) -> None:
        self.quality_fn = quality_fn
        self.noise = noise
        self.cost_fn = cost_fn or (lambda config, budget: budget)
        self._noise_rng = np.random.default_rng(seed)
        self.calls = []

    def evaluate(self, config: Dict[str, Any], budget_fraction: float, rng) -> EvaluationResult:
        true_quality = float(self.quality_fn(config))
        spread = self.noise * (1.0 - 0.9 * budget_fraction)
        folds = true_quality + spread * self._noise_rng.standard_normal(5)
        mean = float(folds.mean())
        std = float(folds.std())
        self.calls.append((dict(config), budget_fraction))
        return EvaluationResult(
            mean=mean,
            std=std,
            score=mean,
            gamma=budget_fraction * 100.0,
            fold_scores=folds.tolist(),
            n_instances=int(budget_fraction * 1000),
            cost=float(self.cost_fn(config, budget_fraction)),
        )


@pytest.fixture
def synthetic_evaluator_factory():
    """Factory building :class:`SyntheticEvaluator` instances."""
    return SyntheticEvaluator


@pytest.fixture
def arm_fault():
    """Arm one ``site#hit=action`` trigger for the test; disarmed afterwards.

    The arming reaches every pool worker the test starts, forked or
    spawned, and the trigger fires once across all of them.
    """
    from repro.faults import FaultController, FaultSchedule, arm, disarm

    def _arm(site: str, action: str, hit: int = 0):
        return arm(FaultController(schedule=FaultSchedule.single(site, hit, action)))

    yield _arm
    disarm()
