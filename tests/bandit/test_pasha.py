"""Tests for progressive ASHA (PASHA)."""

import numpy as np
import pytest

from repro.bandit import PASHA
from repro.space import Categorical, SearchSpace


@pytest.fixture
def quality_space():
    return SearchSpace([Categorical("q", list(range(16)))])


class TestPashaSearch:
    def test_finds_good_config_noise_free(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        result = PASHA(quality_space, evaluator, random_state=0).fit(
            configurations=[{"q": i} for i in range(16)]
        )
        assert result.best_config["q"] >= 13

    def test_stable_ranking_keeps_ceiling_low(self, quality_space, synthetic_evaluator_factory):
        # Noise-free scores are identical at every budget, so the top set
        # never changes and PASHA should not unlock expensive rungs.
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        pasha = PASHA(
            quality_space, evaluator, random_state=0,
            eta=2.0, min_budget_fraction=1 / 8, initial_rungs=2,
        )
        pasha.fit(configurations=[{"q": i} for i in range(16)])
        assert pasha.final_ceiling_ <= pasha.max_rung
        max_budget = max(t.budget_fraction for t in pasha._trials)
        assert max_budget <= 0.5  # never reached the full-budget rung

    def test_unstable_ranking_unlocks_rungs(self, quality_space):
        # Budget-dependent quality: rankings flip between rungs, forcing
        # PASHA to unlock deeper rungs.
        from repro.bandit.base import EvaluationResult

        class FlippingEvaluator:
            def evaluate(self, config, budget_fraction, rng):
                q = config["q"]
                # Rung 0 (12.5% budget) prefers low q, deeper rungs prefer
                # high q: the top sets of adjacent rungs disagree.
                score = (16 - q) / 16 if budget_fraction < 0.2 else q / 16
                return EvaluationResult(
                    mean=score, std=0.0, score=score,
                    gamma=budget_fraction * 100, cost=budget_fraction,
                )

        pasha = PASHA(
            quality_space, FlippingEvaluator(), random_state=0,
            eta=2.0, min_budget_fraction=1 / 8, initial_rungs=2,
        )
        pasha.fit(configurations=[{"q": i} for i in range(16)])
        assert pasha.final_ceiling_ > 1

    def test_cheaper_than_asha_when_stable(self, quality_space, synthetic_evaluator_factory):
        from repro.bandit import ASHA

        pool = [{"q": i} for i in range(16)]
        pasha_evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        pasha = PASHA(quality_space, pasha_evaluator, random_state=0, min_budget_fraction=1 / 8)
        pasha_result = pasha.fit(configurations=pool)
        asha_evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        asha_result = ASHA(quality_space, asha_evaluator, random_state=0, min_budget_fraction=1 / 8).fit(
            configurations=pool
        )
        pasha_budget = sum(t.budget_fraction for t in pasha_result.trials)
        asha_budget = sum(t.budget_fraction for t in asha_result.trials)
        assert pasha_budget <= asha_budget

    def test_deterministic(self, quality_space):
        from tests.conftest import SyntheticEvaluator

        outcomes = []
        for _ in range(2):
            evaluator = SyntheticEvaluator(lambda c: c["q"] / 100, noise=0.02, seed=5)
            outcomes.append(
                PASHA(quality_space, evaluator, random_state=5).fit(
                    configurations=[{"q": i} for i in range(12)]
                )
            )
        assert outcomes[0].best_config == outcomes[1].best_config

    def test_method_name(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: 0.5, noise=0.0)
        result = PASHA(quality_space, evaluator, random_state=0, max_started=8).fit()
        assert result.method == "PASHA"


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"eta": 1.0},
        {"min_budget_fraction": 0.0},
        {"initial_rungs": 0},
        {"initial_rungs": 1},  # the stability test needs two rungs to compare
    ])
    def test_invalid_parameters(self, bad, quality_space, synthetic_evaluator_factory):
        with pytest.raises(ValueError):
            PASHA(quality_space, synthetic_evaluator_factory(lambda c: 0.5), **bad)

    def test_registered_in_methods(self):
        from repro.core import METHODS

        assert "pasha" in METHODS
        assert "pasha+" in METHODS
