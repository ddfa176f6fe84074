"""Tests for DEHB (differential-evolution HyperBand)."""

import numpy as np
import pytest

from repro.bandit import DEHB
from repro.space import Categorical, Float, SearchSpace


@pytest.fixture
def quality_space():
    return SearchSpace([Categorical("q", list(range(27)))])


class TestDehbSearch:
    def test_finds_good_config(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        result = DEHB(quality_space, evaluator, random_state=0).fit()
        assert result.best_config["q"] >= 22

    def test_populations_accumulate_per_budget(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        dehb = DEHB(quality_space, evaluator, random_state=0)
        dehb.fit()
        total = sum(len(p) for p in dehb._history.values())
        assert total == len(dehb._trials)
        assert len(dehb._history) > 1  # several budget levels

    def test_de_proposals_within_space(self, synthetic_evaluator_factory):
        space = SearchSpace([Float("x", 0.0, 1.0), Float("y", -5.0, 5.0)])
        evaluator = synthetic_evaluator_factory(lambda c: -abs(c["x"] - 0.3), noise=0.0)
        dehb = DEHB(space, evaluator, random_state=0)
        dehb._reset()  # what _fit does first: binds the engine
        # Warm the population, then ask for DE proposals directly.
        rng = np.random.default_rng(0)
        for _ in range(8):
            config = space.sample(rng)
            (trial,) = dehb._evaluate_batch([config], 1.0 / 27.0)
            dehb._observe(trial)
        proposals = dehb._propose_configs(10, 1.0 / 27.0)
        for proposal in proposals:
            space.validate(proposal)

    def test_optimizes_continuous_objective(self, synthetic_evaluator_factory):
        space = SearchSpace([Float("x", 0.0, 1.0)])
        evaluator = synthetic_evaluator_factory(lambda c: -((c["x"] - 0.7) ** 2), noise=0.0)
        result = DEHB(space, evaluator, random_state=0).fit(n_configurations=None)
        assert abs(result.best_config["x"] - 0.7) < 0.15

    def test_backfills_parents_from_other_budgets(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        dehb = DEHB(quality_space, evaluator, random_state=0)
        dehb._reset()  # what _fit does first: binds the engine
        rng = np.random.default_rng(0)
        for _ in range(6):
            (trial,) = dehb._evaluate_batch([quality_space.sample(rng)], 1.0)
            dehb._observe(trial)
        pool = dehb._parent_pool(1.0 / 27.0)  # empty budget, backfilled
        assert len(pool) >= dehb.min_population

    def test_deterministic(self, quality_space):
        from tests.conftest import SyntheticEvaluator

        outcomes = []
        for _ in range(2):
            evaluator = SyntheticEvaluator(lambda c: c["q"] / 100, noise=0.02, seed=9)
            outcomes.append(DEHB(quality_space, evaluator, random_state=9).fit())
        assert outcomes[0].best_config == outcomes[1].best_config

    def test_method_name(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: 0.5, noise=0.0)
        assert DEHB(quality_space, evaluator, random_state=0).fit().method == "DEHB"

    def test_registered_in_methods(self):
        from repro.core import METHODS

        assert "dehb" in METHODS and "dehb+" in METHODS and "tpe" in METHODS


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"mutation_factor": 0.0},
        {"crossover_prob": 1.5},
        {"min_population": 2},
    ])
    def test_invalid_parameters(self, bad, quality_space, synthetic_evaluator_factory):
        with pytest.raises(ValueError):
            DEHB(quality_space, synthetic_evaluator_factory(lambda c: 0.5), **bad)
