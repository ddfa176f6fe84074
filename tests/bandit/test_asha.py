"""Tests for ASHA on the default (serial) engine."""

import numpy as np
import pytest

from repro.bandit import ASHA
from repro.space import Categorical, SearchSpace


@pytest.fixture
def quality_space():
    return SearchSpace([Categorical("q", list(range(16)))])


class TestAshaSearch:
    def test_finds_good_config(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        result = ASHA(quality_space, evaluator, random_state=0, max_started=16).fit()
        assert result.best_config["q"] >= 13

    def test_all_pool_configs_started_at_rung_zero(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        asha = ASHA(quality_space, evaluator, random_state=0)
        result = asha.fit(configurations=[{"q": i} for i in range(8)])
        rung0 = {t.config["q"] for t in result.trials if t.iteration == 0}
        assert rung0 == set(range(8))

    def test_promotions_are_top_fraction(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        asha = ASHA(quality_space, evaluator, random_state=0, eta=2.0)
        result = asha.fit(configurations=[{"q": i} for i in range(16)])
        # Configs promoted past rung 0 should be drawn from the better half.
        promoted = {t.config["q"] for t in result.trials if t.iteration >= 1}
        assert promoted  # promotions happened
        assert np.mean(sorted(promoted)) > 7.0

    def test_budgets_follow_rung_geometry(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        asha = ASHA(quality_space, evaluator, random_state=0, eta=2.0, min_budget_fraction=1 / 8)
        result = asha.fit(configurations=[{"q": i} for i in range(16)])
        budgets = {round(t.budget_fraction, 6) for t in result.trials}
        assert budgets <= {0.125, 0.25, 0.5, 1.0}

    def test_simulated_makespan_shrinks_with_more_workers(self, quality_space):
        from tests.conftest import SyntheticEvaluator

        def run(n_workers):
            evaluator = SyntheticEvaluator(lambda c: c["q"] / 100, noise=0.0, cost_fn=lambda c, b: b)
            asha = ASHA(quality_space, evaluator, random_state=0, n_workers=n_workers)
            asha.fit(configurations=[{"q": i} for i in range(16)])
            return asha.simulated_makespan_

        assert run(8) < run(1)

    def test_terminates_and_method_name(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: 0.5, noise=0.0)
        result = ASHA(quality_space, evaluator, random_state=0, max_started=8).fit()
        assert result.method == "ASHA"
        assert result.n_trials >= 8

    def test_deterministic_with_seed(self, quality_space):
        from tests.conftest import SyntheticEvaluator

        outcomes = []
        for _ in range(2):
            evaluator = SyntheticEvaluator(lambda c: c["q"] / 100, noise=0.03, seed=2)
            outcomes.append(ASHA(quality_space, evaluator, random_state=2, max_started=12).fit())
        assert outcomes[0].best_config == outcomes[1].best_config


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"eta": 1.0},
        {"min_budget_fraction": 0.0},
        {"n_workers": 0},
    ])
    def test_invalid_parameters(self, bad, quality_space, synthetic_evaluator_factory):
        with pytest.raises(ValueError):
            ASHA(quality_space, synthetic_evaluator_factory(lambda c: 0.5), **bad)

    def test_max_rung(self, quality_space, synthetic_evaluator_factory):
        asha = ASHA(
            quality_space, synthetic_evaluator_factory(lambda c: 0.5),
            eta=2.0, min_budget_fraction=1 / 8,
        )
        assert asha.max_rung == 3
