"""Contract tests every searcher must satisfy, run across all of them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandit import ASHA, BOHB, DEHB, PASHA, HyperBand, RandomSearch, SMACSearch, SuccessiveHalving, TPESearch
from repro.space import Categorical, SearchSpace, config_key

SEARCHERS = [
    ("random", RandomSearch, {}),
    ("sha", SuccessiveHalving, {}),
    ("hb", HyperBand, {"min_budget_fraction": 1 / 9}),
    ("bohb", BOHB, {"min_budget_fraction": 1 / 9}),
    ("asha", ASHA, {"min_budget_fraction": 1 / 8, "max_started": 12}),
    ("pasha", PASHA, {"min_budget_fraction": 1 / 8, "max_started": 12}),
    ("dehb", DEHB, {"min_budget_fraction": 1 / 9}),
    ("tpe", TPESearch, {"n_trials": 8}),
    ("smac", SMACSearch, {"n_trials": 8, "n_candidates": 16}),
]


@pytest.fixture
def space():
    return SearchSpace([Categorical("q", list(range(12)))])


@pytest.mark.parametrize("name,cls,kwargs", SEARCHERS, ids=[s[0] for s in SEARCHERS])
class TestSearcherContract:
    def _run(self, cls, kwargs, space, synthetic_evaluator_factory, seed=0, noise=0.02):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 20, noise=noise, seed=seed)
        searcher = cls(space, evaluator, random_state=seed, **kwargs)
        return searcher.fit()

    def test_best_config_is_valid(self, name, cls, kwargs, space, synthetic_evaluator_factory):
        result = self._run(cls, kwargs, space, synthetic_evaluator_factory)
        space.validate(result.best_config)

    def test_best_config_was_evaluated(self, name, cls, kwargs, space, synthetic_evaluator_factory):
        result = self._run(cls, kwargs, space, synthetic_evaluator_factory)
        evaluated = {config_key(t.config) for t in result.trials}
        assert config_key(result.best_config) in evaluated

    def test_all_trials_valid_budgets(self, name, cls, kwargs, space, synthetic_evaluator_factory):
        result = self._run(cls, kwargs, space, synthetic_evaluator_factory)
        for trial in result.trials:
            assert 0.0 < trial.budget_fraction <= 1.0
            space.validate(trial.config)

    def test_wall_time_positive_and_trials_nonempty(self, name, cls, kwargs, space, synthetic_evaluator_factory):
        result = self._run(cls, kwargs, space, synthetic_evaluator_factory)
        assert result.wall_time > 0.0
        assert result.n_trials >= 1

    def test_zero_configurations_rejected(self, name, cls, kwargs, space, synthetic_evaluator_factory):
        # n_configurations=0 is an error everywhere, never "use the default".
        searcher = cls(space, synthetic_evaluator_factory(lambda c: 0.5), random_state=0, **kwargs)
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            searcher.fit(n_configurations=0)
        assert searcher._trials == []

    def test_deterministic_under_seed(self, name, cls, kwargs, space, synthetic_evaluator_factory):
        a = self._run(cls, kwargs, space, synthetic_evaluator_factory, seed=5)
        b = self._run(cls, kwargs, space, synthetic_evaluator_factory, seed=5)
        assert a.best_config == b.best_config
        assert [t.budget_fraction for t in a.trials] == [t.budget_fraction for t in b.trials]

    def test_noise_free_run_picks_top_quartile(self, name, cls, kwargs, space, synthetic_evaluator_factory):
        result = self._run(cls, kwargs, space, synthetic_evaluator_factory, noise=0.0)
        assert result.best_config["q"] >= 9  # top quartile of 0..11


class TestSearcherContractProperty:
    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_sha_incumbent_always_evaluated_and_valid(self, seed):
        from tests.conftest import SyntheticEvaluator

        space = SearchSpace([Categorical("q", list(range(8)))])
        evaluator = SyntheticEvaluator(lambda c: c["q"] / 10, noise=0.1, seed=seed)
        result = SuccessiveHalving(space, evaluator, random_state=seed).fit()
        space.validate(result.best_config)
        evaluated = {config_key(t.config) for t in result.trials}
        assert config_key(result.best_config) in evaluated
