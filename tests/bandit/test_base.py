"""Tests for shared bandit abstractions."""

import numpy as np
import pytest

from repro.bandit import EvaluationResult, SearchResult, SuccessiveHalving, Trial, top_k_indices
from repro.bandit.base import BaseSearcher
from repro.engine import FAILURE_SCORE, TrialEngine
from repro.telemetry import Telemetry
from repro.space import Categorical, SearchSpace


def make_trial(score, budget=0.5, cost=1.0):
    return Trial(
        config={"a": 1},
        budget_fraction=budget,
        result=EvaluationResult(mean=score, std=0.0, score=score, gamma=budget * 100, cost=cost),
    )


class TestTopK:
    def test_orders_best_first(self):
        assert top_k_indices([0.1, 0.9, 0.5], 2) == [1, 2]

    def test_k_larger_than_list(self):
        assert top_k_indices([0.3, 0.1], 10) == [0, 1]

    def test_ties_stable(self):
        assert top_k_indices([0.5, 0.5, 0.5], 2) == [0, 1]

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="positive"):
            top_k_indices([1.0], 0)


class TestSearchResult:
    def test_total_cost_sums_trials(self):
        result = SearchResult(
            best_config={}, best_score=1.0,
            trials=[make_trial(0.5, cost=2.0), make_trial(0.6, cost=3.0)],
        )
        assert result.total_evaluation_cost == 5.0
        assert result.n_trials == 2

    def test_incumbent_trajectory_monotone(self):
        scores = [0.3, 0.5, 0.2, 0.9, 0.1]
        result = SearchResult(
            best_config={}, best_score=0.9,
            trials=[make_trial(s) for s in scores],
        )
        trajectory = result.incumbent_trajectory()
        assert trajectory == [0.3, 0.5, 0.5, 0.9, 0.9]
        assert all(a <= b for a, b in zip(trajectory, trajectory[1:]))


class TestBaseSearcher:
    def test_initial_configurations_from_grid(self, tiny_space, synthetic_evaluator_factory):
        searcher = BaseSearcher(tiny_space, synthetic_evaluator_factory(lambda c: 0.5))
        configs = searcher._initial_configurations(None, None)
        assert len(configs) == 6

    def test_initial_configurations_sampled(self, tiny_space, synthetic_evaluator_factory):
        searcher = BaseSearcher(tiny_space, synthetic_evaluator_factory(lambda c: 0.5), random_state=0)
        configs = searcher._initial_configurations(None, 4)
        assert len(configs) == 4

    def test_explicit_configurations_validated(self, tiny_space, synthetic_evaluator_factory):
        searcher = BaseSearcher(tiny_space, synthetic_evaluator_factory(lambda c: 0.5))
        with pytest.raises(ValueError, match="invalid"):
            searcher._initial_configurations([{"a": 42, "b": "x"}], None)

    def test_empty_configurations_rejected(self, tiny_space, synthetic_evaluator_factory):
        searcher = BaseSearcher(tiny_space, synthetic_evaluator_factory(lambda c: 0.5))
        with pytest.raises(ValueError, match="non-empty"):
            searcher._initial_configurations([], None)

    def test_infinite_space_needs_explicit_count(self, synthetic_evaluator_factory):
        from repro.space import Float

        space = SearchSpace([Float("x", 0.0, 1.0)])
        searcher = BaseSearcher(space, synthetic_evaluator_factory(lambda c: 0.5))
        with pytest.raises(ValueError, match="infinite"):
            searcher._initial_configurations(None, None)

    def test_evaluate_records_trial(self, tiny_space, synthetic_evaluator_factory):
        searcher = BaseSearcher(tiny_space, synthetic_evaluator_factory(lambda c: c["a"] / 10))
        searcher._reset()  # what every _fit does first: binds the engine
        trial = searcher._evaluate({"a": 3, "b": "x"}, 0.25, iteration=2)
        assert trial.budget_fraction == 0.25
        assert trial.iteration == 2
        assert searcher._trials == [trial]

    def test_raising_evaluator_degrades_instead_of_aborting(self, tiny_space):
        # The engine turns errors into sentinel trials; its telemetry sees each one.
        class Broken:
            def evaluate(self, config, budget_fraction, rng):
                raise RuntimeError("boom")

        errors = []
        telemetry = Telemetry(on_trial=lambda _, attrs: errors.append(attrs.get("error")))
        engine = TrialEngine(retry_backoff=0.0, telemetry=telemetry)
        searcher = SuccessiveHalving(tiny_space, Broken(), random_state=0, engine=engine)
        result = searcher.fit(configurations=tiny_space.grid())
        assert result.n_trials > 0
        assert all(t.result.score == FAILURE_SCORE for t in result.trials)
        assert searcher.engine.stats.failures == result.n_trials
        assert errors == ["RuntimeError: boom"] * result.n_trials

    def test_fit_is_abstract(self, tiny_space, synthetic_evaluator_factory):
        searcher = BaseSearcher(tiny_space, synthetic_evaluator_factory(lambda c: 0.5))
        with pytest.raises(NotImplementedError):
            searcher.fit()
