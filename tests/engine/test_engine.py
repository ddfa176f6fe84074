"""TrialEngine integration: memoization, fault tolerance, clocks.

That every searcher is bitwise the same on any engine is
``tests/test_determinism.py``.
"""

import numpy as np
import pytest

from repro.bandit import ASHA, HyperBand, SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.core import MLPModelFactory, vanilla_evaluator
from repro.datasets import make_classification
from repro.engine import (
    FAILURE_SCORE,
    EvaluationCache,
    ParallelExecutor,
    SerialExecutor,
    TrialEngine,
    TrialRequest,
)
from repro.space import Categorical, SearchSpace


class SeededQualityEvaluator:
    """Picklable synthetic evaluator: score = quality + seeded noise.

    Unlike the conftest SyntheticEvaluator (whose noise comes from shared
    internal state), the noise here is drawn from the engine-provided
    generator, so identical derived seeds must give identical scores.
    """

    def evaluate(self, config, budget_fraction, rng):
        score = config["q"] / 10.0 + 0.01 * float(rng.standard_normal())
        return EvaluationResult(
            mean=score, std=0.0, score=score, gamma=100 * budget_fraction
        )


class FlakyEvaluator:
    """Raises for configured configs the first ``n_failures`` times each."""

    def __init__(self, n_failures):
        self.n_failures = dict(n_failures)
        self.calls = {}

    def evaluate(self, config, budget_fraction, rng):
        q = config["q"]
        seen = self.calls.get(q, 0)
        self.calls[q] = seen + 1
        if seen < self.n_failures.get(q, 0):
            raise RuntimeError(f"transient failure for q={q}")
        return EvaluationResult(
            mean=q, std=0.0, score=q, gamma=100 * budget_fraction
        )


class CountingClock:
    """Deterministic clock: each call advances exactly one tick."""

    def __init__(self):
        self.ticks = 0

    def __call__(self):
        self.ticks += 1
        return float(self.ticks)


@pytest.fixture(scope="module")
def tiny_problem():
    X, y = make_classification(n_samples=160, n_features=5, random_state=0)
    space = SearchSpace(
        [
            Categorical("hidden_layer_sizes", [(8,), (16,)]),
            Categorical("alpha", [1e-4, 1e-2]),
        ]
    )
    factory = MLPModelFactory(task="classification", max_iter=4)
    return X, y, space, factory


class TestMemoization:
    def test_hyperband_brackets_share_the_cache(self):
        space = SearchSpace([Categorical("q", list(range(4)))])
        with TrialEngine(executor=SerialExecutor()) as engine:
            searcher = HyperBand(
                space, SeededQualityEvaluator(), random_state=0, engine=engine
            )
            result = searcher.fit(configurations=space.grid())
        stats = engine.stats
        # Cycling 4 configs through HyperBand's brackets must repeat pairs.
        assert stats.cache_hits > 0
        assert stats.submitted == result.n_trials
        assert stats.cache_hits + stats.cache_misses == stats.submitted
        assert stats.executed == stats.cache_misses
        assert engine.cache is not None and len(engine.cache) == stats.cache_misses

    def test_cached_trials_score_identically(self):
        space = SearchSpace([Categorical("q", [1, 2])])
        with TrialEngine(executor=SerialExecutor()) as engine:
            searcher = HyperBand(
                space, SeededQualityEvaluator(), random_state=0, engine=engine
            )
            result = searcher.fit(configurations=space.grid())
        by_pair = {}
        for trial in result.trials:
            by_pair.setdefault((trial.key, trial.budget_fraction), set()).add(
                trial.result.score
            )
        assert all(len(scores) == 1 for scores in by_pair.values())

    def test_repeated_fit_is_served_from_cache(self):
        space = SearchSpace([Categorical("q", list(range(4)))])
        evaluator = SeededQualityEvaluator()
        with TrialEngine(executor=SerialExecutor()) as engine:
            searcher = SuccessiveHalving(space, evaluator, random_state=0, engine=engine)
            searcher.fit(configurations=space.grid())
            executed_first = engine.stats.executed
            searcher.fit(configurations=space.grid())
            assert engine.stats.executed == executed_first  # 100% cache hits

    def test_cache_disabled(self):
        space = SearchSpace([Categorical("q", list(range(4)))])
        with TrialEngine(executor=SerialExecutor(), cache=False) as engine:
            searcher = HyperBand(space, SeededQualityEvaluator(), random_state=0, engine=engine)
            result = searcher.fit(configurations=space.grid())
        assert engine.cache is None
        assert engine.stats.executed == result.n_trials


class TestFaultTolerance:
    def test_retry_then_succeed(self):
        engine = TrialEngine(executor=SerialExecutor(), max_retries=2)
        engine.bind(FlakyEvaluator({5: 2}), root_seed=0)
        outcome = engine.run_batch([TrialRequest(config={"q": 5}, budget_fraction=1.0)])[0]
        assert not outcome.failed
        assert outcome.attempts == 3
        assert outcome.result.score == 5
        assert engine.stats.retries == 2
        assert engine.stats.failures == 0

    def test_retries_use_fresh_derived_seeds(self):
        engine = TrialEngine(executor=SerialExecutor(), max_retries=3)
        seen = []

        class SeedRecorder:
            def evaluate(self, config, budget_fraction, rng):
                seen.append(int(rng.integers(2**31)))
                if len(seen) < 3:
                    raise RuntimeError("fail twice")
                return EvaluationResult(mean=1.0, std=0.0, score=1.0, gamma=100.0)

        engine.bind(SeedRecorder(), root_seed=0)
        engine.run_batch([TrialRequest(config={"q": 1}, budget_fraction=1.0)])
        assert len(set(seen)) == 3  # every attempt drew from a distinct stream

    def test_degrades_to_sentinel_after_exhausting_retries(self):
        engine = TrialEngine(executor=SerialExecutor(), max_retries=1)
        engine.bind(FlakyEvaluator({5: 99}), root_seed=0)
        outcome = engine.run_batch([TrialRequest(config={"q": 5}, budget_fraction=0.5)])[0]
        assert outcome.failed
        assert outcome.result.score == FAILURE_SCORE
        assert "RuntimeError" in outcome.error
        assert engine.stats.failures == 1

    def test_search_survives_a_permanently_failing_config(self):
        space = SearchSpace([Categorical("q", [1, 2, 3, 4])])
        with TrialEngine(executor=SerialExecutor(), max_retries=1) as engine:
            searcher = SuccessiveHalving(
                space, FlakyEvaluator({4: 99}), random_state=0, engine=engine
            )
            result = searcher.fit(configurations=space.grid())
        # The failing config is ranked last, never crowning the search.
        assert result.best_config == {"q": 3}
        degraded = [t for t in result.trials if t.result.score == FAILURE_SCORE]
        assert degraded and all(t.config == {"q": 4} for t in degraded)

    def test_failures_are_not_cached(self):
        engine = TrialEngine(executor=SerialExecutor(), max_retries=0)
        flaky = FlakyEvaluator({5: 1})  # fails once, then recovers
        engine.bind(flaky, root_seed=0)
        first = engine.run_batch([TrialRequest(config={"q": 5}, budget_fraction=1.0)])[0]
        assert first.failed
        second = engine.run_batch([TrialRequest(config={"q": 5}, budget_fraction=1.0)])[0]
        assert not second.failed and second.result.score == 5


class TestAshaEngineMode:
    def test_runs_and_reports_makespans(self):
        space = SearchSpace([Categorical("q", list(range(8)))])
        with TrialEngine(executor=SerialExecutor()) as engine:
            asha = ASHA(
                space, SeededQualityEvaluator(), random_state=0, n_workers=2, engine=engine
            )
            result = asha.fit(configurations=space.grid())
        assert result.n_trials >= 8
        assert asha.measured_makespan_ > 0.0
        assert asha.simulated_makespan_ > 0.0
        assert result.best_config["q"] >= 6  # quality is monotone in q

    def test_parallel_asha_completes_all_trials(self, tiny_problem):
        X, y, space, factory = tiny_problem
        with TrialEngine(executor=ParallelExecutor(n_workers=2)) as engine:
            asha = ASHA(
                space,
                vanilla_evaluator(X, y, factory),
                random_state=0,
                n_workers=2,
                engine=engine,
            )
            result = asha.fit(configurations=space.grid())
        assert result.n_trials >= len(space.grid())
        assert engine.stats.failures == 0


class TestInjectableClock:
    def test_costs_are_deterministic_with_fake_clock(self, tiny_problem):
        X, y, _, factory = tiny_problem
        clock = CountingClock()
        evaluator = vanilla_evaluator(X, y, factory, clock=clock)
        config = {"hidden_layer_sizes": (8,), "alpha": 1e-4}
        # The clock is injectable so that costs are reproducible: the same
        # spec costs the same whole number of ticks every time it runs.
        costs = [
            evaluator.evaluate(config, 0.5, np.random.default_rng(0)).cost for _ in range(2)
        ]
        assert costs[0] == costs[1] > 0.0
        assert costs[0] == int(costs[0])
        # A rung's costs apportion its wall clock: they never add up to more
        # ticks than the call consumed.
        before = clock.ticks
        results, _ = evaluator.evaluate_many(
            [(config, 0.5, np.random.default_rng(seed), None, False, None) for seed in range(3)]
        )
        assert all(result.cost > 0.0 for result in results)
        assert sum(result.cost for result in results) <= clock.ticks - before

    def test_engine_trajectory_costs_without_sleeping(self, tiny_problem):
        X, y, space, factory = tiny_problem
        evaluator = vanilla_evaluator(X, y, factory, clock=CountingClock())
        with TrialEngine(executor=SerialExecutor()) as engine:
            searcher = SuccessiveHalving(space, evaluator, random_state=0, engine=engine)
            result = searcher.fit(configurations=space.grid())
        # Every cost comes from the injected counting clock (mega-batched
        # rungs split the fused fit's ticks across their trials, so costs
        # are positive tick sums rather than exactly one tick each).
        assert all(t.result.cost > 0.0 for t in result.trials)
        assert result.total_evaluation_cost == sum(t.result.cost for t in result.trials)


class TestNonFiniteSanitization:
    class Poisoned:
        """Returns NaN for q=1, +inf for q=2, honest scores otherwise."""

        def evaluate(self, config, budget_fraction, rng):
            score = {1: float("nan"), 2: float("inf")}.get(config["q"], float(config["q"]))
            return EvaluationResult(mean=score, std=0.0, score=score,
                                    gamma=100 * budget_fraction)

    def _run(self, configs, max_retries=0):
        with TrialEngine(executor=SerialExecutor(), max_retries=max_retries,
                         retry_backoff=0.0) as engine:
            engine.bind(self.Poisoned(), root_seed=0)
            outcomes = engine.run_batch([
                TrialRequest(config=c, budget_fraction=1.0, trial_id=i, seed=i)
                for i, c in enumerate(configs)
            ])
        return outcomes, engine.stats

    def test_nan_score_degrades_instead_of_propagating(self):
        outcomes, stats = self._run([{"q": 1}])
        assert outcomes[0].failed
        assert outcomes[0].result.score == FAILURE_SCORE
        assert outcomes[0].error.startswith("NonFiniteScore")
        assert stats.non_finite == 1

    def test_inf_score_cannot_outrank_honest_trials(self):
        outcomes, _ = self._run([{"q": 0}, {"q": 2}, {"q": 5}])
        scores = [o.result.score for o in outcomes]
        assert scores == [0.0, FAILURE_SCORE, 5.0]
        assert max(scores) == 5.0  # +inf never wins

    def test_non_finite_results_are_retried(self):
        # Retries draw the same deterministic result here, so the trial
        # still degrades — but the retry path must be exercised (and
        # counted) rather than short-circuited.
        outcomes, stats = self._run([{"q": 1}], max_retries=2)
        assert outcomes[0].failed and outcomes[0].attempts == 3
        assert stats.retries == 2
        assert stats.non_finite == 3

    def test_honest_scores_pass_through_untouched(self):
        outcomes, stats = self._run([{"q": 0}, {"q": 7}])
        assert [o.result.score for o in outcomes] == [0.0, 7.0]
        assert stats.non_finite == 0 and stats.failures == 0
