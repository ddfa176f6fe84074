"""ChaosExecutor fault injection: determinism, degradation, sanitization."""

import math

import pytest

from repro.bandit import HyperBand, SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.engine import (
    ChaosError,
    ChaosExecutor,
    ChaosPolicy,
    FAILURE_SCORE,
    ParallelExecutor,
    SerialExecutor,
    TrialEngine,
)
from repro.space import Categorical, SearchSpace

SPACE = SearchSpace([Categorical("q", list(range(8)))])


class QualityEvaluator:
    """Picklable: score = quality + seeded noise; best config is q=7."""

    def evaluate(self, config, budget_fraction, rng):
        score = config["q"] / 10.0 + 0.001 * float(rng.standard_normal())
        return EvaluationResult(mean=score, std=0.0, score=score, gamma=100 * budget_fraction)


def _search(policy, executor=None, max_retries=2, searcher_cls=SuccessiveHalving, seed=0):
    executor = executor if executor is not None else SerialExecutor()
    with TrialEngine(executor=ChaosExecutor(executor, policy), max_retries=max_retries,
                     retry_backoff=0.0) as engine:
        searcher = searcher_cls(SPACE, QualityEvaluator(), random_state=seed, engine=engine)
        result = searcher.fit(configurations=SPACE.grid())
    return result, engine.stats


class TestPolicyValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ChaosPolicy(failure_rate=-0.1)

    def test_rates_summing_past_one_rejected(self):
        with pytest.raises(ValueError):
            ChaosPolicy(failure_rate=0.6, nan_rate=0.6)

    def test_zero_policy_is_passthrough(self):
        calm, _ = _search(ChaosPolicy())
        chaotic_free, stats = _search(ChaosPolicy(failure_rate=0.0))
        assert calm.best_config == chaotic_free.best_config
        assert stats.failures == 0


class TestDeterminism:
    def test_fault_pattern_is_reproducible(self):
        policy = ChaosPolicy(failure_rate=0.3)
        first, stats_a = _search(policy)
        second, stats_b = _search(policy)
        assert [t.result.score for t in first.trials] == [t.result.score for t in second.trials]
        assert stats_a.failures == stats_b.failures
        assert stats_a.retries == stats_b.retries

    def test_fault_pattern_varies_with_seed(self):
        policy = ChaosPolicy(failure_rate=0.3)
        _, stats_a = _search(policy, seed=0)
        _, stats_b = _search(policy, seed=1)
        assert (stats_a.retries, stats_a.failures) != (stats_b.retries, stats_b.failures)


class TestFailureInjection:
    def test_search_completes_under_heavy_failures(self):
        result, stats = _search(ChaosPolicy(failure_rate=0.4), max_retries=1)
        assert stats.failures > 0
        degraded = [t for t in result.trials if t.result.score == FAILURE_SCORE]
        assert len(degraded) == stats.failures
        assert result.best_score > FAILURE_SCORE  # a real trial still won

    def test_retries_can_clear_transient_faults(self):
        # More retries -> fresh fault draws -> strictly fewer degradations.
        _, few = _search(ChaosPolicy(failure_rate=0.3), max_retries=0)
        _, many = _search(ChaosPolicy(failure_rate=0.3), max_retries=4)
        assert many.failures < few.failures

    def test_exit_rate_downgrades_to_raise_in_serial(self):
        # In-process (MainProcess) the exit fault must raise, not kill pytest.
        result, stats = _search(ChaosPolicy(exit_rate=0.3), max_retries=1)
        assert stats.failures > 0 or stats.retries > 0
        assert result.best_score > FAILURE_SCORE


class TestScoreSanitization:
    def test_nan_scores_become_degraded_trials(self):
        result, stats = _search(ChaosPolicy(nan_rate=0.3), max_retries=0)
        assert stats.non_finite > 0
        assert not any(math.isnan(t.result.score) for t in result.trials)
        assert not math.isnan(result.best_score)

    def test_corrupt_inf_score_never_wins(self):
        result, stats = _search(ChaosPolicy(corrupt_rate=0.3), max_retries=0)
        assert stats.non_finite > 0
        assert math.isfinite(result.best_score)
        assert not any(math.isinf(t.result.score) for t in result.trials)

    def test_non_finite_errors_are_labelled(self):
        with TrialEngine(executor=ChaosExecutor(SerialExecutor(), ChaosPolicy(nan_rate=1.0)),
                         max_retries=0, retry_backoff=0.0) as engine:
            searcher = SuccessiveHalving(SPACE, QualityEvaluator(), random_state=0, engine=engine)
            searcher.fit(configurations=SPACE.grid()[:2])
        assert engine.stats.non_finite == engine.stats.failures > 0


class TestChaosErrorType:
    def test_injected_failures_carry_chaos_error(self):
        with TrialEngine(executor=ChaosExecutor(SerialExecutor(), ChaosPolicy(failure_rate=1.0)),
                         max_retries=0, retry_backoff=0.0) as engine:
            searcher = SuccessiveHalving(SPACE, QualityEvaluator(), random_state=0, engine=engine)
            result = searcher.fit(configurations=SPACE.grid()[:2])
        assert all(t.result.score == FAILURE_SCORE for t in result.trials)
        assert ChaosError.__name__  # exported and importable


@pytest.mark.chaos
class TestParallelChaos:
    def test_worker_exits_are_survived(self):
        result, stats = _search(
            ChaosPolicy(exit_rate=0.15),
            executor=ParallelExecutor(n_workers=2),
            max_retries=3,
        )
        assert result.best_score > FAILURE_SCORE

    def test_hangs_are_cut_by_the_watchdog(self):
        result, stats = _search(
            ChaosPolicy(hang_rate=0.15, hang_seconds=60.0),
            executor=ParallelExecutor(n_workers=2, trial_timeout=0.5),
            max_retries=2,
        )
        assert stats.timeouts > 0
        assert result.best_score > FAILURE_SCORE

    def test_full_storm_under_hyperband(self):
        policy = ChaosPolicy(exit_rate=0.05, hang_rate=0.05, failure_rate=0.1,
                             nan_rate=0.05, corrupt_rate=0.05, hang_seconds=60.0)
        result, stats = _search(
            policy,
            executor=ParallelExecutor(n_workers=2, trial_timeout=0.5),
            max_retries=3, searcher_cls=HyperBand,
        )
        assert math.isfinite(result.best_score)
        assert result.best_score > FAILURE_SCORE


class TestPoolForwarding:
    """ChaosExecutor forwards the pool's observability surface.

    The engine reads ``pool_stats`` through the wrapper; if it swallowed
    the lookup, a chaos-wrapped pool would report no pool gauges at all.
    """

    def test_pool_stats_and_counters_pass_through(self):
        inner = ParallelExecutor(n_workers=3)  # no submit: no processes
        chaos = ChaosExecutor(inner, ChaosPolicy())
        assert chaos.capacity == 3
        assert chaos.pool_stats() == inner.pool_stats()
        assert (chaos.joins, chaos.leaves, chaos.respawns) == (0, 0, 0)

    def test_missing_attributes_still_raise(self):
        chaos = ChaosExecutor(SerialExecutor(), ChaosPolicy())
        with pytest.raises(AttributeError):
            chaos.no_such_member
        with pytest.raises(AttributeError):
            chaos._private_lookup  # never forwarded: keeps pickling safe
