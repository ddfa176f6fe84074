"""Watchdog supervision: hung trials, worker death, backoff, liveness."""

import os
import signal
import time
from contextlib import contextmanager

import pytest

from repro.bandit import SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.engine import (
    FAILURE_SCORE,
    ParallelExecutor,
    SerialExecutor,
    STATS_SCHEMA_VERSION,
    TrialEngine,
    TrialRequest,
)
from repro.space import Categorical, SearchSpace


@contextmanager
def hard_deadline(seconds):
    """SIGALRM-based hard timeout: a deadlocked wait fails instead of hanging."""

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded hard deadline of {seconds}s — deadlock?")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class SleepyEvaluator:
    """Hangs forever on one configuration, instant otherwise."""

    def evaluate(self, config, budget_fraction, rng):
        if config.get("hang"):
            time.sleep(600)
        score = config["q"]
        return EvaluationResult(mean=score, std=0.0, score=score, gamma=100 * budget_fraction)


class ExitOnceEvaluator:
    """Kills its worker process on the first call, succeeds afterwards.

    The marker file makes "first" durable across the respawned worker —
    exactly the transient-crash shape the watchdog must recover from.
    """

    def __init__(self, marker_path):
        self.marker_path = str(marker_path)

    def evaluate(self, config, budget_fraction, rng):
        if config.get("die") and not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as handle:
                handle.write("died\n")
            os._exit(1)
        score = config["q"]
        return EvaluationResult(mean=score, std=0.0, score=score, gamma=100 * budget_fraction)


def _request(config, trial_id=0, seed=1):
    return TrialRequest(config=config, budget_fraction=1.0, trial_id=trial_id, seed=seed)


class TestTrialTimeout:
    def test_hung_trial_times_out_and_degrades(self):
        with hard_deadline(60):
            with TrialEngine(
                executor=ParallelExecutor(n_workers=2, trial_timeout=0.3),
                max_retries=1, retry_backoff=0.01,
            ) as engine:
                engine.bind(SleepyEvaluator(), root_seed=0)
                outcome = engine.run_batch(
                    [_request({"q": 0, "hang": True})]
                )[0]
        assert outcome.failed
        assert outcome.result.score == FAILURE_SCORE
        assert outcome.error.startswith("TrialTimeout")
        assert engine.stats.timeouts == 2  # first attempt + one retry
        assert engine.stats.retries == 1
        assert engine.stats.failures == 1

    def test_hung_trial_never_stalls_healthy_ones(self):
        space = SearchSpace([Categorical("q", list(range(4)))])
        configs = space.grid() + [{"q": 99, "hang": True}]
        with hard_deadline(120):
            with TrialEngine(
                executor=ParallelExecutor(n_workers=2, trial_timeout=0.3),
                max_retries=1, retry_backoff=0.01,
            ) as engine:
                engine.bind(SleepyEvaluator(), root_seed=0)
                outcomes = engine.run_batch(
                    [_request(c, trial_id=i, seed=i) for i, c in enumerate(configs)]
                )
        scores = [o.result.score for o in outcomes]
        assert scores[:4] == [0, 1, 2, 3]
        assert outcomes[4].failed and scores[4] == FAILURE_SCORE
        assert engine.stats.timeouts >= 2

    def test_timeout_counters_flow_into_stats_dict(self):
        with TrialEngine(
            executor=ParallelExecutor(n_workers=1, trial_timeout=0.3),
            max_retries=0, retry_backoff=0.0,
        ) as engine:
            engine.bind(SleepyEvaluator(), root_seed=0)
            engine.run_batch([_request({"q": 0, "hang": True})])
        stats = engine.stats.as_dict()
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["timeouts"] == 1
        assert set(stats) >= {"timeouts", "resumed", "non_finite", "hit_rate"}

    def test_invalid_timeouts_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(trial_timeout=0.0)
        with pytest.raises(ValueError):
            ParallelExecutor(heartbeat_timeout=-1.0)
        with pytest.raises(ValueError):
            ParallelExecutor(heartbeat_interval=0.0)

    def test_heartbeats_keep_slow_but_alive_trials_unkilled(self):
        # A trial slower than heartbeat_timeout but within trial_timeout
        # must complete: heartbeats prove the worker is alive.
        class Slow:
            def evaluate(self, config, budget_fraction, rng):
                time.sleep(0.5)
                return EvaluationResult(mean=1.0, std=0.0, score=1.0, gamma=100.0)

        with hard_deadline(60):
            with ParallelExecutor(
                n_workers=1, trial_timeout=30.0,
                heartbeat_interval=0.05, heartbeat_timeout=0.2,
            ) as executor:
                executor.bind(Slow())
                executor.submit(_request({"q": 1}))
                trial_id, ok, result, error = executor.wait_one()[:4]
        assert ok and result.score == 1.0
        assert executor.timeouts == 0


class TestWorkerDeath:
    def test_worker_exit_triggers_respawn_and_resubmit(self, tmp_path):
        # Regression: an evaluator calling os._exit(1) mid-trial must end in
        # a respawned worker and a successful retry, never a deadlock.
        evaluator = ExitOnceEvaluator(tmp_path / "died.marker")
        with hard_deadline(60):
            with TrialEngine(
                executor=ParallelExecutor(n_workers=2),
                max_retries=1, retry_backoff=0.01,
            ) as engine:
                engine.bind(evaluator, root_seed=0)
                outcome = engine.run_batch([_request({"q": 7, "die": True})])[0]
        assert not outcome.failed
        assert outcome.result.score == 7
        assert outcome.attempts == 2
        assert engine.stats.retries == 1
        assert engine.executor.respawns >= 1
        assert (tmp_path / "died.marker").exists()

    def test_worker_death_error_is_labelled(self, tmp_path):
        evaluator = ExitOnceEvaluator(tmp_path / "died.marker")
        with hard_deadline(60):
            with ParallelExecutor(n_workers=1) as executor:
                executor.bind(evaluator)
                executor.submit(_request({"q": 1, "die": True}))
                trial_id, ok, result, error = executor.wait_one()[:4]
        assert not ok
        assert error.startswith("WorkerDied")

    def test_search_survives_worker_death(self, tmp_path):
        space = SearchSpace([Categorical("q", [1, 2, 3, 4]), Categorical("die", [False, True])])
        evaluator = ExitOnceEvaluator(tmp_path / "died.marker")
        with hard_deadline(120):
            with TrialEngine(
                executor=ParallelExecutor(n_workers=2),
                max_retries=2, retry_backoff=0.01,
            ) as engine:
                searcher = SuccessiveHalving(space, evaluator, random_state=0, engine=engine)
                result = searcher.fit(configurations=space.grid())
        assert result.best_config["q"] == 4
        assert engine.stats.failures == 0  # the one death was retried away


class TestRetryBackoff:
    class AlwaysFails:
        def evaluate(self, config, budget_fraction, rng):
            raise RuntimeError("nope")

    def _delays(self, max_retries=3, retry_backoff=0.1, root_seed=0):
        recorded = []
        engine = TrialEngine(
            executor=SerialExecutor(), max_retries=max_retries,
            retry_backoff=retry_backoff, sleep=recorded.append,
        )
        engine.bind(self.AlwaysFails(), root_seed=root_seed)
        engine.run_batch([TrialRequest(config={"q": 1}, budget_fraction=1.0)])
        return recorded

    def test_backoff_grows_exponentially_with_jitter(self):
        delays = self._delays(max_retries=3, retry_backoff=0.1)
        assert len(delays) == 3
        for attempt, delay in enumerate(delays, start=1):
            base = 0.1 * 2.0 ** (attempt - 1)
            assert 0.5 * base <= delay <= base

    def test_backoff_is_deterministic(self):
        assert self._delays() == self._delays()

    def test_backoff_differs_across_seeds(self):
        assert self._delays(root_seed=0) != self._delays(root_seed=1)

    def test_zero_backoff_never_sleeps(self):
        assert self._delays(retry_backoff=0.0) == []

    def test_backoff_is_capped(self):
        recorded = []
        engine = TrialEngine(
            executor=SerialExecutor(), max_retries=6,
            retry_backoff=1.0, retry_backoff_max=2.0, sleep=recorded.append,
        )
        engine.bind(self.AlwaysFails(), root_seed=0)
        engine.run_batch([TrialRequest(config={"q": 1}, budget_fraction=1.0)])
        assert max(recorded) <= 2.0

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError):
            TrialEngine(retry_backoff=-0.1)
