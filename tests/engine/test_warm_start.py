"""Cross-rung warm starting through the engine.

Three layers of guarantees, from plumbing to end-to-end properties:

- the engine captures fold checkpoints in ``_settle``, offers the best
  lower-budget donor in ``_prepare`` and counts hits/misses;
- warm and cold evaluations of the same ``(config, budget)`` never alias
  in the cache or the journal (the donor budget is part of the key);
- warm runs keep the serial == parallel bitwise invariant and ride
  through journal resume unchanged (which requires a durable store).
"""

import numpy as np
import pytest

from repro.bandit import SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.core import MLPModelFactory, vanilla_evaluator
from repro.datasets import make_classification
from repro.engine import (
    CheckpointStore,
    EvaluationCache,
    ParallelExecutor,
    SerialExecutor,
    TrialEngine,
    TrialRequest,
)
from repro.engine.checkpoint import FoldCheckpoint
from repro.space import Categorical, SearchSpace


class WarmAwareEvaluator:
    """Picklable synthetic evaluator exercising the warm-start protocol.

    The score moves when a warm state is supplied, so any keying mistake
    (warm result served for a cold request or vice versa) changes scores
    and fails the assertions.
    """

    def evaluate(self, config, budget_fraction, rng, warm_states=None, capture_checkpoints=False):
        score = config["q"] / 10.0 + 0.01 * float(rng.standard_normal())
        if warm_states is not None:
            score += 0.05 * sum(state is not None for state in warm_states)
        result = EvaluationResult(mean=score, std=0.0, score=score, gamma=100 * budget_fraction)
        if capture_checkpoints:
            r = np.random.default_rng(config["q"])
            result.fold_states = [FoldCheckpoint([r.normal(size=(3, 2))], [r.normal(size=2)])]
        return result


def warm_engine(**kwargs):
    engine = TrialEngine(executor=SerialExecutor(), checkpoints=True, **kwargs)
    engine.bind(WarmAwareEvaluator(), root_seed=0)
    return engine


def run_one(engine, budget, q=3):
    return engine.run_batch([TrialRequest(config={"q": q}, budget_fraction=budget)])[0]


class TestEnginePlumbing:
    def test_first_evaluation_is_a_warm_miss_and_stores_a_checkpoint(self):
        engine = warm_engine()
        outcome = run_one(engine, 0.2)
        assert not outcome.failed
        assert engine.stats.warm_misses == 1
        assert engine.stats.warm_hits == 0
        assert engine.stats.checkpoints_stored == 1
        assert engine.checkpoints.get((("q", 3),), 0.2) is not None

    def test_promotion_finds_the_lower_rung_donor(self):
        engine = warm_engine()
        low = run_one(engine, 0.2)
        high = run_one(engine, 0.5)
        assert engine.stats.warm_hits == 1
        assert engine.stats.warm_misses == 1
        # the synthetic evaluator adds a bonus per warm fold, so a served
        # warm start is visible in the score
        assert high.result.score > low.result.score

    def test_checkpoints_are_stripped_before_results_escape(self):
        engine = warm_engine()
        outcome = run_one(engine, 0.2)
        assert engine.stats.checkpoints_stored == 1
        assert outcome.result.fold_states is None
        assert "fold_states" not in outcome.result.to_dict()

    def test_stats_schema_exports_warm_counters(self):
        engine = warm_engine()
        run_one(engine, 0.2)
        run_one(engine, 0.5)
        snapshot = engine.stats.as_dict()
        assert snapshot["warm_hits"] == 1
        assert snapshot["warm_misses"] == 1
        assert snapshot["checkpoints_stored"] == 2


class TestKeySeparation:
    def test_make_key_distinguishes_warm_source(self):
        key = (("q", 3),)
        cold = EvaluationCache.make_key(key, 0.5, 7)
        warm = EvaluationCache.make_key(key, 0.5, 7, warm_source=0.2)
        assert cold != warm
        assert EvaluationCache.make_key(key, 0.5, 7, warm_source=0.25) != warm
        # cold keys keep their historical 3-tuple shape (journal compat)
        assert len(cold) == 3

    def test_cold_then_warm_then_cached_warm(self):
        engine = warm_engine()
        cold_high = run_one(engine, 0.5)  # no donor yet -> cold
        run_one(engine, 0.2)  # creates the donor
        warm_high = run_one(engine, 0.5)  # same (config, budget), now warm
        assert engine.stats.cache_hits == 0
        assert warm_high.result.score != cold_high.result.score
        again = run_one(engine, 0.5)  # warm key repeats -> cache hit
        assert engine.stats.cache_hits == 1
        assert again.result.score == warm_high.result.score


class TestJournalInteraction:
    def test_journal_with_non_durable_store_is_rejected(self, tmp_path):
        engine = TrialEngine(
            executor=SerialExecutor(),
            checkpoints=True,  # in-memory only
            journal=str(tmp_path / "run.wal"),
        )
        with pytest.raises(ValueError, match="durable"):
            engine.bind(WarmAwareEvaluator(), root_seed=0)

    def test_journal_with_spill_directory_binds(self, tmp_path):
        engine = TrialEngine(
            executor=SerialExecutor(),
            checkpoints=CheckpointStore(spill_dir=tmp_path / "ckpt"),
            journal=str(tmp_path / "run.wal"),
        )
        engine.bind(WarmAwareEvaluator(), root_seed=0)
        assert not run_one(engine, 0.2).failed
        engine.shutdown()


@pytest.fixture(scope="module")
def warm_problem():
    X, y = make_classification(n_samples=160, n_features=5, random_state=0)
    space = SearchSpace(
        [
            Categorical("hidden_layer_sizes", [(8,), (16,)]),
            Categorical("alpha", [1e-4, 1e-2]),
        ]
    )
    factory = MLPModelFactory(task="classification", max_iter=4)
    return X, y, space, factory


def _fingerprint(result):
    return [
        (t.key, t.budget_fraction, t.result.score, tuple(t.result.fold_scores))
        for t in result.trials
    ]


def _run_sha(problem, executor, checkpoints, journal=None, evaluator_wrap=None):
    X, y, space, factory = problem
    engine = TrialEngine(executor=executor, checkpoints=checkpoints, journal=journal)
    evaluator = vanilla_evaluator(X, y, factory)
    if evaluator_wrap is not None:
        evaluator = evaluator_wrap(evaluator)
    searcher = SuccessiveHalving(space, evaluator, random_state=7, engine=engine)
    result = searcher.fit(configurations=space.grid())
    stats = engine.stats
    engine.shutdown()
    return _fingerprint(result), stats


class TestWarmDeterminism:
    def test_serial_equals_parallel_bitwise_under_warm_start(self, warm_problem):
        serial, serial_stats = _run_sha(warm_problem, SerialExecutor(), True)
        parallel, parallel_stats = _run_sha(warm_problem, ParallelExecutor(n_workers=2), True)
        assert serial == parallel
        assert serial_stats.warm_hits == parallel_stats.warm_hits > 0

    def test_warm_run_differs_from_cold_run(self, warm_problem):
        warm, _ = _run_sha(warm_problem, SerialExecutor(), True)
        cold, cold_stats = _run_sha(warm_problem, SerialExecutor(), None)
        assert cold_stats.warm_hits == 0
        assert warm != cold  # more optimisation steps at the upper rungs
        # ... but only promoted (upper-rung) trials may move: the cold
        # bottom rung is identical in both runs.
        warm_first = [t for t in warm if t[1] == warm[0][1]]
        cold_first = [t for t in cold if t[1] == cold[0][1]]
        assert warm_first == cold_first

    def test_interrupted_journal_run_resumes_bitwise_equal(self, warm_problem, tmp_path):
        full, _ = _run_sha(
            warm_problem, SerialExecutor(), CheckpointStore(spill_dir=tmp_path / "full_ckpt")
        )

        class StopEarly:
            """Raises KeyboardInterrupt after a handful of evaluations."""

            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def evaluate(self, *args, **kwargs):
                self.calls += 1
                if self.calls > 3:
                    raise KeyboardInterrupt
                return self.inner.evaluate(*args, **kwargs)

        wal = tmp_path / "run.wal"
        spill = tmp_path / "ckpt"
        with pytest.raises(KeyboardInterrupt):
            _run_sha(
                warm_problem,
                SerialExecutor(),
                CheckpointStore(spill_dir=spill),
                journal=str(wal),
                evaluator_wrap=StopEarly,
            )

        resumed, stats = _run_sha(
            warm_problem,
            SerialExecutor(),
            CheckpointStore(spill_dir=spill),
            journal=str(wal),
        )
        assert stats.resumed > 0
        assert resumed == full
