"""Guard layer x engine integration: events flow, persist, and gate resume.

Guard events are recorded inside ``evaluate()`` (possibly in a worker
process), ride on :attr:`EvaluationResult.guard_events`, are counted into
:class:`EngineStats` at settle/replay time, and are serialised into the
run journal.  The guard policy is part of the journal's run identity, so
resuming under a different policy refuses instead of mixing scores.
On hostile data (NaN cells, a constant feature, flipped labels, drift)
and a planted diverging learner, ``guard_policy="repair"`` still crowns a
sane incumbent, serial == parallel.
"""

import math

import numpy as np
import pytest

from repro.bandit import BOHB, HyperBand, SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.core import MLPModelFactory, grouped_evaluator, vanilla_evaluator
from repro.datasets import make_drifting_classification
from repro.engine import (
    JournalError,
    ParallelExecutor,
    RunJournal,
    SerialExecutor,
    TrialEngine,
)
from repro.space import Categorical, SearchSpace

SPACE = SearchSpace([Categorical("learning_rate_init", [0.001, 0.01, 0.1])])


def tiny_guarded_evaluator(guard_policy="repair"):
    """4-sample dataset: every evaluation shrinks its folds and records it."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 3))
    y = np.array([0, 1, 0, 1])
    factory = MLPModelFactory(task="classification", max_iter=3, solver="lbfgs",
                              hidden_layer_sizes=(4,))
    return vanilla_evaluator(X, y, factory, guard_policy=guard_policy)


def run_search(engine, evaluator=None, random_state=3):
    searcher = SuccessiveHalving(
        SPACE, evaluator or tiny_guarded_evaluator(), random_state=random_state,
        engine=engine,
    )
    return searcher.fit(configurations=SPACE.grid())


def fingerprint(result):
    return [
        (t.key, t.budget_fraction, t.result.score, t.result.guard_events)
        for t in result.trials
    ]


class TestEventFlow:
    def test_events_ride_on_results_and_count_into_stats(self):
        with TrialEngine(executor=SerialExecutor(), retry_backoff=0.0) as engine:
            result = run_search(engine)
            stats = engine.stats
        assert all(t.result.guard_events for t in result.trials)
        kinds = {e["kind"] for t in result.trials for e in t.result.guard_events}
        assert "folds.k_shrunk" in kinds
        # Stats count executed results only; cached trials re-serve the
        # same result object without re-counting.
        executed_events = stats.guard_events
        assert executed_events > 0

    def test_events_survive_the_process_pool(self):
        with TrialEngine(executor=ParallelExecutor(n_workers=2), retry_backoff=0.0) as engine:
            result = run_search(engine)
            stats = engine.stats
        assert all(t.result.guard_events for t in result.trials)
        assert stats.guard_events > 0

    def test_serial_equals_parallel_with_guards_on(self):
        with TrialEngine(executor=SerialExecutor(), retry_backoff=0.0) as engine:
            serial = run_search(engine)
            serial_stats = engine.stats
        with TrialEngine(executor=ParallelExecutor(n_workers=2), retry_backoff=0.0) as engine:
            parallel = run_search(engine)
            parallel_stats = engine.stats
        assert fingerprint(serial) == fingerprint(parallel)
        assert serial_stats.guard_events == parallel_stats.guard_events

    def test_stats_as_dict_exposes_guard_events(self):
        with TrialEngine(executor=SerialExecutor(), retry_backoff=0.0) as engine:
            run_search(engine)
            payload = engine.stats.as_dict()
        assert payload["guard_events"] == engine.stats.guard_events
        assert payload["guard_events"] > 0


class TestJournalPersistence:
    def test_guard_events_round_trip_through_the_journal(self, tmp_path):
        path = tmp_path / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            run_search(engine)
            written = engine.stats.guard_events
        _, entries, _ = RunJournal.read(path)
        read_back = sum(len(e.result.guard_events) for e in entries)
        assert read_back == written > 0
        sample = next(e for e in entries if e.result.guard_events)
        event = sample.result.guard_events[0]
        assert set(event) >= {"kind", "detail"}

    def test_resume_replays_guard_events_into_stats(self, tmp_path):
        path = tmp_path / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            reference = run_search(engine)
            reference_events = engine.stats.guard_events
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            resumed = run_search(engine)
            stats = engine.stats
        assert stats.executed == 0
        assert stats.guard_events == reference_events
        assert fingerprint(resumed) == fingerprint(reference)

    def test_stats_and_registry_agree_on_a_first_and_on_a_resumed_run(self, tmp_path):
        # /metrics reads the registry, `stats` the dataclass: an operator
        # looking at a recovered run must see one number, not two.
        from repro.telemetry import Telemetry

        counted = []
        for _ in ("first run", "resumed run"):
            telemetry = Telemetry()
            with TrialEngine(executor=SerialExecutor(), journal=str(tmp_path / "run.wal"),
                             retry_backoff=0.0, telemetry=telemetry) as engine:
                run_search(engine)
            counters = telemetry.registry.counters()
            mirrored = {name: counters.get(f"engine.{name}", 0)
                        for name in ("guard_events", "resumed", "executed", "submitted")}
            assert mirrored == {name: getattr(engine.stats, name) for name in mirrored}
            counted.append(mirrored["guard_events"])
        assert counted[0] == counted[1] > 0
        assert mirrored["executed"] == 0 and mirrored["resumed"] > 0

    def test_results_without_guard_events_tolerated(self):
        # Old journals predate the field; the dataclass default fills it.
        result = EvaluationResult(mean=0.5, std=0.0, score=0.5, gamma=50.0)
        assert result.guard_events == []


class TestGuardPolicyIdentity:
    def test_resume_with_different_guard_policy_refuses(self, tmp_path):
        path = tmp_path / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            run_search(engine, evaluator=tiny_guarded_evaluator("repair"))
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            with pytest.raises(JournalError, match="guard"):
                run_search(engine, evaluator=tiny_guarded_evaluator("warn"))

    def test_resume_with_same_guard_policy_proceeds(self, tmp_path):
        path = tmp_path / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            reference = run_search(engine, evaluator=tiny_guarded_evaluator("repair"))
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            resumed = run_search(engine, evaluator=tiny_guarded_evaluator("repair"))
            assert engine.stats.executed == 0
        assert fingerprint(resumed) == fingerprint(reference)

    def test_guardless_run_records_off_policy(self, tmp_path):
        path = tmp_path / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            run_search(engine, evaluator=tiny_guarded_evaluator(None))
        header, _, _ = RunJournal.read(path)
        assert header["metadata"]["guard"] == "off"


def corrupted_blobs():
    """Two Gaussian blobs, then 5 % NaN cells, one constant feature, 2 % label flips."""
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(-1.0, 0.7, size=(80, 6)), rng.normal(1.0, 0.7, size=(80, 6))])
    y = np.array([0] * 80 + [1] * 80)
    order = rng.permutation(len(y))
    X, y = X[order], y[order]
    noise = np.random.default_rng(11)
    X[:, 0] = 1.0
    X[noise.random(X.shape) < 0.05] = np.nan
    flip = noise.random(len(y)) < 0.02
    y[flip] = 1 - y[flip]
    return X, y


def drifting_blobs():
    """Class structure translated and rotated along the rows, 5 % NaN cells."""
    return make_drifting_classification(
        n_samples=160, n_features=6, drift=2.0, drift_rotation=1.0,
        nan_cell_rate=0.05, random_state=5, class_sep=1.5,
    )


class TestHostileData:
    """Real learners on hostile data, with ``learning_rate_init=1e6`` planted."""

    @pytest.mark.parametrize(
        "data, searcher",
        [
            (corrupted_blobs, SuccessiveHalving),
            (corrupted_blobs, HyperBand),
            (corrupted_blobs, BOHB),
            (drifting_blobs, SuccessiveHalving),
        ],
        ids=["corrupted-sha+", "corrupted-hb+", "corrupted-bohb+", "drifting-sha+"],
    )
    def test_repair_keeps_a_sane_incumbent(self, tmp_path, data, searcher):
        X, y = data()
        factory = MLPModelFactory(task="classification", max_iter=8,
                                  solver="sgd", hidden_layer_sizes=(8,))
        evaluator = grouped_evaluator(X, y, factory, guard_policy="repair",
                                      n_groups=2, min_subset=20, random_state=3)
        space = SearchSpace([Categorical("learning_rate_init", [0.001, 0.01, 1e6])])

        def run(engine):
            result = searcher(space, evaluator, random_state=7, engine=engine).fit(
                configurations=space.grid()
            )
            return result, engine.stats

        path = tmp_path / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         retry_backoff=0.0) as engine:
            serial, serial_stats = run(engine)
        assert math.isfinite(serial.best_score)
        assert serial.best_config["learning_rate_init"] != 1e6, "the diverging learner won"
        assert serial_stats.guard_events > 0
        assert any(event["kind"] == "learner.diverged"
                   for t in serial.trials for event in t.result.guard_events)
        _, entries, _ = RunJournal.read(path)
        assert sum(len(e.result.guard_events) for e in entries) == serial_stats.guard_events

        with TrialEngine(executor=ParallelExecutor(n_workers=2), retry_backoff=0.0) as engine:
            parallel, parallel_stats = run(engine)
        assert fingerprint(parallel) == fingerprint(serial)
        assert parallel_stats.guard_events == serial_stats.guard_events
