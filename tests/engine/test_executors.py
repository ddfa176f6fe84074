"""Executor protocol: FIFO serial reference and the process-pool executor."""

import multiprocessing
import os

import pytest

from repro.bandit.base import EvaluationResult
from repro.engine import ParallelExecutor, SerialExecutor, TrialRequest


class SeedEchoEvaluator:
    """Picklable evaluator whose score encodes (config, seed) for assertions."""

    def evaluate(self, config, budget_fraction, rng):
        if config.get("explode"):
            raise ValueError("requested failure")
        noise = float(rng.random())  # derived-seed determinism shows up here
        score = config["q"] + noise
        return EvaluationResult(
            mean=score, std=0.0, score=score, gamma=100 * budget_fraction
        )


def _request(trial_id, q=0, budget=0.5, seed=123, explode=False):
    config = {"q": q, "explode": True} if explode else {"q": q}
    return TrialRequest(
        config=config, budget_fraction=budget, trial_id=trial_id, seed=seed
    )


class TestSerialExecutor:
    def test_fifo_completion(self):
        executor = SerialExecutor()
        executor.bind(SeedEchoEvaluator())
        for i in range(3):
            executor.submit(_request(i, q=i))
        assert executor.pending() == 3
        order = [executor.wait_one()[0] for _ in range(3)]
        assert order == [0, 1, 2]
        assert executor.pending() == 0

    def test_errors_are_returned_not_raised(self):
        executor = SerialExecutor()
        executor.bind(SeedEchoEvaluator())
        executor.submit(_request(0, explode=True))
        trial_id, ok, result, error = executor.wait_one()[:4]
        assert (trial_id, ok, result) == (0, False, None)
        assert "ValueError" in error

    def test_submit_before_bind_raises(self):
        with pytest.raises(RuntimeError):
            SerialExecutor().submit(_request(0))

    def test_wait_without_pending_raises(self):
        executor = SerialExecutor()
        executor.bind(SeedEchoEvaluator())
        with pytest.raises(RuntimeError):
            executor.wait_one()


class TestParallelExecutor:
    def test_default_worker_count_is_the_cpus_this_process_may_run_on(self, monkeypatch):
        # A process pinned to one CPU of an eight-CPU machine gets one worker.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ParallelExecutor().n_workers == 1

    def test_all_submissions_complete_any_order(self):
        with ParallelExecutor(n_workers=2) as executor:
            executor.bind(SeedEchoEvaluator())
            for i in range(5):
                executor.submit(_request(i, q=i, seed=i))
            seen = {executor.wait_one()[0] for _ in range(5)}
        assert seen == {0, 1, 2, 3, 4}

    def test_worker_exception_is_data(self):
        with ParallelExecutor(n_workers=1) as executor:
            executor.bind(SeedEchoEvaluator())
            executor.submit(_request(0, explode=True))
            trial_id, ok, result, error = executor.wait_one()[:4]
        assert (trial_id, ok, result) == (0, False, None)
        assert "ValueError" in error

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(n_workers=0)

    def test_capacity_reports_workers(self):
        executor = ParallelExecutor(n_workers=3)
        assert executor.capacity == 3
        executor.shutdown()

    def test_rebinding_new_evaluator_restarts_pool(self):
        executor = ParallelExecutor(n_workers=1)
        first = SeedEchoEvaluator()
        executor.bind(first)
        executor.submit(_request(0, q=1, seed=5))
        executor.wait_one()
        executor.bind(SeedEchoEvaluator())  # different instance -> pool restart
        executor.submit(_request(1, q=2, seed=5))
        trial_id, ok, result = executor.wait_one()[:3]
        assert ok and trial_id == 1
        executor.shutdown()


class TestRungDealing:
    """Without a watchdog a rung moves as one message per worker; with one, task by task."""

    @pytest.fixture
    def sent(self, monkeypatch):
        """Every ``(connection, tasks)`` message the parent sends, in order
        (the ``None`` shutdown sentinel is not a task message)."""
        from multiprocessing.connection import Connection

        records = []
        real_send = Connection.send

        def recording_send(conn, obj):
            if obj is not None:
                records.append((conn, obj))
            return real_send(conn, obj)

        monkeypatch.setattr(Connection, "send", recording_send)
        return records

    @pytest.mark.parametrize(
        "n_tasks,n_workers,sizes",
        [(7, 3, [2, 2, 3]), (4, 2, [2, 2]), (5, 2, [2, 3]), (1, 2, [1])],
    )
    def test_flush_deals_balanced_shares_in_one_send_per_worker(
        self, sent, n_tasks, n_workers, sizes
    ):
        with ParallelExecutor(n_workers=n_workers) as executor:
            executor.bind(SeedEchoEvaluator())
            for i in range(n_tasks):
                executor.submit(_request(i, q=i, seed=i))
            assert sent == [], "submissions must be held until the flush"
            assert executor.pending() == n_tasks
            executor.flush_batch()
            assert sorted(len(tasks) for _, tasks in sent) == sizes
            assert len({id(conn) for conn, _ in sent}) == len(sizes)
            seen = {executor.wait_one()[0] for _ in range(n_tasks)}
            assert seen == set(range(n_tasks))
            assert len(sent) == len(sizes), "collecting a rung must not send again"

    def test_wait_one_flushes_for_callers_that_never_do(self, sent):
        with ParallelExecutor(n_workers=2) as executor:
            executor.bind(SeedEchoEvaluator())
            for i in range(3):
                executor.submit(_request(i, q=i, seed=i))
            first = executor.wait_one()[0]  # no flush_batch: async protocol
            assert sorted(len(tasks) for _, tasks in sent) == [1, 2]
            # A later lone submission lands on the least-loaded worker.
            executor.submit(_request(3, q=3, seed=3))
            seen = {first} | {executor.wait_one()[0] for _ in range(3)}
        assert seen == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "kwargs",
        [{"trial_timeout": 30.0}, {"heartbeat_timeout": 30.0}],
        ids=["watchdog", "heartbeat"],
    )
    def test_supervised_and_elastic_pools_send_one_task_at_a_time(self, sent, kwargs):
        with ParallelExecutor(n_workers=2, **kwargs) as executor:
            executor.bind(SeedEchoEvaluator())
            for i in range(5):
                executor.submit(_request(i, q=i, seed=i))
            assert len(sent) == 2, "each idle worker starts at submit time, the rest queue"
            seen = {executor.wait_one()[0] for _ in range(5)}
            assert seen == set(range(5))
            assert [len(tasks) for _, tasks in sent] == [1] * 5

    def test_asha_progresses_on_a_holding_pool(self):
        from repro.bandit import ASHA
        from repro.engine import TrialEngine
        from repro.space import Categorical, SearchSpace

        space = SearchSpace([Categorical("q", list(range(6)))])
        with TrialEngine(executor=ParallelExecutor(n_workers=2)) as engine:
            searcher = ASHA(space, SeedEchoEvaluator(), random_state=3, n_workers=2, engine=engine)
            result = searcher.fit(configurations=space.grid())
        assert {trial.config["q"] for trial in result.trials if trial.iteration == 0} == set(range(6))
        assert engine.stats.executed == len(result.trials)


class TestSerialEqualsParallel:
    """Dealing changes scheduling only: any worker count reproduces serial bit for bit."""

    @staticmethod
    def _search(executor):
        import numpy as np

        from repro.bandit import HyperBand
        from repro.core import MLPModelFactory, vanilla_evaluator
        from repro.engine import TrialEngine
        from repro.space import Categorical, SearchSpace

        rng = np.random.default_rng(5)
        X = rng.normal(size=(160, 5))
        y = (X @ rng.normal(size=5) > 0).astype(int)
        space = SearchSpace(
            [
                Categorical("learning_rate_init", [1e-3, 3e-3, 1e-2]),
                Categorical("alpha", [1e-4, 1e-2]),
            ]
        )
        evaluator = vanilla_evaluator(
            X, y, MLPModelFactory(task="classification", max_iter=4, hidden_layer_sizes=(6,))
        )
        with TrialEngine(executor=executor, checkpoints=True) as engine:
            searcher = HyperBand(space, evaluator, random_state=2, engine=engine)
            result = searcher.fit(configurations=space.grid())
        assert engine.stats.warm_hits > 0
        return [
            (t.key, t.budget_fraction, t.bracket, t.result.score, tuple(t.result.fold_scores))
            for t in result.trials
        ]

    @pytest.mark.parametrize("n_workers", [2, 3], ids=["even-deal", "uneven-deal"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_fingerprints_match_under_both_start_methods(self, start_method, n_workers):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable on this platform")
        serial = self._search(SerialExecutor())
        parallel = self._search(ParallelExecutor(n_workers=n_workers, start_method=start_method))
        assert parallel == serial

    @pytest.mark.faults
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_killed_mid_rung_on_a_fused_evaluator_still_equals_serial(
        self, arm_fault, start_method
    ):
        """The dead worker's share comes back failed; resubmitted verbatim it is
        re-dealt into different mega-batches, and the bits must not move."""
        import numpy as np

        from repro.core import MLPModelFactory, vanilla_evaluator

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable on this platform")
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 6))
        y = (X @ rng.normal(size=6) > 0).astype(int)
        evaluator = vanilla_evaluator(X, y, MLPModelFactory(task="classification", max_iter=5))
        requests = {
            i: TrialRequest(
                config={"learning_rate_init": 1e-3 * (1 + i % 3), "alpha": 1e-4},
                budget_fraction=0.5, trial_id=i, seed=500 + i,
            )
            for i in range(7)
        }

        def run(executor):
            scores, died = {}, 0
            with executor:
                executor.bind(evaluator)
                for request in requests.values():
                    executor.submit(request)
                executor.flush_batch()
                while executor.pending():
                    trial_id, ok, result, error = executor.wait_one()[:4]
                    if ok:
                        scores[trial_id] = (result.score, tuple(result.fold_scores))
                    else:
                        assert error.startswith("WorkerDied"), error
                        died += 1
                        executor.submit(requests[trial_id])
            return scores, died

        reference, died = run(SerialExecutor())  # one rung-wide mega-batch
        assert died == 0
        # Each worker's first evaluator call is its fused share: the first
        # worker to reach it dies, once, whichever start method made it.
        arm_fault("executor.evaluate", "crash")
        pool = ParallelExecutor(n_workers=2, start_method=start_method)
        wounded, died = run(pool)
        assert died in (3, 4) and pool.respawns == 1, "one worker's share died with it"
        assert wounded == reference


_CRASHING_PARENT = """
import os, sys
from repro.bandit.base import EvaluationResult
from repro.engine import ParallelExecutor, TrialRequest

class Evaluator:
    def evaluate(self, config, budget_fraction, rng):
        return EvaluationResult(mean=0.0, std=0.0, score=0.0, gamma=1.0)

if __name__ == "__main__":
    executor = ParallelExecutor(n_workers=3, start_method=sys.argv[1])
    executor.bind(Evaluator())
    for i in range(3):
        executor.submit(TrialRequest(config={"q": i}, budget_fraction=0.5, trial_id=i, seed=i))
    for _ in range(3):
        executor.wait_one()
    print("workers up", flush=True)
    os._exit(86)  # no shutdown, no atexit: what SIGKILL or a crash leaves
"""


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_workers_exit_when_their_parent_is_killed(tmp_path, start_method):
    """Orphaned workers must not outlive a crashed parent.

    Forked siblings inherit the far end of each other's task pipes, so a
    parent's death never EOFs them; each worker watches the parent itself.
    The workers inherit this test's stdout pipe: ``run`` returning at all
    (instead of timing out) is the proof that every one of them exited.
    """
    import multiprocessing
    import os
    import subprocess
    import sys

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable on this platform")
    script = tmp_path / "crashing_parent.py"
    script.write_text(_CRASHING_PARENT)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, str(script), start_method],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 86, done.stderr
    assert "workers up" in done.stdout
