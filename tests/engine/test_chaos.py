"""Degrade table: one scheduled fault per run, serial and on fork/spawn pools.

Each row arms one :mod:`repro.faults` trigger, runs a small SHA search
and checks the engine's degrade contract: the run completes, a real
trial wins, and every degraded trial carries the sentinel (distinct
sentinel ``(config, budget)`` pairs == ``stats.failures``).  A trigger
fires once per arming across every worker, forked or spawned, so the
one counter the fault should move moves exactly once:

- ``ioerror`` at ``executor.evaluate`` is a failed width-1 call: one retry;
- ``crash`` there, or at ``executor.worker.pre_send`` (the reply is lost
  and the parent reads EOF), kills one worker: one respawn;
- ``delay:60`` under ``trial_timeout=0.5`` is a hang: one watchdog kill.

Non-finite scores are the evaluator doubles of ``test_engine.py``.  Pool
rows start real processes and are ``faults``-marked.
"""

import math
import multiprocessing
import time

import pytest

from repro.bandit import SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.engine import FAILURE_SCORE, ParallelExecutor, SerialExecutor, TrialEngine
from repro.space import Categorical, SearchSpace

SPACE = SearchSpace([Categorical("q", list(range(8)))])


class QualityEvaluator:
    """Picklable, so spawned workers can load it: the best configuration is q=7."""

    def evaluate(self, config, budget_fraction, rng):
        score = config["q"] / 10.0 + 0.001 * float(rng.standard_normal())
        return EvaluationResult(mean=score, std=0.0, score=score, gamma=100 * budget_fraction)


def _row(executor, site, action, counter, **pool):
    marks = () if executor == "serial" else (pytest.mark.faults,)
    return pytest.param(
        executor, site, action, counter, pool, marks=marks, id=f"{executor}-{site}={action}"
    )


DEGRADE_TABLE = [
    _row("serial", "executor.evaluate", "ioerror", "retries"),
    _row("fork", "executor.evaluate", "ioerror", "retries"),
    _row("spawn", "executor.evaluate", "ioerror", "retries"),
    _row("fork", "executor.evaluate", "crash", "respawns"),
    _row("spawn", "executor.evaluate", "crash", "respawns"),
    _row("fork", "executor.worker.pre_send", "crash", "respawns"),
    _row("spawn", "executor.worker.pre_send", "crash", "respawns"),
    _row("fork", "executor.evaluate", "delay:60", "timeouts", trial_timeout=0.5),
    _row("spawn", "executor.evaluate", "delay:60", "timeouts", trial_timeout=0.5),
]


@pytest.mark.parametrize("executor, site, action, counter, pool", DEGRADE_TABLE)
def test_one_scheduled_fault_degrades_once(arm_fault, executor, site, action, counter, pool):
    if executor != "serial" and executor not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{executor} start method unavailable on this platform")
    arm_fault(site, action)
    if executor == "serial":
        runner = SerialExecutor()
    else:
        runner = ParallelExecutor(n_workers=2, start_method=executor, **pool)
    start = time.monotonic()
    with TrialEngine(executor=runner, max_retries=1, retry_backoff=0.0) as engine:
        searcher = SuccessiveHalving(SPACE, QualityEvaluator(), random_state=7, engine=engine)
        result = searcher.fit(configurations=SPACE.grid())
    elapsed = time.monotonic() - start
    stats = engine.stats

    assert math.isfinite(result.best_score) and result.best_score > FAILURE_SCORE
    degraded = {
        (t.key, t.budget_fraction) for t in result.trials if t.result.score == FAILURE_SCORE
    }
    assert len(degraded) == stats.failures == 0
    observed = {
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "respawns": getattr(runner, "respawns", 0),
    }
    assert observed[counter] == 1, observed
    assert elapsed < 30.0, "a scheduled hang outlived the watchdog"
