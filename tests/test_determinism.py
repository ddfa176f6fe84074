"""The determinism contract, stated once: every searcher reproduces itself.

A trial's seed is a pure function of ``(root seed, config, budget,
attempt)`` (:func:`repro.engine.protocol.derive_seed`), so a search must
come out bitwise the same whichever way the engine runs it.  This module
is the one place that says so.  For every :data:`repro.core.METHODS`
name it takes one *reference*: the serial default-engine run on the
searcher pin's 48-row problem (``tests/_tiny_problem.py``), which is the
pin's ``<name>/grid`` record.  Then it checks one property on every leg:

    ``incumbent_fingerprint(leg) == incumbent_fingerprint(reference)``

where the fingerprint digests ``result_to_dict`` minus ``wall_time`` and
the per-trial ``cost`` (:func:`repro.serve.jobs.incumbent_fingerprint`).

==================  =========================================  ========
leg                 how the run differs from the reference     tier
==================  =========================================  ========
``fork-2``          a forked pool of 2 workers deals the rungs  tier-1
``crash-chain``     dies right after every journal commit in    faults
                    turn, resumed each time, cache off
``cache-off``       ``TrialEngine(cache=False)``                faults
``telemetry``       ``TrialEngine(telemetry=Telemetry())``      faults
``guard-repair``    ``make_searcher(guard="repair")``           faults
``fork-3``          a forked pool of 3 workers                  faults
``spawn-2``         a spawned pool of 2 workers                 faults
==================  =========================================  ========

Warm starting changes what a promoted trial computes, so the warm legs
(``warm-cache-off``, ``warm-fork-2``, ``warm-spawn-2`` and the warm
crash chain, all ``faults`` tier) are held to a *warm* serial reference.

One exclusion, shown as a named skip: ASHA and ASHA+ on more than one
worker.  Their promotions react to completion order, which a pool
genuinely randomises (see ``repro/bandit/asha.py``); on one worker, and
through every crash chain, they are held to the contract like everyone
else.  A new ``METHODS`` name joins every row here by itself; it needs
a ``<name>/grid`` record in ``tests/bandit/data/searchers.json``.
"""

import json
from pathlib import Path

import pytest

from repro.core import METHODS
from repro.engine import CheckpointStore, ParallelExecutor, RunJournal, TrialEngine
from repro.serve import incumbent_fingerprint
from repro.telemetry import Telemetry

from ._tiny_problem import GRID_SPACE, reference_run, tiny_searcher, trials_sha256

PINNED = Path(__file__).parent / "bandit" / "data" / "searchers.json"

#: Names whose searcher reacts to completion order under a pool.
ORDER_DEPENDENT = {name for name, (cls, _) in METHODS.items() if cls == "ASHA"}


def _pool(n_workers, start_method):
    return lambda: TrialEngine(executor=ParallelExecutor(n_workers, start_method=start_method))


WARM = {"warm_start": True}

#: leg -> (engine factory, make_searcher kwargs, workers).
LEGS = {
    "cache-off": (lambda: TrialEngine(cache=False), {}, 1),
    "telemetry": (lambda: TrialEngine(telemetry=Telemetry()), {}, 1),
    "guard-repair": (TrialEngine, {"guard": "repair"}, 1),
    "fork-2": (_pool(2, "fork"), {}, 2),
    "fork-3": (_pool(3, "fork"), {}, 3),
    "spawn-2": (_pool(2, "spawn"), {}, 2),
    "warm-cache-off": (lambda: TrialEngine(cache=False), WARM, 1),
    "warm-fork-2": (_pool(2, "fork"), WARM, 2),
    "warm-spawn-2": (_pool(2, "spawn"), WARM, 2),
}

#: The legs tier-1 runs, with the pinned reference: it catches a broken
#: seed or rung order.  The rest, the crash chains included, run in the
#: ``faults`` tier, so tier-1 stays within its wall while the example
#: tests these legs cover (``tests/engine/test_resume.py``, ...) remain.
TIER_1 = {"fork-2"}


def _cells(legs):
    """Every (leg, method) pair; the named exclusion is a visible skip."""
    for leg in legs:
        marks = [] if leg in TIER_1 else [pytest.mark.faults]
        for method in METHODS:
            cell_marks = list(marks)
            if LEGS[leg][2] > 1 and method in ORDER_DEPENDENT:
                cell_marks.append(pytest.mark.skip(
                    reason="ASHA promotions follow completion order on a pool, by design"
                ))
            yield pytest.param(leg, method, marks=cell_marks, id=f"{leg}-{method}")


def _reference(method, warm=False):
    """The serial default-engine run every leg of ``method`` is held to."""
    return reference_run(method, warm)[1]


@pytest.mark.parametrize("method", list(METHODS))
def test_reference_is_the_pinned_run(method):
    pinned = json.loads(PINNED.read_text())[f"{method}/grid"]
    assert trials_sha256(_reference(method)) == pinned["trials_sha256"]


@pytest.mark.parametrize("leg,method", _cells(LEGS))
def test_leg_reproduces_the_reference(leg, method):
    make_engine, make_kwargs, _ = LEGS[leg]
    with make_engine() as engine:
        searcher = tiny_searcher(method, GRID_SPACE, engine=engine, **make_kwargs)
        result = searcher.fit(configurations=GRID_SPACE.grid())
    # A retry draws a fresh attempt seed, so it would mismatch for a reason
    # outside the contract (a pool worker died): say so instead.
    assert engine.stats.retries == 0, "a trial was retried; did a pool worker die?"
    reference = _reference(method, warm=make_kwargs.get("warm_start", False))
    assert incumbent_fingerprint(result) == incumbent_fingerprint(reference)


class _Crash(BaseException):
    """Stands in for the process dying; not an ``Exception``, so nothing retries it."""


class _CrashAfterCommit(RunJournal):
    """A journal whose process dies right after each commit is durable."""

    def __init__(self, path):
        super().__init__(path)
        self.commits = []

    def commit(self, lines):
        super().commit(lines)
        self.commits.append(len(lines))
        raise _Crash


@pytest.mark.faults
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("method", list(METHODS))
def test_crash_chain_reproduces_the_reference(method, warm, tmp_path):
    """Die after every commit in turn; each resume runs one dispatch, the last none.

    A dispatch is a rung, or for ASHA its ``n_workers`` trials in flight
    (those not yet committed when it dies run again in the next leg).
    """
    reference = _reference(method, warm=warm)
    legs = []
    for _ in range(reference.n_trials + 1):
        journal = _CrashAfterCommit(tmp_path / "run.wal")
        checkpoints = CheckpointStore(spill_dir=tmp_path / "ckpt") if warm else None
        with TrialEngine(cache=False, journal=journal, checkpoints=checkpoints) as engine:
            searcher = tiny_searcher(method, GRID_SPACE, engine=engine, warm_start=warm)
            run = searcher.resume if legs else searcher.fit
            try:
                result = run(configurations=GRID_SPACE.grid())
            except _Crash:
                in_flight = getattr(searcher, "n_workers", 1)
                legs.append((journal.commits, engine.stats.executed, in_flight))
                continue
        break
    else:
        pytest.fail(f"no progress: {len(legs)} legs each died after one commit")
    for commits, executed, in_flight in legs:
        assert len(commits) == 1 and commits[0] <= executed <= max(commits[0], in_flight)
    assert (engine.stats.executed, engine.stats.resumed) == (0, reference.n_trials)
    assert incumbent_fingerprint(result) == incumbent_fingerprint(reference)
