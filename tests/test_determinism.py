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
``crash-chain``     dies right after every journal commit in    tier-1
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

Warm starting also must not make the cache visible: a cache hit stores
no checkpoint, so the search is the same with the cache on or off only
while the checkpoint store keeps every entry it cannot reload.
``test_cache_is_transparent_when_checkpoints_outgrow_memory`` runs a
problem that commits more entries than a spill-backed store keeps in
memory (256), cache on against cache off: every HB-family name on a
memory-only store (``sha`` and ``sha+``, the names that hit the cache,
in tier-1), ``sha`` and ``sha+`` on a spill-backed store, and ``sha+``
on a spill-backed store behind a 4-entry cache, as ``repro serve
--cache-entries 4`` builds them.

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
from repro.engine import (
    CheckpointStore,
    EvaluationCache,
    ParallelExecutor,
    RunJournal,
    TrialEngine,
)
from repro.engine.protocol import budget_key
from repro.serve import incumbent_fingerprint
from repro.telemetry import Telemetry

from ._tiny_problem import GRID_SPACE, SAMPLED_SPACE, reference_run, tiny_searcher, trials_sha256

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

#: The legs tier-1 runs, with the pinned reference and the cold crash
#: chain: they catch a broken seed, rung order or resume.  The rest, the
#: warm crash chain included, run in the ``faults`` tier, so tier-1 stays
#: within its wall.
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


@pytest.mark.parametrize(
    "warm", [False, pytest.param(True, marks=pytest.mark.faults)], ids=["cold", "warm"]
)
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


#: Successive halving (eta 2) from 1/64 of the data over 300 sampled
#: configurations: ``sha`` and ``sha+`` commit 377 distinct checkpoint
#: entries and hit the cache 225 times; the other HB-family names commit
#: 301-645 entries and never hit.
OUTGROW_KWARGS = {"eta": 2.0, "min_budget_fraction": 1.0 / 64.0}
HB_FAMILY = [n for n, (cls, _) in METHODS.items() if cls not in {"RandomSearch", "TPESearch", "SMACSearch"}]
STORES = {
    "memory": lambda path: CheckpointStore(),
    "spill": lambda path: CheckpointStore(spill_dir=path),
}


def _outgrow_cells():
    """(store, cache bound of the cache-on run, method); tier-1 takes the hitting names."""
    for method in HB_FAMILY:
        marks = [] if method in ("sha", "sha+") else [pytest.mark.faults]
        yield pytest.param("memory", None, method, marks=marks, id=f"memory-{method}")
    for method in ("sha", "sha+"):
        yield pytest.param("spill", None, method, marks=[pytest.mark.faults], id=f"spill-{method}")
    yield pytest.param("spill", 4, "sha+", marks=[pytest.mark.faults], id="spill-cache-4-sha+")


@pytest.mark.parametrize("store,cache_entries,method", _outgrow_cells())
def test_cache_is_transparent_when_checkpoints_outgrow_memory(store, cache_entries, method, tmp_path):
    pool = SAMPLED_SPACE.sample_batch(300, random_state=0)
    runs = []
    for leg, cache in (("on", EvaluationCache(cache_entries)), ("off", False)):
        with TrialEngine(cache=cache, checkpoints=STORES[store](tmp_path / leg)) as engine:
            searcher = tiny_searcher(
                method, SAMPLED_SPACE, kwargs=OUTGROW_KWARGS, engine=engine, warm_start=True
            )
            runs.append((searcher.fit(configurations=pool), engine))
    (cache_on, engine), (cache_off, _) = runs
    entries = {(trial.key, budget_key(trial.budget_fraction)) for trial in cache_on.trials}
    assert len(entries) > 256, "the problem no longer outgrows a spill-backed store's memory"
    if store == "spill" and cache_entries is None:
        assert engine.checkpoints.spill_loads > 0, "no evicted checkpoint was reloaded"
    assert incumbent_fingerprint(cache_on) == incumbent_fingerprint(cache_off)
