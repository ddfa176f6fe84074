"""On-disk compatibility pin for the run journal and ``result.json``.

``data/compat_run.wal`` and ``data/compat_run.result.json`` were written
once, by the code as it stood before the trial record and its codec moved
into :mod:`repro.engine.protocol`, from the fixed run below.  They are
never regenerated: a change to either format must fail here.  The run is
deterministic end to end — a seeded grid HyperBand on the serial
executor, an evaluator whose ``cost`` comes from an injected ticking
clock, one configuration that always raises (a degraded record with an
error text), tuple-valued parameters and guard events — so the same run
today must write the same bytes, and replaying the committed journal must
reproduce the committed result without executing anything.
"""

import shutil
from pathlib import Path

from repro.bandit import EvaluationResult, HyperBand
from repro.engine import RunJournal, SerialExecutor, TrialEngine
from repro.results import save_result
from repro.space import Categorical, SearchSpace

DATA = Path(__file__).parent / "data"
WAL = DATA / "compat_run.wal"
RESULT = DATA / "compat_run.result.json"

SPACE = SearchSpace(
    [
        Categorical("layers", [(8,), (16, 8)]),
        Categorical("alpha", [0.1, 0.5, 1.0]),
    ]
)


class TickingClock:
    """Deterministic stand-in for ``time.perf_counter``."""

    def __init__(self, step=0.0375):
        self.step = step
        self.ticks = 0

    def __call__(self):
        self.ticks += 1
        return self.ticks * self.step


class ClockedEvaluator:
    """Seeded fold scores, clock-derived cost, one always-failing config."""

    def __init__(self, clock):
        self.clock = clock

    def evaluate(self, config, budget_fraction, rng):
        t0 = self.clock()
        if config["alpha"] == 1.0:
            raise RuntimeError("diverged")
        folds = (0.5 + 0.1 * len(config["layers"]) - 0.2 * config["alpha"]
                 + 0.05 * budget_fraction + 0.01 * rng.standard_normal(3))
        mean, std = float(folds.mean()), float(folds.std())
        events = []
        if config["layers"] == (16, 8):
            events.append({"kind": "clipped", "column": 2, "count": 1})
        return EvaluationResult(
            mean=mean, std=std, score=mean + 0.1 * std, gamma=100.0 * budget_fraction,
            fold_scores=[float(f) for f in folds], n_instances=int(270 * budget_fraction),
            cost=self.clock() - t0, guard_events=events,
        )


def run(journal_path):
    """The pinned run: returns ``(result, engine stats)``."""
    engine = TrialEngine(
        executor=SerialExecutor(), journal=RunJournal(journal_path), retry_backoff=0.0
    )
    with engine:
        searcher = HyperBand(
            SPACE, ClockedEvaluator(TickingClock()), random_state=7,
            min_budget_fraction=1.0 / 9.0, engine=engine,
        )
        result = searcher.fit(configurations=SPACE.grid())
    result.wall_time = result.total_evaluation_cost  # the one wall-clock field
    return result, engine.stats


def test_same_run_writes_identical_bytes(tmp_path):
    result, stats = run(tmp_path / "run.wal")
    assert stats.failures > 0 and stats.guard_events > 0  # the pin covers both
    assert (tmp_path / "run.wal").read_bytes() == WAL.read_bytes()
    save_result(result, tmp_path / "result.json")
    assert (tmp_path / "result.json").read_bytes() == RESULT.read_bytes()


def test_committed_journal_replays_bitwise(tmp_path):
    wal = tmp_path / "run.wal"
    shutil.copyfile(WAL, wal)
    result, stats = run(wal)
    assert stats.executed == 0
    assert stats.resumed == result.n_trials
    save_result(result, tmp_path / "result.json")
    assert (tmp_path / "result.json").read_bytes() == RESULT.read_bytes()
    assert wal.read_bytes() == WAL.read_bytes()  # replay appends nothing
