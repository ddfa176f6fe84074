"""Kill-and-resume property: a resumed run equals the uninterrupted run.

The engine's derived seeds make every trial a pure function of
``(root_seed, config, budget, attempt)``, so replaying a journal prefix
and re-executing the tail must reproduce the uninterrupted run's trials,
scores and incumbent exactly.  A serial run cut after any journal
commit is ``tests/test_determinism.py``'s crash chain; these tests add
what it does not reach: a truncated journal resumed on a process pool,
degraded trials that replay, a crash *inside* a rung's commit (a torn
journal, a lost checkpoint segment), the refusals of a journal from
another search, and, in the ``faults`` tier, a live process SIGKILLed
mid-search.
"""

import itertools
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bandit import ASHA, HyperBand, SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.engine import (
    FAILURE_SCORE,
    CheckpointStore,
    JournalError,
    ParallelExecutor,
    RunJournal,
    SerialExecutor,
    TrialEngine,
)
from repro.engine.checkpoint import FoldCheckpoint
from repro.space import Categorical, SearchSpace


class SeededQualityEvaluator:
    """Picklable synthetic evaluator: score = quality + seeded noise."""

    def evaluate(self, config, budget_fraction, rng):
        score = config["q"] / 10.0 + 0.01 * float(rng.standard_normal())
        return EvaluationResult(
            mean=score, std=0.0, score=score, gamma=100 * budget_fraction
        )


class PermanentlyFlaky:
    """Raises forever for one configuration."""

    def evaluate(self, config, budget_fraction, rng):
        if config["q"] == 3:
            raise RuntimeError("permanent failure")
        score = config["q"]
        return EvaluationResult(mean=score, std=0.0, score=score, gamma=100 * budget_fraction)


SPACE = SearchSpace([Categorical("q", list(range(6)))])

SEARCHERS = {
    "sha": lambda engine: SuccessiveHalving(SPACE, SeededQualityEvaluator(), random_state=11, engine=engine),
    "hb": lambda engine: HyperBand(SPACE, SeededQualityEvaluator(), random_state=11, engine=engine),
    "asha": lambda engine: ASHA(SPACE, SeededQualityEvaluator(), random_state=11, n_workers=2, engine=engine),
}

EXECUTORS = {
    "serial": lambda: SerialExecutor(),
    "parallel2": lambda: ParallelExecutor(n_workers=2),
}


def _fingerprint(result):
    return [
        (t.key, t.budget_fraction, t.result.score, t.iteration, t.bracket)
        for t in result.trials
    ]


def _truncate_journal(path, n_outcomes):
    lines = Path(path).read_text().splitlines(True)
    Path(path).write_text("".join(lines[: 1 + n_outcomes]))


def _run(searcher_key, executor_key, journal=None):
    with TrialEngine(executor=EXECUTORS[executor_key](), journal=journal,
                     retry_backoff=0.0) as engine:
        result = SEARCHERS[searcher_key](engine).fit(configurations=SPACE.grid())
    return result, engine.stats


class TestKillAndResume:
    # ASHA's engine mode reacts to completion order, which a parallel
    # executor genuinely randomises, so its order-equality claim is made
    # for the serial executor (see the asha module docstring); SHA/HB
    # return batches in request order under any executor.
    CASES = [
        ("sha", "serial"), ("sha", "parallel2"),
        ("hb", "serial"), ("hb", "parallel2"),
        ("asha", "serial"),
    ]

    @pytest.mark.parametrize("searcher_key,executor_key", CASES)
    @pytest.mark.parametrize("cut", ["early", "late"])
    def test_truncated_journal_resumes_bitwise(self, tmp_path, searcher_key, executor_key, cut):
        path = tmp_path / "run.wal"
        reference, _ = _run(searcher_key, executor_key, journal=str(path))
        _, entries, _ = RunJournal.read(path)
        n_keep = max(1, len(entries) // 4) if cut == "early" else max(1, 3 * len(entries) // 4)
        _truncate_journal(path, n_keep)

        resumed, stats = _run(searcher_key, executor_key, journal=str(path))
        assert _fingerprint(resumed) == _fingerprint(reference)
        assert resumed.best_config == reference.best_config
        assert resumed.best_score == reference.best_score
        assert stats.resumed > 0
        # Only the lost tail was re-executed.
        assert stats.executed <= len(entries) - n_keep

    def test_degraded_trials_replay_without_reexecution(self, tmp_path):
        path = tmp_path / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         max_retries=1, retry_backoff=0.0) as engine:
            searcher = SuccessiveHalving(SPACE, PermanentlyFlaky(), random_state=0, engine=engine)
            reference = searcher.fit(configurations=SPACE.grid())
        assert any(t.result.score == FAILURE_SCORE for t in reference.trials)

        with TrialEngine(executor=SerialExecutor(), journal=str(path),
                         max_retries=1, retry_backoff=0.0) as engine:
            searcher = SuccessiveHalving(SPACE, PermanentlyFlaky(), random_state=0, engine=engine)
            resumed = searcher.resume(configurations=SPACE.grid())
        assert engine.stats.executed == 0  # even the failure was not re-run
        assert engine.stats.failures == 0
        assert _fingerprint(resumed) == _fingerprint(reference)


class WarmQualityEvaluator:
    """Synthetic warm-start evaluator: the donor's *content* moves the score.

    Each evaluation captures a checkpoint that encodes its (config,
    budget); a warm evaluation adds the donor's value to its score.  A
    resume that lost, skipped or mixed up a checkpoint therefore changes
    scores and fails the bitwise comparison.
    """

    def evaluate(self, config, budget_fraction, rng, warm_states=None, capture_checkpoints=False):
        score = config["q"] / 10.0 + 0.01 * float(rng.standard_normal())
        if warm_states is not None:
            score += 0.001 * float(warm_states[0].coefs[0][0, 0])
        result = EvaluationResult(mean=score, std=0.0, score=score, gamma=100 * budget_fraction)
        if capture_checkpoints:
            value = config["q"] + budget_fraction
            result.fold_states = [FoldCheckpoint([[[value]]], [[0.0]])]
        return result


def _run_warm(run_dir):
    """HyperBand, journaled and warm-started, over ``run_dir`` (resumes if present)."""
    engine = TrialEngine(
        executor=SerialExecutor(),
        cache=False,  # every submission either replays or executes
        journal=str(run_dir / "run.wal"),
        checkpoints=CheckpointStore(spill_dir=run_dir / "ckpt"),
        retry_backoff=0.0,
    )
    with engine:
        searcher = HyperBand(SPACE, WarmQualityEvaluator(), random_state=11, engine=engine)
        result = searcher.fit(configurations=SPACE.grid())
    return result, engine.stats


class TestGroupCommitResume:
    """Any state a crash inside a rung's commit can leave resumes bitwise.

    A rung commits as: publish its checkpoint segment, then one journal
    write + fsync.  So a crash leaves either (a) no segment and none of
    the rung's records, or (b) the segment and any byte-prefix of the
    rung's records — a torn final line included.  Earlier rungs are
    intact in both.
    """

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("group-commit-reference")
        result, stats = _run_warm(run_dir)
        assert stats.warm_hits > 0, "the property needs warm-started trials"
        _, entries, _ = RunJournal.read(run_dir / "run.wal")
        rungs = []  # record count of each commit, in order
        for entry in entries:
            tag = (entry.request.bracket, entry.request.iteration)
            if rungs and rungs[-1][0] == tag:
                rungs[-1][1] += 1
            else:
                rungs.append([tag, 1])
        counts = [count for _, count in rungs]
        segments = sorted((run_dir / "ckpt").glob("*.seg"))
        assert stats.journal_commits == stats.spill_segments == len(counts) == len(segments)
        return run_dir, result, counts

    @settings(max_examples=25, deadline=None)
    @given(
        rung=st.integers(min_value=0, max_value=63),
        segment_published=st.booleans(),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(rung=9, segment_published=True, fraction=1.0)  # nothing lost
    @example(rung=9, segment_published=True, fraction=0.75)  # lost record has a twin
    def test_crash_inside_any_commit_resumes_bitwise(
        self, reference, tmp_path_factory, rung, segment_published, fraction
    ):
        reference_dir, expected, counts = reference
        rung %= len(counts)
        run_dir = tmp_path_factory.mktemp("group-commit") / "run"
        shutil.copytree(reference_dir, run_dir)

        wal = run_dir / "run.wal"
        lines = wal.read_bytes().splitlines(True)
        first = 1 + sum(counts[:rung])  # header + every earlier rung
        before = b"".join(lines[:first])
        commit = b"".join(lines[first : first + counts[rung]])
        cut = round(fraction * len(commit)) if segment_published else 0
        wal.write_bytes(before + commit[:cut])
        segments = sorted((run_dir / "ckpt").glob("*.seg"))
        for lost in segments[rung + 1 if segment_published else rung :]:
            lost.unlink()

        resumed, stats = _run_warm(run_dir)
        assert _fingerprint(resumed) == _fingerprint(expected)
        assert resumed.best_config == expected.best_config
        assert resumed.best_score == expected.best_score
        assert stats.resumed + stats.executed == len(expected.trials)
        # Records of the torn commit that survive: every byte landed, bar
        # perhaps the newline (open() terminates such a record, it is whole).
        ends = itertools.accumulate(len(line) for line in commit.splitlines(True))
        kept = sum(end - 1 <= cut for end in ends)
        # Nothing but the records the crash took from the journal re-executes
        # -- and not even all of those: one whose (config, budget) an earlier
        # bracket journaled replays from that twin, and a crash after the last
        # rung's commit landed in full took nothing at all.
        assert stats.executed <= sum(counts[rung:]) - kept
        # The torn fragment was cut off, not appended onto: the journal the
        # resume leaves behind replays in full, with nothing dropped.
        _, entries, dropped = RunJournal.read(wal)
        assert dropped == 0
        assert len(entries) == sum(counts[:rung]) + kept + stats.executed


class TestResumeGuards:
    def test_resume_without_journal_raises(self):
        with TrialEngine(executor=SerialExecutor()) as engine:
            searcher = SuccessiveHalving(SPACE, SeededQualityEvaluator(), random_state=0, engine=engine)
            with pytest.raises(RuntimeError, match="journal"):
                searcher.resume(configurations=SPACE.grid())

    def test_resume_without_engine_raises(self):
        searcher = SuccessiveHalving(SPACE, SeededQualityEvaluator(), random_state=0)
        with pytest.raises(RuntimeError, match="journal"):
            searcher.resume(configurations=SPACE.grid())

    def test_different_seed_refuses_to_resume(self, tmp_path):
        path = tmp_path / "run.wal"
        _run("sha", "serial", journal=str(path))
        with TrialEngine(executor=SerialExecutor(), journal=str(path)) as engine:
            searcher = SuccessiveHalving(SPACE, SeededQualityEvaluator(), random_state=99, engine=engine)
            with pytest.raises(JournalError, match="root_seed"):
                searcher.fit(configurations=SPACE.grid())

    def test_different_searcher_refuses_to_resume(self, tmp_path):
        path = tmp_path / "run.wal"
        _run("sha", "serial", journal=str(path))
        with TrialEngine(executor=SerialExecutor(), journal=str(path)) as engine:
            searcher = HyperBand(SPACE, SeededQualityEvaluator(), random_state=11, engine=engine)
            with pytest.raises(JournalError, match="searcher"):
                searcher.fit(configurations=SPACE.grid())

    def test_different_space_refuses_to_resume(self, tmp_path):
        path = tmp_path / "run.wal"
        _run("sha", "serial", journal=str(path))
        other = SearchSpace([Categorical("q", list(range(9)))])
        with TrialEngine(executor=SerialExecutor(), journal=str(path)) as engine:
            searcher = SuccessiveHalving(other, SeededQualityEvaluator(), random_state=11, engine=engine)
            with pytest.raises(JournalError, match="space"):
                searcher.fit(configurations=other.grid())


_CHILD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from repro.bandit import HyperBand
    from repro.bandit.base import EvaluationResult
    from repro.engine import SerialExecutor, TrialEngine
    from repro.space import Categorical, SearchSpace

    class SlowEvaluator:
        def evaluate(self, config, budget_fraction, rng):
            time.sleep(0.05)  # slow enough for the parent to land a SIGKILL
            score = config["q"] / 10.0 + 0.01 * float(rng.standard_normal())
            return EvaluationResult(mean=score, std=0.0, score=score,
                                    gamma=100 * budget_fraction)

    space = SearchSpace([Categorical("q", list(range(6)))])
    engine = TrialEngine(executor=SerialExecutor(), journal=sys.argv[1],
                         retry_backoff=0.0)
    searcher = HyperBand(space, SlowEvaluator(), random_state=11, engine=engine)
    searcher.fit(configurations=space.grid())
    engine.shutdown()
    """
)


@pytest.mark.faults
class TestSigkillResume:
    def test_sigkilled_run_resumes_bitwise(self, tmp_path):
        reference, _ = _run("hb", "serial")

        path = tmp_path / "run.wal"
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, str(path)],
            env={**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")},
        )
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if path.exists() and len(path.read_text().splitlines()) >= 4:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.02)
            assert child.poll() is None, "child finished before it could be killed"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)

        _, entries, _ = RunJournal.read(path)
        assert 0 < len(entries) < len(reference.trials)  # genuinely interrupted

        resumed, stats = _run("hb", "serial", journal=str(path))
        assert stats.resumed > 0 and stats.executed > 0
        # The SlowEvaluator's sleep does not touch the rng, so the child's
        # journal entries are bitwise comparable with the in-process run.
        assert _fingerprint(resumed) == _fingerprint(reference)
        assert resumed.best_config == reference.best_config
        assert resumed.best_score == reference.best_score
