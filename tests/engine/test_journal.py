"""RunJournal unit tests: durability format, torn tails, identity checks."""

import json

import pytest

from repro.bandit.base import EvaluationResult
from repro.engine import (
    JOURNAL_VERSION,
    JournalError,
    RunJournal,
    TrialOutcome,
    TrialRequest,
    space_fingerprint,
)
from repro.engine.journal import replay_key
from repro.space import Categorical, Float, SearchSpace


def _outcome(config, budget=0.5, trial_id=0, seed=7, attempt=0, attempts=1,
             failed=False, error=None, score=0.9):
    request = TrialRequest(
        config=config, budget_fraction=budget, iteration=1, bracket=2,
        trial_id=trial_id, seed=seed, attempt=attempt,
    )
    result = EvaluationResult(
        mean=score, std=0.01, score=score, gamma=100 * budget,
        fold_scores=[score - 0.01, score + 0.01], n_instances=50, cost=0.25,
    )
    return TrialOutcome(request=request, result=result, attempts=attempts,
                        failed=failed, error=error)


def _log(journal, *outcomes):
    """Stage ``outcomes`` as one batch and commit it; returns their sequence numbers."""
    batch = []
    seqs = [journal.append(outcome, batch) for outcome in outcomes]
    journal.commit(batch)
    return seqs


class TestRoundTrip:
    def test_header_then_entries(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            assert journal.open(root_seed=3, metadata={"searcher": "HB"}) == []
            _log(journal, _outcome({"q": 1}, trial_id=0))
            _log(journal, _outcome({"q": 2}, trial_id=1, failed=True,
                                   error="RuntimeError: boom", score=-1e30))
        header, entries, dropped = RunJournal.read(path)
        assert header["version"] == JOURNAL_VERSION
        assert header["root_seed"] == 3
        assert header["metadata"] == {"searcher": "HB"}
        assert dropped == 0
        assert [e.config for e in entries] == [{"q": 1}, {"q": 2}]
        assert entries[0].iteration == 1 and entries[0].bracket == 2
        assert entries[0].result.fold_scores == [0.89, 0.91]
        assert entries[1].failed and "RuntimeError" in entries[1].error

    def test_tuple_configs_survive_json(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0)
            _log(journal, _outcome({"hidden_layer_sizes": (16, 8), "alpha": 1e-4}))
        _, entries, _ = RunJournal.read(path)
        assert entries[0].config == {"hidden_layer_sizes": (16, 8), "alpha": 1e-4}
        assert isinstance(entries[0].config["hidden_layer_sizes"], tuple)

    def test_reopen_replays_and_appends(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0)
            _log(journal, _outcome({"q": 1}))
        with RunJournal(path) as journal:
            replayed = journal.open(root_seed=0)
            assert [e.config for e in replayed] == [{"q": 1}]
            _log(journal, _outcome({"q": 2}, trial_id=1))
        _, entries, _ = RunJournal.read(path)
        assert [e.config for e in entries] == [{"q": 1}, {"q": 2}]

    def test_fsync_off_still_round_trips(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path, fsync=False) as journal:
            journal.open(root_seed=0)
            _log(journal, _outcome({"q": 1}))
        _, entries, _ = RunJournal.read(path)
        assert len(entries) == 1


class TestTornTail:
    def test_partial_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0)
            _log(journal, _outcome({"q": 1}))
            _log(journal, _outcome({"q": 2}, trial_id=1))
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:2]) + lines[2][:10])  # tear mid-record
        header, entries, dropped = RunJournal.read(path)
        assert dropped >= 1
        assert [e.config for e in entries] == [{"q": 1}]

    def test_resume_after_tear_continues(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0)
            _log(journal, _outcome({"q": 1}))
        with path.open("a") as handle:
            handle.write('{"type":"outcome","trunc')  # crash mid-append
        with RunJournal(path) as journal:
            replayed = journal.open(root_seed=0)
            assert [e.config for e in replayed] == [{"q": 1}]
            assert journal.dropped_records == 1
            _log(journal, _outcome({"q": 3}, trial_id=1))
        # The torn fragment was cut off before appending: the new record is
        # not glued onto it, so a second resume sees both records.
        _, entries, dropped = RunJournal.read(path)
        assert [e.config for e in entries] == [{"q": 1}, {"q": 3}] and dropped == 0

    def test_last_record_without_its_newline_is_kept_and_terminated(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0)
            _log(journal, _outcome({"q": 1}))
        path.write_bytes(path.read_bytes()[:-1])  # crash between record and newline
        with RunJournal(path) as journal:
            assert [e.config for e in journal.open(root_seed=0)] == [{"q": 1}]
            _log(journal, _outcome({"q": 2}, trial_id=1))
        _, entries, dropped = RunJournal.read(path)
        assert [e.config for e in entries] == [{"q": 1}, {"q": 2}] and dropped == 0

    def test_batch_is_staged_until_commit_then_one_write(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0)
            size = path.stat().st_size
            batch = []
            seqs = [journal.append(_outcome({"q": q}, trial_id=q), batch) for q in range(3)]
            assert seqs == [1, 2, 3] and path.stat().st_size == size  # staged only
            journal.commit(batch)
            assert _log(journal, _outcome({"q": 9}, trial_id=3)) == [4]  # the next batch
        _, entries, dropped = RunJournal.read(path)
        assert [e.config["q"] for e in entries] == [0, 1, 2, 9] and dropped == 0
        assert [e.seq for e in entries] == [1, 2, 3, 4]


class TestRejection:
    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "run.wal"
        path.write_text('{"type":"outcome"}\n')
        with pytest.raises(JournalError, match="header"):
            RunJournal.read(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "run.wal"
        path.write_text(json.dumps({"type": "header", "version": 99, "root_seed": 0}) + "\n")
        with pytest.raises(JournalError, match="version"):
            RunJournal.read(path)

    def test_root_seed_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0)
        with RunJournal(path) as journal:
            with pytest.raises(JournalError, match="root_seed"):
                journal.open(root_seed=1)

    def test_metadata_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0, metadata={"searcher": "HB", "space": "abc"})
        with RunJournal(path) as journal:
            with pytest.raises(JournalError, match="searcher"):
                journal.open(root_seed=0, metadata={"searcher": "SHA"})

    def test_new_metadata_keys_are_tolerated(self, tmp_path):
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=0, metadata={"searcher": "HB"})
        with RunJournal(path) as journal:
            journal.open(root_seed=0, metadata={"searcher": "HB", "new_field": 1})

    def test_append_before_open_raises(self, tmp_path):
        journal = RunJournal(tmp_path / "run.wal")
        with pytest.raises(JournalError, match="open"):
            journal.append(_outcome({"q": 1}), [])


class TestIdentityHelpers:
    def test_space_fingerprint_is_stable_and_value_sensitive(self):
        a = SearchSpace([Categorical("q", [1, 2]), Float("lr", 1e-4, 1e-1, log=True)])
        b = SearchSpace([Categorical("q", [1, 2]), Float("lr", 1e-4, 1e-1, log=True)])
        c = SearchSpace([Categorical("q", [1, 2, 3]), Float("lr", 1e-4, 1e-1, log=True)])
        assert space_fingerprint(a) == space_fingerprint(b)
        assert space_fingerprint(a) != space_fingerprint(c)

    def test_replay_key_matches_fresh_submission_key(self, tmp_path):
        # The key under which an entry replays must equal the key a fresh
        # attempt-0 submission computes — even when the original trial
        # settled on a retry (attempt > 0).
        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open(root_seed=5)
            _log(journal, _outcome({"q": 1}, budget=0.25, seed=999, attempt=2, attempts=3))
        _, entries, _ = RunJournal.read(path)
        from repro.engine import EvaluationCache, derive_seed
        from repro.space import config_key

        key = config_key({"q": 1})
        expected = EvaluationCache.make_key(key, 0.25, derive_seed(5, key, 0.25, 0))
        assert replay_key(entries[0], 5) == expected
