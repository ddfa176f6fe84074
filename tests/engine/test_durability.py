"""Directory fsync after atomic renames: the publish must be pinned.

``os.replace`` makes the rename atomic but does not make the new
directory entry durable — power loss can still reorder it away.  Both
durable writers (registry job records, checkpoint spills) publish through
``atomic_publish``, which fsyncs the parent directory right after the
rename; these tests pin that call without needing to actually cut the
power.  The last test pins the
whole rung-commit order the same way: segment data fsync, rename,
directory fsync, and only then the journal's write and fsync.
"""

import os

import numpy as np
import pytest

import repro.engine.durability as durability_mod
import repro.serve.registry as registry_mod
from repro.engine import SerialExecutor, TrialEngine, TrialRequest
from repro.engine.checkpoint import CheckpointStore, FoldCheckpoint
from repro.engine.durability import fsync_dir

from .test_warm_start import WarmAwareEvaluator  # captures one checkpoint per trial


class TestFsyncDir:
    def test_syncs_a_real_directory(self, tmp_path):
        assert fsync_dir(tmp_path) is True

    def test_is_forgiving_on_missing_paths(self, tmp_path):
        assert fsync_dir(tmp_path / "nope") is False


@pytest.fixture
def dirsyncs(monkeypatch):
    """Record every fsync_dir call ``atomic_publish`` makes."""
    calls = []

    def record(path):
        calls.append(str(path))
        return True

    monkeypatch.setattr(durability_mod, "fsync_dir", record)
    return calls


def test_registry_record_write_syncs_its_directory(tmp_path, dirsyncs):
    target = tmp_path / "jobs" / "j1" / "job.json"
    registry_mod._atomic_write_json(target, {"state": "queued"})
    assert dirsyncs == [str(target.parent)]


def test_checkpoint_spill_syncs_the_spill_directory(tmp_path, dirsyncs):
    store = CheckpointStore(spill_dir=tmp_path / "ckpt")
    state = FoldCheckpoint(coefs=[np.ones((2, 2))], intercepts=[np.zeros(2)])
    batch = []
    store.put(("k",), 0.5, [state], batch)
    store.commit(batch)
    assert dirsyncs == [str(tmp_path / "ckpt")]


def test_a_publish_that_fails_before_its_rename_leaves_the_old_file(tmp_path, arm_fault):
    target = tmp_path / "record.json"
    target.write_bytes(b"old")
    arm_fault("test.publish.pre_replace", "ioerror")
    with pytest.raises(OSError):
        durability_mod.atomic_publish(target, lambda handle: handle.write(b"new"), "test.publish")
    assert target.read_bytes() == b"old"
    assert [path.name for path in tmp_path.iterdir()] == ["record.json"]  # no temp left
    durability_mod.atomic_publish(target, lambda handle: handle.write(b"new"), "test.publish")
    assert target.read_bytes() == b"new"


def test_rung_commit_order_is_data_fsync_replace_dirsync_journal_fsync(tmp_path, monkeypatch):
    """A rung commits once, and nothing becomes durable out of order.

    The segment's *data* must be fsync'd before the rename publishes its
    name (else a power cut leaves a durable name with empty contents),
    the directory after it, and the journal — whose records imply their
    checkpoints are loadable — only after all three.
    """
    engine = TrialEngine(
        executor=SerialExecutor(),
        journal=str(tmp_path / "run.wal"),
        checkpoints=CheckpointStore(spill_dir=tmp_path / "ckpt"),
    )
    engine.bind(WarmAwareEvaluator(), root_seed=0)  # header write happens here, unrecorded

    events = []
    journal_fd = engine.journal._handle.fileno()
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("journal fsync" if fd == journal_fd else "data fsync")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(
        durability_mod, "fsync_dir", lambda path: events.append("dir fsync") or True
    )

    requests = [TrialRequest(config={"q": q}, budget_fraction=0.25) for q in range(4)]
    outcomes = engine.run_batch(requests)
    assert [outcome.journal_seq for outcome in outcomes] == [1, 2, 3, 4]
    assert events == ["data fsync", "replace", "dir fsync", "journal fsync"]
    assert engine.stats.journal_commits == 1 and engine.stats.spill_segments == 1

    # Outside run_batch every settled trial is its own commit, in the same order.
    events.clear()
    engine.submit(TrialRequest(config={"q": 9}, budget_fraction=0.25))
    engine.wait_one()
    assert events == ["data fsync", "replace", "dir fsync", "journal fsync"]
    assert engine.stats.journal_commits == 2 and engine.stats.spill_segments == 2
    engine.shutdown()
