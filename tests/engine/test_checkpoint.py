"""CheckpointStore + FoldCheckpoint: storage semantics for warm starting.

The store's contract matters for two engine invariants: ``best_source``
must be a pure function of what has been stored (warm determinism), and
a spill directory must make every stored entry recoverable by a fresh
store instance (journal-resume compatibility).
"""

import pickle

import numpy as np
import pytest

from repro.bandit.base import EvaluationResult
from repro.engine.checkpoint import CheckpointStore, FoldCheckpoint

KEY_A = (("alpha", 0.001), ("units", 16))
KEY_B = (("alpha", 0.01), ("units", 32))

#: More entries than a spill-backed store keeps in memory (256).
N_PAST_BOUND = 300


def ckpt(seed=0, shape=(4, 3)):
    r = np.random.default_rng(seed)
    return FoldCheckpoint([r.normal(size=shape)], [r.normal(size=shape[1])])


def states(seed=0, n_folds=2):
    return [ckpt(seed + f) for f in range(n_folds)]


def _store(store, key, budget, fold_states):
    """Stage one entry and commit it as its own segment."""
    batch = []
    store.put(key, budget, fold_states, batch)
    return store.commit(batch)


def same_states(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is None or y is None:
            assert x is y
            continue
        assert x.layer_units == y.layer_units
        for cx, cy in zip(x.coefs, y.coefs):
            assert np.array_equal(cx, cy)
        for ix, iy in zip(x.intercepts, y.intercepts):
            assert np.array_equal(ix, iy)


class TestFoldCheckpoint:
    def test_layer_units_inferred_from_coef_shapes(self):
        r = np.random.default_rng(0)
        fc = FoldCheckpoint([r.normal(size=(6, 8)), r.normal(size=(8, 2))], [np.zeros(8), np.zeros(2)])
        assert fc.layer_units == (6, 8, 2)

    def test_from_model_requires_fitted_mlp_attributes(self):
        class Fitted:
            coefs_ = [np.ones((2, 3))]
            intercepts_ = [np.zeros(3)]

        fc = FoldCheckpoint.from_model(Fitted())
        assert fc is not None and fc.layer_units == (2, 3)
        assert FoldCheckpoint.from_model(object()) is None

    def test_pickle_round_trip(self):
        fc = ckpt(3)
        clone = pickle.loads(pickle.dumps(fc))
        same_states([fc], [clone])


class TestFoldStatesField:
    """Captured states are a declared result field that only the pipe carries."""

    def test_field_crosses_pickle_but_not_the_codec(self):
        plain = EvaluationResult(mean=0.5, std=0.0, score=0.5, gamma=10.0)
        result = EvaluationResult(mean=0.5, std=0.0, score=0.5, gamma=10.0)
        result.fold_states = states(1)
        same_states(pickle.loads(pickle.dumps(result)).fold_states, result.fold_states)
        assert result.to_dict() == plain.to_dict()
        assert "fold_states" not in result.to_dict()
        assert EvaluationResult.from_dict(result.to_dict()).fold_states is None

    def test_field_takes_no_part_in_equality_or_repr(self):
        plain = EvaluationResult(mean=0.5, std=0.0, score=0.5, gamma=10.0)
        result = EvaluationResult(mean=0.5, std=0.0, score=0.5, gamma=10.0)
        result.fold_states = states(1)
        assert result == plain
        assert repr(result) == repr(plain)


class TestStoreBasics:
    def test_put_get_exact_key(self):
        store = CheckpointStore()
        payload = states(0)
        _store(store, KEY_A, 0.25, payload)
        assert store.get(KEY_A, 0.25) is payload
        assert store.get(KEY_A, 0.5) is None
        assert store.get(KEY_B, 0.25) is None
        assert store.stores == 1

    def test_budget_normalisation_matches_cache(self):
        store = CheckpointStore()
        _store(store, KEY_A, 0.1, states(0))
        assert store.get(KEY_A, 0.1 + 1e-15) is not None

    def test_all_none_states_are_not_stored(self):
        store = CheckpointStore()
        _store(store, KEY_A, 0.25, [None, None])
        _store(store, KEY_A, 0.25, [])
        assert len(store) == 0 and store.stores == 0

    def test_not_durable_without_spill(self, tmp_path):
        assert not CheckpointStore().durable
        assert CheckpointStore(spill_dir=tmp_path / "ck").durable


class TestBestSource:
    def test_largest_budget_strictly_below(self):
        store = CheckpointStore()
        low, mid = states(1), states(2)
        _store(store, KEY_A, 0.1, low)
        _store(store, KEY_A, 0.3, mid)
        budget, got = store.best_source(KEY_A, 0.9)
        assert budget == 0.3 and got is mid
        budget, got = store.best_source(KEY_A, 0.3)  # strictly below: skips 0.3
        assert budget == 0.1 and got is low
        assert store.best_source(KEY_A, 0.1) is None
        assert store.best_source(KEY_B, 0.9) is None

    def test_memory_only_store_keeps_every_budget(self):
        # 300 entries outgrow a spill-backed store's memory bound; without
        # a spill the map is the only copy, so none may leave it.
        store = CheckpointStore()
        payloads = [states(i, n_folds=1) for i in range(N_PAST_BOUND)]
        for i, payload in enumerate(payloads):
            _store(store, KEY_A, (i + 1) / 1000, payload)
        assert len(store) == N_PAST_BOUND
        for i in range(1, N_PAST_BOUND):
            budget, got = store.best_source(KEY_A, (i + 1) / 1000)
            assert budget == i / 1000 and got is payloads[i - 1]

    def test_lru_eviction_with_spill_keeps_the_budget_loadable(self, tmp_path):
        store = CheckpointStore(spill_dir=tmp_path / "ck")
        for i in range(N_PAST_BOUND):
            _store(store, KEY_A, (i + 1) / 1000, states(i, n_folds=1))
        assert len(store) < N_PAST_BOUND  # the oldest left memory only
        budget, got = store.best_source(KEY_A, 0.0015)
        assert budget == 0.001
        same_states(got, states(0, n_folds=1))
        assert store.spill_loads == 1


class TestSpill:
    def test_fresh_store_rescans_spill_directory(self, tmp_path):
        spill = tmp_path / "ck"
        first = CheckpointStore(spill_dir=spill)
        _store(first, KEY_A, 0.25, states(7))
        _store(first, KEY_B, 0.5, states(8))

        second = CheckpointStore(spill_dir=spill)
        assert len(second) == 0  # nothing in memory yet
        same_states(second.get(KEY_A, 0.25), states(7))
        budget, got = second.best_source(KEY_B, 0.9)
        assert budget == 0.5
        same_states(got, states(8))

    def test_corrupt_spill_file_is_ignored(self, tmp_path):
        spill = tmp_path / "ck"
        store = CheckpointStore(spill_dir=spill)
        _store(store, KEY_A, 0.25, states(0))
        path = next(spill.glob("*.seg"))
        path.write_bytes(b"not a pickle")
        fresh = CheckpointStore(spill_dir=spill)
        assert fresh.get(KEY_A, 0.25) is None

    def test_entry_corrupted_after_indexing_is_ignored(self, tmp_path):
        spill = tmp_path / "ck"
        _store(CheckpointStore(spill_dir=spill), KEY_A, 0.25, states(0))
        fresh = CheckpointStore(spill_dir=spill)  # directory read, entry not yet
        path = next(spill.glob("*.seg"))
        path.write_bytes(path.read_bytes()[:-20])
        assert fresh.get(KEY_A, 0.25) is None

    def test_foreign_files_in_spill_dir_are_skipped(self, tmp_path):
        spill = tmp_path / "ck"
        spill.mkdir()
        (spill / "README.ckpt").write_text("nope")
        (spill / "abc_notafloat.ckpt").write_text("nope")
        store = CheckpointStore(spill_dir=spill)
        assert len(store) == 0 and store.best_source(KEY_A, 1.0) is None


class TestSegments:
    """One spill segment per commit; staged entries are the caller's, not the store's."""

    def test_batch_commits_as_one_segment(self, tmp_path):
        spill = tmp_path / "ck"
        store = CheckpointStore(spill_dir=spill)
        batch = []
        for seed in range(5):
            store.put(KEY_A, 0.1 * (seed + 1), states(seed), batch)
        # Staged only: no file, nothing in memory, no donor on offer.
        assert list(spill.iterdir()) == [] and len(store) == 0
        assert store.best_source(KEY_A, 0.9) is None
        assert store.commit(batch) is True
        assert len(list(spill.glob("*.seg"))) == 1 and store.stores == 5
        fresh = CheckpointStore(spill_dir=spill)
        for seed in range(5):
            same_states(fresh.get(KEY_A, 0.1 * (seed + 1)), states(seed))
        assert fresh.spill_loads == 5

    def test_empty_commit_writes_nothing(self, tmp_path):
        store = CheckpointStore(spill_dir=tmp_path / "ck")
        assert store.commit([]) is False
        assert list((tmp_path / "ck").iterdir()) == []

    def test_memory_only_store_commits_without_a_segment(self):
        store = CheckpointStore()
        batch = []
        store.put(KEY_A, 0.25, states(1), batch)
        assert store.get(KEY_A, 0.25) is None
        assert store.commit(batch) is False
        same_states(store.get(KEY_A, 0.25), states(1))

    def test_segment_names_stay_unique_and_ordered_across_reopens(self, tmp_path):
        spill = tmp_path / "ck"
        for generation in range(3):  # each reopen models a resumed run
            store = CheckpointStore(spill_dir=spill)
            _store(store, KEY_A, 0.25, states(generation))
            _store(store, KEY_B, 0.5, states(10 + generation))
        names = sorted(path.name for path in spill.glob("*.seg"))
        assert len(names) == 6
        assert [int(name.split("-")[0]) for name in names] == [1, 2, 3, 4, 5, 6]
        fresh = CheckpointStore(spill_dir=spill)
        same_states(fresh.get(KEY_A, 0.25), states(2))  # newest segment wins
        same_states(fresh.get(KEY_B, 0.5), states(12))

    def test_two_stores_over_one_directory_never_collide(self, tmp_path):
        spill = tmp_path / "ck"
        first, second = CheckpointStore(spill_dir=spill), CheckpointStore(spill_dir=spill)
        _store(first, KEY_A, 0.25, states(1))
        _store(second, KEY_B, 0.25, states(2))  # same sequence number, distinct name
        assert len(list(spill.glob("*.seg"))) == 2
        fresh = CheckpointStore(spill_dir=spill)
        same_states(fresh.get(KEY_A, 0.25), states(1))
        same_states(fresh.get(KEY_B, 0.25), states(2))


class TestLegacySpill:
    """Per-entry ``.ckpt`` files of older versions are indexed, never ignored.

    Skipping them would silently cold-start the trials of a resumed warm
    run whose donors they hold, breaking the bitwise resume contract.
    """

    @staticmethod
    def _legacy_file(spill, key, budget, fold_states):
        from repro.engine.checkpoint import _config_digest

        spill.mkdir(parents=True, exist_ok=True)
        path = spill / f"{_config_digest(key)}_{budget:.12f}.ckpt"
        path.write_bytes(pickle.dumps(fold_states, protocol=pickle.HIGHEST_PROTOCOL))

    def test_legacy_entries_serve_as_donors(self, tmp_path):
        spill = tmp_path / "ck"
        self._legacy_file(spill, KEY_A, 0.25, states(3))
        store = CheckpointStore(spill_dir=spill)
        budget, got = store.best_source(KEY_A, 0.9)
        assert budget == 0.25
        same_states(got, states(3))

    def test_segment_overrides_legacy_entry_of_the_same_key(self, tmp_path):
        spill = tmp_path / "ck"
        self._legacy_file(spill, KEY_A, 0.25, states(3))
        _store(CheckpointStore(spill_dir=spill), KEY_A, 0.25, states(4))
        same_states(CheckpointStore(spill_dir=spill).get(KEY_A, 0.25), states(4))


class TestAtomicSpill:
    """Segments are written temp-then-rename: never torn, never partial."""

    def test_no_tmp_files_left_after_puts(self, tmp_path):
        store = CheckpointStore(spill_dir=tmp_path / "ck")
        for seed in range(5):
            _store(store, KEY_A, 0.1 * (seed + 1), states(seed))
        leftovers = list((tmp_path / "ck").glob("*.tmp"))
        assert leftovers == []
        assert len(list((tmp_path / "ck").glob("*.seg"))) == 5

    def test_overwrite_is_atomic_replace(self, tmp_path):
        store = CheckpointStore(spill_dir=tmp_path / "ck")
        _store(store, KEY_A, 0.25, states(1))
        _store(store, KEY_A, 0.25, states(2))  # same key+budget -> the later segment wins
        fresh = CheckpointStore(spill_dir=tmp_path / "ck")
        _, got = fresh.best_source(KEY_A, 0.9)
        same_states(got, states(2))

    def test_interrupted_write_leaves_previous_spill_intact(self, tmp_path, monkeypatch):
        store = CheckpointStore(spill_dir=tmp_path / "ck")
        _store(store, KEY_A, 0.25, states(7))
        import os

        def exploding_fsync(fd):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(RuntimeError):
            _store(store, KEY_A, 0.25, states(8))
        monkeypatch.undo()
        assert list((tmp_path / "ck").glob("*.tmp")) == []
        fresh = CheckpointStore(spill_dir=tmp_path / "ck")
        _, got = fresh.best_source(KEY_A, 0.9)
        same_states(got, states(7))  # old bytes untouched

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        import threading

        store = CheckpointStore(spill_dir=tmp_path / "ck")
        errors = []

        def writer(tid):
            try:
                for i in range(10):
                    key = ((f"w{tid}", i),)
                    _store(store, key, 0.5, states(tid * 100 + i))
                    assert store.best_source(key, 0.9) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        fresh = CheckpointStore(spill_dir=tmp_path / "ck")
        for tid in range(6):
            for i in range(10):
                budget, got = fresh.best_source(((f"w{tid}", i),), 0.9)
                assert budget == 0.5
                same_states(got, states(tid * 100 + i))


class TestSpillFailure:
    """Disk-full spill writes degrade to memory-only, never fail the trial."""

    def _failing_store(self, tmp_path, monkeypatch):
        store = CheckpointStore(spill_dir=tmp_path / "ck")
        monkeypatch.setattr(
            CheckpointStore,
            "_write_segment",
            lambda self, batch: (_ for _ in ()).throw(OSError(28, "No space left on device")),
        )
        return store

    def test_put_survives_enospc_and_serves_from_memory(self, tmp_path, monkeypatch):
        store = self._failing_store(tmp_path, monkeypatch)
        _store(store, (("a", 1),), 0.5, states(1))
        assert store.spill_errors == 1
        same_states(store.get((("a", 1),), 0.5), states(1))
        # the spill index holds no phantom path for the failed write
        assert store._spill_index == {}

    def test_entry_whose_segment_failed_is_never_evicted(self, tmp_path, monkeypatch):
        store = CheckpointStore(spill_dir=tmp_path / "ck")
        _store(store, KEY_A, 0.5, states(0))  # on disk: a copy that goes stale
        original = CheckpointStore._write_segment
        failing = {"on": True}

        def first_fails(self, batch):
            if failing.pop("on", False):
                raise OSError(28, "No space left on device")
            original(self, batch)

        monkeypatch.setattr(CheckpointStore, "_write_segment", first_fails)
        _store(store, KEY_A, 0.5, states(1))
        assert store.spill_errors == 1
        for i in range(N_PAST_BOUND):  # push it far past the memory bound
            _store(store, KEY_B, (i + 1) / 1000, states(i, n_folds=1))
        assert store.spill_errors == 1
        budget, got = store.best_source(KEY_A, 0.9)
        assert budget == 0.5
        same_states(got, states(1))
        assert store.spill_loads == 0  # served from memory: it never left

    def test_best_source_skips_dangling_budget(self, tmp_path, monkeypatch):
        store = self._failing_store(tmp_path, monkeypatch)
        _store(store, (("a", 1),), 0.25, states(1))
        _store(store, (("a", 1),), 0.5, states(2))
        budget, got = store.best_source((("a", 1),), 0.9)
        assert budget == 0.5
        same_states(got, states(2))

    def test_durability_resumes_after_recovery(self, tmp_path, monkeypatch):
        store = CheckpointStore(spill_dir=tmp_path / "ck")
        original = CheckpointStore._write_segment
        broken = {"on": True}

        def flaky(self, batch):
            if broken["on"]:
                raise OSError(28, "No space left on device")
            original(self, batch)

        monkeypatch.setattr(CheckpointStore, "_write_segment", flaky)
        _store(store, (("a", 1),), 0.25, states(1))
        assert store.spill_errors == 1
        broken["on"] = False
        _store(store, (("a", 1),), 0.5, states(2))
        fresh = CheckpointStore(spill_dir=tmp_path / "ck")
        budget, got = fresh.best_source((("a", 1),), 0.9)
        assert budget == 0.5  # only the post-recovery entry is durable
        same_states(got, states(2))
