"""Shared-memory arena: publish/attach round-trips, integrity, reaping."""

import os
import pickle

import numpy as np
import pytest

from repro.engine import arena as arena_mod
from repro.engine import (
    ArenaError,
    ArenaIntegrityError,
    ArenaRef,
    SharedArena,
    arena_available,
    list_segments,
    reap_stale,
)
from repro.engine.arena import ARENA_PREFIX, attach, detach_all

pytestmark = pytest.mark.skipif(
    not arena_available(), reason="shared memory unavailable on this platform"
)


@pytest.fixture(autouse=True)
def _detach_after():
    yield
    detach_all()


def _segments_of(arena):
    return [name for name in list_segments() if arena._tag in name]


class TestPublishAttach:
    def test_round_trip_preserves_bytes_shape_dtype(self):
        X = np.random.default_rng(0).normal(size=(37, 5))
        with SharedArena() as arena:
            ref = arena.publish("X", X)
            view = attach(ref)
            assert view.shape == X.shape
            assert view.dtype == X.dtype
            np.testing.assert_array_equal(view, X)

    def test_attached_view_is_read_only(self):
        with SharedArena() as arena:
            ref = arena.publish("X", np.arange(6.0))
            view = attach(ref)
            with pytest.raises(ValueError):
                view[0] = 99.0

    def test_ref_is_small_and_picklable(self):
        big = np.zeros((1000, 100))
        with SharedArena() as arena:
            ref = arena.publish("X", big)
            wire = pickle.dumps(ref)
            assert len(wire) < 1000  # vs ~800 kB for the array itself
            clone = pickle.loads(wire)
            np.testing.assert_array_equal(attach(clone), big)

    def test_attach_is_cached_per_process(self):
        with SharedArena() as arena:
            ref = arena.publish("X", np.arange(4.0))
            first = attach(ref)
            second = attach(ref)
            assert first.base is second.base  # same mapped segment

    def test_non_contiguous_input_is_published_contiguously(self):
        base = np.arange(24.0).reshape(4, 6)
        strided = base[:, ::2]
        with SharedArena() as arena:
            ref = arena.publish("X", strided)
            np.testing.assert_array_equal(attach(ref), strided)

    def test_publish_all_returns_ref_per_key(self):
        X, y = np.zeros((3, 2)), np.ones(3)
        with SharedArena() as arena:
            refs = arena.publish_all({"X": X, "y": y})
            assert set(refs) == {"X", "y"}
            np.testing.assert_array_equal(attach(refs["y"]), y)

    def test_segment_name_embeds_owner_pid(self):
        with SharedArena() as arena:
            ref = arena.publish("X", np.arange(3.0))
            assert ref.name.startswith(f"{ARENA_PREFIX}-{os.getpid()}-")


class TestIntegrity:
    def test_attach_missing_segment_raises_arena_error(self):
        ghost = ArenaRef(
            name=f"{ARENA_PREFIX}-{os.getpid()}-deadbeef-X",
            shape=(3,),
            dtype="float64",
            digest="0" * 32,
            nbytes=24,
        )
        with pytest.raises(ArenaError):
            attach(ghost)

    def test_digest_mismatch_raises_integrity_error(self):
        with SharedArena() as arena:
            ref = arena.publish("X", np.arange(5.0))
            tampered = ArenaRef(
                name=ref.name,
                shape=ref.shape,
                dtype=ref.dtype,
                digest="f" * 32,
                nbytes=ref.nbytes,
            )
            with pytest.raises(ArenaIntegrityError):
                attach(tampered)

    def test_undersized_segment_raises_integrity_error(self):
        with SharedArena() as arena:
            ref = arena.publish("X", np.arange(5.0))
            inflated = ArenaRef(
                name=ref.name,
                shape=(1000, 1000),
                dtype=ref.dtype,
                digest=ref.digest,
                nbytes=8_000_000,
            )
            with pytest.raises(ArenaIntegrityError):
                attach(inflated)


class TestLifecycle:
    def test_close_unlinks_all_segments(self):
        arena = SharedArena()
        arena.publish("X", np.zeros(10))
        arena.publish("y", np.zeros(10))
        assert len(_segments_of(arena)) == 2
        arena.close()
        assert _segments_of(arena) == []
        arena.close()  # idempotent

    def test_publish_all_unlinks_everything_on_partial_failure(self):
        class Unpublishable:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("cannot materialize")

        arena = SharedArena()
        with pytest.raises(Exception):
            arena.publish_all({"X": np.zeros(5), "y": Unpublishable()})
        assert _segments_of(arena) == []

    def test_reap_stale_removes_dead_owner_segments(self, monkeypatch):
        arena = SharedArena()
        ref = arena.publish("X", np.arange(8.0))
        # Disguise the live segment as belonging to a dead process.
        monkeypatch.setattr(arena_mod, "_pid_alive", lambda pid: False)
        monkeypatch.setattr(arena_mod.os, "getpid", lambda: 1)
        reaped = reap_stale()
        assert ref.name in reaped
        monkeypatch.undo()
        assert ref.name not in list_segments()
        arena._segments.clear()  # already unlinked; avoid double-free noise

    def test_reap_stale_skips_live_owner_segments(self):
        with SharedArena() as arena:
            ref = arena.publish("X", np.arange(8.0))
            assert reap_stale() == []
            assert ref.name in list_segments()


class TestExecutorTransport:
    """ParallelExecutor publishes the dataset once and workers attach it."""

    @staticmethod
    def _evaluator():
        from repro.core.evaluator import MLPModelFactory, vanilla_evaluator

        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 6))
        y = (X @ rng.normal(size=6) > 0).astype(int)
        return vanilla_evaluator(
            X, y, MLPModelFactory(task="classification", max_iter=5), task="classification"
        )

    @staticmethod
    def _run(executor):
        from repro.engine import TrialEngine, TrialRequest

        evaluator = TestExecutorTransport._evaluator()
        scores, pool = [], {}
        with TrialEngine(executor=executor) as engine:
            engine.bind(evaluator, root_seed=7)
            for trial_id in range(3):
                engine.submit(
                    TrialRequest(
                        config={"learning_rate_init": 1e-3, "alpha": 10.0 ** -(trial_id + 2)},
                        budget_fraction=0.5,
                        trial_id=trial_id,
                        seed=41 + trial_id,
                    )
                )
            while engine.pending():
                outcome = engine.wait_one()
                scores.append((outcome.request.trial_id, outcome.result.score))
            if hasattr(executor, "pool_stats"):
                pool = executor.pool_stats()
        return sorted(scores), pool

    def test_default_pool_publishes_and_equals_serial(self):
        from repro.engine import ParallelExecutor, SerialExecutor

        serial, _ = self._run(SerialExecutor())
        pooled, pool = self._run(ParallelExecutor(n_workers=2))
        assert pooled == serial
        assert pool["arena"] == 1
        assert list_segments() == []  # shutdown unlinked everything

    def test_pickle_fallback_without_shared_memory_equals_serial(self, monkeypatch):
        from repro.engine import ParallelExecutor, SerialExecutor
        from repro.engine import executors

        serial, _ = self._run(SerialExecutor())
        monkeypatch.setattr(executors, "arena_available", lambda: False)
        pooled, pool = self._run(ParallelExecutor(n_workers=2))
        assert pooled == serial
        assert pool["arena"] == 0
        assert list_segments() == []

    @pytest.mark.parametrize("transport", ["auto", "pickle", "carrier-pigeon"])
    def test_only_arena_transport_accepted(self, transport):
        from repro.engine import ParallelExecutor

        with pytest.raises(ValueError):
            ParallelExecutor(n_workers=2, transport=transport)
