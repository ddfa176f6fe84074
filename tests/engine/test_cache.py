"""EvaluationCache: lookup semantics, counters, LRU eviction."""

import pytest

from repro.bandit.base import EvaluationResult
from repro.engine import EvaluationCache


def _result(score: float) -> EvaluationResult:
    return EvaluationResult(mean=score, std=0.0, score=score, gamma=50.0)


KEY_A = (("a", 1),)
KEY_B = (("a", 2),)


class TestLookups:
    def test_miss_then_hit(self):
        cache = EvaluationCache()
        assert cache.get(KEY_A, 0.5, 7) is None
        cache.put(KEY_A, 0.5, 7, _result(0.9))
        hit = cache.get(KEY_A, 0.5, 7)
        assert hit is not None and hit.score == 0.9
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_seed_and_budget_are_part_of_the_key(self):
        cache = EvaluationCache()
        cache.put(KEY_A, 0.5, 7, _result(0.9))
        assert cache.get(KEY_A, 0.5, 8) is None  # other seed
        assert cache.get(KEY_A, 0.25, 7) is None  # other budget
        assert cache.get(KEY_B, 0.5, 7) is None  # other config

    def test_budget_normalisation_matches_seed_derivation(self):
        cache = EvaluationCache()
        cache.put(KEY_A, 0.1, 7, _result(0.9))
        assert cache.get(KEY_A, 0.1 + 1e-15, 7) is not None

    def test_hit_rate_zero_when_untouched(self):
        assert EvaluationCache().hit_rate == 0.0


class TestEviction:
    def test_lru_eviction(self):
        cache = EvaluationCache(max_entries=2)
        cache.put(KEY_A, 0.5, 1, _result(0.1))
        cache.put(KEY_A, 0.5, 2, _result(0.2))
        cache.get(KEY_A, 0.5, 1)  # touch 1 -> 2 becomes LRU
        cache.put(KEY_A, 0.5, 3, _result(0.3))
        assert cache.get(KEY_A, 0.5, 1) is not None
        assert cache.get(KEY_A, 0.5, 2) is None  # evicted
        assert cache.get(KEY_A, 0.5, 3) is not None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries=0)


class TestThreadSafety:
    """Regression: the cache is shared across repro.serve worker threads.

    Before the lock was added, concurrent put() calls could corrupt the
    OrderedDict mid-move_to_end / mid-evict (lost entries, RuntimeError
    from mutated-during-iteration, or a cache growing past its bound).
    """

    def test_concurrent_mixed_access_keeps_invariants(self):
        import threading

        cache = EvaluationCache(max_entries=64)
        n_threads, n_ops = 8, 400
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            try:
                barrier.wait()
                for i in range(n_ops):
                    key = (("k", (tid * n_ops + i) % 96),)
                    if i % 3 == 0:
                        cache.put(key, 0.5, 7, _result(float(tid)))
                    else:
                        hit = cache.get(key, 0.5, 7)
                        if hit is not None:
                            assert isinstance(hit.score, float)
                    if i % 97 == 0:
                        _ = len(cache), cache.hit_rate
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 64
        # counters saw every operation exactly once
        puts = sum(1 for t in range(n_threads) for i in range(n_ops) if i % 3 == 0)
        gets = n_threads * n_ops - puts
        assert cache.hits + cache.misses == gets

    def test_concurrent_eviction_never_loses_the_hot_key(self):
        import threading

        cache = EvaluationCache(max_entries=4)
        hot = (("hot", 0),)
        cache.put(hot, 0.5, 7, _result(1.0))
        stop = threading.Event()
        misses = []

        def churn(tid):
            i = 0
            while not stop.is_set():
                cache.put((("cold", tid, i),), 0.5, 7, _result(0.0))
                i += 1

        def reader():
            while not stop.is_set():
                if cache.get(hot, 0.5, 7) is None:
                    misses.append(1)
                    cache.put(hot, 0.5, 7, _result(1.0))

        threads = [threading.Thread(target=churn, args=(t,)) for t in range(3)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        # Eviction of the hot key is legal under LRU churn; corruption
        # (exceptions / unbounded growth) is not.
        assert len(cache) <= 4
