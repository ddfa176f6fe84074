"""Memoization of evaluation results across rungs, brackets and searches.

HyperBand-family searchers re-evaluate the same configuration at the same
budget surprisingly often: a finite candidate pool is cycled across
brackets, duplicate survivors reach the next rung twice, and repeated
``fit()`` calls re-run whole schedules.  Because the engine derives every
trial's seed from ``(config, budget, attempt)`` — see
:func:`~repro.engine.protocol.derive_seed` — a repeated pair would
recompute *exactly* the same result, so serving it from memory is
behaviour-preserving, not an approximation.

:class:`EvaluationCache` is a small LRU keyed by
``(config_key, budget_fraction, seed)`` with hit/miss counters that the
CLI and the benchmark report as a hit rate.

The cache is **thread-safe**: every operation (lookup, store, clear,
length) holds an internal :class:`threading.RLock`, and LRU eviction
happens atomically inside :meth:`EvaluationCache.put`.  This is what lets
the multi-tenant service daemon (:mod:`repro.serve`) hand one
process-lifetime cache to many concurrently-running
:class:`~repro.engine.core.TrialEngine` instances so overlapping jobs
share each other's warm results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from .protocol import EvaluationResult

__all__ = ["EvaluationCache"]


def _normalise_budget(budget_fraction: float) -> float:
    """Round the budget the same way seed derivation does."""
    return round(float(budget_fraction), 12)


class EvaluationCache:
    """LRU map ``(config_key, budget_fraction, seed) -> EvaluationResult``.

    Parameters
    ----------
    max_entries:
        Optional capacity; the least-recently-used entry is evicted once
        the cache grows past it.  ``None`` (default) means unbounded,
        which is appropriate for single-search lifetimes where the number
        of distinct (config, budget) pairs is modest.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, EvaluationResult]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of stored results."""
        with self._lock:
            return len(self._entries)

    @staticmethod
    def make_key(
        config_key: Tuple,
        budget_fraction: float,
        seed: int,
        warm_source: Optional[float] = None,
    ) -> Tuple:
        """The exact lookup key used by :meth:`get` and :meth:`put`.

        ``warm_source`` — the donor budget of a warm-started trial — adds a
        fourth element when present, so a warm evaluation (whose result
        depends on the lower-rung parameters it resumed from) never aliases
        the cold evaluation of the same ``(config, budget, seed)``.  Cold
        keys stay 3-tuples, keeping existing journals and tests valid.
        """
        key = (config_key, _normalise_budget(budget_fraction), int(seed))
        if warm_source is not None:
            key = key + (_normalise_budget(warm_source),)
        return key

    def get(
        self,
        config_key: Tuple,
        budget_fraction: float,
        seed: int,
        warm_source: Optional[float] = None,
    ) -> Optional[EvaluationResult]:
        """Return the memoized result or ``None``, updating hit/miss counts."""
        key = self.make_key(config_key, budget_fraction, seed, warm_source)
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(
        self,
        config_key: Tuple,
        budget_fraction: float,
        seed: int,
        result: EvaluationResult,
        warm_source: Optional[float] = None,
    ) -> None:
        """Store ``result``, evicting the LRU entry when over capacity."""
        key = self.make_key(config_key, budget_fraction, seed, warm_source)
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            if self.max_entries is not None and len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 when never queried)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
