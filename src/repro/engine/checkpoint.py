"""Cross-rung warm-start checkpoints: reuse training work across budgets.

HyperBand-family searchers re-train every promoted survivor from scratch
at the next rung's larger subset, throwing away the lower-rung fit.
Iterative-deepening variants (Brandt et al., 2023) show that resuming
from previous work preserves the bandit guarantees; this module supplies
the storage half of that idea:

- :class:`FoldCheckpoint` — the per-fold trained parameters of one
  evaluation (one entry per CV fold);
- :class:`CheckpointStore` — an LRU-bounded in-memory map, keyed by
  ``(configuration key, budget fraction)``, with an optional write-through
  **spill directory** that makes checkpoints durable (required when warm
  starting is combined with journal resume — replayed trials never
  execute, so only the spill can repopulate their checkpoints).  The
  spill's unit is the **segment**: one file per commit — a whole rung
  from ``run_batch``, one entry for a lone settled trial;
- :func:`attach_checkpoints` / :func:`detach_checkpoints` — transport of
  captured fold states on an
  :class:`~repro.engine.protocol.EvaluationResult`, mirroring the telemetry
  payload pattern: the states ride the instance ``__dict__`` (surviving
  the worker pipe's pickle) and the engine strips them in ``_settle``
  before the result reaches the cache, the journal or the searcher.

Warm-start selection (:meth:`CheckpointStore.best_source`) is the
*largest stored budget strictly below* the requested one — deterministic
for rung-barrier searchers because the store's content at submit time is
a pure function of the completed rungs, which is what keeps the
serial == parallel bitwise invariant intact among warm-start runs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..faults.points import fault_point
from .durability import atomic_publish

__all__ = [
    "CHECKPOINT_ATTR",
    "CheckpointStore",
    "FoldCheckpoint",
    "attach_checkpoints",
    "detach_checkpoints",
]

#: Attribute name carrying captured fold states on an EvaluationResult.
CHECKPOINT_ATTR = "_checkpoints"

#: Spill-segment suffix.  A segment is ``pickle(directory)`` followed by one
#: pickle per entry; ``directory`` lists ``((digest, budget), offset)`` with
#: offsets counted from its own end, so a scan reads only the directory and
#: a load seeks straight to its entry.
_SEGMENT_SUFFIX = ".seg"

#: One-entry-per-file spills (``<digest>_<budget>.ckpt``, a bare pickle) of
#: versions before segments: still read, never written.
_LEGACY_SUFFIX = ".ckpt"


def _normalise_budget(budget_fraction: float) -> float:
    """Round the budget the same way seed derivation and the cache do."""
    return round(float(budget_fraction), 12)


def _config_digest(config_key: Tuple) -> str:
    """Stable filename-safe digest of a configuration key."""
    return hashlib.blake2b(repr(config_key).encode("utf-8"), digest_size=10).hexdigest()


class FoldCheckpoint:
    """Trained parameters of one fold's model, ready to warm-start a refit.

    Attributes
    ----------
    layer_units:
        The network's layer widths (input, hidden..., output); recorded
        for inspection — warm-start compatibility is decided purely from
        the coefficient shapes (see
        :func:`repro.learners.mlp.warm_start_matches`).
    coefs, intercepts:
        Per-layer weight matrices and bias vectors (final values, i.e.
        after any early-stopping best-parameter restore).
    """

    __slots__ = ("layer_units", "coefs", "intercepts")

    def __init__(
        self,
        coefs: Sequence[np.ndarray],
        intercepts: Sequence[np.ndarray],
        layer_units: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.coefs = [np.asarray(c, dtype=float) for c in coefs]
        self.intercepts = [np.asarray(b, dtype=float).ravel() for b in intercepts]
        if layer_units is None and self.coefs:
            layer_units = (self.coefs[0].shape[0], *(c.shape[1] for c in self.coefs))
        self.layer_units = tuple(layer_units) if layer_units is not None else ()

    @classmethod
    def from_model(cls, model) -> Optional["FoldCheckpoint"]:
        """Capture a fitted MLP's parameters; ``None`` for non-MLP models."""
        coefs = getattr(model, "coefs_", None)
        intercepts = getattr(model, "intercepts_", None)
        if coefs is None or intercepts is None:
            return None
        return cls(coefs, intercepts)

    def __getstate__(self):
        return (self.layer_units, self.coefs, self.intercepts)

    def __setstate__(self, state):
        self.layer_units, self.coefs, self.intercepts = state


def attach_checkpoints(result, fold_states: List[Optional[FoldCheckpoint]]) -> None:
    """Hang captured fold states onto a result for transport to the engine."""
    result.__dict__[CHECKPOINT_ATTR] = fold_states


def detach_checkpoints(result) -> Optional[List[Optional[FoldCheckpoint]]]:
    """Remove and return the fold states a worker attached, if any."""
    if result is None:
        return None
    return result.__dict__.pop(CHECKPOINT_ATTR, None)


class CheckpointStore:
    """LRU-bounded map ``(config_key, budget) -> per-fold checkpoints``.

    Parameters
    ----------
    max_entries:
        In-memory capacity; the least-recently-used entry is dropped once
        exceeded.  With a spill directory an evicted entry remains
        loadable from disk; without one it is gone (a later
        :meth:`best_source` then falls back to the next-best budget —
        still deterministic, but a smaller reuse win; size the store to
        the rung width to avoid this).
    spill_dir:
        Optional directory receiving a write-through segment file per
        commit.  Existing segments (and per-entry files left by older
        versions) are indexed at construction, so a fresh store over an
        old directory resumes with every previously persisted checkpoint
        available — the property journal resume relies on.

    Notes
    -----
    The store is thread-safe (all operations hold an internal
    :class:`threading.RLock`), and segments are published through
    :func:`~repro.engine.durability.atomic_publish` to a name no other
    commit ever uses, so neither a crash nor a concurrent writer can
    expose a torn segment, and the later of two commits storing the same
    key wins.  Staged entries live in the caller's batch, not in the
    store.  All of it is load-bearing for the multi-tenant service daemon
    (:mod:`repro.serve`), which shares one store across
    concurrently-running jobs.
    """

    def __init__(
        self,
        max_entries: int = 256,
        spill_dir: Union[str, Path, None] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, List[Optional[FoldCheckpoint]]]" = OrderedDict()
        #: ``config digest -> {budget: (file, offset of the entry's pickle)}``
        #: for everything on disk.
        self._spill_index: Dict[str, Dict[float, Tuple[Path, int]]] = {}
        #: Sequence number of the newest segment seen or written; segment
        #: names lead with it so a name sort is a commit-order sort.
        self._last_segment = 0
        #: ``config digest -> sorted budgets`` across memory and spill.
        self._budgets: Dict[str, List[float]] = {}
        self.stores = 0
        self.spill_loads = 0
        #: Spill writes that failed (disk full, permissions); the entry
        #: stays served from memory and the store keeps working.
        self.spill_errors = 0
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            self._scan_spill()

    @property
    def durable(self) -> bool:
        """Whether entries survive process restarts (spill directory set)."""
        return self.spill_dir is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals ------------------------------------------------------------

    def _scan_spill(self) -> None:
        """Index legacy files, then segments in commit order: newest wins."""
        for path in sorted(self.spill_dir.glob(f"*{_LEGACY_SUFFIX}")):
            digest, _, raw_budget = path.stem.rpartition("_")
            try:
                self._index(digest, float(raw_budget), path, 0)
            except ValueError:
                continue
        for path in sorted(self.spill_dir.glob(f"*{_SEGMENT_SUFFIX}")):
            try:
                with path.open("rb") as handle:
                    directory = pickle.load(handle)
                    base = handle.tell()
                self._last_segment = max(self._last_segment, int(path.name.split("-")[0]))
            except (OSError, pickle.UnpicklingError, EOFError, ValueError):
                continue
            for (digest, budget), offset in directory:
                self._index(digest, budget, path, base + offset)

    def _index(self, digest: str, budget: float, path: Path, offset: int) -> None:
        self._spill_index.setdefault(digest, {})[budget] = (path, offset)
        self._register_budget(digest, budget)

    def _register_budget(self, digest: str, budget: float) -> None:
        budgets = self._budgets.setdefault(digest, [])
        if budget not in budgets:
            budgets.append(budget)
            budgets.sort()

    def _write_segment(self, batch: list) -> None:
        """Publish one segment holding ``batch`` and index its entries.

        Through :func:`~repro.engine.durability.atomic_publish`: the name
        is durable only after its contents are, and never exposes a torn
        file.
        """
        keys = [key for key, _ in batch]
        blobs = [pickle.dumps(states, protocol=pickle.HIGHEST_PROTOCOL) for _, states in batch]
        offsets = list(itertools.accumulate(map(len, blobs), initial=0))
        directory = pickle.dumps(list(zip(keys, offsets)), protocol=pickle.HIGHEST_PROTOCOL)
        # The random infix keeps names unique across stores sharing the
        # directory (another process, a resumed run).
        path = self.spill_dir / (
            f"{self._last_segment + 1:08d}-{os.urandom(6).hex()}{_SEGMENT_SUFFIX}"
        )

        def write(handle) -> None:
            handle.write(directory)
            handle.writelines(blobs)

        atomic_publish(path, write, "checkpoint.segment")
        self._last_segment += 1
        for (digest, budget), offset in zip(keys, offsets):
            self._index(digest, budget, path, len(directory) + offset)

    # -- protocol --------------------------------------------------------------

    def put(
        self,
        config_key: Tuple,
        budget_fraction: float,
        fold_states: List[Optional[FoldCheckpoint]],
        batch: list,
    ) -> None:
        """Stage one evaluation's per-fold states into ``batch``.

        ``batch`` is a list the caller owns; the entry is invisible to
        every reader until :meth:`commit` publishes the whole batch as
        one segment (write-through to the spill).
        """
        if not fold_states or all(state is None for state in fold_states):
            return
        fault_point("checkpoint.put.pre")
        key = (_config_digest(config_key), _normalise_budget(budget_fraction))
        batch.append((key, fold_states))

    def commit(self, batch: list) -> bool:
        """Publish staged entries: one spill segment, then the memory map.

        Returns whether a segment was written.  A failed write (disk
        full, permissions) degrades the batch to memory-only rather than
        failing its trials: nothing is indexed, so readers never see a
        phantom path, and durability resumes with the next commit.
        """
        if not batch:
            return False
        with self._lock:
            spilled = self.spill_dir is not None
            if spilled:
                try:
                    self._write_segment(batch)
                except OSError:
                    self.spill_errors += 1
                    spilled = False
            for key, fold_states in batch:
                self._remember(key, fold_states)
                self._register_budget(*key)
                self.stores += 1
            return spilled

    def _remember(self, key: Tuple, fold_states) -> None:
        """Insert into the memory map as most recent, evicting the oldest."""
        self._entries[key] = fold_states
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            (digest, budget), _ = self._entries.popitem(last=False)
            if self.spill_dir is None and budget in self._budgets.get(digest, []):
                # Without a spill the budget is genuinely gone; keep the
                # budget index honest so best_source never dangles.
                self._budgets[digest].remove(budget)

    def get(
        self, config_key: Tuple, budget_fraction: float
    ) -> Optional[List[Optional[FoldCheckpoint]]]:
        """The stored states for an exact ``(config, budget)``, or ``None``."""
        budget = _normalise_budget(budget_fraction)
        digest = _config_digest(config_key)
        key = (digest, budget)
        with self._lock:
            states = self._entries.get(key)
            if states is not None:
                self._entries.move_to_end(key)
                return states
            located = self._spill_index.get(digest, {}).get(budget)
            if located is None:
                return None
            path, offset = located
            fault_point("checkpoint.load.pre", path=str(path))
            try:
                with path.open("rb") as handle:
                    handle.seek(offset)
                    states = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError):
                return None
            self.spill_loads += 1
            self._remember(key, states)
            return states

    def best_source(
        self, config_key: Tuple, budget_fraction: float
    ) -> Optional[Tuple[float, List[Optional[FoldCheckpoint]]]]:
        """Donor for a warm start: largest stored budget strictly below.

        Returns ``(source_budget, fold_states)`` or ``None`` when the
        configuration has no lower-budget checkpoint.
        """
        budget = _normalise_budget(budget_fraction)
        digest = _config_digest(config_key)
        with self._lock:
            for candidate in reversed(list(self._budgets.get(digest, []))):
                if candidate < budget:
                    states = self.get(config_key, candidate)
                    if states is not None:
                        return candidate, states
            return None

    def clear(self) -> None:
        """Drop the in-memory entries (spill segments are left untouched)."""
        with self._lock:
            self._entries.clear()
            if self.spill_dir is None:
                self._budgets.clear()
            else:
                self._budgets = {
                    digest: sorted(index) for digest, index in self._spill_index.items()
                }
