"""Test-only oracle: the per-sample splitter loops, kept verbatim.

``StratifiedKFold.split``, ``stratified_subsample`` and
``GeneralSpecialFolds._stratified_partition`` now assign folds and
members with array operations and may read precomputed member indices.
They are required to return the same indices *and* leave the generator in
the same state as the loops they replaced.  This module is those loops, copied
without edits other than methods becoming functions (``self.``
attributes become arguments) and ``StratifiedKFold.split``'s
``n_splits`` check left to the library (the tests keep ``n_splits <=
n``).  It must never import the code under test; do not "tidy" it.
"""

from typing import List, Optional

import numpy as np


def stratified_kfold_split(n_splits: int, shuffle: bool, random_state, X, y):
    y = np.asarray(y)
    n_samples = len(y)
    if len(X) != n_samples:
        raise ValueError(f"X and y have inconsistent lengths: {len(X)} != {n_samples}")
    rng = np.random.default_rng(random_state)
    fold_of = np.empty(n_samples, dtype=int)
    next_fold = 0
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        if shuffle:
            rng.shuffle(members)
        # Continue the round-robin across classes so small classes do
        # not all land in fold 0.
        for offset, idx in enumerate(members):
            fold_of[idx] = (next_fold + offset) % n_splits
        next_fold = (next_fold + len(members)) % n_splits
    all_indices = np.arange(n_samples)
    for fold in range(n_splits):
        test = all_indices[fold_of == fold]
        train = all_indices[fold_of != fold]
        yield train, test


def stratified_subsample(
    labels: np.ndarray,
    n_select: int,
    rng: Optional[np.random.Generator] = None,
    random_state: Optional[int] = None,
) -> np.ndarray:
    if rng is None:
        rng = np.random.default_rng(random_state)
    labels = np.asarray(labels)
    n_samples = len(labels)
    if not 0 < n_select <= n_samples:
        raise ValueError(f"n_select must be in [1, {n_samples}], got {n_select}")
    classes, counts = np.unique(labels, return_counts=True)
    exact = counts * (n_select / n_samples)
    allocation = np.floor(exact).astype(int)
    # Largest-remainder rounding up to the requested size.
    remainder_order = np.argsort(-(exact - allocation))
    shortfall = n_select - int(allocation.sum())
    for idx in remainder_order:
        if shortfall == 0:
            break
        if allocation[idx] < counts[idx]:
            allocation[idx] += 1
            shortfall -= 1
    # Any residual (possible when some classes saturated) goes anywhere free.
    while shortfall > 0:
        candidates = np.flatnonzero(allocation < counts)
        pick = rng.choice(candidates)
        allocation[pick] += 1
        shortfall -= 1
    selected = []
    for cls, take in zip(classes, allocation):
        if take == 0:
            continue
        members = np.flatnonzero(labels == cls)
        selected.append(rng.choice(members, size=take, replace=False))
    result = np.concatenate(selected) if selected else np.empty(0, dtype=int)
    rng.shuffle(result)
    return result


def stratified_partition(
    positions: np.ndarray, groups: np.ndarray, k: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Split positions into ``k`` group-stratified, size-balanced parts."""
    parts: List[List[int]] = [[] for _ in range(k)]
    member_groups = groups[positions]
    offset = 0
    for group in np.unique(member_groups):
        members = positions[member_groups == group].copy()
        rng.shuffle(members)
        for i, position in enumerate(members):
            parts[(offset + i) % k].append(int(position))
        offset = (offset + len(members)) % k
    return [np.array(sorted(part), dtype=int) for part in parts]
