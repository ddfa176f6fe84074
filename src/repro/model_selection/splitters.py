"""Data splitting utilities: k-fold, stratified k-fold, train/test split.

These reimplement the scikit-learn splitters the paper's baselines use
("random" = :class:`KFold` with shuffling, "stratified" =
:class:`StratifiedKFold`), plus subset-sampling helpers used when a bandit
method allocates an instance budget to a configuration.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KFold",
    "StratifiedKFold",
    "train_test_split",
    "random_subsample",
    "stratified_subsample",
]


def _check_n_splits(n_splits: int, n_samples: int) -> None:
    if n_splits < 2:
        raise ValueError(f"n_splits must be >= 2, got {n_splits}")
    if n_splits > n_samples:
        raise ValueError(f"n_splits={n_splits} greater than n_samples={n_samples}")


class KFold:
    """Plain k-fold splitter (optionally shuffled).

    Yields ``(train_indices, test_indices)`` pairs; fold sizes differ by at
    most one instance.
    """

    def __init__(
        self, n_splits: int = 5, shuffle: bool = True, random_state: Optional[int] = None
    ) -> None:
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def get_n_splits(self) -> int:
        """Number of folds produced by :meth:`split`."""
        return self.n_splits

    def split(self, X, y=None) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Generate train/test index pairs over ``len(X)`` samples."""
        n_samples = len(X)
        _check_n_splits(self.n_splits, n_samples)
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits, dtype=int)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start : start + size]
            train = np.concatenate([indices[:start], indices[start + size :]])
            yield train, test
            start += size


class StratifiedKFold:
    """K-fold preserving per-class proportions in every fold.

    Classes are distributed round-robin across folds after an optional
    shuffle, so each fold's label distribution approximates the global one.
    """

    def __init__(
        self, n_splits: int = 5, shuffle: bool = True, random_state: Optional[int] = None
    ) -> None:
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def get_n_splits(self) -> int:
        """Number of folds produced by :meth:`split`."""
        return self.n_splits

    def split(self, X, y) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Generate stratified train/test index pairs."""
        y = np.asarray(y)
        n_samples = len(y)
        if len(X) != n_samples:
            raise ValueError(f"X and y have inconsistent lengths: {len(X)} != {n_samples}")
        _check_n_splits(self.n_splits, n_samples)
        rng = np.random.default_rng(self.random_state)
        fold_of = np.empty(n_samples, dtype=int)
        next_fold = 0
        for cls in np.unique(y):
            members = np.flatnonzero(y == cls)
            if self.shuffle:
                rng.shuffle(members)
            # Continue the round-robin across classes so small classes do
            # not all land in fold 0.
            fold_of[members] = (next_fold + np.arange(len(members))) % self.n_splits
            next_fold = (next_fold + len(members)) % self.n_splits
        all_indices = np.arange(n_samples)
        for fold in range(self.n_splits):
            test = all_indices[fold_of == fold]
            train = all_indices[fold_of != fold]
            yield train, test


def train_test_split(
    X,
    y,
    test_size: float = 0.2,
    stratify: Optional[np.ndarray] = None,
    random_state: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split arrays into train and test subsets (the paper's 80/20 rule).

    Parameters
    ----------
    X, y:
        Features and targets of equal length.
    test_size:
        Fraction of samples placed in the test split, in ``(0, 1)``.
    stratify:
        When given, the split preserves these labels' proportions.
    random_state:
        Seed for the shuffling.

    Returns
    -------
    tuple
        ``(X_train, X_test, y_train, y_test)``.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    n_samples = len(X)
    if len(y) != n_samples:
        raise ValueError(f"X and y have inconsistent lengths: {n_samples} != {len(y)}")
    if not 0.0 < test_size < 1.0:
        raise ValueError(f"test_size must be in (0, 1), got {test_size}")
    rng = np.random.default_rng(random_state)
    n_test = max(1, int(round(test_size * n_samples)))
    if n_test >= n_samples:
        n_test = n_samples - 1
    if stratify is not None:
        test_idx = stratified_subsample(np.asarray(stratify), n_test, rng=rng)
        test_mask = np.zeros(n_samples, dtype=bool)
        test_mask[test_idx] = True
        train_idx = np.flatnonzero(~test_mask)
    else:
        order = rng.permutation(n_samples)
        test_idx, train_idx = order[:n_test], order[n_test:]
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


def random_subsample(
    n_samples: int,
    n_select: int,
    rng: Optional[np.random.Generator] = None,
    random_state: Optional[int] = None,
) -> np.ndarray:
    """Uniformly sample ``n_select`` indices without replacement."""
    if rng is None:
        rng = np.random.default_rng(random_state)
    if not 0 < n_select <= n_samples:
        raise ValueError(f"n_select must be in [1, {n_samples}], got {n_select}")
    return rng.choice(n_samples, size=n_select, replace=False)


def stratified_subsample(
    labels: np.ndarray,
    n_select: int,
    rng: Optional[np.random.Generator] = None,
    random_state: Optional[int] = None,
    members: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Sample ``n_select`` indices preserving the label proportions.

    Every label present receives at least one slot when capacity allows;
    fractional remainders are resolved by largest-remainder rounding, then
    leftover slots are assigned to random labels with spare instances.
    ``members`` may supply ``np.flatnonzero(labels == label)`` per sorted
    label, precomputed; the draws are the same either way.
    """
    if rng is None:
        rng = np.random.default_rng(random_state)
    labels = np.asarray(labels)
    n_samples = len(labels)
    if not 0 < n_select <= n_samples:
        raise ValueError(f"n_select must be in [1, {n_samples}], got {n_select}")
    if members is None:
        classes = np.unique(labels)
        members = [np.flatnonzero(labels == cls) for cls in classes]
    counts = np.array([len(indices) for indices in members])
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
    for indices, take in zip(members, allocation):
        if take == 0:
            continue
        selected.append(rng.choice(indices, size=take, replace=False))
    result = np.concatenate(selected) if selected else np.empty(0, dtype=int)
    rng.shuffle(result)
    return result
