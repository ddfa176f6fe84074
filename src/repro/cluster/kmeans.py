"""K-means clustering with k-means++ initialisation.

The paper's grouping step (Section III-A) runs k-means on the feature
matrix, then *iteratively re-clusters*: any cluster holding fewer than
``r_group * n / v`` instances is dissolved, its instances set aside, and the
remainder re-clustered until every cluster reaches the threshold.  Both the
plain estimator and the balanced iteration live here.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..learners.base import BaseEstimator, check_array

__all__ = ["KMeans", "balanced_kmeans_labels"]


def _kmeans_plus_plus(
    X: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Choose initial centers with the k-means++ D²-weighting scheme."""
    n_samples = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]), dtype=float)
    first = rng.integers(n_samples)
    centers[0] = X[first]
    closest_sq = ((X - centers[0]) ** 2).sum(axis=1)
    for i in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with a center; pick randomly.
            idx = rng.integers(n_samples)
        else:
            idx = rng.choice(n_samples, p=closest_sq / total)
        centers[i] = X[idx]
        distance_sq = ((X - centers[i]) ** 2).sum(axis=1)
        np.minimum(closest_sq, distance_sq, out=closest_sq)
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> Tuple[np.ndarray, float]:
    """Nearest-center labels and total inertia for the assignment."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; the ||x||^2 term is constant
    # per row so it can be dropped for the argmin but not for the inertia.
    cross = X @ centers.T
    center_sq = (centers**2).sum(axis=1)
    distances = center_sq[None, :] - 2.0 * cross
    labels = distances.argmin(axis=1)
    x_sq = (X**2).sum(axis=1)
    inertia = float((x_sq + distances[np.arange(X.shape[0]), labels]).sum())
    return labels, max(inertia, 0.0)


class KMeans(BaseEstimator):
    """Lloyd's algorithm with k-means++ seeding and restarts.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``v``.
    n_init:
        Independent restarts; the run with the lowest inertia wins.
    max_iter:
        Lloyd iterations per restart (the paper notes a default of 10
        iterations keeps the grouping cost negligible).
    tol:
        Relative center-shift tolerance for convergence.
    random_state:
        Seed for reproducible seeding and empty-cluster repair.
    """

    def __init__(
        self,
        n_clusters: int = 3,
        n_init: int = 3,
        max_iter: int = 50,
        tol: float = 1e-4,
        random_state: Optional[int] = None,
    ) -> None:
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state

    def fit(self, X: np.ndarray) -> "KMeans":
        """Cluster ``X``; sets ``cluster_centers_``, ``labels_``, ``inertia_``."""
        X = check_array(X)
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if X.shape[0] < self.n_clusters:
            raise ValueError(
                f"n_samples={X.shape[0]} must be >= n_clusters={self.n_clusters}"
            )
        rng = np.random.default_rng(self.random_state)
        best_inertia = np.inf
        for _ in range(max(1, self.n_init)):
            centers, labels, inertia, n_iter = self._single_run(X, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                self.cluster_centers_ = centers
                self.labels_ = labels
                self.inertia_ = inertia
                self.n_iter_ = n_iter
        return self

    def _single_run(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, float, int]:
        centers = _kmeans_plus_plus(X, self.n_clusters, rng)
        labels, inertia = _assign(X, centers)
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            new_centers = centers.copy()
            reseeded: list = []
            for j in range(self.n_clusters):
                members = X[labels == j]
                if len(members):
                    new_centers[j] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the point farthest from
                    # its assigned center to keep exactly n_clusters alive.
                    # argmax is deterministic (first maximum), and points
                    # already claimed by an earlier empty cluster in this
                    # iteration are masked out so several simultaneous
                    # empties never collapse onto the same seed.
                    distances = ((X - centers[labels]) ** 2).sum(axis=1)
                    if reseeded:
                        distances = distances.copy()
                        distances[reseeded] = -1.0
                    seed_index = int(distances.argmax())
                    reseeded.append(seed_index)
                    new_centers[j] = X[seed_index]
            shift = float(((new_centers - centers) ** 2).sum())
            centers = new_centers
            labels, inertia = _assign(X, centers)
            scale = float((X.var(axis=0)).sum()) or 1.0
            if shift <= self.tol * scale:
                break
        return centers, labels, inertia, n_iter

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Index of the nearest learned center for each row of ``X``."""
        if not hasattr(self, "cluster_centers_"):
            raise RuntimeError("KMeans must be fitted before predict")
        X = check_array(X)
        labels, _ = _assign(X, self.cluster_centers_)
        return labels

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        """Fit to ``X`` and return the training labels."""
        return self.fit(X).labels_


def balanced_kmeans_labels(
    X: np.ndarray,
    n_clusters: int,
    r_group: float = 0.8,
    max_rounds: int = 10,
    random_state: Optional[int] = None,
    guard=None,
) -> np.ndarray:
    """Feature clustering with the paper's small-cluster re-clustering rule.

    Runs k-means; clusters with fewer than ``r_group * n_kept / n_clusters``
    members are dissolved and the remaining instances re-clustered, repeating
    until every cluster passes the threshold (or ``max_rounds`` is hit).
    Instances set aside along the way are finally assigned to their nearest
    surviving center, so every instance receives a label in
    ``0..n_clusters-1``.

    Parameters
    ----------
    X:
        Feature matrix of shape ``(n_samples, n_features)``.
    n_clusters:
        Target number of clusters ``v``.
    r_group:
        Minimum cluster size as a fraction of the even share ``n / v``
        (the paper uses 0.8).
    max_rounds:
        Safety cap on re-clustering rounds.
    random_state:
        Seed passed to every k-means run.
    guard:
        Optional :class:`~repro.guard.events.GuardLog`; records a
        ``grouping.recluster_fallback`` event when the iteration exhausts
        its points (or ``max_rounds``) and falls back to an unbalanced
        clustering.

    Returns
    -------
    numpy.ndarray
        Integer cluster labels for all ``n_samples`` instances.

    Notes
    -----
    Termination is guaranteed on arbitrary data: every continued round
    removes at least one instance from the kept set (a round that would
    remove none breaks immediately), the kept set dropping below
    ``n_clusters`` triggers the unbalanced fallback, and ``max_rounds``
    caps the iteration regardless.
    """
    X = check_array(X)
    n_samples = X.shape[0]
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if not 0.0 <= r_group <= 1.0:
        raise ValueError(f"r_group must be in [0, 1], got {r_group}")
    if n_samples < n_clusters:
        raise ValueError(f"n_samples={n_samples} must be >= n_clusters={n_clusters}")

    keep_mask = np.ones(n_samples, dtype=bool)
    model = None
    fitted_idx = np.arange(n_samples)
    rounds = 0
    for rounds in range(1, max(1, max_rounds) + 1):
        kept_idx = np.flatnonzero(keep_mask)
        if len(kept_idx) < n_clusters:
            # Too few instances survived the threshold; fall back to
            # clustering everything once without the balance rule.
            keep_mask[:] = True
            fitted_idx = np.flatnonzero(keep_mask)
            model = KMeans(n_clusters=n_clusters, random_state=random_state).fit(X[fitted_idx])
            if guard is not None:
                guard.record(
                    "grouping.recluster_fallback",
                    "balance rule exhausted its points; clustered unbalanced",
                    rounds=rounds,
                    n_clusters=n_clusters,
                )
            break
        fitted_idx = kept_idx
        model = KMeans(n_clusters=n_clusters, random_state=random_state).fit(X[fitted_idx])
        counts = np.bincount(model.labels_, minlength=n_clusters)
        threshold = r_group * len(kept_idx) / n_clusters
        small = counts < threshold
        if not small.any():
            break
        dissolve = kept_idx[np.isin(model.labels_, np.flatnonzero(small))]
        if len(dissolve) == 0:
            # Only empty clusters fell below threshold: no point to remove,
            # so a further round would make no progress.
            break
        keep_mask[dissolve] = False
    else:
        if guard is not None:
            guard.record(
                "grouping.recluster_fallback",
                "balance rule hit max_rounds without converging",
                rounds=rounds,
                n_clusters=n_clusters,
            )

    labels = np.empty(n_samples, dtype=int)
    labels[fitted_idx] = model.labels_
    dropped_mask = np.ones(n_samples, dtype=bool)
    dropped_mask[fitted_idx] = False
    dropped_idx = np.flatnonzero(dropped_mask)
    if len(dropped_idx):
        labels[dropped_idx] = model.predict(X[dropped_idx])
    return labels
