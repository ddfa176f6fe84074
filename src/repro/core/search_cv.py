"""Estimator-style front end: ``EnhancedSearchCV``.

A scikit-learn-flavoured wrapper around :func:`repro.core.optimize`: build
it with a space and method, call ``fit(X, y)``, then use it like a fitted
model (``predict`` / ``score``) or inspect ``best_config_`` and
``search_result_``.  This is the adoption-friendly surface; the functional
API underneath stays the source of truth.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..learners.base import BaseEstimator
from ..space import SearchSpace
from .enhanced import METHODS, grid_pool, optimize
from .evaluator import MLPModelFactory, make_scorer

__all__ = ["EnhancedSearchCV"]


class EnhancedSearchCV(BaseEstimator):
    """Hyperparameter search with the paper's enhanced evaluation.

    Parameters
    ----------
    space:
        The hyperparameter search space.
    method:
        Any registered method name (``"sha+"``, ``"hb"``, ``"bohb+"``, ...).
    metric:
        ``"accuracy"``, ``"f1"`` or ``"r2"``.
    task:
        ``"classification"`` or ``"regression"``.
    model_factory:
        Callable ``(config, random_state) -> estimator``; defaults to an
        MLP factory with ``max_iter``.
    max_iter:
        Epoch budget of the default MLP factory.
    n_configurations:
        Candidate count for infinite spaces / sampling methods; finite
        spaces default to their full grid.
    random_state:
        Seed for the whole search.

    Examples
    --------
    >>> from repro.core.search_cv import EnhancedSearchCV
    >>> from repro.experiments import paper_search_space
    >>> from repro.datasets import load_dataset
    >>> ds = load_dataset("australian", scale=0.3)
    >>> search = EnhancedSearchCV(paper_search_space(2), method="sha+",
    ...                           max_iter=5, random_state=0)
    >>> _ = search.fit(ds.X_train, ds.y_train)
    >>> sorted(search.best_config_) == ["activation", "hidden_layer_sizes"]
    True
    """

    def __init__(
        self,
        space: SearchSpace,
        method: str = "sha+",
        metric: str = "accuracy",
        task: str = "classification",
        model_factory=None,
        max_iter: int = 30,
        n_configurations: Optional[int] = None,
        random_state: Optional[int] = None,
    ) -> None:
        self.space = space
        self.method = method
        self.metric = metric
        self.task = task
        self.model_factory = model_factory
        self.max_iter = max_iter
        self.n_configurations = n_configurations
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "EnhancedSearchCV":
        """Run the search on ``(X, y)`` and refit the winner."""
        if self.method.lower() not in METHODS:
            raise ValueError(f"Unknown method {self.method!r}; available: {sorted(METHODS)}")
        factory = self.model_factory or MLPModelFactory(task=self.task, max_iter=self.max_iter)
        configurations = None
        if self.n_configurations is None:
            configurations = grid_pool(self.space, self.method)
        outcome = optimize(
            X,
            y,
            self.space,
            method=self.method,
            metric=self.metric,
            task=self.task,
            configurations=configurations,
            n_configurations=self.n_configurations,
            model_factory=factory,
            random_state=self.random_state,
        )
        self.best_config_ = outcome.best_config
        self.best_estimator_ = outcome.model
        self.search_result_ = outcome.result
        self.train_score_ = outcome.train_score
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "best_estimator_"):
            raise RuntimeError("EnhancedSearchCV must be fitted before use")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict with the refit best model."""
        self._check_fitted()
        return self.best_estimator_.predict(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Score the refit best model with the configured metric."""
        self._check_fitted()
        return float(make_scorer(self.metric)(self.best_estimator_, X, y))

    @property
    def n_trials_(self) -> int:
        """Number of evaluations the search performed."""
        self._check_fitted()
        return self.search_result_.n_trials
