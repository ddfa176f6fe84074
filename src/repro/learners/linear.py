"""Linear models: logistic regression and ridge regression.

Fast, convex learners complementing the MLP: the paper's method is
model-agnostic (any estimator with ``fit`` / ``score`` works through the
evaluator seam), and linear models make tests and examples cheap.  Both are
trained with closed-form / L-BFGS full-batch optimization.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .activations import logistic, softmax
from .base import BaseEstimator, check_X_y
from .preprocessing import LabelEncoder, one_hot
from .solvers import LBFGSB

__all__ = ["LogisticRegression", "Ridge"]


class LogisticRegression(BaseEstimator):
    """L2-regularized (multinomial) logistic regression via L-BFGS.

    Parameters
    ----------
    C:
        Inverse regularization strength (scikit-learn convention: larger is
        less regularized).
    max_iter:
        L-BFGS iteration cap.
    tol:
        Gradient tolerance.
    fit_intercept:
        Learn a bias term.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 100,
        tol: float = 1e-6,
        fit_intercept: bool = True,
    ) -> None:
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit the model by minimizing regularized cross-entropy."""
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        X, y = check_X_y(X, y)
        self._encoder = LabelEncoder().fit(y)
        self.classes_ = self._encoder.classes_
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("LogisticRegression requires at least 2 classes")
        codes = self._encoder.transform(y)
        targets = one_hot(codes, n_classes) if n_classes > 2 else codes.reshape(-1, 1).astype(float)

        n_features = X.shape[1]
        n_outputs = targets.shape[1]
        n_samples = X.shape[0]
        bias_cols = 1 if self.fit_intercept else 0

        def objective(flat: np.ndarray):
            W = flat.reshape(n_features + bias_cols, n_outputs)
            weights, bias = (W[:-1], W[-1]) if self.fit_intercept else (W, 0.0)
            z = X @ weights + bias
            if n_outputs == 1:
                probabilities = logistic(z)
            else:
                probabilities = softmax(z)
            clipped = np.clip(probabilities, 1e-12, 1 - 1e-12)
            if n_outputs == 1:
                loss = -(targets * np.log(clipped) + (1 - targets) * np.log(1 - clipped)).sum() / n_samples
            else:
                loss = -(targets * np.log(clipped)).sum() / n_samples
            loss += (weights**2).sum() / (2.0 * self.C * n_samples)
            delta = (probabilities - targets) / n_samples
            grad_w = X.T @ delta + weights / (self.C * n_samples)
            if self.fit_intercept:
                grad = np.vstack([grad_w, delta.sum(axis=0)])
            else:
                grad = grad_w
            return loss, grad.ravel()

        x0 = np.zeros((n_features + bias_cols) * n_outputs)
        run = LBFGSB(x0, self.max_iter, gtol=self.tol)
        while run.ask():
            run.tell(*objective(run.x.copy()))
        W = run.x.reshape(n_features + bias_cols, n_outputs)
        if self.fit_intercept:
            self.coef_, self.intercept_ = W[:-1], W[-1]
        else:
            self.coef_, self.intercept_ = W, np.zeros(n_outputs)
        self.n_iter_ = int(run.nit)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw scores ``X @ coef + intercept``."""
        if not hasattr(self, "coef_"):
            raise RuntimeError("LogisticRegression must be fitted before prediction")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities of shape ``(n_samples, n_classes)``."""
        scores = self.decision_function(X)
        if scores.shape[1] == 1:
            positive = logistic(scores[:, 0])
            return np.column_stack([1 - positive, positive])
        return softmax(scores)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class label per row."""
        if not hasattr(self, "coef_"):
            raise RuntimeError("LogisticRegression must be fitted before prediction")
        return self._encoder.inverse_transform(self.predict_proba(X).argmax(axis=1))

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return float((self.predict(X) == np.asarray(y).ravel()).mean())


class Ridge(BaseEstimator):
    """Ridge regression with a closed-form solution.

    Parameters
    ----------
    alpha:
        L2 penalty strength (0 gives ordinary least squares).
    fit_intercept:
        Centre the data and learn a bias.
    """

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True) -> None:
        self.alpha = alpha
        self.fit_intercept = fit_intercept

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Ridge":
        """Solve ``(X'X + alpha I) w = X'y``."""
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        X, y = check_X_y(X, y)
        y = y.astype(float)
        if self.fit_intercept:
            x_mean, y_mean = X.mean(axis=0), y.mean()
            X_centred, y_centred = X - x_mean, y - y_mean
        else:
            x_mean, y_mean = np.zeros(X.shape[1]), 0.0
            X_centred, y_centred = X, y
        gram = X_centred.T @ X_centred + self.alpha * np.eye(X.shape[1])
        self.coef_ = np.linalg.solve(gram, X_centred.T @ y_centred)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted targets."""
        if not hasattr(self, "coef_"):
            raise RuntimeError("Ridge must be fitted before prediction")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return X @ self.coef_ + self.intercept_

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """R² of the prediction."""
        y = np.asarray(y, dtype=float).ravel()
        prediction = self.predict(X)
        ss_res = float(((y - prediction) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot
