"""Tests for logistic regression and ridge regression."""

import numpy as np
import pytest

from repro.learners import LogisticRegression, Ridge, clone
from repro.learners.activations import logistic, softmax
from repro.learners.base import check_X_y
from repro.learners.preprocessing import LabelEncoder, one_hot


def scipy_logistic_fit(model, X, y):
    """``LogisticRegression.fit`` as it ran on ``scipy.optimize.minimize``: ``(W, nit)``."""
    import scipy.optimize

    X, y = check_X_y(X, y)
    encoder = LabelEncoder().fit(y)
    n_classes = len(encoder.classes_)
    codes = encoder.transform(y)
    targets = one_hot(codes, n_classes) if n_classes > 2 else codes.reshape(-1, 1).astype(float)

    n_features = X.shape[1]
    n_outputs = targets.shape[1]
    n_samples = X.shape[0]
    bias_cols = 1 if model.fit_intercept else 0

    def objective(flat):
        W = flat.reshape(n_features + bias_cols, n_outputs)
        weights, bias = (W[:-1], W[-1]) if model.fit_intercept else (W, 0.0)
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
        loss += (weights**2).sum() / (2.0 * model.C * n_samples)
        delta = (probabilities - targets) / n_samples
        grad_w = X.T @ delta + weights / (model.C * n_samples)
        if model.fit_intercept:
            grad = np.vstack([grad_w, delta.sum(axis=0)])
        else:
            grad = grad_w
        return loss, grad.ravel()

    x0 = np.zeros((n_features + bias_cols) * n_outputs)
    result = scipy.optimize.minimize(
        objective, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": model.max_iter, "gtol": model.tol},
    )
    return result.x.reshape(n_features + bias_cols, n_outputs), int(result.nit)


class TestLogisticRegressionDriver:
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e4])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("max_iter", [1, 5, 100])
    def test_fit_equals_scipy_minimize_bitwise(self, n_classes, C, fit_intercept, max_iter):
        rng = np.random.default_rng(n_classes * 10 + max_iter)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, n_classes, size=60) if n_classes > 2 else (X[:, 0] > 0).astype(int)
        model = LogisticRegression(C=C, fit_intercept=fit_intercept, max_iter=max_iter).fit(X, y)
        W, nit = scipy_logistic_fit(model, X, y)
        if fit_intercept:
            coef, intercept = W[:-1], W[-1]
        else:
            coef, intercept = W, np.zeros(W.shape[1])
        assert model.n_iter_ == nit
        assert coef.tobytes() == model.coef_.tobytes()
        assert intercept.tobytes() == model.intercept_.tobytes()


class TestLogisticRegressionBinary:
    def test_learns_separable(self, small_classification):
        X, y = small_classification
        model = LogisticRegression().fit(X, y)
        assert model.score(X, y) > 0.85

    def test_probabilities_valid(self, small_classification):
        X, y = small_classification
        proba = LogisticRegression().fit(X, y).predict_proba(X[:10])
        assert proba.shape == (10, 2)
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(10))
        assert (proba >= 0).all()

    def test_regularization_shrinks_weights(self, small_classification):
        X, y = small_classification
        loose = LogisticRegression(C=100.0).fit(X, y)
        tight = LogisticRegression(C=0.001).fit(X, y)
        assert np.abs(tight.coef_).sum() < np.abs(loose.coef_).sum()

    def test_string_labels(self):
        X = np.vstack([np.zeros((20, 2)), np.ones((20, 2)) * 3])
        y = np.array(["no"] * 20 + ["yes"] * 20)
        model = LogisticRegression().fit(X, y)
        assert set(model.predict(X)) <= {"no", "yes"}
        assert model.score(X, y) == 1.0

    def test_invalid_c(self, small_classification):
        X, y = small_classification
        with pytest.raises(ValueError, match="C must be"):
            LogisticRegression(C=0.0).fit(X, y)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            LogisticRegression().fit(np.ones((5, 2)), np.zeros(5))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fitted"):
            LogisticRegression().predict(np.ones((2, 2)))

    def test_clonable(self):
        model = LogisticRegression(C=3.0, max_iter=50)
        assert clone(model).get_params() == model.get_params()


class TestLogisticRegressionMulticlass:
    def test_learns_three_classes(self, small_multiclass):
        # The fixture has two Gaussian clusters per class, so the problem is
        # not linearly separable; a linear model lands well above the 1/3
        # chance level but below the MLP's accuracy.
        X, y = small_multiclass
        model = LogisticRegression(max_iter=200).fit(X, y)
        assert model.score(X, y) > 0.55

    def test_proba_columns_match_classes(self, small_multiclass):
        X, y = small_multiclass
        model = LogisticRegression().fit(X, y)
        proba = model.predict_proba(X[:5])
        assert proba.shape == (5, 3)
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(5))

    def test_no_intercept_mode(self, small_multiclass):
        X, y = small_multiclass
        model = LogisticRegression(fit_intercept=False).fit(X, y)
        np.testing.assert_array_equal(model.intercept_, np.zeros(3))


class TestRidge:
    def test_recovers_linear_model(self, rng):
        X = rng.standard_normal((200, 5))
        true_coef = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = X @ true_coef + 0.01 * rng.standard_normal(200)
        model = Ridge(alpha=1e-6).fit(X, y)
        np.testing.assert_allclose(model.coef_, true_coef, atol=0.02)

    def test_alpha_zero_is_ols(self, rng):
        X = rng.standard_normal((100, 3))
        y = X @ np.array([2.0, 0.0, -1.0])
        model = Ridge(alpha=0.0).fit(X, y)
        assert model.score(X, y) > 0.999

    def test_regularization_shrinks(self, rng):
        X = rng.standard_normal((50, 4))
        y = X @ np.ones(4)
        loose = Ridge(alpha=0.0).fit(X, y)
        tight = Ridge(alpha=1000.0).fit(X, y)
        assert np.abs(tight.coef_).sum() < np.abs(loose.coef_).sum()

    def test_intercept_learned(self, rng):
        X = rng.standard_normal((100, 2))
        y = X @ np.array([1.0, 1.0]) + 7.0
        model = Ridge(alpha=1e-6).fit(X, y)
        assert model.intercept_ == pytest.approx(7.0, abs=0.1)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            Ridge(alpha=-1.0).fit(np.ones((5, 2)), np.zeros(5))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fitted"):
            Ridge().predict(np.ones((2, 2)))

    def test_score_is_r2(self, small_regression):
        X, y = small_regression
        model = Ridge(alpha=1.0).fit(X, y)
        assert model.score(X, y) <= 1.0
        assert model.score(X, y) > 0.0
