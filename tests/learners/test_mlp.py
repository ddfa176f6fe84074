"""Tests for the MLP classifier and regressor."""

import numpy as np
import pytest

from repro.datasets import make_classification, make_regression
from repro.learners import MLPClassifier, MLPRegressor, clone

from ._reference_kernel import OracleKernelMixin
from .test_batched import assert_models_identical, make_data


class TestClassifierLearning:
    def test_learns_separable_binary(self, small_classification):
        X, y = small_classification
        clf = MLPClassifier(hidden_layer_sizes=(16,), solver="lbfgs", max_iter=100, random_state=0)
        assert clf.fit(X, y).score(X, y) > 0.9

    def test_learns_multiclass(self, small_multiclass):
        X, y = small_multiclass
        clf = MLPClassifier(hidden_layer_sizes=(24,), solver="lbfgs", max_iter=150, random_state=0)
        assert clf.fit(X, y).score(X, y) > 0.85

    @pytest.mark.parametrize("solver", ["sgd", "adam", "lbfgs"])
    def test_all_solvers_learn(self, solver, small_classification):
        X, y = small_classification
        lr = 0.05 if solver == "sgd" else 0.01
        clf = MLPClassifier(
            hidden_layer_sizes=(16,), solver=solver, max_iter=80,
            learning_rate_init=lr, random_state=0,
        )
        assert clf.fit(X, y).score(X, y) > 0.85

    @pytest.mark.parametrize("activation", ["logistic", "tanh", "relu"])
    def test_all_activations_learn(self, activation, small_classification):
        X, y = small_classification
        clf = MLPClassifier(
            hidden_layer_sizes=(16,), activation=activation, solver="lbfgs",
            max_iter=100, random_state=0,
        )
        assert clf.fit(X, y).score(X, y) > 0.85

    @pytest.mark.parametrize("schedule", ["constant", "invscaling", "adaptive"])
    def test_learning_rate_schedules_run(self, schedule, small_classification):
        X, y = small_classification
        clf = MLPClassifier(
            hidden_layer_sizes=(8,), solver="sgd", learning_rate=schedule,
            learning_rate_init=0.1, max_iter=30, random_state=0,
        )
        assert clf.fit(X, y).score(X, y) > 0.6

    def test_deep_network_runs(self, small_classification):
        X, y = small_classification
        clf = MLPClassifier(hidden_layer_sizes=(10, 10, 10), solver="adam", max_iter=40, random_state=0)
        clf.fit(X, y)
        assert len(clf.coefs_) == 4  # 3 hidden + output


class TestClassifierApi:
    def test_predict_proba_rows_sum_to_one(self, small_multiclass):
        X, y = small_multiclass
        clf = MLPClassifier(hidden_layer_sizes=(8,), solver="adam", max_iter=20, random_state=0).fit(X, y)
        proba = clf.predict_proba(X[:20])
        assert proba.shape == (20, 3)
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(20), atol=1e-9)

    def test_binary_proba_two_columns(self, small_classification):
        X, y = small_classification
        clf = MLPClassifier(hidden_layer_sizes=(8,), solver="adam", max_iter=20, random_state=0).fit(X, y)
        proba = clf.predict_proba(X[:5])
        assert proba.shape == (5, 2)
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(5))

    def test_predict_returns_original_labels(self):
        X, _ = make_classification(n_samples=100, n_features=4, class_sep=3.0, random_state=0)
        y = np.where(np.arange(100) % 2 == 0, "cat", "dog")
        clf = MLPClassifier(hidden_layer_sizes=(4,), max_iter=5, random_state=0).fit(X, y)
        assert set(clf.predict(X)) <= {"cat", "dog"}

    def test_reproducible_with_same_seed(self, small_classification):
        X, y = small_classification
        a = MLPClassifier(hidden_layer_sizes=(8,), solver="adam", max_iter=15, random_state=7).fit(X, y)
        b = MLPClassifier(hidden_layer_sizes=(8,), solver="adam", max_iter=15, random_state=7).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            MLPClassifier().predict(np.ones((2, 3)))

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            MLPClassifier(max_iter=5).fit(np.ones((10, 2)), np.zeros(10))

    def test_loss_curve_recorded_and_decreasing_overall(self, small_classification):
        X, y = small_classification
        clf = MLPClassifier(hidden_layer_sizes=(16,), solver="adam", max_iter=30, random_state=0).fit(X, y)
        assert len(clf.loss_curve_) > 1
        assert clf.loss_curve_[-1] < clf.loss_curve_[0]

    def test_clonable(self):
        clf = MLPClassifier(hidden_layer_sizes=(5, 5), activation="tanh", momentum=0.8)
        copy = clone(clf)
        assert copy.get_params() == clf.get_params()


class TestEarlyStopping:
    def test_early_stopping_halts_before_max_iter(self, small_classification):
        X, y = small_classification
        clf = MLPClassifier(
            hidden_layer_sizes=(16,), solver="adam", max_iter=500,
            early_stopping=True, n_iter_no_change=3, random_state=0,
        ).fit(X, y)
        assert clf.n_iter_ < 500
        assert len(clf.validation_scores_) == clf.n_iter_

    def test_tol_stops_on_plateau(self, small_classification):
        X, y = small_classification
        clf = MLPClassifier(
            hidden_layer_sizes=(16,), solver="adam", max_iter=1000,
            tol=1e-2, n_iter_no_change=2, random_state=0,
        ).fit(X, y)
        assert clf.n_iter_ < 1000


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"solver": "rmsprop"},
        {"activation": "swish"},
        {"max_iter": 0},
        {"alpha": -1.0},
        {"validation_fraction": 1.5},
        {"hidden_layer_sizes": (0,)},
        {"batch_size": -5},
    ])
    def test_invalid_hyperparameters_raise(self, bad, small_classification):
        X, y = small_classification
        with pytest.raises(ValueError):
            MLPClassifier(**bad).fit(X, y)

    def test_nan_input_rejected(self):
        X = np.ones((10, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            MLPClassifier(max_iter=5).fit(X, np.arange(10) % 2)


class TestGradients:
    def test_backprop_matches_numerical_gradient(self):
        """Analytic gradients agree with central finite differences."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        y_int = rng.integers(0, 3, size=12)
        clf = MLPClassifier(hidden_layer_sizes=(4,), activation="tanh", alpha=0.01, random_state=0)
        clf._validate_hyperparameters()
        from repro.learners.mlp import _init_coefficients
        from repro.learners.preprocessing import one_hot

        clf.classes_ = np.array([0, 1, 2])
        y = one_hot(y_int, 3)
        clf.coefs_, clf.intercepts_ = _init_coefficients([3, 4, 3], "tanh", rng)

        _, coef_grads, intercept_grads = clf._backprop(X, y)
        eps = 1e-6
        for layer in range(2):
            coef = clf.coefs_[layer]
            numeric = np.zeros_like(coef)
            for i in range(coef.shape[0]):
                for j in range(coef.shape[1]):
                    coef[i, j] += eps
                    up, _, _ = clf._backprop(X, y)
                    coef[i, j] -= 2 * eps
                    down, _, _ = clf._backprop(X, y)
                    coef[i, j] += eps
                    numeric[i, j] = (up - down) / (2 * eps)
            np.testing.assert_allclose(coef_grads[layer], numeric, atol=1e-6)


class TestRegressor:
    def test_fits_nonlinear_target(self, small_regression):
        X, y = small_regression
        reg = MLPRegressor(hidden_layer_sizes=(24,), solver="lbfgs", max_iter=200, random_state=0)
        assert reg.fit(X, y).score(X, y) > 0.8

    def test_beats_constant_predictor(self, small_regression):
        X, y = small_regression
        reg = MLPRegressor(
            hidden_layer_sizes=(8,), solver="adam", max_iter=60,
            learning_rate_init=0.01, random_state=0,
        )
        assert reg.fit(X, y).score(X, y) > 0.0

    def test_predict_shape(self, small_regression):
        X, y = small_regression
        reg = MLPRegressor(hidden_layer_sizes=(4,), max_iter=10, random_state=0).fit(X, y)
        assert reg.predict(X).shape == (len(y),)

    def test_single_row_prediction(self, small_regression):
        X, y = small_regression
        reg = MLPRegressor(hidden_layer_sizes=(4,), max_iter=10, random_state=0).fit(X, y)
        assert reg.predict(X[0]).shape == (1,)

    def test_sgd_with_momentum_runs(self, small_regression):
        X, y = small_regression
        reg = MLPRegressor(
            hidden_layer_sizes=(8,), solver="sgd", momentum=0.9,
            learning_rate_init=0.01, max_iter=40, random_state=0,
        )
        assert np.isfinite(reg.fit(X, y).loss_)


class _OracleClassifier(OracleKernelMixin, MLPClassifier):
    pass


class _OracleRegressor(OracleKernelMixin, MLPRegressor):
    pass


HEADS = {
    "binary": (MLPClassifier, "bin"),
    "3class": (MLPClassifier, "multi"),
    "regressor": (MLPRegressor, "reg"),
}
SGD, ADAM = dict(solver="sgd", learning_rate_init=0.05), dict(solver="adam", learning_rate_init=0.01)
STOP_EARLY = dict(early_stopping=True, n_iter_no_change=3, max_iter=60)
INVSCALING, ADAPTIVE = dict(learning_rate="invscaling"), dict(learning_rate="adaptive")

#: ``(head, hyperparameters, warm start)``: every branch of the lane
#: trainer that ``.fit`` reaches at width one.
ORACLE_CASES = {
    "sgd-constant-nesterov-binary": ("binary", SGD, False),
    "sgd-constant-plain-3class": ("3class", dict(SGD, nesterovs_momentum=False), False),
    "sgd-invscaling-nesterov-regressor": ("regressor", dict(SGD, **INVSCALING), False),
    "sgd-invscaling-plain-binary": (
        "binary", dict(SGD, **INVSCALING, nesterovs_momentum=False, learning_rate_init=0.1), False
    ),
    # tol 10 stalls every epoch: the rate decays every third until it collapses.
    "sgd-adaptive-regressor": (
        "regressor", dict(SGD, **ADAPTIVE, tol=10.0, n_iter_no_change=3, max_iter=60), False
    ),
    "adam-3class": ("3class", ADAM, False),
    "adam-early-stopping-binary": ("binary", dict(ADAM, learning_rate_init=0.05, **STOP_EARLY), False),
    "sgd-adaptive-early-stopping-3class": ("3class", dict(SGD, **ADAPTIVE, **STOP_EARLY), False),
    "adam-warm-regressor": ("regressor", ADAM, True),
    "sgd-warm-3class": ("3class", SGD, True),
    "sgd-divergent-regressor": ("regressor", dict(SGD, learning_rate_init=50.0), False),
    "adam-divergent-regressor": ("regressor", dict(ADAM, learning_rate_init=1e6, max_iter=40), False),
}


class TestFitAgainstOracle:
    """``.fit`` — a lane of one — is bitwise the independent per-fold loop.

    The other side is ``OracleKernelMixin``: the fit preamble and the
    ``sgd`` / ``adam`` loop as they were before ``.fit`` trained through
    the lane, on the oracle kernel, kept in ``_reference_kernel.py``.
    """

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_fit_bitwise_equal_to_oracle(self, case):
        head, params, warm = ORACLE_CASES[case]
        cls, task = HEADS[head]
        X, y = make_data(task, 90, 5, 3, seed=len(case))
        kwargs = dict(hidden_layer_sizes=(6,), batch_size=16, max_iter=25, random_state=3)
        kwargs.update(params)
        fit_kwargs = {}
        if warm:
            donor = cls(**{**kwargs, "max_iter": 3, "random_state": 4}).fit(X[:40], y[:40])
            fit_kwargs = dict(coefs_init=donor.coefs_, intercepts_init=donor.intercepts_)
        oracle_cls = _OracleRegressor if cls is MLPRegressor else _OracleClassifier
        fitted = cls(**kwargs).fit(X, y, **fit_kwargs)
        oracle = oracle_cls(**kwargs).fit(X, y, **fit_kwargs)
        assert_models_identical(fitted, oracle, case)
        # The case reaches the branch it names.
        assert fitted.diverged_ == ("divergent" in case)
        if "early-stopping" in case:
            assert fitted.validation_scores_ and fitted.n_iter_ < kwargs["max_iter"]
        if "adaptive" in case and "early-stopping" not in case:
            assert fitted.n_iter_ < kwargs["max_iter"]
