"""Stacked scoring (``predict_folds`` + the fold metric) against per-fold scoring.

The evaluator predicts every fused fold of a rung in one
:func:`~repro.learners.batched.predict_folds` call and applies the metric
to each fold.  Each case here builds a mix of fitted models — binary,
3-class or regression heads, several architectures, validation sets of
several sizes so groups of every width from one up form, plus the odd
folds an evaluation produces (a constant predictor, a model fitted on a
guard-shrunk two-row fold, a diverged or exploded model) — and requires,
fold by fold, the same prediction bytes as ``model.predict`` and the same
score bits as ``make_scorer(metric, n_classes)(model, X_val, y_val)``.
Bounded in tier-1; the ``kernels`` tier sweeps it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import _ConstantClassifier, _fold_metric, make_scorer
from repro.learners import MLPClassifier, MLPRegressor
from repro.learners.batched import predict_folds

HEADS = {"binary": 2, "3-class": 3, "regression": None}
METRICS = {"binary": ("accuracy", "f1"), "3-class": ("accuracy", "f1"), "regression": ("r2",)}
ARCHS = [((4,), "relu"), ((6,), "tanh"), ((3, 5), "logistic"), ((4,), "tanh")]


def _data(head, n, rng):
    X = rng.normal(size=(n, 3))
    if head == "regression":
        return X, X @ rng.normal(size=3) + 0.1 * rng.normal(size=n)
    return X, (rng.integers(0, HEADS[head], size=n) * 2) + 1  # labels 1, 3, 5


def _model(head, arch, seed, **kwargs):
    hidden, activation = arch
    cls = MLPRegressor if head == "regression" else MLPClassifier
    options = dict(hidden_layer_sizes=hidden, activation=activation, max_iter=4, random_state=seed)
    return cls(**{**options, **kwargs})


def _folds(head, width, seed, specials):
    """``width`` fitted ``(model, X_val, y_val)`` folds, then the special ones."""
    rng = np.random.default_rng(seed)
    folds = []
    for i in range(width):
        X, y = _data(head, 30, rng)
        n_val = int(rng.choice([1, 5, 6]))
        arch = ARCHS[int(rng.integers(len(ARCHS)))]
        model = _model(head, arch, i, solver=str(rng.choice(["adam", "sgd", "lbfgs"])))
        folds.append((model.fit(X[n_val:], y[n_val:]), X[:n_val], y[:n_val]))
    if not specials:
        return folds
    X, y = _data(head, 12, rng)
    if head != "regression":
        y = rng.permutation(2 * (np.arange(12) % HEADS[head]) + 1)  # every label present
        folds.append((_ConstantClassifier(y[0]), X[:5], y[:5]))
        # A 3-class training fold that holds two labels: a binary head.
        two = y != y.max() if head == "3-class" else slice(None)
        folds.append((_model(head, ARCHS[0], 7).fit(X[two], y[two]), X[:5], y[:5]))
    # A guard-shrunk fold: two training rows, one validation row.
    pair = [int(np.argmax(y)), int(np.argmin(y))]
    folds.append((_model(head, ARCHS[1], 8, solver="lbfgs").fit(X[pair], y[pair]), X[2:3], y[2:3]))
    if head == "regression":
        diverged = _model(head, ARCHS[0], 9, solver="sgd", learning_rate_init=50.0)
        diverged.fit(X, 1e6 * y)
        assert diverged.diverged_
    else:
        diverged = _model(head, ARCHS[0], 9).fit(X, y)
        diverged.coefs_ = [1e12 * c for c in diverged.coefs_]  # saturated outputs
    folds.append((diverged, X[:5], y[:5]))
    broken = _model(head, ARCHS[0], 10).fit(X, y)
    broken.coefs_[0][0, 0] = np.nan  # a non-finite fold, which the guard floors
    folds.append((broken, X[:5], y[:5]))
    return folds


def _check_stacked_scoring(head, metric, width, seed, specials):
    folds = _folds(head, width, seed, specials)
    order = np.random.default_rng(seed).permutation(len(folds))
    folds = [folds[i] for i in order]
    n_classes = HEADS[head]
    predictions = predict_folds([model for model, _, _ in folds], [X for _, X, _ in folds])
    score = _fold_metric(metric, n_classes or 2)
    for i, ((model, X_val, y_val), prediction) in enumerate(zip(folds, predictions)):
        expected = model.predict(X_val)
        assert prediction.dtype == expected.dtype, f"fold {i}: dtype"
        assert prediction.tobytes() == expected.tobytes(), f"fold {i}: predictions differ"
        got = np.float64(score(y_val, prediction))
        want = np.float64(make_scorer(metric, n_classes)(model, X_val, y_val))
        assert got.tobytes() == want.tobytes(), f"fold {i}: {got!r} != {want!r}"


CASES = [(head, metric) for head, metrics in METRICS.items() for metric in metrics]


class TestStackedScoring:
    @pytest.mark.parametrize("head, metric", CASES)
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_equals_per_fold_scorer(self, head, metric, width):
        _check_stacked_scoring(head, metric, width, seed=width, specials=True)

    @pytest.mark.kernels
    @given(
        case=st.sampled_from(CASES),
        width=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
        specials=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_fold_scorer_sweep(self, case, width, seed, specials):
        _check_stacked_scoring(*case, width, seed, specials)
