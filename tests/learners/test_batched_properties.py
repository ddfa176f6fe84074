"""Property-based equivalence sweep for the batched fold kernels.

The unit tests in ``test_batched.py`` pin hand-picked corners; these
hypothesis sweeps hammer random (architecture, solver, schedule, fold
layout) combinations and require *bitwise* agreement with the per-fold
oracle loop (``reference_fit`` in ``_reference_kernel.py``) every time.
They are exhaustive by design and run in the ``kernels`` tier
(``pytest -m kernels``), outside tier-1.

``TestSharedCoreAgainstOracle`` is the exception: it holds the one
forward/backward/loss core that the lane trainer and the L-BFGS
objective share to the kernel it replaced, kept in
``_reference_kernel.py``, and ``.fit`` to both oracles at once — bounded
in tier-1, exhaustive in the ``kernels`` tier.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learners import MLPClassifier, MLPRegressor
from repro.learners.batched import fit_mlp_folds
from repro.learners.mlp import _loss_and_gradients, _per_fold_factor

from ._reference_kernel import OracleKernelMixin, ReferenceNet, assert_same_bits, reference_fit
from .test_batched import assert_models_identical, make_data

HIDDEN = st.sampled_from([(4,), (8,), (6, 4), (12,), (5, 5)])
SOLVERS = st.sampled_from(["sgd", "adam"])
SCHEDULES = st.sampled_from(["constant", "invscaling", "adaptive"])
ACTIVATIONS = st.sampled_from(["relu", "tanh", "logistic"])


def _run_both(cls, task, n_folds, kwargs, n, d, k, seed, sizes=None):
    X, y = make_data(task, n, d, k, seed)
    jobs_seq, jobs_bat = [], []
    for f in range(n_folds):
        size = sizes[f] if sizes else n // n_folds
        idx = np.random.default_rng(seed * 31 + f).choice(n, size=min(size, n), replace=False)
        jobs_seq.append((cls(random_state=seed + f, **kwargs), X[idx], y[idx]))
        jobs_bat.append((cls(random_state=seed + f, **kwargs), X[idx], y[idx]))
    for model, Xf, yf in jobs_seq:
        reference_fit(model, Xf, yf)
    fit_mlp_folds(jobs_bat)
    for i, (a, b) in enumerate(zip(jobs_seq, jobs_bat)):
        assert_models_identical(a[0], b[0], f"fold {i}")


@pytest.mark.kernels
class TestClassifierSweep:
    @given(
        hidden=HIDDEN,
        solver=SOLVERS,
        schedule=SCHEDULES,
        activation=ACTIVATIONS,
        n_classes=st.integers(min_value=2, max_value=4),
        n_folds=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_config_bitwise_equal(self, hidden, solver, schedule, activation, n_classes, n_folds, seed):
        kwargs = dict(
            hidden_layer_sizes=hidden,
            solver=solver,
            learning_rate=schedule,
            activation=activation,
            max_iter=12,
        )
        _run_both(MLPClassifier, "multi", n_folds, kwargs, n=90, d=5, k=n_classes, seed=seed)

    @given(
        solver=SOLVERS,
        early_stopping=st.booleans(),
        batch_size=st.sampled_from([16, 32, "auto"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_stopping_and_batching_bitwise_equal(self, solver, early_stopping, batch_size, seed):
        kwargs = dict(
            hidden_layer_sizes=(8,),
            solver=solver,
            early_stopping=early_stopping,
            batch_size=batch_size,
            max_iter=25,
        )
        _run_both(MLPClassifier, "bin", 4, kwargs, n=100, d=6, k=2, seed=seed)


@pytest.mark.kernels
class TestRegressorSweep:
    @given(
        hidden=HIDDEN,
        solver=SOLVERS,
        lr_init=st.sampled_from([0.001, 0.01, 0.1, 5.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_config_bitwise_equal(self, hidden, solver, lr_init, seed):
        # lr_init=5.0 intentionally provokes divergence in some draws; the
        # divergence bookkeeping must match bit for bit too.
        kwargs = dict(hidden_layer_sizes=hidden, solver=solver, learning_rate_init=lr_init, max_iter=12)
        _run_both(MLPRegressor, "reg", 4, kwargs, n=80, d=5, k=0, seed=seed)


@pytest.mark.kernels
class TestLaneLayouts:
    @given(
        sizes=st.lists(st.integers(min_value=12, max_value=40), min_size=2, max_size=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_fold_size_mix_bitwise_equal(self, sizes, seed):
        # Any mix of fold sizes — equal runs batch together, stragglers go
        # to singleton lanes; the result must never depend on the layout.
        kwargs = dict(hidden_layer_sizes=(6,), solver="adam", max_iter=10)
        _run_both(MLPClassifier, "bin", len(sizes), kwargs, n=60, d=4, k=2, seed=seed, sizes=sizes)


# -- the shared core against the pre-PR-16 oracle ------------------------------

HEADS = {"logistic": (MLPClassifier, 2), "softmax": (MLPClassifier, 3), "identity": (MLPRegressor, 1)}
CORE_CASE = dict(
    activation=st.sampled_from(["relu", "tanh", "logistic", "identity"]),
    head=st.sampled_from(sorted(HEADS)),
    width=st.sampled_from([1, 4]),
    hidden=st.sampled_from([(4,), (7,), (6, 4), (3, 5, 2)]),
    n_rows=st.integers(min_value=1, max_value=40),
    n_features=st.integers(min_value=1, max_value=6),
    # 30 saturates the sigmoids; 1e7 drives pre-activations into the 1e8 clamp.
    weight_scale=st.sampled_from([0.1, 1.0, 30.0, 1e7]),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


def _check_core_matches_oracle(activation, head, width, hidden, n_rows, n_features, weight_scale, seed):
    """Loss and flat gradient of every fold, 2-D and stacked, equal the oracle's."""
    rng = np.random.default_rng(seed)
    cls, n_classes = HEADS[head]
    n_out = n_classes if head == "softmax" else 1
    units = [n_features, *hidden, n_out]
    folds = []
    for _ in range(width):
        coefs = [rng.normal(size=shape) * weight_scale for shape in zip(units[:-1], units[1:])]
        intercepts = [rng.normal(size=fan_out) for fan_out in units[1:]]
        X = rng.normal(size=(n_rows, n_features))
        if head == "identity":
            y = rng.normal(size=(n_rows, 1))
        elif head == "logistic":
            y = rng.integers(0, 2, size=(n_rows, 1)).astype(float)
        else:
            y = np.eye(n_classes)[rng.integers(0, n_classes, size=n_rows)]
        folds.append((coefs, intercepts, X, y, float(rng.choice([0.0, 1e-4, 0.3]))))

    model = cls(activation=activation)
    model.classes_ = np.arange(n_classes)
    expected = []
    for coefs, intercepts, X, y, alpha in folds:
        loss, coef_grads, intercept_grads = ReferenceNet(
            coefs, intercepts, activation, head, alpha
        )._backprop(X, y)
        expected.append((loss, _flat([*coef_grads, *intercept_grads])))
        # The 2-D entry the L-BFGS objective uses.
        model.coefs_, model.intercepts_, model.alpha = coefs, intercepts, alpha
        loss_2d, coef_grads, intercept_grads = model._backprop(X, y)
        assert_same_bits(loss_2d, loss, "2-D loss")
        assert_same_bits(_flat([*coef_grads, *intercept_grads]), expected[-1][1], "2-D gradient")

    # The stacked entry the lane trainer uses.
    n_layers = len(units) - 1
    coefs = [np.stack([fold[0][l] for fold in folds]) for l in range(n_layers)]
    intercepts = [np.stack([fold[1][l] for fold in folds])[:, None, :] for l in range(n_layers)]
    alphas = np.array([fold[4] for fold in folds])
    grads = [np.empty_like(p) for p in (*coefs, *intercepts)]
    losses = _loss_and_gradients(
        np.stack([fold[2] for fold in folds]),
        np.stack([fold[3] for fold in folds]),
        coefs,
        intercepts,
        alphas,
        _per_fold_factor([alpha / n_rows for alpha in alphas]),
        model._kernel(),
        grads,
    )
    for i, (loss, gradient) in enumerate(expected):
        assert_same_bits(losses[i], loss, f"stacked loss, fold {i}")
        assert_same_bits(_flat([g[i] for g in grads]), gradient, f"stacked gradient, fold {i}")


class _OracleClassifier(OracleKernelMixin, MLPClassifier):
    pass


class _OracleRegressor(OracleKernelMixin, MLPRegressor):
    pass


FIT_CASE = dict(
    head=st.sampled_from(sorted(HEADS)),
    solver=st.sampled_from(["lbfgs", "sgd", "adam"]),
    activation=st.sampled_from(["relu", "tanh", "logistic"]),
    hidden=st.sampled_from([(5,), (6, 4)]),
    early_stopping=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _check_fit_matches_oracle_fit(head, solver, activation, hidden, early_stopping, seed):
    """``.fit`` (a lane of one, or L-BFGS) on the shared core == the oracle loop
    driven by the oracle kernel."""
    cls, n_classes = HEADS[head]
    oracle_cls = _OracleRegressor if cls is MLPRegressor else _OracleClassifier
    task = {"logistic": "bin", "softmax": "multi", "identity": "reg"}[head]
    X, y = make_data(task, 70, 5, n_classes, seed)
    kwargs = dict(
        hidden_layer_sizes=hidden,
        solver=solver,
        activation=activation,
        early_stopping=early_stopping,
        batch_size=32,
        max_iter=10,
        random_state=seed,
    )
    lean, oracle = cls(**kwargs).fit(X, y), oracle_cls(**kwargs).fit(X, y)
    assert_models_identical(lean, oracle, f"{solver}/{head}")
    assert_same_bits(lean._forward(X)[-1], oracle._forward(X)[-1], "fitted forward pass")


class TestSharedCoreAgainstOracle:
    @given(**CORE_CASE)
    @settings(max_examples=60, deadline=None)
    def test_loss_and_gradient_bitwise_equal(self, **case):
        _check_core_matches_oracle(**case)

    @pytest.mark.kernels
    @given(**CORE_CASE)
    @settings(max_examples=1500, deadline=None)
    def test_loss_and_gradient_bitwise_equal_exhaustive(self, **case):
        _check_core_matches_oracle(**case)

    @given(**FIT_CASE)
    @settings(max_examples=20, deadline=None)
    def test_fit_bitwise_equal_to_oracle_driven_fit(self, **case):
        _check_fit_matches_oracle_fit(**case)

    @pytest.mark.kernels
    @given(**FIT_CASE)
    @settings(max_examples=300, deadline=None)
    def test_fit_bitwise_equal_to_oracle_driven_fit_exhaustive(self, **case):
        _check_fit_matches_oracle_fit(**case)


class TestFirstBackwardStep:
    """Binary and regression heads: the first backward step is a broadcast multiply.

    Its inner dimension is 1, so it replaces ``delta @ W.T`` with a product
    per element, which is ``-0.0`` where GEMM gives ``+0.0``.  The gradients
    must keep the oracle's bytes, signed zeros included: the output deltas
    are exactly zero on most rows (on every row of the first fold) and the
    last layer has negative weights, so such products occur.
    """

    @pytest.mark.parametrize("head", ["logistic", "identity"])
    @pytest.mark.parametrize("width, n_rows, hidden", [(1, 400, 50), (5, 400, 50), (4, 7, 3)])
    def test_gradients_keep_the_oracle_bytes(self, head, width, n_rows, hidden):
        rng = np.random.default_rng(width * n_rows + hidden)
        cls, n_classes = HEADS[head]
        model = cls(activation="tanh")
        model.classes_ = np.arange(n_classes)
        folds = []
        for fold in range(width):
            coefs = [rng.normal(size=(6, hidden)) * 3.0, rng.normal(size=(hidden, 1)) * 30.0]
            intercepts = [rng.normal(size=hidden), rng.normal(size=1)]
            X = rng.normal(size=(n_rows, 6))
            out = ReferenceNet(coefs, intercepts, "tanh", head, 1e-4)._forward(X)[-1]
            # Targets equal to the output on most rows: exact zero deltas.
            y = np.where(rng.random((n_rows, 1)) < (0.7 if fold else 1.0), out, 1.0 - out)
            if head == "logistic":
                y = y.round()
            folds.append((coefs, intercepts, X, y))
        expected = []
        for coefs, intercepts, X, y in folds:
            _, coef_grads, intercept_grads = ReferenceNet(
                coefs, intercepts, "tanh", head, 1e-4
            )._backprop(X, y)
            expected.append(_flat([*coef_grads, *intercept_grads]))
            model.coefs_, model.intercepts_, model.alpha = coefs, intercepts, 1e-4
            _, coef_grads, intercept_grads = model._backprop(X, y)
            assert _flat([*coef_grads, *intercept_grads]).tobytes() == expected[-1].tobytes()
        coefs = [np.stack([fold[0][l] for fold in folds]) for l in range(2)]
        intercepts = [np.stack([fold[1][l] for fold in folds])[:, None, :] for l in range(2)]
        grads = [np.empty_like(p) for p in (*coefs, *intercepts)]
        _loss_and_gradients(
            np.stack([fold[2] for fold in folds]),
            np.stack([fold[3] for fold in folds]),
            coefs,
            intercepts,
            np.full(width, 1e-4),
            1e-4 / n_rows,
            model._kernel(),
            grads,
        )
        for i, gradient in enumerate(expected):
            assert _flat([g[i] for g in grads]).tobytes() == gradient.tobytes(), f"fold {i}"
