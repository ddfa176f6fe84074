"""Batched fold kernels: bitwise equivalence with the per-fold oracle loop.

:func:`repro.learners.batched.fit_mlp_folds` stacks the per-fold weight
tensors of equal-shape folds into 3-D arrays and trains every lane with
one set of batched matmuls per step.  Because equal-shape stacked matmul
produces bit-identical slices (unlike padded GEMM, which does not — see
docs/PERFORMANCE.md), the batched path must match a per-fold loop
*exactly*: coefficients, intercepts, loss curves, iteration counts,
divergence flags, validation scores.  ``.fit`` is itself a lane of one,
so the per-fold side is :func:`reference_fit`, the independent loop
kept in ``_reference_kernel.py``.  These tests pin that contract across
solvers, tasks, learning-rate schedules, early stopping, divergence and
unequal fold sizes.
"""

import numpy as np
import pytest

from repro.learners import MLPClassifier, MLPRegressor
from repro.learners.batched import BatchedFitStats, batchable_model, fit_mlp_folds, fit_mlp_trials

from ._reference_kernel import reference_fit


def make_data(task, n, d, k, seed):
    r = np.random.default_rng(seed)
    X = r.normal(size=(n, d))
    if task == "reg":
        y = X @ r.normal(size=d) + 0.1 * r.normal(size=n)
    elif task == "bin":
        y = (X[:, 0] + 0.3 * r.normal(size=n) > 0).astype(int)
    else:
        y = r.integers(0, k, size=n)
    return X, y


def assert_models_identical(a, b, tag=""):
    """Bitwise comparison of every fitted attribute the evaluator reads."""
    assert len(a.coefs_) == len(b.coefs_), f"{tag}: layer count"
    for layer, (ca, cb) in enumerate(zip(a.coefs_, b.coefs_)):
        assert ca.shape == cb.shape, f"{tag}: coef shape layer {layer}"
        assert np.array_equal(ca, cb, equal_nan=True), f"{tag}: coefs layer {layer}"
    for layer, (ia, ib) in enumerate(zip(a.intercepts_, b.intercepts_)):
        assert np.array_equal(ia, ib, equal_nan=True), f"{tag}: intercepts layer {layer}"
    assert a.loss_curve_ == b.loss_curve_, f"{tag}: loss curve"
    assert a.validation_scores_ == b.validation_scores_, f"{tag}: validation scores"
    assert a.diverged_ == b.diverged_, f"{tag}: diverged flag"
    assert a.n_iter_ == b.n_iter_, f"{tag}: n_iter"
    assert a.loss_ == b.loss_ or (np.isnan(a.loss_) and np.isnan(b.loss_)), f"{tag}: loss"


def build_jobs(cls, task, n_folds, kwargs, n=100, d=6, k=3, unequal=False, seed=0):
    """Two identical job lists (same seeds, same fold data) for both paths."""
    X, y = make_data(task, n, d, k, seed)
    jobs_seq, jobs_bat = [], []
    for f in range(n_folds):
        size = n // n_folds + (1 if (unequal and f == 0) else 0)
        idx = np.random.default_rng(1000 + f).choice(n, size=min(size, n), replace=False)
        jobs_seq.append((cls(random_state=7000 + f, **kwargs), X[idx], y[idx]))
        jobs_bat.append((cls(random_state=7000 + f, **kwargs), X[idx], y[idx]))
    return jobs_seq, jobs_bat


CASES = {
    "adam-bin": (MLPClassifier, "bin", 4, dict(hidden_layer_sizes=(8,), solver="adam", max_iter=20), {}),
    "adam-multi-deep": (MLPClassifier, "multi", 4, dict(hidden_layer_sizes=(8, 5), solver="adam", max_iter=20), {}),
    "adam-reg": (MLPRegressor, "reg", 4, dict(hidden_layer_sizes=(10,), solver="adam", max_iter=20), {}),
    "sgd-constant": (MLPClassifier, "multi", 4, dict(hidden_layer_sizes=(8,), solver="sgd", learning_rate="constant", max_iter=20), {}),
    "sgd-invscaling": (MLPClassifier, "bin", 4, dict(hidden_layer_sizes=(8,), solver="sgd", learning_rate="invscaling", max_iter=20), {}),
    "sgd-adaptive": (MLPRegressor, "reg", 4, dict(hidden_layer_sizes=(6,), solver="sgd", learning_rate="adaptive", max_iter=60, learning_rate_init=0.05), {}),
    "adam-early-stopping": (MLPClassifier, "multi", 4, dict(hidden_layer_sizes=(8,), solver="adam", max_iter=40, early_stopping=True), {}),
    "sgd-es-adaptive": (MLPClassifier, "bin", 4, dict(hidden_layer_sizes=(8,), solver="sgd", learning_rate="adaptive", max_iter=40, early_stopping=True), {}),
    "adam-unequal-folds": (MLPClassifier, "multi", 4, dict(hidden_layer_sizes=(8,), solver="adam", max_iter=15), dict(n=101, unequal=True)),
    "sgd-divergence": (MLPRegressor, "reg", 3, dict(hidden_layer_sizes=(8,), solver="sgd", learning_rate_init=50.0, max_iter=30), {}),
    "adam-noshuffle": (MLPClassifier, "multi", 3, dict(hidden_layer_sizes=(8,), solver="adam", max_iter=15, shuffle=False), {}),
    "adam-batch32": (MLPClassifier, "multi", 4, dict(hidden_layer_sizes=(8,), solver="adam", max_iter=15, batch_size=32), {}),
}


class TestEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batched_matches_sequential(self, case):
        cls, task, n_folds, kwargs, extra = CASES[case]
        jobs_seq, jobs_bat = build_jobs(cls, task, n_folds, kwargs, seed=abs(hash(case)) % 2**32, **extra)
        for model, X, y in jobs_seq:
            reference_fit(model, X, y)
        stats = fit_mlp_folds(jobs_bat)
        assert stats.batched_folds + stats.sequential_folds == n_folds
        if not extra.get("unequal"):
            assert stats.batched_folds == n_folds
        for i, (a, b) in enumerate(zip(jobs_seq, jobs_bat)):
            assert_models_identical(a[0], b[0], f"{case} fold {i}")

    def test_folds_holding_different_labels_in_one_call(self):
        """One label encoding per call: each fold keeps the labels it holds."""
        X, y = make_data("multi", 120, 5, 4, seed=4)
        y = np.array(["a", "b", "c", "d"])[y]
        subsets = [("a", "b", "c", "d"), ("a", "c"), ("b", "c", "d"), ("a", "b", "d"), ("b", "c", "d")]
        kwargs = dict(hidden_layer_sizes=(6,), solver="adam", max_iter=8)
        trials = {"seq": [], "bat": []}
        for side in trials:
            jobs = []
            for f, labels in enumerate(subsets):
                rows = np.flatnonzero(np.isin(y, labels))[:40]
                jobs.append((MLPClassifier(random_state=f, **kwargs), X[rows], y[rows]))
            regressor = MLPRegressor(random_state=9, **kwargs)
            trials[side] = [jobs[:2], [(regressor, X[:40], X[:40, 0])], jobs[2:]]
        for jobs in trials["seq"]:
            for model, X_fold, y_fold in jobs:
                reference_fit(model, X_fold, y_fold)
        fit_mlp_trials(trials["bat"])
        for seq_jobs, bat_jobs in zip(trials["seq"], trials["bat"]):
            for (a, _, _), (b, _, _) in zip(seq_jobs, bat_jobs):
                assert_models_identical(a, b, "label subset")
                if isinstance(a, MLPClassifier):
                    assert a.classes_.dtype == b.classes_.dtype
                    assert a.classes_.tolist() == b.classes_.tolist()
                    assert b.predict(X).tolist() == a.predict(X).tolist()

    def test_unequal_fold_sizes_split_into_lanes(self):
        cls, task, n_folds, kwargs, extra = CASES["adam-unequal-folds"]
        _, jobs = build_jobs(cls, task, n_folds, kwargs, seed=1, **extra)
        stats = fit_mlp_folds(jobs)
        # fold 0 has one extra row, so it trains in its own (singleton) lane
        # — never padded.  A lane of one counts as sequential, not stacked.
        assert stats.lanes == 2
        assert stats.batched_folds == n_folds - 1
        assert stats.sequential_folds == 1

    def test_divergent_fold_leaves_lane_without_disturbing_others(self):
        cls, task, n_folds, kwargs, extra = CASES["sgd-divergence"]
        jobs_seq, jobs_bat = build_jobs(cls, task, n_folds, kwargs, seed=2, **extra)
        for model, X, y in jobs_seq:
            reference_fit(model, X, y)
        fit_mlp_folds(jobs_bat)
        assert any(j[0].diverged_ for j in jobs_seq), "case must actually diverge"
        for i, (a, b) in enumerate(zip(jobs_seq, jobs_bat)):
            assert_models_identical(a[0], b[0], f"divergence fold {i}")


class TestFallbacks:
    def test_lbfgs_lane_counts_as_stacked(self):
        jobs_seq, jobs_bat = build_jobs(
            MLPClassifier, "multi", 3, dict(hidden_layer_sizes=(6,), solver="lbfgs", max_iter=30), seed=3
        )
        for model, X, y in jobs_seq:
            reference_fit(model, X, y)
        stats = fit_mlp_folds(jobs_bat)
        # The three folds train as one stacked lane and count as such
        # (``MegaBatchStats``), like sgd / adam folds.
        assert stats.lanes == 1
        assert stats.batched_folds == 3
        assert stats.sequential_folds == 0
        for i, (a, b) in enumerate(zip(jobs_seq, jobs_bat)):
            assert_models_identical(a[0], b[0], f"lbfgs fold {i}")

    def test_batchable_model(self):
        assert batchable_model(MLPClassifier(solver="adam"))
        assert batchable_model(MLPRegressor(solver="sgd"))
        assert not batchable_model(MLPClassifier(solver="lbfgs"))
        assert not batchable_model(object())

    def test_empty_jobs(self):
        stats = fit_mlp_folds([])
        assert stats.folds == 0 and stats.lanes == 0


class TestWarmStart:
    def test_warm_initialisation_matches_sequential_warm_fit(self):
        X, y = make_data("multi", 120, 6, 3, seed=99)
        donor = MLPClassifier(
            hidden_layer_sizes=(8,), solver="adam", max_iter=10, random_state=5
        ).fit(X[:50], y[:50])
        warm = {
            f: ([c.copy() for c in donor.coefs_], [b.copy() for b in donor.intercepts_])
            for f in range(3)
        }
        jobs_seq, jobs_bat = [], []
        for f in range(3):
            idx = np.random.default_rng(50 + f).choice(120, size=30, replace=False)
            kwargs = dict(hidden_layer_sizes=(8,), solver="adam", max_iter=15, random_state=800 + f)
            jobs_seq.append((MLPClassifier(**kwargs), X[idx], y[idx]))
            jobs_bat.append((MLPClassifier(**kwargs), X[idx], y[idx]))
        for f, (model, Xf, yf) in enumerate(jobs_seq):
            reference_fit(model, Xf, yf, coefs_init=warm[f][0], intercepts_init=warm[f][1])
        stats = fit_mlp_folds(jobs_bat, warm=warm)
        assert stats.warm_folds == 3
        for i, (a, b) in enumerate(zip(jobs_seq, jobs_bat)):
            assert_models_identical(a[0], b[0], f"warm fold {i}")

    def test_mismatched_warm_shapes_fall_back_to_cold_init(self):
        X, y = make_data("bin", 80, 5, 2, seed=4)
        donor = MLPClassifier(hidden_layer_sizes=(3,), solver="adam", max_iter=5, random_state=0).fit(X, y)
        warm = {0: ([c.copy() for c in donor.coefs_], [b.copy() for b in donor.intercepts_])}
        cold = MLPClassifier(hidden_layer_sizes=(8,), solver="adam", max_iter=10, random_state=1)
        warm_model = MLPClassifier(hidden_layer_sizes=(8,), solver="adam", max_iter=10, random_state=1)
        reference_fit(cold, X, y)
        fit_mlp_folds([(warm_model, X, y)], warm=warm)
        assert_models_identical(cold, warm_model, "shape-mismatched warm")


class TestStats:
    def test_as_dict_round_trip(self):
        stats = BatchedFitStats()
        stats.folds, stats.lanes = 5, 2
        stats.batched_folds, stats.sequential_folds, stats.warm_folds = 4, 1, 2
        assert stats.as_dict() == {
            "folds": 5,
            "lanes": 2,
            "batched_folds": 4,
            "sequential_folds": 1,
            "warm_folds": 2,
        }
