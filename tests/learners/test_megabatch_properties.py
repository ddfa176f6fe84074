"""Property-based equivalence sweep for rung-level mega-batching.

These sweeps prove ``fit_mlp_trials`` at any width — one trial
(``test_batched_properties.py`` covers that width in depth) up to a
rung — is bitwise-equal to the per-fold oracle loop (``reference_fit``
in ``_reference_kernel.py``; ``.fit`` is itself a lane of one) run fold
by fold, for random mixes
of per-trial numeric hyperparameters sharing one architecture (the case
lanes fuse across trials), warm-started lanes, and arbitrary partitions
of a rung's trials into separate mega-batches — the exact regrouping a
different worker count, or a dead worker's re-dealt share, induces.  They run in the ``kernels`` tier
(``pytest -m kernels``), outside tier-1 — except bounded draws of the
oracle == ``fit_mlp_trials`` property (L-BFGS included) and of the
mixed-stopping lane property, which tier-1 keeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learners import MLPClassifier, MLPRegressor
from repro.learners.batched import fit_mlp_trials

from ._reference_kernel import assert_same_bits, reference_fit
from .test_batched import assert_models_identical, make_data

HIDDEN = st.sampled_from([(4,), (8,), (6, 4)])
SOLVERS = st.sampled_from(["sgd", "adam"])
ALL_SOLVERS = st.sampled_from(["lbfgs", "sgd", "adam"])
ACTIVATIONS = st.sampled_from(["relu", "tanh", "logistic"])
LR_INITS = st.sampled_from([1e-3, 3e-3, 1e-2, 3e-2])
ALPHAS = st.sampled_from([1e-5, 1e-4, 1e-2, 1.0])


def _trial_kwargs(rng, n_trials, hidden, solver, activation):
    """Per-trial configs: shared architecture, distinct numeric HPs."""
    out = []
    for _ in range(n_trials):
        out.append(
            dict(
                hidden_layer_sizes=hidden,
                solver=solver,
                activation=activation,
                learning_rate_init=float(rng.choice([1e-3, 3e-3, 1e-2, 3e-2])),
                alpha=float(rng.choice([1e-5, 1e-4, 1e-2, 1.0])),
                momentum=float(rng.choice([0.0, 0.5, 0.9])),
                max_iter=10,
            )
        )
    return out


def _build_jobs(cls, task, per_trial_kwargs, n_folds, n, d, k, seed, copies):
    """``copies`` identical nested job lists (same seeds, same fold data)."""
    X, y = make_data(task, n, d, k, seed)
    rng = np.random.default_rng(seed * 77 + 13)
    fold_idx = [rng.choice(n, size=n // n_folds, replace=False) for _ in range(n_folds)]
    builds = [[] for _ in range(copies)]
    for t, kwargs in enumerate(per_trial_kwargs):
        for build in builds:
            build.append(
                [
                    (cls(random_state=seed + 100 * t + f, **kwargs), X[idx], y[idx])
                    for f, idx in enumerate(fold_idx)
                ]
            )
    return builds


def _assert_trials_identical(trials_a, trials_b, tag):
    for t, (jobs_a, jobs_b) in enumerate(zip(trials_a, trials_b)):
        for f, ((model_a, _, _), (model_b, _, _)) in enumerate(zip(jobs_a, jobs_b)):
            assert_models_identical(model_a, model_b, f"{tag}: trial {t} fold {f}")


EQUIVALENCE_CASE = dict(
    hidden=HIDDEN,
    solver=ALL_SOLVERS,
    activation=ACTIVATIONS,
    n_trials=st.integers(min_value=1, max_value=4),  # 1: the per-trial call
    n_folds=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _check_trials_equal_sequential_fit(hidden, solver, activation, n_trials, n_folds, seed):
    rng = np.random.default_rng(seed)
    kwargs = _trial_kwargs(rng, n_trials, hidden, solver, activation)
    seq, mega = _build_jobs(
        MLPClassifier, "bin", kwargs, n_folds, n=90, d=5, k=2, seed=seed, copies=2
    )
    for jobs in seq:
        for model, Xf, yf in jobs:
            reference_fit(model, Xf, yf)
    per_trial_stats, stats = fit_mlp_trials(mega)
    _assert_trials_identical(mega, seq, "mega vs sequential")
    assert stats.trials == n_trials
    assert stats.folds == n_trials * n_folds
    assert sum(s.folds for s in per_trial_stats) == stats.folds
    # Shared architecture + shared fold shapes: every lane stacks (and,
    # past one trial, fuses across trials), so occupancy is total
    # whenever lanes count as stacked (L-BFGS lanes stack but count as
    # sequential folds, as they did before they stacked).
    assert bool(stats.batched_folds) == (solver != "lbfgs")
    if stats.batched_folds:
        assert stats.fused_folds == (stats.batched_folds if n_trials > 1 else 0)
        assert stats.occupancy == 1.0


class TestThreePathsBounded:
    @given(**EQUIVALENCE_CASE)
    @settings(max_examples=12, deadline=None)
    def test_mega_equals_per_trial_equals_sequential(self, **case):
        _check_trials_equal_sequential_fit(**case)


@pytest.mark.kernels
class TestMegaBatchSweep:
    @given(**EQUIVALENCE_CASE)
    @settings(max_examples=60, deadline=None)
    def test_mega_equals_per_trial_equals_sequential(self, **case):
        _check_trials_equal_sequential_fit(**case)

    @given(
        solver=SOLVERS,
        lr_init=LR_INITS,
        n_trials=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_regressor_divergence_bookkeeping_matches(self, solver, lr_init, n_trials, seed):
        # Large lr_init provokes divergence in some draws; flags and NaN
        # loss curves must agree bit for bit.
        kwargs = [
            dict(hidden_layer_sizes=(6,), solver=solver, learning_rate_init=lr_init, max_iter=10)
            for _ in range(n_trials)
        ]
        seq, mega = _build_jobs(
            MLPRegressor, "reg", kwargs, 3, n=80, d=5, k=0, seed=seed, copies=2
        )
        for jobs in seq:
            for model, Xf, yf in jobs:
                reference_fit(model, Xf, yf)
        fit_mlp_trials(mega)
        _assert_trials_identical(mega, seq, "mega vs sequential")


@pytest.mark.kernels
class TestWarmStartedLanes:
    @given(
        hidden=HIDDEN,
        solver=SOLVERS,
        warm_mask_seed=st.integers(min_value=0, max_value=1_000),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_warm_lanes_bitwise_equal(self, hidden, solver, warm_mask_seed, seed):
        """Random folds warm-started from donors; cold and warm mix in lanes."""
        n_trials, n_folds = 3, 3
        kwargs = [
            dict(
                hidden_layer_sizes=hidden,
                solver=solver,
                learning_rate_init=1e-3 * (t + 1),
                max_iter=8,
            )
            for t in range(n_trials)
        ]
        donor_jobs, seq, mega = _build_jobs(
            MLPClassifier, "bin", kwargs, n_folds, n=90, d=5, k=2, seed=seed, copies=3
        )
        # Donors: shorter fits of the same architectures provide states.
        donors = {}
        for t, jobs in enumerate(donor_jobs):
            for f, (model, Xf, yf) in enumerate(jobs):
                model.max_iter = 3
                model.fit(Xf, yf)
                donors[(t, f)] = (
                    [c.copy() for c in model.coefs_],
                    [i.copy() for i in model.intercepts_],
                )
        mask_rng = np.random.default_rng(warm_mask_seed)
        warm_cells = {
            (t, f)
            for t in range(n_trials)
            for f in range(n_folds)
            if mask_rng.random() < 0.5
        }
        warms = [
            {f: donors[(t, f)] for f in range(n_folds) if (t, f) in warm_cells} or None
            for t in range(n_trials)
        ]

        for t, jobs in enumerate(seq):
            for f, (model, Xf, yf) in enumerate(jobs):
                if (t, f) in warm_cells:
                    coefs, intercepts = donors[(t, f)]
                    reference_fit(model, Xf, yf, coefs_init=coefs, intercepts_init=intercepts)
                else:
                    reference_fit(model, Xf, yf)
        _, stats = fit_mlp_trials(mega, warms=warms)
        _assert_trials_identical(mega, seq, "warm mega vs sequential")
        assert stats.warm_folds == len(warm_cells)


@pytest.mark.kernels
class TestMidRungResize:
    @given(
        hidden=HIDDEN,
        solver=SOLVERS,
        split_seed=st.integers(min_value=0, max_value=1_000),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_partitioned_megabatches_equal_single_megabatch(
        self, hidden, solver, split_seed, seed
    ):
        """Another worker count, or a re-dealt share, regroups trials into
        different mega-batches; any partition must give the same bits as one batch."""
        n_trials, n_folds = 4, 3
        rng = np.random.default_rng(seed)
        kwargs = _trial_kwargs(rng, n_trials, hidden, solver, "relu")
        whole, parts = _build_jobs(
            MLPClassifier, "bin", kwargs, n_folds, n=90, d=5, k=2, seed=seed, copies=2
        )
        fit_mlp_trials(whole)

        split_rng = np.random.default_rng(split_seed)
        cut_points = sorted(
            split_rng.choice(range(1, n_trials), size=split_rng.integers(0, n_trials - 1), replace=False)
        )
        chunks, start = [], 0
        for cut in list(cut_points) + [n_trials]:
            chunks.append(parts[start:cut])
            start = cut
        for chunk in chunks:
            if chunk:
                fit_mlp_trials(chunk)
        _assert_trials_identical(parts, whole, "partitioned vs single mega-batch")


# -- folds that stop at different epochs inside one lane ----------------------
#
# ``tol``, ``n_iter_no_change`` and ``learning_rate_init`` are per-fold
# values the lane carries in its control arrays, so trials that differ in
# them share one lane and their folds finish — stall out, collapse the
# adaptive schedule, early-stop or diverge — at different epochs, each
# compacting out while the rest train on.  Epoch orders are drawn eight
# epochs per generator call and the order block compacts with the lane,
# so ``max_iter`` 9 and 17 with patiences up to 9 put exits before, at and
# after a block boundary.

SCHEDULE_SOLVERS = st.sampled_from(
    [("adam", "constant"), ("sgd", "constant"), ("sgd", "adaptive")]
)
STOPPING_CASE = dict(
    cls=st.sampled_from([MLPClassifier, MLPRegressor]),
    solver_schedule=SCHEDULE_SOLVERS,
    early_stopping=st.booleans(),
    tols=st.lists(st.sampled_from([0.0, 1e-4, 1e-2, 10.0]), min_size=2, max_size=4),
    patiences=st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4),
    lr_inits=st.lists(st.sampled_from([1e-3, 1e-2, 5e-2, 50.0]), min_size=4, max_size=4),
    max_iter=st.sampled_from([9, 15, 17]),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _check_mixed_stopping_lane(
    cls, solver_schedule, early_stopping, tols, patiences, lr_inits, seed, max_iter=15
):
    """One lane of trials that differ only in stopping knobs and step size.

    Returns the lane's per-fold ``n_iter_`` values, so callers can check
    that folds really did leave the lane at different epochs.
    """
    solver, schedule = solver_schedule
    kwargs = [
        dict(
            hidden_layer_sizes=(6,),
            solver=solver,
            learning_rate=schedule,
            early_stopping=early_stopping,
            tol=tol,
            n_iter_no_change=patience,
            learning_rate_init=lr_init,
            max_iter=max_iter,
        )
        for tol, patience, lr_init in zip(tols, patiences, lr_inits)
    ]
    task = "reg" if cls is MLPRegressor else "bin"
    seq, mega = _build_jobs(cls, task, kwargs, 3, n=90, d=5, k=2, seed=seed, copies=2)
    for jobs in seq:
        for model, Xf, yf in jobs:
            reference_fit(model, Xf, yf)
    _, stats = fit_mlp_trials(mega)
    assert stats.lanes == 1 and stats.batched_folds == stats.folds
    n_iters = []
    for t, (jobs_seq, jobs_mega) in enumerate(zip(seq, mega)):
        for f, ((a, _, _), (b, _, _)) in enumerate(zip(jobs_mega, jobs_seq)):
            tag = f"trial {t} fold {f}"
            for ca, cb in zip(a.coefs_, b.coefs_):
                assert_same_bits(ca, cb, f"{tag}: coefs")
            for ia, ib in zip(a.intercepts_, b.intercepts_):
                assert_same_bits(ia, ib, f"{tag}: intercepts")
            assert_same_bits(a.loss_curve_, b.loss_curve_, f"{tag}: loss curve")
            assert all(type(v) is float for v in a.loss_curve_), f"{tag}: loss curve types"
            assert all(type(v) is float for v in b.loss_curve_), f"{tag}: oracle loss curve types"
            assert a.validation_scores_ == b.validation_scores_, f"{tag}: validation scores"
            assert a.n_iter_ == b.n_iter_, f"{tag}: n_iter"
            assert a.diverged_ == b.diverged_, f"{tag}: diverged flag"
            assert_same_bits(a.loss_, b.loss_, f"{tag}: loss")
            n_iters.append(a.n_iter_)
    return n_iters


class TestMixedStoppingLaneBounded:
    @given(**STOPPING_CASE)
    @settings(max_examples=10, deadline=None)
    def test_lane_equals_sequential_fit(self, **case):
        _check_mixed_stopping_lane(**case)

    @pytest.mark.parametrize(
        "cls, solver_schedule, tols, patiences, lr_inits, n_exits",
        [
            # A stall-prone, a patient, a divergent and a slow trial: the
            # lane compacts at three different epochs, then runs out.
            (MLPRegressor, ("sgd", "constant"), [10.0, 10.0, 0.0, 1e-4], [1, 4, 5, 2],
             [1e-2, 1e-2, 50.0, 1e-3], 3),
            # The adaptive schedule: one trial collapses its rate and
            # stops, one decays every third epoch and trains on.
            (MLPClassifier, ("sgd", "adaptive"), [10.0, 10.0, 0.0], [1, 3, 3],
             [1e-2, 5e-2, 1e-3], 2),
        ],
    )
    def test_folds_leave_the_lane_at_different_epochs(
        self, cls, solver_schedule, tols, patiences, lr_inits, n_exits
    ):
        n_iters = _check_mixed_stopping_lane(
            cls, solver_schedule, False, tols, patiences, lr_inits, seed=3
        )
        assert len(set(n_iters)) >= n_exits

    @pytest.mark.parametrize("max_iter", [9, 17])
    @pytest.mark.parametrize("solver_schedule", [("adam", "constant"), ("sgd", "constant")])
    def test_folds_leave_before_at_and_after_a_block_boundary(self, solver_schedule, max_iter):
        # tol 10 never improves after the first epoch, so a fold stops after
        # exactly 1 + patience epochs: 4 (inside the first block), 8 (its
        # last epoch) and 9 (one epoch into the second, so the survivors'
        # orders come from the compacted block); tol 0 trains on.
        n_iters = _check_mixed_stopping_lane(
            MLPClassifier, solver_schedule, False, [10.0, 10.0, 10.0, 0.0], [3, 7, 8, 9],
            [1e-2, 1e-2, 1e-2, 1e-3], seed=3, max_iter=max_iter,
        )
        assert n_iters[:9] == [4] * 3 + [8] * 3 + [9] * 3
        assert min(n_iters[9:]) >= min(10, max_iter)


@pytest.mark.kernels
class TestMixedStoppingLaneSweep:
    @given(**STOPPING_CASE)
    @settings(max_examples=150, deadline=None)
    def test_lane_equals_sequential_fit(self, **case):
        _check_mixed_stopping_lane(**case)
