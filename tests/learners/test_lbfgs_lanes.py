"""``lbfgs`` lanes: every fold equals its own ``scipy.optimize.minimize`` run, bitwise.

An ``lbfgs`` lane runs one :class:`~repro.learners.solvers.LBFGSB` per
fold and answers every fold that asks in one stacked evaluation.  These
tests hold each fold's parameters, ``loss_curve_``, ``n_iter_``,
``loss_`` and ``diverged_`` to :func:`reference_fit_lbfgs` in
``_reference_kernel.py``: the per-fold ``scipy.optimize.minimize`` call
an ``lbfgs`` fold made before its lane drove ``setulb`` itself.  They
hold for any grouping of folds into calls (and so into lanes), trained
inline or dealt between the calling thread and the lane helper, on
binary, multiclass and regressor heads, at ``max_iter`` 1, ``tol`` 0,
warm-started, stopped by ``max_fun`` and with a fold whose iterate holds
NaN.  Tier-1 runs bounded examples; the ``kernels`` tier runs the sweep.
A last test holds an ``hb+`` search over ``lbfgs`` configurations to
the same search with the oracle patched into the lane.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.learners.batched as batched
import repro.learners.mlp as mlp
from repro.core import MLPModelFactory
from repro.core.enhanced import make_searcher
from repro.learners import MLPClassifier, MLPRegressor
from repro.learners.batched import fit_mlp_trials
from repro.serve import incumbent_fingerprint
from repro.space import Categorical, SearchSpace

from .._tiny_problem import SEED, SMALL, TickingClock, tiny_data
from ._reference_kernel import assert_same_bits, reference_fit, reference_fit_lbfgs
from .test_batched import make_data
from .test_split_lanes import _dealing_every_call, _inline

ROWS = 30
#: Fold inputs scaled this far overflow the gradient: the first step's
#: iterate holds NaN, and the fold diverges.
NAN_SCALE = 1e200


def _build(head, activation, max_iter, trials, seed):
    """Fold jobs per trial and their warm starts, plus a fresh copy for the oracle.

    ``trials`` holds ``(hidden, tol, alpha, max_fun, folds)`` with one
    ``(warm, nan)`` pair per fold.
    """
    cls = MLPRegressor if head == "reg" else MLPClassifier
    X, y = make_data(head, 4 * ROWS, 5, 3, seed)
    rng = np.random.default_rng(seed)
    builds, warms = ([], []), []
    for t, (hidden, tol, alpha, max_fun, folds) in enumerate(trials):
        kwargs = dict(
            hidden_layer_sizes=hidden, activation=activation, solver="lbfgs",
            max_iter=max_iter, tol=tol, alpha=alpha, max_fun=max_fun,
        )  # fmt: skip
        jobs, warm = ([], []), {}
        for f, (warm_start, nan) in enumerate(folds):
            idx = rng.choice(len(X), size=ROWS, replace=False)
            Xf, yf = X[idx] * (NAN_SCALE if nan else 1.0), y[idx]
            for copy in jobs:
                copy.append((cls(random_state=seed + 100 * t + f, **kwargs), Xf, yf))
            if warm_start:
                donor = cls(**{**kwargs, "max_iter": 2}, random_state=seed + 7).fit(Xf, yf)
                warm[f] = (donor.coefs_, donor.intercepts_)
        for build, copy in zip(builds, jobs):
            build.append(copy)
        warms.append(warm or None)
    return builds, warms


def _assert_fold_equals_oracle(got, want, tag):
    for layer, (a, b) in enumerate(zip(got.coefs_ + got.intercepts_, want.coefs_ + want.intercepts_)):
        assert a.shape == b.shape, f"{tag}: shape of tensor {layer}"
        assert_same_bits(a, b, f"{tag}: tensor {layer}")
    assert_same_bits(got.loss_curve_, want.loss_curve_, f"{tag}: loss curve")
    assert all(type(loss) is float for loss in got.loss_curve_), f"{tag}: curve types"
    assert got.n_iter_ == want.n_iter_, f"{tag}: n_iter_"
    assert_same_bits([got.loss_], [want.loss_], f"{tag}: loss_")
    assert got.diverged_ == want.diverged_, f"{tag}: diverged_"
    assert got.validation_scores_ == [], f"{tag}: validation scores"


def _check_lanes_equal_oracle(head, activation, max_iter, trials, seed, order, cuts, dealt):
    """Fit the trials in calls cut from ``order``, inline or dealt; compare with the oracle.

    Returns the oracle-fitted models, fold by fold, the warm starts and,
    when dealt, the ``(own widths, helper widths)`` of each dealt call.
    """
    (fused, oracle), warms = _build(head, activation, max_iter, trials, seed)
    bounds = [0, *sorted(set(cuts) - {0, len(order)}), len(order)]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        with _dealing_every_call() if dealt else _inline() as calls:
            for lo, hi in zip(bounds, bounds[1:]):
                chunk = order[lo:hi]
                fit_mlp_trials([fused[i] for i in chunk], [warms[i] for i in chunk])
        for jobs, warm in zip(oracle, warms):
            for f, (model, Xf, yf) in enumerate(jobs):
                coefs, intercepts = (warm or {}).get(f, (None, None))
                reference_fit(model, Xf, yf, coefs_init=coefs, intercepts_init=intercepts)
    for t, (jobs_got, jobs_want) in enumerate(zip(fused, oracle)):
        for f, ((got, _, _), (want, _, _)) in enumerate(zip(jobs_got, jobs_want)):
            _assert_fold_equals_oracle(got, want, f"trial {t} fold {f}")
    return [model for jobs in oracle for model, _, _ in jobs], warms, calls


PLAIN = ((False, False),) * 3
#: One bounded example per case: ``(head, activation, max_iter, trials, cuts,
#: check)``; ``check(models, warms)`` says the example shows its case.
CASES = {
    "multiclass": ("multi", "tanh", 15, [((4,), 1e-4, 1e-4, 15000, PLAIN)] * 2, [1],
                   lambda models, _: all(m.n_iter_ > 1 for m in models)),
    "regressor": ("reg", "relu", 15, [((3, 2), 1e-4, 1e-2, 15000, PLAIN), ((3, 2), 1e-2, 0.0, 15000, PLAIN)],
                  [], lambda models, _: all(m.n_iter_ > 1 for m in models)),
    "max-iter-1": ("bin", "logistic", 1, [((4,), 1e-4, 1e-4, 15000, PLAIN)] * 2, [],
                   lambda models, _: all(m.n_iter_ == 1 for m in models)),
    "tol-0": ("bin", "identity", 15, [((4,), 0.0, 1e-4, 15000, PLAIN), ((4,), 0.0, 1.0, 15000, PLAIN)], [],
              lambda models, _: all(m.n_iter_ == 15 for m in models)),
    "warm-start": ("multi", "relu", 15, [((4,), 1e-4, 1e-4, 15000, ((True, False), (False, False), (True, False)))],
                   [], lambda _, warms: sorted(warms[0]) == [0, 2]),
    "max-fun": ("reg", "tanh", 15, [((4,), 0.0, 1e-4, 3, PLAIN), ((4,), 0.0, 1e-4, 15000, PLAIN)], [],
                lambda models, _: all(m.n_iter_ < 15 for m in models[:3]) and models[3].n_iter_ == 15),
    "nan-iterate": ("bin", "relu", 15, [((4,), 1e-4, 1e-4, 15000, ((False, False), (False, True), (True, True)))],
                    [], lambda models, _: [m.diverged_ for m in models] == [False, True, True]
                    and all(np.isnan(m.loss_curve_).any() for m in models[1:])),
}  # fmt: skip


class TestLbfgsLanesBounded:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case_equals_oracle_inline(self, case):
        head, activation, max_iter, trials, cuts, check = CASES[case]
        order = list(range(len(trials)))
        fitted = _check_lanes_equal_oracle(head, activation, max_iter, trials, 0, order, cuts, False)
        assert check(*fitted[:2]), case

    def test_nan_iterate_counts_twice(self):
        # minimize's memo never matches an iterate that holds NaN, so it
        # evaluates each such point twice: the oracle's curve has the pairs.
        head, activation, max_iter, trials, cuts, _ = CASES["nan-iterate"]
        models, _, _ = _check_lanes_equal_oracle(head, activation, max_iter, trials, 0, [0], cuts, False)
        curve = np.asarray(models[1].loss_curve_)
        assert np.isfinite(curve[0]) and np.isnan(curve[1:]).all() and len(curve) % 2 == 1

    def test_dealt_lanes_equal_oracle(self):
        # Tiles of three of these folds: the lane of four is two tiles of two,
        # the lane of three one tile; the helper takes one of the three.
        trials = [((4,), 1e-4, 1e-4, 15000, PLAIN + ((True, False),)), ((3, 2), 0.0, 1.0, 3, PLAIN)]
        _, _, calls = _check_lanes_equal_oracle("multi", "relu", 15, trials, 1, [0, 1], [], True)
        (own, theirs), = calls
        assert sorted(own + theirs) == [2, 2, 3] and theirs

    @given(
        head=st.sampled_from(["bin", "multi", "reg"]),
        activation=st.sampled_from(["identity", "logistic", "tanh", "relu"]),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    @settings(max_examples=4, deadline=None)
    def test_any_grouping_equals_oracle(self, head, activation, seed, data):
        _sweep_example(head, activation, seed, data, dealt=False)


FOLD = st.tuples(st.integers(min_value=0, max_value=2).map(lambda v: v == 0),
                 st.integers(min_value=0, max_value=7).map(lambda v: v == 0))  # fmt: skip
TRIAL = st.tuples(
    st.sampled_from([(4,), (3, 2)]),
    st.sampled_from([0.0, 1e-4, 1e-2]),
    st.sampled_from([0.0, 1e-4, 1.0]),
    st.sampled_from([3, 15000]),
    st.lists(FOLD, min_size=1, max_size=4),
)


def _sweep_example(head, activation, seed, data, dealt):
    max_iter = data.draw(st.sampled_from([1, 2, 15]), label="max_iter")
    trials = data.draw(st.lists(TRIAL, min_size=1, max_size=4), label="trials")
    order = data.draw(st.permutations(range(len(trials))), label="order")
    cuts = data.draw(st.lists(st.integers(min_value=1, max_value=len(trials))), label="cuts")
    _check_lanes_equal_oracle(head, activation, max_iter, trials, seed, order, cuts, dealt)


@pytest.mark.kernels
class TestLbfgsLaneSweep:
    @given(
        head=st.sampled_from(["bin", "multi", "reg"]),
        activation=st.sampled_from(["identity", "logistic", "tanh", "relu"]),
        seed=st.integers(min_value=0, max_value=10_000),
        dealt=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_any_grouping_on_either_side_equals_oracle(self, head, activation, seed, dealt, data):
        _sweep_example(head, activation, seed, data, dealt)


LBFGS_GRID = SearchSpace(
    [
        Categorical("hidden_layer_sizes", [(3,), (5,)]),
        Categorical("alpha", [1e-4, 1e-2]),
        Categorical("solver", ["lbfgs", "adam"]),
    ]
)


def _hb_plus_fingerprint():
    X, y = tiny_data()
    searcher = make_searcher(
        "hb+", LBFGS_GRID, X, y,
        model_factory=MLPModelFactory(max_iter=10),
        random_state=SEED,
        evaluator_kwargs={"clock": TickingClock()},
        searcher_kwargs=SMALL["hb"],
    )  # fmt: skip
    return incumbent_fingerprint(searcher.fit(configurations=LBFGS_GRID.grid()))


def test_hb_plus_over_an_lbfgs_grid_matches_the_oracle(monkeypatch):
    """The search, fused, is the search with every ``lbfgs`` fold fitted by ``minimize``."""
    lanes = []
    real = mlp._fit_lbfgs_lane

    def counted(members, poll=None):
        lanes.append(len(members))
        real(members, poll)

    monkeypatch.setattr(mlp, "_fit_lbfgs_lane", counted)
    fused = _hb_plus_fingerprint()
    assert lanes and max(lanes) > 1  # lbfgs folds trained, stacked

    oracle_folds = []

    def oracle_lane(members, poll=None):
        for plan in members:
            oracle_folds.append(plan)
            reference_fit_lbfgs(plan.model, plan.X, plan.y_encoded)

    monkeypatch.setattr(mlp, "_fit_lbfgs_lane", oracle_lane)
    monkeypatch.setattr(batched, "_HELPER_MIN_WORK", float("inf"))  # no tile leaves this process
    assert _hb_plus_fingerprint() == fused
    assert len(oracle_folds) == sum(lanes)
