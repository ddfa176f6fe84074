"""Split lanes: a wide lane trained as two halves on two threads keeps every bit.

``fit_mlp_trials`` splits a stochastic lane wide enough that each half
stacks ``_SPLIT_MIN_ROWS`` training rows into two contiguous halves and
trains one on the calling thread, one on the helper thread.  These tests
drop the threshold to zero (and report two CPUs) so that every lane of
four or more folds splits, then hold the split fit to the unsplit fit and
to ``.fit`` through the per-epoch oracle in ``_reference_kernel.py``,
bitwise; check that a helper's exception reaches the caller and the
engine's per-trial retry; that pool workers, forked or spawned, never
claim the helper; and that searches do not leak threads.  They run in
the ``kernels`` tier (``pytest -m kernels``), except one bounded case
that tier-1 keeps.
"""

import contextlib
import multiprocessing
import os
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.learners.batched as batched
from repro.core import MLPModelFactory
from repro.core.enhanced import make_searcher
from repro.datasets import make_classification
from repro.engine import ParallelExecutor, SerialExecutor, TrialEngine
from repro.learners import MLPClassifier, MLPRegressor
from repro.learners.batched import fit_mlp_trials
from repro.obs import flightrec
from repro.space import Categorical, SearchSpace

from ._reference_kernel import reference_fit_stochastic
from .test_batched import assert_models_identical, make_data


class _OracleClassifier(MLPClassifier):
    _fit_stochastic = reference_fit_stochastic


class _OracleRegressor(MLPRegressor):
    _fit_stochastic = reference_fit_stochastic


ORACLES = {MLPClassifier: _OracleClassifier, MLPRegressor: _OracleRegressor}


@contextlib.contextmanager
def _splitting_every_lane():
    """Split every stochastic lane of four or more folds, on any box.

    Yields the list of ``(width, on_helper)`` pairs, one per stacked
    ``_fit_lane`` call, in call order.
    """
    calls = []
    fit_lane = batched._fit_lane

    def spy(members):
        calls.append((len(members), threading.current_thread().name.startswith("repro-lane-helper")))
        fit_lane(members)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "_SPLIT_MIN_ROWS", 0)
        mp.setattr(batched, "_cpus", lambda: 2)
        mp.setattr(batched, "_fit_lane", spy)
        yield calls


@pytest.fixture
def split_every_lane():
    with _splitting_every_lane() as calls:
        yield calls


def _jobs(cls, kwargs_per_trial, widths, n_rows, seed, model_cls=None):
    """One trial per kwargs, ``widths[t]`` folds of ``n_rows`` rows each."""
    X, y = make_data("reg" if cls is MLPRegressor else "bin", 4 * n_rows, 5, 2, seed)
    rng = np.random.default_rng(seed)
    trials = []
    for t, (kwargs, width) in enumerate(zip(kwargs_per_trial, widths)):
        folds = [rng.choice(len(X), size=n_rows, replace=False) for _ in range(width)]
        trials.append(
            [((model_cls or cls)(random_state=seed + 100 * t + f, **kwargs), X[idx], y[idx])
             for f, idx in enumerate(folds)]
        )
    return trials


def _warms(trials, mask_seed):
    """Warm starts for a random half of the folds, from short donor fits."""
    mask = np.random.default_rng(mask_seed)
    warms = []
    for jobs in trials:
        warm = {}
        for f, (model, Xf, yf) in enumerate(jobs):
            if mask.random() < 0.5:
                donor = type(model)(**{**model.get_params(), "max_iter": 2}).fit(Xf, yf)
                warm[f] = ([c.copy() for c in donor.coefs_], [i.copy() for i in donor.intercepts_])
        warms.append(warm or None)
    return warms


def _check_split_equals_unsplit_equals_fit(
    cls, solver_schedule, nesterov, early_stopping, tols, patiences, lr_inits, widths,
    max_iter, warm_seed, seed, calls,
):
    """Split, unsplit and per-fold oracle ``.fit`` agree bitwise.

    Returns the split fit's stats, its ``(width, on_helper)`` calls and
    every fold's ``n_iter_``.
    """
    solver, schedule = solver_schedule
    kwargs = [
        dict(
            hidden_layer_sizes=(6,),
            solver=solver,
            learning_rate=schedule,
            nesterovs_momentum=nesterov,
            momentum=0.9,
            early_stopping=early_stopping,
            tol=tol,
            n_iter_no_change=patience,
            learning_rate_init=lr_init,
            max_iter=max_iter,
            batch_size=16,
        )
        for tol, patience, lr_init in zip(tols, patiences, lr_inits)
    ]
    widths = widths[: len(kwargs)]
    build = lambda model_cls=None: _jobs(cls, kwargs, widths, 40, seed, model_cls)  # noqa: E731
    split, unsplit, oracle = build(), build(), build(ORACLES[cls])
    warms = _warms(build(), warm_seed) if warm_seed is not None else [None] * len(kwargs)

    _, split_stats = fit_mlp_trials(split, warms)
    split_calls = list(calls)
    assert sum(width for width, _ in split_calls) == sum(widths)  # one lane, every fold stacked
    assert any(helper for _, helper in split_calls)
    assert min(width for width, _ in split_calls) >= 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "_SPLIT_MIN_ROWS", 10**12)
        del calls[:]
        _, unsplit_stats = fit_mlp_trials(unsplit, warms)
        assert calls == [(sum(widths), False)]
    for t, jobs in enumerate(oracle):
        for f, (model, Xf, yf) in enumerate(jobs):
            coefs, intercepts = (warms[t] or {}).get(f, (None, None))
            model.fit(Xf, yf, coefs_init=coefs, intercepts_init=intercepts)

    assert split_stats.as_dict() == unsplit_stats.as_dict()  # the logical lane
    for t in range(len(kwargs)):
        for f in range(widths[t]):
            tag = f"trial {t} fold {f}"
            assert_models_identical(split[t][f][0], unsplit[t][f][0], f"{tag}: split vs unsplit")
            assert_models_identical(split[t][f][0], oracle[t][f][0], f"{tag}: split vs oracle .fit")
    n_iters = [split[t][f][0].n_iter_ for t in range(len(kwargs)) for f in range(widths[t])]
    return split_stats, split_calls, n_iters


SPLIT_CASE = dict(
    cls=st.sampled_from([MLPClassifier, MLPRegressor]),
    solver_schedule=st.sampled_from(
        [("adam", "constant"), ("sgd", "constant"), ("sgd", "invscaling"), ("sgd", "adaptive")]
    ),
    nesterov=st.booleans(),
    early_stopping=st.booleans(),
    tols=st.lists(st.sampled_from([0.0, 1e-4, 1e-2, 10.0]), min_size=1, max_size=3),
    patiences=st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=3),
    lr_inits=st.lists(st.sampled_from([1e-3, 1e-2, 5e-2, 50.0]), min_size=3, max_size=3),
    # Odd and even totals from 4 (two halves of two) up.
    widths=st.lists(st.integers(min_value=4, max_value=7), min_size=3, max_size=3),
    max_iter=st.sampled_from([7, 9, 17]),
    warm_seed=st.none() | st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestSplitLaneBounded:
    def test_odd_lane_splits_bitwise(self, split_every_lane):
        # Five adam folds of one trial: halves of two and three, one per thread.
        stats, calls, _ = _check_split_equals_unsplit_equals_fit(
            MLPClassifier, ("adam", "constant"), True, False, [1e-4], [3], [1e-2], [5],
            max_iter=9, warm_seed=None, seed=1, calls=split_every_lane,
        )
        assert sorted(width for width, _ in calls) == [2, 3]
        assert {helper for _, helper in calls} == {False, True}
        assert stats.lanes == 1 and stats.max_lane_width == 5


@pytest.mark.kernels
class TestSplitLaneSweep:
    @given(**SPLIT_CASE)
    @settings(max_examples=150, deadline=None)
    def test_split_equals_unsplit_equals_fit(self, **case):
        with _splitting_every_lane() as calls:
            _check_split_equals_unsplit_equals_fit(**case, calls=calls)

    @pytest.mark.parametrize("max_iter", [9, 17])
    @pytest.mark.parametrize("solver_schedule", [("adam", "constant"), ("sgd", "constant")])
    def test_folds_leave_before_at_and_after_a_block_boundary(
        self, split_every_lane, solver_schedule, max_iter
    ):
        # tol 10 never improves after the first epoch, so a fold stops after
        # 1 + patience epochs: 4 (inside the first 8-epoch order block), 8
        # (its last epoch) and 9 (one into the second); tol 0 trains on.
        # Each trial's folds straddle the halves' boundary.
        _, _, n_iters = _check_split_equals_unsplit_equals_fit(
            MLPClassifier, solver_schedule, False, False, [10.0, 10.0, 0.0], [3, 7, 8],
            [1e-2, 1e-2, 1e-3], [3, 3, 3], max_iter=max_iter, warm_seed=None, seed=3,
            calls=split_every_lane,
        )
        assert n_iters[:6] == [4] * 3 + [8] * 3
        assert min(n_iters[6:]) >= min(9, max_iter)

    def test_lbfgs_and_narrow_lanes_stay_on_the_calling_thread(self, split_every_lane):
        lbfgs = [dict(hidden_layer_sizes=(4,), solver="lbfgs", max_iter=5)]
        narrow = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=5)]
        fit_mlp_trials(_jobs(MLPClassifier, lbfgs, [8], 30, 0) + _jobs(MLPClassifier, narrow, [3], 30, 0))
        assert split_every_lane == [(3, False)]

    def test_threshold_counts_the_rows_of_a_half(self, split_every_lane, monkeypatch):
        monkeypatch.setattr(batched, "_SPLIT_MIN_ROWS", 4 * 30)
        kwargs = [dict(hidden_layer_sizes=(4,), solver="sgd", max_iter=3)]
        fit_mlp_trials(_jobs(MLPClassifier, kwargs, [9], 30, 0))  # halves of 4 x 30 rows
        assert sorted(width for width, _ in split_every_lane) == [4, 5]
        del split_every_lane[:]
        fit_mlp_trials(_jobs(MLPClassifier, kwargs, [7], 30, 0))  # 3 x 30 is too few
        assert split_every_lane == [(7, False)]


# -- the helper's lifecycle and the engine around it --------------------------

#: One architecture, sixteen optimiser settings: every fold can fuse.
SPACE = SearchSpace(
    [
        Categorical("learning_rate_init", [1e-3, 2e-3, 3e-3, 5e-3]),
        Categorical("alpha", [1e-6, 1e-5]),
        Categorical("momentum", [0.3, 0.5]),
    ]
)


def _search(executor=None, method="sha"):
    """A seeded search over the 16 configurations; per-trial ``(key, budget, score)``."""
    X, y = make_classification(n_samples=120, n_features=6, random_state=0)
    with TrialEngine(executor=executor or SerialExecutor()) as engine:
        searcher = make_searcher(
            method, SPACE, X, y,
            model_factory=MLPModelFactory(max_iter=4),
            random_state=0,
            engine=engine,
        )
        result = searcher.fit(configurations=SPACE.grid())
    return [(t.key, t.budget_fraction, t.result.score) for t in result.trials]


def _claims_in_child(queue) -> None:
    """Run in a ``multiprocessing`` child: may this process claim the helper?"""
    claimed = batched._HELPER.claim()
    if claimed:
        batched._HELPER.release()
    queue.put(claimed)


@pytest.mark.kernels
class TestHelperLifecycle:
    def test_helper_exception_reaches_the_caller(self, split_every_lane, monkeypatch):
        def fail_on_helper(members):
            if threading.current_thread().name.startswith("repro-lane-helper"):
                raise FloatingPointError("helper half")
            for plan in members:
                plan.model.n_iter_ = -1

        monkeypatch.setattr(batched, "_fit_lane", fail_on_helper)
        kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
        jobs = _jobs(MLPClassifier, kwargs, [6], 30, 0)
        with pytest.raises(FloatingPointError, match="helper half"):
            fit_mlp_trials(jobs)
        # The calling thread's half finished before the error surfaced, and the
        # helper is free again.
        assert [getattr(model, "n_iter_", None) for model, _, _ in jobs[0]] == [None] * 3 + [-1] * 3
        assert batched._HELPER.claim()
        batched._HELPER.release()

    def test_helper_exception_takes_the_per_trial_retry(self, split_every_lane, monkeypatch):
        expected = _search()
        assert any(helper for _, helper in split_every_lane)
        fit_lane, raised, retries = batched._fit_lane, [], []

        def fail_once_on_helper(members):
            if not raised and threading.current_thread().name.startswith("repro-lane-helper"):
                raised.append(True)
                raise FloatingPointError("helper half")
            fit_lane(members)

        note = flightrec.note
        monkeypatch.setattr(batched, "_fit_lane", fail_once_on_helper)
        monkeypatch.setattr(
            flightrec, "note", lambda kind, **fields: (retries.append(kind), note(kind, **fields))
        )
        assert _search() == expected
        assert raised and "executor.rung_retry" in retries

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_workers_never_claim_the_helper(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable on this platform")
        context = multiprocessing.get_context(start_method)
        queue = context.Queue()
        child = context.Process(target=_claims_in_child, args=(queue,))
        child.start()
        try:
            assert queue.get(timeout=60) is False
        finally:
            child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0

    def test_threaded_fit_then_pool_searches_equal_serial(self, split_every_lane):
        serial = _search()
        assert any(helper for _, helper in split_every_lane)  # the helper is running
        for start_method in ("fork", "spawn"):
            if start_method in multiprocessing.get_all_start_methods():
                pool = ParallelExecutor(n_workers=2, start_method=start_method)
                assert _search(pool) == serial, start_method

    def test_no_helper_on_one_cpu(self, split_every_lane, monkeypatch):
        monkeypatch.setattr(batched, "_cpus", lambda: 1)
        monkeypatch.setattr(batched, "_HELPER", batched._Helper())
        kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
        fit_mlp_trials(_jobs(MLPClassifier, kwargs, [8], 30, 0))
        assert split_every_lane == [(8, False)]
        assert batched._HELPER._executor is None

    def test_busy_helper_means_inline_not_queued(self, split_every_lane):
        assert batched._HELPER.claim()  # another job's fit holds it
        try:
            kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
            fit_mlp_trials(_jobs(MLPClassifier, kwargs, [8], 30, 0))
        finally:
            batched._HELPER.release()
        assert split_every_lane == [(8, False)]

    def test_concurrent_callers_keep_their_bits(self, split_every_lane):
        # More calling threads than cores, switching often: whichever finds
        # the helper free splits, the rest train inline, and every fold
        # keeps the bits of a lone unsplit fit.
        kwargs = [dict(hidden_layer_sizes=(5,), solver=solver, max_iter=6) for solver in ("sgd", "adam")]
        expected = _jobs(MLPClassifier, kwargs, [6, 5], 30, 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batched, "_SPLIT_MIN_ROWS", 10**12)
            fit_mlp_trials(expected)
        results, errors = [], []

        def caller():
            try:
                for _ in range(3):
                    jobs = _jobs(MLPClassifier, kwargs, [6, 5], 30, 0)
                    fit_mlp_trials(jobs)
                    results.append(jobs)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert len(results) == 12 and any(helper for _, helper in split_every_lane)
        for jobs in results:
            for t, trial in enumerate(jobs):
                for f, (model, _, _) in enumerate(trial):
                    assert_models_identical(model, expected[t][f][0], f"trial {t} fold {f}")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_forgets_the_helper(self, split_every_lane):
        kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
        fit_mlp_trials(_jobs(MLPClassifier, kwargs, [6], 30, 0))
        assert batched._HELPER._executor is not None
        assert batched._HELPER.claim()  # held across the fork, as by a busy fit
        try:
            pid = os.fork()
            if pid == 0:  # the child: a fresh helper, free, that trains again
                signal.alarm(60)
                ok = batched._HELPER._executor is None
                del split_every_lane[:]
                fit_mlp_trials(_jobs(MLPClassifier, kwargs, [6], 30, 0))
                ok = ok and any(helper for _, helper in split_every_lane)
                os._exit(0 if ok else 1)
        finally:
            batched._HELPER.release()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_searches_do_not_leak_threads(self, split_every_lane):
        _search(method="hb")
        before = threading.active_count()
        for _ in range(20):
            _search(method="hb")
        assert threading.active_count() == before
        assert any(helper for _, helper in split_every_lane)
