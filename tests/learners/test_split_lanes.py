"""Dealt units: folds trained in the lane-helper process keep every bit.

``fit_mlp_trials`` deals the units of a call — whole stacked lanes
(``lbfgs`` lanes too), the two halves of a lane heavier than the rest
together, and width-one folds — between the calling thread and one lane-helper
process, which receives them as data.  These tests drop the work
threshold to zero (and report two CPUs and a one-thread BLAS) so that
the helper takes a unit of every call, then hold what comes back to the inline fit and to
``.fit`` through the per-epoch oracle in ``_reference_kernel.py``,
bitwise; check that a helper killed mid-call costs nothing, that a
helper's exception reaches the caller and the engine's per-rung retry,
that pool workers and the helper itself never start a helper, that a
busy helper means inline training, and that searches leave at most one
helper.  They run in the ``kernels`` tier (``pytest -m kernels``),
except three bounded cases that tier-1 keeps.
"""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

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

from ._reference_kernel import reference_fit
from .test_batched import assert_models_identical, make_data

SRC = str(Path(batched.__file__).resolve().parents[2])


@contextlib.contextmanager
def _dealing_every_call(helper_code=None):
    """Hand the helper a unit of every call, on any box (two CPUs, one BLAS thread).

    Yields the list of ``(own widths, helper widths)`` pairs, one per call
    that used the helper.  With ``helper_code`` a fresh helper runs it
    instead of the module's entry point, and is ended on exit.
    """
    calls = []
    train = batched._LaneHelper.train

    def spy(helper, own, theirs):
        calls.append(([len(unit) for unit in own], [len(unit) for unit in theirs]))
        train(helper, own, theirs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "_HELPER_MIN_WORK", 0)
        mp.setattr(batched, "available_cpus", lambda: 2)
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        mp.setattr(batched._LaneHelper, "train", spy)
        if helper_code is not None:
            mp.setattr(batched, "_HELPER_CODE", textwrap.dedent(helper_code))
            mp.setattr(batched, "_HELPER", batched._LaneHelper())
        assert batched._HELPER.ready(timeout=60)
        try:
            yield calls
        finally:
            if helper_code is not None:
                batched._HELPER.close()


@pytest.fixture
def deal_every_call():
    with _dealing_every_call() as calls:
        yield calls


@contextlib.contextmanager
def _inline():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "_HELPER_MIN_WORK", float("inf"))
        yield


def _jobs(cls, kwargs_per_trial, widths, n_rows, seed):
    """One trial per kwargs, ``widths[t]`` folds of ``n_rows`` rows each."""
    X, y = make_data("reg" if cls is MLPRegressor else "bin", 4 * n_rows, 5, 2, seed)
    rng = np.random.default_rng(seed)
    trials = []
    for t, (kwargs, width) in enumerate(zip(kwargs_per_trial, widths)):
        folds = [rng.choice(len(X), size=n_rows, replace=False) for _ in range(width)]
        trials.append(
            [(cls(random_state=seed + 100 * t + f, **kwargs), X[idx], y[idx])
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


def _fit_with_oracle(trials, warms):
    for t, jobs in enumerate(trials):
        for f, (model, Xf, yf) in enumerate(jobs):
            coefs, intercepts = (warms[t] or {}).get(f, (None, None))
            reference_fit(model, Xf, yf, coefs_init=coefs, intercepts_init=intercepts)


def _assert_trials_identical(got, want, what):
    for t, (jobs_got, jobs_want) in enumerate(zip(got, want)):
        for f, ((a, _, _), (b, _, _)) in enumerate(zip(jobs_got, jobs_want)):
            assert_models_identical(a, b, f"trial {t} fold {f}: {what}")


def _check_dealt_equals_inline_equals_fit(
    cls, solver_schedule, nesterov, early_stopping, tols, patiences, lr_inits, widths,
    max_iter, warm_seed, seed, calls,
):
    """Dealt, inline and per-fold oracle ``.fit`` agree bitwise.

    Returns the dealt fit's stats, its ``(own, helper)`` widths and every
    fold's ``n_iter_``.
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
    build = lambda: _jobs(cls, kwargs, widths, 40, seed)  # noqa: E731
    dealt, inline, oracle = build(), build(), build()
    warms = _warms(build(), warm_seed) if warm_seed is not None else [None] * len(kwargs)

    _, dealt_stats = fit_mlp_trials(dealt, warms)
    dealt_calls = list(calls)
    # One lane, heavier than nothing else: two halves, one on each side.
    assert len(dealt_calls) == 1
    (own, theirs), = dealt_calls
    assert len(own) == len(theirs) == 1 and own[0] + theirs[0] == sum(widths)
    assert min(own + theirs) >= 2
    with _inline():
        _, inline_stats = fit_mlp_trials(inline, warms)
    assert calls == dealt_calls  # the inline fit did not use the helper
    _fit_with_oracle(oracle, warms)

    assert dealt_stats.as_dict() == inline_stats.as_dict()  # the logical lane
    _assert_trials_identical(dealt, inline, "dealt vs inline")
    _assert_trials_identical(dealt, oracle, "dealt vs oracle .fit")
    n_iters = [dealt[t][f][0].n_iter_ for t in range(len(kwargs)) for f in range(widths[t])]
    return dealt_stats, dealt_calls, n_iters


DEAL_CASE = dict(
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


def _lbfgs_trials(warm_seed):
    """Classifier and regressor ``lbfgs`` trials; the regressor's 1e8-scaled fold diverges."""
    lbfgs = dict(solver="lbfgs", max_iter=15)
    classifier = _jobs(MLPClassifier, [dict(hidden_layer_sizes=(5,), **lbfgs)], [3], 40, 2)
    X, y = make_data("reg", 160, 5, 2, 3)
    rng = np.random.default_rng(3)
    regressor = []
    for fold, scale in enumerate((1.0, 1e8, 1.0)):
        idx = rng.choice(len(X), size=40, replace=False)
        model = MLPRegressor(hidden_layer_sizes=(4,), random_state=fold, **lbfgs)
        regressor.append((model, X[idx], y[idx] * scale))
    trials = classifier + [regressor]
    return trials, _warms(trials, warm_seed)


class TestSplitLaneBounded:
    def test_odd_lane_splits_bitwise(self, deal_every_call):
        # Five adam folds of one trial: halves of two and three, one on each side.
        stats, calls, _ = _check_dealt_equals_inline_equals_fit(
            MLPClassifier, ("adam", "constant"), True, False, [1e-4], [3], [1e-2], [5],
            max_iter=9, warm_seed=None, seed=1, calls=deal_every_call,
        )
        assert sorted(calls[0][0] + calls[0][1]) == [2, 3]
        assert stats.lanes == 1 and stats.max_lane_width == 5

    def test_helper_exits_with_the_interpreter_past_the_resource_tracker(self, tmp_path):
        # A helper that held the resource tracker's pipe would hang this
        # child's exit (the tracker's stop waits for the pipe's last writer).
        script = tmp_path / "child.py"
        script.write_text(textwrap.dedent(
            """
            import numpy as np
            from multiprocessing import resource_tracker
            import repro.learners.batched as batched
            from repro.learners import MLPClassifier

            batched._HELPER_MIN_WORK, batched.available_cpus = 0, lambda: 2
            assert batched._HELPER.ready(timeout=60)
            X = np.random.default_rng(0).normal(size=(60, 4))
            y = (X[:, 0] > 0).astype(int)
            jobs = [(MLPClassifier(hidden_layer_sizes=(4,), solver="lbfgs", max_iter=5,
                                   random_state=f), X[10 * f:10 * f + 40], y[10 * f:10 * f + 40])
                    for f in range(3)]
            batched.fit_mlp_trials([jobs])
            assert all(model.n_iter_ > 0 for model, _, _ in jobs)
            print(batched._HELPER._process.pid, flush=True)
            resource_tracker.ensure_running()
            resource_tracker._resource_tracker._stop()
            """
        ))  # fmt: skip
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
        )  # fmt: skip
        assert done.returncode == 0, done.stderr
        assert time.monotonic() - start < 10
        assert not _alive(int(done.stdout.split()[-1]))

    def test_helper_of_a_killed_parent_exits_at_eof(self):
        code = textwrap.dedent(
            """
            import time
            import repro.learners.batched as batched

            batched.available_cpus = lambda: 2
            assert batched._HELPER.ready(timeout=60)
            print(batched._HELPER._process.pid, flush=True)
            time.sleep(60)
            """
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
        )  # fmt: skip
        try:
            pid = int(parent.stdout.readline())
            assert _alive(pid)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        deadline = time.monotonic() + 10
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an exited, unreaped orphan counts as gone)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.kernels
class TestSplitLaneSweep:
    @given(**DEAL_CASE)
    @settings(max_examples=150, deadline=None)
    def test_dealt_equals_inline_equals_fit(self, **case):
        with _dealing_every_call() as calls:
            _check_dealt_equals_inline_equals_fit(**case, calls=calls)

    @pytest.mark.parametrize("max_iter", [9, 17])
    @pytest.mark.parametrize("solver_schedule", [("adam", "constant"), ("sgd", "constant")])
    def test_folds_leave_before_at_and_after_a_block_boundary(
        self, deal_every_call, solver_schedule, max_iter
    ):
        # tol 10 never improves after the first epoch, so a fold stops after
        # 1 + patience epochs: 4 (inside the first 8-epoch order block), 8
        # (its last epoch) and 9 (one into the second); tol 0 trains on.
        # Each trial's folds straddle the halves' boundary.
        _, _, n_iters = _check_dealt_equals_inline_equals_fit(
            MLPClassifier, solver_schedule, False, False, [10.0, 10.0, 0.0], [3, 7, 8],
            [1e-2, 1e-2, 1e-3], [3, 3, 3], max_iter=max_iter, warm_seed=None, seed=3,
            calls=deal_every_call,
        )
        assert n_iters[:6] == [4] * 3 + [8] * 3
        assert min(n_iters[6:]) >= min(9, max_iter)

    @pytest.mark.parametrize("warm_seed", [None, 5])
    def test_lbfgs_folds_equal_fit_warm_and_diverged(self, deal_every_call, warm_seed):
        dealt, warms = _lbfgs_trials(warm_seed)
        inline, _ = _lbfgs_trials(warm_seed)
        oracle, _ = _lbfgs_trials(warm_seed)
        fit_mlp_trials(dealt, warms)
        (own, theirs), = deal_every_call
        assert theirs and sorted(own + theirs) == [3, 3]  # a classifier and a regressor lane
        with _inline():
            fit_mlp_trials(inline, warms)
        _fit_with_oracle(oracle, warms)
        _assert_trials_identical(dealt, inline, "dealt vs inline")
        _assert_trials_identical(dealt, oracle, "dealt vs oracle .fit")
        assert [model.diverged_ for model, _, _ in dealt[1]] == [False, True, False]
        if warm_seed is not None:
            assert any(warms)

    def test_helper_killed_mid_call_costs_nothing(self):
        kwargs = [dict(hidden_layer_sizes=(4,), solver=solver, max_iter=6) for solver in ("adam", "lbfgs")]
        expected = _jobs(MLPClassifier, kwargs, [6, 3], 30, 0)
        with _inline():
            fit_mlp_trials(expected)
        killing = """
            import os, signal
            import repro.learners.batched as batched

            batched._run_lane = lambda members: os.kill(os.getpid(), signal.SIGKILL)
            batched._serve()
        """
        with _dealing_every_call(killing) as calls:
            process = batched._HELPER._process
            jobs = _jobs(MLPClassifier, kwargs, [6, 3], 30, 0)
            fit_mlp_trials(jobs)
            assert calls and calls[0][1]  # the helper had a share when it died
            assert process.poll() == -signal.SIGKILL  # reaped
            assert batched._HELPER._process is None
        _assert_trials_identical(jobs, expected, "after the helper died")

    def test_helper_exception_reaches_the_caller(self):
        failing = """
            import repro.learners.batched as batched

            def fail(members):
                raise FloatingPointError("helper share")

            batched._run_lane = fail
            batched._serve()
        """
        kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
        jobs = _jobs(MLPClassifier, kwargs, [6], 30, 0)
        with _dealing_every_call(failing) as calls:
            with pytest.raises(FloatingPointError, match="helper share"):
                fit_mlp_trials(jobs)
            # The caller's half finished before the error surfaced; the
            # helper's half was left as planned, and the helper is free.
            assert calls == [([3], [3])]
            fitted = [hasattr(model, "n_iter_") for model, _, _ in jobs[0]]
            assert sorted(fitted) == [False] * 3 + [True] * 3
            assert batched._HELPER.claim()
            batched._HELPER.release()

    def test_helper_exception_takes_the_per_rung_retry(self):
        expected = _search()
        once = """
            import repro.learners.batched as batched

            run, raised = batched._run_lane, []

            def fail_once(members):
                if not raised:
                    raised.append(True)
                    raise FloatingPointError("helper share")
                run(members)

            batched._run_lane = fail_once
            batched._serve()
        """
        notes, note = [], flightrec.note
        with _dealing_every_call(once) as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(flightrec, "note", lambda kind, **fields: (notes.append(kind), note(kind, **fields)))
            assert _search() == expected
        assert calls and "executor.rung_retry" in notes

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_workers_never_start_a_helper(self, deal_every_call, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable on this platform")
        context = multiprocessing.get_context(start_method)
        queue = context.Queue()
        child = context.Process(target=_claims_in_child, args=(queue,))
        child.start()
        try:
            assert queue.get(timeout=60) == (False, True)
        finally:
            child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0

    def test_helper_never_starts_a_helper(self):
        nested = """
            import repro.learners.batched as batched

            run = batched._run_lane
            batched._HELPER_MIN_WORK, batched.available_cpus = 0, lambda: 2

            def claim_then_run(members):
                assert not batched._HELPER.claim(), "the helper claimed a helper"
                assert batched._HELPER._process is None, "the helper started a helper"
                run(members)

            batched._run_lane = claim_then_run
            batched._serve()
        """
        kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
        with _dealing_every_call(nested) as calls:
            fit_mlp_trials(_jobs(MLPClassifier, kwargs, [8], 30, 0))  # raises if the check fails
        assert calls == [([4], [4])]

    def test_dealt_fit_then_pool_searches_equal_serial(self, deal_every_call):
        serial = _search()
        assert deal_every_call  # the helper trained part of every rung
        for start_method in ("fork", "spawn"):
            if start_method in multiprocessing.get_all_start_methods():
                pool = ParallelExecutor(n_workers=2, start_method=start_method)
                assert _search(pool) == serial, start_method

    @pytest.mark.parametrize("cpus, blas", [(1, "1"), (2, None), (2, "2")])
    def test_no_helper_on_one_cpu_or_beside_blas_threads(self, monkeypatch, cpus, blas):
        # A BLAS of several threads spins on the core the helper would use.
        monkeypatch.setattr(batched, "_HELPER_MIN_WORK", 0)
        monkeypatch.setattr(batched, "available_cpus", lambda: cpus)
        for name in batched._BLAS_THREADS:
            monkeypatch.delenv(name, raising=False)
        if blas is not None:
            monkeypatch.setenv("OMP_NUM_THREADS", blas)
        monkeypatch.setattr(batched, "_HELPER", batched._LaneHelper())
        kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
        fit_mlp_trials(_jobs(MLPClassifier, kwargs, [8], 30, 0))
        assert batched._HELPER._process is None

    def test_busy_helper_means_inline_not_queued(self, deal_every_call):
        assert batched._HELPER.claim()  # another job's fit holds it
        try:
            kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
            fit_mlp_trials(_jobs(MLPClassifier, kwargs, [8], 30, 0))
        finally:
            batched._HELPER.release()
        assert deal_every_call == []

    def test_concurrent_callers_keep_their_bits(self, deal_every_call):
        # More calling threads than cores, switching often: whichever finds
        # the helper free deals, the rest train inline, and every fold
        # keeps the bits of a lone inline fit.
        kwargs = [dict(hidden_layer_sizes=(5,), solver=solver, max_iter=6) for solver in ("sgd", "lbfgs")]
        expected = _jobs(MLPClassifier, kwargs, [6, 5], 30, 0)
        with _inline():
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
        assert len(results) == 12 and deal_every_call
        for jobs in results:
            _assert_trials_identical(jobs, expected, "concurrent")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_forgets_the_helper(self, deal_every_call):
        kwargs = [dict(hidden_layer_sizes=(4,), solver="adam", max_iter=3)]
        parent_helper = batched._HELPER._process.pid
        assert batched._HELPER.claim()  # held across the fork, as by a busy fit
        try:
            pid = os.fork()
            if pid == 0:  # the child: no helper, free, then one of its own
                signal.alarm(60)
                ok = batched._HELPER._process is None and batched._HELPER.ready(timeout=30)
                ok = ok and batched._HELPER._process.pid != parent_helper
                del deal_every_call[:]
                fit_mlp_trials(_jobs(MLPClassifier, kwargs, [6], 30, 0))
                ok = ok and bool(deal_every_call)
                batched._HELPER.close()
                os._exit(0 if ok else 1)
        finally:
            batched._HELPER.release()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert _alive(parent_helper)  # the child's exit did not end the parent's helper
        fit_mlp_trials(_jobs(MLPClassifier, kwargs, [6], 30, 0))
        assert batched._HELPER._process.pid == parent_helper

    def test_searches_leave_at_most_one_helper(self, deal_every_call):
        _search(method="hb")
        threads = threading.active_count()
        for _ in range(20):
            _search(method="hb")
        assert threading.active_count() == threads
        assert len(_helper_children()) == 1
        assert deal_every_call


# -- searches around the helper ----------------------------------------------------

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
    """Run in a ``multiprocessing`` child: (may it claim the helper?, did none start?)."""
    claimed = batched._HELPER.claim()
    if claimed:
        batched._HELPER.release()
    queue.put((claimed, batched._HELPER._process is None))


def _helper_children():
    """Pids of this process's children that run the lane helper."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == os.getpid() and b"_serve()" in cmdline and fields[0] != "Z":
            found.append(int(stat.parent.name))
    return found
