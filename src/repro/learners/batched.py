"""Batched fold kernels: train every CV fold of a rung simultaneously.

The evaluator trains ``k_gen + k_spe`` MLPs per trial, one per fold.
For the paper's small networks a fold-by-fold loop is dominated by
per-call numpy overhead, not by FLOPs — so this module advances **all
folds at once**: fold data is stacked into
``(F, N, D)`` tensors, per-fold parameters into ``(F, d_in, d_out)``
tensors per layer, and one ``np.matmul`` per layer moves every fold one
step forward.  The training loops themselves are in
:mod:`repro.learners.mlp` (:func:`~repro.learners.mlp._run_lane`: the
``sgd`` / ``adam`` loop, or one L-BFGS-B run per ``lbfgs`` fold
evaluated together), which ``.fit`` runs on a lane of one; this module
forms the lanes, counts them and deals them between two cores.

Bitwise equivalence at any width
--------------------------------
Every fold must come out *bitwise identical* to ``model.fit`` on its
own, whichever folds share its lane (that is what keeps cold-start
incumbents, caches and journals exactly compatible).  Two facts about
the BLAS/numpy substrate shape the design:

- A stacked 3-D ``matmul`` over equal-shape slices is bitwise identical
  to the per-slice 2-D ``matmul`` (numpy dispatches the same GEMM per
  slice), and elementwise ufuncs plus same-length reductions are
  position-independent.
- Zero-padding the *row* dimension of a GEMM is **not** bitwise safe:
  OpenBLAS picks row-remainder micro-kernels based on ``M``, and padding
  ``M`` perturbs edge rows of the true output by 1 ulp for some shapes
  (measured here: 69 of 200 random shapes).

Padded tensors with validity masks therefore cannot meet the bitwise
contract.  Instead folds are grouped into **lanes** of identical shape —
same ``layer_units``, same training-set size, hence the same batch
size and step schedule — and every stacked array in a lane is exactly
shaped, never padded.  k-fold training splits differ by at most one row,
so a trial typically yields one or two lanes; a mismatched fold (e.g. one
missing a class) trains in a lane of its own, as ``.fit`` would.

One entry point, any width
--------------------------
:func:`fit_mlp_trials` forms those lanes **across every trial in a
rung** (:func:`fit_mlp_folds` is the same call for a single trial, kept
under its name for callers outside ``src/``): the lane key captures
everything *structural* about a fold's
training loop (architecture, row count, solver family, activations,
schedule shape, batch size, epoch budget), while the purely *numeric*
per-fold hyperparameters — ``alpha``, ``learning_rate_init``,
``momentum``, ``tol``, ``n_iter_no_change`` — are carried per fold
inside the lane.  A per-fold scalar applied through an ``(A, 1, 1)``
broadcast column performs the identical elementwise arithmetic on each
slice as the scalar it replaces, so two trials that differ only in
those knobs train in one stack and still produce bitwise-identical
models.  Fold results never depend on lane grouping, which is what
keeps cache keys, journal records and incumbent fingerprints untouched.
All three solvers stack; an ``lbfgs`` lane also carries ``max_fun`` per
fold.

Two cores, one call
-------------------
:func:`fit_mlp_trials` deals its call's units — every lane whole, or
the two halves (two or more folds each) of a lane heavier than all other
units together — largest-first by
estimated work (folds x rows x sum of fan_in x fan_out x ``max_iter``)
onto the lighter of the calling thread and **one** long-lived
lane-helper process, which takes only units above a measured work
threshold.  A unit crosses the pipe as data (row stacks, stacked
parameters, per-fold knobs, generator states, and back: stacked
parameters, curves, ``n_iter_``, ``diverged_``) and trains there through
the same :func:`~repro.learners.mlp._run_lane`, so every fold stays
bitwise what ``.fit`` gives.  Both sides finish before the call returns
or raises the helper's exception; a helper that dies costs nothing, its
share retrained here from the untouched fold plans.  The helper
(``subprocess``, used once it reports ready) is claimed only with two
CPUs and a one-thread BLAS, never in a pool worker or inside itself; a
forked child forgets it, and a second caller that finds it busy trains
inline (docs/PERFORMANCE.md section 18).
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import select
import signal
import sys
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._cpus import available_cpus
from .mlp import (
    MLPClassifier,
    MLPRegressor,
    _BaseMLP,
    _FoldPlan,
    _forward_pass,
    _prepare_fold,
    _run_lane,
    warm_start_matches,
)

__all__ = [
    "BatchedFitStats",
    "MegaBatchStats",
    "batchable_model",
    "fit_mlp_folds",
    "fit_mlp_trials",
    "predict_folds",
]


def batchable_model(model: Any) -> bool:
    """Whether ``model`` is an MLP with a stochastic solver (``sgd`` / ``adam``).

    The evaluator records a lane failure of such a trial as a
    ``learner.batch_fallback``; ``lbfgs`` folds stack too, but a trial of
    them records only its folds' own fit errors.
    """
    return isinstance(model, _BaseMLP) and getattr(model, "solver", None) in ("sgd", "adam")


class BatchedFitStats:
    """Counters describing how one trial's folds were dispatched."""

    __slots__ = ("folds", "lanes", "batched_folds", "sequential_folds", "warm_folds")

    def __init__(self) -> None:
        self.folds = 0
        self.lanes = 0
        self.batched_folds = 0
        self.sequential_folds = 0
        self.warm_folds = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot for telemetry counters."""
        return {
            "folds": self.folds,
            "lanes": self.lanes,
            "batched_folds": self.batched_folds,
            "sequential_folds": self.sequential_folds,
            "warm_folds": self.warm_folds,
        }


class MegaBatchStats:
    """Counters describing how one rung's trials were fused into lanes.

    ``lane occupancy`` is ``batched_folds / folds``: every fold is one
    lane slot, and a slot counts as *filled* when its fold trained
    inside a stacked lane of two or more ``sgd`` / ``adam`` folds
    (``sequential_folds``: a lane of one, or an ``lbfgs`` fold).
    ``lbfgs`` lanes stack too, but count as they did before they
    stacked, so these counters mean the same in every recorded trace.
    ``fused_lanes`` / ``fused_folds`` count lanes (and their folds) that
    mixed folds from two or more distinct trials — the cross-trial work
    that per-trial batching could not reach.
    """

    __slots__ = (
        "trials",
        "folds",
        "lanes",
        "fused_lanes",
        "fused_folds",
        "batched_folds",
        "sequential_folds",
        "warm_folds",
        "max_lane_width",
    )

    def __init__(self) -> None:
        self.trials = 0
        self.folds = 0
        self.lanes = 0
        self.fused_lanes = 0
        self.fused_folds = 0
        self.batched_folds = 0
        self.sequential_folds = 0
        self.warm_folds = 0
        self.max_lane_width = 0

    @property
    def occupancy(self) -> float:
        """Filled lane slots over total slots, in ``[0, 1]``."""
        return self.batched_folds / self.folds if self.folds else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot for telemetry span attributes."""
        return {
            "trials": self.trials,
            "folds": self.folds,
            "lanes": self.lanes,
            "fused_lanes": self.fused_lanes,
            "fused_folds": self.fused_folds,
            "batched_folds": self.batched_folds,
            "sequential_folds": self.sequential_folds,
            "warm_folds": self.warm_folds,
            "max_lane_width": self.max_lane_width,
            "occupancy": self.occupancy,
        }


def fit_mlp_folds(
    jobs: Sequence[Tuple[Any, np.ndarray, np.ndarray]],
    warm: Optional[Dict[int, Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]]] = None,
) -> BatchedFitStats:
    """Fit one trial's folds: :func:`fit_mlp_trials` at width one."""
    return fit_mlp_trials([jobs], [warm])[0][0]


def fit_mlp_trials(
    trial_jobs: Sequence[Sequence[Tuple[Any, np.ndarray, np.ndarray]]],
    warms: Optional[Sequence[Optional[Dict[int, Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]]]]] = None,
) -> Tuple[List[BatchedFitStats], MegaBatchStats]:
    """Fit every fold of every trial of a rung (any width, down to one).

    Parameters
    ----------
    trial_jobs:
        One entry per trial, each a sequence of ``(model, X_train,
        y_train)`` fold jobs in fold order.  Every model must be an
        MLP (any solver) and is fitted in place exactly
        as ``model.fit`` would have; models from *different* trials may
        carry different hyperparameter configurations.
    warms:
        Optional per-trial warm starts aligned with ``trial_jobs``
        (``None`` entries for cold trials): a dict ``fold_index ->
        (coefs, intercepts)``.  A fold whose donated shapes mismatch its
        architecture falls back to cold initialisation, like
        :meth:`_BaseMLP.fit`.

    Returns
    -------
    (per_trial_stats, mega_stats)
        One :class:`BatchedFitStats` per trial (lanes it took part in,
        folds stacked vs fitted alone) plus an aggregate
        :class:`MegaBatchStats` describing the fusion.

    Every fold is trained bitwise-identically to ``model.fit`` run on
    its own, regardless of which trials ended up sharing its lane.
    """
    per_trial = [BatchedFitStats() for _ in trial_jobs]
    mega = MegaBatchStats()
    mega.trials = len(trial_jobs)
    plans: List[_FoldPlan] = []
    owner: List[int] = []
    encodings = _label_codes(trial_jobs)
    for t, jobs in enumerate(trial_jobs):
        warm = warms[t] if warms is not None else None
        stats = per_trial[t]
        stats.folds = len(jobs)
        for index, (model, X, y) in enumerate(jobs):
            coefs_init = intercepts_init = None
            if warm is not None and index in warm:
                coefs_init, intercepts_init = warm[index]
            plan = _prepare_fold(model, X, y, coefs_init, intercepts_init, next(encodings))
            if warm_start_matches(plan.layer_units, coefs_init, intercepts_init):
                stats.warm_folds += 1
            plans.append(plan)
            owner.append(t)
    del encodings  # frees the call's label codes before the lanes train

    lanes: Dict[Tuple, List[int]] = {}
    for position, plan in enumerate(plans):
        lanes.setdefault(_lane_key(plan), []).append(position)
    mega.lanes = len(lanes)
    mega.folds = len(plans)
    lane_members = []
    for positions in lanes.values():
        members = [plans[i] for i in positions]
        lane_members.append(members)
        lane_trials = {owner[i] for i in positions}
        if len(lane_trials) > 1:
            mega.fused_lanes += 1
            mega.fused_folds += len(members)
        mega.max_lane_width = max(mega.max_lane_width, len(members))
        batched = len(members) > 1 and members[0].model.solver != "lbfgs"  # see MegaBatchStats
        for i in positions:
            if batched:
                per_trial[owner[i]].batched_folds += 1
            else:
                per_trial[owner[i]].sequential_folds += 1
        for t in lane_trials:
            per_trial[t].lanes += 1
    mega.batched_folds = sum(s.batched_folds for s in per_trial)
    mega.sequential_folds = sum(s.sequential_folds for s in per_trial)
    mega.warm_folds = sum(s.warm_folds for s in per_trial)
    _train(lane_members)
    return per_trial, mega


# -- two cores, one call --------------------------------------------------------
# Units cross to the helper as data and train through ``_run_lane``: nothing
# there opens a collector, passes a fault point or writes a flight-recorder note.

#: Work (:func:`_work`) a unit needs before the helper takes it: below it the round
#: trip costs more than the second core saves (docs/PERFORMANCE.md section 18).
_HELPER_MIN_WORK = 100_000
#: The numeric knobs a lane carries per fold (the rest is in ``_lane_key``).
_FOLD_KNOBS = ("alpha", "learning_rate_init", "momentum", "tol", "n_iter_no_change", "max_fun")
#: What a fitted fold sends back besides its parameters.
_FINALS = ("loss_curve_", "validation_scores_", "n_iter_", "loss_", "diverged_")
_WIRE_TYPES = {cls.__name__: cls for cls in (MLPClassifier, MLPRegressor)}
_HELPER_CODE = "from repro.learners.batched import _serve; _serve()"
#: Thread counts of OpenBLAS, OpenMP and MKL, in the order OpenBLAS reads them.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _work(unit: List[_FoldPlan]) -> int:
    """Estimated work: folds x rows x sum of fan_in * fan_out x ``max_iter``."""
    plan = unit[0]
    weights = sum(a * b for a, b in zip(plan.layer_units, plan.layer_units[1:]))
    return len(unit) * plan.X.shape[0] * weights * plan.model.max_iter


def _units(lanes: List[List[_FoldPlan]]) -> List[List[_FoldPlan]]:
    """A call's units, heaviest first: every lane whole, and a lane heavier
    than every other unit together as two halves."""
    units = sorted(lanes, key=_work, reverse=True)
    if units and len(units[0]) >= 4 and 2 * _work(units[0]) > sum(map(_work, units)):
        half = len(units[0]) // 2
        units[:1] = [units[0][:half], units[0][half:]]
        units.sort(key=_work, reverse=True)
    return units


def _train(lanes: List[List[_FoldPlan]]) -> None:
    """Train every lane; with the helper free, deal the call's units largest-first
    onto the lighter side, the helper taking only units worth the round trip."""
    units = _units(lanes)
    if len(units) < 2 or _work(units[0]) < _HELPER_MIN_WORK or not _HELPER.claim():
        _run_lanes(lanes)
        return
    try:
        shares, loads = ([], []), [0, 0]  # (calling thread, helper)
        for unit, work in zip(units, map(_work, units)):
            wire = type(unit[0].model) in _WIRE_TYPES.values()
            side = int(loads[1] <= loads[0] and work >= _HELPER_MIN_WORK and wire)
            shares[side].append(unit)
            loads[side] += work
        _HELPER.train(*shares)  # with two units or more, this thread always has a share
    finally:
        _HELPER.release()


def _run_lanes(lanes: List[List[_FoldPlan]]) -> None:
    for members in lanes:
        _run_lane(members)


class _LaneHelper:
    """The one long-lived process that trains units beside the calling thread; one
    call owns it at a time (:meth:`claim` is a non-blocking try-acquire).  ``_off``:
    never to be claimed (it could not start, or this process is the helper)."""

    def __init__(self) -> None:
        self._process = None
        self.forget()
        atexit.register(self.close)

    def forget(self) -> None:
        """Start over without a process; a forked child closes the pipe ends it inherited."""
        if self._process is not None:
            self._process.stdin.close()
            self._process.stdout.close()
        self._lock, self._process, self._ready, self._off = threading.Lock(), None, False, False

    def claim(self) -> bool:
        """Own the ready helper until :meth:`release`; False when busy, starting or unwanted."""
        import multiprocessing

        # BLAS threads spin on the core a helper would use: only a one-thread BLAS leaves it.
        blas = next((os.environ[name] for name in _BLAS_THREADS if os.environ.get(name)), None)
        if self._off or blas != "1" or available_cpus() < 2 or multiprocessing.parent_process() is not None:
            return False
        if self._lock.acquire(blocking=False):
            if self.ready():
                return True
            self._lock.release()
        return False

    def release(self) -> None:
        self._lock.release()

    def ready(self, timeout: float = 0.0) -> bool:
        """Whether the helper has reported ready, waiting up to ``timeout``; starts one."""
        if self._process is None:
            self._start()
        if self._process and not self._ready:
            if select.select([self._process.stdout], [], [], timeout)[0]:
                self._ready = self._reply() == "ready"
                self._off = not self._ready
        return self._ready

    def _start(self) -> None:
        from subprocess import PIPE, Popen

        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=root + os.pathsep + path if path else root)
        command = [sys.executable, "-c", _HELPER_CODE]
        try:
            self._process = Popen(command, stdin=PIPE, stdout=PIPE, env=env)
        except OSError:  # no interpreter to start: this process trains inline
            self._off = True

    def close(self, kill: bool = False) -> None:
        """End the helper (EOF on its stdin, or ``kill``) and reap it."""
        process, self._process, self._ready = self._process, None, False
        if process is not None:
            with contextlib.suppress(OSError):  # the pipe of a helper that died
                process.stdin.close()
            process.stdout.close()
            with contextlib.suppress(Exception):  # one that will not exit is killed
                process.wait(timeout=0.0 if kill else 10.0)
            process.kill()
            process.wait()

    def train(self, own: List[List[_FoldPlan]], theirs: List[List[_FoldPlan]]) -> None:
        """Train ``theirs`` in the helper while this thread trains ``own``, then
        adopt them; retrain them here if the helper died, or raise its exception."""
        try:
            _send(self._process.stdin.fileno(), [_pack(unit) for unit in theirs])
        except BaseException as error:
            self.close(kill=True)
            if not isinstance(error, OSError):  # OSError: it died since its last answer
                raise
        try:
            _run_lanes(own)
        finally:
            reply = self._reply() if self._process else None  # the pipe stays in step
        if isinstance(reply, BaseException):
            raise reply
        if reply is None:
            _run_lanes(theirs)
        for unit, (coefs, intercepts, finals) in zip(theirs, reply or ()):
            for index, (plan, final) in enumerate(zip(unit, finals)):
                vars(plan.model).update(zip(_FINALS, final))
                plan.model.coefs_ = [c[index] for c in coefs]
                plan.model.intercepts_ = [b[index] for b in intercepts]

    def _reply(self):
        """The helper's next message; ``None`` once it has died (it is then reaped)."""
        try:
            return _receive(self._process.stdout)
        except BaseException as error:
            self.close(kill=True)  # dead, or interrupted mid-message: out of step either way
            if isinstance(error, (EOFError, OSError)):
                return None
            raise


_HELPER = _LaneHelper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HELPER.forget)


def _send(fd: int, message) -> None:
    """Write ``message`` as one length-prefixed pickle, past any file buffer: a
    forked child that closes its copy of the pipe must have nothing to flush."""
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _receive(pipe):
    """Read one message :func:`_send` wrote; ``EOFError`` if the pipe closes first."""
    header = pipe.read(8)
    size = int.from_bytes(header, "little")
    data = pipe.read(size) if len(header) == 8 else b""
    if len(header) < 8 or len(data) < size:
        raise EOFError("lane helper pipe closed")
    return pickle.loads(data)


def _pack(unit: List[_FoldPlan]) -> Tuple:
    """A unit as data.  Rows go before the validation split, so the helper pays
    for it and the fold plans stay untouched for a retrain here."""
    model = unit[0].model
    return (
        type(model).__name__,
        # The constructor's parameters: fitted state ends in ``_``.
        {k: v for k, v in vars(model).items() if not (k.startswith("_") or k.endswith("_"))},
        len(getattr(model, "classes_", ())),
        np.stack([plan.X for plan in unit]),
        np.stack([plan.y_encoded for plan in unit]),
        [np.stack(layer) for layer in zip(*(plan.model.coefs_ for plan in unit))],
        [np.stack(layer) for layer in zip(*(plan.model.intercepts_ for plan in unit))],
        [[getattr(plan.model, knob) for knob in _FOLD_KNOBS] for plan in unit],
        [plan.rng.bit_generator.state for plan in unit],
    )


def _serve() -> None:
    """The helper process: train each request's units and answer, until stdin closes."""
    _HELPER._off = True  # a helper never claims a helper
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles ^C; EOF ends this
    requests, answers = sys.stdin.buffer, os.dup(1)
    os.dup2(2, 1)  # a stray print must not land in the answers
    generators: List[np.random.Generator] = []  # one per lane slot: each fold sets its state
    _send(answers, "ready")
    while True:
        try:
            units = _receive(requests)
        except EOFError:
            return
        try:
            reply = []
            for name, params, n_classes, X, y, coefs, intercepts, knobs, states in units:
                generators += [np.random.default_rng() for _ in states[len(generators) :]]
                plans = []
                for index, (values, state, rng) in enumerate(zip(knobs, states, generators)):
                    model = object.__new__(_WIRE_TYPES[name])
                    vars(model).update(params, **dict(zip(_FOLD_KNOBS, values)))
                    if n_classes:
                        model.classes_ = np.arange(n_classes)
                    model.coefs_ = [c[index] for c in coefs]
                    model.intercepts_ = [b[index] for b in intercepts]
                    model.loss_curve_, model.validation_scores_, model.diverged_ = [], [], False
                    rng.bit_generator.state = state
                    plans.append(_FoldPlan(model, X[index], y[index], rng, None))
                _run_lane(plans)
                models = [plan.model for plan in plans]
                finals = [[getattr(model, attr) for attr in _FINALS] for model in models]
                coefs = [np.stack(layer) for layer in zip(*(m.coefs_ for m in models))]
                intercepts = [np.stack(layer) for layer in zip(*(m.intercepts_ for m in models))]
                reply.append((coefs, intercepts, finals))
        except Exception as error:  # noqa: BLE001 - raised again on the caller
            reply = error  # one that will not pickle ends this helper: the caller retrains
        _send(answers, reply)


def _label_codes(trial_jobs):
    """Yield ``(classes, codes)`` per classifier fold job (``None`` per regressor) from
    one ``np.unique``; a fold keeps, re-indexed, the labels it holds, as a
    ``LabelEncoder`` fitted on it would."""
    jobs = [(model, np.ravel(y)) for fold_jobs in trial_jobs for model, _, y in fold_jobs]
    labels = [y for model, y in jobs if isinstance(model, MLPClassifier)]
    if labels:
        classes, inverse = np.unique(np.concatenate(labels), return_inverse=True)
        pieces = iter(np.split(inverse, np.cumsum([len(y) for y in labels])[:-1]))
    for model, _ in jobs:
        if not isinstance(model, MLPClassifier):
            yield None
            continue
        codes = next(pieces)
        present = np.bincount(codes, minlength=len(classes)) > 0
        if present.all():
            yield classes, codes
        else:
            yield classes[present], (np.cumsum(present) - 1)[codes]


def _lane_key(plan: _FoldPlan) -> Tuple:
    """Everything *structural* about a fold's training loop.

    Two folds with equal keys run the same tensor shapes, the same batch
    schedule and the same branch structure for every epoch, so they can
    share a lane.  The purely numeric knobs — ``alpha``,
    ``learning_rate_init``, ``momentum``, ``tol``, ``n_iter_no_change``,
    ``max_fun`` — are deliberately *absent*: the lane carries them per
    fold (scalar or broadcast column, bitwise-equal either way), which is
    what lets trials that differ only in those values fuse into one stack.
    """
    model = plan.model
    if model.solver == "sgd":
        # The lookahead branch and the decay exponent shape the update;
        # adam never reads either.
        solver_key = (
            "sgd",
            model.learning_rate,
            bool(model.nesterovs_momentum),
            float(model.power_t),
        )
    else:
        # ``learning_rate`` still gates the stall-break branch of
        # ``_fit_lane`` ("adaptive" keeps training), even though adam
        # ignores the schedule itself.
        solver_key = (model.solver, model.learning_rate)
    early_stopping = bool(model.early_stopping)
    return (
        type(model).__name__,
        tuple(plan.layer_units),
        int(plan.X.shape[0]),
        solver_key,
        model.activation,
        model._output_activation(),
        early_stopping,
        float(model.validation_fraction) if early_stopping else None,
        bool(model.shuffle),
        int(model.max_iter),
        model.batch_size,
    )


# -- stacked scoring ----------------------------------------------------------


def predict_folds(models: Sequence[Any], Xs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """``[model.predict(X) for model, X in zip(models, Xs)]``, bit for bit, at any width.

    MLPs of one type, activation, parameter shapes and row count share one
    stacked :func:`_forward_pass`; other models (a constant predictor) ``predict``.
    """
    predictions: List[Any] = [None] * len(models)
    groups: Dict[Tuple, List[int]] = {}
    for index, (model, X) in enumerate(zip(models, Xs)):
        if isinstance(model, _BaseMLP):
            model._check_fitted()
            key = (type(model), model.activation, len(X), *(c.shape for c in model.coefs_))
            groups.setdefault(key, []).append(index)
        else:
            predictions[index] = model.predict(X)
    for members in groups.values():
        stack = [models[i] for i in members]
        join = np.stack if len(stack) > 1 else lambda arrays: arrays[0][None]  # a view at width 1
        X = join([np.asarray(Xs[i], dtype=float) for i in members])
        coefs = [join(layer) for layer in zip(*(m.coefs_ for m in stack))]
        intercepts = [join(layer)[:, None, :] for layer in zip(*(m.intercepts_ for m in stack))]
        out = _forward_pass(X, coefs, intercepts, stack[0]._kernel())[-1]
        if isinstance(stack[0], MLPClassifier):
            if out.shape[-1] == 1:  # predict_proba's two columns
                out = np.stack([1.0 - out[..., 0], out[..., 0]], axis=-1)
            out = out.argmax(axis=-1)
        for index, model, rows in zip(members, stack, out):
            predictions[index] = model.classes_[rows] if out.ndim == 2 else rows.ravel()
    return predictions
