"""Batched fold kernels: train every CV fold of a rung simultaneously.

The evaluator trains ``k_gen + k_spe`` MLPs per trial, one per fold.
For the paper's small networks a fold-by-fold loop is dominated by
per-call numpy overhead, not by FLOPs — so this module advances **all
folds at once**: fold data is stacked into
``(F, N, D)`` tensors, per-fold parameters into ``(F, d_in, d_out)``
tensors per layer, and one ``np.matmul`` per layer moves every fold one
step forward.

Bitwise equivalence with the sequential reference
-------------------------------------------------
The batched path is required to produce *bitwise identical* per-fold
models to ``model.fit`` run fold by fold (that is what keeps cold-start
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
so a trial typically yields one or two lanes; mismatched folds (e.g. a
fold missing a class) fall into their own lane and degenerate to the
sequential reference.  Per-fold *control flow* is a mask-based control
plane: the accumulated loss, best loss, ``tol``, patience and
no-improvement count are ``(A,)`` arrays, and the divergence,
improvement and stall tests are elementwise comparisons — the IEEE
operations ``_BaseMLP._fit_stochastic`` performs on Python floats, so
each fold decides exactly as it would alone.  Epoch losses collect in
one ``(max_iter, A)`` buffer and reach a fold's ``loss_curve_`` (as
Python floats) once, when it finishes.  Each fold's shuffle orders are
drawn eight epochs per generator call into one ``(A, 8, n)`` block
(:func:`repro.learners.mlp._epoch_orders`, the same draw ``.fit``
makes), so Python runs per fold once per block for the orders and
otherwise only for the early-stopping validation score, the adaptive
schedule's reaction to a stall and finalisation; a fold that stops is
compacted out of the lane, its rows of the order block with it, and
the survivors keep training.

The tensor arithmetic itself is not re-implemented here: a lane step is
one call to :func:`repro.learners.mlp._loss_and_gradients`, the same
rank-generic forward / head-loss / backward core that ``.fit`` runs on
2-D operands for ``sgd``, ``adam`` and the L-BFGS objective.  This
module owns only what stacking adds: lane formation, the ``(A, 1, 1)``
per-fold factor columns and the control plane.

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

Only the stochastic solvers (``sgd`` / ``adam``) stack; an L-BFGS fold
is full-batch scipy and trains alone, through the model's own
``_fit_lbfgs``.  A lane of one fold
gains nothing from stacking and finishes through the model's own
``_fit_stochastic`` (:func:`_run_lane`): routing it through a width-1
``_fit_lane`` instead is bitwise-equal but measured 8-20 % slower — the
vector control plane's fixed per-epoch cost buys nothing at width one
(docs/PERFORMANCE.md) — so both training loops stay, chosen by lane
width.

Two cores, one call
-------------------
:func:`fit_mlp_trials` deals its call's units — a stacked lane, the two
halves (two or more folds each) of a lane heavier than all other units
together, a single ``lbfgs`` or width-one fold — largest-first by
estimated work (folds x rows x sum of fan_in x fan_out x ``max_iter``)
onto the lighter of the calling thread and **one** long-lived
lane-helper process, which takes only units above a measured work
threshold.  A unit crosses the pipe as data (row stacks, stacked
parameters, per-fold knobs, generator states, and back: stacked
parameters, curves, ``n_iter_``, ``diverged_``) and trains there through
the same :func:`_run_lane`, so every fold stays bitwise what ``.fit``
gives.  Both sides finish before the call returns or raises the helper's
exception; a helper that dies costs nothing, its share retrained here
from the untouched fold plans.  The helper (``subprocess``, used once it
reports ready) is claimed only with two CPUs and a one-thread BLAS,
never in a pool worker or inside itself; a forked child forgets it, and
a second caller that finds it busy trains inline (docs/PERFORMANCE.md
section 18).
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

from .base import check_X_y
from .mlp import (
    _EPOCH_BLOCK,
    DIVERGENCE_LOSS_CAP,
    MLPClassifier,
    MLPRegressor,
    _BaseMLP,
    _epoch_orders,
    _forward_pass,
    _loss_and_gradients,
    _validation_score,
    resolve_initial_parameters,
    warm_start_matches,
)
from .solvers import AdamOptimizer

__all__ = [
    "BatchedFitStats",
    "MegaBatchStats",
    "batchable_model",
    "fit_mlp_folds",
    "fit_mlp_trials",
    "predict_folds",
]


def batchable_model(model: Any) -> bool:
    """Whether ``model``'s folds stack into lanes: an MLP with a stochastic solver."""
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
    inside a stacked lane rather than falling back to the sequential
    loop.  ``fused_lanes`` / ``fused_folds`` count lanes (and their
    folds) that mixed folds from two or more distinct trials — the
    cross-trial work that per-trial batching could not reach.
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


class _FoldPlan:
    """One fold's prepared state between the fit preamble and training."""

    __slots__ = ("model", "X", "y_encoded", "rng", "layer_units", "lane_key")

    def __init__(self, model, X, y_encoded, rng, layer_units, lane_key) -> None:
        self.model = model
        self.X = X
        self.y_encoded = y_encoded
        self.rng = rng
        self.layer_units = layer_units
        self.lane_key = lane_key


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
        MLP (``lbfgs`` folds train alone) and is fitted in place exactly
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
        lanes.setdefault(plan.lane_key, []).append(position)
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
        batched = _stacks(members)
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


def _stacks(members: List[_FoldPlan]) -> bool:
    """Whether a lane trains stacked (``_fit_lane``) rather than member by member."""
    return len(members) > 1 and members[0].model.solver != "lbfgs"


def _run_lane(members: List[_FoldPlan]) -> None:
    """Train one lane, stacked or member by member."""
    if _stacks(members):
        _fit_lane(members)
    else:
        for plan in members:
            _fit_sequential(plan)


# -- two cores, one call --------------------------------------------------------
# Units cross to the helper as data and train through ``_run_lane``: nothing
# there opens a collector, passes a fault point or writes a flight-recorder note.

#: Work (:func:`_work`) a unit needs before the helper takes it: below it the round
#: trip costs more than the second core saves (docs/PERFORMANCE.md section 18).
_HELPER_MIN_WORK = 100_000
#: The numeric knobs a lane carries per fold (the rest is in ``_lane_key``).
_FOLD_KNOBS = ("alpha", "learning_rate_init", "momentum", "tol", "n_iter_no_change")
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
    """A call's units, heaviest first: stacked lanes whole, other folds alone,
    and a lane heavier than every other unit together as two halves."""
    units = []
    for members in lanes:
        units.extend([members] if _stacks(members) else [[plan] for plan in members])
    units.sort(key=_work, reverse=True)
    if units and len(units[0]) >= 4 and 2 * _work(units[0]) > sum(map(_work, units)):
        half = len(units[0]) // 2
        units[:1] = [units[0][:half], units[0][half:]]
        units.sort(key=_work, reverse=True)
    return units


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        if self._off or blas != "1" or _cpus() < 2 or multiprocessing.parent_process() is not None:
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
                    plans.append(_FoldPlan(model, X[index], y[index], rng, None, None))
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


def _prepare_fold(model, X, y, coefs_init, intercepts_init, encoding) -> _FoldPlan:
    """Replicate the ``fit()`` preamble: validate, encode, initialise.

    Targets come from the fold's ``encoding`` (:func:`_label_codes`).
    Consumes the model's random stream exactly as ``fit`` does (Glorot
    draws unless a matching warm start suppresses them), so the batched
    and sequential paths see identical generator states at the start of
    stochastic training.
    """
    model._validate_hyperparameters()
    X, y = check_X_y(X, y)
    y_encoded = model._encode_targets(y) if encoding is None else model._encode_codes(*encoding)
    layer_units = [X.shape[1], *model._hidden_layers(), model._n_outputs(y_encoded)]
    rng = np.random.default_rng(model.random_state)
    model.coefs_, model.intercepts_ = resolve_initial_parameters(
        layer_units, model.activation, rng, coefs_init, intercepts_init
    )
    model.n_layers_ = len(layer_units)
    model.loss_curve_ = []
    model.validation_scores_ = []
    model.diverged_ = False
    lane_key = _lane_key(model, layer_units, int(X.shape[0]), y_encoded)
    return _FoldPlan(model, X, y_encoded, rng, layer_units, lane_key)


def _lane_key(model, layer_units, n_rows, y_encoded) -> Tuple:
    """Everything *structural* about a fold's training loop.

    Two folds with equal keys run the same tensor shapes, the same batch
    schedule and the same branch structure for every epoch, so they can
    share a lane.  The purely numeric knobs — ``alpha``,
    ``learning_rate_init``, ``momentum``, ``tol``, ``n_iter_no_change``
    — are deliberately *absent*: the lane carries them per fold (scalar
    or broadcast column, bitwise-equal either way), which is what lets
    trials that differ only in those values fuse into one stack.
    """
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
        # ``learning_rate`` still gates the stall-break branch in
        # ``_fit_stochastic`` ("adaptive" keeps training), even though
        # adam ignores the schedule itself.
        solver_key = (model.solver, model.learning_rate)
    early_stopping = bool(model.early_stopping)
    return (
        type(model).__name__,
        tuple(layer_units),
        n_rows,
        solver_key,
        model.activation,
        model._output_activation(),
        early_stopping,
        float(model.validation_fraction) if early_stopping else None,
        bool(model.shuffle),
        int(model.max_iter),
        model.batch_size,
    )


def _fit_sequential(plan: _FoldPlan) -> None:
    """Finish one fold via the model's own (reference) solver loop."""
    model = plan.model
    if model.solver == "lbfgs":
        model._fit_lbfgs(plan.X, plan.y_encoded)
    else:
        model._fit_stochastic(plan.X, plan.y_encoded, plan.rng)


# -- lane optimisers ----------------------------------------------------------
# Each runs its per-fold optimiser's operations in order, writing temporaries
# into a scratch buffer (rebuilt on compaction) and into each gradient once
# it is spent, instead of allocating new arrays every step.


def _scratch(params: List[np.ndarray]) -> List[np.ndarray]:
    """A buffer per parameter, all views of one: parameters update in turn."""
    flat = np.empty(max(p.size for p in params))
    return [flat[: p.size].reshape(p.shape) for p in params]


def _per_fold_factor(values: List):
    """A scalar while every fold agrees, else an ``(A, 1, 1)`` column.

    Broadcasting the column applies each fold's scalar to its slice with
    the same elementwise arithmetic as the scalar it replaces, keeping
    heterogeneous lanes bitwise-equal to the per-fold reference loop.
    Every lane tensor is 3-D (intercepts are ``(A, 1, d)``), so one
    column serves all of them; callers rebuild it only when a value
    changes or the lane compacts, not per step.
    """
    first = values[0]
    if all(value == first for value in values):
        return first
    return np.asarray(values, dtype=float).reshape(-1, 1, 1)


class _LaneSGD:
    """Stacked-tensor mirror of :class:`~repro.learners.solvers.SGDOptimizer`.

    Parameters are ``(A, ...)`` stacks; the update applies the exact
    arithmetic of the per-fold optimizer to every lane slice.  The
    learning rate and momentum come from each member's own model, so
    folds from different trials may carry different values: factors stay
    scalar while all folds agree and become per-fold broadcast columns
    otherwise.
    """

    def __init__(self, params: List[np.ndarray], members: List[_FoldPlan]) -> None:
        reference = members[0].model
        self.params = params
        self.schedule = reference.learning_rate
        self.nesterov = reference.nesterovs_momentum
        self.power_t = reference.power_t
        self.rate_inits = [plan.model.learning_rate_init for plan in members]
        self.rates = list(self.rate_inits)
        self.momenta = [plan.model.momentum for plan in members]
        self._velocities = [np.zeros_like(p) for p in params]
        self._scratch = _scratch(params)
        self._t = 0
        self._refresh_factors()

    def _refresh_factors(self) -> None:
        self._rate_init = _per_fold_factor(self.rate_inits)
        self._rate = _per_fold_factor(self.rates)
        self._momentum = _per_fold_factor(self.momenta)

    def compact(self, keep: List[int]) -> None:
        self._velocities = [v[keep] for v in self._velocities]
        self._scratch = _scratch(self.params)
        self.rates = [self.rates[i] for i in keep]
        self.rate_inits = [self.rate_inits[i] for i in keep]
        self.momenta = [self.momenta[i] for i in keep]
        self._refresh_factors()

    def update(self, grads: List[np.ndarray]) -> None:
        self._t += 1
        if self.schedule == "invscaling":
            self._rate = self._rate_init / (self._t**self.power_t)
        lr, momentum = self._rate, self._momentum
        for param, grad, velocity, step in zip(self.params, grads, self._velocities, self._scratch):
            velocity *= momentum
            np.multiply(lr, grad, out=step)
            velocity -= step
            if self.nesterov:
                np.multiply(momentum, velocity, out=grad)
                grad -= step
                param += grad
            else:
                param += velocity

    def notify_no_improvement(self, position: int) -> None:
        if self.schedule == "adaptive":
            self.rates[position] = max(self.rates[position] / 5.0, 1e-6)
            self._rate = _per_fold_factor(self.rates)

    def should_stop(self, position: int, tol: float = 1e-6) -> bool:
        return self.schedule == "adaptive" and self.rates[position] <= tol


class _LaneAdam:
    """Stacked-tensor mirror of :class:`~repro.learners.solvers.AdamOptimizer`.

    Every active fold in a lane has taken the same number of steps, so
    the bias-correction terms are shared; the per-fold step size is the
    float chain of the per-fold optimizer (``init * sqrt / denom``)
    applied to one scalar while all folds share a ``learning_rate_init``
    and to a broadcast column otherwise.
    """

    def __init__(self, params: List[np.ndarray], members: List[_FoldPlan]) -> None:
        template = AdamOptimizer([], learning_rate_init=members[0].model.learning_rate_init)
        self.params = params
        self.rate_inits = [plan.model.learning_rate_init for plan in members]
        self._rate_init = _per_fold_factor(self.rate_inits)
        self.beta_1 = template.beta_1
        self.beta_2 = template.beta_2
        self.epsilon = template.epsilon
        self._t = 0
        self._ms = [np.zeros_like(p) for p in params]
        self._vs = [np.zeros_like(p) for p in params]
        self._scratch = _scratch(params)

    def compact(self, keep: List[int]) -> None:
        self._ms = [m[keep] for m in self._ms]
        self._vs = [v[keep] for v in self._vs]
        self._scratch = _scratch(self.params)
        self.rate_inits = [self.rate_inits[i] for i in keep]
        self._rate_init = _per_fold_factor(self.rate_inits)

    def update(self, grads: List[np.ndarray]) -> None:
        self._t += 1
        step = self._rate_init * np.sqrt(1.0 - self.beta_2**self._t) / (1.0 - self.beta_1**self._t)
        for param, grad, m, v, update in zip(self.params, grads, self._ms, self._vs, self._scratch):
            m *= self.beta_1
            np.multiply(1.0 - self.beta_1, grad, out=update)
            m += update
            v *= self.beta_2
            np.square(grad, out=update)
            update *= 1.0 - self.beta_2
            v += update
            np.multiply(step, m, out=update)
            np.sqrt(v, out=grad)
            grad += self.epsilon
            update /= grad
            param -= update

    def notify_no_improvement(self, position: int) -> None:
        """Adam has no schedule reaction; kept for interface symmetry."""

    def should_stop(self, position: int, tol: float = 1e-6) -> bool:
        return False


# -- the lane trainer ---------------------------------------------------------


def _fit_lane(members: List[_FoldPlan]) -> None:
    """Train one lane of identically-shaped folds in lockstep.

    Mirrors ``_BaseMLP._fit_stochastic`` per fold while running every
    tensor operation on ``(A, ...)`` stacks and every per-fold test —
    divergence, improvement, patience — as a mask over ``(A,)`` control
    arrays.  Per-fold Python is left to each fold's block of epoch
    orders (one generator call per ``_EPOCH_BLOCK`` epochs), the
    early-stopping validation score, the adaptive schedule's reaction to
    a stall and a fold that finishes (divergence, early stop, schedule
    collapse): it is finalised and compacted out, and the loop ends when
    the lane is empty or ``max_iter`` is reached.
    """
    reference = members[0].model
    early_stopping = reference.early_stopping
    adaptive = reference.learning_rate == "adaptive"
    models = [plan.model for plan in members]

    # Validation split per fold, consuming each fold's rng exactly as the
    # sequential path does.  Lane membership guarantees equal sizes.
    train_X: List[np.ndarray] = []
    train_y: List[np.ndarray] = []
    val_X: List[np.ndarray] = []
    val_y: List[np.ndarray] = []
    for plan in members:
        if early_stopping and plan.X.shape[0] > 1:
            X_train, y_train, X_val, y_val = plan.model._validation_split(
                plan.X, plan.y_encoded, plan.rng
            )
        else:
            X_train, y_train, X_val, y_val = plan.X, plan.y_encoded, None, None
        train_X.append(X_train)
        train_y.append(y_train)
        val_X.append(X_val)
        val_y.append(y_val)
    has_val = val_X[0] is not None

    Xs = np.stack(train_X)  # (A, n, D)
    ys = np.stack(train_y)  # (A, n, k)
    Xv = np.stack(val_X) if has_val else None
    yv = np.stack(val_y) if has_val else None

    n_layers = len(reference.coefs_)
    coefs = [np.stack([model.coefs_[l] for model in models]) for l in range(n_layers)]
    # Intercepts ride as (A, 1, d) so they broadcast over the row axis.
    intercepts = [
        np.stack([model.intercepts_[l] for model in models])[:, None, :] for l in range(n_layers)
    ]
    params = [*coefs, *intercepts]
    if reference.solver == "sgd":
        optimizer = _LaneSGD(params, members)
    else:
        optimizer = _LaneAdam(params, members)

    n_samples = Xs.shape[1]
    batch_size = reference._resolve_batch_size(n_samples)
    kernel = reference._kernel()
    samples = np.arange(n_samples)

    # The control plane: one entry per live slot, ``columns`` mapping
    # slots to members.  The tests below are the Python-float comparisons
    # of ``_fit_stochastic`` done elementwise, so each slot decides
    # exactly as its fold would alone; epoch losses land in ``curve``
    # (one column per member) and reach ``loss_curve_`` when a fold ends.
    width = len(members)
    columns = np.arange(width)
    rngs = [plan.rng for plan in members]
    alphas = np.array([model.alpha for model in models], dtype=float)
    tol = np.array([model.tol for model in models], dtype=float)
    patience = np.array([model.n_iter_no_change for model in models], dtype=float)
    best_loss = np.full(width, np.inf)
    best_val_score = np.full(width, -np.inf)
    no_improvement = np.zeros(width, dtype=int)
    best_params: List[Optional[Tuple[List[np.ndarray], List[np.ndarray]]]] = [None] * width
    max_iter = reference.max_iter
    curve = np.empty((max_iter, width))
    ridges: Dict[int, Any] = {}  # batch rows -> alpha / rows factor; reset on compaction
    grads, snapshot, first_rows = _lane_buffers(params, n_samples)
    if reference.shuffle:
        # Epoch orders, refilled with one generator call per fold every
        # ``_EPOCH_BLOCK`` epochs; the block compacts with the lane, so
        # survivors keep the orders their generators already drew.
        block = np.empty((width, min(_EPOCH_BLOCK, max_iter), n_samples), dtype=np.intp)

    for epoch in range(max_iter):
        # The epoch's entry state produced a finite loss (or is the
        # initialisation), so it is the divergence rollback target.
        for saved, param in zip(snapshot, params):
            np.copyto(saved, param)
        if reference.shuffle:
            if epoch % _EPOCH_BLOCK == 0:
                _epoch_orders(rngs, block[:, : max_iter - epoch])
            orders = block[:, epoch % _EPOCH_BLOCK]
        else:
            orders = np.broadcast_to(samples, (width, n_samples))
        accumulated = np.zeros(width)

        for start in range(0, n_samples, batch_size):
            idx = orders[:, start : start + batch_size]
            batch_n = idx.shape[1]
            # One take over the flattened rows: half the cost of a 2-D fancy index.
            rows = idx + first_rows
            Xb = np.take(Xs.reshape(-1, Xs.shape[-1]), rows, axis=0)
            yb = np.take(ys.reshape(-1, ys.shape[-1]), rows, axis=0)

            ridge = ridges.get(batch_n)
            if ridge is None:
                ridge = ridges[batch_n] = _per_fold_factor((alphas / batch_n).tolist())
            losses = _loss_and_gradients(Xb, yb, coefs, intercepts, alphas, ridge, kernel, grads)
            accumulated += losses * batch_n
            optimizer.update(grads)

        epoch_loss = accumulated / n_samples
        curve[epoch, columns] = epoch_loss
        # Losses are non-negative, so "non-finite or above the cap" is
        # "not at most the cap" (NaN compares false).
        diverged = ~(epoch_loss <= DIVERGENCE_LOSS_CAP)

        if early_stopping and has_val:
            val_out = _forward_pass(Xv, coefs, intercepts, kernel)[-1]
            scores = np.full(width, -np.inf)
            for i in np.flatnonzero(~diverged):
                model = models[columns[i]]
                scores[i] = score = _validation_score(model, val_out[i], yv[i])
                model.validation_scores_.append(score)
            improved = scores > best_val_score + tol
            best_val_score = np.where(improved, scores, best_val_score)
            for i in np.flatnonzero(improved):
                best_params[columns[i]] = _fold_parameters(coefs, intercepts, i)
        else:
            improved = epoch_loss < best_loss - tol
            best_loss = np.where(improved, epoch_loss, best_loss)
        no_improvement += 1
        no_improvement[improved] = 0

        # A diverged slot finishes whatever its other masks say, so they
        # need not exclude it.
        finished = diverged
        stalled = no_improvement >= patience
        if stalled.any():
            no_improvement[stalled] = 0
            if adaptive and not early_stopping:
                # The schedule reacts to a stall; the fold stops only
                # once it has collapsed.
                for i in np.flatnonzero(stalled):
                    optimizer.notify_no_improvement(i)
                    stalled[i] = optimizer.should_stop(i)
            finished = diverged | stalled

        if finished.any():
            for i in np.flatnonzero(finished):
                column = columns[i]
                if diverged[i]:
                    models[column].diverged_ = True
                    parameters = _fold_parameters(snapshot[:n_layers], snapshot[n_layers:], i)
                else:
                    parameters = best_params[column] or _fold_parameters(coefs, intercepts, i)
                _finish_fold(models[column], parameters, curve[: epoch + 1, column])
            keep = np.flatnonzero(~finished)
            if not keep.size:
                return
            width = keep.size
            columns = columns[keep]
            rngs = [rngs[i] for i in keep]
            if reference.shuffle:
                block = block[keep]
            alphas, tol, patience = alphas[keep], tol[keep], patience[keep]
            best_loss, best_val_score = best_loss[keep], best_val_score[keep]
            no_improvement = no_improvement[keep]
            Xs = Xs[keep]
            ys = ys[keep]
            if has_val:
                Xv = Xv[keep]
                yv = yv[keep]
            coefs = [c[keep] for c in coefs]
            intercepts = [b[keep] for b in intercepts]
            params = [*coefs, *intercepts]
            grads, snapshot, first_rows = _lane_buffers(params, n_samples)
            ridges.clear()
            optimizer.params = params
            optimizer.compact(keep.tolist())

    for i, column in enumerate(columns):
        parameters = best_params[column] or _fold_parameters(coefs, intercepts, i)
        _finish_fold(models[column], parameters, curve[:, column])


def _lane_buffers(params: List[np.ndarray], n_samples: int):
    """Per-compaction scratch: gradients, rollback snapshot, each slot's first stacked row."""
    grads = [np.empty_like(p) for p in params]
    snapshot = [np.empty_like(p) for p in params]
    return grads, snapshot, np.arange(params[0].shape[0])[:, None] * n_samples


def _fold_parameters(
    coefs: List[np.ndarray], intercepts: List[np.ndarray], position: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Copy one fold's ``(coefs, intercepts)`` out of the lane stacks."""
    return [c[position].copy() for c in coefs], [b[position, 0].copy() for b in intercepts]


def _finish_fold(
    model, parameters: Tuple[List[np.ndarray], List[np.ndarray]], losses: np.ndarray
) -> None:
    """Write a finished fold back: parameters, loss curve as Python floats, ``n_iter_``, ``loss_``."""
    model.coefs_, model.intercepts_ = parameters
    model.loss_curve_ = losses.tolist()
    model.n_iter_ = len(model.loss_curve_)
    model.loss_ = float("inf") if model.diverged_ else model.loss_curve_[-1]


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
