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

Only the stochastic solvers (``sgd`` / ``adam``) are batchable; L-BFGS
is full-batch scipy and keeps the per-fold loop.  A lane of one fold
gains nothing from stacking and finishes through the model's own
``_fit_stochastic`` (:func:`_run_lane`): routing it through a width-1
``_fit_lane`` instead is bitwise-equal but measured 8-20 % slower — the
vector control plane's fixed per-epoch cost buys nothing at width one
(docs/PERFORMANCE.md) — so both training loops stay, chosen by lane
width.

Two cores, one lane
-------------------
A stochastic lane wide enough that each half stacks at least
:data:`_SPLIT_MIN_ROWS` training rows trains as two contiguous halves of
two or more folds each, dealt largest-first between the calling thread
and **one** long-lived helper thread; the call returns (or raises) only
once both are done.  Folds are independent and lane membership is
bit-neutral from width two up, so a half is an ordinary ``_fit_lane``
call on disjoint folds and every fold trains bitwise as before; a half
is never width one, whose ``_fit_stochastic`` reductions differ.  Numpy
drops the GIL inside each stacked operation, which is where a wide lane
spends its time.  Narrower lanes, width-one lanes and ``lbfgs`` stay on
the calling thread, and :class:`MegaBatchStats` still counts the logical
lanes.  The helper never starts on one CPU or in a process that
``multiprocessing`` started, such as a pool worker (the pool already
fills the cores); a forked child forgets the one it inherited, and a
second caller that finds it busy trains its own lanes whole, inline,
rather than queueing (docs/PERFORMANCE.md section 17).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import check_X_y
from .mlp import (
    _EPOCH_BLOCK,
    DIVERGENCE_LOSS_CAP,
    MLPClassifier,
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
    """Whether ``model`` can be trained by the batched fold kernels.

    True for the repo's MLPs with a stochastic solver; L-BFGS and
    non-MLP estimators take the sequential per-fold path.
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
        y_train)`` fold jobs in fold order.  Every model must satisfy
        :func:`batchable_model` and is fitted in place exactly as
        ``model.fit`` would have; models from *different* trials may
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


# -- two cores, one lane --------------------------------------------------------
# Only ``_fit_lane`` on disjoint members runs off the calling thread: no
# collector, fault point or flight-recorder note is reached from a half.

#: Stacked training rows (folds x rows) each half of a lane needs before the
#: lane is split.  Measured per lane: halves of 11 520 rows ran 1.4-2.1x
#: faster split, of 4 800-5 760 rows 1.05-1.13x, and below 3 000 rows the
#: split lost (docs/PERFORMANCE.md section 17).
_SPLIT_MIN_ROWS = 8192


def _halves(members: List[_FoldPlan]) -> Optional[Tuple[List[_FoldPlan], List[_FoldPlan]]]:
    """Two contiguous halves of a lane wide enough to share, else ``None``."""
    half = len(members) // 2
    if half < 2 or not _stacks(members) or half * members[0].X.shape[0] < _SPLIT_MIN_ROWS:
        return None
    return members[:half], members[half:]


def _rows(members: List[_FoldPlan]) -> int:
    """Stacked training rows of a lane: the work it brings."""
    return len(members) * members[0].X.shape[0]


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Helper:
    """The one long-lived thread that trains lane halves beside the calling thread.

    One call owns it at a time: :meth:`claim` is a non-blocking
    try-acquire, so a second caller trains its lanes inline rather than
    queueing behind another's.  A process started by ``multiprocessing``
    (a pool worker, under ``fork`` or ``spawn``) never claims it: the pool
    already occupies the cores.
    """

    def __init__(self) -> None:
        self.forget()

    def forget(self) -> None:
        """Start over without a thread: a forked child inherits this object, not the thread."""
        self._lock = threading.Lock()
        self._executor = None

    def claim(self) -> bool:
        """Own the helper until :meth:`release`; False when it is busy or should not run."""
        import multiprocessing

        if _cpus() < 2 or multiprocessing.parent_process() is not None:
            return False
        return self._lock.acquire(blocking=False)

    def release(self) -> None:
        self._lock.release()

    def submit(self, lanes: List[List[_FoldPlan]]):
        """Start training ``lanes`` on the helper thread; a future of the outcome."""
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-lane-helper")
        return self._executor.submit(_run_lanes, lanes)


_HELPER = _Helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HELPER.forget)


def _train(lanes: List[List[_FoldPlan]]) -> None:
    """Train every lane; with the helper free, wide lanes share it half and half.

    Halves are dealt largest-first to whichever thread has fewer stacked
    rows so far, the calling thread starting with the lanes it keeps
    whole.  Both threads finish before this returns or raises; a half that
    raised on the helper raises here.
    """
    split = [_halves(members) for members in lanes]
    if not any(split) or not _HELPER.claim():
        _run_lanes(lanes)
        return
    try:
        own = [members for members, halves in zip(lanes, split) if halves is None]
        shares: Tuple[List, List] = (own, [])  # (calling thread, helper)
        loads = [sum(map(_rows, own)), 0]
        chunks = [half for halves in split if halves is not None for half in halves]
        for chunk in sorted(chunks, key=_rows, reverse=True):
            side = 1 if loads[1] <= loads[0] else 0
            shares[side].append(chunk)
            loads[side] += _rows(chunk)
        future = _HELPER.submit(shares[1])
        try:
            _run_lanes(own)
        except BaseException:
            future.exception()  # the helper's half finishes before this unwinds
            raise
        future.result()
    finally:
        _HELPER.release()


def _run_lanes(lanes: List[List[_FoldPlan]]) -> None:
    for members in lanes:
        _run_lane(members)


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
