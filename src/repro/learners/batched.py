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
sequential reference.  Per-fold *control flow* (loss curves, early
stopping, the adaptive learning-rate schedule, divergence rollback)
stays in Python with per-fold scalars, exactly mirroring
``_BaseMLP._fit_stochastic``; a fold that stops is compacted out of the
lane and the survivors keep training.

The tensor arithmetic itself is not re-implemented here: a lane step is
one call to :func:`repro.learners.mlp._loss_and_gradients`, the same
rank-generic forward / head-loss / backward core that ``.fit`` runs on
2-D operands for ``sgd``, ``adam`` and the L-BFGS objective.  This
module owns only what stacking adds: lane formation, the ``(A, 1, 1)``
per-fold factor columns and the per-fold control flow.

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
``_fit_lane`` instead is bitwise-equal but measured 5-12 % slower
(docs/PERFORMANCE.md), so both training loops stay, chosen by lane
width.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import check_X_y
from .losses import squared_loss
from .mlp import (
    DIVERGENCE_LOSS_CAP,
    _BaseMLP,
    _forward_pass,
    _loss_and_gradients,
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
    for t, jobs in enumerate(trial_jobs):
        warm = warms[t] if warms is not None else None
        stats = per_trial[t]
        stats.folds = len(jobs)
        for index, (model, X, y) in enumerate(jobs):
            coefs_init = intercepts_init = None
            if warm is not None and index in warm:
                coefs_init, intercepts_init = warm[index]
            plan = _prepare_fold(model, X, y, coefs_init, intercepts_init)
            if warm_start_matches(plan.layer_units, coefs_init, intercepts_init):
                stats.warm_folds += 1
            plans.append(plan)
            owner.append(t)

    lanes: Dict[Tuple, List[int]] = {}
    for position, plan in enumerate(plans):
        lanes.setdefault(plan.lane_key, []).append(position)
    mega.lanes = len(lanes)
    mega.folds = len(plans)
    for positions in lanes.values():
        members = [plans[i] for i in positions]
        lane_trials = {owner[i] for i in positions}
        if len(lane_trials) > 1:
            mega.fused_lanes += 1
            mega.fused_folds += len(members)
        mega.max_lane_width = max(mega.max_lane_width, len(members))
        batched = _run_lane(members)
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
    return per_trial, mega


def _run_lane(members: List[_FoldPlan]) -> bool:
    """Train one lane; True iff it ran stacked (not member-by-member)."""
    if len(members) == 1 or members[0].model.solver == "lbfgs":
        for plan in members:
            _fit_sequential(plan)
        return False
    _fit_lane(members)
    return True


def _prepare_fold(model, X, y, coefs_init, intercepts_init) -> _FoldPlan:
    """Replicate the ``fit()`` preamble: validate, encode, initialise.

    Consumes the model's random stream exactly as ``fit`` does (Glorot
    draws unless a matching warm start suppresses them), so the batched
    and sequential paths see identical generator states at the start of
    stochastic training.
    """
    model._validate_hyperparameters()
    X, y = check_X_y(X, y)
    y_encoded = model._encode_targets(y)
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
        self._t = 0
        self._refresh_factors()

    def _refresh_factors(self) -> None:
        self._rate_init = _per_fold_factor(self.rate_inits)
        self._rate = _per_fold_factor(self.rates)
        self._momentum = _per_fold_factor(self.momenta)

    def compact(self, keep: List[int]) -> None:
        self._velocities = [v[keep] for v in self._velocities]
        self.rates = [self.rates[i] for i in keep]
        self.rate_inits = [self.rate_inits[i] for i in keep]
        self.momenta = [self.momenta[i] for i in keep]
        self._refresh_factors()

    def update(self, grads: List[np.ndarray]) -> None:
        self._t += 1
        if self.schedule == "invscaling":
            self._rate = self._rate_init / (self._t**self.power_t)
        lr, momentum = self._rate, self._momentum
        for param, grad, velocity in zip(self.params, grads, self._velocities):
            velocity *= momentum
            velocity -= lr * grad
            if self.nesterov:
                param += momentum * velocity - lr * grad
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

    def compact(self, keep: List[int]) -> None:
        self._ms = [m[keep] for m in self._ms]
        self._vs = [v[keep] for v in self._vs]
        self.rate_inits = [self.rate_inits[i] for i in keep]
        self._rate_init = _per_fold_factor(self.rate_inits)

    def update(self, grads: List[np.ndarray]) -> None:
        self._t += 1
        step = self._rate_init * np.sqrt(1.0 - self.beta_2**self._t) / (1.0 - self.beta_1**self._t)
        for param, grad, m, v in zip(self.params, grads, self._ms, self._vs):
            m *= self.beta_1
            m += (1.0 - self.beta_1) * grad
            v *= self.beta_2
            v += (1.0 - self.beta_2) * grad**2
            param -= step * m / (np.sqrt(v) + self.epsilon)

    def notify_no_improvement(self, position: int) -> None:
        """Adam has no schedule reaction; kept for interface symmetry."""

    def should_stop(self, position: int, tol: float = 1e-6) -> bool:
        return False


class _FoldState:
    """Per-fold bookkeeping that must stay scalar (and Python-exact).

    Carries the fold's own stopping hyperparameters (``tol``,
    ``n_iter_no_change``): they feed pure-Python comparisons, so folds
    from trials with different values share a lane without ever mixing.
    """

    __slots__ = (
        "plan",
        "tol",
        "n_iter_no_change",
        "best_loss",
        "best_val_score",
        "best_params",
        "no_improvement",
    )

    def __init__(self, plan: _FoldPlan) -> None:
        self.plan = plan
        self.tol = plan.model.tol
        self.n_iter_no_change = plan.model.n_iter_no_change
        self.best_loss = np.inf
        self.best_val_score = -np.inf
        self.best_params: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None
        self.no_improvement = 0


# -- the lane trainer ---------------------------------------------------------


def _fit_lane(members: List[_FoldPlan]) -> None:
    """Train one lane of identically-shaped folds in lockstep.

    Mirrors ``_BaseMLP._fit_stochastic`` per fold while running every
    tensor operation on ``(A, ...)`` stacks.  Folds that finish (early
    stop, divergence, schedule collapse) are finalised and compacted out;
    the loop ends when the lane is empty or ``max_iter`` is reached.
    """
    reference = members[0].model
    early_stopping = reference.early_stopping
    shuffle = reference.shuffle

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
    coefs = [np.stack([p.model.coefs_[l] for p in members]) for l in range(n_layers)]
    # Intercepts ride as (A, 1, d) so they broadcast over the row axis.
    intercepts = [
        np.stack([p.model.intercepts_[l] for p in members])[:, None, :] for l in range(n_layers)
    ]
    params = [*coefs, *intercepts]
    grads = [np.empty_like(p) for p in params]
    width = len(members)
    if reference.solver == "sgd":
        optimizer = _LaneSGD(params, members)
    else:
        optimizer = _LaneAdam(params, members)

    n_samples = Xs.shape[1]
    batch_size = reference._resolve_batch_size(n_samples)
    states = [_FoldState(plan) for plan in members]
    for state in states:
        state.plan.model.n_iter_ = 0

    kernel = reference._kernel()
    alphas = [plan.model.alpha for plan in members]
    ridges: Dict[int, Any] = {}  # batch rows -> alpha / rows factor; reset on compaction
    adaptive = reference.learning_rate == "adaptive"

    lane_rows = np.arange(width)[:, None]

    for _ in range(reference.max_iter):
        if not states:
            break
        width = len(states)
        epoch_start = [p.copy() for p in params]
        if shuffle:
            orders = np.stack([state.plan.rng.permutation(n_samples) for state in states])
        else:
            orders = np.broadcast_to(np.arange(n_samples), (width, n_samples))
        accumulated = [0.0] * width

        for start in range(0, n_samples, batch_size):
            idx = orders[:, start : start + batch_size]
            batch_n = idx.shape[1]
            Xb = Xs[lane_rows, idx]
            yb = ys[lane_rows, idx]

            ridge = ridges.get(batch_n)
            if ridge is None:
                ridge = ridges[batch_n] = _per_fold_factor([a / batch_n for a in alphas])
            losses = _loss_and_gradients(Xb, yb, coefs, intercepts, alphas, ridge, kernel, grads)
            for i in range(width):
                accumulated[i] += losses[i] * batch_n
            optimizer.update(grads)

        val_out = _forward_pass(Xv, coefs, intercepts, kernel)[-1] if has_val else None

        finished: List[int] = []
        for i, state in enumerate(states):
            model = state.plan.model
            epoch_loss = accumulated[i] / n_samples
            model.loss_curve_.append(epoch_loss)
            model.n_iter_ += 1

            if not np.isfinite(epoch_loss) or epoch_loss > DIVERGENCE_LOSS_CAP:
                model.diverged_ = True
                model.coefs_, model.intercepts_ = _fold_parameters(
                    epoch_start[:n_layers], epoch_start[n_layers:], i
                )
                model.loss_ = float("inf")
                finished.append(i)
                continue

            if early_stopping and has_val:
                val_score = _validation_score_slice(model, val_out[i], yv[i])
                model.validation_scores_.append(val_score)
                if val_score > state.best_val_score + state.tol:
                    state.best_val_score = val_score
                    state.best_params = _fold_parameters(coefs, intercepts, i)
                    state.no_improvement = 0
                else:
                    state.no_improvement += 1
            else:
                if epoch_loss < state.best_loss - state.tol:
                    state.best_loss = epoch_loss
                    state.no_improvement = 0
                else:
                    state.no_improvement += 1

            if state.no_improvement >= state.n_iter_no_change:
                optimizer.notify_no_improvement(i)
                state.no_improvement = 0
                if optimizer.should_stop(i) or early_stopping or not adaptive:
                    finished.append(i)

        if finished:
            finished_set = set(finished)
            for i in finished:
                if not states[i].plan.model.diverged_:
                    _finalize_fold(states[i], coefs, intercepts, i)
            keep = [i for i in range(len(states)) if i not in finished_set]
            if not keep:
                return
            states = [states[i] for i in keep]
            alphas = [alphas[i] for i in keep]
            Xs = Xs[keep]
            ys = ys[keep]
            if has_val:
                Xv = Xv[keep]
                yv = yv[keep]
            coefs = [c[keep] for c in coefs]
            intercepts = [b[keep] for b in intercepts]
            params = [*coefs, *intercepts]
            grads = [np.empty_like(p) for p in params]
            ridges.clear()
            optimizer.params = params
            optimizer.compact(keep)
            lane_rows = np.arange(len(states))[:, None]

    for i, state in enumerate(states):
        _finalize_fold(state, coefs, intercepts, i)


def _fold_parameters(
    coefs: List[np.ndarray], intercepts: List[np.ndarray], position: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Copy one fold's ``(coefs, intercepts)`` out of the lane stacks."""
    return [c[position].copy() for c in coefs], [b[position, 0].copy() for b in intercepts]


def _finalize_fold(
    state: _FoldState, coefs: List[np.ndarray], intercepts: List[np.ndarray], position: int
) -> None:
    """Write the trained lane slice back onto the fold's estimator."""
    model = state.plan.model
    if state.best_params is not None:
        model.coefs_, model.intercepts_ = state.best_params
    else:
        model.coefs_, model.intercepts_ = _fold_parameters(coefs, intercepts, position)
    model.loss_ = model.loss_curve_[-1] if model.loss_curve_ else np.inf


def _validation_score_slice(model, proba: np.ndarray, y_val: np.ndarray) -> float:
    """Per-fold early-stopping score from an already-computed forward pass.

    Mirrors ``MLPClassifier._validation_score`` / ``MLPRegressor._validation_score``
    without re-running the forward pass per fold.
    """
    if hasattr(model, "classes_"):
        if len(model.classes_) == 2:
            predicted = (proba[:, 0] >= 0.5).astype(float)
            return float((predicted == y_val[:, 0]).mean())
        return float((proba.argmax(axis=1) == y_val.argmax(axis=1)).mean())
    return -squared_loss(y_val, proba)
