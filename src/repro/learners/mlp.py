"""Multi-layer perceptron classifier and regressor.

A from-scratch numpy reimplementation of the scikit-learn
``MLPClassifier`` / ``MLPRegressor`` pair, covering exactly the
hyperparameter surface of the paper's Table III search space:

- ``hidden_layer_sizes`` — any tuple of layer widths;
- ``activation`` — ``logistic`` / ``tanh`` / ``relu`` (plus ``identity``);
- ``solver`` — ``lbfgs`` (full batch, L-BFGS-B), ``sgd`` (with momentum
  and the three learning-rate schedules) and ``adam``;
- ``learning_rate_init``, ``batch_size``, ``learning_rate`` schedule,
  ``momentum`` and ``early_stopping``.

The implementation purposely follows scikit-learn's structure (coefficient
lists per layer, loss curves, early stopping on a held-out fraction) so that
behaviours the paper's experiments depend on — e.g. large slow
configurations versus small fast ones — carry over.

Every MLP fold trains through one preamble and one training loop per
solver family.  :func:`_prepare_fold` validates, encodes the targets and
initialises the parameters; a *lane* of identically shaped folds then
trains together, every tensor stacked ``(A, ...)``: :func:`_fit_lane`
runs ``sgd`` / ``adam`` lanes in lockstep, every per-fold decision
(divergence, improvement, patience) a mask over ``(A,)`` arrays, and
:func:`_fit_lbfgs_lane` runs one L-BFGS-B problem per ``lbfgs`` fold,
evaluating every fold that asks in one stacked pass.  ``.fit`` is a lane
of one; :func:`repro.learners.batched.fit_mlp_trials` groups a rung's
folds into wider lanes and gets, fold by fold, the bits ``.fit`` gives.
The lanes are pinned to independent per-fold loops, the oracles in
``tests/learners/_reference_kernel.py``, not to themselves.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .activations import get_activation, softmax
from .base import BaseEstimator, check_X_y
from .losses import _EPS, _MAX_RESIDUAL, squared_loss
from .preprocessing import LabelEncoder, one_hot
from .solvers import LBFGSB, AdamOptimizer

__all__ = [
    "DIVERGENCE_LOSS_CAP",
    "MLPClassifier",
    "MLPRegressor",
    "resolve_initial_parameters",
    "warm_start_matches",
]

#: Epoch losses beyond this (or non-finite ones) mark the fit as diverged:
#: training aborts, parameters roll back to the last finite state and
#: ``diverged_`` is set so guarded evaluators can record the event.
DIVERGENCE_LOSS_CAP = 1e12

#: Pre-activation clamp in :func:`_forward_pass`; keeps exploded
#: weights from pushing ``inf`` through identity/relu heads while being
#: far beyond any numerically healthy pre-activation.  Chosen so a clamped
#: identity output still overshoots :data:`DIVERGENCE_LOSS_CAP` when
#: squared (``(1e8)^2 / 2 >> 1e12``), keeping regressor divergence
#: detectable.
_Z_CLIP = 1e8

#: Epochs of shuffle orders a training loop draws per generator call.
_EPOCH_BLOCK = 8


def _epoch_orders(rngs: Sequence[np.random.Generator], block: np.ndarray) -> None:
    """Refill ``block[i]``, ``(depth, n)`` intp, with fold ``i``'s next ``depth`` epoch orders.

    Row ``e`` of ``Generator.permuted`` over ``arange(n)`` rows (``axis=1``)
    is bitwise the ``e``-th successive ``rng.permutation(n)``, and the
    generator ends in the same state, so one call per fold per block leaves
    every fold's stream what one ``permutation`` per epoch made it.  After
    the validation split a fit's generator draws nothing but these orders
    and dies with the fit, so orders drawn past its last epoch are never
    observed.  The lane trainer draws every fold's orders through here.
    """
    block[...] = np.arange(block.shape[-1])
    for rng, rows in zip(rngs, block):
        rng.permuted(rows, axis=1, out=rows)


# -- the fit kernel -----------------------------------------------------------
#
# One forward pass and one loss/backward pass serve both lane trainers.
# Both are rank-generic: 2-D operands are one fold, 3-D ``(A, ...)``
# operands a lane stack (intercepts ``(A, 1, d)``, per-fold
# scalars as ``(A, 1, 1)`` columns), and slice ``i`` of a stacked result is
# bitwise the 2-D result for fold ``i``.


def _forward_pass(X, coefs, intercepts, kernel) -> List[np.ndarray]:
    """Return the list of layer activations, input included."""
    hidden_fn, _, out_fn, _ = kernel
    activations = [X]
    last = len(coefs) - 1
    for layer, (coef, intercept) in enumerate(zip(coefs, intercepts)):
        z = np.matmul(activations[-1], coef)
        z += intercept
        # Exploded weights push inf through identity/relu heads; the
        # clamp keeps the forward pass bounded without affecting healthy
        # magnitudes.  NaN deliberately passes through: it reaches the
        # loss, where divergence detection rolls the fit back.
        z.clip(-_Z_CLIP, _Z_CLIP, out=z)
        activations.append(out_fn(z) if layer == last else hidden_fn(z))
    return activations


def _loss_and_gradients(X, y, coefs, intercepts, alphas, ridge, kernel, grads) -> np.ndarray:
    """Regularised mean loss per fold; gradients are written into ``grads``.

    ``alphas`` is the L2 strength — a float for a 2-D fold, an ``(A,)``
    array for a stack — and ``ridge`` is ``alpha / n`` as a scalar or
    per-fold column; ``grads`` lists one buffer per coefficient tensor,
    then one per intercept.  The loss comes back in the same form: a 0-d
    value for a 2-D fold, one ``(A,)`` array for a stack.  For all three
    heads (softmax + CE, logistic + BCE, identity + half-MSE) the output
    delta collapses to ``(prediction - target) / n``.
    """
    _, hidden_derivative, _, head = kernel
    activations = _forward_pass(X, coefs, intercepts, kernel)
    out = activations[-1]
    n_samples = y.shape[-2]
    delta = out - y

    # Head losses of :mod:`.losses`, reduced per fold.
    if head == "identity":
        diff = delta.clip(-_MAX_RESIDUAL, _MAX_RESIDUAL)
        data = np.square(diff, out=diff).sum(axis=(-2, -1)) / (2.0 * n_samples)
    else:
        prob = out.clip(_EPS, 1.0 - _EPS)
        per_sample = y * np.log(prob)
        if head == "logistic":
            per_sample += (1.0 - y) * np.log(1.0 - prob)
        data = -per_sample.sum(axis=(-2, -1)) / n_samples
    # L2 penalty on weights only (biases excluded), as in scikit-learn.
    # The per-layer squares are added in layer order: per fold that is
    # the IEEE sum ``0 + s0 + s1 + ...`` (squares are never ``-0.0``), so
    # a stack and a 2-D fold round identically.
    squares = (coefs[0] ** 2).sum(axis=(-2, -1))
    for coef in coefs[1:]:
        squares = squares + (coef**2).sum(axis=(-2, -1))
    losses = data + (alphas / (2.0 * n_samples)) * squares

    n_layers = len(coefs)
    delta /= n_samples
    for layer in range(n_layers - 1, -1, -1):
        grad = np.matmul(activations[layer].swapaxes(-1, -2), delta, out=grads[layer])
        grad += ridge * coefs[layer]
        bias_grad = grads[n_layers + layer]
        delta.sum(axis=-2, out=bias_grad, keepdims=bias_grad.ndim == delta.ndim)
        if layer > 0:
            if delta.shape[-1] == 1:
                # Inner dimension 1: one product per element.  GEMM turns a
                # -0.0 product into +0.0, but every use of delta below sums
                # from +0.0, so the gradients keep their bytes either way.
                delta = delta * coefs[layer].swapaxes(-1, -2)
            else:
                delta = np.matmul(delta, coefs[layer].swapaxes(-1, -2))
            delta *= hidden_derivative(activations[layer])
    return losses


def _validation_score(model, proba: np.ndarray, y_val: np.ndarray) -> float:
    """Early-stopping score of one fold from its output ``proba``."""
    if hasattr(model, "classes_"):
        if len(model.classes_) == 2:
            predicted = (proba[:, 0] >= 0.5).astype(float)
            return float((predicted == y_val[:, 0]).mean())
        return float((proba.argmax(axis=1) == y_val.argmax(axis=1)).mean())
    return -squared_loss(y_val, proba)


def _init_coefficients(
    layer_units: Sequence[int], activation: str, rng: np.random.Generator
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Glorot-style initialisation matching scikit-learn's bounds."""
    coefs, intercepts = [], []
    for fan_in, fan_out in zip(layer_units[:-1], layer_units[1:]):
        # scikit-learn uses a larger gain for sigmoid-shaped activations.
        factor = 2.0 if activation == "logistic" else 6.0
        bound = np.sqrt(factor / (fan_in + fan_out))
        coefs.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        intercepts.append(rng.uniform(-bound, bound, size=fan_out))
    return coefs, intercepts


def warm_start_matches(
    layer_units: Sequence[int],
    coefs_init: Optional[Sequence[np.ndarray]],
    intercepts_init: Optional[Sequence[np.ndarray]],
) -> bool:
    """Whether a donated parameter set fits this network's architecture.

    Warm starts are only usable when every layer's shape agrees; a
    mismatch (e.g. a fold with a different class count) silently falls
    back to cold Glorot initialisation rather than erroring, because the
    donor was trained on *different data* and shape is the only contract.
    """
    if coefs_init is None or intercepts_init is None:
        return False
    expected = list(zip(layer_units[:-1], layer_units[1:]))
    if len(coefs_init) != len(expected) or len(intercepts_init) != len(expected):
        return False
    for (fan_in, fan_out), coef, intercept in zip(expected, coefs_init, intercepts_init):
        if tuple(np.shape(coef)) != (fan_in, fan_out):
            return False
        if tuple(np.shape(intercept)) != (fan_out,):
            return False
    return True


def resolve_initial_parameters(
    layer_units: Sequence[int],
    activation: str,
    rng: np.random.Generator,
    coefs_init: Optional[Sequence[np.ndarray]] = None,
    intercepts_init: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Warm parameters (copied) when shapes match, else fresh Glorot draws.

    A matching warm start consumes **no** random draws — the training
    trajectory then depends only on the donated weights and the
    post-initialisation stream (validation split, shuffles), which is
    what makes warm-started runs reproducible in their own right.
    """
    if warm_start_matches(layer_units, coefs_init, intercepts_init):
        coefs = [np.array(c, dtype=float) for c in coefs_init]
        intercepts = [np.array(b, dtype=float).ravel() for b in intercepts_init]
        return coefs, intercepts
    return _init_coefficients(layer_units, activation, rng)


# -- one fold: the preamble and the training loop ---------------------------
#
# ``.fit`` is a lane of one: :func:`_prepare_fold` then :func:`_run_lane`.
# ``fit_mlp_trials`` prepares every fold of a rung the same way and runs
# lanes of many, so a fold trains through the same code at any width.


class _FoldPlan:
    """One fold's prepared state between the fit preamble and training."""

    __slots__ = ("model", "X", "y_encoded", "rng", "layer_units")

    def __init__(self, model, X, y_encoded, rng, layer_units) -> None:
        self.model = model
        self.X = X
        self.y_encoded = y_encoded
        self.rng = rng
        self.layer_units = layer_units


def _prepare_fold(model, X, y, coefs_init=None, intercepts_init=None, encoding=None) -> _FoldPlan:
    """The fit preamble: validate, encode, initialise.

    Targets come from ``encoding``, a ``(classes, codes)`` pair, when one
    is given (``fit_mlp_trials`` encodes a rung's labels at once), else
    from the model's own encoder.  The model's generator draws the Glorot
    initialisation unless a matching warm start replaces it; training
    draws the rest of its stream.
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
    return _FoldPlan(model, X, y_encoded, rng, layer_units)


def _run_lane(members: List[_FoldPlan], poll: Optional[Callable[[], None]] = None) -> None:
    """Train one lane of prepared folds, whatever its width.

    ``poll``, if given, is called between epochs (between evaluation
    rounds for ``lbfgs``); it must leave this lane's folds alone.
    """
    (_fit_lbfgs_lane if members[0].model.solver == "lbfgs" else _fit_lane)(members, poll)


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


def _fit_lane(members: List[_FoldPlan], poll: Optional[Callable[[], None]] = None) -> None:
    """Train one lane of identically-shaped folds in lockstep.

    The one ``sgd`` / ``adam`` loop, at any width down to one: every
    tensor operation runs on ``(A, ...)`` stacks and every per-fold test —
    divergence, improvement, patience — as a mask over ``(A,)`` control
    arrays, the IEEE operations one fold alone would make on its own
    floats, so a fold's bits do not depend on the lane it shares.
    Per-fold Python is left to each fold's block of epoch orders (one
    generator call per ``_EPOCH_BLOCK`` epochs), the
    early-stopping validation score, the adaptive schedule's reaction to
    a stall and a fold that finishes (divergence, early stop, schedule
    collapse): it is finalised and compacted out, and the loop ends when
    the lane is empty or ``max_iter`` is reached.
    """
    reference = members[0].model
    early_stopping = reference.early_stopping
    adaptive = reference.learning_rate == "adaptive"
    models = [plan.model for plan in members]

    # Validation split per fold, from each fold's own generator.  Lane
    # membership guarantees equal sizes.
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
    # slots to members.  The tests below are per-fold float comparisons
    # done elementwise, so each slot decides exactly as its fold would
    # alone; epoch losses land in ``curve``
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
        if poll is not None:
            poll()
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


def _fit_lbfgs_lane(members: List[_FoldPlan], poll: Optional[Callable[[], None]] = None) -> None:
    """Train one lane of identically shaped ``lbfgs`` folds, evaluated together.

    Each fold runs its own L-BFGS-B problem (its model's
    :meth:`~_BaseMLP._lbfgs_run`) over its parameters flattened,
    coefficients first, then intercepts.  A round drives every run until
    it asks for the loss and gradient at its point or stops; one stacked
    :func:`_loss_and_gradients` over the full training folds, with
    per-fold ``alpha`` and ridge as in :func:`_fit_lane`, answers every
    run that asked, and a finished fold is written back and compacted
    out.  The loss curve records each evaluation, twice for a point that
    holds NaN, which ``scipy.optimize.minimize`` evaluates twice.  A
    result that is non-finite or past :data:`DIVERGENCE_LOSS_CAP` rolls
    the fold back to its initial parameters with ``diverged_`` set.
    """
    models = [plan.model for plan in members]
    reference = models[0]
    shapes = [p.shape for p in (*reference.coefs_, *reference.intercepts_)]
    bounds = np.cumsum([0, *(int(np.prod(shape)) for shape in shapes)])
    x0s = [np.concatenate([p.ravel() for p in (*m.coefs_, *m.intercepts_)]) for m in models]
    runs = [model._lbfgs_run(x0) for model, x0 in zip(models, x0s)]
    kernel = reference._kernel()
    n_samples = members[0].X.shape[0]
    Xs = np.stack([plan.X for plan in members])
    ys = np.stack([plan.y_encoded for plan in members])
    alphas = np.array([model.alpha for model in models], dtype=float)
    n_coefs = len(shapes) // 2
    live = list(range(len(members)))  # slot -> member
    asking = [run.ask() for run in runs]  # every run first asks at its x0
    params = None
    while True:
        if poll is not None:
            poll()
        if not all(asking):
            for i, asks in zip(live, asking):
                if not asks:
                    _finish_lbfgs(models[i], runs[i], x0s[i], shapes, bounds)
            keep = [slot for slot, asks in enumerate(asking) if asks]
            if not keep:
                return
            live = [live[slot] for slot in keep]
            Xs, ys, alphas = Xs[keep], ys[keep], alphas[keep]
            params = None
        if params is None:  # (re)built when the lane changes width
            width = len(live)
            params = [np.empty((width, *(s if len(s) == 2 else (1, *s)))) for s in shapes]
            grads = [np.empty_like(p) for p in params]
            flat_grads = np.empty((width, bounds[-1]))
            ridge = _per_fold_factor((alphas / n_samples).tolist())
        theta = np.stack([runs[i].x for i in live])
        for param, lo, hi in zip(params, bounds, bounds[1:]):
            param.reshape(width, -1)[...] = theta[:, lo:hi]
        losses = _loss_and_gradients(
            Xs, ys, params[:n_coefs], params[n_coefs:], alphas, ridge, kernel, grads
        )
        for grad, lo, hi in zip(grads, bounds, bounds[1:]):
            flat_grads[:, lo:hi] = grad.reshape(width, -1)
        twice = np.isnan(theta).any(axis=1)
        for slot, (i, loss) in enumerate(zip(live, losses.tolist())):
            models[i].loss_curve_.extend((loss, loss) if twice[slot] else (loss,))
            runs[i].tell(loss, flat_grads[slot])
        asking = [runs[i].ask() for i in live]


def _finish_lbfgs(model, run: LBFGSB, x0: np.ndarray, shapes, bounds) -> None:
    """Write a finished ``lbfgs`` fold back: its last point, or ``x0`` once diverged."""
    final, loss = run.x, float(run.f)
    if not np.isfinite(final).all() or not np.isfinite(loss) or loss > DIVERGENCE_LOSS_CAP:
        model.diverged_ = True
        final, loss = x0, np.inf
    params = [final[lo:hi].reshape(shape) for shape, lo, hi in zip(shapes, bounds, bounds[1:])]
    n_coefs = len(shapes) // 2
    model.coefs_, model.intercepts_ = params[:n_coefs], params[n_coefs:]
    model.loss_ = loss
    model.n_iter_ = run.nit


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


class _BaseMLP(BaseEstimator):
    """Shared training machinery for the classifier and regressor."""

    def __init__(
        self,
        hidden_layer_sizes: Union[int, Sequence[int]] = (100,),
        activation: str = "relu",
        solver: str = "adam",
        alpha: float = 1e-4,
        batch_size: Union[int, str] = "auto",
        learning_rate: str = "constant",
        learning_rate_init: float = 0.001,
        power_t: float = 0.5,
        max_iter: int = 200,
        shuffle: bool = True,
        random_state: Optional[int] = None,
        tol: float = 1e-4,
        momentum: float = 0.9,
        nesterovs_momentum: bool = True,
        early_stopping: bool = False,
        validation_fraction: float = 0.1,
        n_iter_no_change: int = 10,
        max_fun: int = 15000,
    ) -> None:
        self.hidden_layer_sizes = hidden_layer_sizes
        self.activation = activation
        self.solver = solver
        self.alpha = alpha
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.learning_rate_init = learning_rate_init
        self.power_t = power_t
        self.max_iter = max_iter
        self.shuffle = shuffle
        self.random_state = random_state
        self.tol = tol
        self.momentum = momentum
        self.nesterovs_momentum = nesterovs_momentum
        self.early_stopping = early_stopping
        self.validation_fraction = validation_fraction
        self.n_iter_no_change = n_iter_no_change
        self.max_fun = max_fun

    # -- subclass hooks ---------------------------------------------------

    def _output_activation(self) -> str:
        raise NotImplementedError

    def _encode_targets(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _n_outputs(self, y_encoded: np.ndarray) -> int:
        return y_encoded.shape[1]

    # -- validation -------------------------------------------------------

    def _validate_hyperparameters(self) -> None:
        if self.solver not in ("lbfgs", "sgd", "adam"):
            raise ValueError(f"solver must be 'lbfgs', 'sgd' or 'adam', got {self.solver!r}")
        if self.activation not in ("identity", "logistic", "tanh", "relu"):
            raise ValueError(f"Unknown activation {self.activation!r}")
        if self.max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )

    def _hidden_layers(self) -> Tuple[int, ...]:
        sizes = self.hidden_layer_sizes
        if np.isscalar(sizes):
            sizes = (int(sizes),)
        sizes = tuple(int(s) for s in sizes)
        if any(s <= 0 for s in sizes):
            raise ValueError(f"hidden_layer_sizes must be positive, got {sizes}")
        return sizes

    def _resolve_batch_size(self, n_samples: int) -> int:
        if self.batch_size == "auto":
            return min(200, n_samples)
        batch_size = int(self.batch_size)
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return min(batch_size, n_samples)

    # -- forward / backward -----------------------------------------------

    def _kernel(self) -> tuple:
        """``(hidden_fn, hidden_derivative, out_fn, head)``; fit loops look it up once."""
        head = self._output_activation()
        out_fn = softmax if head == "softmax" else get_activation(head)[0]
        return (*get_activation(self.activation), out_fn, head)

    def _forward(self, X: np.ndarray) -> List[np.ndarray]:
        """Return the list of layer activations, input included."""
        return _forward_pass(X, self.coefs_, self.intercepts_, self._kernel())

    def _backprop(
        self, X: np.ndarray, y: np.ndarray, kernel: Optional[tuple] = None, grads=None
    ) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
        """Loss plus gradients w.r.t. every coefficient and intercept, for one fold.

        A caller evaluating many times may pass its ``kernel`` and reusable ``grads`` buffers.
        """
        n_coefs = len(self.coefs_)
        if grads is None:
            grads = [np.empty_like(p) for p in (*self.coefs_, *self.intercepts_)]
        ridge = self.alpha / X.shape[0]
        loss = _loss_and_gradients(
            X, y, self.coefs_, self.intercepts_, self.alpha, ridge, kernel or self._kernel(), grads
        )
        return float(loss), grads[:n_coefs], grads[n_coefs:]

    # -- fitting ----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        coefs_init: Optional[Sequence[np.ndarray]] = None,
        intercepts_init: Optional[Sequence[np.ndarray]] = None,
    ) -> "_BaseMLP":
        """Train the network on ``(X, y)``.

        ``coefs_init`` / ``intercepts_init`` optionally warm-start the
        network from previously trained parameters (e.g. a lower-budget
        checkpoint): when their shapes match the architecture implied by
        the data they replace the Glorot initialisation and training
        continues from them; otherwise they are ignored and the fit is
        cold.  Optimizer state (momentum/Adam moments) always starts
        fresh.
        """
        _run_lane([_prepare_fold(self, X, y, coefs_init, intercepts_init)])
        return self

    def _lbfgs_run(self, x0: np.ndarray) -> LBFGSB:
        """This fold's L-BFGS-B problem from ``x0``; the ``lbfgs`` lane builds one per fold."""
        return LBFGSB(x0, self.max_iter, self.max_fun, self.tol)

    def _validation_split(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n_samples = X.shape[0]
        n_val = max(1, int(np.floor(self.validation_fraction * n_samples)))
        if n_val >= n_samples:
            n_val = n_samples - 1
        order = rng.permutation(n_samples)
        val_idx, train_idx = order[:n_val], order[n_val:]
        return X[train_idx], y[train_idx], X[val_idx], y[val_idx]

    def _check_fitted(self) -> None:
        if not hasattr(self, "coefs_"):
            raise RuntimeError(f"{type(self).__name__} must be fitted before prediction")


class MLPClassifier(_BaseMLP):
    """Feed-forward neural-network classifier.

    Binary problems use a single logistic output unit; multi-class problems
    use a softmax output layer, both trained with cross-entropy.

    Examples
    --------
    >>> from repro.learners import MLPClassifier
    >>> import numpy as np
    >>> X = np.vstack([np.zeros((20, 2)), np.ones((20, 2))])
    >>> y = np.array([0] * 20 + [1] * 20)
    >>> clf = MLPClassifier(hidden_layer_sizes=(8,), max_iter=50, random_state=0)
    >>> float(clf.fit(X, y).score(X, y)) >= 0.9
    True
    """

    def _encode_targets(self, y: np.ndarray) -> np.ndarray:
        encoder = LabelEncoder().fit(y)
        return self._encode_codes(encoder.classes_, encoder.transform(y))

    def _encode_codes(self, classes: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Adopt ``classes`` (sorted labels) and encode ``codes``, their indices."""
        self._label_encoder = LabelEncoder()
        self._label_encoder.classes_ = self.classes_ = classes
        if len(classes) < 2:
            raise ValueError("MLPClassifier requires at least 2 classes in y")
        if len(classes) == 2:
            return codes.reshape(-1, 1).astype(float)
        return one_hot(codes, n_classes=len(classes))

    def _output_activation(self) -> str:
        return "logistic" if len(self.classes_) == 2 else "softmax"

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class membership probabilities, shape ``(n_samples, n_classes)``."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        out = self._forward(X)[-1]
        if len(self.classes_) == 2:
            return np.column_stack([1.0 - out[:, 0], out[:, 0]])
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        proba = self.predict_proba(X)
        return self._label_encoder.inverse_transform(proba.argmax(axis=1))

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy of ``predict(X)`` against ``y``."""
        y = np.asarray(y).ravel()
        return float((self.predict(X) == y).mean())


class MLPRegressor(_BaseMLP):
    """Feed-forward neural-network regressor with identity output.

    Trained on half mean-squared-error; :meth:`score` reports R².
    """

    def _encode_targets(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float).reshape(-1, 1)

    def _output_activation(self) -> str:
        return "identity"

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted target values, shape ``(n_samples,)``."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return self._forward(X)[-1].ravel()

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R² of the prediction."""
        y = np.asarray(y, dtype=float).ravel()
        prediction = self.predict(X)
        ss_res = float(((y - prediction) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return 0.0 if ss_res > 0 else 1.0
        return 1.0 - ss_res / ss_tot
