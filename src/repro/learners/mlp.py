"""Multi-layer perceptron classifier and regressor.

A from-scratch numpy reimplementation of the scikit-learn
``MLPClassifier`` / ``MLPRegressor`` pair, covering exactly the
hyperparameter surface of the paper's Table III search space:

- ``hidden_layer_sizes`` — any tuple of layer widths;
- ``activation`` — ``logistic`` / ``tanh`` / ``relu`` (plus ``identity``);
- ``solver`` — ``lbfgs`` (full batch, via scipy), ``sgd`` (with momentum
  and the three learning-rate schedules) and ``adam``;
- ``learning_rate_init``, ``batch_size``, ``learning_rate`` schedule,
  ``momentum`` and ``early_stopping``.

The implementation purposely follows scikit-learn's structure (coefficient
lists per layer, loss curves, early stopping on a held-out fraction) so that
behaviours the paper's experiments depend on — e.g. large slow
configurations versus small fast ones — carry over.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .activations import get_activation, softmax
from .base import BaseEstimator, check_X_y
from .losses import _EPS, _MAX_RESIDUAL, squared_loss
from .preprocessing import LabelEncoder, one_hot
from .solvers import make_optimizer

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
    observed.  ``.fit`` and the lane trainer both draw through here.
    """
    block[...] = np.arange(block.shape[-1])
    for rng, rows in zip(rngs, block):
        rng.permuted(rows, axis=1, out=rows)


# -- the fit kernel -----------------------------------------------------------
#
# One forward pass and one loss/backward pass serve ``.fit`` (sgd, adam and
# the L-BFGS objective) and ``fit_mlp_trials``.  Both are
# rank-generic: 2-D operands are one fold, 3-D ``(A, ...)`` operands a lane
# stack (intercepts ``(A, 1, d)``, per-fold scalars as ``(A, 1, 1)`` columns),
# and slice ``i`` of a stacked result is bitwise the 2-D result for fold ``i``.


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
    """Early-stopping score of one fold (``.fit`` and the lane) from its output ``proba``."""
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
        """Loss plus gradients w.r.t. every coefficient and intercept.

        Fit loops pass their per-fit ``kernel`` and reusable ``grads`` buffers.
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
        self._validate_hyperparameters()
        X, y = check_X_y(X, y)
        y_encoded = self._encode_targets(y)

        layer_units = [X.shape[1], *self._hidden_layers(), self._n_outputs(y_encoded)]
        rng = np.random.default_rng(self.random_state)
        self.coefs_, self.intercepts_ = resolve_initial_parameters(
            layer_units, self.activation, rng, coefs_init, intercepts_init
        )
        self.n_layers_ = len(layer_units)
        self.loss_curve_: List[float] = []
        self.validation_scores_: List[float] = []
        self.diverged_ = False

        if self.solver == "lbfgs":
            self._fit_lbfgs(X, y_encoded)
        else:
            self._fit_stochastic(X, y_encoded, rng)
        return self

    def _fit_lbfgs(self, X: np.ndarray, y: np.ndarray) -> None:
        import scipy.optimize  # on first use: half a second an adam/sgd search never owes

        params = [*self.coefs_, *self.intercepts_]
        n_coefs = len(self.coefs_)
        x0 = np.concatenate([p.ravel() for p in params])
        # Parameters and gradients live in two flat vectors for the whole
        # fit, the per-layer arrays being views of them: an evaluation
        # copies scipy's iterate in and returns the gradient already packed
        # (scipy copies it before the next evaluation overwrites it).
        theta, grad = x0.copy(), np.empty_like(x0)
        bounds = np.cumsum([0, *(p.size for p in params)])

        def views(flat: np.ndarray) -> List[np.ndarray]:
            return [flat[lo:hi].reshape(p.shape) for lo, hi, p in zip(bounds, bounds[1:], params)]

        unpacked, grads, kernel = views(theta), views(grad), self._kernel()
        self.coefs_, self.intercepts_ = unpacked[:n_coefs], unpacked[n_coefs:]

        def objective(flat: np.ndarray) -> Tuple[float, np.ndarray]:
            theta[:] = flat
            loss, _, _ = self._backprop(X, y, kernel, grads)
            self.loss_curve_.append(loss)
            return loss, grad

        result = scipy.optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "maxfun": self.max_fun, "gtol": self.tol},
        )
        final = np.asarray(result.x, dtype=float)
        loss = float(result.fun)
        if not np.isfinite(final).all() or not np.isfinite(loss) or loss > DIVERGENCE_LOSS_CAP:
            # Roll back to the (finite) initial parameters rather than keep
            # a non-finite optimum; the caller can see it via ``diverged_``.
            self.diverged_ = True
            final, loss = x0, np.inf
        theta[:] = final
        self.loss_ = loss
        self.n_iter_ = int(result.nit)

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

    def _fit_stochastic(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> None:
        if self.early_stopping and X.shape[0] > 1:
            X_train, y_train, X_val, y_val = self._validation_split(X, y, rng)
        else:
            X_train, y_train, X_val, y_val = X, y, None, None

        params = [*self.coefs_, *self.intercepts_]
        optimizer = make_optimizer(
            self.solver,
            params,
            learning_rate_init=self.learning_rate_init,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            nesterov=self.nesterovs_momentum,
            power_t=self.power_t,
        )

        n_samples = X_train.shape[0]
        batch_size = self._resolve_batch_size(n_samples)
        n_coefs = len(self.coefs_)
        # The optimizer updates ``params`` in place, so ``coefs_`` /
        # ``intercepts_`` track it without re-binding.
        kernel, grads = self._kernel(), [np.empty_like(p) for p in params]
        snapshot = [np.empty_like(p) for p in params]
        order = np.arange(n_samples)
        if self.shuffle:
            orders = np.empty((1, min(_EPOCH_BLOCK, self.max_iter), n_samples), dtype=np.intp)

        best_loss = np.inf
        best_val_score = -np.inf
        best_params: Optional[List[np.ndarray]] = None
        no_improvement_count = 0
        self.n_iter_ = 0

        for epoch in range(self.max_iter):
            # Snapshot the epoch's entry state: it produced a finite loss
            # (previous epoch passed the divergence check, and the Glorot
            # initialisation is finite), so it is the rollback target.
            for saved, param in zip(snapshot, params):
                np.copyto(saved, param)
            if self.shuffle:
                if epoch % _EPOCH_BLOCK == 0:
                    # The last block is cut to the epochs left.
                    _epoch_orders((rng,), orders[:, : self.max_iter - epoch])
                order = orders[0, epoch % _EPOCH_BLOCK]
            accumulated_loss = 0.0
            for start in range(0, n_samples, batch_size):
                batch = order[start : start + batch_size]
                loss, _, _ = self._backprop(X_train[batch], y_train[batch], kernel, grads)
                accumulated_loss += loss * len(batch)
                optimizer.update(grads)
            epoch_loss = accumulated_loss / n_samples
            self.loss_curve_.append(epoch_loss)
            self.n_iter_ += 1

            if not np.isfinite(epoch_loss) or epoch_loss > DIVERGENCE_LOSS_CAP:
                # The learning rate (or data) blew the optimisation up.
                # Abort instead of burning the remaining epochs on garbage,
                # and restore the last parameters known to behave.
                self.diverged_ = True
                self.coefs_ = snapshot[:n_coefs]
                self.intercepts_ = snapshot[n_coefs:]
                self.loss_ = float("inf")
                return

            if self.early_stopping and X_val is not None:
                val_score = self._validation_score(X_val, y_val)
                self.validation_scores_.append(val_score)
                if val_score > best_val_score + self.tol:
                    best_val_score = val_score
                    best_params = [p.copy() for p in optimizer.params]
                    no_improvement_count = 0
                else:
                    no_improvement_count += 1
            else:
                if epoch_loss < best_loss - self.tol:
                    best_loss = epoch_loss
                    no_improvement_count = 0
                else:
                    no_improvement_count += 1

            if no_improvement_count >= self.n_iter_no_change:
                optimizer.notify_no_improvement()
                no_improvement_count = 0
                if optimizer.should_stop() or self.early_stopping or self.learning_rate != "adaptive":
                    break

        if best_params is not None:
            self.coefs_ = best_params[:n_coefs]
            self.intercepts_ = best_params[n_coefs:]
        self.loss_ = self.loss_curve_[-1] if self.loss_curve_ else np.inf

    def _validation_score(self, X_val: np.ndarray, y_val: np.ndarray) -> float:
        return _validation_score(self, self._forward(X_val)[-1], y_val)

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
