"""Test-only oracle: the pre-PR-16 fit kernel, kept verbatim.

The lean kernel in ``repro.learners`` (branch-free ``logistic``, one
rank-generic forward/backward/loss core under ``.fit``, ``fit_mlp_folds``
and ``fit_mlp_trials``) is required to be *bitwise* equal to the code it
replaced.  This module is that replaced code — the mask-based
``logistic`` and the bodies of ``_BaseMLP._forward`` / ``_backprop`` with
the activations and head losses they called — copied without edits other
than ``self.`` attributes becoming fields of :class:`ReferenceNet`.  It
must never import the kernel under test; do not "tidy" it.

:func:`reference_fit` is the second oracle: ``_BaseMLP.fit`` as it was
before it trained through the lane — its preamble copied verbatim,
driving :func:`reference_fit_stochastic`, the per-fold ``sgd`` /
``adam`` loop as it was when every epoch drew its order with one
``rng.permutation(n)`` (copied verbatim, its divergence cap copied as a
constant; its early-stopping score is :func:`reference_validation_score`,
the scorer it called), or :func:`reference_fit_lbfgs`, the per-fold
``scipy.optimize.minimize`` call an ``lbfgs`` fold made before its lane
drove ``setulb`` itself (``_BaseMLP._fit_lbfgs``, copied verbatim; this
file is the only place that imports ``scipy.optimize``).  ``reference_fit(model, X, y)`` fits any MLP
estimator through that loop, and :class:`OracleKernelMixin` makes it
the estimator's ``fit``: the lane trainer, which ``.fit`` and
``fit_mlp_trials`` both run, is pinned to it, never to itself.  The
loop drives the model's own ``_backprop`` (the lean kernel, or
:class:`ReferenceNet` under the mixin), which is pinned separately.
The preamble borrows the package's input check and parameter
initialisation, not its training code.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.learners.base import check_X_y
from repro.learners.mlp import resolve_initial_parameters
from repro.learners.solvers import make_optimizer

_EPS = 1e-10
_MAX_RESIDUAL = 1e150
_Z_CLIP = 1e8
DIVERGENCE_LOSS_CAP = 1e12


def logistic(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid ``1 / (1 + exp(-z))``."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


ACTIVATIONS = {
    "identity": (lambda z: z, lambda activated: np.ones_like(activated)),
    "logistic": (logistic, lambda activated: activated * (1.0 - activated)),
    "tanh": (lambda z: np.tanh(z), lambda activated: 1.0 - activated**2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda activated: (activated > 0).astype(float)),
}


def log_loss(y_true: np.ndarray, y_prob: np.ndarray) -> float:
    y_prob = np.clip(y_prob, _EPS, 1.0 - _EPS)
    return float(-(y_true * np.log(y_prob)).sum() / y_true.shape[0])


def binary_log_loss(y_true: np.ndarray, y_prob: np.ndarray) -> float:
    y_prob = np.clip(y_prob, _EPS, 1.0 - _EPS)
    per_sample = y_true * np.log(y_prob) + (1.0 - y_true) * np.log(1.0 - y_prob)
    return float(-per_sample.sum() / y_true.shape[0])


def squared_loss(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    diff = np.clip(y_pred - y_true, -_MAX_RESIDUAL, _MAX_RESIDUAL)
    return float((diff**2).sum() / (2.0 * y_true.shape[0]))


HEAD_LOSSES = {"softmax": log_loss, "logistic": binary_log_loss, "identity": squared_loss}


class ReferenceNet:
    """One network's parameters plus the hyperparameters the kernel reads."""

    def __init__(self, coefs, intercepts, activation: str, output_activation: str, alpha: float):
        self.coefs_ = coefs
        self.intercepts_ = intercepts
        self.activation = activation
        self.output_activation = output_activation
        self.alpha = alpha

    def _forward(self, X: np.ndarray) -> List[np.ndarray]:
        hidden_fn, _ = ACTIVATIONS[self.activation]
        activations = [X]
        n_layers = len(self.coefs_)
        for i, (coef, intercept) in enumerate(zip(self.coefs_, self.intercepts_)):
            z = activations[-1] @ coef + intercept
            z = np.clip(z, -_Z_CLIP, _Z_CLIP)
            if i < n_layers - 1:
                activations.append(hidden_fn(z))
            elif self.output_activation == "softmax":
                activations.append(softmax(z))
            else:
                out_fn, _ = ACTIVATIONS[self.output_activation]
                activations.append(out_fn(z))
        return activations

    def _backprop(
        self, X: np.ndarray, y: np.ndarray
    ) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
        n_samples = X.shape[0]
        activations = self._forward(X)
        _, hidden_derivative = ACTIVATIONS[self.activation]

        loss = HEAD_LOSSES[self.output_activation](y, activations[-1])
        loss += (self.alpha / (2.0 * n_samples)) * sum(
            float((coef**2).sum()) for coef in self.coefs_
        )

        coef_grads = [np.empty_like(coef) for coef in self.coefs_]
        intercept_grads = [np.empty_like(b) for b in self.intercepts_]

        delta = (activations[-1] - y) / n_samples
        for layer in range(len(self.coefs_) - 1, -1, -1):
            coef_grads[layer] = activations[layer].T @ delta
            coef_grads[layer] += (self.alpha / n_samples) * self.coefs_[layer]
            intercept_grads[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.coefs_[layer].T) * hidden_derivative(activations[layer])
        return loss, coef_grads, intercept_grads


class OracleKernelMixin:
    """Mix into an MLP estimator to fit it with both oracles.

    ``class Oracle(OracleKernelMixin, MLPClassifier)`` fits through
    :func:`reference_fit` (``lbfgs`` through :func:`reference_fit_lbfgs`)
    and computes every forward pass, loss and gradient
    with :class:`ReferenceNet`: the fit as it was before the lean kernel.
    """

    def _reference_net(self) -> ReferenceNet:
        return ReferenceNet(
            self.coefs_, self.intercepts_, self.activation, self._output_activation(), self.alpha
        )

    def fit(self, X, y, coefs_init=None, intercepts_init=None):
        return reference_fit(self, X, y, coefs_init, intercepts_init)

    def _forward(self, X):
        return self._reference_net()._forward(X)

    def _backprop(self, X, y, kernel=None, grads=None):
        loss, coef_grads, intercept_grads = self._reference_net()._backprop(X, y)
        if grads is not None:
            for buffer, grad in zip(grads, (*coef_grads, *intercept_grads)):
                buffer[...] = grad
        return loss, coef_grads, intercept_grads


def reference_fit(self, X, y, coefs_init=None, intercepts_init=None):
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
        reference_fit_lbfgs(self, X, y_encoded)
    else:
        reference_fit_stochastic(self, X, y_encoded, rng)
    return self


def reference_fit_lbfgs(self, X: np.ndarray, y: np.ndarray) -> None:
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


def reference_validation_score(self, X_val: np.ndarray, y_val: np.ndarray) -> float:
    proba = self._forward(X_val)[-1]
    if hasattr(self, "classes_"):
        if len(self.classes_) == 2:
            predicted = (proba[:, 0] >= 0.5).astype(float)
            return float((predicted == y_val[:, 0]).mean())
        return float((proba.argmax(axis=1) == y_val.argmax(axis=1)).mean())
    return -squared_loss(y_val, proba)


def reference_fit_stochastic(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> None:
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

    best_loss = np.inf
    best_val_score = -np.inf
    best_params: Optional[List[np.ndarray]] = None
    no_improvement_count = 0
    self.n_iter_ = 0

    for _ in range(self.max_iter):
        # Snapshot the epoch's entry state: it produced a finite loss
        # (previous epoch passed the divergence check, and the Glorot
        # initialisation is finite), so it is the rollback target.
        epoch_start_params = [p.copy() for p in optimizer.params]
        order = rng.permutation(n_samples) if self.shuffle else np.arange(n_samples)
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
            self.coefs_ = epoch_start_params[:n_coefs]
            self.intercepts_ = epoch_start_params[n_coefs:]
            self.loss_ = float("inf")
            return

        if self.early_stopping and X_val is not None:
            val_score = reference_validation_score(self, X_val, y_val)
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


def assert_same_bits(actual, expected, tag: str = "") -> None:
    """Bitwise equality of two float arrays, any NaN matching any NaN."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, f"{tag}: shape {actual.shape} != {expected.shape}"
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan), f"{tag}: NaN positions differ"
    same = np.where(nan, 0.0, actual).view(np.int64) == np.where(nan, 0.0, expected).view(np.int64)
    assert same.all(), f"{tag}: {int((~same).sum())} of {same.size} elements differ"
