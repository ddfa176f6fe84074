"""Parameter optimizers for the MLP and linear learners.

Implements the three solvers of the paper's search space (Table III):
plain/momentum SGD with the three scikit-learn learning-rate schedules
(``constant``, ``invscaling``, ``adaptive``), Adam, and L-BFGS-B.

SGD and Adam operate on flat lists of numpy arrays (the layer weight and
bias matrices) and update them in place.  L-BFGS-B is full batch and runs
by reverse communication: :class:`LBFGSB` holds one problem's workspace
and asks its caller for the loss and gradient at each point, so a lane of
MLP folds can evaluate every fold that asked in one stacked pass.  It
calls scipy's compiled ``setulb`` routine, and loads nothing of scipy but
that extension.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from typing import Callable, List, Sequence

import numpy as np

__all__ = ["SGDOptimizer", "AdamOptimizer", "LBFGSB", "make_optimizer"]


class SGDOptimizer:
    """Stochastic gradient descent with momentum and learning-rate schedules.

    Parameters
    ----------
    params:
        Parameter arrays that will be updated in place.
    learning_rate_init:
        Initial step size.
    schedule:
        ``"constant"`` keeps the step fixed; ``"invscaling"`` decays it as
        ``eta0 / t**power_t``; ``"adaptive"`` divides it by 5 whenever the
        caller reports two consecutive epochs without loss improvement
        (mirroring scikit-learn's heuristic).
    momentum:
        Classical momentum coefficient in ``[0, 1)``.
    nesterov:
        Use Nesterov lookahead momentum.
    power_t:
        Exponent of the inverse-scaling schedule.
    """

    def __init__(
        self,
        params: Sequence[np.ndarray],
        learning_rate_init: float = 0.1,
        schedule: str = "constant",
        momentum: float = 0.9,
        nesterov: bool = True,
        power_t: float = 0.5,
    ) -> None:
        if schedule not in ("constant", "invscaling", "adaptive"):
            raise ValueError(f"Unknown learning-rate schedule {schedule!r}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if learning_rate_init <= 0.0:
            raise ValueError(f"learning_rate_init must be positive, got {learning_rate_init}")
        self.params = list(params)
        self.learning_rate_init = learning_rate_init
        self.learning_rate = learning_rate_init
        self.schedule = schedule
        self.momentum = momentum
        self.nesterov = nesterov
        self.power_t = power_t
        self._velocities: List[np.ndarray] = [np.zeros_like(p) for p in self.params]
        self._t = 0

    def update(self, grads: Sequence[np.ndarray]) -> None:
        """Apply one gradient step (in place) to every parameter array."""
        self._t += 1
        if self.schedule == "invscaling":
            self.learning_rate = self.learning_rate_init / (self._t**self.power_t)
        for param, grad, velocity in zip(self.params, grads, self._velocities):
            velocity *= self.momentum
            velocity -= self.learning_rate * grad
            if self.nesterov:
                param += self.momentum * velocity - self.learning_rate * grad
            else:
                param += velocity

    def notify_no_improvement(self) -> None:
        """React to a stall signal: the adaptive schedule shrinks the step."""
        if self.schedule == "adaptive":
            self.learning_rate = max(self.learning_rate / 5.0, 1e-6)

    def should_stop(self, tol: float = 1e-6) -> bool:
        """Whether the step size has collapsed below a useful magnitude."""
        return self.schedule == "adaptive" and self.learning_rate <= tol


class AdamOptimizer:
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    Parameters
    ----------
    params:
        Parameter arrays updated in place.
    learning_rate_init:
        Base step size.
    beta_1, beta_2:
        Exponential decay rates for the first and second moment estimates.
    epsilon:
        Denominator fuzz factor preventing division by zero.
    """

    def __init__(
        self,
        params: Sequence[np.ndarray],
        learning_rate_init: float = 0.001,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate_init <= 0.0:
            raise ValueError(f"learning_rate_init must be positive, got {learning_rate_init}")
        if not 0.0 <= beta_1 < 1.0 or not 0.0 <= beta_2 < 1.0:
            raise ValueError("beta_1 and beta_2 must be in [0, 1)")
        self.params = list(params)
        self.learning_rate_init = learning_rate_init
        self.learning_rate = learning_rate_init
        self.beta_1 = beta_1
        self.beta_2 = beta_2
        self.epsilon = epsilon
        self._t = 0
        self._ms: List[np.ndarray] = [np.zeros_like(p) for p in self.params]
        self._vs: List[np.ndarray] = [np.zeros_like(p) for p in self.params]

    def update(self, grads: Sequence[np.ndarray]) -> None:
        """Apply one Adam step (in place) to every parameter array."""
        self._t += 1
        # Fold both bias corrections into a single effective step size.
        step = (
            self.learning_rate_init
            * np.sqrt(1.0 - self.beta_2**self._t)
            / (1.0 - self.beta_1**self._t)
        )
        self.learning_rate = step
        for param, grad, m, v in zip(self.params, grads, self._ms, self._vs):
            m *= self.beta_1
            m += (1.0 - self.beta_1) * grad
            v *= self.beta_2
            v += (1.0 - self.beta_2) * grad**2
            param -= step * m / (np.sqrt(v) + self.epsilon)

    def notify_no_improvement(self) -> None:
        """Adam has no schedule reaction; kept for interface symmetry."""

    def should_stop(self, tol: float = 1e-6) -> bool:
        """Adam never requests an early schedule-based stop."""
        return False


def make_optimizer(
    solver: str,
    params: Sequence[np.ndarray],
    learning_rate_init: float,
    learning_rate: str = "constant",
    momentum: float = 0.9,
    nesterov: bool = True,
    power_t: float = 0.5,
):
    """Construct the optimizer matching a Table III ``solver`` value.

    ``solver`` must be ``"sgd"`` or ``"adam"``; ``"lbfgs"`` is full-batch and
    runs through :class:`LBFGSB`.
    """
    if solver == "sgd":
        return SGDOptimizer(
            params,
            learning_rate_init=learning_rate_init,
            schedule=learning_rate,
            momentum=momentum,
            nesterov=nesterov,
            power_t=power_t,
        )
    if solver == "adam":
        return AdamOptimizer(params, learning_rate_init=learning_rate_init)
    raise ValueError(f"Unknown first-order solver {solver!r}; expected 'sgd' or 'adam'")


# -- L-BFGS-B by reverse communication ------------------------------------------

#: The extension that holds ``setulb`` (scipy >= 1.15: the C routine taking
#: ``maxls, ln_task``), registered under this name once loaded.
_LBFGSB_MODULE = "scipy.optimize._lbfgsb"
#: ``minimize(method="L-BFGS-B")``'s defaults for what :class:`LBFGSB` fixes:
#: correction pairs kept, relative reduction tolerance, line-search steps.
_MAXCOR = 10
_FTOL = 2.2204460492503131e-09
_MAXLS = 20
#: ``setulb``'s task codes (``task[0]``) the driver acts on, and the stops it sets.
_FG, _NEW_X, _STOP = 3, 1, 5
_STOP_MAXITER, _STOP_MAXFUN = 504, 502

_setulb = None


def _load_setulb() -> Callable:
    """scipy's compiled ``setulb``, without importing ``scipy.optimize``.

    The extension is loaded by file path and registered under its own
    name, so ``scipy.optimize``, should anything load it later, reuses
    it; that package's ``__init__`` (half a second and ~50 MB) never
    runs.  Where the file is not beside scipy's package directory, the
    import system finds the same module through the package.
    """
    global _setulb
    if _setulb is None:
        module = sys.modules.get(_LBFGSB_MODULE)
        if module is None:
            module = _load_extension(_LBFGSB_MODULE)
        setulb = getattr(module, "setulb", None)
        if setulb is None:
            raise ImportError(
                f"{_LBFGSB_MODULE} has no setulb: the L-BFGS solver needs scipy>=1.15"
            )
        _setulb = setulb
    return _setulb


def _load_extension(name: str):
    """Module ``name`` from its compiled file, its parent packages left unimported."""
    spec = importlib.util.find_spec(name.partition(".")[0])
    for directory in (spec.submodule_search_locations or []) if spec else []:
        stem = os.path.join(directory, *name.split(".")[1:])
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if os.path.exists(stem + suffix):
                loader = importlib.machinery.ExtensionFileLoader(name, stem + suffix)
                module_spec = importlib.util.spec_from_file_location(name, stem + suffix, loader=loader)
                module = importlib.util.module_from_spec(module_spec)
                loader.exec_module(module)
                sys.modules[name] = module
                return module
    return importlib.import_module(name)


class LBFGSB:
    """One unbounded L-BFGS-B problem, driven by reverse communication.

    The loop of scipy 1.17's ``_minimize_lbfgsb`` with the memoisation of
    its ``ScalarFunction`` and ``MemoizeJac``, turned inside out: where
    ``minimize(fun, x0, jac=True, method="L-BFGS-B", options={"maxiter":
    max_iter, "maxfun": max_fun, "gtol": gtol})`` calls ``fun``, this
    object returns to its caller, which evaluates at :attr:`x`::

        run = LBFGSB(x0, max_iter, max_fun, gtol)
        while run.ask():
            run.tell(*fun(run.x))

    and the run ends where ``minimize`` ends, with :attr:`x` its
    ``result.x``, :attr:`f` its ``result.fun`` and :attr:`nit` its
    ``result.nit``, bit for bit.  What it copies:

    - ``x0`` is evaluated before ``setulb`` starts, and that evaluation
      answers its first request;
    - a request is answered from memory while ``x`` equals
      (``np.array_equal``) the last point evaluated, else it is passed to
      the caller (an ``x`` holding NaN never equals, and ``minimize``
      calls ``fun`` twice for each such request: see :meth:`tell`);
    - ``setulb`` always receives its own copy of the gradient;
    - ``nit`` counts ``setulb``'s new iterates, and each new iterate
      checks ``nit >= max_iter`` before ``nfev > max_fun``.
    """

    def __init__(self, x0, max_iter: int, max_fun: int = 15000, gtol: float = 1e-5) -> None:
        self._setulb = _load_setulb()
        self.x = np.array(np.asarray(x0).ravel(), dtype=np.float64)
        n = self.x.size
        self.f = np.array(0.0)
        self.nit = 0
        self.nfev = 0
        self.max_iter = max_iter
        self.max_fun = max_fun
        self._pgtol = gtol
        self._factr = _FTOL / np.finfo(float).eps
        self._g = np.zeros(n)
        self._bounds = (np.zeros(n), np.zeros(n), np.zeros(n, np.int32))  # lower, upper, none set
        self._wa = np.zeros(2 * _MAXCOR * n + 5 * n + 11 * _MAXCOR * _MAXCOR + 8 * _MAXCOR)
        self._iwa = np.zeros(3 * n, dtype=np.int32)
        self._task = np.zeros(2, dtype=np.int32)
        self._ln_task = np.zeros(2, dtype=np.int32)
        self._lsave = np.zeros(4, dtype=np.int32)
        self._isave = np.zeros(44, dtype=np.int32)
        self._dsave = np.zeros(29)
        self._x_eval = np.empty(n)  # the last point evaluated, and its answer
        self._f_eval = self._g_eval = None

    def ask(self) -> bool:
        """Advance until ``f`` and ``g`` are wanted at :attr:`x` (True) or the run ends."""
        if not self.nfev:
            return True
        task = self._task
        while True:
            if task[0] == _FG:  # the request pending since the last call
                self.f = self._f_eval
                np.copyto(self._g, self._g_eval)
            lower, upper, nbd = self._bounds
            self._setulb(
                _MAXCOR, self.x, lower, upper, nbd, self.f, self._g, self._factr, self._pgtol,
                self._wa, self._iwa, task, self._lsave, self._isave, self._dsave, _MAXLS,
                self._ln_task,
            )  # fmt: skip
            if task[0] == _FG:
                if not np.array_equal(self.x, self._x_eval):
                    return True
            elif task[0] == _NEW_X:
                self.nit += 1
                if self.nit >= self.max_iter:
                    task[:] = _STOP, _STOP_MAXITER
                elif self.nfev > self.max_fun:
                    task[:] = _STOP, _STOP_MAXFUN
            else:
                return False

    def tell(self, f: float, g: np.ndarray) -> None:
        """Answer the request :meth:`ask` made: the loss and gradient at :attr:`x`.

        ``g`` is read, not copied, until the next :meth:`ask` returns.  An
        :attr:`x` holding NaN was evaluated twice by ``minimize`` (its
        memo never matches NaN); the second call's values are the first's.
        """
        np.copyto(self._x_eval, self.x)
        self._f_eval = f
        self._g_eval = g
        self.nfev += 1

