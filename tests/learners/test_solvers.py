"""Tests for the SGD, Adam and L-BFGS-B optimizers."""

import sys
import warnings

import numpy as np
import pytest

import repro.learners.solvers as solvers
from repro.learners.solvers import LBFGSB, AdamOptimizer, SGDOptimizer, make_optimizer


def quadratic_grad(params):
    """Gradient of f(w) = 0.5 ||w - 3||^2 for each parameter array."""
    return [p - 3.0 for p in params]


class TestSGD:
    def test_converges_on_quadratic(self):
        params = [np.zeros(4)]
        opt = SGDOptimizer(params, learning_rate_init=0.1, momentum=0.0, nesterov=False)
        for _ in range(300):
            opt.update(quadratic_grad(opt.params))
        np.testing.assert_allclose(opt.params[0], np.full(4, 3.0), atol=1e-3)

    def test_momentum_accelerates(self):
        plain = SGDOptimizer([np.zeros(4)], learning_rate_init=0.02, momentum=0.0, nesterov=False)
        momentum = SGDOptimizer([np.zeros(4)], learning_rate_init=0.02, momentum=0.9, nesterov=False)
        for _ in range(30):
            plain.update(quadratic_grad(plain.params))
            momentum.update(quadratic_grad(momentum.params))
        plain_gap = abs(plain.params[0][0] - 3.0)
        momentum_gap = abs(momentum.params[0][0] - 3.0)
        assert momentum_gap < plain_gap

    def test_invscaling_learning_rate_decreases(self):
        opt = SGDOptimizer([np.zeros(2)], learning_rate_init=0.1, schedule="invscaling")
        rates = []
        for _ in range(5):
            opt.update(quadratic_grad(opt.params))
            rates.append(opt.learning_rate)
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[3] == pytest.approx(0.1 / 4**0.5)

    def test_adaptive_divides_rate_by_five_on_stall(self):
        opt = SGDOptimizer([np.zeros(2)], learning_rate_init=0.1, schedule="adaptive")
        opt.notify_no_improvement()
        assert opt.learning_rate == pytest.approx(0.02)
        opt.notify_no_improvement()
        assert opt.learning_rate == pytest.approx(0.004)

    def test_constant_schedule_ignores_stall(self):
        opt = SGDOptimizer([np.zeros(2)], learning_rate_init=0.1, schedule="constant")
        opt.notify_no_improvement()
        assert opt.learning_rate == 0.1

    def test_should_stop_only_when_adaptive_rate_collapses(self):
        opt = SGDOptimizer([np.zeros(2)], learning_rate_init=0.1, schedule="adaptive")
        assert not opt.should_stop()
        for _ in range(20):
            opt.notify_no_improvement()
        assert opt.should_stop()

    @pytest.mark.parametrize("bad_kwargs", [
        {"schedule": "cosine"},
        {"momentum": 1.5},
        {"momentum": -0.1},
        {"learning_rate_init": 0.0},
    ])
    def test_invalid_hyperparameters_raise(self, bad_kwargs):
        with pytest.raises(ValueError):
            SGDOptimizer([np.zeros(2)], **{"learning_rate_init": 0.1, **bad_kwargs})


class TestAdam:
    def test_converges_on_quadratic(self):
        opt = AdamOptimizer([np.zeros(4)], learning_rate_init=0.1)
        for _ in range(500):
            opt.update(quadratic_grad(opt.params))
        np.testing.assert_allclose(opt.params[0], np.full(4, 3.0), atol=1e-2)

    def test_first_step_magnitude_close_to_learning_rate(self):
        # With bias correction the very first Adam step is ~lr in magnitude.
        opt = AdamOptimizer([np.zeros(1)], learning_rate_init=0.01)
        opt.update([np.array([5.0])])
        assert abs(opt.params[0][0]) == pytest.approx(0.01, rel=0.05)

    def test_never_requests_stop(self):
        opt = AdamOptimizer([np.zeros(1)])
        opt.notify_no_improvement()
        assert not opt.should_stop()

    @pytest.mark.parametrize("bad_kwargs", [
        {"learning_rate_init": -1.0},
        {"beta_1": 1.0},
        {"beta_2": -0.1},
    ])
    def test_invalid_hyperparameters_raise(self, bad_kwargs):
        with pytest.raises(ValueError):
            AdamOptimizer([np.zeros(2)], **bad_kwargs)


class TestFactory:
    def test_builds_sgd(self):
        opt = make_optimizer("sgd", [np.zeros(2)], 0.1, learning_rate="invscaling", momentum=0.8)
        assert isinstance(opt, SGDOptimizer)
        assert opt.schedule == "invscaling"
        assert opt.momentum == 0.8

    def test_builds_adam(self):
        opt = make_optimizer("adam", [np.zeros(2)], 0.01)
        assert isinstance(opt, AdamOptimizer)

    def test_lbfgs_rejected(self):
        with pytest.raises(ValueError, match="lbfgs"):
            make_optimizer("lbfgs", [np.zeros(2)], 0.1)

    def test_updates_multiple_parameter_arrays(self):
        params = [np.zeros((2, 3)), np.zeros(3)]
        opt = make_optimizer("sgd", params, 0.5, momentum=0.0)
        opt.update([np.ones((2, 3)), np.ones(3)])
        assert (opt.params[0] < 0).all()
        assert (opt.params[1] < 0).all()


def _problem(kind, seed):
    """A smooth objective (loss, gradient) that records every point it is called at."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    A = rng.normal(size=(n, n))
    H, b = A @ A.T + 0.1 * np.eye(n), rng.normal(size=n)
    calls = []

    def fun(x):
        calls.append(x.copy())
        if kind == "quadratic":
            return float(x @ H @ x / 2 - b @ x), H @ x - b
        if kind == "rosenbrock":
            g = np.zeros_like(x)
            g[:-1] = -400 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2 * (1 - x[:-1])
            g[1:] += 200 * (x[1:] - x[:-1] ** 2)
            return float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2)), g
        if np.abs(x).max() > 1.5:  # "nan": undefined away from the start
            return float("nan"), np.full_like(x, np.nan)
        return float(np.sum(x**4) / 100 - np.sum(x**2)), x**3 / 25 - 2 * x

    return fun, rng.normal(size=n), calls


class TestLBFGSB:
    @pytest.mark.parametrize("kind", ["quadratic", "rosenbrock", "nan"])
    @pytest.mark.parametrize("max_iter, max_fun, gtol", [(15000, 15000, 1e-5), (3, 15000, 0.0), (50, 4, 1e-5)])
    def test_equals_scipy_minimize_bitwise(self, kind, max_iter, max_fun, gtol):
        import scipy.optimize

        for seed in range(4):
            fun, x0, calls = _problem(kind, seed)
            options = {"maxiter": max_iter, "maxfun": max_fun, "gtol": gtol}
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                want = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", options=options)
                want_calls, calls[:] = list(calls), []
                got = LBFGSB(x0, max_iter, max_fun, gtol)
                while got.ask():
                    got.tell(*fun(got.x.copy()))
            assert got.x.tobytes() == want.x.tobytes()
            assert np.array_equal([got.f], [want.fun], equal_nan=True)
            assert (got.nit, got.nfev) == (want.nit, want.nfev)
            # minimize evaluates a point that holds NaN twice; the driver once.
            twice = sum(bool(np.isnan(x).any()) for x in calls)
            assert len(calls) + twice == len(want_calls)

    def test_missing_setulb_raises_import_error(self, monkeypatch):
        monkeypatch.setattr(solvers, "_setulb", None)
        monkeypatch.setitem(sys.modules, solvers._LBFGSB_MODULE, object())
        with pytest.raises(ImportError, match="scipy>=1.15"):
            solvers.LBFGSB(np.zeros(2), max_iter=5)
