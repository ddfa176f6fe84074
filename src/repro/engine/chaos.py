"""Fault injection: a chaos wrapper that attacks the engine on purpose.

The retry/degrade/watchdog/journal machinery is only trustworthy if it is
routinely exercised against real failures.  :class:`ChaosExecutor` wraps
any :class:`~repro.engine.executors.TrialExecutor` and, per evaluation,
injects the failure modes a production HPO service actually sees:

- **raise** — the evaluator throws (transient library/data errors);
- **hang** — the evaluation sleeps past any reasonable deadline, which
  only a watchdog ``trial_timeout`` can recover from;
- **exit** — the worker process dies mid-trial via ``os._exit`` (stand-in
  for segfaults and OOM kills); in a non-worker process this downgrades
  to a raise so a serial run is never killed;
- **pipe-drop** — the worker closes its pipe to the parent mid-trial
  (stand-in for a network partition or fd exhaustion), which the parent
  must survive as a worker death; downgraded to a raise in-process;
- **nan** / **corrupt** — the evaluation "succeeds" but returns a NaN or
  ``+inf`` score, which must be sanitised before it poisons ranking.

Fault decisions are drawn from the **engine-provided per-trial RNG**, so
they are a pure function of ``(root_seed, config, budget, attempt)``:
identical under any executor and worker count (chaos runs are themselves
reproducible and journal-resumable), while each retry of a failing trial
draws a fresh decision — exactly how transient faults behave.

``tools/chaos_suite.py`` drives these modes end to end and asserts the
engine's invariants: the search completes, degraded trials carry the
sentinel, and a journaled run resumed after a crash matches the unbroken
run bit for bit.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..bandit.base import EvaluationResult
from ..telemetry.collect import current_collector
from .executors import TrialExecutor, current_worker_connection

__all__ = ["ChaosError", "ChaosPolicy", "ChaosExecutor", "DataCorruption"]


@dataclass
class DataCorruption:
    """Deterministic dataset-level corruption for guard-layer chaos tests.

    Where :class:`ChaosPolicy` attacks the *execution* of trials, this
    attacks the *data* they are trained on — the failure modes the guard
    layer (:mod:`repro.guard`) exists to absorb.  :meth:`apply` is a pure
    function of ``(X, y, seed)``, so corrupted runs stay reproducible and
    serial/parallel comparisons remain meaningful.

    Attributes
    ----------
    nan_cell_rate:
        Fraction of feature cells set to NaN.
    label_flip_rate:
        Fraction of classification labels replaced by a different class.
    truncate_fraction:
        Fraction of rows dropped from the end of the (shuffled) dataset.
    constant_columns:
        Number of leading feature columns overwritten with a constant.
    seed:
        Seed of the corruption RNG.
    """

    nan_cell_rate: float = 0.0
    label_flip_rate: float = 0.0
    truncate_fraction: float = 0.0
    constant_columns: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("nan_cell_rate", "label_flip_rate", "truncate_fraction"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.constant_columns < 0:
            raise ValueError(f"constant_columns must be >= 0, got {self.constant_columns}")

    def apply(self, X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return corrupted copies of ``X, y`` (inputs untouched)."""
        rng = np.random.default_rng(self.seed)
        X = np.array(X, dtype=float, copy=True)
        y = np.array(y, copy=True)
        if self.truncate_fraction > 0.0 and len(y) > 1:
            keep = max(1, int(round(len(y) * (1.0 - self.truncate_fraction))))
            order = rng.permutation(len(y))[:keep]
            X, y = X[order], y[order]
        if self.constant_columns:
            n_cols = min(self.constant_columns, X.shape[1])
            X[:, :n_cols] = 1.0
        if self.nan_cell_rate > 0.0 and X.size:
            cells = rng.random(X.shape) < self.nan_cell_rate
            X[cells] = np.nan
        if self.label_flip_rate > 0.0 and len(y):
            classes = np.unique(y)
            if len(classes) > 1:
                flip = np.flatnonzero(rng.random(len(y)) < self.label_flip_rate)
                for row in flip:
                    others = classes[classes != y[row]]
                    y[row] = others[rng.integers(len(others))]
        return X, y


class ChaosError(RuntimeError):
    """The exception raised by an injected evaluator failure."""


@dataclass
class ChaosPolicy:
    """Per-evaluation fault probabilities and shapes.

    Rates are checked in the order ``exit``, ``pipe_drop``, ``hang``,
    ``raise``, ``nan``, ``corrupt`` against a single uniform draw, so
    their sum is the total fault probability and must stay ``<= 1``.
    A policy whose rates are all zero consumes **no** RNG draw, so it
    leaves trial results bitwise-identical to a chaos-free run.

    Attributes
    ----------
    exit_rate:
        Probability the worker process dies via ``os._exit(13)``
        (downgraded to :class:`ChaosError` outside worker processes).
    pipe_drop_rate:
        Probability the worker closes its parent pipe mid-trial and
        carries on — the parent sees EOF, retires the worker through the
        leave+join path, and retries the trial (downgraded to
        :class:`ChaosError` outside worker processes).
    hang_rate:
        Probability the evaluation sleeps for ``hang_seconds`` before
        proceeding normally.
    failure_rate:
        Probability of raising :class:`ChaosError`.
    nan_rate:
        Probability of returning a result whose score/mean are NaN.
    corrupt_rate:
        Probability of returning a result whose score is ``+inf`` — the
        nastiest corruption, since unsanitised it would *win* the search.
    hang_seconds:
        Sleep duration of an injected hang; pick it larger than the
        executor's ``trial_timeout`` to exercise the watchdog.
    """

    exit_rate: float = 0.0
    hang_rate: float = 0.0
    failure_rate: float = 0.0
    nan_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_seconds: float = 30.0
    pipe_drop_rate: float = 0.0

    def __post_init__(self) -> None:
        rates = (
            self.exit_rate, self.pipe_drop_rate, self.hang_rate,
            self.failure_rate, self.nan_rate, self.corrupt_rate,
        )
        if any(rate < 0.0 for rate in rates) or sum(rates) > 1.0:
            raise ValueError(f"chaos rates must be >= 0 and sum to <= 1, got {rates}")

    @property
    def total_rate(self) -> float:
        """Summed probability of all seed-driven faults."""
        return (
            self.exit_rate + self.pipe_drop_rate + self.hang_rate
            + self.failure_rate + self.nan_rate + self.corrupt_rate
        )


class _ChaosEvaluator:
    """Evaluator proxy that rolls the fault dice before delegating.

    Picklable as long as the wrapped evaluator is, so it travels to pool
    workers exactly like the real evaluator would.
    """

    def __init__(self, evaluator, policy: ChaosPolicy) -> None:
        self._evaluator = evaluator
        self._policy = policy

    def evaluate(self, config, budget_fraction, rng) -> EvaluationResult:
        """Maybe inject a fault, then (if still alive) really evaluate.

        When a telemetry collector is installed, every injected fault is
        counted under ``chaos.injected.<mode>``.  Counters ride home on
        the evaluation result, so hang/nan/corrupt injections reach the
        parent's registry (the engine salvages counters from non-finite
        results before discarding them); raise/exit injections lose
        their result and surface through the engine's retry/failure
        counters instead.
        """
        policy = self._policy
        collector = current_collector()
        # All-zero policies draw nothing: bitwise a chaos-free run.
        if policy.total_rate <= 0.0:
            return self._evaluator.evaluate(config, budget_fraction, rng)
        draw = float(rng.random())
        edges = self._fault_edges()
        if draw < edges[0]:
            if collector is not None:
                collector.inc("chaos.injected.exit")
            if multiprocessing.current_process().name != "MainProcess":
                os._exit(13)
            raise ChaosError("injected worker exit (downgraded to raise in-process)")
        if draw < edges[1]:
            if collector is not None:
                collector.inc("chaos.injected.pipe_drop")
            conn = current_worker_connection()
            if conn is None:
                raise ChaosError("injected pipe drop (downgraded to raise in-process)")
            # Drop the pipe and carry on evaluating: the parent sees EOF
            # mid-trial and must retire this worker through leave+join.
            try:
                conn.close()
            except OSError:
                pass
        elif draw < edges[2]:
            if collector is not None:
                collector.inc("chaos.injected.hang")
            time.sleep(policy.hang_seconds)
        elif draw < edges[3]:
            if collector is not None:
                collector.inc("chaos.injected.raise")
            raise ChaosError("injected evaluator failure")
        result = self._evaluator.evaluate(config, budget_fraction, rng)
        if draw < edges[4]:
            if collector is not None:
                collector.inc("chaos.injected.nan")
            result.score = float("nan")
            result.mean = float("nan")
        elif draw < edges[5]:
            if collector is not None:
                collector.inc("chaos.injected.corrupt")
            result.score = float("inf")
        return result

    def _fault_edges(self) -> Tuple[float, float, float, float, float, float]:
        """Cumulative rate boundaries in injection-priority order."""
        policy = self._policy
        exit_edge = policy.exit_rate
        drop_edge = exit_edge + policy.pipe_drop_rate
        hang_edge = drop_edge + policy.hang_rate
        raise_edge = hang_edge + policy.failure_rate
        nan_edge = raise_edge + policy.nan_rate
        corrupt_edge = nan_edge + policy.corrupt_rate
        return exit_edge, drop_edge, hang_edge, raise_edge, nan_edge, corrupt_edge


class ChaosExecutor(TrialExecutor):
    """Executor decorator injecting :class:`ChaosPolicy` faults per trial.

    Parameters
    ----------
    inner:
        The executor that actually runs trials (serial or parallel); all
        protocol calls delegate to it.
    policy:
        Fault probabilities; defaults to an all-zero policy (pass-through).

    Examples
    --------
    ::

        executor = ChaosExecutor(
            ParallelExecutor(n_workers=4, trial_timeout=5.0),
            ChaosPolicy(failure_rate=0.1, hang_rate=0.05, hang_seconds=30),
        )
        engine = TrialEngine(executor=executor, max_retries=2)
    """

    def __init__(self, inner: TrialExecutor, policy: Optional[ChaosPolicy] = None) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else ChaosPolicy()
        self._wrapped: Optional[_ChaosEvaluator] = None

    @property
    def capacity(self) -> int:
        """Concurrency of the wrapped executor."""
        return self.inner.capacity

    def __getattr__(self, name: str):
        """Expose the inner executor's extended surface through the wrapper.

        The executor protocol methods are delegated explicitly; everything
        else — ``pool_stats`` (the engine reads it), the lifecycle counters
        (``joins``, ``leaves``, ``respawns``), ``n_workers`` — resolves
        against the inner executor so wrapping never hides the pool from
        pool-aware callers.
        """
        if name.startswith("_") or "inner" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.inner, name)

    def bind(self, evaluator) -> None:
        """Wrap the evaluator in the fault-injecting proxy and bind that.

        The proxy is reused across re-binds of the same evaluator so the
        wrapped executor's is-this-a-new-evaluator check (which restarts
        worker pools) keeps working.
        """
        if self._wrapped is None or self._wrapped._evaluator is not evaluator:
            self._wrapped = _ChaosEvaluator(evaluator, self.policy)
        self.inner.bind(self._wrapped)

    def submit(self, request) -> None:
        """Delegate to the wrapped executor."""
        self.inner.submit(request)

    def wait_one(self):
        """Delegate to the wrapped executor."""
        return self.inner.wait_one()

    def pending(self) -> int:
        """Delegate to the wrapped executor."""
        return self.inner.pending()

    def shutdown(self) -> None:
        """Delegate to the wrapped executor."""
        self.inner.shutdown()
