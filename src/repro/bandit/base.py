"""Shared abstractions for bandit-based searchers.

Defines the evaluation protocol every searcher consumes — which is the seam
the paper's enhancement plugs into: a *vanilla* evaluator gives SHA / HB /
BOHB, while the grouped evaluator from :mod:`repro.core` turns the same
searchers into SHA+ / HB+ / BOHB+ without touching their logic.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence

import numpy as np

from ..space import SearchSpace, config_key

__all__ = [
    "EvaluationResult",
    "ConfigurationEvaluator",
    "Trial",
    "SearchResult",
    "BaseSearcher",
    "top_k_indices",
]


@dataclass
class EvaluationResult:
    """Outcome of evaluating one configuration under a partial budget.

    Attributes
    ----------
    mean:
        Average cross-validation score ``mu`` (the vanilla metric).
    std:
        Standard deviation ``sigma`` across folds.
    score:
        Ranking score used for halving; equals ``mean`` for vanilla
        evaluators and ``mu + alpha * beta(gamma) * sigma`` (Equation 3) for
        the enhanced evaluator.
    gamma:
        Subset size as a percentage of the full budget (``gamma`` in the
        paper).
    fold_scores:
        Per-fold validation scores.
    n_instances:
        Number of training instances actually used.
    cost:
        Wall-clock seconds spent on this evaluation.
    guard_events:
        Data-integrity degradations recorded while evaluating, as
        JSON-able dicts (see :mod:`repro.guard.events`).  Kept as plain
        data so the events survive worker-process boundaries and journal
        round-trips; empty when no guard is active.
    """

    mean: float
    std: float
    score: float
    gamma: float
    fold_scores: List[float] = field(default_factory=list)
    n_instances: int = 0
    cost: float = 0.0
    guard_events: List[Dict[str, Any]] = field(default_factory=list)


class ConfigurationEvaluator(Protocol):
    """Anything that can score a configuration under a budget fraction."""

    def evaluate(
        self,
        config: Dict[str, Any],
        budget_fraction: float,
        rng: np.random.Generator,
    ) -> EvaluationResult:
        """Train/validate ``config`` on a ``budget_fraction`` subset."""
        ...


@dataclass
class Trial:
    """One (configuration, budget) evaluation performed during a search."""

    config: Dict[str, Any]
    budget_fraction: float
    result: EvaluationResult
    iteration: int = 0
    bracket: int = 0

    @property
    def key(self):
        """Hashable configuration identity."""
        return config_key(self.config)


@dataclass
class SearchResult:
    """Complete record of one HPO run.

    Attributes
    ----------
    best_config:
        The configuration surviving to the end of the search.
    best_score:
        Its evaluation score at the largest budget seen.
    trials:
        Every (config, budget) evaluation in execution order.
    wall_time:
        Total search seconds (sum of evaluation costs plus overhead the
        searcher reports).
    method:
        Human-readable searcher name (e.g. ``"SHA+"``).
    """

    best_config: Dict[str, Any]
    best_score: float
    trials: List[Trial] = field(default_factory=list)
    wall_time: float = 0.0
    method: str = ""

    @property
    def n_trials(self) -> int:
        """Number of evaluations performed."""
        return len(self.trials)

    @property
    def total_evaluation_cost(self) -> float:
        """Sum of per-evaluation wall-clock costs."""
        return float(sum(t.result.cost for t in self.trials))

    def incumbent_trajectory(self) -> List[float]:
        """Best score seen after each trial (monotone non-decreasing)."""
        best = -np.inf
        trajectory = []
        for trial in self.trials:
            best = max(best, trial.result.score)
            trajectory.append(best)
        return trajectory


def top_k_indices(scores: Sequence[float], k: int) -> List[int]:
    """Indices of the ``k`` largest scores, best first, ties broken stably."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    return order[: min(k, len(scores))].tolist()


class BaseSearcher:
    """Common plumbing for all searchers.

    Parameters
    ----------
    space:
        The hyperparameter search space.
    evaluator:
        Evaluation strategy (vanilla or grouped); this is the paper's
        plug-in point.
    random_state:
        Seed for configuration sampling, and the root every trial's own
        seed (subset draw, folds, model init) is derived from.
    engine:
        The :class:`~repro.engine.TrialEngine` every evaluation runs on;
        ``None`` (default) means a plain ``TrialEngine()`` — serial
        executor, memoization on, one retry.  There is no engine-less
        path: each trial gets a seed derived from ``(random_state, config,
        budget)``, so results are bitwise independent of executor, worker
        count, completion order and resumption; an evaluator that raises
        yields a degraded trial (``FAILURE_SCORE``, counted in
        ``engine.stats.failures``, text in ``outcome.error``) instead of
        aborting the search; and a ``(config, budget)`` pair repeated
        across Hyperband brackets is served from the engine's cache.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  When set, every
        ``fit()`` is wrapped in a ``run`` span, rung batches get ``rung``
        spans, and the engine records each evaluation as a ``trial`` span
        with its fold/fit children and metrics (the engine inherits this
        telemetry if it has none of its own).  Recording never touches
        the search's random streams, so results stay bit-for-bit
        identical to an uninstrumented run.
    """

    method_name = "base"

    def __init__(
        self,
        space: SearchSpace,
        evaluator: ConfigurationEvaluator,
        random_state: Optional[int] = None,
        engine=None,
        telemetry=None,
    ) -> None:
        self.space = space
        self.evaluator = evaluator
        self.random_state = random_state
        self.engine = engine
        self.telemetry = telemetry
        self._rng = np.random.default_rng(random_state)
        self._trials: List[Trial] = []

    @property
    def engine(self):
        """The :class:`~repro.engine.TrialEngine` this searcher runs on."""
        return self._engine

    @engine.setter
    def engine(self, value) -> None:
        if value is None:  # "no engine" means the default one, never no engine
            from ..engine.core import TrialEngine  # local import avoids a cycle

            value = TrialEngine()
        self._engine = value

    def _reset(self) -> None:
        self._rng = np.random.default_rng(self.random_state)
        self._trials = []
        self.engine.bind(
            self.evaluator,
            root_seed=self.random_state,
            metadata=self._run_identity(),
        )

    def _sync_telemetry(self) -> None:
        """Reconcile searcher- and engine-attached telemetry (either way).

        A telemetry object may arrive on the searcher (``optimize(...,
        telemetry=...)``) or on the engine (``TrialEngine(...,
        telemetry=...)``); whichever side has one shares it with the
        other so spans and metrics land in a single place.
        """
        if self.telemetry is None:
            self.telemetry = self.engine.telemetry
        elif self.engine.telemetry is None:
            self.engine.telemetry = self.telemetry

    def _span(self, name: str, **attrs):
        """A structural tracer span, or an inert context when telemetry is off."""
        if self.telemetry is None:
            return nullcontext(None)
        return self.telemetry.span(name, **attrs)

    def _run_identity(self) -> Dict[str, Any]:
        """Identity recorded in (and verified against) a run-journal header.

        Guards a resume against the silent mixing of two different runs: a
        journal written by one searcher/space refuses to replay into
        another, and (since the guard layer landed) a journal written under
        one guard policy refuses to replay under a different one — guards
        change scores, so mixing policies would silently corrupt a run.
        Journals from before the guard key simply lack it and still resume.
        """
        from ..engine.journal import space_fingerprint  # local import avoids a cycle

        guard_policy = getattr(self.evaluator, "guard_policy", None)
        return {
            "searcher": self.method_name,
            "space": space_fingerprint(self.space),
            "guard": guard_policy if guard_policy is not None else "off",
        }

    def resume(
        self,
        configurations: Optional[Sequence[Dict[str, Any]]] = None,
        n_configurations: Optional[int] = None,
    ) -> SearchResult:
        """Re-run :meth:`fit` against the engine's journal of a prior run.

        Requires an engine configured with a
        :class:`~repro.engine.journal.RunJournal`.  The searcher replays
        its (deterministic) schedule; every trial the interrupted run made
        durable is served from the journal with ``resumed=True`` and only
        the lost tail is executed, so the returned result is bitwise
        identical to the uninterrupted run's.  Pass the same candidate
        arguments the original run used.
        """
        if self.engine.journal is None:
            raise RuntimeError(
                "resume() requires an engine with a journal; pass "
                "engine=TrialEngine(..., journal=path)"
            )
        return self.fit(configurations=configurations, n_configurations=n_configurations)

    def _evaluate(
        self,
        config: Dict[str, Any],
        budget_fraction: float,
        iteration: int = 0,
        bracket: int = 0,
    ) -> Trial:
        """Evaluate one configuration: a rung of one."""
        return self._evaluate_batch([config], budget_fraction, iteration, bracket)[0]

    def _evaluate_batch(
        self,
        configs: Sequence[Dict[str, Any]],
        budget_fraction: float,
        iteration: int = 0,
        bracket: int = 0,
    ) -> List[Trial]:
        """Evaluate a rung's worth of configurations on the engine.

        The whole batch is submitted at once so a parallel executor can
        overlap the evaluations; outcomes come back in request order, so
        recorded trials keep the same ordering under every executor.  The
        batch is wrapped in a ``rung`` span when telemetry is on.
        """
        from ..engine.protocol import TrialRequest  # local import avoids a cycle

        with self._span(
            "rung",
            budget_fraction=budget_fraction,
            iteration=iteration,
            bracket=bracket,
            n_configs=len(configs),
        ):
            requests = [
                TrialRequest(
                    config=config,
                    budget_fraction=budget_fraction,
                    iteration=iteration,
                    bracket=bracket,
                )
                for config in configs
            ]
            outcomes = self.engine.run_batch(requests)
            return [self._record_outcome(outcome) for outcome in outcomes]

    def _record_outcome(self, outcome) -> Trial:
        """Convert an engine :class:`~repro.engine.TrialOutcome` into a Trial."""
        request = outcome.request
        trial = Trial(
            config=request.config,
            budget_fraction=request.budget_fraction,
            result=outcome.result,
            iteration=request.iteration,
            bracket=request.bracket,
        )
        self._trials.append(trial)
        return trial

    def _initial_configurations(
        self, configurations: Optional[Sequence[Dict[str, Any]]], n_configurations: Optional[int]
    ) -> List[Dict[str, Any]]:
        """Resolve the candidate set: explicit list, sample, or full grid."""
        if configurations is not None:
            configs = [dict(c) for c in configurations]
            if not configs:
                raise ValueError("configurations must be non-empty")
            for config in configs:
                self.space.validate(config)
            return configs
        if n_configurations is not None:
            return self.space.sample_batch(n_configurations, rng=self._rng)
        if self.space.is_finite:
            return self.space.grid()
        raise ValueError(
            "An infinite space requires either explicit configurations or n_configurations"
        )

    def fit(
        self,
        configurations: Optional[Sequence[Dict[str, Any]]] = None,
        n_configurations: Optional[int] = None,
    ) -> SearchResult:
        """Run the search and return its :class:`SearchResult`.

        Template method: syncs telemetry between searcher and engine,
        opens the ``run`` span, and delegates the actual search to the
        subclass's :meth:`_fit`.
        """
        self._sync_telemetry()
        with self._span(
            "run",
            searcher=self.method_name,
            root_seed=self.random_state,
        ) as span:
            result = self._fit(configurations, n_configurations)
            if span is not None:
                span.attrs["best_score"] = float(result.best_score)
                span.attrs["n_trials"] = result.n_trials
            return result

    def _fit(
        self,
        configurations: Optional[Sequence[Dict[str, Any]]],
        n_configurations: Optional[int],
    ) -> SearchResult:
        """Subclass hook: the actual search, run inside the ``run`` span."""
        raise NotImplementedError
