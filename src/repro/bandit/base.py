"""Shared abstractions for bandit-based searchers.

Defines the evaluation protocol every searcher consumes — which is the seam
the paper's enhancement plugs into: a *vanilla* evaluator gives SHA / HB /
BOHB, while the grouped evaluator from :mod:`repro.core` turns the same
searchers into SHA+ / HB+ / BOHB+ without touching their logic.
"""

from __future__ import annotations

import math
import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..engine.core import TrialEngine
from ..engine.journal import space_fingerprint
from ..engine.protocol import EvaluationResult, TrialRequest
from ..space import SearchSpace, config_key

__all__ = [
    "EvaluationResult",
    "ConfigurationEvaluator",
    "Trial",
    "SearchResult",
    "BaseSearcher",
    "deepest_rung",
    "top_k_indices",
]


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


def deepest_rung(eta: float, min_budget_fraction: float) -> int:
    """``floor(log_eta(1 / min_budget_fraction))``: Hyperband's ``s_max``.

    The index of the deepest bracket (HB) or the highest rung (ASHA,
    PASHA).  A float ``log`` lands a hair below the integer for some exact
    powers (``log_3 243`` is 4.999...), so the floor is taken after a
    ``1e-9`` nudge: exact for every ``eta**-k``.
    """
    return int(math.floor(math.log(1.0 / min_budget_fraction, eta) + 1e-9))


def take_nearest(
    pool: Sequence[Dict[str, Any]], vectors: np.ndarray, remaining: List[int], vector: np.ndarray
) -> Dict[str, Any]:
    """Pop from ``remaining`` the pool member whose encoding is nearest ``vector``.

    ``vectors`` holds every member's encoding and ``remaining`` the
    indices of the unevaluated ones, ascending; the first of equally near
    members wins.  TPE and SMAC restricted to a candidate pool snap each
    proposal to the pool this way.
    """
    nearest = int(((vectors[remaining] - vector) ** 2).sum(axis=1).argmin())
    return pool[remaining.pop(nearest)]


def trial_count(n_configurations: Optional[int], default: int) -> int:
    """``n_configurations``, or ``default`` when it is ``None``; must be positive."""
    n = default if n_configurations is None else n_configurations
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return n


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
        Telemetry is attached to the engine
        (``TrialEngine(telemetry=...)``): every ``fit()`` is then wrapped
        in a ``run`` span, rung batches get ``rung`` spans, and the engine
        records each evaluation as a ``trial`` span with its fold/fit
        children and metrics.  Recording never touches the search's
        random streams, so results stay bit-for-bit identical to an
        uninstrumented run.
    """

    method_name = "base"

    def __init__(
        self,
        space: SearchSpace,
        evaluator: ConfigurationEvaluator,
        random_state: Optional[int] = None,
        engine=None,
    ) -> None:
        self.space = space
        self.evaluator = evaluator
        self.random_state = random_state
        self.engine = engine
        self._rng = np.random.default_rng(random_state)
        self._trials: List[Trial] = []

    @property
    def engine(self):
        """The :class:`~repro.engine.TrialEngine` this searcher runs on."""
        return self._engine

    @engine.setter
    def engine(self, value) -> None:
        if value is None:  # "no engine" means the default one, never no engine
            value = TrialEngine()
        self._engine = value

    def _set_budgets(self, eta: float, min_budget_fraction: float) -> None:
        """Validate and store a halving rate and a smallest budget fraction."""
        if eta <= 1.0:
            raise ValueError(f"eta must be > 1, got {eta}")
        if not 0.0 < min_budget_fraction <= 1.0:
            raise ValueError(f"min_budget_fraction must be in (0, 1], got {min_budget_fraction}")
        self.eta = eta
        self.min_budget_fraction = min_budget_fraction

    def _reset(self) -> None:
        self._rng = np.random.default_rng(self.random_state)
        self._trials = []
        self.engine.bind(
            self.evaluator,
            root_seed=self.random_state,
            metadata=self._run_identity(),
        )

    def _span(self, name: str, **attrs):
        """A structural tracer span, or an inert context when telemetry is off."""
        telemetry = self.engine.telemetry
        if telemetry is None:
            return nullcontext(None)
        return telemetry.span(name, **attrs)

    def _run_identity(self) -> Dict[str, Any]:
        """Identity recorded in (and verified against) a run-journal header.

        Guards a resume against the silent mixing of two different runs: a
        journal written by one searcher/space refuses to replay into
        another, and (since the guard layer landed) a journal written under
        one guard policy refuses to replay under a different one — guards
        change scores, so mixing policies would silently corrupt a run.
        Journals from before the guard key simply lack it and still resume.
        """
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
        with self._span(
            "rung", budget_fraction=budget_fraction, iteration=iteration, bracket=bracket,
            n_configs=len(configs),
        ):
            requests = [
                TrialRequest(config, budget_fraction, iteration=iteration, bracket=bracket)
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
        self,
        configurations: Optional[Sequence[Dict[str, Any]]],
        n_configurations: Optional[int],
        n_default: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Resolve the candidate set: explicit list, a sample of ``n_configurations``
        (``n_default`` when both are ``None``), or the full grid."""
        if n_configurations is None:
            n_configurations = n_default
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

        Template method: opens the ``run`` span (when the engine carries
        telemetry) and runs :meth:`_fit` inside it — the rung loop over
        the subclass's :meth:`_schedule` (ASHA keeps its own asynchronous
        loop).
        """
        with self._span("run", searcher=self.method_name, root_seed=self.random_state) as span:
            result = self._fit(configurations, n_configurations)
            if span is not None:
                span.attrs["best_score"] = float(result.best_score)
                span.attrs["n_trials"] = result.n_trials
            return result

    def _fit(self, configurations, n_configurations) -> SearchResult:
        """The one synchronous rung loop, run inside the ``run`` span.

        Takes each rung from :meth:`_schedule`, evaluates it as one engine
        batch, hands every trial to :meth:`_observe` and sends the trials
        back to the schedule.  The incumbent is Hyperband's: a larger
        budget wins, and at equal budget a strictly higher score — which
        is also SHA's last survivor and the first best of a full-budget
        search (:meth:`_incumbent_key`).
        """
        self._reset()
        start = time.perf_counter()
        best: Optional[Trial] = None
        trials: Optional[List[Trial]] = None
        # closing(): a failed rung still shuts the schedule's open spans first
        with closing(self._schedule(configurations, n_configurations)) as schedule:
            while True:
                try:
                    rung = schedule.send(trials)
                except StopIteration:
                    break
                trials = self._evaluate_batch(*rung)
                for trial in trials:
                    self._observe(trial)
                    if best is None or self._incumbent_key(trial) > self._incumbent_key(best):
                        best = trial
        assert best is not None  # every schedule yields at least one rung
        return self._result(best, start)

    @staticmethod
    def _incumbent_key(trial: Trial) -> Tuple[float, float]:
        """Hyperband's incumbent order: larger budget, then higher score.

        A score measured on a larger subset is more reliable, so only a
        strictly better score at an equal budget displaces the incumbent.
        """
        return trial.budget_fraction, trial.result.score

    def _result(self, best: Trial, start: float) -> SearchResult:
        """The run's :class:`SearchResult` around incumbent ``best``."""
        return SearchResult(
            best_config=best.config,
            best_score=float(best.result.score),
            trials=list(self._trials),
            wall_time=time.perf_counter() - start,
            method=self.method_name,
        )

    def _schedule(self, configurations, n_configurations):
        """Subclass hook: a generator of rungs ``(configs, budget_fraction,
        iteration, bracket)``; each ``yield`` returns that rung's trials."""
        raise NotImplementedError

    def _observe(self, trial: Trial) -> None:
        """Notification hook after every evaluation (a no-op by default)."""
