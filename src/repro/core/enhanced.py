"""High-level API: build vanilla or enhanced (``+``) bandit searchers.

``SHA+`` / ``HB+`` / ``BOHB+`` / ``ASHA+`` are the corresponding vanilla
searchers wired to the grouped evaluator — the enhancement is entirely a
property of *how configurations are evaluated*, so the factory here is the
whole integration (paper Section III-D).

:func:`optimize` is the one-call entry point used by the examples: it
builds the evaluator, runs the search, refits the winner on the full
training set and returns everything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .. import bandit
from ..bandit.base import BaseSearcher, SearchResult
from ..engine.checkpoint import CheckpointStore
from ..space import SearchSpace
from .evaluator import MLPModelFactory, SubsetCVEvaluator, grouped_evaluator, vanilla_evaluator

__all__ = ["METHODS", "grid_pool", "make_searcher", "optimize", "OptimizationOutcome"]

#: method name -> (searcher class in :mod:`repro.bandit`, uses enhanced evaluator).
#: Classes are named, not held: a search imports only the searcher it runs.
METHODS = {
    "random": ("RandomSearch", False),
    "sha": ("SuccessiveHalving", False),
    "sha+": ("SuccessiveHalving", True),
    "hb": ("HyperBand", False),
    "hb+": ("HyperBand", True),
    "bohb": ("BOHB", False),
    "bohb+": ("BOHB", True),
    "asha": ("ASHA", False),
    "asha+": ("ASHA", True),
    "pasha": ("PASHA", False),
    "pasha+": ("PASHA", True),
    "dehb": ("DEHB", False),
    "dehb+": ("DEHB", True),
    "tpe": ("TPESearch", False),
    "smac": ("SMACSearch", False),
}

#: Method prefixes that sample their own candidates (no finite grid pool).
_SAMPLING_METHODS = ("bohb", "dehb", "tpe", "smac")


def grid_pool(space: SearchSpace, method: str) -> Optional[List[Dict[str, Any]]]:
    """The candidate pool ``repro tune`` and a serve job hand the searcher.

    The full grid of a finite space, or ``None`` — the searcher samples —
    for an infinite space or a method that samples its own candidates.
    One rule, so the CLI and the daemon run the same search for a spec.
    """
    if space.is_finite and not method.lower().startswith(_SAMPLING_METHODS):
        return space.grid()
    return None


def make_searcher(
    method: str,
    space: SearchSpace,
    X: np.ndarray,
    y: np.ndarray,
    metric: str = "accuracy",
    task: str = "classification",
    model_factory=None,
    random_state: Optional[int] = None,
    evaluator_kwargs: Optional[Dict[str, Any]] = None,
    searcher_kwargs: Optional[Dict[str, Any]] = None,
    engine=None,
    guard: Optional[str] = None,
    warm_start: bool = False,
) -> BaseSearcher:
    """Construct a searcher by paper name (``"sha"``, ``"sha+"``, ...).

    Parameters
    ----------
    method:
        One of :data:`METHODS` (case-insensitive).
    space:
        The hyperparameter space.
    X, y:
        Training data defining the instance budget.
    metric, task:
        Evaluation metric and problem type.
    model_factory:
        Callable ``(config, random_state) -> estimator``; defaults to an
        :class:`~repro.core.evaluator.MLPModelFactory` with a small
        ``max_iter`` suitable for experimentation.
    random_state:
        Seed shared by the evaluator construction and the searcher.
    evaluator_kwargs, searcher_kwargs:
        Extra keyword arguments for the evaluator factory / searcher class.
    engine:
        The :class:`~repro.engine.TrialEngine` the search runs on (parallel
        executor, journal, shared cache, ...); ``None`` means the default
        serial engine (see :class:`~repro.bandit.base.BaseSearcher`).
        Works with any method since all searchers evaluate through the
        same seam.  Telemetry, a journal and a durable checkpoint store
        are all attached to the engine.
    guard:
        Data-integrity guard policy (``"strict"``, ``"repair"``,
        ``"warn"``, ``"off"`` or ``None``); forwarded to the evaluator
        factory as ``guard_policy``.  See :mod:`repro.guard`.
    warm_start:
        Opt in to cross-rung warm starting: every evaluation's per-fold
        trained parameters are checkpointed, and a promoted configuration
        resumes training from its lower-rung checkpoint instead of a fresh
        Glorot initialisation.  Gives the engine an in-memory
        :class:`~repro.engine.checkpoint.CheckpointStore` unless it
        already carries one (a journaling engine needs a durable one:
        ``TrialEngine(checkpoints="ckpts/")``).
    """
    key = method.lower()
    if key not in METHODS:
        raise ValueError(f"Unknown method {method!r}; available: {sorted(METHODS)}")
    searcher_name, enhanced = METHODS[key]
    if model_factory is None:
        model_factory = MLPModelFactory(task=task, max_iter=30)
    evaluator_kwargs = dict(evaluator_kwargs or {})
    if guard is not None:
        evaluator_kwargs.setdefault("guard_policy", guard)
    if enhanced:
        evaluator = grouped_evaluator(
            X, y, model_factory, metric=metric, task=task, random_state=random_state, **evaluator_kwargs
        )
    else:
        evaluator = vanilla_evaluator(X, y, model_factory, metric=metric, task=task, **evaluator_kwargs)
    searcher = getattr(bandit, searcher_name)(
        space, evaluator, random_state=random_state, **(searcher_kwargs or {})
    )
    searcher.engine = engine  # not every searcher class takes engine=; None -> default
    if warm_start and searcher.engine.checkpoints is None:
        searcher.engine.checkpoints = CheckpointStore()
    searcher.method_name = _display_name(key)
    return searcher


def _display_name(key: str) -> str:
    base = key.rstrip("+")
    display = {
        "random": "random", "sha": "SHA", "hb": "HB", "bohb": "BOHB",
        "asha": "ASHA", "pasha": "PASHA", "dehb": "DEHB", "tpe": "TPE",
        "smac": "SMAC",
    }[base]
    return display + ("+" if key.endswith("+") else "")


@dataclass
class OptimizationOutcome:
    """Everything :func:`optimize` produces.

    Attributes
    ----------
    result:
        The raw :class:`~repro.bandit.SearchResult` of the run.
    model:
        The winning configuration refit on the full training set (the
        paper's final step), or ``None`` when ``refit=False``.
    train_score, wall_time:
        Full-train-set score of the refit model and total seconds including
        the refit.
    data_report:
        The :class:`~repro.guard.DataReport` of the entry validation when a
        guard policy was active, else ``None``.
    """

    result: SearchResult
    model: Any
    train_score: float
    wall_time: float
    data_report: Any = None

    @property
    def best_config(self) -> Dict[str, Any]:
        """The selected configuration ``tau*``."""
        return self.result.best_config


def optimize(
    X: np.ndarray,
    y: np.ndarray,
    space: SearchSpace,
    method: str = "sha+",
    metric: str = "accuracy",
    task: str = "classification",
    configurations: Optional[Sequence[Dict[str, Any]]] = None,
    n_configurations: Optional[int] = None,
    model_factory=None,
    random_state: Optional[int] = None,
    refit: bool = True,
    evaluator_kwargs: Optional[Dict[str, Any]] = None,
    searcher_kwargs: Optional[Dict[str, Any]] = None,
    engine=None,
    guard: Optional[str] = None,
    warm_start: bool = False,
) -> OptimizationOutcome:
    """Run hyperparameter optimization end to end.

    Pass ``engine=TrialEngine(executor=ParallelExecutor(4))`` to evaluate
    configurations on a process pool with memoization and fault tolerance;
    the fixed-seed search result is identical to the serial one.

    Pass ``engine=TrialEngine(telemetry=Telemetry(trace="run.trace.jsonl"))``
    to record a structured trace and metrics; recording is observational
    only, so the returned outcome is bitwise identical with telemetry on or
    off.

    Pass ``warm_start=True`` to resume each promoted configuration's
    training from its lower-rung checkpoint
    (``engine=TrialEngine(checkpoints="ckpts/")`` makes the checkpoints
    durable across restarts); scores then reflect the extra
    optimisation steps, so warm and cold runs are two *different* —
    individually deterministic — experiments.

    Examples
    --------
    >>> from repro import optimize
    >>> from repro.datasets import load_dataset
    >>> from repro.experiments import paper_search_space
    >>> ds = load_dataset("australian", scale=0.3)
    >>> outcome = optimize(ds.X_train, ds.y_train, paper_search_space(4),
    ...                    method="sha+", n_configurations=8, random_state=0)
    >>> sorted(outcome.best_config) == sorted(paper_search_space(4).names)
    True
    """
    start = time.perf_counter()
    searcher = make_searcher(
        method,
        space,
        X,
        y,
        metric=metric,
        task=task,
        model_factory=model_factory,
        random_state=random_state,
        evaluator_kwargs=evaluator_kwargs,
        searcher_kwargs=searcher_kwargs,
        engine=engine,
        guard=guard,
        warm_start=warm_start,
    )
    result = searcher.fit(configurations=configurations, n_configurations=n_configurations)
    model = None
    train_score = float("nan")
    if refit:
        evaluator: SubsetCVEvaluator = searcher.evaluator
        model = evaluator.fit_full(result.best_config, random_state=random_state)
        train_score = float(evaluator.scorer(model, evaluator.X, evaluator.y))
    return OptimizationOutcome(
        result=result,
        model=model,
        train_score=train_score,
        wall_time=time.perf_counter() - start,
        data_report=getattr(searcher.evaluator, "data_report", None),
    )
