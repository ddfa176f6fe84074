"""Configuration evaluators: subset sampling + cross-validation + scoring.

:class:`SubsetCVEvaluator` is the single workhorse behind both the vanilla
and the enhanced bandit methods.  Its three axes correspond one-to-one to
the paper's three components, each independently switchable (which is what
the ablation experiments toggle):

- ``sampling``: how the instance-budget subset is drawn — ``"random"``,
  ``"stratified"`` (by label; the vanilla baseline) or ``"grouped"``
  (group-stratified from Operation 1's groups);
- ``folding``: how CV folds are built inside the subset — ``"random"``,
  ``"stratified"`` or ``"grouped"`` (the general+special folds of
  Operation 2);
- ``score_params``: the halving metric — the vanilla mean or the paper's
  variance- and size-aware score of Equation 3.

There is one evaluation procedure, :meth:`SubsetCVEvaluator.evaluate_many`:
plan every trial of a rung (subset, folds, seeds), fit and predict what
MLP trial in one :func:`~repro.learners.batched.fit_mlp_trials` and one
:func:`~repro.learners.batched.predict_folds` call, then score fold by
fold, fitting there what that call does not take (non-MLP, single
folds).  ``evaluate`` is that call at width one.  What stacks follows
from model type, solver and lane width, never from an option.

Factory helpers :func:`vanilla_evaluator` and :func:`grouped_evaluator`
build the two configurations the paper compares.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..engine.arena import ArenaRef, SharedArena
from ..engine.arena import attach as arena_attach
from ..engine.checkpoint import FoldCheckpoint
from ..engine.protocol import EvaluationResult
from ..guard import DataReport, GuardLog, validate_dataset
from ..telemetry.collect import current_collector
from ..learners.mlp import MLPClassifier, MLPRegressor
from ..learners.batched import MegaBatchStats, batchable_model, fit_mlp_trials, predict_folds
from ..metrics import accuracy_score, f1_score, r2_score
from ..model_selection import KFold, StratifiedKFold, random_subsample, stratified_subsample
from .folds import GeneralSpecialFolds
from .grouping import InstanceGrouping, generate_groups
from .scoring import ScoreParams, ucb_score

__all__ = [
    "FOLD_FLOOR",
    "MLPModelFactory",
    "SubsetCVEvaluator",
    "make_scorer",
    "vanilla_evaluator",
    "grouped_evaluator",
]

#: Score a guarded evaluation assigns to a fold whose fit raised or whose
#: metric came back non-finite.  Deliberately far below any real metric yet
#: far above the engine's trial-level FAILURE_SCORE sentinel, so a partially
#: failed evaluation still ranks below healthy ones but above total failures.
FOLD_FLOOR = -1e6


def _fold_metric(metric: str, n_classes: int) -> Callable:
    """Metric ``(y_true, y_pred) -> float``.  F1 is binary (class 1, the paper's
    minority) when the *dataset* has at most two classes, else macro-averaged,
    whatever labels one fold holds."""
    if metric == "f1":
        return partial(f1_score, average="binary" if n_classes <= 2 else "macro")
    if metric in ("accuracy", "r2"):
        return accuracy_score if metric == "accuracy" else r2_score
    raise ValueError(f"Unknown metric {metric!r}; expected 'accuracy', 'f1' or 'r2'")


def make_scorer(metric: str, n_classes: Optional[int] = None) -> Callable:
    """Scoring function ``(model, X, y) -> float`` for a metric name.

    ``n_classes`` is the dataset's class count; without it the labels of
    the scored ``y`` are counted (right for a test set, not for a fold).
    """
    _fold_metric(metric, 2)  # an unknown name fails here, not at the first score
    return lambda model, X, y: _fold_metric(metric, n_classes or len(np.unique(y)))(
        y, model.predict(X)
    )


def _label_index(labels: np.ndarray) -> Tuple[int, np.ndarray, List[np.ndarray]]:
    """``(n_labels, codes, members)``, ``members[c]`` being ``np.flatnonzero(codes == c)``."""
    classes, codes = np.unique(labels, return_inverse=True)
    members = np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])
    return len(classes), codes, members


class _ConstantClassifier:
    """Degenerate fallback when a training fold contains a single class."""

    def __init__(self, label) -> None:
        self.label = label

    def predict(self, X) -> np.ndarray:
        return np.full(len(X), self.label)


class MLPModelFactory:
    """Build an MLP estimator from a configuration dict.

    Configuration keys are passed straight through as
    :class:`~repro.learners.MLPClassifier` / ``MLPRegressor`` keyword
    arguments (they share the paper's Table III names), layered over
    ``defaults``.

    Parameters
    ----------
    task:
        ``"classification"`` or ``"regression"``.
    defaults:
        Keyword arguments applied to every model (e.g. ``max_iter``).
    """

    def __init__(self, task: str = "classification", **defaults: Any) -> None:
        if task not in ("classification", "regression"):
            raise ValueError(f"task must be 'classification' or 'regression', got {task!r}")
        self.task = task
        self.defaults = defaults

    def __call__(self, config: Dict[str, Any], random_state: Optional[int] = None):
        """Instantiate an unfitted estimator for ``config``."""
        kwargs = {**self.defaults, **config}
        if random_state is not None:
            kwargs.setdefault("random_state", random_state)
        cls = MLPClassifier if self.task == "classification" else MLPRegressor
        return cls(**kwargs)


class SubsetCVEvaluator:
    """Evaluate configurations on budgeted subsets via cross-validation.

    Parameters
    ----------
    X, y:
        The full training set the budget refers to (``B = len(y)``).
    model_factory:
        Callable ``(config, random_state) -> estimator``.
    metric:
        ``"accuracy"``, ``"f1"`` or ``"r2"``.
    task:
        ``"classification"`` or ``"regression"``.
    sampling, folding:
        Axis choices described in the module docstring.
    n_splits:
        Fold count for the non-grouped folding modes.
    grouping:
        Pre-computed :class:`~repro.core.grouping.InstanceGrouping`;
        required whenever ``sampling`` or ``folding`` is ``"grouped"``.
    k_gen, k_spe, special_majority:
        Parameters of the general+special folds (paper: 3 / 2 / 0.8).
    score_params:
        Halving-metric weights; ``ScoreParams(use_variance=False)``
        reproduces the vanilla mean-only metric.
    min_subset:
        Floor on the subset size so tiny budget fractions remain splittable.
    clock:
        Zero-argument callable timing each evaluation (default
        :func:`time.perf_counter`).  Tests inject a fake clock to make
        :attr:`EvaluationResult.cost` deterministic instead of sleeping;
        a custom clock must be picklable to cross process boundaries.
    guard_policy:
        Data-integrity guard policy (``"strict"``, ``"repair"``, ``"warn"``,
        ``"off"`` or ``None``).  With an active policy (anything but
        ``off``/``None``) the dataset is validated at construction, every
        evaluation records :class:`~repro.guard.events.GuardEvent` entries
        onto its result, degenerate folds shrink instead of raising, and
        failed or non-finite folds are clamped to :data:`FOLD_FLOOR`.
    data_report:
        Pre-computed :class:`~repro.guard.DataReport` when the caller (e.g.
        :func:`grouped_evaluator`) already validated ``X, y``; skips the
        construction-time validation.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        model_factory: Callable,
        metric: str = "accuracy",
        task: str = "classification",
        sampling: str = "stratified",
        folding: str = "stratified",
        n_splits: int = 5,
        grouping: Optional[InstanceGrouping] = None,
        k_gen: int = 3,
        k_spe: int = 2,
        special_majority: float = 0.8,
        score_params: Optional[ScoreParams] = None,
        min_subset: int = 30,
        clock: Optional[Callable[[], float]] = None,
        guard_policy: Optional[str] = None,
        data_report: Optional[DataReport] = None,
    ) -> None:
        for axis, value in (("sampling", sampling), ("folding", folding)):
            if value not in ("random", "stratified", "grouped"):
                raise ValueError(f"{axis} must be 'random', 'stratified' or 'grouped', got {value!r}")
        if (sampling == "grouped" or folding == "grouped") and grouping is None:
            raise ValueError("grouped sampling/folding requires a grouping")
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y)
        if len(self.X) != len(self.y):
            raise ValueError(f"X and y have inconsistent lengths: {len(self.X)} != {len(self.y)}")
        self.guard_policy = guard_policy
        if self.guard_active and data_report is None:
            self.X, self.y, data_report = validate_dataset(
                self.X, self.y, policy=guard_policy, task=task
            )
        self.data_report = data_report
        # Guard events recorded before evaluation begins (dataset validation,
        # grouping); factories fill this, the CLI summarises it.
        self.setup_guard_events: list = []
        self.model_factory = model_factory
        self.metric = metric
        self.task = task
        self.sampling = sampling
        self.folding = folding
        self.n_splits = n_splits
        self.grouping = grouping
        self.k_gen = k_gen
        self.k_spe = k_spe
        self.special_majority = special_majority
        self.score_params = score_params if score_params is not None else ScoreParams(use_variance=False)
        self.min_subset = min_subset
        self.clock = clock if clock is not None else time.perf_counter
        #: ``{"X": ArenaRef, "y": ArenaRef}`` once :meth:`share_memory`
        #: published the dataset; ``None`` keeps plain pickle transport.
        self._arena_refs: Optional[Dict[str, ArenaRef]] = None
        self._index_labels()

    #: What :meth:`_index_labels` derives from the data; never pickled.
    _DERIVED = ("_n_classes", "_codes", "_class_members", "_group_members", "_metric", "scorer")

    def _index_labels(self) -> None:
        """Label codes, class count and per-class / per-group member indices, once."""
        self._n_classes = self._codes = self._class_members = self._group_members = None
        if self.task == "classification":
            self._n_classes, self._codes, self._class_members = _label_index(self.y)
        if self.grouping is not None:
            self._group_members = _label_index(self.grouping.group_labels)[2]
        self._metric = _fold_metric(self.metric, self._n_classes or 2)
        self.scorer = make_scorer(self.metric, self._n_classes)

    @property
    def guard_active(self) -> bool:
        """Whether an active guard policy governs this evaluator."""
        return self.guard_policy not in (None, "off")

    # -- pickling -------------------------------------------------------------

    def share_memory(self, arena: SharedArena) -> Dict[str, ArenaRef]:
        """Publish the dataset into ``arena``; pickles then carry refs.

        After this, :meth:`__getstate__` replaces the ``X``/``y`` arrays
        with their :class:`~repro.engine.arena.ArenaRef` placeholders, so
        shipping the evaluator to a spawned worker moves kilobytes of
        metadata instead of the dataset — the worker attaches read-only
        shared views and verifies the content digest.  The caller (the
        parallel executor) owns the arena's lifetime; call
        :meth:`unshare_memory` before pickling for any destination that
        cannot reach this machine's shared memory.
        """
        refs = arena.publish_all({"X": self.X, "y": self.y})
        self._arena_refs = refs
        return refs

    def unshare_memory(self) -> None:
        """Forget published refs; pickling carries the arrays again."""
        self._arena_refs = None

    def __getstate__(self):
        """Drop what :meth:`_index_labels` derives; it is rebuilt on load.

        :class:`~repro.engine.ParallelExecutor` ships the evaluator to
        worker processes once via the pool initializer.  With
        :meth:`share_memory` active, the dataset arrays travel as arena
        refs instead of bytes.
        """
        state = dict(self.__dict__)
        for name in self._DERIVED:
            state.pop(name, None)
        refs = state.get("_arena_refs")
        if refs:
            state["X"] = refs["X"]
            state["y"] = refs["y"]
        return state

    def __setstate__(self, state):
        """Restore attributes, attach any arena refs, re-derive the rest."""
        self.__dict__.update(state)
        self.__dict__.setdefault("_arena_refs", None)
        if isinstance(self.X, ArenaRef):
            self.X = arena_attach(self.X)
        if isinstance(self.y, ArenaRef):
            self.y = arena_attach(self.y)
        self._index_labels()

    # -- protocol ------------------------------------------------------------

    def evaluate(
        self,
        config: Dict[str, Any],
        budget_fraction: float,
        rng: np.random.Generator,
        warm_states: Optional[List] = None,
        capture_checkpoints: bool = False,
    ) -> EvaluationResult:
        """Score ``config`` on a ``budget_fraction`` subset of the data.

        A width-1 :meth:`evaluate_many` call with the ambient collector as
        the spec's collector — there is one plan -> fit -> score pipeline.

        ``warm_states`` optionally carries one
        :class:`~repro.engine.checkpoint.FoldCheckpoint` (or ``None``) per
        fold from a lower-budget evaluation of the same configuration; a
        shape-compatible entry replaces the Glorot initialisation of the
        matching fold.  With ``capture_checkpoints`` the fitted per-fold
        parameters are set as the returned result's ``fold_states``, for
        the engine's :class:`~repro.engine.checkpoint.CheckpointStore`.
        """
        spec = (config, budget_fraction, rng, warm_states, capture_checkpoints, current_collector())
        return self.evaluate_many([spec])[0][0]

    def evaluate_many(
        self,
        specs: List[Tuple],
    ) -> Tuple[List[EvaluationResult], MegaBatchStats]:
        """Evaluate the trials of one rung (any width, down to one).

        Each spec is ``(config, budget_fraction, rng, warm_states,
        capture_checkpoints, collector)`` — one trial as :meth:`evaluate`
        takes it, plus an optional
        :class:`~repro.telemetry.TrialCollector` that the trial's counters
        and fold spans are recorded into (the phases of different trials
        interleave, so a single ambient collector cannot attribute work).

        Three phases, none of which moves an rng draw relative to a
        fold-by-fold loop.  *Plan*: every trial draws its subset, folds
        and model seeds, consuming only its own rng.  *Fit*: the folds of
        every trial whose models are all MLPs (any solver, at least two
        folds) go to :func:`~repro.learners.batched.fit_mlp_trials` in one
        call, which stacks shape-matched folds into lanes bitwise-equal to
        ``model.fit``, then predicts them in one ``predict_folds`` call timed
        with the fit.  *Score*: each fold is scored; trials the fit phase
        skipped (non-MLP, single fold) fit and predict fold by fold.

        A fit-phase error propagates — the executor then re-runs each
        task alone — except in a single-trial call under an active guard
        policy, where the trial degrades fold by fold in its score phase
        (a ``learner.batch_fallback`` if it had ``sgd``/``adam`` folds).
        Returns the per-trial results (spec order) and the fit phase's
        :class:`MegaBatchStats`.
        """
        plans: List[Dict[str, Any]] = []
        for config, budget_fraction, rng, warm_states, capture, collector in specs:
            if not 0.0 < budget_fraction <= 1.0:
                raise ValueError(f"budget_fraction must be in (0, 1], got {budget_fraction}")
            start = self.clock()
            guard = GuardLog(self.guard_policy) if self.guard_active else None
            subset, folds = self._subset_and_folds(budget_fraction, rng, guard)
            seeds, models, warm_map = self._plan_models(config, folds, rng, warm_states)
            plans.append(
                {
                    "config": config,
                    "subset": subset,
                    "folds": folds,
                    "seeds": seeds,
                    "models": models,
                    "warm_map": warm_map,
                    "guard": guard,
                    "collector": collector,
                    "capture": capture,
                    "own": self.clock() - start,
                    "fit_share": 0.0,
                    "predictions": None,
                }
            )

        fused = [plan for plan in plans if self._batch_eligible(plan["models"])]
        mega = MegaBatchStats()
        if fused:
            trial_jobs, warms = zip(*(self._fold_jobs(plan) for plan in fused))
            fit_start = self.clock()
            try:
                per_trial_stats, mega = fit_mlp_trials(trial_jobs, warms)
            except Exception as exc:  # noqa: BLE001 - a guarded lone trial degrades
                if len(plans) > 1 or plans[0]["guard"] is None:
                    raise
                plan = plans[0]
                if any(map(batchable_model, plan["models"].values())):
                    plan["guard"].record(
                        "learner.batch_fallback",
                        f"batched fit raised {type(exc).__name__}: {exc}; "
                        "re-fitting folds sequentially",
                        error=type(exc).__name__,
                    )
                # The lane may have left partial state behind; rebuild the
                # models from their planned seeds and let the score phase
                # degrade broken folds one at a time.
                plan["models"] = self._build_models(plan["config"], plan["seeds"])
            else:
                del trial_jobs, warms  # the training-row copies go before the stacks come
                self._predict_stacked(fused)
                fit_elapsed = self.clock() - fit_start
                total_folds = sum(stats.folds for stats in per_trial_stats) or 1
                for plan, stats in zip(fused, per_trial_stats):
                    plan["fit_share"] = fit_elapsed * stats.folds / total_folds
                    self._count_batch_stats(plan["collector"], stats)

        results = []
        for plan in plans:
            score_start = self.clock()
            fold_scores = self._score_trial(plan)
            cost = plan["own"] + plan["fit_share"] + (self.clock() - score_start)
            results.append(
                self._assemble_result(
                    plan["subset"],
                    plan["folds"],
                    plan["models"],
                    fold_scores,
                    plan["guard"],
                    cost,
                    plan["capture"],
                )
            )
        return results, mega

    # -- internals -------------------------------------------------------------

    def _plan_models(
        self,
        config: Dict[str, Any],
        folds: List[Tuple[np.ndarray, np.ndarray]],
        rng: np.random.Generator,
        warm_states: Optional[List],
    ) -> Tuple[List[Optional[int]], Dict[int, Any], Dict[int, Any]]:
        """Plan phase: replicate the sequential seed stream exactly.

        A single-class fold draws nothing, every other fold draws one
        model seed, in fold order — after this the trial's rng is fully
        consumed (nothing downstream touches it), which is what lets the
        mega-batch path plan all trials before fitting any of them.
        """
        seeds: List[Optional[int]] = []
        for train_idx, _ in folds:
            if self._codes is not None and np.count_nonzero(np.bincount(self._codes[train_idx])) < 2:
                seeds.append(None)
            else:
                seeds.append(int(rng.integers(2**31)))
        models = self._build_models(config, seeds)
        warm_map: Dict[int, Any] = {}
        if warm_states:
            for index, model in models.items():
                if (
                    index < len(warm_states)
                    and warm_states[index] is not None
                    and isinstance(model, (MLPClassifier, MLPRegressor))
                ):
                    warm_map[index] = warm_states[index]
        return seeds, models, warm_map

    def _build_models(self, config: Dict[str, Any], seeds: List[Optional[int]]) -> Dict[int, Any]:
        """One unfitted model per fold that drew a seed, keyed by fold index."""
        return {
            index: self.model_factory(config, random_state=seed)
            for index, seed in enumerate(seeds)
            if seed is not None
        }

    def _batch_eligible(self, models: Dict[int, Any]) -> bool:
        """Whether a trial's folds go through the lane call: two or more, all MLPs."""
        mlp = (MLPClassifier, MLPRegressor)
        return len(models) >= 2 and all(isinstance(model, mlp) for model in models.values())

    def _fold_jobs(self, plan: Dict[str, Any]) -> Tuple[List[Tuple], Optional[Dict[int, Tuple]]]:
        """Build a trial's lane-kernel job list (and positional warm dict, if any)."""
        folds, models, warm_map = plan["folds"], plan["models"], plan["warm_map"]
        order = sorted(models)
        jobs = [(models[i], self.X[folds[i][0]], self.y[folds[i][0]]) for i in order]
        warm = {
            position: (warm_map[i].coefs, warm_map[i].intercepts)
            for position, i in enumerate(order)
            if i in warm_map
        }
        return jobs, warm or None

    @staticmethod
    def _count_batch_stats(collector, stats) -> None:
        """Fold one trial's lane-dispatch counters into its collector."""
        if collector is None:
            return
        collector.registry.inc("evaluator.batched_folds", stats.batched_folds)
        if stats.warm_folds:
            collector.registry.inc("evaluator.warm_folds", stats.warm_folds)

    def _predict_stacked(self, plans: List[Dict[str, Any]]) -> None:
        """Predict every fold of the fused trials in one stacked call."""
        models, X_vals = [], []
        for plan in plans:
            for index, (train_idx, val_idx) in enumerate(plan["folds"]):
                model = plan["models"].get(index)
                models.append(model if model is not None else _ConstantClassifier(self.y[train_idx[0]]))
                X_vals.append(self.X[val_idx])
        predictions = iter(predict_folds(models, X_vals))
        for plan in plans:
            plan["predictions"] = [next(predictions) for _ in plan["folds"]]

    def _score_trial(self, plan: Dict[str, Any]) -> List[float]:
        """Score phase (fits and predicts here too when the lane call did not run)."""
        collector = plan["collector"]
        fold_scores = []
        predictions = plan["predictions"] or [None] * len(plan["folds"])
        for fold_index, (train_idx, val_idx) in enumerate(plan["folds"]):
            span = (
                collector.tracer.span(
                    "fold",
                    fold=fold_index,
                    n_train=int(len(train_idx)),
                    n_val=int(len(val_idx)),
                )
                if collector is not None
                else nullcontext(None)
            )
            with span as record:
                fold_score = self._score_fold(plan, fold_index, predictions[fold_index])
                if record is not None:
                    record.attrs["score"] = round(float(fold_score), 6)
            if collector is not None:
                collector.registry.observe("evaluator.fold_score", float(fold_score))
            fold_scores.append(fold_score)
        return fold_scores

    def _assemble_result(
        self,
        subset: np.ndarray,
        folds: List[Tuple[np.ndarray, np.ndarray]],
        models: Dict[int, Any],
        fold_scores: List[float],
        guard: Optional[GuardLog],
        cost: float,
        capture_checkpoints: bool,
    ) -> EvaluationResult:
        """Assemble the trial's result (with any captured fold states)."""
        gamma = 100.0 * len(subset) / len(self.y)
        mean = float(np.mean(fold_scores))
        std = float(np.std(fold_scores))
        score = ucb_score(mean, std, gamma, self.score_params)
        result = EvaluationResult(
            mean=mean,
            std=std,
            score=score,
            gamma=gamma,
            fold_scores=[float(s) for s in fold_scores],
            n_instances=int(len(subset)),
            cost=cost,
            guard_events=guard.as_dicts() if guard else [],
        )
        if capture_checkpoints:
            checkpoints = [
                FoldCheckpoint.from_model(models[index]) if index in models else None
                for index in range(len(folds))
            ]
            if any(state is not None for state in checkpoints):
                result.fold_states = checkpoints
        return result

    def _subset_and_folds(
        self,
        budget_fraction: float,
        rng: np.random.Generator,
        guard: Optional[GuardLog],
    ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        """Draw the budget subset (one rng draw) and its fold partition (one more)."""
        n_total = len(self.y)
        floor = max(self.min_subset, 2 * self._n_folds())
        n_subset = int(round(budget_fraction * n_total))
        n_subset = min(n_total, max(floor, n_subset))
        subset = self._draw_subset(n_subset, rng)
        return subset, list(self._folds(subset, rng, guard))

    def _score_fold(self, plan: Dict[str, Any], fold_index: int, prediction) -> float:
        """Score one fold; fit and predict it first unless the fit phase did."""
        (train_idx, val_idx), guard = plan["folds"][fold_index], plan["guard"]
        model = plan["models"].get(fold_index)
        if model is None:
            if guard is not None:
                guard.record(
                    "folds.single_class_train",
                    "training fold holds a single class; scored a constant predictor",
                    n_train=int(len(train_idx)),
                )
            model = _ConstantClassifier(self.y[train_idx[0]])
        elif plan["predictions"] is not None:
            if guard is not None and getattr(model, "diverged_", False):
                guard.record(
                    "learner.diverged",
                    "fit aborted on exploding loss; parameters rolled back "
                    "to the last finite state",
                )
        else:
            X_train, y_train = self.X[train_idx], self.y[train_idx]
            collector = plan["collector"]
            span = (
                collector.tracer.span("fit", n_train=int(len(train_idx)))
                if collector is not None
                else nullcontext(None)
            )
            warm = plan["warm_map"].get(fold_index)
            fit_kwargs = (
                {"coefs_init": warm.coefs, "intercepts_init": warm.intercepts}
                if warm is not None
                else {}
            )
            with span:
                if guard is None:
                    model.fit(X_train, y_train, **fit_kwargs)
                else:
                    try:
                        model.fit(X_train, y_train, **fit_kwargs)
                    except Exception as exc:  # noqa: BLE001 - any fit failure degrades
                        guard.record(
                            "learner.fit_error",
                            f"fit raised {type(exc).__name__}: {exc}",
                            error=type(exc).__name__,
                            floor=FOLD_FLOOR,
                        )
                        return FOLD_FLOOR
                    if getattr(model, "diverged_", False):
                        guard.record(
                            "learner.diverged",
                            "fit aborted on exploding loss; parameters rolled back "
                            "to the last finite state",
                        )
        if prediction is None:
            prediction = predict_folds([model], [self.X[val_idx]])[0]
        score = float(self._metric(self.y[val_idx], prediction))
        if guard is not None and not np.isfinite(score):
            guard.record(
                "scoring.nonfinite_fold",
                f"fold scored {score!r}; clamped to the fold floor",
                floor=FOLD_FLOOR,
            )
            score = FOLD_FLOOR
        return score

    def _n_folds(self) -> int:
        if self.folding == "grouped":
            return self.k_gen + self.k_spe
        return self.n_splits

    def _draw_subset(self, n_subset: int, rng: np.random.Generator) -> np.ndarray:
        n_total = len(self.y)
        if n_subset >= n_total:
            return np.arange(n_total)
        if self.sampling == "grouped":
            return stratified_subsample(
                self.grouping.group_labels, n_subset, rng=rng, members=self._group_members
            )
        if self.sampling == "stratified" and self.task == "classification":
            return stratified_subsample(self.y, n_subset, rng=rng, members=self._class_members)
        return random_subsample(n_total, n_subset, rng=rng)

    def _folds(
        self,
        subset: np.ndarray,
        rng: np.random.Generator,
        guard: Optional[GuardLog] = None,
    ):
        """Yield (train, validation) pairs in full-dataset coordinates."""
        seed = int(rng.integers(2**31))
        if self.folding == "grouped":
            splitter = GeneralSpecialFolds(
                self.grouping.group_labels,
                k_gen=self.k_gen,
                k_spe=self.k_spe,
                special_majority=self.special_majority,
                random_state=seed,
                guard=guard,
            )
            yield from splitter.split(subset)
            return
        n_splits = self.n_splits
        n = len(subset)
        if guard is not None and n < 2 * n_splits:
            effective = max(2, n // 2)
            guard.record(
                "folds.k_shrunk",
                f"subset of {n} too small for {n_splits} folds; using {effective}",
                n=n,
                k_before=n_splits,
                k=effective,
            )
            n_splits = effective
        if self.folding == "stratified" and self.task == "classification":
            splitter = StratifiedKFold(n_splits=n_splits, shuffle=True, random_state=seed)
            relative = splitter.split(subset, self.y[subset])
        else:
            splitter = KFold(n_splits=n_splits, shuffle=True, random_state=seed)
            relative = splitter.split(subset)
        for train_rel, val_rel in relative:
            yield subset[train_rel], subset[val_rel]

    def fit_full(self, config: Dict[str, Any], random_state: Optional[int] = None):
        """Train a model with ``config`` on the entire training set."""
        model = self.model_factory(config, random_state=random_state)
        model.fit(self.X, self.y)
        return model


def vanilla_evaluator(
    X: np.ndarray,
    y: np.ndarray,
    model_factory: Callable,
    metric: str = "accuracy",
    task: str = "classification",
    n_splits: int = 5,
    min_subset: int = 30,
    clock: Optional[Callable[[], float]] = None,
    guard_policy: Optional[str] = None,
) -> SubsetCVEvaluator:
    """The baseline evaluator: stratified subsets, stratified k-fold, mean."""
    return SubsetCVEvaluator(
        X,
        y,
        model_factory,
        metric=metric,
        task=task,
        sampling="stratified" if task == "classification" else "random",
        folding="stratified",
        n_splits=n_splits,
        score_params=ScoreParams(use_variance=False),
        min_subset=min_subset,
        clock=clock,
        guard_policy=guard_policy,
    )


def grouped_evaluator(
    X: np.ndarray,
    y: np.ndarray,
    model_factory: Callable,
    metric: str = "accuracy",
    task: str = "classification",
    n_groups: int = 2,
    k_gen: int = 3,
    k_spe: int = 2,
    r_group: float = 0.8,
    special_majority: float = 0.8,
    alpha: float = 0.1,
    beta_max: float = 10.0,
    min_subset: int = 30,
    random_state: Optional[int] = None,
    grouping: Optional[InstanceGrouping] = None,
    clock: Optional[Callable[[], float]] = None,
    guard_policy: Optional[str] = None,
) -> SubsetCVEvaluator:
    """The paper's enhanced evaluator (grouped sampling/folds, Eq. 3 score).

    Builds the instance grouping up front (the paper performs this once
    before optimization starts) unless one is supplied.  With an active
    ``guard_policy`` the dataset is validated *before* grouping (clustering
    rejects NaN features, so repair must come first) and the grouping step
    itself runs under a guard log whose events land on the data report's
    side of the audit trail.
    """
    data_report = setup_guard = None
    if guard_policy not in (None, "off"):
        setup_guard = GuardLog(guard_policy)
        X, y, data_report = validate_dataset(
            X,
            y,
            policy=guard_policy,
            task="regression" if task == "regression" else "classification",
            guard=setup_guard,
        )
    if grouping is None:
        grouping = generate_groups(
            X,
            y,
            n_groups=n_groups,
            task="regression" if task == "regression" else "classification",
            r_group=r_group,
            random_state=random_state,
            guard=setup_guard,
        )
    evaluator = SubsetCVEvaluator(
        X,
        y,
        model_factory,
        metric=metric,
        task=task,
        sampling="grouped",
        folding="grouped",
        grouping=grouping,
        k_gen=k_gen,
        k_spe=k_spe,
        special_majority=special_majority,
        score_params=ScoreParams(alpha=alpha, beta_max=beta_max),
        min_subset=min_subset,
        clock=clock,
        guard_policy=guard_policy,
        data_report=data_report,
    )
    if data_report is not None:
        evaluator.setup_guard_events = setup_guard.as_dicts()
    return evaluator
