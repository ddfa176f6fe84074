"""repro — reproduction of "Enhancing the Performance of Bandit-based
Hyperparameter Optimization" (Chen, Wen, Chen & Huang, ICDE 2024).

The package layers:

- :mod:`repro.learners`, :mod:`repro.cluster`, :mod:`repro.model_selection`,
  :mod:`repro.metrics`, :mod:`repro.datasets` — from-scratch substrate
  replacing scikit-learn for this reproduction;
- :mod:`repro.space`, :mod:`repro.bandit` — search spaces and the vanilla
  bandit-based HPO methods (random, SHA, HyperBand, BOHB, ASHA);
- :mod:`repro.engine` — the trial-execution engine: deterministic
  per-trial seeding, memoization, retry/degrade fault tolerance and
  pluggable serial/process-pool executors;
- :mod:`repro.guard` — the data-integrity guard layer: dataset
  validation/repair, typed degradation events and the policies
  (``strict``/``repair``/``warn``/``off``) threaded through grouping,
  folds, learners and scoring;
- :mod:`repro.telemetry` — zero-dependency observability: structured
  run/bracket/rung/trial/fold spans, a deterministic metrics registry and
  opt-in profiling hooks, threaded through engine, searchers and
  evaluator (see ``docs/OBSERVABILITY.md``);
- :mod:`repro.core` — the paper's contribution: instance grouping,
  general+special fold construction and the variance/size-aware metric,
  plugged into the bandit methods as SHA+/HB+/BOHB+/ASHA+;
- :mod:`repro.experiments` — runners regenerating every table and figure.

Quickstart::

    from repro import optimize
    from repro.datasets import load_dataset
    from repro.experiments import paper_search_space

    ds = load_dataset("australian")
    outcome = optimize(ds.X_train, ds.y_train, paper_search_space(4),
                       method="sha+", metric=ds.metric, random_state=0)
    print(outcome.best_config, outcome.model.score(ds.X_test, ds.y_test))
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bandit": [
            "ASHA", "BOHB", "PASHA", "BaseSearcher", "EvaluationResult", "HyperBand",
            "RandomSearch", "SearchResult", "SuccessiveHalving", "Trial",
        ],
        ".core": [
            "GeneralSpecialFolds", "InstanceGrouping", "MLPModelFactory", "OptimizationOutcome",
            "ScoreParams", "SubsetCVEvaluator", "beta_weight", "generate_groups",
            "grouped_evaluator", "make_searcher", "optimize", "ucb_score", "vanilla_evaluator",
        ],
        ".engine": [
            "EvaluationCache", "ParallelExecutor", "SerialExecutor", "TrialEngine",
            "TrialOutcome", "TrialRequest",
        ],
        ".guard": [
            "GUARD_POLICIES", "DataReport", "GuardError", "GuardEvent", "GuardLog",
            "GuardWarning", "validate_dataset",
        ],
        ".results": ["load_result", "result_from_dict", "result_to_dict", "save_result"],
        ".space": ["Categorical", "Float", "Integer", "SearchSpace"],
        ".telemetry": ["MetricsRegistry", "Telemetry", "TraceSink", "Tracer"],
    },
)

__version__ = "1.0.0"

__all__ = [
    "ASHA",
    "BOHB",
    "PASHA",
    "BaseSearcher",
    "load_result",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "Categorical",
    "EvaluationResult",
    "Float",
    "GUARD_POLICIES",
    "DataReport",
    "GuardError",
    "GuardEvent",
    "GuardLog",
    "GuardWarning",
    "validate_dataset",
    "GeneralSpecialFolds",
    "HyperBand",
    "InstanceGrouping",
    "Integer",
    "MLPModelFactory",
    "OptimizationOutcome",
    "RandomSearch",
    "ScoreParams",
    "EvaluationCache",
    "ParallelExecutor",
    "SearchResult",
    "SearchSpace",
    "SerialExecutor",
    "SubsetCVEvaluator",
    "SuccessiveHalving",
    "Trial",
    "TrialEngine",
    "TrialOutcome",
    "TrialRequest",
    "MetricsRegistry",
    "Telemetry",
    "TraceSink",
    "Tracer",
    "beta_weight",
    "generate_groups",
    "grouped_evaluator",
    "make_searcher",
    "optimize",
    "ucb_score",
    "vanilla_evaluator",
]
