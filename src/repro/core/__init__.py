"""The paper's contribution: grouping, general+special folds, UCB metric.

Public surface of the enhancement described in Section III, plus the
high-level :func:`~repro.core.enhanced.optimize` entry point.
"""

from .cv import ConfigurationRanking, CrossValidationStudy
from .diagnostics import StabilityResult, compare_stability, evaluation_stability
from .enhanced import METHODS, OptimizationOutcome, grid_pool, make_searcher, optimize
from .evaluator import (
    FOLD_FLOOR,
    MLPModelFactory,
    SubsetCVEvaluator,
    grouped_evaluator,
    make_scorer,
    vanilla_evaluator,
)
from .folds import GeneralSpecialFolds
from .grouping import InstanceGrouping, generate_groups, label_categories
from .scoring import (
    ScoreParams,
    beta_curve,
    beta_weight,
    gamma_bounds,
    scores_from_folds,
    ucb_score,
)
from .search_cv import EnhancedSearchCV

__all__ = [
    "METHODS",
    "ConfigurationRanking",
    "CrossValidationStudy",
    "EnhancedSearchCV",
    "FOLD_FLOOR",
    "GeneralSpecialFolds",
    "InstanceGrouping",
    "MLPModelFactory",
    "OptimizationOutcome",
    "ScoreParams",
    "StabilityResult",
    "SubsetCVEvaluator",
    "beta_curve",
    "compare_stability",
    "evaluation_stability",
    "beta_weight",
    "gamma_bounds",
    "generate_groups",
    "grid_pool",
    "grouped_evaluator",
    "label_categories",
    "make_scorer",
    "make_searcher",
    "optimize",
    "scores_from_folds",
    "ucb_score",
    "vanilla_evaluator",
]
