"""Bandit-based hyperparameter-optimization substrate.

Faithful implementations of the methods the paper compares: random search,
Successive Halving (SHA), HyperBand (HB), BOHB and an asynchronous ASHA.
All of them evaluate configurations through the
:class:`~repro.bandit.base.ConfigurationEvaluator` protocol — swapping in
the grouped evaluator from :mod:`repro.core` yields the paper's enhanced
SHA+/HB+/BOHB+ variants — and all of them run their evaluations on a
:class:`~repro.engine.TrialEngine` (the serial default unless one is passed).
"""

from .asha import ASHA
from .base import (
    BaseSearcher,
    ConfigurationEvaluator,
    EvaluationResult,
    SearchResult,
    Trial,
    top_k_indices,
)
from .bohb import BOHB, DensityEstimator
from .dehb import DEHB
from .hyperband import HyperBand
from .pasha import PASHA
from .random_search import RandomSearch
from .smac import SMACSearch, expected_improvement
from .successive_halving import SuccessiveHalving
from .tpe import TPESearch

__all__ = [
    "ASHA",
    "BOHB",
    "DEHB",
    "PASHA",
    "SMACSearch",
    "TPESearch",
    "expected_improvement",
    "BaseSearcher",
    "ConfigurationEvaluator",
    "DensityEstimator",
    "EvaluationResult",
    "HyperBand",
    "RandomSearch",
    "SearchResult",
    "SuccessiveHalving",
    "Trial",
    "top_k_indices",
]
