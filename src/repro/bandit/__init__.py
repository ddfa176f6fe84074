"""Bandit-based hyperparameter-optimization substrate.

Faithful implementations of the methods the paper compares: random search,
Successive Halving (SHA), HyperBand (HB), BOHB and an asynchronous ASHA.
All of them evaluate configurations through the
:class:`~repro.bandit.base.ConfigurationEvaluator` protocol — swapping in
the grouped evaluator from :mod:`repro.core` yields the paper's enhanced
SHA+/HB+/BOHB+ variants — and all of them run their evaluations on a
:class:`~repro.engine.TrialEngine` (the serial default unless one is passed).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".asha": ["ASHA"],
        ".base": [
            "BaseSearcher", "ConfigurationEvaluator", "EvaluationResult", "SearchResult",
            "Trial", "top_k_indices",
        ],
        ".bohb": ["BOHB", "DensityEstimator"],
        ".dehb": ["DEHB"],
        ".hyperband": ["HyperBand"],
        ".pasha": ["PASHA"],
        ".random_search": ["RandomSearch"],
        ".smac": ["SMACSearch", "expected_improvement"],
        ".successive_halving": ["SuccessiveHalving"],
        ".tpe": ["TPESearch"],
    },
)

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
