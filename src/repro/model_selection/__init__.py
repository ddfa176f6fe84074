"""Splitting and cross-validation substrate."""

from .cross_validation import CrossValidationResult, cross_validate, fit_and_score
from .splitters import (
    KFold,
    StratifiedKFold,
    random_subsample,
    stratified_subsample,
    train_test_split,
)

__all__ = [
    "CrossValidationResult",
    "KFold",
    "StratifiedKFold",
    "cross_validate",
    "fit_and_score",
    "random_subsample",
    "stratified_subsample",
    "train_test_split",
]
