"""Splitting and subsampling substrate."""

from .splitters import (
    KFold,
    StratifiedKFold,
    random_subsample,
    stratified_subsample,
    train_test_split,
)

__all__ = [
    "KFold",
    "StratifiedKFold",
    "random_subsample",
    "stratified_subsample",
    "train_test_split",
]
