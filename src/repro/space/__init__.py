"""Hyperparameter search-space definitions."""

from .params import Categorical, Float, Integer, Parameter
from .space import SearchSpace, config_from_jsonable, config_key, config_to_jsonable

__all__ = [
    "Categorical",
    "Float",
    "Integer",
    "Parameter",
    "SearchSpace",
    "config_from_jsonable",
    "config_key",
    "config_to_jsonable",
]
