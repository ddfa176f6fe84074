"""Search-space container used by every HPO method.

A :class:`SearchSpace` holds named :class:`~repro.space.params.Parameter`
objects and provides random sampling, exhaustive grid enumeration (the paper
evaluates full grids, e.g. the 162-configuration space of Table III's first
four rows), unit-hypercube encoding for model-based samplers, and stable
configuration keys for deduplication.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .params import Parameter

__all__ = ["SearchSpace", "config_from_jsonable", "config_key", "config_to_jsonable"]


def config_key(config: Dict[str, Any]) -> Tuple:
    """Hashable, order-independent identity of a configuration dict."""

    def _freeze(value: Any):
        if isinstance(value, (list, tuple)):
            return tuple(_freeze(v) for v in value)
        if isinstance(value, np.generic):
            return value.item()
        return value

    return tuple(sorted((name, _freeze(value)) for name, value in config.items()))


def _jsonable(value: Any) -> Any:
    """Coerce config values (tuples, numpy scalars) to JSON-safe types."""
    if isinstance(value, tuple):
        return {"__tuple__": [_jsonable(v) for v in value]}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_from_jsonable(v) for v in value["__tuple__"])
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


def config_to_jsonable(config: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe copy of a configuration (tuples and numpy scalars coerced).

    The engine's run journal and the result files share this encoding, so
    a configuration round-trips identically through either.
    """
    return {key: _jsonable(value) for key, value in config.items()}


def config_from_jsonable(data: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`config_to_jsonable`."""
    return {key: _from_jsonable(value) for key, value in data.items()}


class SearchSpace:
    """Ordered collection of hyperparameters.

    Parameters
    ----------
    parameters:
        The parameter objects; their ``name`` attributes must be unique.

    Examples
    --------
    >>> from repro.space import SearchSpace, Categorical
    >>> space = SearchSpace([
    ...     Categorical("activation", ["relu", "tanh"]),
    ...     Categorical("solver", ["sgd", "adam"]),
    ... ])
    >>> space.n_configurations
    4
    >>> len(space.grid())
    4
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        parameters = list(parameters)
        if not parameters:
            raise ValueError("SearchSpace requires at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"Duplicate parameter names: {duplicates}")
        self.parameters: List[Parameter] = parameters
        self._by_name: Dict[str, Parameter] = {p.name: p for p in parameters}

    # -- introspection ------------------------------------------------------

    @property
    def names(self) -> List[str]:
        """Parameter names in definition order."""
        return [p.name for p in self.parameters]

    def __len__(self) -> int:
        return len(self.parameters)

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"No parameter named {name!r}; have {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self.parameters)

    @property
    def is_finite(self) -> bool:
        """Whether the full grid can be enumerated."""
        return all(p.is_finite for p in self.parameters)

    @property
    def n_configurations(self) -> float:
        """Grid size for finite spaces, ``inf`` otherwise."""
        if not self.is_finite:
            return float("inf")
        total = 1
        for p in self.parameters:
            total *= len(p.grid_values())
        return total

    # -- sampling and enumeration -------------------------------------------

    def sample(self, rng: Optional[np.random.Generator] = None, random_state: Optional[int] = None) -> Dict[str, Any]:
        """Draw one configuration uniformly at random."""
        if rng is None:
            rng = np.random.default_rng(random_state)
        return {p.name: p.sample(rng) for p in self.parameters}

    def sample_batch(
        self,
        n: int,
        rng: Optional[np.random.Generator] = None,
        random_state: Optional[int] = None,
        unique: bool = True,
        max_tries_factor: int = 20,
    ) -> List[Dict[str, Any]]:
        """Draw ``n`` configurations, deduplicated when ``unique``.

        For finite spaces smaller than ``n`` the full grid is returned
        (shuffled) rather than looping forever.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if rng is None:
            rng = np.random.default_rng(random_state)
        if unique and self.is_finite and self.n_configurations <= n:
            grid = self.grid()
            rng.shuffle(grid)
            return grid
        configs: List[Dict[str, Any]] = []
        seen = set()
        tries = 0
        while len(configs) < n and tries < n * max_tries_factor:
            tries += 1
            config = self.sample(rng)
            key = config_key(config)
            if unique and key in seen:
                continue
            seen.add(key)
            configs.append(config)
        return configs

    def grid(self) -> List[Dict[str, Any]]:
        """Every configuration of a finite space (cartesian product)."""
        if not self.is_finite:
            infinite = [p.name for p in self.parameters if not p.is_finite]
            raise ValueError(f"Cannot enumerate infinite parameters: {infinite}")
        value_lists = [p.grid_values() for p in self.parameters]
        return [
            dict(zip(self.names, combination))
            for combination in itertools.product(*value_lists)
        ]

    # -- encoding for model-based samplers -----------------------------------

    def encode(self, config: Dict[str, Any]) -> np.ndarray:
        """Map a configuration to a vector in the unit hypercube."""
        self.validate(config)
        return np.array([p.encode(config[p.name]) for p in self.parameters])

    def decode(self, vector: np.ndarray) -> Dict[str, Any]:
        """Map a unit-hypercube vector back to the nearest configuration."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (len(self.parameters),):
            raise ValueError(
                f"vector must have shape ({len(self.parameters)},), got {vector.shape}"
            )
        return {p.name: p.decode(v) for p, v in zip(self.parameters, vector)}

    def validate(self, config: Dict[str, Any]) -> None:
        """Raise ``ValueError`` if ``config`` does not match this space."""
        missing = [name for name in self.names if name not in config]
        if missing:
            raise ValueError(f"Configuration missing parameters: {missing}")
        extra = [name for name in config if name not in self._by_name]
        if extra:
            raise ValueError(f"Configuration has unknown parameters: {extra}")
        for p in self.parameters:
            if config[p.name] not in p:
                raise ValueError(
                    f"Value {config[p.name]!r} invalid for parameter {p.name!r}"
                )

    def subspace(self, names: Sequence[str]) -> "SearchSpace":
        """A new space restricted to the given parameter names (in order)."""
        return SearchSpace([self[name] for name in names])

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.parameters)
        return f"SearchSpace([{inner}])"
