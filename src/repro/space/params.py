"""Hyperparameter types for search-space definitions.

Three parameter kinds cover the paper's needs: :class:`Categorical` (the
entire Table III space is categorical), plus :class:`Integer` and
:class:`Float` for continuous extensions.  Every parameter supports random
sampling, unit-interval encoding (used by BOHB's KDE model) and — where
finite — grid enumeration.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

import numpy as np

__all__ = ["Parameter", "Categorical", "Integer", "Float"]


class Parameter:
    """Abstract hyperparameter: a named domain with sampling and encoding."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("Parameter name must be non-empty")
        self.name = name

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw one value uniformly from the domain."""
        raise NotImplementedError

    def encode(self, value: Any) -> float:
        """Map a domain value to the unit interval ``[0, 1]``."""
        raise NotImplementedError

    def decode(self, unit: float) -> Any:
        """Inverse of :meth:`encode` (rounded for discrete domains)."""
        raise NotImplementedError

    def grid_values(self) -> List[Any]:
        """All values for exhaustive enumeration, if the domain is finite."""
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        """Whether :meth:`grid_values` is available."""
        return False

    def __contains__(self, value: Any) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Categorical(Parameter):
    """Finite unordered set of choices.

    Values may be any hashable-or-list Python objects (strings, tuples,
    booleans, numbers); tuples such as ``(50, 50)`` for hidden layer sizes
    work directly.
    """

    def __init__(self, name: str, choices: Sequence[Any]) -> None:
        super().__init__(name)
        choices = list(choices)
        if not choices:
            raise ValueError(f"Categorical {name!r} needs at least one choice")
        self.choices = choices

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw one choice uniformly."""
        return self.choices[int(rng.integers(len(self.choices)))]

    def encode(self, value: Any) -> float:
        """Map a choice to its evenly spaced position in [0, 1]."""
        index = self._index(value)
        if len(self.choices) == 1:
            return 0.5
        return index / (len(self.choices) - 1)

    def decode(self, unit: float) -> Any:
        """Nearest choice for a unit-interval coordinate."""
        unit = min(max(float(unit), 0.0), 1.0)
        index = int(round(unit * (len(self.choices) - 1)))
        return self.choices[index]

    def grid_values(self) -> List[Any]:
        """All choices, in definition order."""
        return list(self.choices)

    @property
    def is_finite(self) -> bool:
        return True

    def _index(self, value: Any) -> int:
        for i, choice in enumerate(self.choices):
            if choice == value:
                return i
        raise ValueError(f"{value!r} is not a choice of parameter {self.name!r}")

    def __contains__(self, value: Any) -> bool:
        return any(choice == value for choice in self.choices)

    def __len__(self) -> int:
        return len(self.choices)

    def __repr__(self) -> str:
        return f"Categorical({self.name!r}, {self.choices!r})"


class Float(Parameter):
    """Bounded continuous parameter, optionally log-uniform."""

    def __init__(self, name: str, low: float, high: float, log: bool = False) -> None:
        super().__init__(name)
        if not low < high:
            raise ValueError(f"Float {name!r} requires low < high, got [{low}, {high}]")
        if log and low <= 0:
            raise ValueError(f"Float {name!r} with log scale requires low > 0")
        self.low = float(low)
        self.high = float(high)
        self.log = log

    def sample(self, rng: np.random.Generator) -> float:
        """Draw uniformly (log-uniformly when ``log``) from the range."""
        return self.decode(float(rng.random()))

    def encode(self, value: Any) -> float:
        """Map a value to [0, 1] (log-scaled when ``log``)."""
        value = float(value)
        if value not in self:
            raise ValueError(f"{value} outside bounds [{self.low}, {self.high}] of {self.name!r}")
        if self.log:
            return (math.log(value) - math.log(self.low)) / (math.log(self.high) - math.log(self.low))
        return (value - self.low) / (self.high - self.low)

    def decode(self, unit: float) -> float:
        """Inverse of :meth:`encode`, clipping to the bounds.

        The log-scale round trip can land an ulp outside the range at
        either end (``exp(log(1e-5))`` is below ``1e-5``), so the value
        is clamped as well as the unit; in-range values keep their bits.
        """
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log:
            value = math.exp(math.log(self.low) + unit * (math.log(self.high) - math.log(self.low)))
        else:
            value = self.low + unit * (self.high - self.low)
        return min(max(value, self.low), self.high)

    def grid_values(self, n_points: Optional[int] = None) -> List[float]:
        """Evenly spaced grid of ``n_points`` values (default 5)."""
        n_points = n_points or 5
        return [self.decode(u) for u in np.linspace(0.0, 1.0, n_points)]

    def __contains__(self, value: Any) -> bool:
        try:
            value = float(value)
        except (TypeError, ValueError):
            return False
        return self.low <= value <= self.high

    def __repr__(self) -> str:
        return f"Float({self.name!r}, {self.low}, {self.high}, log={self.log})"


class Integer(Parameter):
    """Bounded integer parameter (inclusive on both ends)."""

    def __init__(self, name: str, low: int, high: int, log: bool = False) -> None:
        super().__init__(name)
        if not low < high:
            raise ValueError(f"Integer {name!r} requires low < high, got [{low}, {high}]")
        if log and low <= 0:
            raise ValueError(f"Integer {name!r} with log scale requires low > 0")
        self.low = int(low)
        self.high = int(high)
        self.log = log

    def sample(self, rng: np.random.Generator) -> int:
        """Draw an integer uniformly (log-uniformly when ``log``)."""
        if self.log:
            return self.decode(float(rng.random()))
        return int(rng.integers(self.low, self.high + 1))

    def encode(self, value: Any) -> float:
        """Map an integer to [0, 1] (log-scaled when ``log``)."""
        value = int(value)
        if value not in self:
            raise ValueError(f"{value} outside bounds [{self.low}, {self.high}] of {self.name!r}")
        if self.log:
            return (math.log(value) - math.log(self.low)) / (math.log(self.high) - math.log(self.low))
        return (value - self.low) / (self.high - self.low)

    def decode(self, unit: float) -> int:
        """Nearest in-range integer for a unit-interval coordinate."""
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log:
            raw = math.exp(math.log(self.low) + unit * (math.log(self.high) - math.log(self.low)))
        else:
            raw = self.low + unit * (self.high - self.low)
        return int(min(max(round(raw), self.low), self.high))

    def grid_values(self) -> List[int]:
        """Every integer in the inclusive range."""
        return list(range(self.low, self.high + 1))

    @property
    def is_finite(self) -> bool:
        return True

    def __contains__(self, value: Any) -> bool:
        try:
            as_int = int(value)
        except (TypeError, ValueError):
            return False
        return as_int == value and self.low <= as_int <= self.high

    def __repr__(self) -> str:
        return f"Integer({self.name!r}, {self.low}, {self.high}, log={self.log})"
