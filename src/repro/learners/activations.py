"""Activation functions for the neural-network learners.

Each activation is exposed as a pair of functions: the forward transform and
the derivative *expressed in terms of the activated output*.  Working from the
output (rather than the pre-activation) lets the backward pass avoid storing
pre-activation values, matching the classic MLP implementation trick.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "identity",
    "logistic",
    "relu",
    "softmax",
    "tanh",
    "get_activation",
]


def identity(z: np.ndarray) -> np.ndarray:
    """Return the input unchanged (used for regression output layers)."""
    return z


def _identity_derivative(activated: np.ndarray) -> np.ndarray:
    return np.ones_like(activated)


def logistic(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid ``1 / (1 + exp(-z))``.

    One branch-free pass: with ``e = exp(-|z|)`` (never overflows) the
    value is ``1 / (1 + e)`` where ``z >= 0`` and ``e / (1 + e)`` elsewhere
    — per element the arithmetic of the two-branch form, bit for bit.
    """
    z = np.asarray(z, dtype=float)
    e = np.empty_like(z)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _logistic_derivative(activated: np.ndarray) -> np.ndarray:
    return activated * (1.0 - activated)


def tanh(z: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent activation."""
    return np.tanh(z)


def _tanh_derivative(activated: np.ndarray) -> np.ndarray:
    return 1.0 - activated**2


def relu(z: np.ndarray) -> np.ndarray:
    """Rectified linear unit ``max(0, z)``."""
    return np.maximum(z, 0.0)


def _relu_derivative(activated: np.ndarray) -> np.ndarray:
    return (activated > 0).astype(float)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for numerical stability."""
    exp = np.exp(z - z.max(axis=-1, keepdims=True))
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


#: name -> (forward, derivative-from-output)
ACTIVATIONS: Dict[str, Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]] = {
    "identity": (identity, _identity_derivative),
    "logistic": (logistic, _logistic_derivative),
    "tanh": (tanh, _tanh_derivative),
    "relu": (relu, _relu_derivative),
}


def get_activation(name: str) -> Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Look up an activation pair by name.

    Parameters
    ----------
    name:
        One of ``"identity"``, ``"logistic"``, ``"tanh"`` or ``"relu"``.

    Returns
    -------
    tuple
        ``(forward, derivative)`` where ``derivative`` takes the *activated*
        output.

    Raises
    ------
    ValueError
        If ``name`` is not a known activation.
    """
    try:
        return ACTIVATIONS[name]
    except KeyError:
        known = ", ".join(sorted(ACTIVATIONS))
        raise ValueError(f"Unknown activation {name!r}; expected one of: {known}") from None
