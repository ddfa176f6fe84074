"""Sampling-stability analysis (paper Proposition 1).

The paper argues group-based sampling is more stable than random sampling
with a binomial model: for a balanced two-class dataset, random sampling of
``n`` instances draws the positive count from ``Binomial(n, p)``, whereas
sampling ``n/2`` from each of two groups with positive rates ``p - eps``
and ``p + eps`` draws from the *convolution* of two half-size binomials —
whose variance is strictly smaller for any ``eps > 0`` and collapses to
zero at ``eps = p`` (each group pure).

This module computes both distributions exactly and exposes the summary
quantities the proposition compares, so the claim can be checked
numerically (see ``benchmarks/test_ext_proposition1.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "binomial_pmf",
    "grouped_sampling_pmf",
    "SamplingStability",
    "compare_sampling_stability",
]


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """PMF of the positive count under random sampling: ``Binomial(n, p)``.

    Returns an array of length ``n + 1`` over counts ``0..n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    from scipy.stats import binom

    return binom.pmf(np.arange(n + 1), n, p)


def grouped_sampling_pmf(n: int, p: float, eps: float) -> np.ndarray:
    """PMF of the positive count under two-group sampling (Proposition 1).

    ``n/2`` instances are drawn from a group with positive rate ``p - eps``
    and ``n/2`` from one with rate ``p + eps``; the total positive count is
    the convolution of the two binomials:

    ``P_our(x) = sum_i P(i; n/2, p - eps) * P(x - i; n/2, p + eps)``.

    Parameters
    ----------
    n:
        Total sample size (must be even so the groups split evenly).
    p:
        Overall positive rate.
    eps:
        Group skew in ``[0, min(p, 1 - p)]``; ``0`` reduces to random
        sampling, ``p`` (for ``p <= 0.5``) makes each group pure.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if eps < 0 or p - eps < 0 or p + eps > 1:
        raise ValueError(f"eps={eps} must keep both group rates in [0, 1]")
    half = n // 2
    return np.convolve(binomial_pmf(half, p - eps), binomial_pmf(half, p + eps))


@dataclass(frozen=True)
class SamplingStability:
    """Summary statistics of a positive-count distribution.

    Attributes
    ----------
    mean, variance:
        Moments of the positive count.
    mode_probability:
        Probability of drawing *exactly* the expected composition
        (the paper's "probability of being consistent with the overall
        distribution").
    """

    mean: float
    variance: float
    mode_probability: float

    @staticmethod
    def from_pmf(pmf: np.ndarray, expected_count: float) -> "SamplingStability":
        """Compute the summary from a PMF over counts ``0..len(pmf)-1``."""
        counts = np.arange(len(pmf))
        mean = float((counts * pmf).sum())
        variance = float(((counts - mean) ** 2 * pmf).sum())
        target = int(round(expected_count))
        mode_probability = float(pmf[target]) if 0 <= target < len(pmf) else 0.0
        return SamplingStability(mean=mean, variance=variance, mode_probability=mode_probability)


def compare_sampling_stability(n: int, p: float, eps: float) -> dict:
    """Proposition 1's comparison at one ``(n, p, eps)`` point.

    Returns
    -------
    dict
        ``{"random": SamplingStability, "grouped": SamplingStability}``.
        For ``eps = 0`` the two coincide; for ``eps > 0`` the grouped
        variance is strictly smaller (by ``n * eps**2 / 2``), and at the
        extreme ``eps = p = 0.5`` the grouped draw is deterministic.
    """
    expected = n * p
    random_stats = SamplingStability.from_pmf(binomial_pmf(n, p), expected)
    grouped_stats = SamplingStability.from_pmf(grouped_sampling_pmf(n, p, eps), expected)
    return {"random": random_stats, "grouped": grouped_stats}
