"""BOHB — Bayesian Optimization + HyperBand (Falkner et al., ICML 2018).

Inherits the bracket machinery from :class:`~repro.bandit.hyperband.HyperBand`
and replaces random configuration proposals with a TPE-style density-ratio
sampler: observations at the largest sufficiently-populated budget are split
into a *good* and a *bad* set, diagonal-bandwidth kernel density estimates
are fitted to each, and candidates maximising ``l(x) / g(x)`` are proposed.

Configurations are modelled in the unit hypercube through
:meth:`repro.space.SearchSpace.encode`, which handles categorical
hyperparameters uniformly.

Crash-safe resume (:meth:`~repro.bandit.base.BaseSearcher.resume`) works
for BOHB despite its model-based proposals: the sampler's randomness comes
from the searcher's own re-seeded stream and its observations are exactly
the trial results, which a journal-backed engine replays bitwise — so the
resumed run refits the same densities and proposes the same candidates as
the uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from .hyperband import ModelBasedHyperBand

__all__ = ["BOHB", "DensityEstimator", "density_ratio_proposal"]


class DensityEstimator:
    """Diagonal-bandwidth Gaussian KDE over unit-hypercube points.

    A tiny, dependency-free stand-in for statsmodels' multivariate KDE used
    by the reference BOHB implementation.  Bandwidths follow Scott's rule
    per dimension with a floor that keeps degenerate (constant) dimensions
    usable.
    """

    def __init__(self, points: np.ndarray, min_bandwidth: float = 1e-3) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            raise ValueError("DensityEstimator requires at least one point")
        self.points = points
        n, d = points.shape
        scott = n ** (-1.0 / (d + 4))
        spread = points.std(axis=0)
        self.bandwidths = np.maximum(spread * scott, min_bandwidth)

    def pdf(self, x: np.ndarray) -> float:
        """Density at ``x`` (unnormalised constants cancel in ratios)."""
        x = np.asarray(x, dtype=float)
        z = (x[None, :] - self.points) / self.bandwidths[None, :]
        log_kernel = -0.5 * (z**2).sum(axis=1) - np.log(self.bandwidths).sum()
        # log-sum-exp for numerical stability
        m = log_kernel.max()
        return float(np.exp(m) * np.exp(log_kernel - m).sum() / len(self.points))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one point: pick a kernel centre and add bandwidth noise."""
        centre = self.points[int(rng.integers(len(self.points)))]
        draw = centre + rng.standard_normal(centre.shape) * self.bandwidths
        return np.clip(draw, 0.0, 1.0)


def density_ratio_proposal(
    observations, top_n_percent, min_good, n_candidates, rng
) -> Optional[np.ndarray]:
    """The TPE step BOHB and TPE share: the draw that maximises ``l(x) / g(x)``.

    Splits ``(encoded config, score)`` observations into the best
    ``max(min_good, ceil(top_n_percent %))`` (at most all but one) and the
    rest, fits a :class:`DensityEstimator` to each, draws ``n_candidates``
    points from the good density and returns the one with the highest
    density ratio — or ``None`` when no good set can be formed.
    """
    points = np.array([obs[0] for obs in observations])
    scores = np.array([obs[1] for obs in observations])
    n_good = max(min_good, int(np.ceil(len(scores) * top_n_percent / 100.0)))
    n_good = min(n_good, len(scores) - 1)
    if n_good < 1:
        return None
    order = np.argsort(-scores, kind="stable")
    good = DensityEstimator(points[order[:n_good]])
    bad = DensityEstimator(points[order[n_good:]])

    best_vector, best_ratio = None, -np.inf
    for _ in range(n_candidates):
        candidate = good.sample(rng)
        ratio = good.pdf(candidate) / max(bad.pdf(candidate), 1e-32)
        if ratio > best_ratio:
            best_ratio, best_vector = ratio, candidate
    return best_vector


class BOHB(ModelBasedHyperBand):
    """HyperBand with TPE-style model-based configuration proposals.

    Parameters
    ----------
    space, evaluator, random_state, eta, min_budget_fraction:
        See :class:`~repro.bandit.hyperband.HyperBand`.
    random_fraction:
        Fraction of proposals drawn uniformly at random to keep theoretical
        HyperBand guarantees (reference default 1/3).
    top_n_percent:
        Percentile split between the "good" and "bad" observation sets.
    n_candidates:
        Candidates scored by the density ratio per model-based proposal.
    min_points_in_model:
        Observations required at a budget before its model is trusted;
        defaults to ``dim + 2``.
    """

    method_name = "BOHB"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        eta: float = 3.0,
        min_budget_fraction: float = 1.0 / 27.0,
        random_fraction: float = 1.0 / 3.0,
        top_n_percent: float = 15.0,
        n_candidates: int = 24,
        min_points_in_model: Optional[int] = None,
        engine=None,
    ) -> None:
        super().__init__(
            space, evaluator, random_state, eta=eta, min_budget_fraction=min_budget_fraction,
            engine=engine,
        )
        if not 0.0 <= random_fraction <= 1.0:
            raise ValueError(f"random_fraction must be in [0, 1], got {random_fraction}")
        if not 0.0 < top_n_percent < 100.0:
            raise ValueError(f"top_n_percent must be in (0, 100), got {top_n_percent}")
        self.random_fraction = random_fraction
        self.top_n_percent = top_n_percent
        self.n_candidates = n_candidates
        self.min_points_in_model = min_points_in_model or (len(space) + 2)

    # -- HyperBand hooks ----------------------------------------------------

    def _propose_configs(self, n: int, budget_fraction: float) -> List[Dict[str, Any]]:
        """Mix of random and density-ratio proposals."""
        proposals = []
        for _ in range(n):
            use_model = self._rng.random() >= self.random_fraction
            config = self._model_based_proposal() if use_model else None
            if config is None:
                config = self.space.sample(self._rng)
            proposals.append(config)
        return proposals

    # -- TPE model -------------------------------------------------------------

    def _model_budget(self) -> Optional[float]:
        """Largest budget whose observation count supports a model."""
        eligible = [
            budget
            for budget, obs in self._history.items()
            if len(obs) >= self.min_points_in_model + 2
        ]
        return max(eligible) if eligible else None

    def _model_based_proposal(self) -> Optional[Dict[str, Any]]:
        budget = self._model_budget()
        if budget is None:
            return None
        vector = density_ratio_proposal(
            self._history[budget], self.top_n_percent, self.min_points_in_model,
            self.n_candidates, self._rng,
        )
        return None if vector is None else self.space.decode(vector)
