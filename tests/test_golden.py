"""Golden regression pins: fixed-seed behaviour must not silently drift.

These tests pin exact, deterministic outputs of core components under a
fixed seed.  If an intentional algorithm change breaks one, update the
pinned value in the same commit and mention it in the changelog — the point
is that drift is never silent.
"""

import numpy as np
import pytest

from repro.core import beta_weight, generate_groups, ucb_score, ScoreParams
from repro.datasets import make_classification
from repro.space import Categorical, SearchSpace


class TestAnalyticPins:
    def test_beta_values(self):
        # Analytic, should never change.
        assert beta_weight(25.0, 10.0) == pytest.approx(2 * np.arctanh(0.5) + 5.0)
        assert beta_weight(75.0, 10.0) == pytest.approx(2 * np.arctanh(-0.5) + 5.0)

    def test_ucb_composition(self):
        params = ScoreParams(alpha=0.1, beta_max=10.0)
        assert ucb_score(0.8, 0.1, 50.0, params) == pytest.approx(0.85)


class TestSeededPins:
    def test_make_classification_fingerprint(self):
        X, y = make_classification(n_samples=50, n_features=6, random_state=123)
        # Pin a cheap fingerprint rather than the full array.
        assert y.sum() == 22
        assert X.sum() == pytest.approx(-60.3101, abs=0.01)

    def test_grouping_fingerprint(self):
        X, y = make_classification(n_samples=120, n_features=5, random_state=7)
        grouping = generate_groups(X, y, n_groups=3, random_state=7)
        # Pin the exact partition sizes (every group non-empty).
        assert grouping.group_sizes.tolist() == [44, 56, 20]
        assert np.bincount(grouping.group_labels, minlength=3).tolist() == [44, 56, 20]

    def test_space_sampling_fingerprint(self):
        space = SearchSpace([
            Categorical("a", [1, 2, 3, 4]),
            Categorical("b", ["x", "y"]),
        ])
        batch = space.sample_batch(4, random_state=99)
        # Stable under numpy's Generator contract for a fixed seed.
        assert batch == space.sample_batch(4, random_state=99)

    def test_sha_winner_pinned(self, synthetic_evaluator_factory):
        from repro.bandit import SuccessiveHalving

        space = SearchSpace([Categorical("q", list(range(12)))])
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 20, noise=0.02, seed=42)
        result = SuccessiveHalving(space, evaluator, random_state=42).fit()
        assert result.best_config == {"q": 11}
        assert result.n_trials == 12 + 6 + 3 + 2
