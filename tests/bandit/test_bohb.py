"""Tests for BOHB and its density estimator."""

import numpy as np
import pytest

from repro.bandit import BOHB, DensityEstimator
from repro.space import Categorical, SearchSpace


@pytest.fixture
def quality_space():
    return SearchSpace([Categorical("q", list(range(27)))])


class TestDensityEstimator:
    def test_pdf_positive(self, rng):
        points = rng.random((10, 3))
        kde = DensityEstimator(points)
        assert kde.pdf(rng.random(3)) > 0.0

    def test_pdf_higher_near_mass(self):
        points = np.full((20, 2), 0.2)
        kde = DensityEstimator(points)
        assert kde.pdf(np.array([0.2, 0.2])) > kde.pdf(np.array([0.9, 0.9]))

    def test_sample_within_unit_cube(self, rng):
        kde = DensityEstimator(rng.random((5, 4)))
        for _ in range(50):
            draw = kde.sample(rng)
            assert (draw >= 0).all() and (draw <= 1).all()

    def test_degenerate_dimension_handled(self, rng):
        points = np.column_stack([np.full(10, 0.5), rng.random(10)])
        kde = DensityEstimator(points)
        assert np.isfinite(kde.pdf(np.array([0.5, 0.5])))

    def test_single_point(self, rng):
        kde = DensityEstimator(np.array([[0.3, 0.7]]))
        assert np.isfinite(kde.pdf(np.array([0.3, 0.7])))
        draw = kde.sample(rng)
        assert draw.shape == (2,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DensityEstimator(np.empty((0, 2)))


class TestBohbSearch:
    def test_finds_good_config(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        result = BOHB(quality_space, evaluator, random_state=0).fit()
        assert result.best_config["q"] >= 22

    def test_observations_accumulate(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        bohb = BOHB(quality_space, evaluator, random_state=0)
        bohb.fit()
        total = sum(len(v) for v in bohb._history.values())
        assert total == len(bohb._trials)

    def test_model_based_proposals_prefer_good_region(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        bohb = BOHB(quality_space, evaluator, random_state=0, random_fraction=0.0)
        # Seed the model with observations: high q -> high score.
        rng = np.random.default_rng(0)
        bohb._reset()
        for q in range(27):
            (trial,) = bohb._evaluate_batch([{"q": q}], 1.0)
            bohb._observe(trial)
        proposals = [bohb._model_based_proposal() for _ in range(20)]
        values = [p["q"] for p in proposals if p is not None]
        assert len(values) > 0
        assert np.mean(values) > 13  # biased above the uniform mean

    def test_no_model_before_enough_observations(self, quality_space, synthetic_evaluator_factory):
        bohb = BOHB(quality_space, synthetic_evaluator_factory(lambda c: 0.5), random_state=0)
        assert bohb._model_budget() is None
        assert bohb._model_based_proposal() is None

    def test_reset_clears_observations(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        bohb = BOHB(quality_space, evaluator, random_state=0)
        bohb.fit()
        assert bohb._history
        bohb._reset()
        assert not bohb._history

    def test_deterministic_with_seed(self, quality_space):
        from tests.conftest import SyntheticEvaluator

        outcomes = []
        for _ in range(2):
            evaluator = SyntheticEvaluator(lambda c: c["q"] / 100, noise=0.05, seed=11)
            outcomes.append(BOHB(quality_space, evaluator, random_state=11).fit())
        assert outcomes[0].best_config == outcomes[1].best_config

    def test_method_name(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: 0.5, noise=0.0)
        assert BOHB(quality_space, evaluator, random_state=0).fit().method == "BOHB"


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"random_fraction": 1.5},
        {"top_n_percent": 0.0},
        {"top_n_percent": 100.0},
    ])
    def test_invalid_parameters(self, bad, quality_space, synthetic_evaluator_factory):
        with pytest.raises(ValueError):
            BOHB(quality_space, synthetic_evaluator_factory(lambda c: 0.5), **bad)
