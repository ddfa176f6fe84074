"""Tests for the SMAC-style RF-surrogate optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bandit import SMACSearch, expected_improvement
from repro.space import Categorical, Float, SearchSpace


@pytest.fixture
def quality_space():
    return SearchSpace([Categorical("q", list(range(20)))])


class TestExpectedImprovement:
    def test_zero_when_certain_and_worse(self):
        ei = expected_improvement(np.array([0.1]), np.array([0.0]), best=0.5)
        assert ei[0] == 0.0

    def test_positive_when_certain_and_better(self):
        ei = expected_improvement(np.array([0.9]), np.array([0.0]), best=0.5, xi=0.0)
        assert ei[0] == pytest.approx(0.4)

    def test_uncertainty_adds_value(self):
        certain = expected_improvement(np.array([0.5]), np.array([0.0]), best=0.5)
        uncertain = expected_improvement(np.array([0.5]), np.array([0.3]), best=0.5)
        assert uncertain[0] > certain[0]

    def test_monotone_in_mean(self):
        means = np.array([0.1, 0.3, 0.5, 0.7])
        ei = expected_improvement(means, np.full(4, 0.1), best=0.4)
        assert all(a <= b for a, b in zip(ei, ei[1:]))

    def test_non_negative(self, rng):
        ei = expected_improvement(rng.random(50), rng.random(50), best=0.5)
        assert (ei >= 0).all()


def _norm_expected_improvement(mean, std, best, xi=0.01):
    """The acquisition as it was written against ``scipy.stats.norm``."""
    from scipy.stats import norm

    improvement = mean - best - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
        return np.where(
            std > 0,
            improvement * norm.cdf(z) + std * norm.pdf(z),
            np.maximum(improvement, 0.0),
        )


#: Every float64 there is: NaN, both infinities, both zeros, subnormals.
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308])


class TestExpectedImprovementMatchesScipyNorm:
    """``ndtr`` + the written-out pdf must be ``norm.cdf``/``norm.pdf`` to the bit."""

    @staticmethod
    def _assert_same_bits(ours, reference):
        nan = np.isnan(reference)
        np.testing.assert_array_equal(np.isnan(ours), nan)
        # Bit patterns, so -0.0 != 0.0 and a one-ulp drift both fail.
        np.testing.assert_array_equal(ours[~nan].view(np.int64), reference[~nan].view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(
        data=hnp.arrays(np.float64, st.tuples(st.just(2), st.integers(1, 24)),
                        elements=st.one_of(_ANY_FLOAT, _EDGE_FLOATS)),
        best=st.one_of(_ANY_FLOAT, _EDGE_FLOATS),
        xi=st.sampled_from([0.0, 0.01, 1.0]),
    )
    def test_bitwise_on_arbitrary_floats(self, data, best, xi):
        mean, std = data
        with np.errstate(all="ignore"):
            ours = expected_improvement(mean, std, best=best, xi=xi)
            reference = _norm_expected_improvement(mean, std, best, xi)
        self._assert_same_bits(ours, reference)

    def test_bitwise_on_a_dense_normal_sample(self):
        rng = np.random.default_rng(0)
        mean, std = rng.normal(size=50_000), np.abs(rng.normal(size=50_000))
        std[::7] = 0.0
        ours = expected_improvement(mean, std, best=0.3)
        self._assert_same_bits(ours, _norm_expected_improvement(mean, std, 0.3))


class TestSmacSearch:
    def test_seeded_runs_reproduce_the_scipy_stats_era(self):
        """Trial order and incumbent recorded with ``scipy.stats.norm`` in place.

        The pool run's order is the EI arg-max at every step, so an
        acquisition that moved in the last bit somewhere shows up here.
        """
        from tests.conftest import SyntheticEvaluator

        pool_space = SearchSpace([Categorical("q", list(range(20)))])
        evaluator = SyntheticEvaluator(lambda c: c["q"] / 100, noise=0.01, seed=1)
        result = SMACSearch(pool_space, evaluator, random_state=11, n_startup=3).fit(
            configurations=pool_space.grid(), n_configurations=12
        )
        assert [t.config["q"] for t in result.trials] == [2, 3, 16, 10, 13, 15, 17, 7, 12, 18, 19, 8]
        assert result.best_config == {"q": 19}
        assert result.best_score.hex() == "0x1.855ee453c77aap-3"

        space = SearchSpace([Float("x", 0.0, 1.0), Float("y", 0.0, 1.0)])

        def objective(config):
            return -((config["x"] - 0.25) ** 2 + (config["y"] - 0.75) ** 2)

        result = SMACSearch(
            space, SyntheticEvaluator(objective, noise=0.02, seed=3), random_state=7, n_startup=4
        ).fit(n_configurations=14)
        assert [t.config["x"].hex() for t in result.trials[-3:]] == [
            "0x1.9c31108fee95ap-2", "0x1.a8ddc7d33875cp-2", "0x1.16ca795afe500p-6",
        ]
        assert result.best_config == {"x": 0.3747660989753079, "y": 0.7566193952731465}
        assert result.best_score.hex() == "-0x1.00f0280fc7f35p-6"

    def test_full_budget_sequential(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        result = SMACSearch(quality_space, evaluator, random_state=0, n_trials=8).fit()
        assert result.n_trials == 8
        assert all(t.budget_fraction == 1.0 for t in result.trials)

    def test_surrogate_phase_improves_over_startup(self):
        from tests.conftest import SyntheticEvaluator

        space = SearchSpace([Float("x", 0.0, 1.0), Float("y", 0.0, 1.0)])

        def objective(config):
            return -((config["x"] - 0.25) ** 2 + (config["y"] - 0.75) ** 2)

        startup_means, model_means = [], []
        for seed in range(5):
            evaluator = SyntheticEvaluator(objective, noise=0.0)
            result = SMACSearch(space, evaluator, random_state=seed, n_startup=5).fit(
                n_configurations=20
            )
            values = [objective(t.config) for t in result.trials]
            startup_means.append(np.mean(values[:5]))
            model_means.append(np.mean(values[5:]))
        assert np.mean(model_means) > np.mean(startup_means)

    def test_pool_mode_no_repeats(self, quality_space, synthetic_evaluator_factory):
        evaluator = synthetic_evaluator_factory(lambda c: c["q"] / 100, noise=0.0)
        pool = [{"q": i} for i in (0, 4, 8, 12, 16)]
        result = SMACSearch(quality_space, evaluator, random_state=0, n_trials=10).fit(
            configurations=pool
        )
        evaluated = [t.config["q"] for t in result.trials]
        assert len(evaluated) == len(set(evaluated)) == 5  # pool exhausted once

    def test_deterministic(self, quality_space):
        from tests.conftest import SyntheticEvaluator

        outcomes = []
        for _ in range(2):
            evaluator = SyntheticEvaluator(lambda c: c["q"] / 100, noise=0.01, seed=4)
            outcomes.append(SMACSearch(quality_space, evaluator, random_state=4, n_trials=8).fit())
        assert outcomes[0].best_config == outcomes[1].best_config

    def test_method_name_and_registration(self, quality_space, synthetic_evaluator_factory):
        from repro.core import METHODS

        evaluator = synthetic_evaluator_factory(lambda c: 0.5, noise=0.0)
        assert SMACSearch(quality_space, evaluator, random_state=0, n_trials=2).fit().method == "SMAC"
        assert "smac" in METHODS


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"n_trials": 0},
        {"n_startup": 0},
        {"n_candidates": 0},
    ])
    def test_invalid_parameters(self, bad, quality_space, synthetic_evaluator_factory):
        with pytest.raises(ValueError):
            SMACSearch(quality_space, synthetic_evaluator_factory(lambda c: 0.5), **bad)
