"""Tests for the subset-CV evaluators."""

import numpy as np
import pytest

from repro.core import (
    MLPModelFactory,
    ScoreParams,
    SubsetCVEvaluator,
    generate_groups,
    grouped_evaluator,
    make_scorer,
    vanilla_evaluator,
)
from repro.learners import MLPClassifier, MLPRegressor

CONFIG = {"hidden_layer_sizes": (8,), "activation": "relu"}


@pytest.fixture
def factory():
    return MLPModelFactory(task="classification", max_iter=10, solver="lbfgs")


class TestMakeScorer:
    def test_accuracy(self, small_classification, factory):
        X, y = small_classification
        model = factory(CONFIG, random_state=0).fit(X, y)
        scorer = make_scorer("accuracy")
        assert 0.0 <= scorer(model, X, y) <= 1.0

    def test_f1_binary_uses_positive_class(self, imbalanced_classification):
        X, y = imbalanced_classification
        model = MLPClassifier(hidden_layer_sizes=(8,), solver="lbfgs", max_iter=30, random_state=0).fit(X, y)
        scorer = make_scorer("f1")
        value = scorer(model, X, y)
        assert 0.0 <= value <= 1.0

    def test_f1_multiclass_macro(self, small_multiclass):
        X, y = small_multiclass
        model = MLPClassifier(hidden_layer_sizes=(8,), solver="lbfgs", max_iter=30, random_state=0).fit(X, y)
        assert 0.0 <= make_scorer("f1")(model, X, y) <= 1.0

    def test_r2(self, small_regression):
        X, y = small_regression
        model = MLPRegressor(hidden_layer_sizes=(8,), solver="lbfgs", max_iter=30, random_state=0).fit(X, y)
        assert make_scorer("r2")(model, X, y) <= 1.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="Unknown metric"):
            make_scorer("auc")

    def test_f1_mode_follows_the_dataset_not_the_fold(self):
        """A 3-class evaluation whose validation fold holds two classes is macro F1.

        Deciding binary vs macro from the fold's own labels scored such a
        fold as binary F1 of class 1.
        """
        from repro.metrics import f1_score

        rng = np.random.default_rng(1)
        y = np.array([0] * 28 + [1] * 28 + [2] * 4)
        X = rng.normal(size=(60, 4)) + y[:, None]
        factory = MLPModelFactory(task="classification", max_iter=20, solver="lbfgs")
        evaluator = vanilla_evaluator(X, y, factory, metric="f1", n_splits=5)
        config = {"hidden_layer_sizes": (6,)}
        result = evaluator.evaluate(config, 1.0, np.random.default_rng(3))

        # Replay the plan and fit each fold by hand.
        rng = np.random.default_rng(3)
        _, folds = evaluator._subset_and_folds(1.0, rng, None)
        _, models, _ = evaluator._plan_models(config, folds, rng, None)
        binary_would_differ = 0
        for index, (train, val) in enumerate(folds):
            predictions = models[index].fit(X[train], y[train]).predict(X[val])
            macro = f1_score(y[val], predictions, average="macro")
            assert result.fold_scores[index] == macro
            assert evaluator.scorer(models[index], X[val], y[val]) == macro
            if len(np.unique(y[val])) == 2:
                binary = f1_score(y[val], predictions, average="binary", pos_label=1)
                binary_would_differ += binary != macro
        assert binary_would_differ >= 1


class TestModelFactory:
    def test_builds_classifier(self):
        factory = MLPModelFactory(task="classification", max_iter=7)
        model = factory(CONFIG, random_state=3)
        assert isinstance(model, MLPClassifier)
        assert model.max_iter == 7
        assert model.random_state == 3

    def test_builds_regressor(self):
        factory = MLPModelFactory(task="regression")
        assert isinstance(factory(CONFIG), MLPRegressor)

    def test_config_overrides_defaults(self):
        factory = MLPModelFactory(task="classification", activation="tanh")
        model = factory({"activation": "relu"})
        assert model.activation == "relu"

    def test_invalid_task(self):
        with pytest.raises(ValueError, match="task"):
            MLPModelFactory(task="ranking")


class TestVanillaEvaluator:
    def test_result_fields(self, small_classification, factory, rng):
        X, y = small_classification
        evaluator = vanilla_evaluator(X, y, factory)
        result = evaluator.evaluate(CONFIG, 0.5, rng)
        assert 0.0 <= result.mean <= 1.0
        assert result.std >= 0.0
        assert result.score == result.mean  # vanilla metric is the mean
        assert len(result.fold_scores) == 5
        assert result.cost > 0.0

    def test_gamma_matches_subset_share(self, small_classification, factory, rng):
        X, y = small_classification
        evaluator = vanilla_evaluator(X, y, factory)
        result = evaluator.evaluate(CONFIG, 0.5, rng)
        assert result.gamma == pytest.approx(100.0 * result.n_instances / len(y))
        assert result.n_instances == pytest.approx(len(y) // 2, abs=2)

    def test_full_budget_uses_everything(self, small_classification, factory, rng):
        X, y = small_classification
        evaluator = vanilla_evaluator(X, y, factory)
        result = evaluator.evaluate(CONFIG, 1.0, rng)
        assert result.n_instances == len(y)
        assert result.gamma == pytest.approx(100.0)

    def test_min_subset_floor(self, small_classification, factory, rng):
        X, y = small_classification
        evaluator = vanilla_evaluator(X, y, factory, min_subset=50)
        result = evaluator.evaluate(CONFIG, 0.01, rng)
        assert result.n_instances >= 50

    def test_invalid_budget_fraction(self, small_classification, factory, rng):
        X, y = small_classification
        evaluator = vanilla_evaluator(X, y, factory)
        with pytest.raises(ValueError, match="budget_fraction"):
            evaluator.evaluate(CONFIG, 0.0, rng)
        with pytest.raises(ValueError, match="budget_fraction"):
            evaluator.evaluate(CONFIG, 1.5, rng)

    def test_deterministic_given_rng_state(self, small_classification, factory):
        X, y = small_classification
        evaluator = vanilla_evaluator(X, y, factory)
        a = evaluator.evaluate(CONFIG, 0.4, np.random.default_rng(9))
        b = evaluator.evaluate(CONFIG, 0.4, np.random.default_rng(9))
        assert a.fold_scores == b.fold_scores

    def test_fit_full_trains_on_everything(self, small_classification, factory):
        X, y = small_classification
        evaluator = vanilla_evaluator(X, y, factory)
        model = evaluator.fit_full(CONFIG, random_state=0)
        assert model.score(X, y) > 0.7


class TestGroupedEvaluator:
    def test_uses_ucb_score(self, small_classification, factory, rng):
        X, y = small_classification
        evaluator = grouped_evaluator(X, y, factory, random_state=0)
        result = evaluator.evaluate(CONFIG, 0.3, rng)
        assert result.score >= result.mean  # positive variance bonus
        assert len(result.fold_scores) == 5  # k_gen=3 + k_spe=2

    def test_score_bonus_shrinks_with_budget(self, small_classification, factory):
        X, y = small_classification
        evaluator = grouped_evaluator(X, y, factory, random_state=0)
        small = evaluator.evaluate(CONFIG, 0.3, np.random.default_rng(1))
        full = evaluator.evaluate(CONFIG, 1.0, np.random.default_rng(1))
        assert full.score == pytest.approx(full.mean, abs=1e-6)
        assert small.score - small.mean > full.score - full.mean - 1e-9

    def test_precomputed_grouping_reused(self, small_classification, factory, rng):
        X, y = small_classification
        grouping = generate_groups(X, y, n_groups=2, random_state=0)
        evaluator = grouped_evaluator(X, y, factory, grouping=grouping)
        assert evaluator.grouping is grouping
        result = evaluator.evaluate(CONFIG, 0.5, rng)
        assert len(result.fold_scores) == 5

    def test_regression_task(self, small_regression, rng):
        X, y = small_regression
        factory = MLPModelFactory(task="regression", max_iter=10, solver="lbfgs")
        evaluator = grouped_evaluator(X, y, factory, metric="r2", task="regression", random_state=0)
        result = evaluator.evaluate(CONFIG, 0.5, rng)
        assert np.isfinite(result.score)


class TestEvaluatorValidation:
    def test_grouped_axes_require_grouping(self, small_classification, factory):
        X, y = small_classification
        with pytest.raises(ValueError, match="grouping"):
            SubsetCVEvaluator(X, y, factory, sampling="grouped")

    def test_invalid_axis_value(self, small_classification, factory):
        X, y = small_classification
        with pytest.raises(ValueError, match="sampling"):
            SubsetCVEvaluator(X, y, factory, sampling="quantum")

    def test_length_mismatch(self, factory):
        with pytest.raises(ValueError, match="inconsistent"):
            SubsetCVEvaluator(np.ones((10, 2)), np.zeros(8), factory)

    def test_single_class_train_fold_falls_back_to_constant(self, factory, rng):
        # All-one-class data: the constant-classifier fallback must kick in
        # rather than MLP raising "at least 2 classes".
        X = np.random.default_rng(0).standard_normal((60, 3))
        y = np.zeros(60, dtype=int)
        y[:2] = 1  # 2 minority instances; random folds will often miss them
        evaluator = SubsetCVEvaluator(
            X, y, factory, sampling="random", folding="random",
            score_params=ScoreParams(use_variance=False), min_subset=30,
        )
        result = evaluator.evaluate(CONFIG, 0.5, rng)
        assert np.isfinite(result.mean)
