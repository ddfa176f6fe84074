"""Property-based and failure-injection tests for the evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FOLD_FLOOR,
    MLPModelFactory,
    ScoreParams,
    SubsetCVEvaluator,
    generate_groups,
    grouped_evaluator,
    ucb_score,
    vanilla_evaluator,
)
from repro.datasets import make_classification
from repro.guard import GuardLog
from repro.learners import MLPClassifier
from tests.learners._reference_kernel import reference_fit

CONFIG = {"hidden_layer_sizes": (4,), "activation": "relu"}


def fast_factory():
    return MLPModelFactory(task="classification", max_iter=4, solver="lbfgs")


class TestEvaluatorProperties:
    @given(
        budget=st.floats(min_value=0.05, max_value=1.0),
        sampling=st.sampled_from(["random", "stratified", "grouped"]),
        folding=st.sampled_from(["random", "stratified", "grouped"]),
        seed=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_axis_combination_produces_valid_result(self, budget, sampling, folding, seed):
        X, y = make_classification(n_samples=150, n_features=5, random_state=seed)
        grouping = generate_groups(X, y, n_groups=2, random_state=seed)
        evaluator = SubsetCVEvaluator(
            X, y, fast_factory(),
            sampling=sampling, folding=folding, grouping=grouping,
            score_params=ScoreParams(),
        )
        result = evaluator.evaluate(CONFIG, budget, np.random.default_rng(seed))
        assert 0.0 <= result.mean <= 1.0
        assert result.std >= 0.0
        assert 0.0 < result.gamma <= 100.0
        assert result.n_instances <= len(y)
        assert len(result.fold_scores) == evaluator._n_folds()

    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_gamma_consistent_with_instances(self, seed):
        X, y = make_classification(n_samples=120, n_features=4, random_state=seed)
        evaluator = vanilla_evaluator(X, y, fast_factory())
        result = evaluator.evaluate(CONFIG, 0.5, np.random.default_rng(seed))
        assert result.gamma == pytest.approx(100.0 * result.n_instances / len(y))

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        budget=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=15, deadline=None)
    def test_score_bonus_proportional_to_alpha(self, alpha, budget):
        """score - mean == alpha * beta(gamma) * std exactly."""
        from repro.core import beta_weight

        X, y = make_classification(n_samples=150, n_features=5, random_state=0)
        evaluator = grouped_evaluator(
            X, y, fast_factory(), alpha=alpha, beta_max=10.0, random_state=0
        )
        result = evaluator.evaluate(CONFIG, budget, np.random.default_rng(1))
        expected = alpha * beta_weight(result.gamma, 10.0) * result.std
        assert result.score - result.mean == pytest.approx(expected, abs=1e-9)


def oracle_evaluate(evaluator, config, budget, seed, warm_states=None):
    """Fold-by-fold reference for one trial: plan, then fit through the oracle
    loop (``reference_fit``) + score per fold.

    Returns what a result must carry — ``(fold_scores, mean, std, score,
    gamma, guard events as (kind, context), per-fold (coefs, intercepts))``.
    """
    rng = np.random.default_rng(seed)
    guard = GuardLog(evaluator.guard_policy) if evaluator.guard_active else None
    subset, folds = evaluator._subset_and_folds(budget, rng, guard)
    _, models, warm_map = evaluator._plan_models(config, folds, rng, warm_states)
    fold_scores = []
    for index, (train, val) in enumerate(folds):
        model = models.get(index)
        if model is None:  # single-class training fold: constant predictor
            if guard is not None:
                guard.record("folds.single_class_train", n_train=int(len(train)))
            predictions = np.full(len(val), evaluator.y[train][0])
            fold_scores.append(float(np.mean(predictions == evaluator.y[val])))
            continue
        warm = warm_map.get(index)
        kwargs = (
            {"coefs_init": warm.coefs, "intercepts_init": warm.intercepts} if warm else {}
        )
        reference_fit(model, evaluator.X[train], evaluator.y[train], **kwargs)
        if guard is not None and model.diverged_:
            guard.record("learner.diverged")
        fold_scores.append(float(evaluator.scorer(model, evaluator.X[val], evaluator.y[val])))
    gamma = 100.0 * len(subset) / len(evaluator.y)
    mean, std = float(np.mean(fold_scores)), float(np.std(fold_scores))
    return (
        fold_scores,
        mean,
        std,
        ucb_score(mean, std, gamma, evaluator.score_params),
        gamma,
        [(e.kind, e.context) for e in guard.events] if guard else [],
        [
            (models[i].coefs_, models[i].intercepts_) if i in models else None
            for i in range(len(folds))
        ],
    )


def observed(result):
    """The same tuple, read off an :class:`EvaluationResult`."""
    checkpoints = result.fold_states
    return (
        result.fold_scores,
        result.mean,
        result.std,
        result.score,
        result.gamma,
        [(e["kind"], e.get("context", {})) for e in result.guard_events],
        [None if c is None else (c.coefs, c.intercepts) for c in checkpoints],
    )


def assert_same_trial(got, want):
    assert got[:6] == want[:6]
    assert len(got[6]) == len(want[6])
    for fold_got, fold_want in zip(got[6], want[6]):
        assert (fold_got is None) == (fold_want is None)
        if fold_got is not None:
            for arrays_got, arrays_want in zip(fold_got, fold_want):
                assert all(np.array_equal(a, b) for a, b in zip(arrays_got, arrays_want))


class FailingLbfgs(MLPClassifier):
    """An ``lbfgs`` MLP whose fit raises for every third seed.

    The ``lbfgs`` lane builds each member's L-BFGS-B run through this hook,
    so a fold fails in a lane call and in ``.fit`` alike.
    """

    def _lbfgs_run(self, x0):
        if self.random_state % 3 == 0:
            raise FloatingPointError("injected lbfgs failure")
        return super()._lbfgs_run(x0)


class FailingLbfgsFactory(MLPModelFactory):
    def __call__(self, config, random_state=None):
        return FailingLbfgs(**{**self.defaults, **config}, random_state=random_state)


class TestEvaluateManyOracle:
    """``evaluate_many`` — any width, order and partition — equals the oracle."""

    @staticmethod
    def _evaluator(make, guard, solver):
        X, y = make_classification(n_samples=140, n_features=5, random_state=3)
        factory = MLPModelFactory(task="classification", solver=solver, max_iter=5)
        kwargs = {"random_state": 1} if make is grouped_evaluator else {"n_splits": 3}
        return make(X, y, factory, guard_policy=guard, **kwargs)

    @given(
        make=st.sampled_from([vanilla_evaluator, grouped_evaluator]),
        guard=st.sampled_from([None, "repair"]),
        solver=st.sampled_from(["sgd", "adam", "lbfgs"]),
        trials=st.lists(
            st.tuples(
                st.sampled_from([(4,), (6,)]),
                st.sampled_from([1e-4, 1e-1]),
                st.sampled_from([0.3, 0.6]),
                st.integers(min_value=0, max_value=10_000),
                st.booleans(),  # warm-started from a lower-budget donor?
            ),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_width_order_and_partition_equals_per_fold_oracle(
        self, make, guard, solver, trials, data
    ):
        evaluator = self._evaluator(make, guard, solver)
        specs, expected = [], []
        for hidden, alpha, budget, seed, warm in trials:
            config = {"hidden_layer_sizes": hidden, "alpha": alpha}
            warm_states = None
            if warm:
                donor = evaluator.evaluate(
                    config, 0.2, np.random.default_rng(seed + 1), capture_checkpoints=True
                )
                warm_states = donor.fold_states
            specs.append((config, budget, seed, warm_states))
            expected.append(oracle_evaluate(evaluator, config, budget, seed, warm_states))

        order = data.draw(st.permutations(range(len(specs))))
        cuts = data.draw(st.sets(st.integers(min_value=1, max_value=len(specs))))
        bounds = [0, *sorted(cuts - {len(specs)}), len(specs)]
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = order[lo:hi]
            results, _ = evaluator.evaluate_many(
                [
                    (config, budget, np.random.default_rng(seed), warm_states, True, None)
                    for config, budget, seed, warm_states in (specs[i] for i in chunk)
                ]
            )
            for i, result in zip(chunk, results):
                assert_same_trial(observed(result), expected[i])

    def test_lane_fit_error_degrades_a_lone_guarded_trial(self, monkeypatch):
        """``learner.batch_fallback``: once, and the scores are still the oracle's."""
        import repro.core.evaluator as evaluator_module

        real = evaluator_module.fit_mlp_trials

        def fit_then_raise(trial_jobs, warms):
            real(trial_jobs, warms)  # leave fitted state behind, like a lane dying late
            raise RuntimeError("injected lane failure")

        monkeypatch.setattr(evaluator_module, "fit_mlp_trials", fit_then_raise)
        config = {"hidden_layer_sizes": (4,)}
        guarded = self._evaluator(vanilla_evaluator, "repair", "adam")
        result = guarded.evaluate(config, 0.5, np.random.default_rng(7), capture_checkpoints=True)
        kinds = [event["kind"] for event in result.guard_events]
        assert kinds == ["learner.batch_fallback"]
        result.guard_events = []
        assert_same_trial(observed(result), oracle_evaluate(guarded, config, 0.5, 7))
        assert FOLD_FLOOR not in result.fold_scores

        # Wider calls and unguarded evaluators raise; the executor re-runs
        # each task alone, which is the case above.
        two = [(config, 0.5, np.random.default_rng(s), None, False, None) for s in (7, 8)]
        with pytest.raises(RuntimeError, match="injected lane failure"):
            guarded.evaluate_many(two)
        with pytest.raises(RuntimeError, match="injected lane failure"):
            self._evaluator(vanilla_evaluator, None, "adam").evaluate(
                config, 0.5, np.random.default_rng(7)
            )

    def test_failing_lbfgs_fold_of_a_lone_guarded_trial_records_only_its_fit_error(self):
        """Each ``lbfgs`` fold that raises floors, with one ``learner.fit_error``.

        No ``learner.batch_fallback``: that event names ``sgd`` / ``adam``
        trials, so an ``lbfgs`` trial whose lane call raises records only
        the fit errors of the folds the score phase then fits one by one.
        """

        X, y = make_classification(n_samples=140, n_features=5, random_state=3)
        factory = FailingLbfgsFactory(task="classification", solver="lbfgs", max_iter=5)
        evaluator = vanilla_evaluator(X, y, factory, n_splits=5, guard_policy="repair")
        result = evaluator.evaluate({"hidden_layer_sizes": (4,)}, 0.5, np.random.default_rng(11))
        failure = {
            "kind": "learner.fit_error",
            "detail": "fit raised FloatingPointError: injected lbfgs failure",
            "context": {"error": "FloatingPointError", "floor": FOLD_FLOOR},
        }
        events = [{key: e.get(key) for key in failure} for e in result.guard_events]
        assert events == [failure, failure]
        assert result.fold_scores.count(FOLD_FLOOR) == 2


class TestFailureInjection:
    def test_extreme_imbalance_random_folds_survive(self):
        """Random folds on 1% positives often yield single-class training
        folds; the constant-classifier fallback must keep evaluation alive."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 4))
        y = np.zeros(200, dtype=int)
        y[rng.choice(200, size=3, replace=False)] = 1
        evaluator = SubsetCVEvaluator(
            X, y, fast_factory(), sampling="random", folding="random",
            score_params=ScoreParams(use_variance=False),
        )
        for budget in (0.2, 0.5, 1.0):
            result = evaluator.evaluate(CONFIG, budget, np.random.default_rng(1))
            assert np.isfinite(result.mean)

    def test_tiny_dataset_floor_kicks_in(self):
        X, y = make_classification(n_samples=70, n_features=3, random_state=0)
        evaluator = vanilla_evaluator(X, y, fast_factory(), min_subset=40)
        result = evaluator.evaluate(CONFIG, 0.01, np.random.default_rng(0))
        assert result.n_instances == 40

    def test_model_factory_exception_propagates(self):
        """A broken configuration should surface, not be silently swallowed."""
        X, y = make_classification(n_samples=100, n_features=3, random_state=0)
        evaluator = vanilla_evaluator(X, y, fast_factory())
        with pytest.raises(ValueError):
            evaluator.evaluate({"hidden_layer_sizes": (0,)}, 0.5, np.random.default_rng(0))

    def test_grouped_evaluator_with_many_groups_small_subset(self):
        X, y = make_classification(n_samples=200, n_features=5, random_state=0)
        evaluator = grouped_evaluator(
            X, y, fast_factory(), n_groups=5, k_gen=0, k_spe=5, random_state=0
        )
        result = evaluator.evaluate(CONFIG, 0.3, np.random.default_rng(0))
        assert len(result.fold_scores) == 5

    def test_regression_grouped_with_skewed_targets(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((150, 4))
        y = np.exp(rng.standard_normal(150) * 2)  # heavy right tail
        factory = MLPModelFactory(task="regression", max_iter=4, solver="lbfgs")
        evaluator = grouped_evaluator(
            X, y, factory, metric="r2", task="regression", random_state=0
        )
        result = evaluator.evaluate(CONFIG, 0.5, np.random.default_rng(0))
        assert np.isfinite(result.score)


class TestGuardedEvaluation:
    """guard_policy threads through evaluate(): degrade, record, stay finite."""

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_single_sample_class_evaluates_and_records(self, seed):
        # One class holds a single sample: some training folds end up
        # single-class, which must fall back to the constant predictor and
        # be recorded instead of crashing.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((80, 4))
        y = np.zeros(80, dtype=int)
        y[rng.integers(80)] = 1
        evaluator = SubsetCVEvaluator(
            X, y, fast_factory(), sampling="random", folding="random",
            score_params=ScoreParams(use_variance=False),
            guard_policy="warn",
        )
        result = evaluator.evaluate(CONFIG, 1.0, np.random.default_rng(seed))
        assert np.isfinite(result.score)
        kinds = {event["kind"] for event in result.guard_events}
        assert kinds <= {"folds.single_class_train", "folds.k_shrunk"}

    @given(
        budget=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=15, deadline=None)
    def test_guard_is_a_no_op_on_clean_data(self, budget, seed):
        X, y = make_classification(n_samples=150, n_features=5, random_state=seed)
        plain = grouped_evaluator(X, y, fast_factory(), random_state=seed)
        guarded = grouped_evaluator(
            X, y, fast_factory(), random_state=seed, guard_policy="repair"
        )
        a = plain.evaluate(CONFIG, budget, np.random.default_rng(seed))
        b = guarded.evaluate(CONFIG, budget, np.random.default_rng(seed))
        assert a.score == b.score and a.mean == b.mean and a.std == b.std
        assert b.guard_events == []

    def test_tiny_dataset_shrinks_folds_under_guard(self):
        # A 4-sample dataset cannot host the default 5 folds: without a
        # guard the splitter raises; with one, the fold count shrinks and
        # the event says so.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 3))
        y = np.array([0, 1, 0, 1])
        raising = vanilla_evaluator(X, y, fast_factory())
        with pytest.raises(ValueError):
            raising.evaluate(CONFIG, 1.0, np.random.default_rng(0))
        guarded = vanilla_evaluator(X, y, fast_factory(), guard_policy="repair")
        result = guarded.evaluate(CONFIG, 1.0, np.random.default_rng(0))
        assert np.isfinite(result.score)
        kinds = [event["kind"] for event in result.guard_events]
        assert "folds.k_shrunk" in kinds
        assert len(result.fold_scores) == 2

    def test_fit_error_floors_the_fold(self):
        class ExplodingModel:
            def fit(self, X, y):
                raise RuntimeError("injected fit failure")

        class ExplodingFactory:
            task = "classification"

            def __call__(self, config, random_state=None):
                return ExplodingModel()

        X, y = make_classification(n_samples=120, n_features=4, random_state=0)
        evaluator = SubsetCVEvaluator(
            X, y, ExplodingFactory(), sampling="random", folding="random",
            score_params=ScoreParams(use_variance=False), guard_policy="repair",
        )
        result = evaluator.evaluate(CONFIG, 0.5, np.random.default_rng(0))
        assert all(score == FOLD_FLOOR for score in result.fold_scores)
        assert np.isfinite(result.score)
        kinds = {event["kind"] for event in result.guard_events}
        assert "learner.fit_error" in kinds

    def test_guard_events_reset_between_evaluations(self):
        # The log is created fresh per evaluate(): a degraded evaluation
        # must not leak its events into the next one's result.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 3))
        y = np.array([0, 1, 0, 1])
        evaluator = vanilla_evaluator(X, y, fast_factory(), guard_policy="repair")
        first = evaluator.evaluate(CONFIG, 1.0, np.random.default_rng(0))
        second = evaluator.evaluate(CONFIG, 1.0, np.random.default_rng(1))
        shrinks = [e["kind"] for e in first.guard_events].count("folds.k_shrunk")
        assert shrinks == 1
        assert [e["kind"] for e in second.guard_events].count("folds.k_shrunk") == 1
