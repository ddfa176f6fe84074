"""Checkpoint capture and warm reuse through ``SubsetCVEvaluator.evaluate``.

(The any-width equivalence of the plan -> fit -> score pipeline with a
fold-by-fold oracle, warm states and captured checkpoints included, is
``TestEvaluateManyOracle`` in ``test_evaluator_properties.py``.)
"""

import numpy as np
import pytest

from repro.core import MLPModelFactory, vanilla_evaluator


@pytest.fixture(scope="module")
def data():
    r = np.random.default_rng(0)
    X = r.normal(size=(300, 8))
    y = (X[:, 0] + 0.4 * r.normal(size=300) > 0).astype(int)
    return X, y


@pytest.fixture(scope="module")
def factory():
    return MLPModelFactory(
        task="classification", hidden_layer_sizes=(8,), solver="adam", max_iter=15
    )


class TestCheckpointCaptureAndWarm:
    def test_capture_round_trip_and_warm_reuse(self, data, factory):
        X, y = data
        evaluator = vanilla_evaluator(X, y, factory)
        cold = evaluator.evaluate({}, 0.2, np.random.default_rng(9), capture_checkpoints=True)
        checkpoints = cold.fold_states
        assert checkpoints and any(c is not None for c in checkpoints)

        warm = evaluator.evaluate(
            {}, 0.4, np.random.default_rng(9), warm_states=checkpoints
        )
        cold_big = evaluator.evaluate({}, 0.4, np.random.default_rng(9))
        assert warm.fold_scores != cold_big.fold_scores  # extra training showed up

    def test_no_capture_means_no_attached_state(self, data, factory):
        X, y = data
        evaluator = vanilla_evaluator(X, y, factory)
        result = evaluator.evaluate({}, 0.2, np.random.default_rng(9))
        assert result.fold_states is None
