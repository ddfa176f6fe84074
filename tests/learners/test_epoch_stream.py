"""The shuffle stream, pinned against an oracle that does not move with it.

The lane trainer, which ``.fit`` and ``fit_mlp_trials`` both run, draws
its epoch orders through one helper, ``_epoch_orders``, eight epochs per
generator call.  These properties hold ``.fit`` and a stacked lane to
``reference_fit`` — the fit preamble driving the training loop with one
``rng.permutation(n)`` per epoch, kept verbatim in
``_reference_kernel.py`` — and state the numpy contract the block draw
rests on directly, so a numpy release that breaks it fails here and not
only in a benchmark fingerprint.  Bounded in tier-1, exhaustive under
``-m kernels``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learners import MLPClassifier, MLPRegressor
from repro.learners.batched import fit_mlp_trials
from repro.learners.mlp import _EPOCH_BLOCK, _epoch_orders

from ._reference_kernel import assert_same_bits, reference_fit
from .test_batched import make_data


class _StreamOracleClassifier(MLPClassifier):
    fit = reference_fit


class _StreamOracleRegressor(MLPRegressor):
    fit = reference_fit


ORACLES = {MLPClassifier: _StreamOracleClassifier, MLPRegressor: _StreamOracleRegressor}

# -- the numpy contract -------------------------------------------------------

CONTRACT_CASE = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.sampled_from([1, 2, 3, 7, 24, 25, 199, 200, 440, 961]),
    depth=st.integers(min_value=1, max_value=_EPOCH_BLOCK),
    width=st.integers(min_value=1, max_value=3),
)


def _check_block_is_successive_permutations(seed, n, depth, width):
    """``permuted`` rows == successive ``permutation(n)``, generator state included."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = rng.permuted(np.broadcast_to(np.arange(n), (depth, n)), axis=1)
    assert np.array_equal(rows, np.stack([twin.permutation(n) for _ in range(depth)]))
    assert rng.bit_generator.state == twin.bit_generator.state

    # The helper over a lane of generators, refilling the first ``depth``
    # epochs of a full block as both callers do: fold i's rows are its own
    # stream, and the rows past ``depth`` are left alone.
    rngs = [np.random.default_rng([seed, i]) for i in range(width)]
    twins = [np.random.default_rng([seed, i]) for i in range(width)]
    block = np.full((width, _EPOCH_BLOCK, n), -1, dtype=np.intp)
    _epoch_orders(rngs, block[:, :depth])
    assert (block[:, depth:] == -1).all()
    for i, (rng, twin) in enumerate(zip(rngs, twins)):
        assert np.array_equal(block[i, :depth], np.stack([twin.permutation(n) for _ in range(depth)]))
        assert rng.bit_generator.state == twin.bit_generator.state


# -- .fit and the lane against the per-epoch oracle ---------------------------

FIT_CASE = dict(
    cls=st.sampled_from([MLPClassifier, MLPRegressor]),
    solver_schedule=st.sampled_from([("adam", "constant"), ("sgd", "constant"), ("sgd", "adaptive")]),
    max_iter=st.sampled_from([1, 7, 8, 9, 17]),
    shuffle=st.booleans(),
    early_stopping=st.booleans(),
    # 50.0 diverges the regressor within a few epochs.
    lr_init=st.sampled_from([1e-3, 1e-2, 50.0]),
    n_iter_no_change=st.sampled_from([2, 10]),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _assert_fit_fields_same_bits(actual, expected, tag):
    for layer, (a, b) in enumerate(zip(actual.coefs_, expected.coefs_, strict=True)):
        assert_same_bits(a, b, f"{tag}: coefs layer {layer}")
    for layer, (a, b) in enumerate(zip(actual.intercepts_, expected.intercepts_, strict=True)):
        assert_same_bits(a, b, f"{tag}: intercepts layer {layer}")
    assert_same_bits(actual.loss_curve_, expected.loss_curve_, f"{tag}: loss curve")
    assert_same_bits(actual.validation_scores_, expected.validation_scores_, f"{tag}: validation")
    assert actual.n_iter_ == expected.n_iter_, f"{tag}: n_iter"
    assert actual.diverged_ == expected.diverged_, f"{tag}: diverged flag"


def _check_fit_matches_stream_oracle(
    cls, solver_schedule, max_iter, shuffle, early_stopping, lr_init, n_iter_no_change, seed
):
    """Three folds: ``.fit`` and one stacked lane == the per-epoch oracle, per fold.

    Returns the oracle fits, so callers can check what the draw exercised.
    """
    solver, schedule = solver_schedule
    kwargs = dict(
        hidden_layer_sizes=(5,),
        solver=solver,
        learning_rate=schedule,
        learning_rate_init=lr_init,
        max_iter=max_iter,
        shuffle=shuffle,
        early_stopping=early_stopping,
        n_iter_no_change=n_iter_no_change,
        batch_size=16,
    )
    X, y = make_data("reg" if cls is MLPRegressor else "bin", 90, 4, 2, seed)
    folds = [slice(f, None, 3) for f in range(3)]
    oracles = [
        ORACLES[cls](random_state=seed + f, **kwargs).fit(X[rows], y[rows])
        for f, rows in enumerate(folds)
    ]
    for f, rows in enumerate(folds):
        fitted = cls(random_state=seed + f, **kwargs).fit(X[rows], y[rows])
        _assert_fit_fields_same_bits(fitted, oracles[f], f"fold {f} .fit")
    jobs = [(cls(random_state=seed + f, **kwargs), X[rows], y[rows]) for f, rows in enumerate(folds)]
    _, stats = fit_mlp_trials([jobs])
    assert stats.batched_folds == 3
    for f, (model, _, _) in enumerate(jobs):
        _assert_fit_fields_same_bits(model, oracles[f], f"fold {f} lane")
    return oracles


class TestEpochStreamAgainstOracle:
    @given(**CONTRACT_CASE)
    @settings(max_examples=40, deadline=None)
    def test_block_is_successive_permutations(self, **case):
        _check_block_is_successive_permutations(**case)

    @given(**FIT_CASE)
    @settings(max_examples=25, deadline=None)
    def test_fit_bitwise_equal_to_per_epoch_oracle(self, **case):
        _check_fit_matches_stream_oracle(**case)

    @pytest.mark.parametrize("max_iter", [7, 8, 9, 17])
    def test_divergence_rolls_back_inside_a_block(self, max_iter):
        # A regressor at learning rate 50 blows up within the first block;
        # the rollback must restore the same snapshot the oracle copies.
        oracles = _check_fit_matches_stream_oracle(
            MLPRegressor, ("sgd", "constant"), max_iter, True, False, 50.0, 10, seed=5
        )
        assert all(model.diverged_ for model in oracles)
        assert all(1 < model.n_iter_ <= max_iter for model in oracles)

    @pytest.mark.kernels
    @given(**CONTRACT_CASE)
    @settings(max_examples=1000, deadline=None)
    def test_block_is_successive_permutations_exhaustive(self, **case):
        _check_block_is_successive_permutations(**case)

    @pytest.mark.kernels
    @given(**FIT_CASE)
    @settings(max_examples=300, deadline=None)
    def test_fit_bitwise_equal_to_per_epoch_oracle_exhaustive(self, **case):
        _check_fit_matches_stream_oracle(**case)
