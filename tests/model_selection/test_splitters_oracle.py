"""The vectorised splitters against their per-sample loops.

Each case draws labels (or groups), runs the library splitter and the
verbatim loop in ``_reference_splitters.py`` from equal generators, and
requires the same index arrays (values and dtype) and the same generator
state afterwards — so every rng draw downstream is unchanged too.
Bounded in tier-1; the ``kernels`` tier runs the same checks exhaustively.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import _label_index
from repro.core.folds import GeneralSpecialFolds
from repro.model_selection import StratifiedKFold, stratified_subsample

from . import _reference_splitters as reference

LABELS = dict(
    n=st.integers(min_value=2, max_value=90),
    n_labels=st.integers(min_value=1, max_value=7),
    skew=st.sampled_from([0.0, 1.0, 3.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _labels(n, n_labels, skew, seed):
    """``n`` labels over ``n_labels`` values, geometrically skewed, with gaps."""
    rng = np.random.default_rng(seed)
    weights = np.exp(-skew * np.arange(n_labels))
    return 3 * rng.choice(n_labels, size=n, p=weights / weights.sum())


def _same(got, want, tag):
    assert got.dtype == want.dtype, f"{tag}: dtype {got.dtype} != {want.dtype}"
    assert np.array_equal(got, want), f"{tag}: indices differ"


def _same_state(got, want):
    assert got.bit_generator.state == want.bit_generator.state, "generator states differ"


def _check_stratified_kfold(n, n_labels, skew, seed, n_splits, shuffle):
    y = _labels(n, n_labels, skew, seed)
    if n_splits > n:
        return
    got = list(StratifiedKFold(n_splits=n_splits, shuffle=shuffle, random_state=seed).split(y, y))
    want = list(reference.stratified_kfold_split(n_splits, shuffle, seed, y, y))
    assert len(got) == len(want)
    for fold, ((train, test), (ref_train, ref_test)) in enumerate(zip(got, want)):
        _same(train, ref_train, f"fold {fold} train")
        _same(test, ref_test, f"fold {fold} test")


def _check_stratified_subsample(n, n_labels, skew, seed, fraction, precomputed):
    labels = _labels(n, n_labels, skew, seed)
    n_select = max(1, int(round(fraction * n)))
    members = None
    if precomputed:
        # What an evaluator builds once: one stable sort of the label codes.
        _, _, members = _label_index(labels)
        for label, indices in zip(np.unique(labels), members):
            _same(indices, np.flatnonzero(labels == label), f"members of {label}")
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = stratified_subsample(labels, n_select, rng=rng, members=members)
    want = reference.stratified_subsample(labels, n_select, rng=ref_rng)
    _same(got, want, "subsample")
    _same_state(rng, ref_rng)


def _check_stratified_partition(n, n_labels, skew, seed, k, drop):
    groups = _labels(n, n_labels, skew, seed)
    positions = np.flatnonzero(np.random.default_rng(seed + 1).random(n) >= drop)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = GeneralSpecialFolds._stratified_partition(positions, groups, k, rng)
    want = reference.stratified_partition(positions, groups, k, ref_rng)
    assert len(got) == len(want) == k
    for part, (got_part, want_part) in enumerate(zip(got, want)):
        _same(got_part, want_part, f"part {part}")
    _same_state(rng, ref_rng)


KFOLD = dict(LABELS, n_splits=st.integers(min_value=2, max_value=6), shuffle=st.booleans())
SUBSAMPLE = dict(
    LABELS, fraction=st.floats(min_value=0.01, max_value=1.0), precomputed=st.booleans()
)
PARTITION = dict(
    LABELS, k=st.integers(min_value=1, max_value=6), drop=st.sampled_from([0.0, 0.5, 1.0])
)


class TestSplittersAgainstLoops:
    @given(**KFOLD)
    @settings(max_examples=60, deadline=None)
    def test_stratified_kfold(self, **case):
        _check_stratified_kfold(**case)

    @given(**SUBSAMPLE)
    @settings(max_examples=60, deadline=None)
    def test_stratified_subsample(self, **case):
        _check_stratified_subsample(**case)

    @given(**PARTITION)
    @settings(max_examples=60, deadline=None)
    def test_stratified_partition(self, **case):
        _check_stratified_partition(**case)

    @pytest.mark.kernels
    @given(**KFOLD)
    @settings(max_examples=1000, deadline=None)
    def test_stratified_kfold_exhaustive(self, **case):
        _check_stratified_kfold(**case)

    @pytest.mark.kernels
    @given(**SUBSAMPLE)
    @settings(max_examples=1000, deadline=None)
    def test_stratified_subsample_exhaustive(self, **case):
        _check_stratified_subsample(**case)

    @pytest.mark.kernels
    @given(**PARTITION)
    @settings(max_examples=1000, deadline=None)
    def test_stratified_partition_exhaustive(self, **case):
        _check_stratified_partition(**case)
