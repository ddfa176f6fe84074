"""Unit and property tests for activation functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.learners.activations import (
    ACTIVATIONS,
    get_activation,
    identity,
    logistic,
    relu,
    softmax,
    tanh,
)

from ._reference_kernel import assert_same_bits
from ._reference_kernel import logistic as reference_logistic

FINITE_FLOATS = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestForward:
    def test_identity_returns_input(self):
        z = np.array([[-1.0, 0.0, 2.5]])
        np.testing.assert_array_equal(identity(z), z)

    def test_logistic_known_values(self):
        np.testing.assert_allclose(logistic(np.array([0.0])), [0.5])
        np.testing.assert_allclose(logistic(np.array([100.0])), [1.0], atol=1e-12)
        np.testing.assert_allclose(logistic(np.array([-100.0])), [0.0], atol=1e-12)

    def test_logistic_extreme_values_do_not_overflow(self):
        with np.errstate(over="raise"):
            out = logistic(np.array([-1e6, 1e6]))
        assert np.isfinite(out).all()

    def test_tanh_matches_numpy(self):
        z = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(tanh(z), np.tanh(z))

    def test_relu_clips_negatives(self):
        z = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        np.testing.assert_array_equal(relu(z), [0.0, 0.0, 0.0, 0.1, 2.0])

    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(0).standard_normal((10, 4))
        out = softmax(z)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(10))
        assert (out > 0).all()

    def test_softmax_shift_invariant(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 1000.0))


class TestDerivatives:
    @pytest.mark.parametrize("name", ["identity", "logistic", "tanh", "relu"])
    def test_derivative_matches_finite_difference(self, name):
        forward, derivative = get_activation(name)
        z = np.linspace(-2.0, 2.0, 9)
        z = z[np.abs(z) > 1e-3].reshape(1, -1)  # avoid the relu kink at exactly 0
        eps = 1e-6
        numeric = (forward(z + eps) - forward(z - eps)) / (2 * eps)
        analytic = derivative(forward(z))
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_logistic_derivative_max_at_half(self):
        _, derivative = get_activation("logistic")
        assert derivative(np.array([0.5]))[0] == pytest.approx(0.25)


class TestLookup:
    def test_registry_has_four_activations(self):
        assert set(ACTIVATIONS) == {"identity", "logistic", "tanh", "relu"}

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="Unknown activation"):
            get_activation("swish")


class TestProperties:
    @given(st.lists(FINITE_FLOATS, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_logistic_bounded(self, values):
        out = logistic(np.array(values))
        assert ((out >= 0) & (out <= 1)).all()

    @given(st.lists(FINITE_FLOATS, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_tanh_odd_function(self, values):
        z = np.array(values)
        np.testing.assert_allclose(tanh(-z), -tanh(z), atol=1e-12)

    @given(st.lists(FINITE_FLOATS, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_relu_idempotent(self, values):
        z = np.array(values)
        np.testing.assert_array_equal(relu(relu(z)), relu(z))

    @given(st.lists(st.lists(FINITE_FLOATS, min_size=2, max_size=6), min_size=1, max_size=8).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=50, deadline=None)
    def test_softmax_simplex(self, rows):
        out = softmax(np.array(rows))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(len(rows)), atol=1e-9)
        assert (out >= 0).all()


#: Any float the clamped forward pass can hand ``logistic`` (|z| <= 1e8),
#: plus the values it cannot but callers can: signed zeros, infinities,
#: subnormals and NaN.
KERNEL_FLOATS = st.one_of(
    st.floats(min_value=-1e8, max_value=1e8, allow_subnormal=True),
    st.floats(min_value=-40.0, max_value=40.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e8, -1e8]),
)
KERNEL_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9), elements=KERNEL_FLOATS
)


class TestLogisticContract:
    """``logistic`` is public API: the lean body keeps the old one's reach."""

    def test_accepts_integers_lists_scalars_and_empty(self):
        expected = [0.5, 1.0 / (1.0 + np.exp(-1.0)), np.exp(-2.0) / (1.0 + np.exp(-2.0))]
        np.testing.assert_array_equal(logistic(np.array([0, 1, -2])), expected)
        np.testing.assert_array_equal(logistic([0, 1, -2]), expected)
        assert logistic(0) == 0.5 and np.shape(logistic(np.float64(3.0))) == ()
        assert logistic(np.empty((0, 4))).shape == (0, 4)
        assert logistic(np.array([], dtype=int)).dtype == float

    def test_does_not_write_into_its_input(self):
        z = np.array([[-3.0, -0.0, 0.0, 7.5]])
        before = z.copy()
        out = logistic(z)
        assert out is not z and not np.shares_memory(out, z)
        assert_same_bits(z, before)

    def test_finite_input_raises_no_fp_warning(self):
        z = np.array([-1e308, -1e8, -745.2, -1.0, -5e-324, 0.0, 5e-324, 1.0, 745.2, 1e8, 1e308])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = logistic(z)
        assert np.isfinite(out).all() and (np.diff(out) >= 0).all()

    @given(z=KERNEL_ARRAYS)
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_the_mask_based_form(self, z):
        assert_same_bits(logistic(z), reference_logistic(z))

    @pytest.mark.kernels
    @given(z=KERNEL_ARRAYS)
    @settings(max_examples=3000, deadline=None)
    def test_bitwise_equal_to_the_mask_based_form_exhaustive(self, z):
        assert_same_bits(logistic(z), reference_logistic(z))
