"""Tests for hyperparameter types."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import Categorical, Float, Integer


class TestCategorical:
    def test_sample_from_choices(self, rng):
        param = Categorical("act", ["relu", "tanh"])
        for _ in range(20):
            assert param.sample(rng) in ["relu", "tanh"]

    def test_contains_tuples(self):
        param = Categorical("hidden", [(30,), (30, 30)])
        assert (30, 30) in param
        assert (40,) not in param

    def test_encode_decode_roundtrip(self):
        param = Categorical("x", ["a", "b", "c", "d"])
        for choice in param.choices:
            assert param.decode(param.encode(choice)) == choice

    def test_encode_spans_unit_interval(self):
        param = Categorical("x", [10, 20, 30])
        assert param.encode(10) == 0.0
        assert param.encode(30) == 1.0
        assert param.encode(20) == pytest.approx(0.5)

    def test_single_choice_encodes_middle(self):
        param = Categorical("x", ["only"])
        assert param.encode("only") == 0.5
        assert param.decode(0.9) == "only"

    def test_grid_values(self):
        assert Categorical("x", [1, 2]).grid_values() == [1, 2]

    def test_encode_unknown_value_raises(self):
        with pytest.raises(ValueError, match="not a choice"):
            Categorical("x", [1]).encode(2)

    def test_empty_choices_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            Categorical("x", [])

    def test_is_finite(self):
        assert Categorical("x", [1]).is_finite


class TestFloat:
    def test_sample_in_bounds(self, rng):
        param = Float("lr", 0.001, 0.1)
        for _ in range(50):
            assert 0.001 <= param.sample(rng) <= 0.1

    def test_log_scale_sampling_spread(self, rng):
        param = Float("lr", 1e-4, 1.0, log=True)
        draws = np.array([param.sample(rng) for _ in range(500)])
        # On a log scale roughly a quarter of draws land per decade.
        assert (draws < 1e-3).mean() > 0.1

    def test_encode_decode_roundtrip(self):
        param = Float("x", 2.0, 10.0)
        for value in [2.0, 5.7, 10.0]:
            assert param.decode(param.encode(value)) == pytest.approx(value)

    def test_log_encode_decode_roundtrip(self):
        param = Float("x", 0.01, 100.0, log=True)
        for value in [0.01, 1.0, 100.0]:
            assert param.decode(param.encode(value)) == pytest.approx(value)

    def test_decode_clips(self):
        param = Float("x", 0.0, 1.0)
        assert param.decode(-0.5) == 0.0
        assert param.decode(1.5) == 1.0

    @pytest.mark.parametrize("low, high", [(1e-5, 1e-1), (1e-4, 1.0), (0.01, 100.0), (3e-3, 7.0)])
    def test_log_decode_stays_in_bounds_at_the_corners(self, low, high):
        # exp(log(1e-5)) is 9.999999999999997e-06: the round trip lands an
        # ulp outside the range unless decode clamps the value.
        param = Float("alpha", low, high, log=True)
        for unit in (-1.0, 0.0, 1.0, 2.0):
            value = param.decode(unit)
            assert value in param
            assert param.decode(param.encode(value)) in param

    def test_log_decode_clamps_to_the_bounds(self):
        param = Float("alpha", 1e-5, 1e-1, log=True)
        assert param.decode(0.0) == 1e-5
        assert param.decode(1.0) == 1e-1

    def test_in_bound_decodes_keep_their_bits(self):
        param = Float("alpha", 1e-5, 1e-1, log=True)
        log_low, log_high = math.log(1e-5), math.log(1e-1)
        for unit in np.linspace(0.0, 1.0, 101)[1:-1]:
            expected = math.exp(log_low + float(unit) * (log_high - log_low))
            assert param.decode(unit) == expected

    def test_not_finite(self):
        assert not Float("x", 0.0, 1.0).is_finite

    def test_grid_values_evenly_spaced(self):
        values = Float("x", 0.0, 1.0).grid_values(3)
        np.testing.assert_allclose(values, [0.0, 0.5, 1.0])

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Float("x", 1.0, 1.0)
        with pytest.raises(ValueError):
            Float("x", -1.0, 1.0, log=True)

    def test_encode_out_of_bounds_raises(self):
        with pytest.raises(ValueError, match="outside bounds"):
            Float("x", 0.0, 1.0).encode(2.0)


class TestInteger:
    def test_sample_in_bounds(self, rng):
        param = Integer("n", 3, 9)
        draws = {param.sample(rng) for _ in range(200)}
        assert draws <= set(range(3, 10))
        assert len(draws) > 3

    def test_grid_inclusive(self):
        assert Integer("n", 2, 5).grid_values() == [2, 3, 4, 5]

    def test_encode_decode_roundtrip(self):
        param = Integer("n", 0, 10)
        for value in range(0, 11):
            assert param.decode(param.encode(value)) == value

    def test_log_scale(self):
        param = Integer("n", 1, 1024, log=True)
        assert param.decode(0.0) == 1
        assert param.decode(1.0) == 1024
        assert param.decode(0.5) == 32

    def test_contains_rejects_non_integers(self):
        param = Integer("n", 0, 5)
        assert 2 in param
        assert 2.5 not in param
        assert "2" not in param

    def test_is_finite(self):
        assert Integer("n", 0, 3).is_finite

    @given(st.integers(min_value=-50, max_value=49))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, value):
        param = Integer("n", -50, 50)
        assert param.decode(param.encode(value)) == value
