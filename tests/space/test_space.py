"""Tests for SearchSpace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import Categorical, Float, Integer, SearchSpace, config_key


@pytest.fixture
def paper_like_space():
    return SearchSpace(
        [
            Categorical("hidden_layer_sizes", [(30,), (30, 30), (40,), (40, 40), (50,), (50, 50)]),
            Categorical("activation", ["logistic", "tanh", "relu"]),
            Categorical("solver", ["lbfgs", "sgd", "adam"]),
            Categorical("learning_rate_init", [0.1, 0.05, 0.01]),
        ]
    )


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="Duplicate"):
            SearchSpace([Categorical("a", [1]), Categorical("a", [2])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SearchSpace([])

    def test_lookup_by_name(self, tiny_space):
        assert tiny_space["a"].choices == [1, 2, 3]
        with pytest.raises(KeyError, match="No parameter"):
            tiny_space["missing"]

    def test_contains_and_iter(self, tiny_space):
        assert "a" in tiny_space
        assert "z" not in tiny_space
        assert [p.name for p in tiny_space] == ["a", "b"]


class TestGrid:
    def test_paper_space_is_162_configurations(self, paper_like_space):
        assert paper_like_space.n_configurations == 162
        assert len(paper_like_space.grid()) == 162

    def test_grid_entries_unique(self, tiny_space):
        grid = tiny_space.grid()
        keys = {config_key(c) for c in grid}
        assert len(keys) == len(grid) == 6

    def test_infinite_space_cannot_enumerate(self):
        space = SearchSpace([Float("lr", 0.0, 1.0)])
        assert not space.is_finite
        assert space.n_configurations == float("inf")
        with pytest.raises(ValueError, match="infinite"):
            space.grid()


class TestSampling:
    def test_sample_is_valid(self, paper_like_space, rng):
        for _ in range(20):
            config = paper_like_space.sample(rng)
            paper_like_space.validate(config)

    def test_sample_batch_unique(self, tiny_space, rng):
        batch = tiny_space.sample_batch(6, rng=rng)
        keys = {config_key(c) for c in batch}
        assert len(keys) == 6

    def test_sample_batch_larger_than_grid_returns_grid(self, tiny_space, rng):
        batch = tiny_space.sample_batch(100, rng=rng)
        assert len(batch) == 6

    def test_sample_batch_non_unique_allows_repeats(self, rng):
        space = SearchSpace([Categorical("a", [1])])
        batch = space.sample_batch(5, rng=rng, unique=False)
        assert len(batch) == 5

    def test_sample_batch_deterministic_by_seed(self, tiny_space):
        a = tiny_space.sample_batch(4, random_state=3)
        b = tiny_space.sample_batch(4, random_state=3)
        assert a == b

    def test_invalid_n_raises(self, tiny_space):
        with pytest.raises(ValueError, match="positive"):
            tiny_space.sample_batch(0)


class TestEncoding:
    def test_encode_shape_and_range(self, paper_like_space, rng):
        config = paper_like_space.sample(rng)
        vector = paper_like_space.encode(config)
        assert vector.shape == (4,)
        assert (vector >= 0).all() and (vector <= 1).all()

    def test_decode_inverts_encode(self, paper_like_space, rng):
        for _ in range(10):
            config = paper_like_space.sample(rng)
            decoded = paper_like_space.decode(paper_like_space.encode(config))
            assert decoded == config

    def test_decode_validates_shape(self, tiny_space):
        with pytest.raises(ValueError, match="shape"):
            tiny_space.decode(np.zeros(5))

    def test_mixed_parameter_types(self, rng):
        space = SearchSpace([
            Categorical("c", ["x", "y"]),
            Integer("i", 1, 10),
            Float("f", 0.0, 2.0),
        ])
        config = space.sample(rng)
        decoded = space.decode(space.encode(config))
        assert decoded["c"] == config["c"]
        assert decoded["i"] == config["i"]
        assert decoded["f"] == pytest.approx(config["f"])

    @pytest.mark.parametrize("corner", [0.0, 1.0])
    def test_corner_proposal_of_a_log_space_validates(self, corner):
        # A model-based proposal clipped to a hypercube corner must decode
        # to a configuration the space accepts (and can encode again).
        space = SearchSpace([
            Float("alpha", 1e-5, 1e-1, log=True),
            Float("learning_rate_init", 1e-4, 1.0, log=True),
            Integer("units", 4, 64, log=True),
        ])
        config = space.decode(np.full(3, corner))
        space.validate(config)
        np.testing.assert_allclose(space.encode(config), corner, atol=1e-12)


class TestValidate:
    def test_missing_parameter(self, tiny_space):
        with pytest.raises(ValueError, match="missing"):
            tiny_space.validate({"a": 1})

    def test_unknown_parameter(self, tiny_space):
        with pytest.raises(ValueError, match="unknown"):
            tiny_space.validate({"a": 1, "b": "x", "c": 0})

    def test_invalid_value(self, tiny_space):
        with pytest.raises(ValueError, match="invalid"):
            tiny_space.validate({"a": 99, "b": "x"})


class TestSubspace:
    def test_restricts_parameters(self, paper_like_space):
        sub = paper_like_space.subspace(["activation", "solver"])
        assert sub.names == ["activation", "solver"]
        assert sub.n_configurations == 9


class TestConfigKey:
    def test_order_independent(self):
        assert config_key({"a": 1, "b": 2}) == config_key({"b": 2, "a": 1})

    def test_lists_and_tuples_equivalent(self):
        assert config_key({"h": [30, 30]}) == config_key({"h": (30, 30)})

    def test_numpy_scalars_normalized(self):
        assert config_key({"a": np.int64(3)}) == config_key({"a": 3})

    def test_distinguishes_values(self):
        assert config_key({"a": 1}) != config_key({"a": 2})

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.integers(min_value=0, max_value=9), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_key_is_hashable_and_stable(self, config):
        key = config_key(config)
        hash(key)
        assert key == config_key(dict(reversed(list(config.items()))))
