"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rng import DEFAULT_SEED, RandomStream, open_generators, spawn_streams

#: Word boundaries of the bulk seeding pass: one- and two-word entropies.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(seed=7)
        b = RandomStream(seed=7)
        assert [a.uniform(0, 1) for _ in range(5)] == [b.uniform(0, 1) for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomStream(seed=7)
        b = RandomStream(seed=8)
        assert [a.uniform(0, 1) for _ in range(5)] != [b.uniform(0, 1) for _ in range(5)]

    def test_uniform_respects_bounds(self):
        stream = RandomStream(seed=1)
        for _ in range(100):
            value = stream.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            RandomStream(seed=1).uniform(3.0, 2.0)

    def test_uniform_array_shape(self):
        array = RandomStream(seed=1).uniform_array(0.0, 1.0, (3, 4))
        assert array.shape == (3, 4)
        assert ((array >= 0.0) & (array < 1.0)).all()

    def test_integers_range(self):
        stream = RandomStream(seed=1)
        values = {stream.integers(0, 3) for _ in range(200)}
        assert values == {0, 1, 2}

    def test_choice_from_sequence(self):
        stream = RandomStream(seed=1)
        options = ["a", "b", "c"]
        assert all(stream.choice(options) in options for _ in range(20))

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RandomStream(seed=1).choice([])

    def test_shuffle_is_permutation(self):
        stream = RandomStream(seed=1)
        items = list(range(10))
        shuffled = stream.shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(10)), "shuffle must not mutate its input"

    def test_normal_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            RandomStream(seed=1).normal(0.0, -1.0)

    def test_lognormal_is_positive(self):
        stream = RandomStream(seed=1)
        assert all(stream.lognormal(0.0, 0.5) > 0 for _ in range(50))

    def test_rejects_non_integer_seed(self):
        with pytest.raises(TypeError):
            RandomStream(seed=1.5)  # type: ignore[arg-type]

    def test_rejects_bool_seed(self):
        with pytest.raises(TypeError):
            RandomStream(seed=True)  # type: ignore[arg-type]

    def test_default_seed_constant(self):
        assert RandomStream().seed == DEFAULT_SEED


class TestSpawning:
    def test_children_are_deterministic(self):
        a_children = [s.uniform(0, 1) for s in spawn_streams(5, 4)]
        b_children = [s.uniform(0, 1) for s in spawn_streams(5, 4)]
        assert a_children == b_children

    def test_children_are_independent(self):
        children = spawn_streams(5, 3)
        draws = [child.uniform(0, 1) for child in children]
        assert len(set(draws)) == 3

    def test_spawn_count_matches(self):
        assert len(spawn_streams(1, 10)) == 10
        assert spawn_streams(1, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_streams(1, -1)

    def test_spawn_advances_parent_state(self):
        parent = RandomStream(seed=3)
        first = parent.spawn().uniform(0, 1)
        second = parent.spawn().uniform(0, 1)
        assert first != second

    def test_spawn_seed_matches_spawn(self):
        """spawn_seed() must yield exactly the seeds spawn() would use."""
        parent_a = RandomStream(seed=9)
        parent_b = RandomStream(seed=9)
        for _ in range(5):
            assert RandomStream(seed=parent_a.spawn_seed()).uniform(0, 1) == (
                parent_b.spawn().uniform(0, 1)
            )

    def test_spawn_seed_and_spawn_interleave(self):
        parent_a = RandomStream(seed=4)
        parent_b = RandomStream(seed=4)
        assert parent_a.spawn_seed() == parent_b.spawn().seed
        assert parent_a.spawn().seed == parent_b.spawn_seed()


def _draws(generator: np.random.Generator) -> bytes:
    """A mix of draws that exercises every word of the PCG64 state."""
    return b"".join(
        (
            generator.lognormal(0.0, 0.03, 9).tobytes(),
            generator.integers(0, 2**63, 3).tobytes(),
            generator.random(5).tobytes(),
        )
    )


def _outcome(open_one):
    """``("draws", bytes)`` of a freshly opened generator, or the error type."""
    try:
        return "draws", _draws(open_one())
    except Exception as error:  # the exception type is what is compared
        return "error", type(error)


class TestOpenGenerators:
    @given(
        st.lists(
            st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(EDGE_SEEDS)),
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_draws_equal_random_stream(self, seeds):
        seeds = seeds + seeds[:2]  # duplicate seeds open independent streams
        generators = open_generators(seeds)
        assert len(generators) == len(seeds)
        for seed, generator in zip(seeds, generators):
            reference = RandomStream(seed=seed)
            assert generator.bit_generator.state == reference.state
            assert _draws(generator) == _draws(reference.generator)

    @pytest.mark.parametrize("count", [1, 2, 3, 13])
    def test_small_batches_with_two_word_seeds(self, count):
        """The batch sizes a Monte-Carlo chunk opens, with seeds at and
        above 2**32 (two-word entropies) mixed among one-word ones."""
        draw = np.random.default_rng(count)
        wide = draw.integers(2**32, 2**64, size=count, dtype=np.uint64)
        seeds = [2**32] + [
            int(value) if index % 2 == 0 else int(value) >> 33
            for index, value in enumerate(wide[1:])
        ]
        generators = open_generators(seeds)
        assert len(generators) == count
        for seed, generator in zip(seeds, generators):
            reference = RandomStream(seed=seed)
            assert generator.bit_generator.state == reference.state
            assert _draws(generator) == _draws(reference.generator)

    def test_edges_duplicates_and_empty(self):
        assert open_generators([]) == []
        seeds = [*EDGE_SEEDS, *EDGE_SEEDS, DEFAULT_SEED]
        generators = open_generators(seeds)
        assert len({id(generator) for generator in generators}) == len(seeds)
        for seed, generator in zip(seeds, generators):
            assert _draws(generator) == _draws(RandomStream(seed=seed).generator)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**80, True, 1.5, np.uint64(7)])
    def test_other_seeds_behave_like_random_stream(self, seed):
        expected = _outcome(lambda: RandomStream(seed=seed).generator)
        assert _outcome(lambda: open_generators([seed])[0]) == expected
        # Mixed into a bulk batch, the bulk seeds around it stay exact.
        if expected[0] == "draws":
            generators = open_generators([5, seed, 2**40])
            assert _draws(generators[1]) == expected[1]
            assert _draws(generators[2]) == _draws(RandomStream(seed=2**40).generator)
