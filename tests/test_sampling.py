"""Seeded streams and the Haar rotation sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfsectors.sampling import derive_rng, haar_frames, random_rotation, seeded_rng


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
def test_rotation_stack_equals_single_calls(d, seed, n):
    batch_rng, single_rng = derive_rng(seed, "haar"), derive_rng(seed, "haar")
    stack = random_rotation(batch_rng, d, n)
    singles = np.stack([random_rotation(single_rng, d) for _ in range(n)])
    assert stack.shape == (n, d, d)
    assert np.array_equal(stack, singles)
    # both generators have consumed the same draws
    assert np.array_equal(batch_rng.random(4), single_rng.random(4))
    eye = np.broadcast_to(np.eye(d), stack.shape)
    assert np.allclose(stack @ np.swapaxes(stack, 1, 2), eye, atol=1e-12)
    assert np.allclose(np.linalg.det(stack), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       data=st.data())
def test_frames_of_a_subset_are_the_subset_of_frames(d, seed, n, data):
    """A row's frame does not depend on the rest of the stack, so frames
    built for some rows of a draw equal those rows of the whole draw's."""
    normals = derive_rng(seed, "haar").standard_normal((n, d, d))
    rows = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    assert np.array_equal(haar_frames(normals[rows]), haar_frames(normals)[rows])
    assert np.array_equal(haar_frames(normals), random_rotation(derive_rng(seed, "haar"), d, n))


def test_single_rotation_is_a_batch_of_one():
    q = random_rotation(derive_rng(3, "haar"), 3)
    assert q.shape == (3, 3)
    assert np.array_equal(q, random_rotation(derive_rng(3, "haar"), 3, 1)[0])


def test_streams_are_reproducible_and_distinct():
    a = derive_rng(11, "volume-mc").random(3)
    assert np.array_equal(a, derive_rng(11, "volume-mc").random(3))
    assert not np.array_equal(a, derive_rng(11, "wellrounded").random(3))
    assert not np.array_equal(a, derive_rng(12, "volume-mc").random(3))


def test_seeded_rng_is_the_one_seed_rule():
    """An integer, numpy's included, names derive_rng's stream; a
    Generator is its own stream; anything else raises."""
    want = derive_rng(7, "x", 2).random(4)
    assert np.array_equal(seeded_rng(7, "x", 2).random(4), want)
    assert np.array_equal(seeded_rng(np.int64(7), "x", 2).random(4), want)
    rng = derive_rng(7, "y")
    assert seeded_rng(rng, "x", 2) is rng
    with pytest.raises(ValueError, match="needs a seed"):
        seeded_rng(None, "x")
    for bad in (1.5, "3", np.float64(2), True):
        with pytest.raises(ValueError, match="seed must be an integer or a numpy Generator"):
            seeded_rng(bad, "x")
