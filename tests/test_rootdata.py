"""Exact block decompositions and exponents."""

import itertools
from fractions import Fraction

import pytest

from qfsectors.rootdata import (
    BlockDecomposition,
    ExponentPair,
    predict_exponent,
)
from qfsectors.volume import context_for, context_pq


def compositions(d):
    """All ordered compositions of d into >= 2 positive parts."""
    for mask in range(1, 2 ** (d - 1)):
        cuts = [i + 1 for i in range(d - 1) if (mask >> i) & 1]
        dims = []
        prev = 0
        for c in cuts + [d]:
            dims.append(c - prev)
            prev = c
        yield tuple(dims)


def brute_pair(d, dims):
    """Max/argmax of the u/m ratio table, computed from scratch."""
    cuts, acc = [], 0
    for m in dims[:-1]:
        acc += m
        cuts.append(acc)
    ratios = [
        Fraction(ik * (d - ik)) / (Fraction(2 * (d - ik), d)) for ik in cuts
    ]
    a = max(ratios)
    return a, sum(1 for r in ratios if r == a)


def test_exponent_formula_exhaustive_d2_to_d12():
    for d in range(2, 13):
        for dims in compositions(d):
            pair = predict_exponent(d, dims)
            a_brute, b_brute = brute_pair(d, dims)
            assert pair.a == a_brute and pair.b == b_brute
            # closed form: the deepest cut i_n = d - dims[-1] wins alone
            assert pair.a == Fraction(d * (d - dims[-1]), 2)
            assert pair.b == 1
            assert isinstance(pair.a, Fraction)


def test_one_block_is_the_ball_pair():
    for d in (2, 3, 5):
        pair = predict_exponent(d, (d,))
        assert pair.ball
        assert pair.a == Fraction(d * (d - 1), 2)
        assert pair.b == 1


def test_block_decomposition_validation():
    with pytest.raises(ValueError):
        BlockDecomposition(d=3, dims=(2, 2))
    with pytest.raises(ValueError):
        BlockDecomposition(d=3, dims=(3, 0))


def test_datum_shapes_and_simple_roots():
    ctx = context_pq(4, 2, 2)
    mults = {(i, j): (lp, lm) for i, j, lp, lm in ctx.free_roots()}
    assert len(mults) == 6
    # with no joined walls every wall is a cut, one per simple root (c, c + 1)
    assert tuple((c, c + 1) for c in ctx.cuts) == ((1, 2), (2, 3), (3, 4))
    assert mults[(1, 2)] == (1, 0)
    assert mults[(2, 3)] == (0, 1)
    # interleaved signs differ from the sorted p,q arrangement
    inter = {(i, j): (lp, lm) for i, j, lp, lm in context_for((1, -1, 1, -1)).free_roots()}
    assert sorted(context_for((1, -1, 1, -1)).signs) == sorted(ctx.signs)
    assert inter[(1, 2)] == (0, 1)
    assert inter[(1, 3)] == (1, 0)


def test_exponent_pair_validation():
    with pytest.raises(ValueError):
        ExponentPair(a=Fraction(0))
    with pytest.raises(TypeError):
        ExponentPair(a=Fraction(1), b=2)
    assert ExponentPair(a=Fraction(1)).b == 1


def test_from_joined_matches_both_former_rules():
    """One rule turns joined walls into blocks.  It must give the cuts the
    density context derived and the slot groups the coarse probe built."""
    for d in range(1, 6):
        walls = range(1, d)
        for r in range(d):
            for joined in itertools.combinations(walls, r):
                cuts = [i for i in walls if i not in joined]
                dims = tuple(c - prev for prev, c in zip([0] + cuts, cuts + [d]))
                groups, cur = [], [0]
                for i in walls:
                    if i in joined:
                        cur.append(i)
                    else:
                        groups.append(cur)
                        cur = [i]
                groups.append(cur)
                blocks = BlockDecomposition.from_joined(d, joined[::-1] + joined)
                assert blocks.dims == dims
                assert blocks.cuts == tuple(cuts)
                slots = [list(range(c - m, c)) for c, m in zip(cuts + [d], dims)]
                assert slots == groups
    for bad in ((0,), (3,), (1, 3)):
        with pytest.raises(ValueError, match="joined walls"):
            BlockDecomposition.from_joined(3, bad)
