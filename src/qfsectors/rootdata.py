"""Block decompositions of SL_d(R)'s Cartan chamber and their exact growth exponents.

Everything here is exact: growth exponents are rational numbers built
with fractions.Fraction.  Floating point never enters.

Conventions.  A = positive diagonal matrices of determinant 1, with
log-coordinates x_1 >= ... >= x_d summing to 0.  The positive restricted
roots are a_ij(x) = x_i - x_j for i < j; the simple ones are
a_i = a_{i,i+1}.  A block decomposition d = dim W_1 + ... + dim W_{n+1}
has interior cut points i_k = dim W_1 + ... + dim W_k for k = 1..n (so
i_n = d - dim W_{n+1}).  How the involution J = diag(signs) splits each
root space, which the density needs, is read off the signs by
volume.DensityContext.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence


@dataclass(frozen=True)
class BlockDecomposition:
    """Ordered composition d = sum(dims) with at least one interior cut."""

    d: int
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(m <= 0 for m in self.dims):
            raise ValueError("block dimensions must be positive")
        if sum(self.dims) != self.d:
            raise ValueError("block dimensions must sum to d")

    @classmethod
    def from_joined(cls, d: int, joined: Sequence[int]) -> "BlockDecomposition":
        """Blocks of d slots with the listed walls joined.

        Wall i (1-based, 1..d-1) separates slots i and i+1.  A joined
        wall puts both in one block; every other wall is a cut.
        """
        joined = set(int(i) for i in joined)
        if any(i < 1 or i > d - 1 for i in joined):
            raise ValueError("joined walls must lie in 1..d-1")
        cuts = [i for i in range(1, d) if i not in joined]
        return cls(d=d, dims=tuple(c - prev for prev, c in zip([0] + cuts, cuts + [d])))

    @property
    def cuts(self) -> tuple[int, ...]:
        """Interior cut points i_1 < ... < i_n (empty for one block)."""
        acc, out = 0, []
        for m in self.dims[:-1]:
            acc += m
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class ExponentPair:
    """Growth exponent pair: N(T) ~ c T^a (log T)^(b-1).

    a is an exact rational; b is 1 for every block pattern (see
    predict_exponent).  ball is set when the pair came from a one-block
    decomposition and a is the full-space exponent d(d-1)/2.
    """

    a: Fraction
    ball: bool = False
    b: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("need a > 0")


def predict_exponent(d: int, dims: Sequence[int]) -> ExponentPair:
    """Predicted sector growth exponents for a block decomposition of d.

    For a single block this is the ball count and the pair is
    (d(d-1)/2, 1) with the ball flag set.  Otherwise a and b are the max
    and the number of maximizers of u_k / m_k over the cuts i_k, where
    u_k = i_k (d - i_k) is the coefficient of the simple root a_{i_k} in
    the restriction of the sum of positive roots to the block-constant
    subspace and m_k = 2 (d - i_k) / d its coefficient in the restriction
    of the highest weight 2 x_1 of the action on quadratic forms.  The
    ratio is d i_k / 2, which rises strictly with the cut, so the last
    cut i_n = d - dims[-1] attains the max alone: the pair is
    (d i_n / 2, 1).
    """
    blocks = BlockDecomposition(d=d, dims=tuple(int(x) for x in dims))
    if len(blocks.dims) == 1:
        return ExponentPair(a=Fraction(d * (d - 1), 2), ball=True)
    return ExponentPair(a=Fraction(d * blocks.cuts[-1], 2))
