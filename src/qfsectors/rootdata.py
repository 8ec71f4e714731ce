"""Restricted root data for SL_d(R) with an indefinite orthogonal involution.

Everything here is exact: multiplicities are small integers computed by
conjugating elementary matrices, and growth exponents are rational numbers
built with fractions.Fraction.  Floating point never enters.

Conventions.  A = positive diagonal matrices of determinant 1, with
log-coordinates x_1 >= ... >= x_d summing to 0.  The positive restricted
roots are a_ij(x) = x_i - x_j for i < j; the simple ones are
a_i = a_{i,i+1}.  The involution is built from J = diag(I_p, -I_q), and a
block decomposition d = dim W_1 + ... + dim W_{n+1} has interior cut points
i_k = dim W_1 + ... + dim W_k for k = 1..n (so i_n = d - dim W_{n+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class RootDatum:
    """Positive roots of sl_d with multiplicities split by the involution.

    positive_roots lists pairs (i, j) with 1 <= i < j <= d, meaning the
    functional x_i - x_j.  l_plus[(i, j)] and l_minus[(i, j)] are the
    dimensions of the (+1)- and (-1)-eigenspaces of sigma.theta on the
    root space (here each root space is a single elementary matrix, so
    the two always sum to 1).
    """

    d: int
    p: int
    q: int
    positive_roots: tuple[tuple[int, int], ...]
    l_plus: dict[tuple[int, int], int]
    l_minus: dict[tuple[int, int], int]

    @property
    def simple_roots(self) -> tuple[tuple[int, int], ...]:
        """alpha_i = a_{i,i+1} in the s_i/s_{i+1} convention, i = 1..d-1."""
        return tuple((i, i + 1) for i in range(1, self.d))

    def multiplicity(self, root: tuple[int, int]) -> tuple[int, int]:
        return self.l_plus[root], self.l_minus[root]


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

    a is an exact rational, b a positive integer.  ball is set when the
    pair came from a one-block decomposition and a is the full-space
    exponent d(d-1)/2.
    """

    a: Fraction
    b: int
    ball: bool = False

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b < 1:
            raise ValueError("need a > 0 and b >= 1")


def root_multiplicities(signs: Sequence[int]) -> tuple[
    tuple[tuple[int, int], ...],
    dict[tuple[int, int], int],
    dict[tuple[int, int], int],
]:
    """Split each root space by the involution X -> J X J, J = diag(signs).

    The root space for (i, j) is spanned by the elementary matrix E_ij,
    and J E_ij J = signs[i] signs[j] E_ij, so the eigenvalue is read off
    the sign product.  Kept explicit (rather than hard-coding the sign
    product) so the same path serves any diagonal J.
    """
    d = len(signs)
    roots = tuple((i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1))
    l_plus: dict[tuple[int, int], int] = {}
    l_minus: dict[tuple[int, int], int] = {}
    for i, j in roots:
        eig = signs[i - 1] * signs[j - 1]
        l_plus[(i, j)] = 1 if eig == 1 else 0
        l_minus[(i, j)] = 1 if eig == -1 else 0
    return roots, l_plus, l_minus


def build_root_datum(d: int, p: int, q: int) -> RootDatum:
    """Root datum for (SL_d(R), SO(d), SO(p, q)) with p + q = d, q >= 1."""
    if p < 1 or q < 1 or p + q != d:
        raise ValueError("need p >= 1, q >= 1, p + q = d")
    return datum_for_signs((1,) * p + (-1,) * q)


def datum_for_signs(signs: Sequence[int]) -> RootDatum:
    """Root datum for an arbitrary sign arrangement diag(signs).

    build_root_datum is the case with the plus block first; other
    patterns serve sectors whose signs interleave the two classes.
    """
    signs = tuple(int(s) for s in signs)
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1")
    d = len(signs)
    if d < 2:
        raise ValueError("need d >= 2")
    p = sum(1 for s in signs if s == 1)
    q = d - p
    roots, l_plus, l_minus = root_multiplicities(signs)
    return RootDatum(d=d, p=p, q=q, positive_roots=roots,
                     l_plus=l_plus, l_minus=l_minus)


def weight_coefficients(
    blocks: BlockDecomposition,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact coefficients (u_k, m_k) at each interior cut point.

    u_k is the coefficient of the simple root a_{i_k} in the restriction
    of the sum of positive roots to the block-constant subspace; m_k is
    the coefficient in the restriction of the highest weight 2 x_1 of the
    action on quadratic forms.  Closed forms: u_k = i_k (d - i_k) and
    m_k = 2 (d - i_k) / d.
    """
    cuts = blocks.cuts
    if not cuts:
        raise ValueError("one-block decomposition has no interior cuts")
    d = blocks.d
    u = tuple(Fraction(ik * (d - ik)) for ik in cuts)
    m = tuple(Fraction(2 * (d - ik), d) for ik in cuts)
    return u, m


def exponents(u: Sequence[Fraction], m: Sequence[Fraction]) -> ExponentPair:
    """a = max_k u_k / m_k, b = number of k attaining the max.  Exact."""
    if len(u) != len(m) or not u:
        raise ValueError("u and m must be equal-length and nonempty")
    if any(mk <= 0 for mk in m):
        raise ValueError("m coefficients must be positive")
    ratios = [Fraction(uk) / Fraction(mk) for uk, mk in zip(u, m)]
    a = max(ratios)
    b = sum(1 for r in ratios if r == a)
    return ExponentPair(a=a, b=b)


def predict_exponent(d: int, dims: Sequence[int]) -> ExponentPair:
    """Predicted sector growth exponents for a block decomposition of d.

    For a single block this is the ball count and the pair is
    (d(d-1)/2, 1) with the ball flag set; otherwise it is the max/argmax
    of the u/m ratio table, which works out to (d * i_n / 2, 1).
    """
    blocks = BlockDecomposition(d=d, dims=tuple(int(x) for x in dims))
    if len(blocks.dims) == 1:
        return ExponentPair(a=Fraction(d * (d - 1), 2), b=1, ball=True)
    u, m = weight_coefficients(blocks)
    return exponents(u, m)
