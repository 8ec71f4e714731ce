"""Generalized Cartan decomposition g = k a w h for SL_d(R).

Here k is special orthogonal, a is a positive diagonal with entries in
weakly decreasing order and product one, w is a sign interleaving
realized by a canonical signed permutation, and h preserves the
indefinite form J = diag(I_p, -I_q):  h J h.T = J, det h = 1.

The factors are computed from the congruence S = g J g.T.  Rather than
assembling S and diagonalizing it (which loses the small eigenvalues to
cancellation once cond(g)^2 u reaches the working precision), the cyclic
Jacobi rotations are applied one-sidedly to a running copy of g, and
every 2x2 subproblem is read off fresh J-weighted row products.  The
rotation sequence is the same as two-sided Jacobi on S; the accuracy is
that of the factored form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .jacobi import MAX_SWEEPS, TOL, rotation_for, slot_order

DET_TOL = 1e-9
COND_BOUND = 1e6
ORTHO_TOL = 1e-10
CHAMBER_TOL = 1e-10
FORM_TOL = 1e-8
AMBIGUITY_TOL = 1e-10


@dataclass
class CartanFactors:
    """Factors of g = k diag(a) W(w) h plus derived chamber data.

    w is the sign pattern of the |eigenvalue|-sorted slots of g J g.T
    (+1 entries come from the positive class of J).  margins[i] is
    log(a[i] / a[i+1]), always derived from a and never materially
    negative.  tie, also derived from a, marks an |eigenvalue| tie at
    the resolution of the sort (a log gap 2 margins[i] within
    AMBIGUITY_TOL), in which case the slot assignment used a documented
    tie-break and w is not stable under perturbations.
    """

    signature: tuple[int, int]
    k: np.ndarray
    a: np.ndarray
    w: tuple[int, ...]
    h: np.ndarray
    margins: np.ndarray = field(init=False)
    tie: bool = field(init=False)

    def __post_init__(self) -> None:
        logs = np.log(np.asarray(self.a, dtype=float))
        self.margins = logs[:-1] - logs[1:]
        self.tie = bool((2.0 * self.margins <= AMBIGUITY_TOL).any())

    @property
    def chamber_depth(self) -> float:
        return float(np.linalg.norm(np.log(self.a)))

    def validate(self) -> None:
        """Raise ValueError on any structural invariant violation."""
        p, q = self.signature
        d = p + q
        det_k, det_h = np.linalg.det(np.array((self.k, self.h)))
        if np.linalg.norm(self.k.T @ self.k - np.eye(d)) > ORTHO_TOL:
            raise ValueError("k is not orthogonal to tolerance")
        if det_k < 0:
            raise ValueError("k has determinant -1")
        if (np.asarray(self.margins) < -CHAMBER_TOL).any():
            raise ValueError("a is not in the closed positive chamber")
        prod = float(np.asarray(self.a, dtype=float).prod())
        if abs(prod - 1.0) > 1e-9 * max(1.0, abs(prod)):
            raise ValueError("product of the a entries is not 1")
        if sorted(self.w) != sorted((1,) * p + (-1,) * q):
            raise ValueError("sign pattern does not carry p pluses and q minuses")
        j = signature_matrix(p, q)
        if np.linalg.norm((self.h * j.diagonal()) @ self.h.T - j) > FORM_TOL:
            raise ValueError("h does not preserve the indefinite form")
        if abs(det_h - 1.0) > 1e-6:
            raise ValueError("h has determinant away from 1")


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    c: float
    subset: tuple[int, ...]
    margins: tuple[float, ...]


# unbounded caches: one entry per signature here, per valid (w, signature) below
@functools.lru_cache(maxsize=None)
def signature_matrix(p: int, q: int) -> np.ndarray:
    """J = diag(I_p, -I_q), as a shared read-only array."""
    mat = np.diag(np.array([1.0] * p + [-1.0] * q))
    mat.flags.writeable = False
    return mat


def _odd(perm) -> bool:
    """Parity of a permutation of range(len(perm)), by inversion count."""
    n = len(perm)
    return sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 == 1


def weyl_matrix(w, signature: tuple[int, int]) -> np.ndarray:
    """Canonical representative of the sign interleaving w (any sequence).

    A signed permutation P with P J P.T = diag(w), order preserving
    within each sign class, det fixed to +1 by negating the last row's
    entry when needed (this leaves P J P.T unchanged).  Shared, read-only.
    """
    return _weyl_matrix(tuple(w), tuple(signature))


@functools.lru_cache(maxsize=None)
def _weyl_matrix(w: tuple[int, ...], signature: tuple[int, int]) -> np.ndarray:
    p, q = signature
    d = p + q
    if len(w) != d or sum(1 for s in w if s == 1) != p:
        raise ValueError("sign pattern does not match the signature")
    if any(s not in (1, -1) for s in w):
        raise ValueError("sign pattern entries must be +1 or -1")
    perm = np.empty(d, dtype=int)
    next_plus, next_minus = 0, p
    for i, s in enumerate(w):
        if s == 1:
            perm[i] = next_plus
            next_plus += 1
        else:
            perm[i] = next_minus
            next_minus += 1
    mat = np.zeros((d, d))
    mat[np.arange(d), perm] = 1.0
    if _odd(perm):
        mat[d - 1, perm[d - 1]] = -1.0
    mat.flags.writeable = False
    return mat


def kah_decompose(g: np.ndarray, signature: tuple[int, int]) -> CartanFactors:
    """Decompose g in SL_d(R) as k diag(a) W(w) h.

    Requires finite entries, det(g) = 1 to DET_TOL and a condition
    number below COND_BOUND.  The slots of a follow jacobi.slot_order
    on the eigenvalues of g J g.T; an |eigenvalue| tie within
    AMBIGUITY_TOL (log scale) sets the tie flag.
    """
    g = np.asarray(g, dtype=float)
    p, q = signature
    d = p + q
    if g.shape != (d, d):
        raise ValueError("matrix shape does not match the signature")
    if p < 0 or q < 0 or d < 2:
        raise ValueError("bad signature")
    if not np.isfinite(g).all():
        raise ValueError("matrix entries must be finite")
    # written so that a NaN (an overflow in det or svd) fails them too
    det = np.linalg.det(g)
    if not abs(det - 1.0) <= DET_TOL:
        raise ValueError("determinant is not 1 to tolerance")
    sv = np.linalg.svd(g, compute_uv=False)
    if not sv[0] <= COND_BOUND * sv[-1]:
        raise ValueError("matrix condition exceeds COND_BOUND")

    # the loop runs on lists of floats: per pair visit, one fused pass
    # over the two rows costs less than the numpy calls on d-vectors; row
    # i is row i of g then row i of k^T, and zip with jsign stops at g's
    jsign = [1.0] * p + [-1.0] * q
    rows = np.concatenate((g, np.eye(d)), axis=1).tolist()  # a rotation rebinds two
    eps_floor = 16.0 * float(np.finfo(float).eps)
    converged = False
    for _ in range(MAX_SWEEPS):
        rotated = False
        for i in range(d - 1):
            for jj in range(i + 1, d):
                ri, rj = rows[i], rows[jj]
                app = apq = aqq = 0.0
                for s, x, y in zip(jsign, ri, rj):
                    sx = s * x
                    app += sx * x
                    apq += sx * y
                    aqq += s * y * y
                off = abs(apq)
                if off <= TOL * math.sqrt(abs(app * aqq)):
                    continue
                nii = njj = 0.0
                for _s, x, y in zip(jsign, ri, rj):
                    nii += x * x
                    njj += y * y
                if off <= eps_floor * (math.sqrt(nii) * math.sqrt(njj)):
                    continue
                rotated = True
                c, sn = rotation_for(app, aqq, apq)
                rows[i] = [c * x - sn * y for x, y in zip(ri, rj)]
                rows[jj] = [sn * x + c * y for x, y in zip(ri, rj)]
        if not rotated:
            converged = True
            break
    if not converged:
        raise ArithmeticError("jacobi iteration did not converge")
    lam = [math.fsum(s * x * x for s, x in zip(jsign, r)) for r in rows]

    # k is a product of rotations, det +1, until its columns are put in
    # slot order; an odd order flips the last column (and its row of g)
    order = slot_order(lam)
    rows = np.array(rows)[order]
    if _odd(order):
        rows[-1] = -rows[-1]
    k = rows[:, d:].copy().T
    lam = [lam[i] for i in order]
    svals = np.sqrt(np.abs(lam))
    w = tuple(1 if v > 0 else -1 for v in lam)

    wmat = weyl_matrix(w, signature)
    h = wmat.T @ (rows[:, :d] / svals[:, None])

    factors = CartanFactors(signature=signature, k=k, a=svals, w=w, h=h)
    factors.validate()
    return factors


def reconstruct(factors: CartanFactors) -> np.ndarray:
    """Multiply the factors back together."""
    wmat = weyl_matrix(factors.w, factors.signature)
    return factors.k @ (factors.a[:, None] * (wmat @ factors.h))


def regularity(
    factors: CartanFactors, c: float, subset=None
) -> RegularityReport:
    """Check margins against c on a subset of simple root indices (1-based)."""
    d = sum(factors.signature)
    subset = tuple(sorted(subset)) if subset is not None else tuple(range(1, d))
    if any(i < 1 or i > d - 1 for i in subset):
        raise ValueError("subset entries must be simple root indices")
    margins = tuple(float(x) for x in factors.margins)
    regular = all(margins[i - 1] >= c for i in subset)
    return RegularityReport(regular=regular, c=c, subset=subset, margins=margins)
