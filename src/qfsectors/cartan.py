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
    negative.  tie marks an |eigenvalue| tie at the resolution of the
    sort, in which case the slot assignment used a documented tie-break
    and w is not stable under perturbations.
    """

    signature: tuple[int, int]
    k: np.ndarray
    a: np.ndarray
    w: tuple[int, ...]
    h: np.ndarray
    margins: np.ndarray = field(init=False)
    tie: bool = False

    def __post_init__(self) -> None:
        logs = np.log(np.asarray(self.a, dtype=float))
        self.margins = logs[:-1] - logs[1:]

    @property
    def chamber_depth(self) -> float:
        return float(np.linalg.norm(np.log(self.a)))

    def validate(self) -> None:
        """Raise ValueError on any structural invariant violation."""
        p, q = self.signature
        d = p + q
        if np.linalg.norm(self.k.T @ self.k - np.eye(d)) > ORTHO_TOL:
            raise ValueError("k is not orthogonal to tolerance")
        if np.linalg.det(self.k) < 0:
            raise ValueError("k has determinant -1")
        if np.any(np.asarray(self.margins) < -CHAMBER_TOL):
            raise ValueError("a is not in the closed positive chamber")
        prod = float(np.prod(np.asarray(self.a, dtype=float)))
        if abs(prod - 1.0) > 1e-9 * max(1.0, abs(prod)):
            raise ValueError("product of the a entries is not 1")
        if sorted(self.w) != sorted((1,) * p + (-1,) * q):
            raise ValueError("sign pattern does not carry p pluses and q minuses")
        j = signature_matrix(p, q)
        if np.linalg.norm(self.h @ j @ self.h.T - j) > FORM_TOL:
            raise ValueError("h does not preserve the indefinite form")
        if abs(np.linalg.det(self.h) - 1.0) > 1e-6:
            raise ValueError("h has determinant away from 1")


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    c: float
    subset: tuple[int, ...]
    margins: tuple[float, ...]


def signature_matrix(p: int, q: int) -> np.ndarray:
    return np.diag(np.array([1.0] * p + [-1.0] * q))


def weyl_matrix(w: tuple[int, ...], signature: tuple[int, int]) -> np.ndarray:
    """Canonical representative of the sign interleaving w.

    A signed permutation P with P J P.T = diag(w), order preserving
    within each sign class, det fixed to +1 by negating the last row's
    entry when needed (this leaves P J P.T unchanged).
    """
    p, q = signature
    d = p + q
    if len(w) != d or sum(1 for s in w if s == 1) != p:
        raise ValueError("sign pattern does not match the signature")
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
    # parity of perm by inversion count; d stays tiny here
    inversions = sum(
        1 for i in range(d) for jj in range(i + 1, d) if perm[i] > perm[jj]
    )
    if inversions % 2 == 1:
        mat[d - 1, perm[d - 1]] = -1.0
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
    # over the two rows costs less than the numpy calls on d-vectors
    jsign = [1.0] * p + [-1.0] * q
    rows = g.tolist()  # a rotation rebinds two of them
    kt = np.eye(d).tolist()  # rows of k^T, so a rotation touches two rows
    eps_floor = 16.0 * np.finfo(float).eps
    converged = False
    for _ in range(MAX_SWEEPS):
        rotated = False
        for i in range(d - 1):
            for jj in range(i + 1, d):
                ri, rj = rows[i], rows[jj]
                app = apq = aqq = nii = njj = 0.0
                for s, x, y in zip(jsign, ri, rj):
                    sx = s * x
                    app += sx * x
                    apq += sx * y
                    aqq += s * y * y
                    nii += x * x
                    njj += y * y
                off = abs(apq)
                if off <= TOL * math.sqrt(abs(app * aqq)):
                    continue
                if off <= eps_floor * (math.sqrt(nii) * math.sqrt(njj)):
                    continue
                rotated = True
                c, sn = rotation_for(app, aqq, apq)
                rows[i] = [c * x - sn * y for x, y in zip(ri, rj)]
                rows[jj] = [sn * x + c * y for x, y in zip(ri, rj)]
                ki, kj = kt[i], kt[jj]
                kt[i] = [c * x - sn * y for x, y in zip(ki, kj)]
                kt[jj] = [sn * x + c * y for x, y in zip(ki, kj)]
        if not rotated:
            converged = True
            break
    if not converged:
        raise ArithmeticError("jacobi iteration did not converge")
    lam = [math.fsum(s * x * x for s, x in zip(jsign, r)) for r in rows]
    rows = np.array(rows)
    k = np.array(kt).T

    order = slot_order(lam)
    rows = rows[order]
    k = k[:, order]
    lam = np.array(lam)[order]
    svals = np.sqrt(np.abs(lam))
    w = tuple(1 if v > 0 else -1 for v in lam)

    logs = np.log(svals)
    gaps = 2.0 * (logs[:-1] - logs[1:])  # log |eigenvalue| gaps
    tie = bool(np.any(gaps <= AMBIGUITY_TOL))

    if np.linalg.det(k) < 0:
        k[:, -1] = -k[:, -1]
        rows[-1] = -rows[-1]

    wmat = weyl_matrix(w, signature)
    h = wmat.T @ (rows / svals[:, None])

    factors = CartanFactors(
        signature=signature, k=k, a=svals, w=w, h=h, tie=tie
    )
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
