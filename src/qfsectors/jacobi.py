"""Self-contained symmetric eigensolvers.

jacobi_eigh is a classic cyclic Jacobi iteration, accurate and fully
deterministic on small symmetric matrices.  sym3_eigvals_batch and
sym2_eigvals_batch are vectorized eigenvalue-only routines for bulk
classification of 2x2 and 3x3 forms; sym3_eigvals_batch uses the
trigonometric closed form polished by two Newton steps on the
characteristic polynomial, which restores full relative accuracy when
the matrix entries are exact integers.
"""

from __future__ import annotations

import math

import numpy as np

# stop once an off-diagonal entry is this small relative to its diagonal
# neighborhood; |S_ij| <= TOL sqrt(|S_ii S_jj|) keeps tiny eigenvalues
# meaningful where an absolute threshold would not
TOL = 1e-13
MAX_SWEEPS = 100


def rotation_for(app: float, aqq: float, apq: float) -> tuple[float, float]:
    """Cosine and sine of the Jacobi rotation zeroing the (p, q) entry."""
    tau = (aqq - app) / (2.0 * apq)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c


def slot_order(lam) -> list[int]:
    """Slot order of a spectrum: |eigenvalue| descending, a positive
    value before a negative one of the same size, then by index."""
    return sorted(
        range(len(lam)), key=lambda i: (-abs(lam[i]), 0 if lam[i] > 0 else 1, i)
    )


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns (w, v) with a = v @ diag(w) @ v.T and v orthogonal.
    Eigenvalues come out unordered; callers sort to taste.  Raises
    ArithmeticError if the sweep limit is hit, which does not happen
    for the small dimensions used here.
    """
    s = np.array(a, dtype=float)
    d = s.shape[0]
    if s.shape != (d, d):
        raise ValueError("expected a square matrix")
    if not np.allclose(s, s.T, atol=1e-12 * (1.0 + np.abs(s).max())):
        raise ValueError("expected a symmetric matrix")
    s = (s + s.T) / 2.0
    v = np.eye(d)
    eps_floor = 16.0 * np.finfo(float).eps
    for _ in range(MAX_SWEEPS):
        rotated = False
        for i in range(d - 1):
            for j in range(i + 1, d):
                apq = s[i, j]
                app, aqq = s[i, i], s[j, j]
                if abs(apq) <= max(
                    TOL * math.sqrt(abs(app * aqq)),
                    eps_floor * math.sqrt(abs(app) + abs(aqq) + abs(apq)) ** 2,
                ):
                    continue
                rotated = True
                c, sn = rotation_for(app, aqq, apq)
                gi = s[i].copy()
                s[i] = c * gi - sn * s[j]
                s[j] = sn * gi + c * s[j]
                ci = s[:, i].copy()
                s[:, i] = c * ci - sn * s[:, j]
                s[:, j] = sn * ci + c * s[:, j]
                s[i, j] = s[j, i] = 0.0
                ki = v[:, i].copy()
                v[:, i] = c * ki - sn * v[:, j]
                v[:, j] = sn * ki + c * v[:, j]
        if not rotated:
            return np.diag(s).copy(), v
    raise ArithmeticError("jacobi iteration did not converge")


def sym2_eigvals_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of symmetric 2x2 matrices, shape (n, 2),
    largest first.  half - rad would cancel, so the root of larger |value|
    is half +- rad and the other is the determinant divided by it."""
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 1]
    half = (a + c) / 2.0
    rad = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
    big = half + np.copysign(rad, half)
    small = (a * c - b * b) / np.where(big == 0.0, 1.0, big)
    return np.stack([np.maximum(big, small), np.minimum(big, small)], axis=1)


def sym3_char_poly(a00, a01, a02, a11, a12, a22):
    """Coefficients (c2, c1, c0) of the characteristic polynomial
    x^3 - c2 x^2 + c1 x - c0 of symmetric 3x3 matrices, from their upper
    triangles; c0 is the determinant.  The arithmetic keeps the entries'
    dtype, so int64 entries give exact coefficients while no product
    overflows."""
    c2 = a00 + a11 + a22
    c1 = a00 * a11 - a01 * a01 + a00 * a22 - a02 * a02 + a11 * a22 - a12 * a12
    c0 = (
        a00 * (a11 * a22 - a12 * a12)
        - a01 * (a01 * a22 - a12 * a02)
        + a02 * (a01 * a12 - a11 * a02)
    )
    return c2, c1, c0


def _sym3_closed_form(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a float stack of symmetric 3x3 matrices by the
    trigonometric closed form alone, shape (n, 3), largest first."""
    a00 = m[:, 0, 0]
    a11 = m[:, 1, 1]
    a22 = m[:, 2, 2]
    a01 = m[:, 0, 1]
    a02 = m[:, 0, 2]
    a12 = m[:, 1, 2]

    q = (a00 + a11 + a22) / 3.0
    p1 = a01 ** 2 + a02 ** 2 + a12 ** 2
    p2 = (a00 - q) ** 2 + (a11 - q) ** 2 + (a22 - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe = p > 0
    pn = np.where(safe, p, 1.0)

    b00 = (a00 - q) / pn
    b11 = (a11 - q) / pn
    b22 = (a22 - q) / pn
    b01 = a01 / pn
    b02 = a02 / pn
    b12 = a12 / pn
    detb = sym3_char_poly(b00, b01, b02, b11, b12, b22)[2]
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0

    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    eig = np.stack([e1, e2, e3], axis=1)
    eig[~safe] = q[~safe, None]
    return eig


def sym3_eigvals_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of symmetric 3x3 matrices, shape (n, 3).

    Trigonometric closed form plus two Newton steps on the characteristic
    polynomial.  The polynomial coefficients are exact whenever the
    entries are integers well inside 2**53, so the polished roots carry
    full relative accuracy even for badly scaled spectra.  A step is
    taken only where it cannot leave its own root: it must be shorter
    than half the distance to the nearest other estimate.  Near a double
    root the closed form's error can exceed the gap to the neighbouring
    root, and there a longer step lands on that root or beyond it.
    """
    m = np.asarray(mats, dtype=float)
    eig = _sym3_closed_form(m)
    i, j = np.triu_indices(3)
    c2, c1, c0 = (c[:, None] for c in sym3_char_poly(*m[:, i, j].T))

    for _ in range(2):
        f = ((eig - c2) * eig + c1) * eig - c0
        fp = (3.0 * eig - 2.0 * c2) * eig + c1
        # a double root makes fp vanish, and the closed form is fine there
        step = np.where(np.abs(fp) > 1e-30, f / np.where(fp == 0, 1.0, fp), 0.0)
        g01, g02, g12 = (np.abs(eig[:, a] - eig[:, b]) for a, b in ((0, 1), (0, 2), (1, 2)))
        nearest = np.stack([np.minimum(g01, g02), np.minimum(g01, g12), np.minimum(g02, g12)], axis=1)
        eig = eig - np.where(np.abs(step) < 0.5 * nearest, step, 0.0)
    return eig
