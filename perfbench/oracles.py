"""Computations made apart from the program, for checking its outputs.

Nothing here imports qfsectors.  The ball oracles walk the full integer
box of upper triangles (q11, q12, q13, q22, q23, q33) with numpy and
decide det = +-1 and the norm threshold exactly in integers; the
frobenius threshold is compared as Fraction(T)**2, so a T whose float
square rounds away from an integer is still decided exactly.  The
spectral classifier decides eigenvalue ties exactly from the integer
characteristic polynomial and everything else with numpy.linalg.eigh,
and reports how many forms sit within a margin of a float threshold,
where its verdict cannot be trusted.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# distance to a float decision's threshold (log scale, or radians for
# the cap angle) below which its verdict is not trusted
WALL_MARGIN = 1e-6


def largest_below(t: float) -> int:
    """Largest integer b with b < t."""
    b = math.floor(t)
    return b - 1 if b == t else b


def det3(tri: np.ndarray) -> np.ndarray:
    """Exact determinants of (n, 6) int64 upper triangles (small entries)."""
    q11, q12, q13, q22, q23, q33 = (tri[:, i] for i in range(6))
    return (
        q11 * (q22 * q33 - q23 * q23)
        - q12 * (q12 * q33 - q23 * q13)
        + q13 * (q12 * q23 - q22 * q13)
    )


def _box_forms(diag_bound: int, off_bound: int, norm2_limit: int | None = None) -> np.ndarray:
    """Unimodular triangles in the box; with norm2_limit, only those of
    frobenius norm squared at most that.

    Walks one (q11, q12) slice at a time so memory stays at one slice,
    and skips the rows of a slice that the norm budget rules out before
    any determinant is taken.
    """
    dv = np.arange(-diag_bound, diag_bound + 1, dtype=np.int64)
    ov = np.arange(-off_bound, off_bound + 1, dtype=np.int64)
    q13, q22, q23, q33 = (
        a.ravel() for a in np.meshgrid(ov, dv, ov, dv, indexing="ij")
    )
    rest = 2 * q13 * q13 + q22 * q22 + 2 * q23 * q23 + q33 * q33
    out = []
    for q11 in dv:
        for q12 in ov:
            if norm2_limit is None:
                sel = np.arange(q13.size)
            else:
                sel = np.flatnonzero(rest <= norm2_limit - q11 * q11 - 2 * q12 * q12)
            tri = np.empty((sel.size, 6), dtype=np.int64)
            tri[:, 0] = q11
            tri[:, 1] = q12
            tri[:, 2] = q13[sel]
            tri[:, 3] = q22[sel]
            tri[:, 4] = q23[sel]
            tri[:, 5] = q33[sel]
            out.append(tri[np.abs(det3(tri)) == 1])
    return np.concatenate(out, axis=0)


def max_ball_forms(t: float) -> np.ndarray:
    """Every det +-1 form with max |entry| < t."""
    b = largest_below(t)
    return _box_forms(b, b)


def _frobenius_forms(limit: int) -> np.ndarray:
    """Every det +-1 form with integer frobenius norm squared <= limit."""
    return _box_forms(math.isqrt(limit), math.isqrt(limit // 2), limit)


def frobenius_ball_forms(t: float) -> np.ndarray:
    """Every det +-1 form with frobenius norm < t, decided exactly."""
    t2 = Fraction(t) ** 2
    cap = math.floor(t2)  # integer norm2 n < t2 iff n <= cap, or n < cap if t2 == cap
    return _frobenius_forms(cap if t2 > cap else cap - 1)


def frobenius_ball_count(t: float) -> int:
    return int(frobenius_ball_forms(t).shape[0])


def frobenius_sphere_count(k: int) -> int:
    """Forms with frobenius norm squared exactly k."""
    return int(_frobenius_forms(k).shape[0] - _frobenius_forms(k - 1).shape[0])


def matrices(tri: np.ndarray) -> np.ndarray:
    m = np.empty((tri.shape[0], 3, 3), dtype=np.float64)
    for col, (i, j) in enumerate(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))):
        m[:, i, j] = tri[:, col]
        m[:, j, i] = tri[:, col]
    return m


def tied(tri: np.ndarray) -> np.ndarray:
    """Exact test for two eigenvalues of equal absolute value.

    With characteristic polynomial x^3 - c2 x^2 + c1 x - c0, a repeated
    eigenvalue makes the discriminant vanish, and a pair r, -r makes
    c1 c2 - c0 = (r1 + r2)(r1 + r3)(r2 + r3) vanish.  Integer arithmetic
    throughout, so the verdict needs no tolerance.
    """
    q11, q12, q13, q22, q23, q33 = (tri[:, i] for i in range(6))
    c2 = q11 + q22 + q33
    c1 = q11 * q22 - q12 * q12 + q11 * q33 - q13 * q13 + q22 * q33 - q23 * q23
    c0 = det3(tri)
    a, b, c = -c2, c1, -c0
    disc = 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
    return (disc == 0) | (c1 * c2 == c0)


def classify(tri: np.ndarray, blocks: tuple[int, ...], signs, frame=None, window=None):
    """Verdicts for one sector: (members, degenerate, ambiguous).

    blocks is (1, 1, 1) with signs a tuple of +-1 per slot, or (1, 2)
    with signs (s, (p, q)).  frame is None or (kind, axis, angle) with
    kind "cap" or "anticap".  Slots follow |eigenvalue| descending.
    Degeneracy (a tie across a block boundary) is decided exactly by
    tied(); the rest from numpy.linalg.eigh.  A form is ambiguous, and
    counted in neither verdict, when a float decision it needs lies
    within WALL_MARGIN of its threshold: a gap between blocks, the cap
    angle, or the block window.
    """
    lam, vec = np.linalg.eigh(matrices(tri))
    order = np.argsort(-np.abs(lam), axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    top = np.take_along_axis(vec, order[:, None, :], axis=2)[:, :, 0]
    logs = np.log(np.abs(lam))
    g1 = logs[:, 0] - logs[:, 1]
    g2 = logs[:, 1] - logs[:, 2]
    tie = tied(tri)
    n = tri.shape[0]
    spread_ok = np.ones(n, dtype=bool)
    spread_amb = np.zeros(n, dtype=bool)
    if blocks == (1, 1, 1):
        degenerate = tie
        gap_amb = ~tie & (np.minimum(g1, g2) <= WALL_MARGIN)
        signed = np.all(np.sign(lam) == np.asarray(signs)[None, :], axis=1)
    elif blocks == (1, 2):
        # the tied pair is the one with the smaller float gap
        degenerate = tie & (g1 <= g2)
        gap_amb = ~tie & (g1 <= WALL_MARGIN)
        first, (pp, _) = signs
        signed = (np.sign(lam[:, 0]) == first) & ((lam[:, 1:] > 0).sum(axis=1) == pp)
        if window is not None:
            spread = g2 / 2.0
            spread_ok = spread <= window
            spread_amb = np.abs(spread - window) <= WALL_MARGIN
    else:
        raise ValueError("blocks must be (1, 1, 1) or (1, 2)")
    frame_ok = np.ones(n, dtype=bool)
    frame_amb = np.zeros(n, dtype=bool)
    if frame is not None:
        kind, axis, angle = frame
        axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
        theta = np.arccos(np.minimum(np.abs(top @ axis), 1.0))
        inside = theta <= angle
        frame_ok = ~inside if kind == "anticap" else inside
        frame_amb = np.abs(theta - angle) <= WALL_MARGIN
    member = ~degenerate & signed & spread_ok & frame_ok
    # a wall only matters to a form that the exact tests leave in play
    live = ~degenerate & signed
    ambiguous = gap_amb | (live & (spread_amb | (spread_ok & frame_amb)))
    return (
        int(np.count_nonzero(member & ~ambiguous)),
        int(np.count_nonzero(degenerate)),
        int(np.count_nonzero(ambiguous)),
    )


def loglog_slope(ts, values) -> float:
    """Least-squares slope of log(value) against log(T)."""
    x = np.log(np.asarray(ts, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
