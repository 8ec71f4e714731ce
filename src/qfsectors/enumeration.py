"""Exact enumeration of integral symmetric matrices with determinant +-1.

The d=3 fast path scans the five free entries (q11, q12, q13, q22, q23)
and solves the determinant equation for q33: with

    M = q11 q22 - q12**2
    R = 2 q12 q13 q23 - q11 q23**2 - q22 q13**2

the determinant is M q33 + R, so M != 0 pins q33 to (e - R)/M per
target e, and M == 0 demands R = e with q33 sweeping its whole legal
range.  The (q13, q22, q23) block is evaluated as one integer array per
(q11, q12) cell; cells are independent, which is where the optional
thread pool parallelizes.  All arithmetic is overflow-checked: bounds
that could exceed the accumulator width raise instead of wrapping.

Supported norms: "max" (largest absolute entry) and "frobenius" (entry
2-norm of the full symmetric matrix).  Thresholds are strict: norm < T,
decided exactly on integer norm keys (the largest |entry|, or the
integer norm squared against the exact square of the float T).
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

NORMS = ("max", "frobenius")
ORBIT_STATE_BUDGET = 500_000


def resolve_threads(threads: int | None = None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("QFSECTORS_THREADS")
    return max(1, int(env)) if env else 1


def entry_bound(t: float) -> int:
    """Largest integer b with b < t (entries satisfy |q| <= b)."""
    c = math.ceil(t)
    return int(c) - 1 if c == t else int(math.floor(t))


def key_limit(t: float, norm: str) -> int:
    """Largest integer norm key inside the strict ball norm < T.

    The max norm's key is the largest |entry|; the frobenius key is the
    integer norm squared, compared with the exact square of the float T
    (T = sqrt(k) rounds either side of sqrt(k), and so does T*T).
    """
    if norm == "max":
        return entry_bound(t)
    return math.ceil(Fraction(t) ** 2) - 1


def norm_keys(tri: np.ndarray, d: int, norm: str) -> np.ndarray:
    """Integer norm keys of a batch of upper triangles, see key_limit."""
    if norm == "max":
        return np.max(np.abs(tri), axis=1)
    weights = np.array([1 if i == j else 2 for i, j in triangle_indices(d)])
    return (tri * tri) @ weights


def triangle_indices(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i, d)]


def _int_det(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss), exact over ints."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric integer matrix stored as its upper triangle (row-major)."""

    d: int
    entries: tuple[int, ...]
    det: int
    norm: float
    norm_kind: str = "max"

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.d, self.d), dtype=np.int64)
        for (i, j), v in zip(triangle_indices(self.d), self.entries):
            m[i, j] = v
            m[j, i] = v
        return m

    @classmethod
    def from_matrix(cls, mat, norm_kind: str = "max") -> "QuadraticForm":
        m = np.asarray(mat)
        d = m.shape[0]
        if m.shape != (d, d) or np.any(m != m.T):
            raise ValueError("matrix must be square and symmetric")
        rows = [[int(m[i, j]) for j in range(d)] for i in range(d)]
        entries = tuple(int(m[i, j]) for i, j in triangle_indices(d))
        return cls(
            d=d,
            entries=entries,
            det=_int_det(rows),
            norm=_norm_of_rows(rows, norm_kind),
            norm_kind=norm_kind,
        )


def _norm_of_rows(rows, norm_kind: str) -> float:
    if norm_kind == "max":
        return float(max(abs(v) for r in rows for v in r))
    if norm_kind == "frobenius":
        return math.sqrt(sum(v * v for r in rows for v in r))
    raise ValueError(f"unknown norm {norm_kind!r}")


def _check_norm(norm: str) -> str:
    if norm == "fro":
        norm = "frobenius"
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    return norm


def _cell3(q11: int, q12: int, lim: int, norm: str, dtype) -> np.ndarray:
    """All solutions in one (q11, q12) cell with norm key <= lim:
    rows (q13,q22,q23,q33,det)."""
    if norm == "max":
        b = b13 = b22 = b23 = lim
    else:
        rem = lim - q11 * q11 - 2 * q12 * q12
        if rem < 0:
            return np.empty((0, 5), dtype=np.int64)
        b = math.isqrt(lim)
        b13 = b23 = math.isqrt(rem // 2)
        b22 = math.isqrt(rem)
    r13 = np.arange(-b13, b13 + 1, dtype=dtype)
    r22 = np.arange(-b22, b22 + 1, dtype=dtype)
    r23 = np.arange(-b23, b23 + 1, dtype=dtype)
    m_arr = q11 * r22 - q12 * q12  # (n22,)
    mz = m_arr == 0
    safe_m = np.where(mz, 1, m_arr)[None, :, None]
    # R(q13, q22, q23) = 2 q12 q13 q23 - q11 q23^2 - q22 q13^2
    c1 = (2 * q12) * np.multiply.outer(r13, r23) - q11 * (r23 * r23)[None, :]
    rr = c1[:, None, :] - np.multiply.outer(r13 * r13, r22)[:, :, None]

    if norm == "frobenius":
        sq13, sq22, sq23 = (r.astype(np.int64) ** 2 for r in (r13, r22, r23))
        budget = (
            lim
            - q11 * q11
            - 2 * q12 * q12
            - 2 * sq13[:, None, None]
            - sq22[None, :, None]
            - 2 * sq23[None, None, :]
        )

    out = []
    for e in (1, -1):
        num = e - rr
        divisible = (num % safe_m == 0) & ~mz[None, :, None]
        quot = num // safe_m
        if norm == "max":
            ok = divisible & (np.abs(quot) <= b)
        else:
            # clamping |q33| at b + 1 keeps its square exact and above lim
            mag = np.minimum(np.abs(quot), b + 1).astype(np.int64)
            ok = divisible & (mag * mag <= budget)
        idx = np.nonzero(ok)
        if idx[0].size:
            rows = np.empty((idx[0].size, 5), dtype=np.int64)
            rows[:, 0] = r13[idx[0]]
            rows[:, 1] = r22[idx[1]]
            rows[:, 2] = r23[idx[2]]
            rows[:, 3] = quot[idx]
            rows[:, 4] = e
            out.append(rows)
        # M == 0 slices: determinant is R itself, q33 sweeps its range
        free = (rr == e) & mz[None, :, None]
        idx0 = np.nonzero(free)
        for a13, a22, a23 in zip(*idx0):
            if norm == "max":
                r = b
            else:
                room = int(budget[a13, a22, a23])
                if room < 0:
                    continue
                r = math.isqrt(room)
            span = np.arange(-r, r + 1, dtype=np.int64)
            rows = np.empty((span.size, 5), dtype=np.int64)
            rows[:, 0] = r13[a13]
            rows[:, 1] = r22[a22]
            rows[:, 2] = r23[a23]
            rows[:, 3] = span
            rows[:, 4] = e
            out.append(rows)
    if not out:
        return np.empty((0, 5), dtype=np.int64)
    rows = np.concatenate(out, axis=0)
    order = np.lexsort((rows[:, 3], rows[:, 2], rows[:, 1], rows[:, 0]))
    return rows[order]


def _batches3(t: float, norm: str, threads: int):
    """Per-cell solution batches for d=3: (tri (n,6) int64, det (n,))."""
    lim = key_limit(t, norm)
    b = lim if norm == "max" else math.isqrt(lim)
    if 4 * b**3 + 1 >= 2**62:
        raise OverflowError("entry bound too large for the 64-bit accumulator")
    dtype = np.int32 if 4 * b**3 + 1 < 2**31 else np.int64
    span = range(-b, b + 1)

    def cells_for(q11: int) -> list[np.ndarray]:
        res = []
        for q12 in span:
            rows = _cell3(q11, q12, lim, norm, dtype)
            if rows.size:
                full = np.empty((rows.shape[0], 7), dtype=np.int64)
                full[:, 0] = q11
                full[:, 1] = q12
                full[:, 2] = rows[:, 0]  # q13
                full[:, 3] = rows[:, 1]  # q22
                full[:, 4] = rows[:, 2]  # q23
                full[:, 5] = rows[:, 3]  # q33
                full[:, 6] = rows[:, 4]  # det
                res.append(full)
        return res

    if threads <= 1:
        for q11 in span:
            yield from cells_for(q11)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for batch_list in pool.map(cells_for, span):
                yield from batch_list


def _verify_dets(full: np.ndarray) -> None:
    q11, q12, q13, q22, q23, q33 = (full[:, i] for i in range(6))
    det = (
        (q11 * q22 - q12 * q12) * q33
        + 2 * q12 * q13 * q23
        - q11 * q23 * q23
        - q22 * q13 * q13
    )
    if not np.array_equal(det, full[:, 6]):
        raise RuntimeError("internal determinant check failed")


def _norms_of_batch(tri: np.ndarray, d: int, norm: str) -> np.ndarray:
    keys = norm_keys(tri, d, norm).astype(np.float64)
    return keys if norm == "max" else np.sqrt(keys)


def iter_form_batches(d: int, t: float, norm: str = "max", threads: int | None = None):
    """Yields (triangle (n, d(d+1)/2) int64, det (n,), norm (n,)) batches.

    Batches arrive in lexicographic order of the free entries; rows
    within a batch are already sorted.  This is the bulk interface the
    classification pipeline consumes; enumerate_forms wraps it.
    """
    norm = _check_norm(norm)
    if t < 1.0:
        raise ValueError("T must be at least 1")
    if d == 3:
        for full in _batches3(t, norm, resolve_threads(threads)):
            _verify_dets(full)
            tri = full[:, :6]
            yield tri, full[:, 6], _norms_of_batch(tri, 3, norm)
    elif d == 2:
        rows = _forms2(t, norm)
        if rows.shape[0]:
            tri = rows[:, :3]
            yield tri, rows[:, 3], _norms_of_batch(tri, 2, norm)
    elif d == 4:
        rows = _forms4(t, norm)
        if rows.shape[0]:
            tri = rows[:, :10]
            yield tri, rows[:, 10], _norms_of_batch(tri, 4, norm)
    else:
        raise ValueError("supported dimensions are 2, 3, 4")


def _forms2(t: float, norm: str) -> np.ndarray:
    lim = key_limit(t, norm)
    b = lim if norm == "max" else math.isqrt(lim)
    out = []
    for q11 in range(-b, b + 1):
        for q12 in range(-b, b + 1):
            rem = lim - q11 * q11 - 2 * q12 * q12
            if norm == "frobenius" and rem < 0:
                continue
            if q11 != 0:
                for e in (1, -1):
                    num = e + q12 * q12
                    if num % q11 == 0:
                        q22 = num // q11
                        if (abs(q22) <= b) if norm == "max" else (q22 * q22 <= rem):
                            out.append((q11, q12, q22, e))
            elif abs(q12) == 1:
                r = b if norm == "max" else math.isqrt(rem)
                for q22 in range(-r, r + 1):
                    out.append((q11, q12, q22, -1))
    rows = np.array(sorted(out), dtype=np.int64).reshape(-1, 4)
    if rows.shape[0]:
        det = rows[:, 0] * rows[:, 2] - rows[:, 1] ** 2
        if not np.array_equal(det, rows[:, 3]):
            raise RuntimeError("internal determinant check failed")
    return rows


def _forms4(t: float, norm: str) -> np.ndarray:
    """Smoke-scale d=4 scan.

    The leading 3x3 block Q3 ranges over the whole entry box (its
    determinant is unconstrained); with v = (q14, q24, q34),
    det = det(Q3) q44 - v' adj(Q3) v, so q44 is solved per target when
    det(Q3) != 0 and sweeps its range otherwise.
    """
    lim = key_limit(t, norm)
    b = lim if norm == "max" else math.isqrt(lim)
    if b > 3:
        raise ValueError("d=4 enumeration is for smoke scales (entry bound <= 3)")
    vspan = np.arange(-b, b + 1, dtype=np.int64)
    v1, v2, v3 = np.meshgrid(vspan, vspan, vspan, indexing="ij")
    span = range(-b, b + 1)
    out = []
    for q11 in span:
        for q12 in span:
            for q13 in span:
                for q22 in span:
                    for q23 in span:
                        for q33 in span:
                            m4 = (
                                q11 * (q22 * q33 - q23 * q23)
                                - q12 * (q12 * q33 - q23 * q13)
                                + q13 * (q12 * q23 - q22 * q13)
                            )
                            a11 = q22 * q33 - q23 * q23
                            a22 = q11 * q33 - q13 * q13
                            a33 = q11 * q22 - q12 * q12
                            a12 = -(q12 * q33 - q13 * q23)
                            a13 = q12 * q23 - q13 * q22
                            a23 = -(q11 * q23 - q12 * q13)
                            r4 = (
                                a11 * v1 * v1
                                + a22 * v2 * v2
                                + a33 * v3 * v3
                                + 2 * (a12 * v1 * v2 + a13 * v1 * v3 + a23 * v2 * v3)
                            )
                            for e in (1, -1):
                                if m4 != 0:
                                    num = e + r4
                                    q44 = num // m4
                                    ok = (num % m4 == 0) & (np.abs(q44) <= b)
                                    for i, j, k in zip(*np.nonzero(ok)):
                                        out.append(
                                            (q11, q12, q13, int(v1[i, j, k]),
                                             q22, q23, int(v2[i, j, k]),
                                             q33, int(v3[i, j, k]),
                                             int(q44[i, j, k]), e)
                                        )
                                else:
                                    ok = -r4 == e
                                    for i, j, k in zip(*np.nonzero(ok)):
                                        for q44v in range(-b, b + 1):
                                            out.append(
                                                (q11, q12, q13, int(v1[i, j, k]),
                                                 q22, q23, int(v2[i, j, k]),
                                                 q33, int(v3[i, j, k]),
                                                 q44v, e)
                                            )
    rows = np.array(sorted(set(out)), dtype=np.int64).reshape(-1, 11)
    rows = rows[norm_keys(rows[:, :10], 4, norm) <= lim]
    # final exact determinant audit
    for r in rows:
        m = QuadraticForm(4, tuple(int(x) for x in r[:10]), int(r[10]), 0.0)
        if _int_det([list(x) for x in m.matrix()]) != r[10]:
            raise RuntimeError("internal determinant check failed")
    return rows


def enumerate_forms(d: int, t: float, norm: str = "max", threads: int | None = None):
    """Every symmetric integer d x d matrix with det +-1 and norm < T,
    exactly once, in lexicographic order of the free entries."""
    norm = _check_norm(norm)
    for tri, det, norms in iter_form_batches(d, t, norm, threads):
        for row, dv, nv in zip(tri, det, norms):
            yield QuadraticForm(
                d=d,
                entries=tuple(int(x) for x in row),
                det=int(dv),
                norm=float(nv),
                norm_kind=norm,
            )


def count_ball(d: int, t: float, norm: str = "max", threads: int | None = None) -> int:
    """Number of det +-1 forms with norm < T (streaming, no materialization)."""
    return sum(
        tri.shape[0] for tri, _, _ in iter_form_batches(d, t, norm, threads)
    )


def count_ball_grid(
    d: int, t_grid, norm: str = "max", threads: int | None = None
) -> list[int]:
    """Ball counts for every threshold in one scan at max(t_grid)."""
    norm = _check_norm(norm)
    ts = [float(x) for x in t_grid]
    if sorted(ts) != ts:
        raise ValueError("T grid must be increasing")
    limits = [key_limit(t, norm) for t in ts]
    counts = np.zeros(len(ts), dtype=np.int64)
    for tri, _, _ in iter_form_batches(d, max(ts), norm, threads):
        keys = norm_keys(tri, d, norm)
        for j, lim in enumerate(limits):
            counts[j] += int(np.count_nonzero(keys <= lim))
    return [int(c) for c in counts]


@dataclass(frozen=True)
class OrbitResult:
    forms: tuple[QuadraticForm, ...]
    partial: bool
    visited: int


def _elementary_generators(d: int) -> list[tuple[int, int, int]]:
    return [
        (i, j, s)
        for i in range(d)
        for j in range(d)
        if i != j
        for s in (1, -1)
    ]


def orbit_enumerate(
    q0,
    t: float,
    slack: float = 4.0,
    norm: str = "max",
    max_states: int = ORBIT_STATE_BUDGET,
) -> OrbitResult:
    """Breadth-first closure of q -> g' q g over elementary generators.

    Explores states with norm < slack*T and reports those with norm < T.
    Best effort: points of the orbit inside the T-ball reachable only
    through states outside the slack corridor are missed, and exceeding
    the state budget sets the partial flag.  Deduplication is exact, on
    the triangle encoding, with unbounded integer arithmetic.
    """
    norm = _check_norm(norm)
    if slack < 1.0:
        raise ValueError("slack must be >= 1")
    if isinstance(q0, QuadraticForm):
        mat0 = [[int(x) for x in row] for row in q0.matrix()]
    else:
        mat0 = [[int(x) for x in row] for row in np.asarray(q0)]
    d = len(mat0)
    if _int_det(mat0) not in (1, -1):
        raise ValueError("base form must have determinant +-1")
    gens = _elementary_generators(d)
    idx = triangle_indices(d)

    def encode(m) -> tuple[int, ...]:
        return tuple(m[i][j] for i, j in idx)

    start = encode(mat0)
    corridor = slack * t
    seen = {start}
    queue = deque([mat0])
    partial = False
    while queue:
        mat = queue.popleft()
        for i, j, s in gens:
            nxt = [row[:] for row in mat]
            # g = I + s E_ij acting by congruence: column then row update
            for r in range(d):
                nxt[r][j] += s * nxt[r][i]
            for c in range(d):
                nxt[j][c] += s * nxt[i][c]
            key = encode(nxt)
            if key in seen:
                continue
            if _norm_of_rows(nxt, norm) >= corridor:
                continue
            if len(seen) >= max_states:
                partial = True
                queue.clear()
                break
            seen.add(key)
            queue.append(nxt)
    det0 = _int_det(mat0)
    forms = []
    for key in sorted(seen):
        rows = [[0] * d for _ in range(d)]
        for (i, j), v in zip(idx, key):
            rows[i][j] = v
            rows[j][i] = v
        nv = _norm_of_rows(rows, norm)
        if nv < t:
            forms.append(
                QuadraticForm(d=d, entries=key, det=det0, norm=float(nv), norm_kind=norm)
            )
    return OrbitResult(forms=tuple(forms), partial=partial, visited=len(seen))
