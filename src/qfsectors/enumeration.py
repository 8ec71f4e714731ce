"""Exact enumeration of integral symmetric matrices with determinant +-1.

One kernel serves d = 2, 3 and 4.  The determinant is linear in the
last diagonal entry q_dd,

    det(Q) = minor * q_dd + const,

where minor is the determinant of the leading (d-1) block and const is
det(Q) at q_dd = 0; both come from one Laplace expansion.  So minor != 0
pins q_dd to (e - const) / minor per target e = +-1, and minor == 0
demands const = e with q_dd sweeping its whole legal range.

The free entries are the upper triangle without q_dd, in triangle
order.  The last three of them form the broadcast integer grid, and the
entries before them index the cell: (q11, q12) for d=3, (q11 .. q23)
for d=4, and a single cell for d=2.  The scan solves a run of
consecutive values of the cell's last entry at once, as one more
broadcast axis, sized so that one solve stays within SCAN_POINTS grid
points.  Cells are independent, which is where the optional thread pool
parallelizes (by the first entry).  Every emitted row's determinant is
recomputed in full, and the accumulator width is chosen from a proven
bound (d! b**d for entries bounded by b) that raises instead of wrapping.

Conjugation by a signed permutation matrix keeps the determinant, both
norms and the spectrum, so every count and every sector verdict that
reads only the spectrum is constant on the orbits of that group (the
hyperoctahedral group; -I acts trivially, leaving 4, 24 and 192
elements for d = 2, 3 and 4).  Every orbit meets the region R where
q11 >= q22 >= ... >= q_dd and q1j >= 0 for j >= 2: sort the diagonal,
then take s_j = sign(q1j).  The scan visits only R, about an eighth
of the box for d = 3.  The cells and the grid take q1j >= 0 and each
diagonal entry at most the one before it, which is already fixed; the
solved q_dd is filtered to q_dd <= q_(d-1)(d-1).  A
row found in R is canonical when no image is lexicographically above
it, with the key ordered diagonal first, then the off-diagonal entries
in triangle order; every orbit has exactly one canonical row, and it
lies in R.  The counts take each canonical row once, weighted by its
orbit size.  A verdict that is not constant on orbits (a cap frame
reads the top eigenvector, which the group moves) gets the weights
too, and counts how many forms of each orbit it accepts itself (see
sector.count_sector).  iter_form_batches, enumerate_forms and the CLI's
enumerate promise every form in lexicographic order: they keep the
canonical rows in memory and expand them one value of q11 at a time.

An "orbit" here is one of that signed-permutation group, the scan's
unit.  A "class" is one of GL_d(Z) acting by q -> g' q g, which for
det +-1 and d <= 4 is its signature and parity; orbit_enumerate (named
before the distinction) reads one class off the scan.

Supported norms: "max" (largest absolute entry) and "frobenius" (entry
2-norm of the full symmetric matrix).  Thresholds are strict: norm < T,
decided exactly on integer norm keys (the largest |entry|, or the
integer norm squared against the exact square of the float T).

Every integer count goes through `tally`: one scan at the largest
threshold, binned by each threshold on those keys, with any number of
verdicts (sector classifiers) counted in the same pass, each row
counting the forms it stands for.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

NORMS = ("max", "frobenius")
# rows per verdict call in tally: a scan batch holds a few hundred rows,
# and a verdict's fixed cost per call is worth paying once per chunk, not
# per batch; a larger chunk only raises the classifiers' peak memory
TALLY_ROWS = 4096
# broadcast points per solve of the reduced scan, both target determinants
# counted: enough that a solve's fixed Python cost stops dominating (325
# solves of count_ball(3, 12.5) become 59), while each int32 temporary
# stays at 256 KiB
SCAN_POINTS = 2**16


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


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric integer matrix stored as its upper triangle (row-major)."""

    d: int
    entries: tuple[int, ...]
    det: int
    norm: float
    norm_kind: str = "max"

    def matrix(self) -> np.ndarray:
        return _int_array(_symmetric(self.d, triangle_indices(self.d), self.entries))

    @classmethod
    def from_matrix(cls, mat, norm_kind: str = "max") -> "QuadraticForm":
        """The form of a square symmetric integer matrix (integral floats
        count), with its determinant and norm key exact in Python ints."""
        norm_kind = _check_norm(norm_kind)
        m = np.asarray(mat)
        if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
            raise ValueError("matrix must be square and symmetric")
        rows = m.tolist()
        if not all(isinstance(v, (int, np.integer)) or isinstance(v, float) and v.is_integer()
                   for r in rows for v in r):
            raise ValueError("matrix entries must be integers")
        rows = [[int(v) for v in r] for r in rows]
        if rows != [list(c) for c in zip(*rows)]:
            raise ValueError("matrix must be square and symmetric")
        return cls(
            d=len(rows),
            entries=tuple(rows[i][j] for i, j in triangle_indices(len(rows))),
            det=_int_det(rows),
            norm=_norm_of_key(_key_of_rows(rows, norm_kind), norm_kind),
            norm_kind=norm_kind,
        )


def _int_array(rows) -> np.ndarray:
    """Nested lists of ints as int64, or exact in an object array past int64."""
    fits = all(-(2**63) <= v < 2**63 for r in rows for v in r)
    return np.array(rows, dtype=np.int64 if fits else object)


def _key_of_rows(rows, norm_kind: str) -> int:
    """Integer norm key of a full integer matrix, as norm_keys computes it."""
    if norm_kind == "max":
        return max(abs(v) for r in rows for v in r)
    return sum(v * v for r in rows for v in r)


def _norm_of_key(key: int, norm_kind: str) -> float:
    return float(key) if norm_kind == "max" else math.sqrt(key)


def _check_norm(norm: str) -> str:
    if norm == "fro":
        norm = "frobenius"
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    return norm


def _symmetric(d: int, idx, entries) -> list[list]:
    """Nested-list symmetric matrix with entry (i, j) of idx set to entries."""
    m = [[None] * d for _ in range(d)]
    for (i, j), v in zip(idx, entries):
        m[i][j] = m[j][i] = v
    return m


def _alternating_sum(terms: list, shift: int):
    """Sum of terms[p] * (-1)**(p + shift), with no operation beyond the
    additions themselves (the terms may be large arrays)."""
    plus, minus = terms[shift % 2 :: 2], terms[1 - shift % 2 :: 2]
    total = functools.reduce(operator.add, plus) if plus else 0
    return total - functools.reduce(operator.add, minus) if minus else total


def _top_minors(m, k: int) -> dict:
    """Minors of the top k >= 1 rows of the square matrix m, keyed by
    column tuple, by Laplace expansion along each new row.  Entries may be
    ints or broadcastable integer arrays; the arithmetic is exact."""
    minors = {(c,): m[0][c] for c in range(len(m))}
    for r in range(1, k):
        minors = {
            cols: _alternating_sum(
                [m[r][c] * minors[cols[:p] + cols[p + 1 :]] for p, c in enumerate(cols)], r
            )
            for cols in itertools.combinations(range(len(m)), r + 1)
        }
    return minors


def _int_det(m):
    """Exact determinant of a square integer matrix, or of a batch of them
    given as a nested list of integer arrays."""
    return _top_minors(m, len(m))[tuple(range(len(m)))]


def _sign_changes(*coeffs):
    """Sign changes along a coefficient sequence, zeros skipped, per row."""
    changes, last = 0, np.sign(coeffs[0])
    for c in coeffs[1:]:
        s = np.sign(c)
        changes = changes + (s * last < 0)
        last = np.where(s == 0, last, s)
    return changes


def _form_class(columns, d: int):
    """(positive eigenvalue count, even) per form, exact, of forms given
    by their upper-triangle columns (ints or integer arrays).

    Descartes' rule counts the positive roots of the real-rooted
    characteristic polynomial x^d - e1 x^(d-1) + e2 x^(d-2) - ..., e_k
    the sum of the principal k-minors; det +-1 rules out a zero root.
    |e_k| <= C(d, k) k! b**k <= d! b**d for entries bounded by b, the
    scan's accumulator bound.  Even: every diagonal entry is even.
    """
    m = _symmetric(d, triangle_indices(d), columns)
    coeffs = [1] + [(-1) ** k * sum(_int_det([[m[i][j] for j in s] for i in s])
                                    for s in itertools.combinations(range(d), k))
                    for k in range(1, d + 1)]
    even = functools.reduce(operator.and_, [m[i][i] % 2 == 0 for i in range(d)])
    return _sign_changes(*coeffs), even


def _det_split(m):
    """(minor, const) with det(m) = minor * m[d-1][d-1] + const, from the
    Laplace expansion along the last row; m[d-1][d-1] is never read."""
    d = len(m)
    top = _top_minors(m, d - 1)
    rest = [top[tuple(c for c in range(d) if c != j)] for j in range(d - 1)]
    const = _alternating_sum([m[d - 1][j] * r for j, r in enumerate(rest)], d - 1)
    return top[tuple(range(d - 1))], const


@functools.lru_cache(maxsize=None)
def signed_permutations(d: int) -> np.ndarray:
    """(g, d, d) int64: the signed permutation matrices P with
    P[i, perm[i]] = s_i and s_0 = 1, one of each pair +-P, so one per
    element of the group mod -I; element 0 is the identity.  P acts on
    forms as Q -> P Q P^T and on their eigenvectors as v -> P v."""
    mats = np.zeros((math.factorial(d) * 2 ** (d - 1), d, d), dtype=np.int64)
    elements = itertools.product(itertools.permutations(range(d)),
                                 itertools.product((1, -1), repeat=d - 1))
    for p, (perm, tail) in zip(mats, elements):
        p[range(d), perm] = (1,) + tail
    mats.flags.writeable = False  # every caller shares it
    return mats


@functools.lru_cache(maxsize=None)
def _orbit_tables(d: int):
    """The group of signed_permutations acting on upper triangles.

    Element g maps a triangle x to (g.x)[c] = signs[g, c] * x[cols[g, c]].
    weights ranks the columns in the canonical order (the diagonal first,
    then the off-diagonal entries in triangle order) by powers of two, so
    sign(y - x) @ weights is positive, zero or negative as y is
    lexicographically above, equal to or below x, whatever the size of
    the entries: each weight exceeds the sum of all lower ones.
    """
    tri = triangle_indices(d)
    group = signed_permutations(d)
    # (P Q P^T)[i, j] = s_i s_j Q[perm[i], perm[j]]
    perm, s = np.argmax(np.abs(group), axis=2), group.sum(axis=2)
    column = np.zeros((d, d), dtype=np.int64)
    for c, (i, j) in enumerate(tri):
        column[i, j] = column[j, i] = c
    rows, cols = np.array(tri).T
    cols, signs = column[perm[:, rows], perm[:, cols]], s[:, rows] * s[:, cols]
    key = [tri.index((i, i)) for i in range(d)] + [c for c, (i, j) in enumerate(tri) if i < j]
    weights = np.zeros(len(tri), dtype=np.int64)
    weights[key] = 2 ** np.arange(len(tri) - 1, -1, -1)
    tables = cols, signs, weights
    for a in tables:  # every caller shares them
        a.flags.writeable = False
    return tables


def _orbits(full: np.ndarray, d: int):
    """The canonical rows of full (triangle, then det) and their weights.

    A row is canonical when no image under the group is above it in the
    canonical order.  Its weight is its orbit size, the number of its
    distinct images: the group order over the order of its stabilizer,
    the elements g with g.x = x.
    """
    cols, signs, weights = _orbit_tables(d)
    tri = full[:, :-1]
    order = np.sign(tri[:, cols] * signs - tri[:, None, :]) @ weights
    canon = np.all(order <= 0, axis=1)
    return full[canon], len(cols) // np.count_nonzero(order[canon] == 0, axis=1)


def _scan(d: int, t: float, norm: str, threads: int | None):
    """Batches (full, weight): full is (n, d(d+1)/2 + 1) int64, the
    triangle then det, and weight (n,) int64 is how many forms each row
    stands for.

    The scan visits only the region R of the module docstring, and each
    batch holds canonical rows weighted by their orbit sizes, in no
    particular order.  Every emitted row's determinant is recomputed in
    full before it leaves.

    One solve covers a run of consecutive values of the last cell entry
    (q12 for d = 3, q23 for d = 4; q11 for d = 2, whose only cell is the
    whole box): the run grows while its grid, with both target
    determinants, holds at most SCAN_POINTS points.  The run's
    grid spans are those of its smallest |value|, the widest of the run,
    and the norm budget drops the points beyond a row's own spans.
    d = 3 maps its runs to `threads` workers by their first entry; d = 4,
    which stops at entry bound 3, scans serially whatever `threads` is.
    The checks of d, T and the norm live here, so every scan makes them.
    """
    norm = _check_norm(norm)
    if t < 1.0:
        raise ValueError("T must be at least 1")
    if d not in (2, 3, 4):
        raise ValueError("supported dimensions are 2, 3, 4")
    threads = resolve_threads(threads)
    lim = key_limit(t, norm)
    b = lim if norm == "max" else math.isqrt(lim)
    if d == 4 and b > 3:
        raise ValueError("d=4 enumeration is for smoke scales (entry bound <= 3)")
    # every Leibniz term is at most b**d, so no partial sum leaves d! b**d
    bound = math.factorial(d) * b**d + 1
    if bound >= 2**62:
        raise OverflowError("entry bound too large for the 64-bit accumulator")
    dtype = np.int32 if bound < 2**31 else np.int64
    tri = triangle_indices(d)
    free = tri[:-1]
    weights = [1 if i == j else 2 for i, j in free]
    # entries fixed per solve; the broadcast axes are the run axis free[lead]
    # (the last cell entry for d >= 3) and the grid entries after it
    lead = max(len(free) - 4, 0)
    naxes = len(free) - lead
    targets = np.array([1, -1], dtype=dtype).reshape([2] + [1] * naxes)
    # in R a diagonal entry is at most the one before it, which is fixed
    # before the run axis
    before = {k: free.index((i - 1, i - 1)) for k, (i, j) in enumerate(free) if i == j > 0}
    penultimate = tri.index((d - 2, d - 2))

    def span(k: int, rem: int, fixed: tuple) -> range:
        # the values of free entry k that leave the norm key within budget
        # and keep the row in R
        r = b if norm == "max" else math.isqrt(rem // weights[k])
        lo = 0 if free[k][0] == 0 < free[k][1] else -r
        return range(lo, min(r, fixed[before[k]]) + 1 if k in before else r + 1)

    def grid_spans(cell: tuple, rem: int, v: int) -> list[range]:
        # the spans of the grid axes after the run axis takes value v
        left = rem - weights[lead] * v * v
        return [span(k, left, cell) for k in range(lead + 1, len(free))]

    def runs(cell: tuple, rem: int):
        # for d >= 3 the run axis is the cell's last entry
        run, widest = [], 0
        for v in span(lead, rem, cell):
            size = math.prod(map(len, grid_spans(cell, rem, v)))
            if run and 2 * (len(run) + 1) * max(widest, size) > SCAN_POINTS:
                yield run
                run, widest = [], 0
            run.append(v)
            widest = max(widest, size)
        if run:
            yield run

    def solve(cell: tuple, run: list, rem: int) -> np.ndarray:
        values = [np.array(run, dtype=dtype)]
        values += [np.array(s, dtype=dtype) for s in grid_spans(cell, rem, min(map(abs, run)))]
        axes = [v.reshape([-1 if k == a else 1 for k in range(naxes)]) for a, v in enumerate(values)]
        minor, const = _det_split(_symmetric(d, free, list(cell) + axes))
        mz = minor == 0
        anyz = bool(mz.any())
        safe = np.where(mz, 1, minor) if anyz else minor
        if norm == "frobenius":
            # what the norm key leaves for q_dd**2 at each grid point
            budget = rem
            for w, ax in zip(weights[lead:], axes):
                budget = budget - w * ax.astype(np.int64) ** 2

        # the leading axis holds the target determinant e = +1, -1
        quot, res = np.divmod(targets - const, safe)
        ok = (res == 0) & (np.abs(quot) <= b)
        if anyz:
            ok &= ~mz
        idx = np.nonzero(ok)
        qdd = quot[idx]
        if norm == "frobenius":
            keep = qdd.astype(np.int64) ** 2 <= budget[idx[1:]]
            idx, qdd = tuple(i[keep] for i in idx), qdd[keep]
        found = [(idx, qdd)]
        if anyz:
            # minor == 0: det is const itself and q_dd sweeps its whole range
            idx = np.nonzero(np.broadcast_to((const == targets) & mz, quot.shape))
            if norm == "max":
                sweep = np.full(idx[0].size, b, dtype=np.int64)
            else:
                left = budget[idx[1:]]
                idx = tuple(i[left >= 0] for i in idx)
                sweep = np.array([math.isqrt(int(x)) for x in left[left >= 0]], dtype=np.int64)
            counts = 2 * sweep + 1
            pick = np.repeat(np.arange(sweep.size), counts)
            offset = np.arange(pick.size) - np.repeat(np.cumsum(counts) - counts, counts)
            found.append((tuple(i[pick] for i in idx), offset - sweep[pick]))
        full = np.empty((sum(q.size for _, q in found), len(tri) + 1), dtype=np.int64)
        full[:, :lead] = cell
        pos = 0
        for idx, qdd in found:
            rows = slice(pos, pos + qdd.size)
            for a in range(naxes):
                full[rows, lead + a] = values[a][idx[a + 1]]
            full[rows, -2] = qdd
            full[rows, -1] = 1 - 2 * idx[0]
            pos += qdd.size
        return full

    def cells(prefix: tuple, rem: int):
        k = len(prefix)
        if k == lead:
            yield prefix, rem
            return
        for v in span(k, rem, prefix):
            yield from cells(prefix + (v,), rem - weights[k] * v * v)

    def batches(prefix: tuple, rem: int):
        for cell, crem in cells(prefix, rem):
            for run in runs(cell, crem):
                full = solve(cell, run, crem)
                # the last bound of R: q_dd <= q_(d-1)(d-1)
                full, weight = _orbits(full[full[:, -2] <= full[:, penultimate]], d)
                if not full.shape[0]:
                    continue
                # the audit recomputes each row's determinant in full
                if not np.array_equal(_int_det(_symmetric(d, tri, full.T)), full[:, -1]):
                    raise RuntimeError("internal determinant check failed")
                yield full, weight

    if d != 3 or threads <= 1:
        yield from batches((), lim)
        return

    def task(v: int) -> list[tuple]:
        return list(batches((v,), lim - weights[0] * v * v))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for batch_list in pool.map(task, span(0, lim, ())):
            yield from batch_list


def iter_form_batches(d: int, t: float, norm: str = "max", threads: int | None = None):
    """Yields (triangle (n, d(d+1)/2) int64, det (n,), norm (n,)) batches:
    every form of the ball once, in lexicographic order of the triangle,
    one batch per value of q11.

    The scan's canonical rows stay in memory.  Element g of the group
    moves diagonal entry cols[g, 0] to the corner, so the forms with
    q11 = v are the images of the rows with v at entry k under the
    elements with cols[g, 0] = k; each batch is sorted and loses its
    repeats.  enumerate_forms and the CLI's enumerate read it; tally
    reads the canonical rows itself.
    """
    norm = _check_norm(norm)
    width = len(triangle_indices(d))
    canon = np.concatenate([np.zeros((0, width + 1), dtype=np.int64)]
                           + [full for full, _ in _scan(d, t, norm, threads)])
    cols, signs, _ = _orbit_tables(d)
    # the det column rides along, unchanged by every element
    cols = np.column_stack([cols, np.full(len(cols), width)])
    signs = np.column_stack([signs, np.ones(len(signs), dtype=np.int64)])
    diag = [c for c, (i, j) in enumerate(triangle_indices(d)) if i == j]
    # per diagonal entry k, the elements that move it to the corner
    corner = [(k, cols[cols[:, 0] == k], signs[cols[:, 0] == k]) for k in diag]
    for v in np.unique(canon[:, diag]):
        full = np.concatenate([(canon[canon[:, k] == v][:, c] * s).reshape(-1, width + 1)
                               for k, c, s in corner])
        full = full[np.lexsort(full.T[::-1])]
        full = full[np.append(True, np.any(full[1:] != full[:-1], axis=1))]
        tri = full[:, :-1]
        keys = norm_keys(tri, d, norm).astype(np.float64)
        yield tri, full[:, -1], keys if norm == "max" else np.sqrt(keys)


def enumerate_forms(d: int, t: float, norm: str = "max", threads: int | None = None):
    """Every symmetric integer d x d matrix with det +-1 and norm < T,
    exactly once, in lexicographic order of the free entries."""
    norm = _check_norm(norm)
    yield from _forms(d, norm, iter_form_batches(d, t, norm, threads))


def _forms(d: int, norm: str, batches):
    """The QuadraticForms of iter_form_batches' batches, row by row."""
    for tri, det, norms in batches:
        for row, dv, nv in zip(tri.tolist(), det.tolist(), norms.tolist()):
            yield QuadraticForm(d=d, entries=tuple(row), det=dv, norm=nv, norm_kind=norm)


def t_grid_values(t_grid) -> list[float]:
    """The threshold grid as floats; equal neighbours are allowed."""
    ts = [float(x) for x in t_grid]
    # NaN would pass the order check, since sorted([nan]) == [nan]
    if not all(math.isfinite(t) for t in ts):
        raise ValueError("T grid values must be finite")
    if not ts or sorted(ts) != ts:
        raise ValueError("T grid must be nonempty and increasing")
    return ts


def tally(d: int, t_grid, norm: str, verdicts=(), threads: int | None = None):
    """One scan at max(T) binned by every threshold.

    The scan gives canonical rows, each standing for the forms of its
    orbit, and their weights, the orbit sizes.  Each verdict maps a
    batch of upper triangles (int64) and their weights to a tuple of
    per-row counts: how many of the forms a row stands for it counts.  A
    verdict that reads only the spectrum, which the group keeps, counts
    mask * weight; sector.count_sector's verdicts do the rest.  The rows
    are joined into chunks of at least TALLY_ROWS rows (the last may be
    shorter), and each chunk gets one norm-key pass and one call per
    verdict; an empty ball is one empty chunk.  Returns the ball count
    per T and, per verdict, the sum of each of its counts per T.
    """
    norm = _check_norm(norm)
    ts = t_grid_values(t_grid)
    limits = [key_limit(t, norm) for t in ts]
    ball, counts = np.zeros(len(ts), dtype=np.int64), [0] * len(verdicts)
    for tri, weight in _chunks(_scan(d, ts[-1], norm, threads), len(triangle_indices(d))):
        keys = norm_keys(tri, d, norm)
        inball = [keys <= lim for lim in limits]
        ball += [weight[m].sum() for m in inball]
        counts = [c + np.array([[n[m].sum() for m in inball] for n in fn(tri, weight)])
                  for c, fn in zip(counts, verdicts)]
    return ball.tolist(), [c.tolist() for c in counts]


def _chunks(batches, width: int):
    """The triangles and weights of the scan's batches, joined into
    chunks of at least TALLY_ROWS rows; the last chunk may be short, and
    a scan with no rows gives one empty chunk."""
    empty = np.zeros((0, width), dtype=np.int64), np.zeros(0, dtype=np.int64)
    pending, rows = [empty], 0
    for full, weight in batches:
        pending.append((full[:, :-1], weight))
        rows += full.shape[0]
        if rows >= TALLY_ROWS:
            yield tuple(np.concatenate(part) for part in zip(*pending))
            pending, rows = [], 0
    if pending:
        yield tuple(np.concatenate(part) for part in zip(*pending))


def count_ball_grid(
    d: int, t_grid, norm: str = "max", threads: int | None = None
) -> list[int]:
    """Ball counts for every threshold in one scan at max(t_grid)."""
    return tally(d, t_grid, norm, threads=threads)[0]


def count_ball(d: int, t: float, norm: str = "max", threads: int | None = None) -> int:
    """Number of det +-1 forms with norm < T (streaming, no materialization)."""
    return count_ball_grid(d, [t], norm, threads)[0]


def orbit_enumerate(q0, t: float, norm: str = "max") -> tuple[QuadraticForm, ...]:
    """The forms with norm < T in the GL_d(Z) class of q0 (q -> g' q g),
    in lexicographic order of the triangle.

    For d <= 4 a det +-1 form's class is its signature and parity
    (Milnor-Husemoller): a definite unimodular lattice of rank < 8 is
    I_n, an indefinite odd one is I_{p,q}, and an indefinite even one
    needs p = q (mod 8), so it is H or H + H.  Each has an automorphism
    of determinant -1, so SL_d(Z), which the elementary moves I + s E_ij
    generate, has the same orbits.  The scan's forms are kept when their
    positive-eigenvalue count and parity (_form_class) equal q0's, taken
    in Python integers, so any integer base works.  d and T are limited
    as the scan limits them: d in (2, 3, 4), and d = 4 only at entry
    bound <= 3.  Raises ValueError for a base that is not a square
    symmetric integer matrix of determinant +-1.
    """
    norm = _check_norm(norm)
    # from_matrix raises unless the base is square, symmetric and integer
    if isinstance(q0, QuadraticForm):
        q0 = _symmetric(q0.d, triangle_indices(q0.d), q0.entries)
    base = QuadraticForm.from_matrix(q0)
    if base.det not in (1, -1):
        raise ValueError("base form must have determinant +-1")
    d = base.d
    positive, even = _form_class(base.entries, d)

    def same_class(batches):
        for tri, det, norms in batches:
            p, e = _form_class(tri.T, d)
            keep = (p == positive) & (e == even)
            yield tri[keep], det[keep], norms[keep]

    return tuple(_forms(d, norm, same_class(iter_form_batches(d, t, norm))))
