"""Exact enumeration of integral symmetric matrices with determinant +-1.

One kernel serves d = 2, 3 and 4.  With A the leading (d-1) block of Q,
m = det A, v the last column above q_dd, x = q_(d-1)d its last entry
and s the one before it (none for d = 2), det(Q) = m q_dd - v' adj(A) v
is linear in q_dd, so det(Q) = e = +-1 reads m q_dd = e + v' adj(A) v.
The Desnanot-Jacobi identity det(Q) M' = m N - P**2, with M' the
leading (d-2) minor of A (1 for d = 2), N the minor without row and
column d-1 and P the one without row d-1 and column d, forces
P**2 = -e M' (mod |m|).  P = (adj(A) v)_x = M' x + beta s + gamma is
linear in x and s, so for each square root r of -e M' modulo |m| (read
off a table of square roots per range of moduli) the (s, x) with
P = r (mod |m|) are a coset of a plane lattice: _plane_lattice builds
its basis from g = gcd(M', |m|) and the inverse of M' / g, and reduces
it.  A block with m = 0 takes modulus 1, whose lattice is every (s, x).
The scan walks the lines of the coset through the box of s and x.
Along a line, e + v' adj(A) v is a quadratic in the line's parameter,
the scan's one statement of the rule: it cuts each line to the window
where m q_dd can lie in range, and its value at each candidate is the
m q_dd that m divides exactly, or that must be 0 where m = 0 (q_dd then
sweeps its range).  Every candidate still passes the bounds of R and
the ball, and every emitted row's determinant is recomputed in full.
The accumulator bound (d! b**d for entries bounded by b, and a bound on
the window's products, _scan) raises instead of wrapping.

The scan sorts the blocks A by modulus; a range of moduli, with its
table of roots, is one task, and the tasks are independent, which is
where the optional thread pool parallelizes.  Batches are sized by
their count of lattice lines, SCAN_BUDGET times the thread count,
which also bounds a range's table.

Conjugation by a signed permutation matrix keeps the determinant, both
norms and the spectrum, so every count and every sector verdict that
reads only the spectrum is constant on the orbits of that group (the
hyperoctahedral group; -I acts trivially, leaving 4, 24 and 192
elements for d = 2, 3 and 4).  Every orbit meets the region R where
q11 >= q22 >= ... >= q_dd and q1j >= 0 for j >= 2: sort the diagonal,
then take s_j = sign(q1j).  The scan visits only R, about an eighth
of the box for d = 3: the blocks and the box of s and x take q1j >= 0
and each diagonal entry at most the one before it, and the solved q_dd
is filtered to q_dd <= q_(d-1)(d-1).  A row found in R is canonical
when no image is lexicographically above it, with the key ordered
diagonal first, then the off-diagonal entries in triangle order; every orbit has exactly one canonical row, and it
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

import collections
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
# rows per verdict call in tally: a verdict's fixed cost per call is worth
# paying once per chunk, not per scan batch; a larger chunk only raises the
# classifiers' peak memory, so batches are cut to it as well as joined
TALLY_ROWS = 4096
# lattice lines per batch of the scan, square-root table entries per range
# of moduli and orbit images per pass of _orbits: count_ball(3, 40) pays a
# batch's fixed Python cost about 1,400 times, and a batch's temporaries
# stay near 2 MiB (twice this budget raised a ball-scan round's peak RSS
# by about 1 MiB)
SCAN_BUDGET = 2**12


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


def _divide(num, m):
    """(quot, exact) per candidate: num // m, and whether m != 0 divides
    num exactly, for the numerator num = m q_dd of the scan's window."""
    nz = m != 0
    quot, res = np.divmod(num, np.where(nz, m, 1))
    return quot, nz & (res == 0)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Floor square roots of an int64 array of values in [0, 2**62)."""
    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    return r + ((r + 1) * (r + 1) <= n)


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """(counts, values): for each parent p in turn the integers lo[p] ..
    hi[p], counts[p] of them (none where hi[p] < lo[p]), so
    np.repeat(a, counts) spreads a per-parent array over the values."""
    counts = np.maximum(hi - lo + 1, 0)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return counts, np.repeat(lo, counts) + offset


def _pieces(counts: np.ndarray, budget: int):
    """Slices of consecutive items whose counts add up to at most budget;
    an item over budget is a slice of its own."""
    ends = np.cumsum(counts)
    start = 0
    while start < ends.size:
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + budget, side="right")), start + 1)
        yield slice(start, stop)
        start = stop


def _root_table(lo: int, hi: int):
    """(roots, first, at): the square roots modulo each M in lo..hi.

    The table of M starts at at[M - lo] and lists each r in [0, M) once,
    under its square r*r mod M, so the roots of a modulo M are
    roots[first[s] : first[s + 1]] for s = at[M - lo] + a, ascending.
    """
    moduli = np.arange(lo, hi + 1, dtype=np.int64)
    at = np.cumsum(moduli) - moduli
    start = np.repeat(at, moduli)
    r = np.arange(start.size) - start
    slot = start + r * r % np.repeat(moduli, moduli)
    first = np.concatenate([[0], np.cumsum(np.bincount(slot, minlength=start.size))])
    return r[np.argsort(slot, kind="stable")], first, at


def _gcd_inverse(a: np.ndarray, n: np.ndarray):
    """(g, inv) per element: g = gcd(a, n) and inv with (a / g) * inv = 1
    modulo n / g, 0 <= inv < n / g, for n >= 1 and any integer a (a = 0
    gives g = n and inv = 0).  The extended Euclidean algorithm, keeping
    the cofactor s of a with s * a = r (mod n) for each remainder r."""
    r0, r1 = n, a % n
    s0, s1 = np.zeros_like(n), np.ones_like(n)
    while r1.any():
        live = r1 != 0
        q = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, r1)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, s1)
    return r0, s0 % (n // r0)


def _line_range(lo, hi, slope):
    """(first, last): per element, the integers i with lo <= slope i <= hi
    (none where last < first); every integer, [-2**62, 2**62], or none
    where slope is 0."""
    flat = slope == 0
    s = np.where(flat, 1, np.abs(slope))
    u, v = np.where(slope < 0, -hi, lo), np.where(slope < 0, -lo, hi)
    every = (lo <= 0) & (0 <= hi)
    return (np.where(flat, np.where(every, -(2**62), 1), -(-u // s)),
            np.where(flat, np.where(every, 2**62, 0), v // s))


def _quadratic_cover(a, b, c, low, high):
    """((x1, y1), (x2, y2)): per element, two disjoint integer intervals
    [x1, y1] and [x2, y2] (empty where y < x) whose union is every
    integer x with low <= a x**2 + 2 b x + c <= high.

    For a != 0, a f(x) = (a x + b)**2 + a c - b**2, so |a| x + sb, with
    sb the sign of a times b, lies in +-[bot, top] between two integer
    square roots.  For a = 0 the condition is linear in x.
    """
    line = a == 0
    pos = a > 0
    sa, sb = np.where(line, 1, np.abs(a)), np.where(pos, b, -b)
    shift = sa * np.where(pos, c, -c) - b * b
    lo2 = sa * np.where(pos, low, -high) - shift
    hi2 = sa * np.where(pos, high, -low) - shift
    top = np.where(hi2 < 0, -1, _isqrt(np.maximum(hi2, 0)))
    bot = _isqrt(np.maximum(lo2, 0))
    bot += bot * bot < lo2
    x1, y1 = (-top - sb + sa - 1) // sa, (-bot - sb) // sa
    x2, y2 = (np.maximum(bot, 1) - sb + sa - 1) // sa, (top - sb) // sa
    if line.any():
        # 2 b x + c in [low, high]
        i = np.flatnonzero(line)
        x1[i], y1[i] = _line_range(low[i] - c[i], high[i] - c[i], 2 * b[i])
        x2[i], y2[i] = 1, 0
    return (x1, y1), (x2, y2)


def _reduced(u, w):
    """(u, w): per element, a Lagrange-Gauss reduced basis of the plane
    lattice spanned by u and w (pairs of integer arrays), so u is a
    shortest vector, with cross(u, w) = us wx - ux ws > 0."""
    (us, ux), (ws, wx) = u, w
    while True:
        nu, nw = us * us + ux * ux, ws * ws + wx * wx
        swap = nw < nu
        us, ws = np.where(swap, ws, us), np.where(swap, us, ws)
        ux, wx = np.where(swap, wx, ux), np.where(swap, ux, wx)
        nu = np.minimum(nu, nw)
        mu = (2 * (us * ws + ux * wx) + nu) // (2 * nu)
        if not mu.any():
            break
        ws, wx = ws - mu * us, wx - mu * ux
    flip = us * wx - ux * ws < 0
    return (us, ux), (np.where(flip, -ws, ws), np.where(flip, -wx, wx))


def _plane_lattice(outer, beta, n):
    """(g, inv, h, inv_s, u, w) per element: the lattice L of the (s, x)
    with beta s + outer x = 0 (mod n), for n >= 1.

    g = gcd(outer, n), and inv inverts outer / g modulo step = n / g;
    h = gcd(beta, g), and inv_s inverts beta / h modulo g / h.  An s
    extends to a point of L exactly when g / h divides it, so
    (g / h, -(beta / h) inv mod step) and (0, step) span L, of index
    n / h; (u, w) is that basis reduced.  outer = 0 gives g = n and
    step 1; n = 1 gives all of Z**2.
    """
    g, inv = _gcd_inverse(outer, n)
    step = n // g
    h, inv_s = _gcd_inverse(beta, g)
    u, w = _reduced((g // h, -(beta // h) % step * inv % step), (np.zeros_like(n), step))
    return g, inv, h, inv_s, u, w


def _coset_point(r, beta, n, g, inv, h, inv_s):
    """(ok, s, x) per element: a point of beta s + outer x = r (mod n),
    g, inv, h and inv_s as _plane_lattice gives them; where ok is False
    (h does not divide r) there is none and (s, x) means nothing."""
    step = n // g
    s = (r // h) * inv_s % (g // h)
    return r % h == 0, s, (r - beta * s) // g % step * inv % step


def _cofactor(a, i: int, j: int):
    """(-1)**(i + j) times the minor of the square nested list a without
    row i and column j: entry (j, i) of its adjugate."""
    rest = [row[:j] + row[j + 1 :] for r, row in enumerate(a) if r != i]
    return (-1) ** (i + j) * (_int_det(rest) if rest else np.ones_like(a[0][0]))


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


@functools.lru_cache(maxsize=None)
def _diagonal_keepers(d: int) -> tuple:
    """Per tie pattern p of a descending diagonal (bit k set when entries
    k and k+1 are equal), the indices of the group elements that keep
    every such diagonal: their permutations map each run of equal
    entries to itself."""
    perm = np.argmax(np.abs(signed_permutations(d)), axis=2)
    keepers = []
    for p in range(2 ** (d - 1)):
        run = np.cumsum([0] + [not p >> k & 1 for k in range(d - 1)])
        keepers.append(np.flatnonzero(np.all(run[perm] == run, axis=1)))
    return tuple(keepers)


def _orbits(full: np.ndarray, d: int):
    """The canonical rows of full (triangle, then det) and their weights.

    A row is canonical when no image under the group is above it in the
    canonical order.  Its weight is its orbit size, the number of its
    distinct images: the group order over the order of its stabilizer,
    the elements g with g.x = x.  The rows lie in R, so their diagonals
    descend, and an element that moves a row's diagonal gives an image
    with a lower one, neither above the row nor equal to it: each row is
    tested only against the elements that keep its diagonal, found by
    its tie pattern.
    """
    cols, signs, weights = _orbit_tables(d)
    tri = full[:, :-1]
    diag = tri[:, [c for c, (i, j) in enumerate(triangle_indices(d)) if i == j]]
    pattern = (diag[:, 1:] == diag[:, :-1]) @ (1 << np.arange(d - 1))
    canon = np.zeros(len(full), dtype=bool)
    stabilizer = np.zeros(len(full), dtype=np.int64)
    for p in np.unique(pattern):
        g = _diagonal_keepers(d)[p]
        every = np.flatnonzero(pattern == p)
        # about SCAN_BUDGET images per pass
        for rows in np.array_split(every, -(-every.size * g.size // SCAN_BUDGET)):
            x = tri[rows]
            order = np.sign(x[:, cols[g]] * signs[g] - x[:, None, :]) @ weights
            canon[rows] = np.all(order <= 0, axis=1)
            stabilizer[rows] = np.count_nonzero(order == 0, axis=1)
    return full[canon], len(cols) // stabilizer[canon]


def _scan(d: int, t: float, norm: str, threads: int | None):
    """Batches (full, weight): full is (n, d(d+1)/2 + 1) int64, the
    triangle then det, and weight (n,) int64 is how many forms each row
    stands for.

    The scan visits only the region R of the module docstring, and each
    batch holds canonical rows weighted by their orbit sizes, in no
    particular order.  Every emitted row's determinant is recomputed in
    full before it leaves.

    The leading blocks A are laid out at once and sorted by modulus
    (|det A|, or 1 where det A = 0).  A range of consecutive moduli whose
    square-root tables hold at most `budget` entries in all is one task,
    and a batch holds the candidates of at most about `budget` lattice
    lines, with budget = SCAN_BUDGET * threads: with `threads` > 1 the
    tasks go to that many workers, and larger batches keep each numpy
    call long enough that the workers do not queue on the interpreter
    lock (two workers on batches of SCAN_BUDGET lines ran count_ball(3,
    40) 15% slower than one).  The checks of d, T and the norm live
    here, so every scan makes them.
    """
    norm = _check_norm(norm)
    [t] = t_grid_values([t])
    if t < 1.0:
        raise ValueError("T must be at least 1")
    if d not in (2, 3, 4):
        raise ValueError("supported dimensions are 2, 3, 4")
    threads = resolve_threads(threads)
    lim = key_limit(t, norm)
    b = lim if norm == "max" else math.isqrt(lim)
    if d == 4 and b > 3:
        raise ValueError("d=4 enumeration is for smoke scales (entry bound <= 3)")
    # every Leibniz term is at most b**d, so no partial sum leaves d! b**d.
    # The window along a line (_quadratic_cover) multiplies values of the
    # form of adj(A), whose entries are at most (d-2)! b**(d-2), on vectors
    # with entries below z: a reduced lattice vector (its square at most
    # 2/sqrt(3) times a modulus, and a modulus at most m_max) or a line's
    # base point, moved to within |u| / 2 of the box centre's projection,
    # or i u, as q + i u is in the box: qa, qb, qc - e, qa i**2 and qb i are
    # at most k, and a numerator qc + i (2 qb + qa i) within 4 k + 1
    m_max = math.factorial(d - 1) * b ** (d - 1)
    z = 3 * b + math.isqrt(2 * m_max) + 1
    k = math.factorial(d - 2) * b ** (d - 2) * (d - 1) ** 2 * z * z
    bound = max(math.factorial(d) * b**d, k * (m_max * b + 2 * k + 2)) + 1
    if bound >= 2**62:
        raise OverflowError("entry bound too large for the 64-bit accumulator")
    tri = triangle_indices(d)
    weight = {(i, j): 1 if i == j else 2 for i, j in tri}
    # A in triangle order (its diagonal entries in turn), then
    # v = (q_1d, ..., q_(d-1)d): the early entries, s and x
    lead = [(i, j) for i, j in tri if j < d - 1]
    column = [(i, d - 1) for i in range(d - 1)]
    early, x = column[:-2], column[-1]
    si, xi = d - 3, d - 2

    def radius(rem, w: int):
        # the largest |value| of an entry of norm weight w within budget
        return np.full(len(rem), b) if norm == "max" else _isqrt(rem // w)

    def widen(rows: dict, rem, entries):
        # each row with every value of each entry in turn that keeps the
        # norm key within budget and the row in R; rows may carry other
        # per-row arrays, which follow
        for i, j in entries:
            r = radius(rem, weight[i, j])
            lo = np.zeros_like(r) if i == 0 < j else -r
            hi = np.minimum(r, rows[i - 1, i - 1]) if i == j > 0 else r
            counts, v = _ranges(lo, hi)
            rows = {k: np.repeat(a, counts) for k, a in rows.items()} | {(i, j): v}
            rem = np.repeat(rem, counts) - weight[i, j] * v * v
        return rows, rem

    def box(rem):
        # (s_lo, s_hi, x_lo, x_hi): the plane's box in R and the ball; s
        # is 0 for d = 2, and s or x is >= 0 where it is q_1d
        rx = radius(rem, 2)
        nil = np.zeros_like(rx)
        if d == 2:
            return nil, nil, nil, rx
        return (nil if d == 3 else -rx), rx, -rx, rx

    def spread(u, sides, p):
        # the range of cross(u, q) - p over the points q of the box: the
        # lines p0 + j w + i u that meet it have j in it over cross(u, w),
        # with p = cross(u, p0)
        (us, ux), (sl, sh, xl, xh) = u, sides
        top = np.maximum(us * xl, us * xh) - np.minimum(ux * sl, ux * sh)
        bottom = np.minimum(us * xl, us * xh) - np.maximum(ux * sl, ux * sh)
        return bottom - p, top - p

    def solve(rows: dict, rem):
        # q_dd = num / m by exact division where m != 0; where m = 0,
        # det Q = e needs num = 0, and q_dd sweeps its whole range
        quot, exact = _divide(rows["num"], rows["m"])
        r = radius(rem, 1)
        # the last bound of R: q_dd <= q_(d-1)(d-1)
        hi = np.minimum(r, rows[d - 2, d - 2])
        hit = np.nonzero(exact & (-r <= quot) & (quot <= hi))[0]
        flat = np.nonzero((rows["m"] == 0) & (rows["num"] == 0))[0]
        counts, sweep = _ranges(-r[flat], hi[flat])
        at = np.concatenate([hit, np.repeat(flat, counts)])
        return np.column_stack([rows[k][at] for k in tri[:-1]]
                               + [np.concatenate([quot[hit], sweep]), rows["e"][at]])

    def task(lo: int, hi: int, sel: slice):
        blk, rest = {k: v[sel] for k, v in blocks.items()}, rem[sel]
        a, m = _symmetric(d - 1, lead, [blk[k] for k in lead]), blk["m"]
        n = np.maximum(np.abs(m), 1)
        # det Q = m q_dd - F(v) with F(v) = v' adj(A) v, and
        # P = (adj(A) v)_x = M' x + beta s + gamma; the s of d = 2 is 0
        adj = {(i, j): _cofactor(a, i, j) for i in range(d - 1) for j in range(i, d - 1)}
        nil = np.zeros_like(m)

        def form(i: int, j: int):
            return nil if min(i, j) < 0 else adj[min(i, j), max(i, j)]

        outer, beta = form(xi, xi), form(si, xi)
        lattice = _plane_lattice(outer, beta, n)
        (us, ux), (ws, wx) = lattice[-2:]
        cross = us * wx - ux * ws
        # m q_dd lies in [low, high] for every q_dd in R and the ball
        r = radius(rest, 1)
        low, high = m * -r, m * np.minimum(r, blk[d - 2, d - 2])
        low, high = np.minimum(low, high), np.maximum(low, high)

        def candidates(rows: dict):
            # the points (s, x) of the coset P = r (mod |m|) of each row
            # (block, e, r) and early entries whose q_dd can lie in
            # [low, high]: the lines p + j w + i u through the box, each
            # cut to the window of F along it
            rows, left = widen(rows, rest[rows["k"]], early)
            k = rows["k"]
            gamma = sum(form(i, xi)[k] * rows[c] for i, c in enumerate(early))
            ok, ps, px = _coset_point(rows.pop("r") - gamma, beta[k], n[k],
                                      *(v[k] for v in lattice[:4]))
            sides = box(left)
            j0, j1 = spread((us[k], ux[k]), sides, us[k] * px - ux[k] * ps)
            j0 = -(-j0 // cross[k])
            counts, j = _ranges(j0, np.where(ok, j1 // cross[k], j0 - 1))
            rows = {c: np.repeat(v, counts) for c, v in rows.items()}
            k, left = rows["k"], np.repeat(left, counts)
            qs = np.repeat(ps, counts) + j * ws[k]
            qx = np.repeat(px, counts) + j * wx[k]
            # move each base point along its line next to the box's centre,
            # which bounds the window's products
            sl, sh, xl, xh = (np.repeat(v, counts) for v in sides)
            nu = us[k] ** 2 + ux[k] ** 2
            t = ((sl + sh - 2 * qs) * us[k] + (xl + xh - 2 * qx) * ux[k] + nu) // (2 * nu)
            qs, qx = qs + t * us[k], qx + t * ux[k]
            # i within the box
            i0, i1 = _line_range(sl - qs, sh - qs, us[k])
            k0, k1 = _line_range(xl - qx, xh - qx, ux[k])
            i0, i1 = np.maximum(i0, k0), np.minimum(i1, k1)
            # and within the window: m q_dd = e + F(q + i u) = qa i**2 +
            # 2 qb i + qc for q = (early, qs, qx) and u = (0, us, ux)
            q, idx = [rows[c] for c in early] + [qs, qx], [*range(d - 3), si, xi]
            bu = [form(c, si)[k] * us[k] + form(c, xi)[k] * ux[k] for c in idx]
            fq = sum(form(c, l)[k] * q[p] * q[o] * (1 + (p != o))
                     for p, c in enumerate(idx) for o, l in enumerate(idx) if o >= p)
            qa, qb = bu[-2] * us[k] + bu[-1] * ux[k], sum(map(operator.mul, q, bu))
            qc = rows["e"] + fq
            window = _quadratic_cover(qa, qb, qc, low[k], high[k])
            parts = [_ranges(np.maximum(i0, y0), np.minimum(i1, y1)) for y0, y1 in window]
            i = np.concatenate([v for _, v in parts])
            at = np.concatenate([np.repeat(np.arange(k.size), cnt) for cnt, _ in parts])
            k = k[at]
            cand = {c: rows[c][at] for c in [*early, "e"]} | {c: v[k] for c, v in blk.items()}
            cand[x] = qx[at] + i * ux[k]
            # m q_dd, read off the window's quadratic
            cand["num"] = qc[at] + i * (2 * qb[at] + qa[at] * i)
            left = left[at] - 2 * cand[x] ** 2
            if d > 2:
                cand[column[-2]] = qs[at] + i * us[k]
                left -= 2 * cand[column[-2]] ** 2
            if norm == "max":
                return cand, left
            # the box holds the disk of the budget
            keep = left >= 0
            return {c: v[keep] for c, v in cand.items()}, left[keep]

        # per block and target e, the square roots r of -e M' mod |m|
        roots, first, at = _root_table(lo, hi)
        k = np.repeat(np.arange(m.size), 2)
        e = np.tile([1, -1], m.size)
        slot = at[n[k] - lo] + (-e * outer[k]) % n[k]
        counts, where = _ranges(first[slot], first[slot + 1] - 1)
        k, e, r = np.repeat(k, counts), np.repeat(e, counts), roots[where]
        # lines per root and early entries: an upper bound, which sizes
        # the batches
        j0, j1 = spread((us, ux), box(rest), nil)
        lines = math.prod((radius(rest, 2) * (1 + (i > 0)) + 1 for i, _ in early),
                          start=(j1 - j0) // cross + 2)
        for part in _pieces(lines[k], budget):
            full, sizes = _orbits(solve(*candidates({"k": k[part], "e": e[part],
                                                     "r": r[part]})), d)
            if not full.shape[0]:
                continue
            # the audit recomputes each row's determinant in full
            if not np.array_equal(_int_det(_symmetric(d, tri, full.T)), full[:, -1]):
                raise RuntimeError("internal determinant check failed")
            yield full, sizes

    # the blocks A, each with m = det A, which the tasks read
    blocks, rem = widen({}, np.array([lim], dtype=np.int64), lead)
    blocks["m"] = _int_det(_symmetric(d - 1, lead, [blocks[k] for k in lead]))
    order = np.argsort(np.abs(blocks["m"]), kind="stable")
    rem, blocks = rem[order], {k: v[order] for k, v in blocks.items()}
    modulus = np.maximum(np.abs(blocks["m"]), 1)
    del order
    # moduli 1 .. top in ranges whose tables hold at most budget entries
    budget, ranges = SCAN_BUDGET * threads, []
    for part in _pieces(np.arange(1, int(modulus[-1]) + 1), budget):
        lo, hi = part.start + 1, part.stop
        sel = slice(*np.searchsorted(modulus, [lo, hi + 1]).tolist())
        if sel.stop > sel.start:
            ranges.append((lo, hi, sel))
    if threads <= 1 or len(ranges) <= 1:
        for args in ranges:
            yield from task(*args)
        return

    def run(args):
        return list(task(*args))

    # at most `threads` tasks run ahead of the consumer, in order, so a
    # task's batches wait in memory only until their turn and closing
    # the scan early waits for those tasks alone
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = collections.deque(pool.submit(run, args) for args in ranges[:threads])
        for args in ranges[threads:]:
            batches = ahead.popleft().result()
            ahead.append(pool.submit(run, args))
            yield from batches
        while ahead:
            yield from ahead.popleft().result()


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
    are cut into chunks of TALLY_ROWS rows (the last may be shorter),
    and each chunk gets one norm-key pass and one call per verdict; an
    empty ball is one empty chunk.  Returns the ball count
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
    """The triangles and weights of the scan's batches in chunks of
    TALLY_ROWS rows, however large a batch is; the last chunk may be
    short, and a scan with no rows gives one empty chunk."""
    empty = np.zeros((0, width), dtype=np.int64), np.zeros(0, dtype=np.int64)
    pending, rows = [empty], 0
    for full, weight in batches:
        pending.append((full[:, :-1], weight))
        rows += full.shape[0]
        if rows >= TALLY_ROWS:
            tri, weight = (np.concatenate(part) for part in zip(*pending))
            cut = rows - rows % TALLY_ROWS
            for at in range(0, cut, TALLY_ROWS):
                yield tri[at : at + TALLY_ROWS], weight[at : at + TALLY_ROWS]
            rows -= cut
            pending = [(tri[cut:], weight[cut:])] if rows else []
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
