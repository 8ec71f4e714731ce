"""Enumeration correctness against box-scan oracles, plus GL_d(Z) classes."""

import collections
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_force_forms
from qfsectors import enumeration, sector
from qfsectors.enumeration import (
    NORMS,
    TALLY_ROWS,
    QuadraticForm,
    _det_split,
    _int_det,
    _scan,
    count_ball,
    count_ball_grid,
    entry_bound,
    enumerate_forms,
    iter_form_batches,
    orbit_enumerate,
    resolve_threads,
    t_grid_values,
    tally,
    triangle_indices,
)
from qfsectors.jacobi import jacobi_eigh
from qfsectors.sector import (
    Cap,
    _classify_batch,
    count_sector,
    make_spec,
    sign_pattern_specs,
    tally_verdict,
)
from qfsectors.volume import context_pq, volume_series


def test_d3_matches_brute_force_at_t15(brute_d3_t15):
    got = [f.entries for f in enumerate_forms(3, 1.5)]
    assert got == brute_d3_t15
    assert len(got) == 308


def test_d3_matches_brute_force_at_t25():
    got = [f.entries for f in enumerate_forms(3, 2.5)]
    assert got == brute_force_forms(3, 2.5)


def test_d3_frobenius_matches_brute_force():
    got = [f.entries for f in enumerate_forms(3, 2.2, norm="frobenius")]
    assert got == brute_force_forms(3, 2.2, norm="frobenius")


def test_d2_matches_brute_force():
    for t in (1.5, 2.5, 4.0):
        got = sorted(f.entries for f in enumerate_forms(2, t))
        assert got == brute_force_forms(2, t)
    got = sorted(f.entries for f in enumerate_forms(2, 3.0, norm="frobenius"))
    assert got == brute_force_forms(2, 3.0, norm="frobenius")


def test_d4_matches_brute_force_at_t15():
    got = sorted(f.entries for f in enumerate_forms(4, 1.5))
    assert got == brute_force_forms(4, 1.5)


def test_d4_ball_counts():
    # reproduced by an independent chunked box scan
    assert count_ball(4, 2.5, "frobenius") == 1036
    assert count_ball(4, 3.0, "frobenius") == 5356
    pointwise = [count_ball(4, t) for t in (1.5, 2.5)]
    assert pointwise[1] == 464924
    assert count_ball_grid(4, [1.5, 2.5]) == pointwise


D4_KS = (2, 3, 4)


@functools.lru_cache(maxsize=None)
def _sign_sector_series(d, norm, grid):
    """count_sector over one grid for every sign pattern, one scan each."""
    return [count_sector(grid, spec) for spec in sign_pattern_specs(d, norm=norm)]


def _d4_sign_sectors(norm):
    """Sign-sector counts plus the degenerate forms at T = sqrt(2), sqrt(3)
    and 2."""
    series = _sign_sector_series(4, norm, tuple(math.sqrt(k) for k in D4_KS))
    return {
        k: sum(s.values[i] for s in series) + series[0].degenerate[i]
        for i, k in enumerate(D4_KS)
    }


@pytest.mark.parametrize("norm", ("max", "frobenius"))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_d4_entry_points_agree_at_sqrt_k(k, norm):
    t = math.sqrt(k)
    expected = len(brute_force_forms(4, t, norm))
    assert count_ball(4, t, norm) == expected
    assert count_ball_grid(4, [1.0, t], norm)[-1] == expected
    assert _d4_sign_sectors(norm)[k] == expected


def _gauss_det(mat):
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((r for r in range(k, len(a)) if a[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 5),
    entries=st.lists(st.integers(-40, 40), min_size=15, max_size=15),
)
def test_laplace_split_matches_the_full_determinant(d, entries):
    mat = [[0] * d for _ in range(d)]
    for (i, j), v in zip(triangle_indices(d), entries):
        mat[i][j] = mat[j][i] = v
    det = _int_det(mat)
    assert det == _gauss_det(mat)
    minor, const = _det_split(mat)
    assert minor == _int_det([row[:-1] for row in mat[:-1]])
    assert det == minor * mat[-1][-1] + const


def test_each_form_is_valid():
    for f in enumerate_forms(3, 3.0):
        assert f.det in (1, -1)
        assert f.norm < 3.0
        m = f.matrix()
        assert np.array_equal(m, m.T)
        assert round(float(np.linalg.det(m))) == f.det
        assert f.norm == float(np.abs(m).max())


def test_forms_arrive_in_lex_order_without_duplicates():
    entries = [f.entries for f in enumerate_forms(3, 2.5)]
    assert entries == sorted(set(entries))


def test_count_ball_agrees_with_enumeration():
    for norm in ("max", "frobenius"):
        n = count_ball(3, 3.0, norm=norm)
        assert n == len(list(enumerate_forms(3, 3.0, norm=norm)))


def test_count_ball_grid_single_scan_matches_pointwise():
    grid = [1.5, 2.0, 3.0]
    assert count_ball_grid(3, grid) == [count_ball(3, t) for t in grid]
    with pytest.raises(ValueError):
        count_ball_grid(3, [3.0, 2.0])


def test_every_count_rejects_an_empty_grid():
    spec = sign_pattern_specs(3)[0]
    for call in (lambda: count_ball_grid(3, []), lambda: tally(3, [], "max"),
                 lambda: count_sector([], spec)):
        with pytest.raises(ValueError, match="T grid must be nonempty and increasing"):
            call()
    # equal neighbours are a grid too
    assert count_ball_grid(3, [2.0, 2.0]) == [308, 308]


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_every_count_rejects_a_non_finite_threshold(bad):
    spec = sign_pattern_specs(3)[0]
    grid = [bad, 3.0] if bad < 0 else [3.0, bad]
    for call in (lambda: t_grid_values(grid), lambda: count_ball_grid(3, grid),
                 lambda: tally(3, grid, "max"), lambda: count_sector(grid, spec),
                 lambda: volume_series(context_pq(3, 2, 1), [6.0, bad])):
        with pytest.raises(ValueError, match="T grid values must be finite"):
            call()


def _scan_rows(d, t, norm):
    """Every row of the scan, each expanded to its orbit by the group
    built here, in the order the scan emits them."""
    empty = np.zeros((0, len(triangle_indices(d)) + 1), dtype=np.int64)
    return np.concatenate([empty, *(_expanded(full, d) for full, _ in _scan(d, t, norm, None))])


def _oracle_rows(d, t, norm):
    """brute_force_forms with each form's determinant, from a float
    determinant of the small entries, as a last column."""
    tri = np.array(brute_force_forms(d, t, norm), dtype=np.int64)
    tri = tri.reshape(-1, len(triangle_indices(d)))
    det = np.rint(np.linalg.det(_matrices(tri, d))).astype(np.int64)
    return np.column_stack([tri, det])


def _signed_permutations(d):
    """Every signed permutation matrix of size d, built without the package."""
    return np.array([np.diag(s)[list(p)] for p in itertools.permutations(range(d))
                     for s in itertools.product((1, -1), repeat=d)])


def _matrices(tri, d):
    """(n, d, d): the symmetric matrices of a batch of upper triangles."""
    mats = np.zeros((len(tri), d, d), dtype=tri.dtype)
    for c, (i, j) in enumerate(triangle_indices(d)):
        mats[:, i, j] = mats[:, j, i] = tri[:, c]
    return mats


def _images(tri, d):
    """(n, group, d, d): each upper triangle's conjugates by the group."""
    group = _signed_permutations(d)
    return np.einsum("gik,nkl,gjl->ngij", group, _matrices(tri, d), group)


def _expanded(full, d):
    """The distinct images of each row of full (triangle, then det) under
    the group built here: row by row, each row's images in sorted order."""
    i, j = np.array(triangle_indices(d)).T
    tri = _images(full[:, :-1], d)[:, :, i, j]
    n, g, k = tri.shape
    keyed = np.concatenate([np.repeat(np.arange(n), g)[:, None], tri.reshape(-1, k),
                            np.repeat(full[:, -1], g)[:, None]], axis=1)
    return np.unique(keyed, axis=0)[:, 1:]


def _per_form_tally(d, grid, norm, specs):
    """What tally gives for the specs' verdicts, but over every form of
    iter_form_batches, each weighing 1 and classified on its own by
    _classify_batch, frame included: no orbit enters.  The forms are
    classified TALLY_ROWS at a time."""
    limits = np.array([enumeration.key_limit(t, norm) for t in grid])
    ball = np.zeros(len(grid), dtype=np.int64)
    counts = np.zeros((len(specs), 2, len(grid)), dtype=np.int64)
    for batch, _, _ in iter_form_batches(d, grid[-1], norm):
        for tri in np.split(batch, range(TALLY_ROWS, len(batch), TALLY_ROWS)):
            inside = enumeration.norm_keys(tri, d, norm)[:, None] <= limits
            ball += inside.sum(axis=0)
            for count, spec in zip(counts, specs):
                masks = _classify_batch(tri, d, spec)
                count += [np.sum(inside & mask[:, None], axis=0) for mask in masks]
    return ball.tolist(), counts.tolist()


@st.composite
def scan_cases(draw):
    """(d, norm, T), with T on an exact norm boundary about half the time
    under either norm: an integer for max, and sqrt(k) for an integer k
    for frobenius, which squares either side of k."""
    d = draw(st.sampled_from((2, 3, 4)))
    norm = draw(st.sampled_from(NORMS))
    if norm == "max":
        return d, norm, draw(st.integers(2, {2: 16, 3: 9, 4: 4}[d])) / 2
    return d, norm, math.sqrt(draw(st.integers(2, {2: 120, 3: 60, 4: 20}[d])) / 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=scan_cases())
def test_reduced_scan_emits_the_full_traversal(case):
    """The scan over R, with each canonical row expanded to its orbit,
    gives the forms of the box scan and their determinants, each once,
    in another order."""
    d, norm, t = case
    reduced = _scan_rows(d, t, norm)
    assert len(np.unique(reduced, axis=0)) == len(reduced)
    assert np.array_equal(reduced[np.lexsort(reduced.T[::-1])], _oracle_rows(d, t, norm))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=scan_cases())
def test_form_batches_stream_the_box_scan_in_order(case):
    """iter_form_batches gives the box scan's forms, determinants and
    norms in its lexicographic order, one batch per value of q11."""
    d, norm, t = case
    width = len(triangle_indices(d))
    batches = list(iter_form_batches(d, t, norm))
    rows = np.concatenate([np.zeros((0, width + 1), dtype=np.int64)]
                          + [np.column_stack([tri, det]) for tri, det, _ in batches])
    assert np.array_equal(rows, _oracle_rows(d, t, norm))
    assert [set(tri[:, 0].tolist()) for tri, _, _ in batches] == \
        [{v} for v in sorted(set(rows[:, 0].tolist()))]
    norms = np.concatenate([np.zeros(0)] + [n for _, _, n in batches])
    keys = enumeration.norm_keys(rows[:, :-1], d, norm)
    assert np.array_equal(norms, keys if norm == "max" else np.sqrt(keys))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(norm=st.sampled_from(NORMS), k=st.integers(4, 30))
def test_tally_over_the_reduced_scan_equals_the_full_traversal(norm, k):
    """The eight sign verdicts (exact), a windowed (1,2) sector (float)
    and a cap, counted per orbit, count what classifying each form of
    the ball does."""
    top = math.sqrt(k) if norm == "frobenius" else k / 4
    grid = [1.0, (1.0 + top) / 2, top]
    specs = sign_pattern_specs(3) + [
        make_spec((1, 2), ["+", (1, 1)], norm="frobenius", block_window=0.6),
    ]
    cap = make_spec((1, 1, 1), ["+", "+", "-"], frame=Cap((0, 0, 1), 0.8), norm=norm)
    specs.append(cap)
    verdicts = [tally_verdict(spec) for spec in specs]
    assert tally(3, grid, norm, verdicts) == _per_form_tally(3, grid, norm, specs)


def _counting_solves(monkeypatch):
    """Patch _det_split to record the candidates of every batch: the
    points whose q_dd the exact division solves."""
    solved = []

    def counted(m):
        minor, const = _det_split(m)
        solved.append(np.broadcast(minor, const).size)
        return minor, const

    monkeypatch.setattr(enumeration, "_det_split", counted)
    return solved


@pytest.mark.parametrize("norm, t, forms, candidates, rows", [
    pytest.param("max", 12.5, 313_604, 37_196, 13_168, id="max-12.5"),
    pytest.param("frobenius", 14.0, 86_324, 11_070, 3_670, id="frobenius-14.0"),
    pytest.param("frobenius", 48.0, 4_059_332, 803_462, 169_456, id="frobenius-48.0"),
])
def test_scan_solves_a_pinned_number_of_candidates(monkeypatch, norm, t, forms, candidates,
                                                   rows):
    """The congruence and the window leave the exact division a few
    candidates per canonical row, where a grid over the box of free
    entries would divide at 25**5 / 8 points for entry bound 12.  The
    forms are the box scan's counts."""
    solved = _counting_solves(monkeypatch)
    assert tally(3, [t], norm)[0] == [forms]
    assert sum(solved) == candidates
    solved.clear()
    assert sum(len(full) for full, _ in _scan(3, t, norm, None)) == rows
    assert candidates <= 5 * rows


@pytest.mark.parametrize("norm, t", [("max", 12.5), ("frobenius", 14.0)])
def test_batch_budget_changes_no_candidate(monkeypatch, norm, t):
    """A smaller budget makes more batches and root tables of fewer
    moduli, but the same candidates and the same canonical rows."""
    solved = _counting_solves(monkeypatch)
    rows = np.concatenate([full for full, _ in _scan(3, t, norm, None)])
    batches, candidates = len(solved), sum(solved)
    solved.clear()
    monkeypatch.setattr(enumeration, "SCAN_BUDGET", 256)
    small = np.concatenate([full for full, _ in _scan(3, t, norm, None)])
    assert len(solved) > batches and sum(solved) == candidates
    assert np.array_equal(np.unique(small, axis=0), np.unique(rows, axis=0))


def _minor(mat, rows, cols):
    return _gauss_det([[mat[i][j] for j in cols] for i in rows]) if rows else 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 4),
    entries=st.lists(st.integers(-9, 9), min_size=10, max_size=10),
    x=st.integers(-9, 9),
)
def test_desnanot_jacobi_fixes_p_modulo_m(d, entries, x):
    """det(Q) M' = m N - P**2, with m = det A for the leading (d-1)
    block A, M' its leading (d-2) minor, N the minor without row and
    column d-1 and P the one without row d-1 and column d.  P is
    M' x + P(0) in x = q_(d-1)d, and it is (adj(A) v)_x, v the last
    column above q_dd, while det(Q) = m q_dd - v' adj(A) v, with the
    adjugate from enumeration._cofactor."""
    mat = [[0] * d for _ in range(d)]
    for (i, j), v in zip(triangle_indices(d), entries):
        mat[i][j] = mat[j][i] = v
    mat[d - 2][d - 1] = mat[d - 1][d - 2] = x
    low, rest = list(range(d - 2)), list(range(d - 1))
    outer, m = _minor(mat, low, low), _minor(mat, rest, rest)
    n = _minor(mat, low + [d - 1], low + [d - 1])
    p = _minor(mat, low + [d - 1], rest)
    assert _gauss_det(mat) * outer == m * n - p * p
    at0 = [row[:] for row in mat]
    at0[d - 2][d - 1] = at0[d - 1][d - 2] = 0
    assert p - _minor(at0, low + [d - 1], rest) == outer * x
    a = [row[: d - 1] for row in mat[: d - 1]]
    adj = [[int(enumeration._cofactor(a, i, j)) for j in rest] for i in rest]
    v = [mat[i][d - 1] for i in rest]
    assert adj[d - 2][d - 2] == outer
    assert sum(adj[i][d - 2] * v[i] for i in rest) == p
    form = sum(adj[i][j] * v[i] * v[j] for i in rest for j in rest)
    assert _gauss_det(mat) == m * mat[d - 1][d - 1] - form


def test_root_table_lists_each_square_root_once():
    """For every modulus M <= 300 and every residue a, the table lists
    each r in [0, M) with r*r = a (mod M) once, ascending; a table that
    starts past 1 agrees."""
    for lo, hi in ((1, 300), (151, 300)):
        roots, first, at = enumeration._root_table(lo, hi)
        assert len(roots) == len(first) - 1 == sum(range(lo, hi + 1))
        for big in range(lo, hi + 1):
            expected = [[] for _ in range(big)]
            for r in range(big):
                expected[r * r % big].append(r)
            slot = at[big - lo]
            got = roots[first[slot] : first[slot + big]].tolist()
            assert got == [r for rs in expected for r in rs]
            assert [first[slot + a + 1] - first[slot + a] for a in range(big)] == \
                [len(rs) for rs in expected]


def test_gcd_inverse_and_the_plane_lattice():
    """_gcd_inverse against math.gcd and pow, M' = 0 and |m| = 1
    included; and the lattice coset of _plane_lattice and _coset_point
    holds exactly the (s, x) with beta s + M' x = r (mod n), with a
    reduced basis: u shortest, cross(u, w) = n / h > 0."""
    a, n = (v.ravel() for v in np.meshgrid(np.arange(-12, 13), np.arange(1, 31)))
    g, inv = enumeration._gcd_inverse(a, n)
    assert g.tolist() == [math.gcd(int(p), int(q)) for p, q in zip(a, n)]
    for p, q, gg, iv in zip(a.tolist(), n.tolist(), g.tolist(), inv.tolist()):
        assert iv == (pow(p // gg, -1, q // gg) if q > gg else 0)
    grid = np.arange(-14, 15)
    s, x = (v.ravel() for v in np.meshgrid(grid, grid))
    k = np.arange(-40, 41)
    i, j = (v.ravel() for v in np.meshgrid(k, k))
    for outer, beta, modulus in itertools.product(range(-3, 4), range(-3, 4), range(1, 11)):
        o, b_, nn = (np.array([v]) for v in (outer, beta, modulus))
        g, inv, h, inv_s, (us, ux), (ws, wx) = enumeration._plane_lattice(o, b_, nn)
        cross = int(us[0] * wx[0] - ux[0] * ws[0])
        assert cross * int(h[0]) == modulus
        assert us[0] ** 2 + ux[0] ** 2 <= ws[0] ** 2 + wx[0] ** 2
        assert 2 * abs(int(us[0] * ws[0] + ux[0] * wx[0])) <= us[0] ** 2 + ux[0] ** 2
        for r in range(modulus):
            ok, ps, px = enumeration._coset_point(np.array([r]), b_, nn, g, inv, h, inv_s)
            want = {(p, q) for p, q in zip(s.tolist(), x.tolist())
                    if (beta * p + outer * q - r) % modulus == 0}
            assert bool(ok[0]) == bool(want)
            if ok[0]:
                ls, lx = ps[0] + i * us[0] + j * ws[0], px[0] + i * ux[0] + j * wx[0]
                inside = (np.abs(ls) <= 14) & (np.abs(lx) <= 14)
                assert set(zip(ls[inside].tolist(), lx[inside].tolist())) == want


def test_quadratic_cover_is_exact():
    """The two intervals of _quadratic_cover are disjoint and hold every
    x in [-40, 40] with low <= a x**2 + 2 b x + c <= high and no other,
    the linear and constant cases a = 0 included."""
    vals = np.arange(-4, 5)
    a, b, c, low, span = (v.ravel() for v in np.meshgrid(vals, vals, vals, np.arange(-9, 10),
                                                          np.arange(-1, 6)))
    high = low + span
    x = np.arange(-40, 41)
    f = a[:, None] * x * x + 2 * b[:, None] * x + c[:, None]
    want = (low[:, None] <= f) & (f <= high[:, None])
    (x1, y1), (x2, y2) = enumeration._quadratic_cover(a, b, c, low, high)
    first = (x1[:, None] <= x) & (x <= y1[:, None])
    second = (x2[:, None] <= x) & (x <= y2[:, None])
    assert not np.any(first & second)
    assert np.array_equal(first | second, want)


def test_isqrt_is_exact_up_to_2_to_the_62():
    k = np.array([0, 1, 2, 3, 1000, 2**26 + 1, 2**31 - 1, 3037000499 // 2, 2**31 + 5],
                 dtype=np.int64)
    n = np.concatenate([k * k, k * k - 1, k * k + 1])
    n = n[(n >= 0) & (n < 2**62)]
    assert enumeration._isqrt(n).tolist() == [math.isqrt(int(v)) for v in n]


def test_each_batch_is_whole_orbits_with_a_canonical_row_in_r():
    """With the group built here from signed permutation matrices: each
    row of the reduced d=3 scan is its orbit's maximum in the canonical
    order (diagonal first) and lies in R, each orbit size divides 24,
    the order of the group mod -I, and the rows' orbits cover the ball,
    each orbit once."""
    d, t = 3, 3.5
    idx = triangle_indices(d)
    rank = [idx.index((i, i)) for i in range(d)] + [c for c, (i, j) in enumerate(idx) if i < j]
    seen = set()
    for batch, _ in _scan(d, t, "max", None):
        tri = batch[:, :-1]
        for row, orbit_images in zip(map(tuple, tri.tolist()), _images(tri, d)):
            orbit = {tuple(int(m[i, j]) for i, j in idx) for m in orbit_images}
            assert 24 % len(orbit) == 0
            top = max(orbit, key=lambda e: [e[c] for c in rank])
            assert row == top
            top = dict(zip(idx, top))
            assert all(top[i, i] >= top[i + 1, i + 1] for i in range(d - 1))
            assert all(top[0, j] >= 0 for j in range(1, d))
            assert not orbit & seen
            seen |= orbit
    assert len(seen) == count_ball(d, t)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("d,t", ((2, 6.5), (3, 3.5), (4, 2.0)))
def test_each_canonical_row_weighs_its_orbit_size(d, t, norm):
    """With the group built here: every row of the reduced scan weighs
    the number of its distinct images, and the weights add up to the
    box scan's form count."""
    idx = triangle_indices(d)
    total = 0
    for full, weight in _scan(d, t, norm, None):
        sizes = [len({tuple(int(m[i, j]) for i, j in idx) for m in orbit})
                 for orbit in _images(full[:, :-1], d)]
        assert weight.tolist() == sizes
        total += int(weight.sum())
    assert total == len(brute_force_forms(d, t, norm))


@pytest.mark.parametrize("norm", NORMS)
def test_weighted_tally_equals_the_full_traversal_in_d3(norm):
    """The eight exact sign verdicts and the windowed (1,2) float verdict
    see only canonical rows; a cap, which is not constant on orbits,
    counts each orbit's accepted images through count_sector.  Each
    counts what classifying each form of the ball does."""
    grid = [1.0, 4.0, 6.5] if norm == "max" else [1.0, math.sqrt(20), math.sqrt(60)]
    specs = sign_pattern_specs(3) + [
        make_spec((1, 2), ["+", (1, 1)], norm="frobenius", block_window=0.6)]
    cap = make_spec((1, 1, 1), ["+", "+", "-"], frame=Cap((0, 0, 1), 0.8), norm=norm)
    weighted = tally(3, grid, norm, [tally_verdict(spec) for spec in specs])
    framed = count_sector(grid, cap)
    ball, per_form = _per_form_tally(3, grid, norm, specs + [cap])
    assert weighted == (ball, per_form[:-1])
    assert [[int(v) for v in framed.values], list(framed.degenerate)] == per_form[-1]
    assert framed.values[-1] > 0


def test_weighted_tally_equals_the_full_traversal_in_d4(monkeypatch):
    """The sixteen d=4 sign verdicts over 2,648 canonical rows count what
    they count over the 464,924 forms of the T=2.5 ball.  Form by form,
    each chunk's spectrum is solved once and shared by the sixteen
    verdicts, which would each solve the same one."""
    grid = [1.5, 2.0, 2.5]
    specs = sign_pattern_specs(4)
    weighted = tally(4, grid, "max", [tally_verdict(spec) for spec in specs])
    solve = sector._eigvals_batch
    shared = {}

    def once(mats):
        key = mats.tobytes()
        if key not in shared:
            shared.clear()
            shared[key] = solve(mats)
        return shared[key].copy()

    monkeypatch.setattr(sector, "_eigvals_batch", once)
    assert _per_form_tally(4, grid, "max", specs) == weighted
    assert weighted[0] == [16700, 16700, 464924]


# the d = 4 grid is the one _d4_sign_sectors scans, so its series are shared
TALLY_GRIDS = {2: (1.5, 2.0, 2.5), 3: (1.5, 2.0, 2.5), 4: tuple(math.sqrt(k) for k in D4_KS)}


@pytest.mark.parametrize("norm", ("max", "frobenius"))
@pytest.mark.parametrize("d", (2, 3, 4))
def test_one_tally_counts_the_ball_and_every_sign_sector(d, norm):
    """One scan with a verdict per sign pattern gives the ball counts and
    each pattern's member and degenerate counts, as the separate scans do."""
    grid = TALLY_GRIDS[d]
    specs = sign_pattern_specs(d, norm=norm)
    ball, counts = tally(d, grid, norm, [tally_verdict(spec) for spec in specs])
    assert ball == count_ball_grid(d, grid, norm)
    series = _sign_sector_series(d, norm, grid)
    assert counts == [[[int(v) for v in s.values], list(s.degenerate)] for s in series]
    assert sum(c[0][-1] for c in counts) + counts[0][1][-1] == ball[-1]


def test_tally_of_an_empty_ball_still_counts_each_verdict():
    # the cap verdict also solves the spectra of its (no) member rows
    cap = make_spec((1, 1, 1), ["+", "+", "-"], frame=Cap((0, 0, 1), 0.8))
    specs = [sign_pattern_specs(3)[0], cap]
    ball, counts = tally(3, [1.0], "max", [tally_verdict(spec) for spec in specs])
    assert ball == [0] and counts == [[[0], [0]]] * 2


def test_tally_calls_each_verdict_once_per_chunk_of_at_least_tally_rows():
    """Chunks hold the canonical rows of the reduced scan and their
    weights; a verdict that counts each row's weight counts the ball."""
    sizes = []

    def verdict(tri, weight):
        sizes.append(tri.shape[0])
        return (weight,)

    # T = 14: at T = 6 there are fewer than two chunks of canonical rows;
    # a scan batch can hold thousands of rows, and is cut to the chunks
    ball, [[every]] = tally(3, [3.0, 14.0], "max", [verdict])
    assert len(sizes) > 2 and set(sizes[:-1]) == {TALLY_ROWS} and sizes[-1] <= TALLY_ROWS
    rows = sum(len(full) for full, _ in _scan(3, 14.0, "max", None))
    assert sum(sizes) == rows < ball[-1] and every == ball


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    d=st.sampled_from((2, 3)),
    norm=st.sampled_from(("max", "frobenius")),
    k=st.integers(1, 20),
)
def test_entry_points_agree_at_sqrt_k(d, norm, k):
    """On T = sqrt(k) a form with norm squared k is inside exactly when
    the float T squares above k; every entry point decides it the same way."""
    t = math.sqrt(k)
    expected = len(brute_force_forms(d, t, norm))
    assert count_ball(d, t, norm) == expected
    assert count_ball_grid(d, [1.0, t], norm)[-1] == expected
    series = [count_sector([t], spec) for spec in sign_pattern_specs(d, norm=norm)]
    assert sum(s.values[0] for s in series) + series[0].degenerate[0] == expected


def test_frobenius_boundary_counts_include_exact_squares():
    # float(sqrt(17))**2 rounds to 17.0 but the rational square exceeds 17
    assert count_ball_grid(3, [math.sqrt(5), math.sqrt(17)], "frobenius") == [116, 1652]
    assert count_ball(3, math.sqrt(17), "frobenius") == 1652


def test_thresholds_are_strict():
    # norm < 1 admits only the zero matrix, which is not unimodular
    assert count_ball(3, 1.0) == 0
    # entries of absolute value 2 require T > 2
    at2 = {f.entries for f in enumerate_forms(3, 2.0)}
    assert all(max(abs(v) for v in e) <= 1 for e in at2)
    with pytest.raises(ValueError):
        count_ball(3, 0.5)


def test_threads_do_not_change_results(monkeypatch):
    for d, t, norm in ((2, 7.5, "max"), (4, 2.0, "max"), (4, 3.0, "frobenius")):
        assert count_ball(d, t, norm, threads=2) == count_ball(d, t, norm)
    streams = [list(iter_form_batches(3, 6.0, "frobenius", threads=n)) for n in (1, 2)]
    assert len(streams[0]) == len(streams[1])
    for one, two in zip(*streams):
        assert all(np.array_equal(a, b) for a, b in zip(one, two))
    base = count_ball(3, 4.0)
    assert count_ball(3, 4.0, threads=2) == base
    monkeypatch.setenv("QFSECTORS_THREADS", "3")
    assert resolve_threads() == 3
    assert count_ball(3, 4.0) == base
    monkeypatch.delenv("QFSECTORS_THREADS")
    assert resolve_threads() == 1
    assert resolve_threads(5) == 5


def test_thread_pool_keeps_at_most_threads_tasks_ahead(monkeypatch):
    """With threads > 1 the scan submits a task only when one of the
    `threads` tasks ahead of the consumer is handed over, so closing the
    scan after its first batch leaves no queue of tasks to wait for."""
    state = {"submitted": 0, "ahead": 0, "peak": 0}

    class Counting(enumeration.ThreadPoolExecutor):
        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            state["submitted"] += 1
            state["ahead"] += 1
            state["peak"] = max(state["peak"], state["ahead"])
            read = future.result

            def result(timeout=None):
                state["ahead"] -= 1
                return read(timeout)

            future.result = result
            return future

    monkeypatch.setattr(enumeration, "ThreadPoolExecutor", Counting)
    # entry bound 12 gives six ranges of moduli at threads=2
    assert count_ball(3, 12.5, threads=2) == count_ball(3, 12.5) == 313604
    assert state["submitted"] == 6
    assert (state["ahead"], state["peak"]) == (0, 2)
    state.update(submitted=0, ahead=0)
    scan = _scan(3, 12.5, "max", 2)
    next(scan)
    scan.close()
    assert state["submitted"] == 3


@pytest.mark.parametrize("t", (math.nan, math.inf))
@pytest.mark.parametrize("entry", (
    lambda t: next(iter_form_batches(3, t)),
    lambda t: next(enumerate_forms(3, t)),
    lambda t: orbit_enumerate(np.eye(3, dtype=np.int64), t),
    lambda t: count_ball(3, t),
), ids=("iter_form_batches", "enumerate_forms", "orbit_enumerate", "count_ball"))
def test_every_scan_rejects_a_t_that_is_not_finite(entry, t):
    with pytest.raises(ValueError, match="^T grid values must be finite$"):
        entry(t)


def test_batches_carry_consistent_norms():
    for tri, det, norms in iter_form_batches(3, 3.0, "frobenius"):
        weights = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
        recomputed = np.sqrt((tri.astype(float) ** 2) @ weights)
        assert np.allclose(norms, recomputed)
        assert np.all(np.isin(det, (-1, 1)))


def test_dimension_and_scale_guards():
    # the scan makes these checks, so the tally behind every count makes them too
    for scan in (lambda *a: list(iter_form_batches(*a)), count_ball):
        with pytest.raises(ValueError):
            scan(5, 2.0)
        with pytest.raises(ValueError):
            scan(4, 6.0)  # d=4 stays at smoke scale
        with pytest.raises(ValueError, match="T must be at least 1"):
            scan(3, 0.5)
        with pytest.raises(ValueError, match="norm must be one of"):
            scan(3, 2.0, "l1")
        with pytest.raises(OverflowError):
            scan(3, 2.0e6)


def test_entry_bound_is_strict():
    assert entry_bound(2.0) == 1
    assert entry_bound(2.5) == 2
    assert entry_bound(1.0) == 0


def test_quadratic_form_round_trip():
    f = QuadraticForm.from_matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert f.det == 1
    assert f.norm == 2.0
    assert f.entries == (2, 1, 0, 1, 0, 1)
    assert QuadraticForm.from_matrix(f.matrix()) == f
    with pytest.raises(ValueError):
        QuadraticForm.from_matrix([[1, 2], [3, 4]])
    # entries are integers, never truncated to them
    with pytest.raises(ValueError, match="integers"):
        QuadraticForm.from_matrix([[1.5, 0], [0, 1]])
    assert QuadraticForm.from_matrix(np.eye(2)) == QuadraticForm.from_matrix([[1, 0], [0, 1]])
    # "fro" names the frobenius norm here as everywhere; the key stays exact
    g = QuadraticForm.from_matrix(f.matrix(), "fro")
    assert (g.norm_kind, g.norm) == ("frobenius", math.sqrt(8))
    big = QuadraticForm.from_matrix([[2**40 + 1, 0], [0, 1]], "fro")
    assert big.norm == math.sqrt((2**40 + 1) ** 2 + 1)
    # past int64 the matrix holds the exact entries
    huge = QuadraticForm.from_matrix([[2**64, 1], [1, 0]])
    assert huge.matrix().tolist() == [[2**64, 1], [1, 0]] and huge.matrix().dtype == object
    assert QuadraticForm.from_matrix(huge.matrix()) == huge
    assert big.matrix().dtype == np.int64
    with pytest.raises(ValueError, match="norm must be one of"):
        QuadraticForm.from_matrix(f.matrix(), "l1")


def test_orbit_is_subset_of_matching_det_enumeration():
    t = 4.0
    plus = {f.entries for f in enumerate_forms(3, t) if f.det == 1}
    minus = {f.entries for f in enumerate_forms(3, t) if f.det == -1}
    orb1 = orbit_enumerate(np.eye(3, dtype=int), t)
    assert {f.entries for f in orb1} <= plus
    assert (1, 0, 0, 1, 0, 1) in {f.entries for f in orb1}
    orb2 = orbit_enumerate(np.diag([1, 1, -1]), t)
    assert {f.entries for f in orb2} <= minus
    assert all(f.det == -1 for f in orb2)


@pytest.mark.parametrize("k", [27, 35, 55])
def test_orbit_of_identity_reaches_the_frobenius_boundary(k):
    """Positive definite unimodular ternary forms make one class, so the
    orbit of I3 is every positive definite det +1 form in the ball,
    including those with norm^2 = k when T = sqrt(k) squares above k."""
    t = math.sqrt(k)
    positive = {
        f.entries
        for f in enumerate_forms(3, t, "frobenius")
        if f.det == 1 and f.entries[0] > 0 and f.entries[0] * f.entries[3] > f.entries[1] ** 2
    }
    orb = orbit_enumerate(np.eye(3, dtype=int), t, norm="frobenius")
    assert {f.entries for f in orb} == positive


def _fifo_orbit(q0, t, slack, norm, max_states):
    """A FIFO search over Python lists that closes q0 under the moves
    q -> g' q g, g = I + s E_ij, keeping states with norm < slack * T and
    at most max_states of them: every form it reports with norm < T is in
    q0's class, and a search that ends by itself (partial false) can
    still miss forms reachable only through larger ones."""
    mat0 = [[int(x) for x in row] for row in np.asarray(q0)]
    d = len(mat0)
    idx = triangle_indices(d)
    gens = [(i, j, s) for i in range(d) for j in range(d) if i != j for s in (1, -1)]

    def key_of(m):
        cells = [v for row in m for v in row]
        return max(map(abs, cells)) if norm == "max" else sum(v * v for v in cells)

    corridor = enumeration.key_limit(slack * t, norm)
    seen = {tuple(mat0[i][j] for i, j in idx)}
    queue = collections.deque([mat0])
    partial = False
    while queue:
        mat = queue.popleft()
        for i, j, s in gens:
            nxt = [row[:] for row in mat]
            for r in range(d):
                nxt[r][j] += s * nxt[r][i]
            for c in range(d):
                nxt[j][c] += s * nxt[i][c]
            key = tuple(nxt[a][b] for a, b in idx)
            if key in seen or key_of(nxt) > corridor:
                continue
            if len(seen) >= max_states:
                partial = True
                queue.clear()
                break
            seen.add(key)
            queue.append(nxt)
    lim = enumeration.key_limit(t, norm)
    inside = [k for k in sorted(seen) if key_of(enumeration._symmetric(d, idx, k)) <= lim]
    return inside, partial, len(seen)


ORBIT_BASES = ([[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], np.eye(3, dtype=int),
               np.diag([1, 1, -1]), [[0, 1, 0], [1, 0, 0], [0, 0, -1]], [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
               np.eye(4, dtype=int))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(ORBIT_BASES),
    norm=st.sampled_from(NORMS),
    t=st.sampled_from((1.5, 2.0, 2.5, math.sqrt(7))),
    slack=st.sampled_from((1.0, 1.5, 2.0)),
    max_states=st.integers(0, 2000),
)
def test_orbit_search_matches_the_fifo_search(base, norm, t, slack, max_states):
    got = orbit_enumerate(np.array(base), t, norm)
    forms, _, _ = _fifo_orbit(base, t, slack, norm, max_states)
    assert set(forms) <= {f.entries for f in got}
    ref = [QuadraticForm.from_matrix(f.matrix(), norm) for f in got]
    assert list(got) == ref
    assert [f.entries for f in got] == sorted(f.entries for f in got)


@pytest.mark.parametrize(
    "base, norm, t",
    [(b, norm, t) for b in ORBIT_BASES[:3] for norm in NORMS for t in (1.5, 2.5, math.sqrt(7))]
    + [(np.eye(3, dtype=int), "max", 1.5), (np.eye(3, dtype=int), "frobenius", 2.5),
       (np.diag([1, 1, -1]), "max", 2.0), (np.diag([1, 1, -1]), "frobenius", 2.5)],
)
def test_orbit_class_equals_a_completed_fifo_search(base, norm, t):
    forms, partial, _ = _fifo_orbit(base, t, 2.0, norm, 5000)
    assert not partial
    assert [f.entries for f in orbit_enumerate(np.array(base), t, norm)] == forms


H = [[0, 1], [1, 0]]
# one base per GL_d(Z) class of det +-1 forms: I_{p,q} for every p + q = d,
# then the even H and H + H
CLASS_BASES = {
    2: [np.diag([1, 1]), np.diag([-1, -1]), np.diag([1, -1]), np.array(H)],
    3: [np.diag(s) for s in ([1, 1, 1], [-1, -1, -1], [1, 1, -1], [1, -1, -1])],
    4: [np.diag(s) for s in ([1, 1, 1, 1], [-1, -1, -1, -1], [1, 1, 1, -1], [1, -1, -1, -1],
                             [1, 1, -1, -1])]
    + [np.kron(np.eye(2, dtype=int), H)],
}


@pytest.mark.parametrize(
    "d, t, norm, sizes",
    [
        (2, 9.5, "max", [13, 13, 90, 58]),
        (3, 9.5, "max", [2821, 2821, 68613, 68613]),
        (4, 1.5, "max", [1, 1, 2208, 2208, 11982, 300]),
        (2, 9.5, "frobenius", None),
        (3, 6.5, "frobenius", None),
        (4, 2.5, "frobenius", None),
    ],
)
def test_classes_partition_the_ball(d, t, norm, sizes):
    """Signature and parity split the det +-1 forms of a ball into the
    classes of CLASS_BASES, which together hold every form once."""
    classes = [orbit_enumerate(b, t, norm) for b in CLASS_BASES[d]]
    got = [len(c) for c in classes]
    if sizes is not None:
        assert got == sizes
    assert sum(got) == len({f.entries for c in classes for f in c}) == count_ball(d, t, norm)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.sampled_from((2, 3, 4)),
    pick=st.integers(0, 5),
    moves=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)),
                   max_size=12),
)
def test_form_class_follows_signature_and_parity(d, pick, moves):
    """g' q0 g, g a product of elementary moves I + s E_ij, keeps q0's
    class; its entries run far past the scan's, and the class read from
    the characteristic polynomial matches the jacobi_eigh signs and the
    diagonal parity, in Python integers and in an int64 batch."""
    q0 = CLASS_BASES[d][pick % len(CLASS_BASES[d])].astype(object)
    g = np.eye(d, dtype=int).astype(object)
    for i, j, s in moves:
        if i % d != j % d:
            g[:, j % d] += s * g[:, i % d]
    q = g.T @ q0 @ g
    # small enough that the float eigenvalue signs are sure
    assume(np.abs(q).max() < 10**4)
    upper = np.triu_indices(d)
    positive, even = enumeration._form_class(q[upper].tolist(), d)
    lam, _ = jacobi_eigh(q.astype(float))
    assert positive == np.count_nonzero(lam > 0)
    assert even == all(q[i, i] % 2 == 0 for i in range(d))
    assert (positive, even) == enumeration._form_class(q0[upper].tolist(), d)
    batch = enumeration._form_class(q[upper].astype(np.int64)[:, None], d)
    assert (batch[0].tolist(), batch[1].tolist()) == ([positive], [even])


def test_orbit_raises_before_an_entry_leaves_int64():
    # the scan's accumulator bound raises
    with pytest.raises(OverflowError):
        orbit_enumerate(np.eye(3, dtype=int), 2.0**62)
    with pytest.raises(OverflowError):
        orbit_enumerate(np.eye(3, dtype=int), 2.0**29, norm="frobenius")
    # the base's class is taken in Python integers: this one is H
    orb = orbit_enumerate([[2**62, 1], [1, 0]], 2.0)
    assert [f.entries for f in orb] == [(0, -1, 0), (0, 1, 0)]
    # so is a QuadraticForm base's, whatever the size of its entries
    assert orbit_enumerate(QuadraticForm.from_matrix([[2**64, 1], [1, 0]]), 2.0) == orb


def test_orbit_guards_and_budget():
    with pytest.raises(ValueError):
        orbit_enumerate(np.diag([2, 1, 1]), 3.0)
    # det 1 as a full matrix, but its upper triangle (1, 1, 1) is singular
    with pytest.raises(ValueError, match="symmetric"):
        orbit_enumerate([[1, 1], [0, 1]], 3.0)
    for bad in ([[1, 0, 0], [0, 1, 0]], [1, 0, 1], [[1.5, 0], [0, 1]]):
        with pytest.raises(ValueError):
            orbit_enumerate(bad, 3.0)
