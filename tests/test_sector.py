"""Spectral classification, counting, and exponent fitting."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_forms, spectral_data, spectral_verdict_rowwise
from qfsectors import enumeration, sector
from qfsectors.enumeration import enumerate_forms, iter_form_batches, triangle_indices
from qfsectors.sector import (
    AntiCap,
    Cap,
    CountSeries,
    TIE_TOL,
    FullFrame,
    SectorSpec,
    _classify_batch,
    count_sector,
    fit_exponent,
    make_spec,
    sector_membership,
    sign_pattern_specs,
    with_fit,
)


def tri_to_matrix(row, d=3):
    m = np.zeros((d, d))
    for col, (i, j) in enumerate(triangle_indices(d)):
        m[i, j] = m[j, i] = row[col]
    return m


# ------------------------------------------------------------- spectral data


def test_spectral_data_orders_and_reconstructs():
    data = spectral_data(np.diag([3.0, -2.0, 1.0]))
    assert data.eigenvalues == (3.0, -2.0, 1.0)
    assert data.gaps == (1.0, 1.0)
    assert np.linalg.det(data.frame) > 0
    rec = data.frame @ np.diag(data.eigenvalues) @ data.frame.T
    assert np.linalg.norm(rec - np.diag([3.0, -2.0, 1.0])) < 1e-10


def test_spectral_data_breaks_abs_ties_plus_first():
    data = spectral_data(np.diag([-2.0, 1.0, 2.0]))
    assert data.eigenvalues == (2.0, -2.0, 1.0)
    assert data.gaps == (0.0, 1.0)


def test_spectral_data_puts_the_positive_of_a_rounded_pm_tie_first():
    """-5 and +5 tie exactly; Jacobi's rounding must not put -5 first."""
    data = spectral_data(np.array([[-5.0, 0.0, 0.0], [0.0, 2.0, 3.0], [0.0, 3.0, 2.0]]))
    assert data.eigenvalues == pytest.approx((5.0, -5.0, -1.0))
    assert abs(data.frame[:, 0] @ np.array([0.0, 1.0, 1.0])) == pytest.approx(math.sqrt(2.0))


def test_spectral_data_identity_has_zero_gaps():
    data = spectral_data(np.eye(3))
    assert data.gaps == (0.0, 0.0)


def test_spectral_data_random_reconstruction():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = rng.standard_normal((3, 3))
        a = (a + a.T) / 2
        data = spectral_data(a)
        rec = data.frame @ np.diag(data.eigenvalues) @ data.frame.T
        assert np.linalg.norm(rec - a) < 1e-10
        assert abs(np.linalg.det(data.frame) - 1.0) < 1e-10


# ---------------------------------------------------------------- membership


def test_membership_sign_patterns():
    q = np.diag([3.0, -2.0, 1.0])
    spec = make_spec((1, 1, 1), ["+", "-", "+"])
    assert sector_membership(q, spec) == "member"
    assert sector_membership(q, make_spec((1, 1, 1), ["+", "+", "-"])) == "nonmember"


def test_membership_degenerate_on_ties():
    spec = make_spec((1, 1, 1), ["+", "+", "-"])
    assert sector_membership(np.eye(3), spec) == "degenerate"
    assert sector_membership(np.diag([2.0, -2.0, 1.0]), spec) == "degenerate"
    # degeneracy is decided before the signs: identical verdict across specs
    for sp in sign_pattern_specs(3):
        assert sector_membership(np.diag([2.0, -2.0, 1.0]), sp) == "degenerate"


def test_membership_blocked_specs():
    q = np.diag([3.0, 1.0, -1.0])
    ok = make_spec((1, 2), ["+", (1, 1)])
    assert sector_membership(q, ok) == "member"
    wrong = make_spec((1, 2), ["+", (2, 0)])
    assert sector_membership(q, wrong) == "nonmember"
    # the block boundary must be a strict |eigenvalue| drop
    assert sector_membership(np.diag([1.0, 1.0, -1.0]), ok) == "degenerate"


def test_membership_block_window():
    q = np.diag([8.0, 2.0, 1.0])  # block logs (log 2, 0), spread log(2)/2
    spread = math.log(2.0) / 2
    wide = make_spec((1, 2), ["+", (2, 0)], block_window=spread + 0.01)
    tight = make_spec((1, 2), ["+", (2, 0)], block_window=spread - 0.01)
    assert sector_membership(q, wide) == "member"
    assert sector_membership(q, tight) == "nonmember"


def test_membership_tie_tolerance_is_the_constant():
    spec = make_spec((1, 1, 1), ["+", "+", "-"])
    assert TIE_TOL == 1e-9
    assert sector_membership(np.diag([1.0 + 3e-7, 1.0, -0.5]), spec) == "member"
    assert sector_membership(np.diag([1.0 + 5e-10, 1.0, -0.5]), spec) == "degenerate"


def test_membership_keeps_the_small_eigenvalue_of_a_2x2_form():
    """[[2**40, 1], [1, 0]] has det -1, so its eigenvalues are about 2**40
    and -2**-40; half - rad rounds the small one to 0, a degenerate form."""
    spec = make_spec((1, 1), "+-")
    assert sector_membership([[2**40, 1], [1, 0]], spec) == "member"
    # an entry past int64: the QuadraticForm's exact entries, on the float path
    huge = enumeration.QuadraticForm.from_matrix([[2**64, 1], [1, 0]])
    assert sector_membership(huge, spec) == "member"


def test_membership_rejects_entries_that_are_not_finite():
    """An inf entry used to read "nonmember" after RuntimeWarnings, and a
    nan one to fail as an asymmetric matrix."""
    spec = make_spec((1, 1), "+-")
    for q in (np.diag([np.inf, -1.0]), [[1.0, np.nan], [np.nan, -1.0]], [[np.inf, 0], [0, 1]]):
        with pytest.raises(ValueError, match="^form entries must be finite$"):
            sector_membership(q, spec)


def test_membership_rejects_a_form_of_another_size():
    spec = make_spec((1, 1, 1), ["+", "+", "-"])
    with pytest.raises(ValueError, match="d = 3"):
        sector_membership(np.diag([5.0, 2.0, -1.0, 0.1]), spec)
    with pytest.raises(ValueError, match="d = 3"):
        sector_membership(np.diag([5.0, -1.0]), spec)


def test_membership_frame_constraints():
    q = np.diag([3.0, -2.0, 1.0])  # top axis is e1
    base = ["+", "-", "+"]
    cap_hit = make_spec((1, 1, 1), base, frame=Cap(axis=(1, 0, 0), angle=0.2))
    cap_miss = make_spec((1, 1, 1), base, frame=Cap(axis=(0, 0, 1), angle=0.2))
    anti = make_spec((1, 1, 1), base, frame=AntiCap(axis=(0, 0, 1), angle=0.2))
    assert sector_membership(q, cap_hit) == "member"
    assert sector_membership(q, cap_miss) == "nonmember"
    assert sector_membership(q, anti) == "member"
    # the axis is a line: the flipped eigenvector counts as the same frame
    flipped = make_spec((1, 1, 1), base, frame=Cap(axis=(-1, 0, 0), angle=0.2))
    assert sector_membership(q, flipped) == "member"


def test_cap_validation():
    with pytest.raises(ValueError):
        Cap(axis=(0.0, 0.0, 0.0), angle=0.5)
    with pytest.raises(ValueError):
        Cap(axis=(1.0, 0.0, 0.0), angle=0.0)
    with pytest.raises(ValueError):
        Cap(axis=(1.0, 0.0, 0.0), angle=math.pi)
    for bad in ((math.inf, 0, 0), (1, -math.inf, 0), (math.nan, 1, 0)):
        for frame in (Cap, AntiCap):
            with pytest.raises(ValueError, match="finite"):
                frame(axis=bad, angle=0.5)
    # the squares of these components leave the float range either way
    half = math.sqrt(0.5)
    for big, small in ((1e308, 1e308), (1e-200, 1e-200)):
        assert np.allclose(Cap(axis=(big, small, 0), angle=0.5).axis, (half, half, 0.0))
    for axis in ((0, 1), (0, 0, 1, 0)):
        for frame in (Cap(axis, 0.5), AntiCap(axis, 0.5)):
            with pytest.raises(ValueError, match="does not fit d = 3"):
                make_spec((1, 1, 1), ["+", "+", "-"], frame=frame)
    assert make_spec((1, 2), ["+", (1, 1)], frame=Cap((0, 1, 1), 0.5)).block.d == 3


def test_spec_validation_and_digest():
    with pytest.raises(ValueError):
        make_spec((1, 2), ["+", (2, 1)])  # block signature sum mismatch
    with pytest.raises(ValueError):
        make_spec((1, 2), ["+", "+"])  # shorthand on a 2-dim block
    for window in (0.0, math.nan):  # nan <= 0 is false, so nan needs its own case
        with pytest.raises(ValueError, match="block window must be positive"):
            make_spec((1, 1, 1), ["+", "+", "-"], block_window=window)
    with pytest.raises(ValueError, match="norm must be one of"):
        make_spec((1, 1, 1), ["+", "+", "-"], norm="spectral")
    a = make_spec((1, 1, 1), ["+", "+", "-"])
    b = make_spec((1, 1, 1), [(1, 0), (1, 0), (0, 1)])
    assert a.digest() == b.digest()
    assert a.digest() != make_spec((1, 1, 1), ["+", "-", "+"]).digest()
    fro = make_spec((1, 1, 1), ["+", "+", "-"], norm="frobenius")
    assert a.digest() != fro.digest()
    # "fro" is the same norm to a spec as to count_ball and volume_series
    short = make_spec((1, 1, 1), ["+", "+", "-"], norm="fro")
    assert short == fro and short.digest() == fro.digest()
    assert a.digest() != make_spec(
        (1, 1, 1), ["+", "+", "-"], frame=Cap(axis=(0, 0, 1), angle=0.3)
    ).digest()


def test_sign_pattern_specs_enumerates_all_patterns():
    specs = sign_pattern_specs(3)
    assert len(specs) == 8
    sigs = {tuple(s.block_signatures) for s in specs}
    assert len(sigs) == 8
    assert all(s.block.dims == (1, 1, 1) for s in specs)


# ------------------------------------------------------------ batch pipeline


PER_FORM_CASES = {
    # d: (T, the rows taken from the ball, specs)
    2: (9.5, slice(None), sign_pattern_specs(2) + [
        make_spec((2,), [(1, 1)], frame=Cap(axis=(1, 2), angle=0.7))]),
    3: (3.0, slice(None), sign_pattern_specs(3)[:3] + [
        make_spec((1, 2), ["+", (1, 1)], block_window=0.6),
        make_spec((2, 1), [(2, 0), "-"]),
        make_spec((1, 1, 1), ["+", "+", "-"], frame=Cap(axis=(0, 0, 1), angle=0.9)),
    ]),
    4: (1.5, slice(None, None, 61), [
        make_spec((1, 1, 1, 1), "+-+-"),
        make_spec((2, 2), [(1, 1), (1, 1)], block_window=0.6),
        make_spec((4,), [(2, 2)], frame=AntiCap(axis=(1, 2, 3, 4), angle=0.8)),
    ]),
}


def test_classify_batch_agrees_with_per_form_path():
    for d, (t, rows, specs) in PER_FORM_CASES.items():
        tri = np.concatenate([tri for tri, _, _ in iter_form_batches(d, t, "max")])[rows]
        for spec in specs:
            member, degenerate = _classify_batch(tri, d, spec)
            verdicts = [sector_membership(tri_to_matrix(row, d), spec) for row in tri]
            assert verdicts == [
                "degenerate" if g else "member" if m else "nonmember"
                for m, g in zip(member, degenerate)
            ]


FRAME_SPECS = {
    2: sign_pattern_specs(2),
    3: sign_pattern_specs(3) + [
        make_spec((1, 2), ["+", (1, 1)]),
        make_spec((2, 1), [(1, 1), "-"]),
        make_spec((2, 1), [(1, 1), "+"]),
        make_spec((3,), [(2, 1)]),
    ],
}


@st.composite
def integer_forms(draw, d, kinds=("random", "diagonal", "rotated")):
    """Random integer forms, and forms with an exact |eigenvalue| tie:
    diagonal ones, where the slot order of the tie is a tie-break, and
    ones whose tied eigenvectors lie off the coordinate axes."""
    kind = draw(st.sampled_from(kinds))
    n = d * (d + 1) // 2
    if kind == "random":
        return tri_to_matrix(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)), d)
    x, y = draw(st.integers(1, 25)), draw(st.integers(-25, 25))
    if kind == "diagonal":
        m = np.diag([x, -x, y][:d]).astype(float)
    elif d == 2:
        m = np.array([[0.0, x], [x, 0.0]])  # eigenvalues +x and -x
    else:
        r = draw(st.sampled_from((x + y, -(x + y), x - y, y - x)))
        m = np.array([[y, x, 0.0], [x, y, 0.0], [0.0, 0.0, r]])
    perm = draw(st.permutations(range(d)))
    return m[np.ix_(perm, perm)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_frame_test_matches_jacobi_frames(data):
    """A frame reads the top line, so a framed batch calls the forms
    whose top two |eigenvalues| tie (by Jacobi) degenerate, on top of
    the full-frame degenerate forms; each other full-frame member is
    tested on its Jacobi top eigenvector."""
    d = data.draw(st.sampled_from((2, 3)))
    mats = data.draw(st.lists(integer_forms(d), min_size=1, max_size=25))
    axis = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
                     .filter(lambda v: np.linalg.norm(v) > 1e-3))
    angle = data.draw(st.floats(0.05, 3.0))
    tri = np.stack([m[np.triu_indices(d)] for m in mats])
    spectra = [spectral_data(m) for m in mats]
    tops = np.stack([sd.frame[:, 0] for sd in spectra])
    tied = np.array([sd.gaps[0] <= TIE_TOL * abs(sd.eigenvalues[0]) for sd in spectra])
    for base in FRAME_SPECS[d]:
        full, full_deg = _classify_batch(tri, d, base)
        verdicts = []
        for frame in (Cap(axis=axis, angle=angle), AntiCap(axis=axis, angle=angle)):
            spec = dataclasses.replace(base, frame_constraint=frame)
            member, degenerate = _classify_batch(tri, d, spec)
            assert np.array_equal(member, full & ~tied & frame.accepts_rows(tops))
            assert np.array_equal(degenerate, full_deg | tied)
            verdicts.append(member)
        cap, anticap = verdicts
        assert not np.any(cap & anticap)
        assert np.array_equal(cap | anticap, full & ~tied)


@st.composite
def _compositions(draw, d):
    """A block pattern of d slots: the dims of one of its 2^(d-1) compositions."""
    cuts = [c for c in range(1, d) if draw(st.booleans())]
    return tuple(np.diff([0] + cuts + [d]).tolist())


# |eigenvalues| with exact and near ties (a repeated root, or a +-lambda
# pair once signed), zeros, and values that underflow the 1e-300 floor
_MAGNITUDES = [0.0, 1e-320, 1e-300, 1e-12, 0.25, 1.0, 1.0, 1.0 + 1e-10, 1.0 + 1e-8, 2.0,
               2.0 + 2e-9, 3.0, 7.5, 1e8]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_spectral_verdict_matches_the_rowwise_rule(data):
    """The column-by-column verdict gives the masks of whole-row
    reductions, for every d = 2..4 block pattern, with windows and frames."""
    d = data.draw(st.integers(2, 4))
    dims = data.draw(_compositions(d))
    sigs = [(p, dim - p) for dim in dims for p in [data.draw(st.integers(0, dim))]]
    frame = data.draw(st.sampled_from([None, Cap((1.0,) * d, 0.7), AntiCap((1.0,) * d, 0.7)]))
    window = data.draw(st.sampled_from([None, 1e-9, 0.05, 0.7, 3.0]))
    spec = make_spec(dims, sigs, frame=frame, block_window=window)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = 400
    lam = rng.choice(_MAGNITUDES, (rows, d)) * rng.choice([-1.0, 1.0], (rows, d))
    spread = rng.random(rows) < 0.3
    lam[spread] = rng.standard_normal((int(spread.sum()), d)) * 10.0 ** rng.integers(-3, 4)
    lam = np.take_along_axis(lam, np.argsort(-np.abs(lam), axis=1, kind="stable"), axis=1)
    got, want = sector._spectral_verdict(lam, spec), spectral_verdict_rowwise(lam, spec)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# ------------------------------------------------- exact d = 3 sign verdict


@st.composite
def unimodular_forms(draw):
    """g^T J g for J = diag(+-1) and g a product of elementary matrices
    I + s E_ij; a step that would take an entry past 100 is skipped."""
    j = np.diag(draw(st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3)))
    g = np.eye(3, dtype=np.int64)
    steps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3))
    for r, c, s in draw(st.lists(steps, max_size=12)):
        h = g.copy()
        h[r] += s * h[c]
        if r != c and np.abs(h.T @ j @ h).max() <= 100:
            g = h
    return g.T @ j @ g


def _both_routes(tri, spec):
    exact = _classify_batch(tri, 3, spec)
    approx = _classify_batch(tri.astype(float), 3, spec)
    return exact, approx


@settings(max_examples=150, deadline=None, derandomize=True)
@given(forms=st.lists(unimodular_forms(), min_size=1, max_size=20))
def test_exact_sign_verdict_matches_the_float_classifier(forms):
    tri = np.stack([q[np.triu_indices(3)] for q in forms])
    assert np.all(np.isin(np.rint(np.linalg.det(np.stack(forms))), (-1, 1)))
    members = 0
    for spec in sign_pattern_specs(3):
        exact, approx = _both_routes(tri, spec)
        assert np.array_equal(exact[0], approx[0])
        assert np.array_equal(exact[1], approx[1])
        members += exact[0].astype(int)
    assert np.array_equal(members, 1 - exact[1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(q=integer_forms(3, kinds=("diagonal", "rotated")))
@example(q=np.diag([1, 1, -1]))
@example(q=np.diag([2, -2, 1]))
@example(q=np.array([[-5, 0, 0], [0, 2, 3], [0, 3, 2]]))
@example(q=np.array([[2, 1, 0], [1, 2, 0], [0, 0, 3]]))
def test_exact_sign_verdict_calls_every_tie_degenerate(q):
    tri = np.rint(q[np.triu_indices(3)][None, :]).astype(np.int64)
    for spec in sign_pattern_specs(3):
        for member, degenerate in _both_routes(tri, spec):
            assert degenerate[0] and not member[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(entries=st.lists(st.lists(st.integers(-353, 353), min_size=6, max_size=6),
                        min_size=1, max_size=20))
@example(entries=[[353, -353, 353, 352, -353, 353], [-353, 353, 353, -353, 353, -352]])
def test_exact_sign_verdict_holds_up_to_its_int64_bound(entries):
    """Entries up to 353 keep every intermediate inside int64, so the
    verdict still agrees with the float classifier there; 354 raises."""
    tri = np.array(entries, dtype=np.int64)
    for spec in sign_pattern_specs(3)[:4]:
        exact, approx = _both_routes(tri, spec)
        assert np.array_equal(exact[0], approx[0])
        assert np.array_equal(exact[1], approx[1])
    with pytest.raises(OverflowError):
        _classify_batch(np.array([[1, 0, 0, 1, 0, -354]]), 3, sign_pattern_specs(3)[0])
    # so does a QuadraticForm whose exact entries leave int64
    huge = enumeration.QuadraticForm.from_matrix([[2**64, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(OverflowError):
        sector_membership(huge, sign_pattern_specs(3)[0])


def test_membership_reads_python_ints_past_int64_as_a_quadratic_form():
    """A nested list or object array with an entry past int64 gets the
    verdict of its QuadraticForm, and the same OverflowError past the
    exact route's bound, not numpy's TypeError from an object array."""
    spec = make_spec((1, 1), ["+", "-"])
    big = [[2**64, 1], [1, 0]]
    assert sector_membership(enumeration.QuadraticForm.from_matrix(big), spec) == "member"
    assert sector_membership(big, spec) == "member"
    assert sector_membership(np.array(big, dtype=object), spec) == "member"
    with pytest.raises(OverflowError):
        sector_membership([[2**64, 1, 0], [1, 0, 0], [0, 0, 1]], sign_pattern_specs(3)[0])


@pytest.mark.parametrize("norm, t", [("max", 10.0), ("max", 14.0), ("frobenius", 20.0)])
def test_exact_sign_verdict_matches_the_float_classifier_on_whole_balls(norm, t):
    tri = np.concatenate([tri for tri, _, _ in iter_form_batches(3, t, norm)])
    for spec in sign_pattern_specs(3):
        exact, approx = _both_routes(tri, spec)
        assert np.array_equal(exact[0], approx[0])
        assert np.array_equal(exact[1], approx[1])
    assert int(exact[1].sum()) == 20


def test_full_frame_d3_counts_solve_no_eigenvalues(monkeypatch):
    calls = []
    for name in ("sym3_eigvals_batch", "jacobi_eigh"):
        real = getattr(sector, name)
        monkeypatch.setattr(
            sector, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    for norm in ("max", "frobenius"):
        spec = make_spec((1, 1, 1), ["+", "+", "-"], norm=norm)
        assert count_sector([3.0, 4.0], spec).values[-1] > 0
    # a framed sign sector reads its top lines from one np.linalg.eigh
    for frame in (Cap((0, 0, 1), 0.8), AntiCap((1, 2, 3), 0.8)):
        count_sector([3.0], make_spec((1, 1, 1), ["+", "+", "-"], frame=frame))
    assert calls == []
    # a (1, 2) sector takes the float path, and the counters see it
    count_sector([3.0], make_spec((1, 2), ["+", (1, 1)]))
    assert "sym3_eigvals_batch" in calls


def test_count_sector_matches_manual_loop():
    spec = make_spec((1, 1, 1), ["+", "+", "-"])
    series = count_sector([2.0, 3.0], spec)
    for t, val, deg in zip(series.t_grid, series.values, series.degenerate):
        statuses = [sector_membership(f, spec) for f in enumerate_forms(3, t)]
        assert val == statuses.count("member")
        assert deg == statuses.count("degenerate")
    assert series.spec_digest == spec.digest()
    assert series.manifest["kind"] == "sector-counts"


def test_partition_audit_small():
    """Sign sectors partition the non-degenerate forms; the degenerate
    tally is identical for every spec because it is sign-independent."""
    specs = sign_pattern_specs(3)
    total = 0
    members = 0
    degs = [0] * len(specs)
    for tri, _, _ in iter_form_batches(3, 4.0, "max"):
        total += tri.shape[0]
        for i, spec in enumerate(specs):
            m, dg = _classify_batch(tri, 3, spec)
            members += int(m.sum())
            degs[i] += int(dg.sum())
    assert len(set(degs)) == 1
    assert members + degs[0] == total


def test_cap_counts_monotone_in_angle_and_complementary():
    angles = [0.4, 0.8, 1.2]
    base = ["+", "+", "-"]
    counts = []
    for ang in angles:
        spec = make_spec((1, 1, 1), base, frame=Cap(axis=(0, 0, 1), angle=ang))
        counts.append(count_sector([3.0], spec).values[0])
    assert counts == sorted(counts)
    full = count_sector([3.0], make_spec((1, 1, 1), base)).values[0]
    cap = make_spec((1, 1, 1), base, frame=Cap(axis=(0, 0, 1), angle=0.8))
    anti = make_spec((1, 1, 1), base, frame=AntiCap(axis=(0, 0, 1), angle=0.8))
    assert (
        count_sector([3.0], cap).values[0] + count_sector([3.0], anti).values[0]
        == full
    )


FRAMED_BASES = {
    2: sign_pattern_specs(2),
    # a first block of dimension >= 2 has forms whose top |eigenvalue|
    # ties the next: members of the full frame, degenerate under a cap
    3: sign_pattern_specs(3) + [make_spec((1, 2), ["+", (1, 1)]),
                                make_spec((2, 1), [(1, 1), "-"]), make_spec((3,), [(2, 1)]),
                                make_spec((3,), [(3, 0)])],
    4: [make_spec((1, 1, 1, 1), "+-+-"), make_spec((2, 2), [(1, 1), (1, 1)]),
        make_spec((4,), [(2, 2)])],
}
FRAMED_TOPS = {2: 8.0, 3: 3.5, 4: 2.0}


@functools.lru_cache(maxsize=None)
def _box_verdicts(d, norm, base):
    """The box scan's forms classified one by one under base framed by
    any cap: the full-frame verdict, with a top |eigenvalue| tie made
    degenerate, and the Jacobi top eigenvector of each member form,
    which the frame reads."""
    forms = np.array(brute_force_forms(d, FRAMED_TOPS[d], norm), dtype=np.int64)
    forms = forms.reshape(-1, d * (d + 1) // 2)
    member, degenerate = sector._classify(forms, d, base)
    lam_s = sector._slot_spectrum(sector._matrices(forms, d))
    logs = np.log(np.maximum(np.abs(lam_s[:, :2]), 1e-300))
    tied = logs[:, 0] - logs[:, 1] <= TIE_TOL
    member, degenerate = member & ~tied, degenerate | tied
    tops = [spectral_data(m).frame[:, 0] for m in sector._matrices(forms[member], d)]
    return forms, member, degenerate, np.reshape(tops, (-1, d))


@st.composite
def cap_axes(draw, d):
    """Random axes, and coordinate and diagonal ones, on which images of
    the top eigenvector collide."""
    kind = draw(st.sampled_from(("random", "coordinate", "diagonal")))
    if kind == "random":
        return draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
                    .filter(lambda v: np.linalg.norm(v) > 1e-3))
    if kind == "coordinate":
        k = draw(st.integers(0, d - 1))
        return [float(i == k) for i in range(d)]
    return draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=d, max_size=d)
                .filter(any))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_per_orbit_frame_counts_match_the_form_by_form_box_scan(data):
    """count_sector counts a cap and its anticap per signed-permutation
    orbit; the box scan classifies every form on its own, and the member
    and degenerate series agree."""
    d = data.draw(st.sampled_from((2, 3, 4)))
    norm = data.draw(st.sampled_from(("max", "frobenius")))
    base = dataclasses.replace(data.draw(st.sampled_from(FRAMED_BASES[d])), norm=norm)
    axis, angle = data.draw(cap_axes(d)), data.draw(st.floats(0.05, 3.0))
    grid = sorted([data.draw(st.floats(1.0, FRAMED_TOPS[d])), FRAMED_TOPS[d]])
    forms, member, degenerate, tops = _box_verdicts(d, norm, base)
    if norm == "max":
        inside = [np.abs(forms).max(axis=1, initial=0) < t for t in grid]
    else:
        weights = [1 if i == j else 2 for i, j in triangle_indices(d)]
        inside = [(forms * forms) @ weights <= math.ceil(Fraction(t) ** 2) - 1 for t in grid]
    for frame in (Cap(axis, angle), AntiCap(axis, angle)):
        framed = member.copy()
        framed[member] = frame.accepts_rows(tops)
        series = count_sector(grid, dataclasses.replace(base, frame_constraint=frame))
        assert [int(v) for v in series.values] == [int(np.sum(framed & m)) for m in inside]
        assert list(series.degenerate) == [int(np.sum(degenerate & m)) for m in inside]


@st.composite
def relabellings(draw):
    """A framed base, a cap axis and angle, and a signed permutation P."""
    d = draw(st.sampled_from((2, 3, 4)))
    base = draw(st.sampled_from(FRAMED_BASES[d]))
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    return base, draw(cap_axes(d)), draw(st.floats(0.05, 3.0)), np.diag(signs)[perm]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=relabellings())
@example(case=(make_spec((3,), [(3, 0)]), [1.0, 0.0, 0.0], 0.3, np.eye(3)[[1, 0, 2]]))
def test_framed_counts_do_not_change_when_the_axes_are_relabelled(case):
    """Q -> P Q P^T maps the ball onto itself and a top line v to P v, so
    a cap or anticap about P axis counts what it counts about axis.  The
    example is I_3, whose top line is not a function of the form."""
    base, axis, angle, p = case
    grid = [1.5, FRAMED_TOPS[base.block.d]]
    for kind in (Cap, AntiCap):
        one, other = (count_sector(grid, dataclasses.replace(base, frame_constraint=kind(a, angle)))
                      for a in (axis, p @ np.asarray(axis)))
        assert (one.values, one.degenerate) == (other.values, other.degenerate)


@pytest.mark.parametrize("base", [make_spec((1, 1), "+-"), make_spec((3,), [(2, 1)]),
                                  make_spec((2, 2), [(1, 1), (1, 1)])])
def test_the_frame_step_makes_no_per_row_solve(monkeypatch, base):
    """A framed count reads its top lines from one batched eigh: it calls
    jacobi_eigh exactly as often as the full-frame count, whose near-tie
    reruns are the only Jacobi solves."""
    calls = []
    real = sector.jacobi_eigh
    monkeypatch.setattr(sector, "jacobi_eigh", lambda *a: calls.append("jacobi_eigh") or real(*a))
    d = base.block.d
    grid = [1.5, FRAMED_TOPS[d]]
    count_sector(grid, base)
    unframed = list(calls)
    axis = tuple(range(1, d + 1))
    for frame in (Cap(axis, 0.6), AntiCap(axis, 0.6)):
        calls.clear()
        series = count_sector(grid, dataclasses.replace(base, frame_constraint=frame))
        assert series.values[-1] > 0
        assert calls == unframed


def _conjugates(q):
    """q's conjugates by all 48 signed permutation matrices, built here."""
    group = np.array([np.diag(s)[list(p)] for p in itertools.permutations(range(3))
                      for s in itertools.product((1, -1), repeat=3)])
    return group, group @ q @ group.transpose(0, 2, 1)


TIED_FRAMES = [frame(axis, angle) for frame in (Cap, AntiCap)
               for axis in ((0, 0, 1), (1, 1, 0), (1, 2, 3)) for angle in (0.3, 0.8, 1.2)]


def test_top_tied_rows_count_their_images_one_by_one():
    """In the d=3 max-norm ball at T = 20.5 the only canonical rows whose
    top two |eigenvalues| lie within 1e-6 (relative) are six exact ties,
    every |eigenvalue| 1: the symmetric signed permutations.  They have
    no top line, so every framed (3,) sector calls each of their images
    P Q P^T degenerate, classified one by one or as the orbit, while the
    full-frame (3,) sector, with no cut, counts them all."""
    scan = list(enumeration._scan(3, 20.5, "max", None))
    tri = np.concatenate([full[:, :-1] for full, _ in scan])
    weight = np.concatenate([w for _, w in scan])
    mats = sector._matrices(tri, 3)
    lam_s = sector._slot_spectrum(mats)
    alam = np.abs(lam_s)
    tied = np.nonzero(alam[:, 0] - alam[:, 1] <= 1e-6 * alam[:, 0])[0]
    assert len(tied) == 6 and np.allclose(np.abs(lam_s[tied]), 1.0)
    for r in tied:
        distinct = np.unique(_conjugates(mats[r])[1].reshape(-1, 9), axis=0).reshape(-1, 3, 3)
        assert len(distinct) == weight[r]
        images = np.stack([m[np.triu_indices(3)] for m in distinct])
        signature = (int(np.sum(lam_s[r] > 0)), int(np.sum(lam_s[r] < 0)))
        full = make_spec((3,), [signature])
        assert np.all(_classify_batch(images, 3, full)[0])
        for frame in TIED_FRAMES:
            spec = dataclasses.replace(full, frame_constraint=frame)
            member, degenerate = _classify_batch(images, 3, spec)
            assert not np.any(member) and np.all(degenerate)
            orbit = _classify_batch(tri[r:r + 1], 3, spec, weight[r:r + 1])
            assert [c.tolist() for c in orbit] == [[0], [weight[r]]]


def test_near_tied_float_forms_move_their_top_vector_with_the_group():
    """No integer row of the T = 20.5 ball is a near tie, so float forms
    with top |eigenvalues| lam and -lam (1 - gap) stand in.  At gap =
    1e-7 the top line is well defined: for each signed permutation P the
    cap verdict of P v, v Jacobi's top vector of Q, is that of the image
    P Q P^T classified on its own, and the per-orbit count is the count
    of the images classified one by one.  At gap = 1e-10, inside
    TIE_TOL, the top two slots tie, and the form and its orbit are
    degenerate in every framed sector."""
    rng = np.random.default_rng(16)
    for gap in (1e-7, 1e-10):
        for _ in range(12):
            rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            lam = rng.uniform(2.0, 12.0) * rng.choice((1, -1))
            q = rot @ np.diag([lam, -lam * (1 - gap), 1 / lam**2]) @ rot.T
            q = (q + q.T) / 2
            group, images = _conjugates(q)
            lam_s = sector._slot_spectrum(q[None])
            alam = np.abs(lam_s[0])
            assert alam[0] - alam[1] <= 1e-6 * alam[0]
            moved = group @ spectral_data(q).frame[:, 0]
            own = np.array([spectral_data(m).frame[:, 0] for m in images])
            signature = (int(np.sum(lam_s > 0)), int(np.sum(lam_s < 0)))
            tri = q[np.triu_indices(3)][None, :]
            for frame in TIED_FRAMES:
                spec = make_spec((3,), [signature], frame=frame)
                orbit = [c.tolist() for c in _classify_batch(tri, 3, spec, np.array([24]))]
                if gap > TIE_TOL:
                    hits = frame.accepts_rows(own)
                    assert np.array_equal(frame.accepts_rows(moved), hits)
                    # the 48 matrices are the 24 distinct images, each twice (P and -P)
                    assert orbit == [[hits.sum() // 2], [0]]
                else:
                    assert sector_membership(q, spec) == "degenerate"
                    assert orbit == [[0], [24]]


# the shapes of the sector-frames benchmark round at seed 1: its max-norm
# T grid, cap axis and angle, and the window T grid of its (1,2) sector
FRAMES_AXIS = (0.7785076828718746, 0.6007048023240116, -0.18187778361948095)
FRAMES_ANGLE = 0.9109563041491693


@pytest.mark.parametrize("frame, members", [
    (None, [840, 1512, 2232]),
    (Cap(FRAMES_AXIS, FRAMES_ANGLE), [323, 586, 873]),
    (AntiCap(FRAMES_AXIS, FRAMES_ANGLE), [517, 926, 1359]),
])
def test_framed_sector_counts_are_pinned(frame, members):
    series = count_sector([4.5, 5.5, 6.5], make_spec((1, 1, 1), ["+", "+", "-"], frame=frame))
    assert [int(v) for v in series.values] == members
    assert list(series.degenerate) == [20, 20, 20]


def test_windowed_frobenius_sector_counts_are_pinned():
    grid = [5.049749883591824, 8.185947882074629, 12.749843031319651, 14.0]
    spec = make_spec((1, 2), ["+", (1, 1)], norm="frobenius", block_window=0.6)
    series = count_sector(grid, spec)
    assert [int(v) for v in series.values] == [300, 636, 1308, 1524]
    assert list(series.degenerate) == [20, 20, 20, 20]


@pytest.mark.parametrize("norm, grid", [("max", [3.0, 5.5]), ("frobenius", [math.sqrt(10), 6.0])])
def test_count_sector_threads_do_not_change_results(norm, grid):
    # the exact sign verdict and the float classifier behind a cap
    for frame in (None, Cap((0, 0, 1), 0.8)):
        spec = make_spec((1, 1, 1), ["+", "+", "-"], frame=frame, norm=norm)
        one, two = (count_sector(grid, spec, threads=n) for n in (1, 2))
        assert (one.values, one.degenerate) == (two.values, two.degenerate)


def test_count_sector_needs_increasing_grid():
    spec = make_spec((1, 1, 1), ["+", "+", "-"])
    with pytest.raises(ValueError):
        count_sector([3.0, 2.0], spec)
    with pytest.raises(ValueError):
        count_sector([], spec)


# ----------------------------------------------------------------- fitting


def test_count_series_validation():
    with pytest.raises(ValueError):
        CountSeries(t_grid=(1.0, 2.0), values=(1.0,), spec_digest="x")
    with pytest.raises(ValueError):
        CountSeries(t_grid=(1.0,), values=(-1.0,), spec_digest="x")


def test_fit_recovers_planted_power_law():
    ts = np.array([3.0, 5.0, 9.0, 17.0, 33.0, 65.0])
    res = fit_exponent((ts, 5.0 * ts**3))
    assert res.a == pytest.approx(3.0, abs=1e-9)
    assert res.c == pytest.approx(5.0, rel=1e-9)
    assert res.r2 > 1 - 1e-12
    assert max(abs(r) for r in res.residuals) < 1e-12


def test_fit_with_log_factor_and_free_b():
    ts = np.array([3.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    vals = 7.0 * ts**2.5 * np.log(ts)
    res = fit_exponent((ts, vals), b_fixed=2)
    assert res.a == pytest.approx(2.5, abs=1e-9)
    assert res.c == pytest.approx(7.0, rel=1e-9)
    assert res.b_free == pytest.approx(2.0, abs=1e-6)
    assert res.a_free == pytest.approx(2.5, abs=1e-6)
    assert res.c_free == pytest.approx(7.0, rel=1e-4)


def test_fit_requires_enough_positive_points():
    with pytest.raises(ValueError, match="insufficient data"):
        fit_exponent(([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="insufficient data"):
        fit_exponent(([2.0, 3.0, 4.0, 5.0, 6.0], [0.0, 0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        fit_exponent(([0.5, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]))


def test_fit_rejects_points_that_are_not_finite():
    ts = [3.0, 5.0, 9.0, 17.0, 33.0]
    for bad_t, bad_v in ((np.nan, 1.0), (9.0, np.inf), (np.inf, np.nan)):
        with pytest.raises(ValueError, match=r"^non-finite \(T, value\) points: "):
            fit_exponent((ts + [bad_t], [5.0 * t**3 for t in ts] + [bad_v]))


@pytest.mark.parametrize("b", [0, -2])
def test_fit_rejects_b_below_one(b):
    ts = np.array([3.0, 5.0, 9.0, 17.0, 33.0])
    with pytest.raises(ValueError, match="b_fixed must be at least 1"):
        fit_exponent((ts, 5.0 * ts**3), b_fixed=b)


def test_with_fit_attaches_or_passes_through():
    good = CountSeries(
        t_grid=(2.0, 4.0, 8.0, 16.0),
        values=(8.0, 64.0, 512.0, 4096.0),
        spec_digest="x",
    )
    fitted = with_fit(good)
    assert fitted.fit_a == pytest.approx(3.0, abs=1e-9)
    short = CountSeries(t_grid=(2.0, 4.0), values=(1.0, 2.0), spec_digest="x")
    assert with_fit(short).fit_a is None
