"""Metric checks and perturbation-stability probes."""

import collections
import math
import types

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qfsectors import wavefront
from qfsectors.cartan import kah_decompose, signature_matrix, weyl_matrix
from qfsectors.cli import SWEEP_COLUMNS, _fmt
from qfsectors.sampling import (
    derive_rng,
    random_indefinite_orthogonal,
    random_rotation,
    random_traceless,
)
from qfsectors.wavefront import (
    MetricDomainError,
    b_norm,
    chamber_point,
    coarse_probe,
    fine_probe,
    group_distance,
    lipschitz_sweep,
    margins_for_depth,
)

REGULAR_G = np.array([[2.0, 1.0, 0.3], [0.4, 1.5, 0.2], [0.1, 0.3, 1.2]])
REGULAR_G /= abs(np.linalg.det(REGULAR_G)) ** (1 / 3)


def unit_direction(rng, d):
    x = random_traceless(rng, d)
    return x / b_norm(x)


def literal_bform_gram(d):
    """Gram matrix of B(X, Y) = -tr(ad X ad theta(Y)), theta(Y) = -Y^T, on
    the basis E_ij (i != j), E_kk - E_dd, through the literal adjoint
    action ad X = X (x) I - I (x) X^T on row-major vec; and the
    coordinates of a traceless matrix in that basis."""
    eye = np.eye(d)
    basis = [np.outer(eye[i], eye[j]) for i in range(d) for j in range(d) if i != j]
    basis += [np.diag(eye[kk] - eye[d - 1]) for kk in range(d - 1)]

    def ad(x):
        return np.kron(x, eye) - np.kron(eye, x.T)

    gram = np.array([[-np.trace(ad(b) @ ad(-c.T)) for c in basis] for b in basis])

    def coords(x):
        return np.array([x[i, j] for i in range(d) for j in range(d) if i != j]
                        + list(np.diag(x)[: d - 1]))

    return gram, coords


def test_bform_matches_trace_formula():
    # B(X, Y) = -tr(ad X ad theta(Y)) evaluates to 2d tr(X Y^T) on sl_d;
    # the package uses the closed form, the test the literal construction
    rng = derive_rng(1, "bform")
    for d in (2, 3, 4):
        gram, coords = literal_bform_gram(d)
        for _ in range(10):
            x, y = random_traceless(rng, d), random_traceless(rng, d)
            assert coords(x) @ gram @ coords(y) == pytest.approx(
                2 * d * float(np.trace(x @ y.T)), rel=1e-12
            )
            assert b_norm(x) == pytest.approx(
                math.sqrt(coords(x) @ gram @ coords(x)), rel=1e-12
            )


def test_group_distance_identity_symmetry_first_order():
    rng = derive_rng(2, "gd")
    x = unit_direction(rng, 3)
    g = scipy.linalg.expm(0.15 * unit_direction(rng, 3))
    h = scipy.linalg.expm(0.1 * unit_direction(rng, 3))
    assert group_distance(g, g) == 0.0
    assert abs(group_distance(g, h) - group_distance(h, g)) < 1e-12
    t = 1e-4
    d = group_distance(scipy.linalg.expm(t * x), np.eye(3))
    assert d == pytest.approx(t * b_norm(x), rel=1e-6)


def test_group_distance_triangle_inequality_statistically():
    rng = derive_rng(3, "triangle")
    worst = -np.inf
    for _ in range(100):
        pts = [
            scipy.linalg.expm(3e-4 * unit_direction(rng, 3)) for _ in range(3)
        ]
        dxy = group_distance(pts[0], pts[1])
        dyz = group_distance(pts[1], pts[2])
        dxz = group_distance(pts[0], pts[2])
        worst = max(worst, dxz - dxy - dyz)
    assert worst <= 1e-9


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 1e-4])
def test_probe_input_distance_is_the_group_distance(epsilon):
    """d_input is eps ||X||_B by construction; it is the B-distance the
    perturbation exp(eps X) moves g, for unit and non-unit X alike."""
    rng = derive_rng(5, "input-distance")
    x = unit_direction(rng, 3)
    dirs = [x, 2.5 * x, random_traceless(rng, 3)]
    report = fine_probe(REGULAR_G, (2, 1), epsilon, 0, None, directions=dirs)
    for direction, sample in zip(dirs, report.detail):
        moved = scipy.linalg.expm(epsilon * direction) @ REGULAR_G
        assert sample.d_input == pytest.approx(group_distance(moved, REGULAR_G), rel=1e-9)


def test_fine_probe_needs_a_seed_or_directions():
    with pytest.raises(ValueError, match="seed.*directions"):
        fine_probe(REGULAR_G, (2, 1), 1e-3, 3, None)


@pytest.mark.parametrize("seed", (1.5, "3", np.float64(2), True))
def test_the_probes_and_the_sweep_reject_a_seed_that_is_not_an_integer(seed):
    """fine_probe used to fail inside numpy on a float or string seed,
    and lipschitz_sweep to run 1.5 as seed 1 and "3" as seed 3."""
    match = "seed must be an integer or a numpy Generator"
    with pytest.raises(ValueError, match=match):
        fine_probe(REGULAR_G, (2, 1), 1e-3, 2, seed)
    with pytest.raises(ValueError, match=match):
        lipschitz_sweep((2, 1), [0.5], [2.0], 1e-3, 1, seed=seed, wall=1)


def test_the_sweep_needs_a_seed():
    with pytest.raises(ValueError, match="needs a seed"):
        lipschitz_sweep((2, 1), [0.5], [2.0], 1e-3, 1, seed=None, wall=1)


def test_a_generator_seed_is_the_probes_stream():
    """A Generator is the stream an integer seed names; the sweep's base
    points draw from one Generator in turn."""
    reports = [fine_probe(REGULAR_G, (2, 1), 1e-3, 2, seed)
               for seed in (5, np.int64(5), derive_rng(5, "wavefront-probe"))]
    assert reports[0].detail == reports[1].detail == reports[2].detail
    runs = [lipschitz_sweep((2, 1), [0.5], [2.0], 1e-3, 2, seed=derive_rng(3, "g"), wall=1)
            for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0].n_points == 2


def mp_matrix(a):
    return mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in a])


def mp_relative_error(approx, exact):
    """||approx - exact||_F / ||exact||_F, evaluated at 50 digits."""
    with mpmath.workdps(50):
        diff = mp_matrix(approx) - exact
        return float(mpmath.mnorm(diff, "f") / mpmath.mnorm(exact, "f"))


def generator(kind, d, rng):
    """A d x d matrix of the named shape, before scaling."""
    x = rng.standard_normal((d, d))
    if kind == "nilpotent":  # strictly upper triangular: one Jordan block
        return np.triu(x, 1)
    if kind == "skew":  # exp of it is a rotation
        return x - x.T
    if kind == "boost":  # symmetric and in so(p, q): X^T J + J X = 0, J = diag(I_p, -I_q)
        p = int(rng.integers(1, d))
        x[:p, :p] = x[p:, p:] = 0.0
        x[p:, :p] = x[:p, p:].T
    return x


@st.composite
def log_stacks(draw):
    d = draw(st.integers(2, 4))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["general", "nilpotent", "skew", "boost"]),
        st.floats(1e-12, 0.999),
        st.integers(0, 2**32 - 1),
    ), min_size=1, max_size=5))
    stack = []
    for kind, norm, seed in rows:
        x = generator(kind, d, np.random.default_rng(seed))
        stack.append(norm * x / np.linalg.norm(x))
    return np.array(stack)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(e=log_stacks())
def test_log_near_identity_matches_a_50_digit_logm(e):
    """Every row of a stacked log, and the same row as a stack of one,
    is log(I + E) to 1e-13 relative for ||E||_F <= 1/2 and to 1e-12 up
    to 0.999, against mpmath.logm of I + E from the same float E."""
    logs = wavefront._log_near_identity(e)
    assert logs.shape == e.shape
    for row, lg in zip(e, logs):
        with mpmath.workdps(50):
            exact = mpmath.logm(mpmath.eye(len(row)) + mp_matrix(row))
        bound = 1e-13 if np.linalg.norm(row) <= 0.5 else 1e-12
        assert mp_relative_error(lg, exact) <= bound
        assert mp_relative_error(wavefront._log_near_identity(row[None])[0], exact) <= bound


def test_log_near_identity_domain():
    """Any row with ||E||_F >= 1 is outside the log's domain; E = 0 logs to 0."""
    ok = np.full((1, 3, 3), 0.1)
    far = np.diag([0.0, -1.0, 0.0])[None]
    with pytest.raises(MetricDomainError):
        wavefront._log_near_identity(np.concatenate([ok, far]))
    assert not wavefront._log_near_identity(np.zeros((2, 3, 3))).any()


def test_group_distance_domain_error():
    with pytest.raises(MetricDomainError):
        group_distance(np.diag([10.0, 1.0, 0.1]), np.eye(3))


def test_fine_probe_epsilon_consistency():
    reports = {
        eps: fine_probe(REGULAR_G, (2, 1), epsilon=eps, n=8, seed=77)
        for eps in (1e-2, 1e-3, 1e-4)
    }
    ratios = [r.ratio_k for r in reports.values()]
    for a, b in zip(ratios, ratios[1:]):
        assert abs(a - b) / b < 0.20
    for r in reports.values():
        assert r.crossings == 0
        for val in (r.ratio_k, r.ratio_a, r.ratio_h):
            assert val is not None and np.isfinite(val) and val >= 0


def test_fine_probe_is_deterministic():
    r1 = fine_probe(REGULAR_G, (2, 1), epsilon=1e-3, n=6, seed=9)
    r2 = fine_probe(REGULAR_G, (2, 1), epsilon=1e-3, n=6, seed=9)
    assert (r1.ratio_k, r1.ratio_a, r1.ratio_h) == (r2.ratio_k, r2.ratio_a, r2.ratio_h)


def tied_base(seed):
    """a = e: the base frame is tied on every wall."""
    rng = derive_rng(seed, "singular-base")
    k0 = random_rotation(rng, 3)
    h0 = random_indefinite_orthogonal(rng, 2, 1, scale=0.05)
    return k0 @ weyl_matrix((1, 1, -1), (2, 1)) @ h0


def test_fine_probe_near_identity_crosses_weyl_slots():
    # a = e sits on every wall: slot order is unstable under perturbation
    g = tied_base(11)
    report = fine_probe(g, (2, 1), epsilon=1e-3, n=16, seed=5)
    assert report.crossings >= 1
    # surviving samples see the arbitrary tie-broken frame: blow-up
    assert report.ratio_k is None or report.ratio_k > 100.0


def test_fine_probe_epsilon_guard():
    with pytest.raises(ValueError):
        fine_probe(REGULAR_G, (2, 1), epsilon=0.5, n=2, seed=0)
    with pytest.raises(ValueError):
        fine_probe(REGULAR_G, (2, 1), epsilon=0.0, n=2, seed=0)


def test_coarse_probe_trivial_grouping_matches_fine():
    """With nothing joined the coarse A-observable is the fine one, and
    the span-angle frame observable brackets the metric k-distance:
    max principal angle <= ||log relative rotation||_F <= sqrt(d) * max,
    with the B-norm a fixed sqrt(2d) rescale of the Frobenius norm."""
    fine = fine_probe(REGULAR_G, (2, 1), epsilon=1e-3, n=10, seed=77)
    coarse = coarse_probe(REGULAR_G, (2, 1), (), epsilon=1e-3, n=10, seed=77)
    assert coarse.ratio_coarse_aI == fine.ratio_a
    d = 3
    lo = fine.ratio_k / math.sqrt(2 * d) / math.sqrt(d)
    hi = fine.ratio_k / math.sqrt(2 * d)
    assert 0.95 * lo <= coarse.ratio_coarse_frame <= 1.05 * hi


def test_coarse_probe_rejects_ambiguous_clustering():
    rng = derive_rng(19, "tight-margin")
    avec = np.exp(chamber_point([0.05, 1.0]))
    g = (
        random_rotation(rng, 3)
        @ (avec[:, None] * (weyl_matrix((1, 1, -1), (2, 1))
                            @ random_indefinite_orthogonal(rng, 2, 1, 0.3)))
    )
    # kept wall 1 has margin 0.05 < 10 * 0.01
    with pytest.raises(ValueError):
        coarse_probe(g, (2, 1), (), epsilon=1e-2, n=2, seed=0)
    # joining that wall lifts the ambiguity
    coarse_probe(g, (2, 1), (1,), epsilon=1e-2, n=2, seed=0)
    # the same pass reports the fine view and leaves the coarse one out
    fine = fine_probe(g, (2, 1), epsilon=1e-2, n=4, seed=0)
    for joined in ((), (2,)):
        r = fine_probe(g, (2, 1), epsilon=1e-2, n=4, seed=0, joined=joined)
        assert r.ratio_coarse_aI is None and r.ratio_coarse_frame is None
        assert r.ratio_k is not None and r.ratio_a is not None and r.ratio_h is not None
        assert (r.ratio_k, r.ratio_a, r.ratio_h, r.crossings, r.detail) == (
            fine.ratio_k, fine.ratio_a, fine.ratio_h, fine.crossings, fine.detail
        )


def test_coarse_probe_rescues_near_wall_base_point():
    """The frame factor loses Lipschitz control like 1/margin at a wall;
    the coarse probe joining that wall stays at the deep-chamber scale.
    The a-coordinates never blow up: a congruence by exp(eps X) moves
    every log |eigenvalue| by at most ~2 eps ||X||_2 (Ostrowski), so
    ratio_a stays O(1) at any margin and only k and h degrade."""
    rng = derive_rng(21, "near-wall")
    margins = np.array([0.01, 1.0])
    avec = np.exp(chamber_point(margins))
    k0 = random_rotation(rng, 3)
    h0 = random_indefinite_orthogonal(rng, 2, 1, scale=0.4)
    g = k0 @ (avec[:, None] * (weyl_matrix((1, 1, -1), (2, 1)) @ h0))
    dirs_seed = 33
    fine = fine_probe(g, (2, 1), epsilon=1e-4, n=12, seed=dirs_seed)
    coarse = coarse_probe(g, (2, 1), (1,), epsilon=1e-4, n=12, seed=dirs_seed)
    assert fine.crossings == 0
    assert fine.ratio_k >= 10.0 * coarse.ratio_coarse_frame
    assert fine.ratio_h >= 10.0 * max(coarse.ratio_coarse_frame, coarse.ratio_coarse_aI)
    assert fine.ratio_a < 2.0  # Ostrowski bound, no rescue needed


@pytest.mark.parametrize("margins, epsilon", [([0.8, 0.9], 1e-3), ([0.01, 1.0], 1e-4)])
def test_probe_displacements_match_a_50_digit_log(margins, epsilon):
    """On a deep and on a near-wall base point, each kept d_k and d_h is
    ||log||_B of k_al k^T and of h_al h^-1, the gauged float factors
    multiplied and logged at 50 digits, to 1e-12 relative."""
    g = synthetic_base(margins, seed=7)
    rng = derive_rng(43, "probe-accuracy")
    dirs = [unit_direction(rng, 3) for _ in range(8)]
    report = fine_probe(g, (2, 1), epsilon, 0, None, directions=dirs)
    assert report.crossings == 0
    base = kah_decompose(g, (2, 1))
    jmat = mp_matrix(signature_matrix(2, 1))
    for x, sample in zip(dirs, report.detail):
        probe = kah_decompose(scipy.linalg.expm(epsilon * x) @ g, (2, 1))
        k_al, h_al = wavefront._gauge(base, probe)
        with mpmath.workdps(50):
            for got, m in (
                (sample.d_k, mp_matrix(k_al) * mp_matrix(base.k).T),
                (sample.d_h, mp_matrix(h_al) * jmat * mp_matrix(base.h).T * jmat),
            ):
                exact = math.sqrt(6) * mpmath.mnorm(mpmath.logm(m), "f")
                assert float(abs(got - exact) / exact) <= 1e-12


def test_probe_row_outside_the_log_domain_is_infinite_alone():
    """A tied base frame: one kept direction lands at ||E||_F >= 1 and
    reports infinite displacements, the others stay finite and agree with
    probes taken one direction at a time.  The series' term count follows
    the stack's largest ||Z||, so agreement is to 1e-14, not bit for bit."""
    g = tied_base(12)
    rng = derive_rng(5, "wavefront-probe")
    dirs = [unit_direction(rng, 3) for _ in range(16)]
    report = fine_probe(g, (2, 1), 1e-3, 0, None, directions=dirs)
    kept = [s for s in report.detail if not s.crossed]
    assert sum(math.isinf(s.d_k) for s in kept) == 1
    assert sum(math.isfinite(s.d_k) for s in kept) >= 3
    for x, sample in zip(dirs, report.detail):
        (alone,) = fine_probe(g, (2, 1), 1e-3, 0, None, directions=[x]).detail
        assert alone.crossed == sample.crossed
        if sample.crossed:
            continue
        assert alone.d_a == sample.d_a
        for got, ref in ((sample.d_k, alone.d_k), (sample.d_h, alone.d_h)):
            assert math.isinf(got) == math.isinf(ref)
            if math.isfinite(ref):
                assert got == pytest.approx(ref, rel=1e-14)


def test_probe_with_every_direction_crossed_takes_no_log(monkeypatch):
    g = tied_base(12)
    rng = derive_rng(5, "wavefront-probe")
    dirs = [unit_direction(rng, 3) for _ in range(16)]
    report = fine_probe(g, (2, 1), 1e-3, 0, None, directions=dirs)
    crossed = [x for x, s in zip(dirs, report.detail) if s.crossed]
    assert crossed

    def no_log(e):
        raise AssertionError("a log was taken")

    monkeypatch.setattr(wavefront, "_log_near_identity", no_log)
    report = fine_probe(g, (2, 1), 1e-3, 0, None, directions=crossed)
    assert report.crossings == report.samples == len(crossed)
    assert (report.ratio_k, report.ratio_a, report.ratio_h) == (None, None, None)


def test_coarse_probe_joined_validation():
    with pytest.raises(ValueError):
        coarse_probe(REGULAR_G, (2, 1), (3,), epsilon=1e-3, n=2, seed=0)


def separate_coarse_pass(g, signature, joined, epsilon, directions):
    """Reference coarse ratios from a loop of their own over the
    directions, with the slot groups built wall by wall."""
    d = sum(signature)
    blocks, cur = [], [0]
    for i in range(1, d):
        if i in joined:
            cur.append(i)
        else:
            blocks.append(cur)
            cur = [i]
    blocks.append(cur)
    base = kah_decompose(g, signature)
    base_means = np.array([np.log(base.a)[b].mean() for b in blocks])
    ratio_ai, ratio_frame = 0.0, 0.0
    for x in directions:
        probe = kah_decompose(scipy.linalg.expm(epsilon * x) @ g, signature)
        means = np.array([np.log(probe.a)[b].mean() for b in blocks])
        ratio_ai = max(ratio_ai, float(np.linalg.norm(means - base_means)) / epsilon)
        ang = 0.0
        for b in blocks:
            theta = scipy.linalg.subspace_angles(base.k[:, b], probe.k[:, b])
            ang = max(ang, float(theta[0]))
        ratio_frame = max(ratio_frame, ang / epsilon)
    return ratio_ai, ratio_frame


def synthetic_base(margins, seed):
    rng = derive_rng(seed, "oracle-base")
    avec = np.exp(chamber_point(margins))
    k0 = random_rotation(rng, 3)
    h0 = random_indefinite_orthogonal(rng, 2, 1, scale=0.4)
    return k0 @ (avec[:, None] * (weyl_matrix((1, 1, -1), (2, 1)) @ h0))


@pytest.mark.parametrize(
    "margins, joined, epsilon",
    [
        ([0.8, 0.9], (), 1e-3),  # deep in the chamber
        ([0.01, 1.0], (1,), 1e-4),  # next to wall 1, which is joined
        ([0.0, 0.0], (1, 2), 1e-3),  # a = e: every wall, every one joined
    ],
)
def test_coarse_ratios_equal_a_separate_coarse_pass(margins, joined, epsilon):
    g = synthetic_base(margins, seed=len(joined))
    rng = derive_rng(41, "oracle-directions", len(joined))
    dirs = [unit_direction(rng, 3) for _ in range(16)]
    report = coarse_probe(g, (2, 1), joined, epsilon, 0, None, directions=dirs)
    ratio_ai, ratio_frame = separate_coarse_pass(g, (2, 1), joined, epsilon, dirs)
    assert report.ratio_coarse_aI == ratio_ai
    # the probe's closed-form angle against scipy: at a = e both values
    # are rounding noise of order 1e-13
    assert report.ratio_coarse_frame == pytest.approx(ratio_frame, rel=1e-10, abs=1e-12)
    fine = fine_probe(g, (2, 1), epsilon, 0, None, directions=dirs)
    assert (report.crossings, report.detail) == (fine.crossings, fine.detail)
    if margins == [0.0, 0.0]:
        # crossed directions still enter the coarse ratios
        assert 0 < report.crossings < len(dirs)


@st.composite
def column_blocks(draw):
    """(a, b, angle): d x m blocks with orthonormal columns, d = 2..5 and
    m = 1..d-1, whose spans meet at drawn principal angles (near 0, near
    pi/2 or anywhere), the largest of them being angle."""
    d = draw(st.integers(2, 5))
    m = draw(st.integers(1, d - 1))
    small = st.floats(1e-9, 1e-3)
    angle = st.one_of(small, small.map(lambda t: math.pi / 2 - t), st.floats(0.0, math.pi / 2))
    thetas = draw(st.lists(angle, min_size=min(m, d - m), max_size=min(m, d - m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_rotation(rng, d)
    b = q[:, :m].copy()
    for i, t in enumerate(thetas):  # tilt column i towards q[:, m + i]
        b[:, i] = math.cos(t) * q[:, i] + math.sin(t) * q[:, m + i]
    # other orthonormal bases of the same two spans
    return q[:, :m] @ random_rotation(rng, m), b @ random_rotation(rng, m), max(thetas)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=column_blocks())
def test_largest_angle_matches_the_drawn_angle_and_scipy(case):
    """_largest_angle is the largest drawn angle to 1e-14 on either side
    of its arcsin/arccos switch.  scipy's subspace_angles takes the
    arcsin whenever its largest cosine has cos^2 >= 1/2, which loses
    digits once the largest angle nears pi/2; everywhere else the two
    agree to 1e-14."""
    a, b, angle = case
    got = wavefront._largest_angle(a, b)
    assert got == pytest.approx(angle, abs=1e-14)
    if scipy.linalg.svdvals(a.T @ b).max() ** 2 < 0.5 or math.sin(angle) ** 2 < 0.5:
        assert got == pytest.approx(scipy.linalg.subspace_angles(a, b)[0], abs=1e-14)


def test_sweep_factors_each_perturbation_once(monkeypatch):
    """Per base point: one factorization of g, then one expm and one
    factorization per direction (three of them), shared by the fine and
    the coarse view.  The input distance is eps ||X||_B by construction,
    so no group distance is computed, and no scipy logm is called."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    linalg = wavefront.scipy.linalg
    monkeypatch.setattr(wavefront, "kah_decompose", counted("kah", wavefront.kah_decompose))
    monkeypatch.setattr(wavefront, "group_distance", counted("gd", wavefront.group_distance))
    monkeypatch.setattr(wavefront, "scipy", types.SimpleNamespace(linalg=types.SimpleNamespace(
        expm=counted("expm", linalg.expm),
        logm=counted("logm", linalg.logm),
    )))
    (cell,) = lipschitz_sweep(
        (2, 1), c_grid=[0.5], depth_grid=[2.0], epsilon=1e-3, n_per_cell=4, seed=4, wall=1,
    )
    assert cell.n_points == 4 and cell.ratio_coarse_aI is not None
    assert calls == {"kah": 4 * (1 + 3), "expm": 4 * 3}
    assert calls["logm"] == 0  # the displacements take the series log


def test_chamber_point_and_margins_for_depth():
    m = np.array([0.3, 0.7])
    y = chamber_point(m)
    assert abs(y.sum()) < 1e-12
    assert np.allclose(-np.diff(y), m)
    mm = margins_for_depth(3, wall=1, c=0.2, depth=2.0)
    assert mm[0] == pytest.approx(0.2)
    assert np.linalg.norm(chamber_point(mm)) == pytest.approx(2.0)
    assert mm.min() == pytest.approx(0.2)  # pinned wall is the minimum
    with pytest.raises(ValueError):
        margins_for_depth(3, wall=1, c=1.0, depth=0.5)


def test_lipschitz_sweep_shape_and_empty_cells():
    cells = lipschitz_sweep(
        (2, 1), c_grid=[0.5], depth_grid=[0.1, 2.0], epsilon=1e-3,
        n_per_cell=3, seed=4, wall=1,
    )
    assert len(cells) == 2
    shallow, deep = cells
    # depth 0.1 cannot hold a margin-0.5 point: recorded empty, no numbers
    assert shallow.empty and shallow.n_points == 0 and shallow.ratio_k is None
    assert not deep.empty and deep.n_points == 3
    assert deep.ratio_k > 0 and deep.ratio_a > 0 and deep.ratio_h > 0
    assert deep.ratio_coarse_aI > 0 and deep.ratio_coarse_frame > 0
    for wall in (0, 3):
        with pytest.raises(ValueError, match="wall must be"):
            lipschitz_sweep((2, 1), [0.5], [2.0], 1e-3, 1, seed=4, wall=wall)


def test_lipschitz_sweep_rejects_negative_c_or_depth():
    """Negative, NaN and infinite values are rejected before any base
    point is built (NaN used to slip past a v < 0 test into the SVD)."""
    bad = (([-0.5], [2.0]), ([0.5], [2.0, -1.0]), ([math.nan], [2.0]),
           ([0.5], [math.inf]), ([-math.inf], [2.0]), ([0.5], [math.nan]))
    for c_grid, depth_grid in bad:
        with pytest.raises(ValueError, match="nonnegative"):
            lipschitz_sweep((2, 1), c_grid, depth_grid, 1e-3, 1, seed=1)


def test_lipschitz_sweep_needs_a_base_point_per_cell():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            lipschitz_sweep((2, 1), [0.5], [2.0], 1e-3, n, seed=1)


@pytest.mark.parametrize(
    "signature, kw, rows",
    [
        ((2, 1), dict(c_grid=[0.05, 0.5], depth_grid=[2.0], n_per_cell=3, seed=4, wall=1), [
            ["0.05", "2", "8.40734052589", "0.291963358212", "8.67158089908",
             "0.190310708738", "0.333717007023", "0"],
            ["0.5", "2", "1.59232490453", "0.398642526237", "1.00659249221",
             "0.32151887108", "0.291270078708", "0"],
        ]),
        ((2, 2), dict(c_grid=[0.2], depth_grid=[1.5, 3.0], n_per_cell=2, seed=6), [
            ["0.2", "1.5", "2.60285552721", "0.256710092196", "2.27194826161",
             "0.198308897087", "0.215155705121", "0"],
            ["0.2", "3", "2.83106833531", "0.179354164634", "2.78447897658",
             "0.156758729876", "0.281511715622", "0"],
        ]),
    ],
)
def test_lipschitz_sweep_rows_are_pinned(signature, kw, rows):
    """The sweep's CSV rows, at the 12 digits the CLI writes.  Their last
    digit is below the float pipeline's accuracy (about 1e-11 relative
    against a 50-digit recomputation), so a change in rounding may move
    it; a re-pin is checked against such a recomputation first."""
    cells = lipschitz_sweep(signature, epsilon=1e-3, **kw)
    assert [[_fmt(getattr(cell, col)) for col in SWEEP_COLUMNS] for cell in cells] == rows


def test_lipschitz_sweep_deterministic_per_seed():
    kw = dict(
        c_grid=[0.4], depth_grid=[1.5], epsilon=1e-3, n_per_cell=2, seed=8, wall=1
    )
    a = lipschitz_sweep((2, 1), **kw)
    b = lipschitz_sweep((2, 1), **kw)
    assert a == b
