"""Density closed forms, region volumes, and boundary-layer estimates."""

import dataclasses
import hashlib
import itertools
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import expm

from conftest import child_env
from qfsectors import enumeration, sector, volume
from qfsectors.sampling import derive_rng, random_rotation
from qfsectors.sector import AntiCap, Cap, FullFrame
from qfsectors.wavefront import _unit_directions
from qfsectors.volume import (
    DensityContext,
    _ball_radius,
    _mc_series,
    _nested_quadrature,
    _upper_margin,
    context_for,
    context_pq,
    haar_fraction,
    singular_volume,
    volume_series,
    wellroundedness_ratio,
    xi_density,
)


# ------------------------------------------------------------------ density


def test_xi_closed_form_full_chamber():
    ctx = context_for((1, 1, -1))
    for t in (0.3, 1.0, 2.5):
        y = ctx.log_coords([t, t])
        want = math.sinh(t) * math.cosh(2 * t) * math.cosh(t)
        assert xi_density(ctx, y) == pytest.approx(want, rel=1e-12)
    # swapping the middle sign turns the long root hyperbolic
    alt = context_for((1, -1, 1))
    t = 0.7
    want = math.cosh(t) * math.sinh(2 * t) * math.cosh(t)
    assert xi_density(alt, alt.log_coords([t, t])) == pytest.approx(want, rel=1e-12)


def test_xi_closed_form_joined_wall():
    ctx = context_for((1, 1, -1), joined=(1,))
    assert ctx.blocks.dims == (2, 1)
    for s in (0.2, 1.4):
        y = ctx.log_coords([s])
        assert np.allclose(y, [s / 3, s / 3, -2 * s / 3])
        assert xi_density(ctx, y) == pytest.approx(math.cosh(s) ** 2, rel=1e-12)


def test_xi_vanishes_on_compact_wall():
    ctx = context_for((1, 1, -1))
    assert xi_density(ctx, ctx.log_coords([0.0, 1.0])) == 0.0
    walls = np.asarray([[0.0, 1.0], [0.0, 0.0], [0.0, 2.5]])
    assert np.exp(volume._log_abs_xi(ctx, walls)).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "signs, joined",
    [((1, 1, -1), ()), ((1, -1, 1), (1,)), ((1, -1, 1, -1), ()), ((1, 1, 1, -1, -1), (3,)),
     ((1, -1, 1, -1, 1, -1), ())],
)
def test_log_abs_xi_matches_the_per_root_loop(signs, joined):
    # the evaluator adds its terms root by root, in the order of free_roots
    ctx = context_for(signs, joined=joined)
    margins = np.random.default_rng(len(signs)).random((200, len(ctx.cuts))) * 3.0
    margins[:20, 0] = 0.0
    y = ctx.log_coords(margins)
    want = np.zeros(len(margins))
    with np.errstate(divide="ignore"):
        for i, j, lp, _ in ctx.free_roots():
            v = y[:, i - 1] - y[:, j - 1]
            want += np.log(np.abs(np.sinh(v))) if lp else np.log(np.cosh(v))
    assert np.array_equal(volume._log_abs_xi(ctx, margins), want)


def test_xi_rejects_points_off_the_cone():
    ctx = context_for((1, 1, -1))
    with pytest.raises(ValueError, match="nonzero trace"):
        xi_density(ctx, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="negative wall margin"):
        xi_density(ctx, ctx.log_coords([-0.5, 1.0]))
    with pytest.raises(ValueError, match="length-d"):
        xi_density(ctx, [0.0, 0.0])
    joined = context_for((1, 1, -1), joined=(1,))
    with pytest.raises(ValueError, match="not block-constant"):
        xi_density(joined, ctx.log_coords([1.0, 1.0]))


def test_free_roots_cross_cuts_only():
    ctx = context_for((1, 1, -1), joined=(2,))
    assert ctx.blocks.dims == (1, 2)
    roots = ctx.free_roots()
    assert [(i, j) for i, j, _, _ in roots] == [(1, 2), (1, 3)]
    mults = {(i, j): (lp, lm) for i, j, lp, lm in roots}
    assert mults[(1, 2)] == (1, 0)
    assert mults[(1, 3)] == (0, 1)


def test_log_coords_batch_and_trace():
    ctx = context_for((1, 1, -1))
    single = ctx.log_coords([0.4, 0.9])
    batch = ctx.log_coords([[0.4, 0.9], [0.1, 0.2]])
    assert single.shape == (3,)
    assert batch.shape == (2, 3)
    assert np.allclose(batch[0], single)
    assert abs(batch.sum(axis=1)).max() < 1e-12
    with pytest.raises(ValueError):
        ctx.log_coords([0.4])


def test_context_equality_ignores_stored_structure():
    a, b = context_for((1, 1, -1), joined=(2,)), context_for((1, 1, -1), joined=(2,))
    assert [f.name for f in dataclasses.fields(DensityContext)] == ["signs", "joined"]
    object.__setattr__(b, "_free_roots", ())
    object.__setattr__(b, "_dims", np.zeros(2))
    assert a == b and repr(a) == repr(b)
    # the hash covers the same two tuples, stored values or not
    assert hash(a) == hash(b) == hash(((1, 1, -1), (2,)))
    assert a != context_for((1, 1, -1))
    assert a.blocks is a.blocks and a.free_roots() is a.free_roots()
    assert a.cuts == a.blocks.cuts == (1,)


@pytest.mark.parametrize(
    "signs, joined",
    [((1, 1, -1), ()), ((1, 1, -1), (1,)), ((1, -1, 1, -1), (2,)), ((1, 1, 1, -1, -1), ())],
)
def test_block_logs_and_radius_from_scratch(signs, joined):
    ctx = context_for(signs, joined=joined)
    dims = np.asarray(ctx.blocks.dims)
    n = len(ctx.cuts)
    margins = np.random.default_rng(len(signs)).random((7, n)) * 3.0
    vals = ctx.block_logs(margins)
    # block values: consecutive drops are the margins, the trace is zero
    system = np.zeros((n + 1, n + 1))
    for k in range(n):
        system[k, k], system[k, k + 1] = 1.0, -1.0
    system[n] = dims
    for row, m in zip(vals, margins):
        assert np.allclose(row, np.linalg.solve(system, np.append(m, 0.0)), rtol=0, atol=1e-12)
    y = ctx.log_coords(margins)
    assert np.array_equal(y, np.repeat(vals, dims, axis=1))
    assert np.array_equal(ctx.log_coords(margins[0]), y[0])
    radius = _ball_radius(ctx, margins)
    assert np.allclose(radius, np.sqrt(np.exp(4.0 * y).sum(axis=1)), rtol=1e-13)
    # on one row, as the margin bisection asks, the former route (repeat,
    # then re-slice the block starts) gives the same bits
    starts = np.concatenate([[0], np.asarray(ctx.cuts, dtype=int)])
    for m in margins:
        row = ctx.log_coords(m[None, :])
        former = np.sqrt(np.exp(4.0 * row[:, starts]) @ dims.astype(float))
        assert np.array_equal(_ball_radius(ctx, m[None, :]), former)
    with pytest.raises(ValueError, match="one margin per interior cut"):
        ctx.block_logs(np.zeros((2, n + 1)))


@pytest.mark.parametrize("d", range(2, 11))
def test_block_logs_keep_the_bits_of_row_sums(d):
    # the former whole-row cumsum and sum, which numpy sums pairwise from
    # 8 columns on, on one-dimensional blocks and on a joined wall
    rng = np.random.default_rng(d)
    for joined in ((), (1,)):
        ctx = context_for([1] * d, joined)
        m = rng.random((500, len(ctx.cuts))) * 10.0 ** rng.integers(-300, 3, (500, 1))
        drop = np.concatenate([np.zeros((len(m), 1)), np.cumsum(m, axis=1)], axis=1)
        shift = (drop * np.asarray(ctx.blocks.dims, dtype=float)).sum(axis=1) / d
        assert np.array_equal(ctx.block_logs(m), shift[:, None] - drop)


def _digest(*arrays) -> str:
    """sha256 of float arrays' bytes, every nan read as np.nan."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=float)
        h.update(np.where(np.isnan(a), np.nan, a).tobytes())
    return h.hexdigest()


_EXTREME_MARGINS = [0.0, 1e-300, 1e-200, 1e-100, 1e-20, 1e-8, 0.1, 1.0, 7.5, 100.0, 1e3]


@pytest.mark.parametrize(
    "signs, joined, want",
    [
        ((1, -1), (), "67ac38b91a31b0b786f81d5a14c9b755d8ad6e442661a5dbb8847741d9b73596"),
        ((1, 1, -1), (), "26affcf2f2f86f89163a90a085b7fa6e6b70a5c19fbff351278a1d60bd689196"),
        ((1, -1, 1, -1), (2,),
         "0c4cb66d3412f41d548a58a449a56ab6259ac023a4271390452030241a88d901"),
        ((1, 1, -1, -1), (), "ce783b323771d19c616e3dc1b2be90a8d86704a640255e6a4e1ffbadea015e34"),
        ((1, -1, 1, -1, 1), (),
         "3b1b45c25fba21af0c1dd67a43da4126bd17a1b1ebc8b72d0f0c43d100f564f2"),
    ],
    ids=["d2", "d3", "d4-joined", "d4", "d5"],
)
def test_density_kernels_keep_their_bits(signs, joined, want):
    # every margin row over exact zeros and 1e-300 .. 1e3, where the
    # radius overflows and a term can be +inf against a wall's -inf
    ctx = context_for(signs, joined)
    m = np.asarray(list(itertools.product(_EXTREME_MARGINS, repeat=len(ctx.cuts))))
    with np.errstate(over="ignore", invalid="ignore"):
        logs = ctx.block_logs(m)
        lx = volume._log_abs_xi(ctx, m)
        assert _digest(logs, lx, _ball_radius(ctx, m)) == want
        y = ctx.log_coords(m)
        wall = np.zeros(len(m), dtype=bool)
        for i, j, lp, _ in ctx.free_roots():
            wall |= bool(lp) & (y[:, i - 1] == y[:, j - 1])
        # log |xi| is -inf exactly on a wall, so its density is exactly 0,
        # unless an overflowed +inf term makes it nan
        on_wall = wall & ~np.isnan(lx)
        assert np.array_equal(np.isneginf(lx), on_wall)
        assert not np.exp(lx[on_wall]).any()


@pytest.mark.parametrize(
    "case, want, state",
    [
        (((1, -1), (), 6.0, 0.0, 0.25),
         "1181e8fd0ea2656d728ce33d59f2df7b709117dac118147d711575c1cde0d3ce",
         264798458128845263461628144043567099612),
        (((1, 1, -1), (), 8.0, 0.0, 0.25),
         "d5bc00530c6a50ac79960db68226b518149b3a2cf32cda03b393597a799981b5",
         314665095794900846228847993165888759055),
        (((1, -1, 1, -1), (), 5.0, 0.0, 0.25),
         "f91a63ff44001177f45f9ac1046693b34f648a8df2176355e06ae3e2a139d18f",
         12700522737795923288137581714207822916),
        (((1, 1, -1, -1, -1), (3,), 7.0, 0.0, 0.25),
         "e559ea17c93c00c9e5068156253cbc72e36260963fba32e3c8e44a8b4f9d8dd9",
         154320234945801507014665233199416161468),
        # the well-roundedness ratio's collar at epsilon = 0.1
        (((1, 1, -1), (), 8.0, -0.8, 0.45),
         "fbcd691b8a6087c856b6cc0df98cad3af4822e5199774674c49016c17317cfb4",
         314665095794900846228847993165888759055),
    ],
    ids=["d2", "d3", "d4", "d5-joined", "collar"],
)
def test_grid_margins_keep_their_bits(case, want, state):
    """The margins, the weights and the generator's state after the draw,
    as rng.choice(len(cells), size=samples, p=p_cell) left them."""
    signs, joined, t, lo, pad = case
    rng = np.random.default_rng(len(signs) + len(joined))
    margins, weights = volume._grid_margins(context_for(signs, joined), t, rng, 5000, lo, pad)
    assert _digest(margins, weights) == want
    assert rng.bit_generator.state["state"]["state"] == state


@st.composite
def _cell_masses(draw):
    """Cell probabilities as _grid_margins forms them, with empty cells,
    ties and a wide range of masses."""
    masses = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-12, 0.5, 1.0, 1.0, 7.0, 1e6]),
                           min_size=1, max_size=300))
    mass = np.asarray(masses)
    if not mass.any():
        mass[0] = 1.0
    keep = mass > 0
    return 0.9 * mass / float(mass.sum()) + 0.1 * keep / int(np.count_nonzero(keep))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=_cell_masses(), samples=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
       philox=st.booleans())
def test_cell_draw_is_rng_choice(p, samples, seed, philox):
    """The sorted-search draw gives choice's indices and leaves the
    generator where choice leaves it."""
    def rng():
        return derive_rng(seed, "cells") if philox else np.random.default_rng(seed)

    ours, theirs = rng(), rng()
    got = volume._draw_cells(ours, p, samples)
    assert np.array_equal(got, theirs.choice(len(p), size=samples, p=p))
    # str: a Philox state holds arrays
    assert str(ours.bit_generator.state) == str(theirs.bit_generator.state)


@pytest.mark.parametrize(
    "p", [[0.5, np.nan, 0.5], [0.5, -0.1, 0.6], [0.5, np.inf], [0.3, 0.3]],
    ids=["nan", "negative", "inf", "short"],
)
def test_cell_draw_refuses_what_choice_refuses(p):
    p = np.asarray(p)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), size=4, p=p)
    with pytest.raises(ValueError, match="cell probabilities"):
        volume._draw_cells(np.random.default_rng(0), p, 4)


def test_context_validation():
    with pytest.raises(ValueError, match="joined walls"):
        DensityContext(signs=(1, 1, -1), joined=(3,))
    for signs in ((1, 0, -1), (1, 2), (1,), ()):
        with pytest.raises(ValueError, match="length >= 2"):
            context_for(signs)
    assert context_for([1, -1], [1, 1]) == DensityContext(signs=(1, -1), joined=(1,))
    # the definite pattern is allowed: every root is hyperbolic there
    definite = context_for((1, 1, 1))
    t = 0.6
    want = math.sinh(t) * math.sinh(2 * t) * math.sinh(t)
    assert xi_density(definite, definite.log_coords([t, t])) == pytest.approx(
        want, rel=1e-12
    )


def test_haar_fraction_closed_form():
    for theta in (0.3, 0.8, 1.2):
        cap = Cap(axis=(0.0, 0.0, 1.0), angle=theta)
        assert haar_fraction(cap, 3) == pytest.approx(1.0 - math.cos(theta), rel=1e-12)
        anti = AntiCap(axis=(0.0, 0.0, 1.0), angle=theta)
        assert haar_fraction(cap, 3) + haar_fraction(anti, 3) == pytest.approx(1.0)
    assert haar_fraction(Cap(axis=(1.0, 0.0, 0.0), angle=2.0), 3) == 1.0
    assert haar_fraction(None, 3) == 1.0
    assert haar_fraction(FullFrame(), 5) == 1.0


# ------------------------------------------------------------------ volumes


def test_quadrature_agrees_with_monte_carlo():
    ctx = context_for((1, 1, -1))
    grid = [6.0, 10.0]
    quad = volume_series(ctx, grid)
    mc = volume_series(ctx, grid, method="monte-carlo", samples=60_000, seed=101)
    for vq, vm, se in zip(quad.values, mc.values, mc.stderr):
        assert se > 0
        assert abs(vq - vm) < 3.0 * se
    assert quad.manifest["predicted_a"] == "3"
    assert quad.manifest["predicted_b"] == 1


def test_volume_tail_slope_near_prediction():
    ctx = context_for((1, 1, -1))
    series = volume_series(ctx, [6.0, 8.5, 12.0, 17.0, 24.0])
    assert series.fit_b_fixed == 1
    assert 2.5 < series.fit_a < 3.5
    assert all(v > 0 for v in series.values)
    assert list(series.values) == sorted(series.values)


def test_singular_volume_behaviour():
    ctx = context_for((1, 1, -1))
    grid = [6.0, 10.0]
    total = volume_series(ctx, grid)
    zero = singular_volume(ctx, 0.0, grid)
    assert zero.values == (0.0, 0.0)
    prev = zero
    for c in (0.05, 0.1, 0.2):
        cur = singular_volume(ctx, c, grid)
        for lo, hi, top in zip(prev.values, cur.values, total.values):
            assert lo <= hi <= top
        prev = cur
    mc = singular_volume(
        ctx, 0.2, grid, method="monte-carlo", samples=60_000, seed=202
    )
    ref = singular_volume(ctx, 0.2, grid)
    for vq, vm, se in zip(ref.values, mc.values, mc.stderr):
        assert abs(vq - vm) < 3.0 * se
    for c in (-0.1, math.nan, math.inf):
        for method in ("quadrature", "monte-carlo"):
            with pytest.raises(ValueError, match="need a finite c >= 0"):
                singular_volume(ctx, c, grid, method=method, samples=100, seed=1)


def test_monte_carlo_above_chamber_dimension_3():
    # d = 5 has four interior cuts, beyond the quadrature's reach
    ctx = context_pq(5, 3, 2)
    runs = [
        volume_series(ctx, [6.0, 9.0], method="monte-carlo", samples=50_000, seed=seed)
        for seed in (1, 2)
    ]
    for run in runs:
        assert 0 < run.values[0] < run.values[1]
        for v, se in zip(run.values, run.stderr):
            assert se / v < 0.25
    for v1, v2, s1, s2 in zip(runs[0].values, runs[1].values, runs[0].stderr, runs[1].stderr):
        assert abs(v1 - v2) < 6.0 * math.hypot(s1, s2)


def test_max_norm_cap_frame_off_the_coordinate_axes(monkeypatch):
    ctx = context_pq(3, 2, 1)
    cap, anti = Cap(axis=(1, 1, 1), angle=0.6), AntiCap(axis=(1, 1, 1), angle=0.6)
    full, inside, outside = (
        volume_series(ctx, [10.0], method="mc", norm="max", samples=40_000, seed=5, frame=f)
        .values[0]
        for f in (None, cap, anti)
    )
    assert full > 0
    assert abs(inside + outside - full) <= 1e-12 * full
    # every sample at one margin point, far inside the ball, with equal
    # weights: the accepted share is then a binomial frequency
    samples = 40_000
    monkeypatch.setattr(
        volume, "_grid_margins",
        lambda ctx, t, rng, samples, **kw: (np.ones((samples, 2)), np.ones(samples)),
    )
    (full,), _ = _mc_series(ctx, [100.0], "max", None, samples, 5)
    (inside,), _ = _mc_series(ctx, [100.0], "max", cap, samples, 5)
    share, p = inside / full, haar_fraction(cap, 3)
    assert abs(share - p) < 4.0 * math.sqrt(p * (1.0 - p) / samples)


def test_max_norm_cap_on_a_two_dimensional_top_block(monkeypatch):
    # the cap tests the slot-0 axis, a Haar-uniform line even when the top
    # block has two slots, so the accepted share is the frobenius factor
    ctx = context_for((1, 1, -1), joined=(1,))
    cap, samples = Cap(axis=(1, 1, 1), angle=0.6), 20_000
    monkeypatch.setattr(
        volume, "_grid_margins",
        lambda ctx, t, rng, samples, **kw: (np.ones((samples, 1)), np.ones(samples)),
    )
    (full,), _ = _mc_series(ctx, [100.0], "max", None, samples, 5)
    (inside,), _ = _mc_series(ctx, [100.0], "max", cap, samples, 5)
    share, p = inside / full, haar_fraction(cap, 3)
    assert abs(share - p) < 4.0 * math.sqrt(p * (1.0 - p) / samples)


def test_max_norm_volume_holds_when_a_far_t_joins_the_grid():
    # the margin box must reach every form of max norm < max(T), so a
    # value at T cannot depend on which larger T shares its grid
    ctx = context_for((1, 1, -1))
    near, far = (volume_series(ctx, grid, method="mc", norm="max", samples=20_000, seed=3)
                 for grid in ([6.0, 9.0], [6.0, 9.0, 60.0]))
    for k in range(2):
        spread = math.hypot(near.stderr[k], far.stderr[k])
        assert abs(near.values[k] - far.values[k]) < 4.0 * spread


def test_volumes_pinned_to_recorded_values():
    # recorded with the former bisection bound and per-root density loops
    ctx = context_for((1, 1, -1))
    grid = [6.0, 10.0, 17.0]
    recorded = {
        "quad": [2.599390187892266, 12.699580595844985, 63.300353247551016],
        "sing": [0.5021468228959893, 1.5883152112510306, 5.833888471074857],
        "frobenius": [2.5506801965976096, 9.157887667989602, 0.04696549800089262,
                      0.08084080376473715],
        # the max-norm box reaches frobenius radius d * max(T)
        "max": [9.47251575853182, 32.52149121890361, 0.38899308753245426,
                0.8841971493786978],
    }
    got = {
        "quad": volume_series(ctx, grid).values,
        "sing": singular_volume(ctx, 0.2, grid).values,
    }
    for norm in ("frobenius", "max"):
        mc = volume_series(ctx, [6.0, 9.0], method="mc", norm=norm, samples=20_000, seed=3)
        got[norm] = mc.values + mc.stderr
    for key, want in recorded.items():
        assert got[key] == pytest.approx(want, rel=1e-11), key


@pytest.mark.parametrize(
    "signs, joined, want",
    [
        ((1, -1, 1, -1), (2,), ["0x1.32abc6ee43babp+1", "0x1.55981da823338p+6"]),
        ((1, 1, -1, -1, -1), (3,), ["0x1.d0ad97121595bp+0", "0x1.6ea3e0f616638p+9"]),
        ((-1, 1, 1), (1,), ["0x1.519941657f669p+2", "0x1.ff7b97b1ec8a2p+4"]),
    ],
)
def test_quadrature_volumes_keep_their_bits(signs, joined, want):
    # cosh roots, interleaved signs and joined walls, to the last bit
    got = volume_series(context_for(signs, joined), [5.0, 9.0]).values
    assert [v.hex() for v in got] == want


def test_free_roots_match_the_sign_products():
    for d in range(2, 7):
        for signs in itertools.product((1, -1), repeat=d):
            for r in range(d):
                for joined in itertools.combinations(range(1, d), r):
                    # slots i < j lie in different blocks when a wall between them is cut
                    want = [
                        (i, j, int(signs[i - 1] == signs[j - 1]), int(signs[i - 1] != signs[j - 1]))
                        for i in range(1, d + 1)
                        for j in range(i + 1, d + 1)
                        if not set(range(i, j)) <= set(joined)
                    ]
                    assert list(context_for(signs, joined).free_roots()) == want


@st.composite
def _margin_problems(draw):
    d = draw(st.integers(2, 5))
    p = draw(st.integers(1, d))
    signs = draw(st.permutations((1,) * p + (-1,) * (d - p)))
    walls = list(range(1, d))
    joined = draw(st.lists(st.sampled_from(walls), unique=True, max_size=d - 2))
    ctx = context_for(tuple(signs), joined=tuple(joined))
    n = len(ctx.cuts)
    if n > 3:
        joined = sorted(set(joined) | set(walls[: n - 3]))
        ctx = context_for(tuple(signs), joined=tuple(joined))
    margin = st.floats(0.0, 2.5)
    prefix = draw(st.lists(margin, max_size=len(ctx.cuts) - 1))
    return ctx, prefix, draw(st.floats(2.0, 1000.0)), draw(margin)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=_margin_problems())
def test_upper_margin_solves_radius_equals_t(problem):
    ctx, prefix, t, fill = problem
    rest = [fill] * (len(ctx.cuts) - len(prefix) - 1)

    def radius(mv):
        return float(_ball_radius(ctx, np.asarray([prefix + [mv] + rest]))[0])

    ub = _upper_margin(ctx, prefix, t, fill)
    if radius(fill) >= t:
        assert ub == fill
    else:
        assert ub > fill
        assert radius(ub) == pytest.approx(t, rel=1e-12)


def _block_logs(ctx, margins):
    """Trace-free block log values of one margin vector, in plain floats."""
    drop = [0.0]
    for m in margins:
        drop.append(drop[-1] + m)
    shift = sum(k * v for k, v in zip(ctx.blocks.dims, drop)) / ctx.d
    return [shift - v for v in drop]


def _reference_radius(ctx, margins):
    """The radius of one margin vector, to 50 digits."""
    with mpmath.workdps(50):
        logs = _block_logs(ctx, [mpmath.mpf(m) for m in margins])
        return mpmath.sqrt(mpmath.fsum(k * mpmath.exp(4 * v) for k, v in zip(ctx.blocks.dims, logs)))


def _reference_bound(ctx, prefix, t, fill):
    """_upper_margin by plain bisection on the 50-digit radius, one row at a
    time: near the cone's apex the radius is flat, and a float radius moves
    the root by ~3e-14.  A float radius more than 1e-13 from T already
    gives the same verdict."""
    rest = [fill] * (len(ctx.cuts) - len(prefix) - 1)

    def radius(mv):
        margins = prefix + [mv] + rest
        logs = _block_logs(ctx, margins)
        r = math.sqrt(sum(k * math.exp(4.0 * v) for k, v in zip(ctx.blocks.dims, logs)))
        return r if abs(r - t) > 1e-13 * t else _reference_radius(ctx, margins)

    if radius(fill) >= t:
        return fill
    lo, hi = fill, max(1.0, 2.0 * fill)
    while radius(hi) < t:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-14 + 4.0 * np.finfo(float).eps * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radius(mid) < t else (lo, mid)
    return hi


def _reference_volume(ctx, t, lower):
    """Integral of xi over the margins > lower inside the T-ball by nested
    scalar quad, with xi a product over free_roots of the block logs."""
    dims = ctx.blocks.dims
    block = [b for b, k in enumerate(dims) for _ in range(k)]
    roots = [(block[i - 1], block[j - 1], lp) for i, j, lp, _ in ctx.free_roots()]

    def xi(margins):
        logs = _block_logs(ctx, margins)
        return math.prod(
            abs(math.sinh(logs[a] - logs[b])) if lp else math.cosh(logs[a] - logs[b])
            for a, b, lp in roots
        )

    def inner(prefix):
        if len(prefix) == len(ctx.cuts):
            return xi(prefix)
        ub = _reference_bound(ctx, prefix, t, lower)
        if ub <= lower:
            return 0.0
        val, _ = integrate.quad(
            lambda mv: inner(prefix + [mv]), lower, ub, epsabs=1e-14, epsrel=1e-12, limit=200
        )
        return val

    return inner([])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=_margin_problems(), t=st.floats(1.5, 40.0), at_zero=st.booleans())
@example(problem=(context_for((1, -1, 1, -1)), [0.3, 0.7], 0.0, 0.2), t=12.0, at_zero=False)
@example(problem=(context_for((1, 1, -1, -1), (2,)), [], 0.0, 0.5), t=24.0, at_zero=True)
@example(problem=(context_for((1, -1, -1, -1)), [], 0.0, 0.0), t=2.00001, at_zero=True)
def test_quadrature_matches_nested_scalar_quad(problem, t, at_zero):
    ctx, prefix, _, c = problem
    lower = 0.0 if at_zero else c
    got, abserr = _nested_quadrature(ctx, t, lower)
    assert math.isfinite(abserr) and abserr >= 0.0
    want = _reference_volume(ctx, t, lower)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)
    # the ball misses the open cone: radius is sqrt(d) at its apex
    for small in (1.0, math.sqrt(ctx.d)):
        assert _nested_quadrature(ctx, small, lower) == (0.0, 0.0)
    # a batch of prefixes gives the one-row bounds
    k = len(prefix)
    rows = np.random.default_rng(k).random((16, k)) * 2.5
    rows[:4] = prefix
    bounds = [_upper_margin(ctx, list(row), t, c) for row in rows]
    assert _upper_margin(ctx, rows, t, c).tolist() == bounds
    assert _reference_bound(ctx, prefix, t, c) == pytest.approx(bounds[0], rel=1e-13, abs=1e-14)


def test_quadrature_error_estimates_are_recorded():
    for ctx in (context_for((1, 1, -1)), context_pq(4, 2, 2), context_for((1, -1, 1, -1, 1), (2,))):
        whole = volume_series(ctx, [2.0, 6.0, 12.0])
        for series in (whole, singular_volume(ctx, 0.2, [6.0, 12.0])):
            assert len(series.manifest["abserr"]) == len(series.values)
            for value, err in zip(series.values, series.manifest["abserr"]):
                assert math.isfinite(err) and 0.0 <= err <= max(1e-9 * value, 1e-10)
    mc = volume_series(context_for((1, 1, -1)), [6.0], method="mc", samples=100, seed=1)
    assert mc.manifest["abserr"] is None


def test_quadrature_never_returns_an_unconverged_value(monkeypatch):
    ctx = context_for((1, 1, -1))
    monkeypatch.setattr(volume, "_MAX_DEPTH", 1)
    monkeypatch.setattr(volume, "_EPSREL", 0.0)
    monkeypatch.setattr(volume, "_EPSABS", 0.0)
    with pytest.raises(ArithmeticError, match="depth cap"):
        _nested_quadrature(ctx, 6.0, 0.0)


def test_import_skips_scipy_optimize_and_integrate():
    code = (
        "import qfsectors, qfsectors.cli, sys; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.optimize', 'scipy.integrate'))))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def _qr_frame(z):
    """One sign-fixed QR frame of a d x d matrix: the oracle for the stacks."""
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _per_sample_rotation(rng, d, size=None):
    """The sampler as it was, one draw and one QR per frame."""
    if size is None:
        return _qr_frame(rng.standard_normal((d, d)))
    return np.stack([_qr_frame(rng.standard_normal((d, d))) for _ in range(size)])


@pytest.mark.parametrize("frame", [None, Cap(axis=(0.0, 0.0, 1.0), angle=0.8)])
def test_max_norm_mc_matches_per_sample_frames(monkeypatch, frame):
    ctx = context_for((1, 1, -1))
    batched = _mc_series(ctx, [6.0, 9.0], "max", frame, 3000, 9)
    monkeypatch.setattr(volume, "random_rotation", _per_sample_rotation)
    assert _mc_series(ctx, [6.0, 9.0], "max", frame, 3000, 9) == batched


def test_wellroundedness_matches_per_sample_frames(monkeypatch):
    """The ratio frames its probed rows only, with haar_frames; one QR per
    row gives the same result."""

    def per_row(normals):
        rows.append(len(normals))
        return np.array([_qr_frame(z) for z in normals]).reshape(normals.shape)

    ctx = context_for((1, 1, -1))
    batched = wellroundedness_ratio(ctx, 0.1, 8.0, seed=31, samples=1500)
    rows = []
    monkeypatch.setattr(volume, "haar_frames", per_row)
    assert wellroundedness_ratio(ctx, 0.1, 8.0, seed=31, samples=1500) == batched
    assert rows == [batched.probed] and batched.probed > 0


def test_volume_guards():
    ctx = context_for((1, 1, -1))
    with pytest.raises(ValueError, match="chamber dimension"):
        volume_series(context_pq(5, 3, 2), [4.0, 6.0])
    with pytest.raises(ValueError, match="seed"):
        volume_series(ctx, [4.0], method="monte-carlo")
    with pytest.raises(ValueError, match="method"):
        volume_series(ctx, [4.0], method="laplace")
    with pytest.raises(ValueError, match="frobenius"):
        volume_series(ctx, [4.0], norm="max")
    # "fro" is the frobenius norm everywhere, digest and manifest included
    assert volume_series(ctx, [4.0, 6.0], norm="fro") == volume_series(ctx, [4.0, 6.0])
    mc = [volume_series(ctx, [4.0, 6.0], method="mc", norm=norm, samples=500, seed=4)
          for norm in ("fro", "frobenius")]
    assert mc[0] == mc[1] and mc[0].manifest["norm"] == "frobenius"
    for method in ("quadrature", "mc"):
        with pytest.raises(ValueError, match="norm must be one of"):
            volume_series(ctx, [4.0], method=method, norm="l2", seed=4)
    with pytest.raises(ValueError, match="nonempty and increasing"):
        volume_series(ctx, [])
    with pytest.raises(ValueError, match="nonempty and increasing"):
        volume_series(ctx, [4.0, 3.0])
    with pytest.raises(ValueError, match="interior cut"):
        volume_series(context_for((1, 1, -1), joined=(1, 2)), [4.0])


@pytest.mark.parametrize(
    "method, norm", [("quadrature", "frobenius"), ("mc", "frobenius"), ("mc", "max")]
)
def test_volume_checks_the_frame_before_any_work(monkeypatch, method, norm):
    def work(*args, **kwargs):
        raise AssertionError("the series was computed before the frame was checked")

    monkeypatch.setattr(volume, "_nested_quadrature", work)
    monkeypatch.setattr(volume, "_grid_margins", work)
    with pytest.raises(ValueError, match="a cap axis of length 2 does not fit d = 3"):
        volume_series(context_pq(3, 2, 1), [4.0, 5.0], method=method, norm=norm,
                      frame=Cap((1.0, 0.0), 0.5), samples=1000, seed=1)


def test_monte_carlo_needs_two_samples():
    ctx = context_for((1, 1, -1))
    # a count must be an integer: 2.5 is not rounded down to 2
    for n in (0, 1, -3, 2.5, np.float64(300.0), "300", True):
        match = "at least 2 samples" if type(n) is int else "samples must be an integer"
        with pytest.raises(ValueError, match=match):
            volume_series(ctx, [6.0, 8.0], method="monte-carlo", seed=3, samples=n)
        with pytest.raises(ValueError, match=match):
            singular_volume(ctx, 0.5, [6.0, 8.0], method="monte-carlo", seed=3, samples=n)
        with pytest.raises(ValueError, match=match):
            wellroundedness_ratio(ctx, 0.1, 8.0, seed=3, samples=n)
    two = volume_series(ctx, [6.0, 8.0], method="monte-carlo", seed=3, samples=2)
    assert all(math.isfinite(v) for v in two.values + two.stderr)


@pytest.mark.parametrize("seed", [1.5, "3", np.float64(2), True, None])
def test_monte_carlo_rejects_a_seed_that_is_not_an_integer(seed):
    ctx = context_for((1, 1, -1))
    match = "needs a seed" if seed is None else "seed must be an integer or a numpy Generator"
    with pytest.raises(ValueError, match=match):
        volume_series(ctx, [6.0, 8.0], method="mc", seed=seed, samples=300)
    with pytest.raises(ValueError, match=match):
        wellroundedness_ratio(ctx, 0.1, 8.0, seed=seed, samples=300)


@pytest.mark.parametrize("grid", ([0.0, 4.0], [-1.0, 4.0], [-3.0, -2.0]))
def test_the_volume_layer_needs_positive_thresholds(grid):
    """A T <= 0 used to raise a math domain error under quadrature and
    return 0 under MC; the volume layer has wellroundedness_ratio's rule."""
    ctx = context_for((1, 1, -1))
    calls = [lambda: volume_series(ctx, grid),
             lambda: volume_series(ctx, grid, method="mc", samples=300, seed=1),
             lambda: singular_volume(ctx, 0.5, grid),
             lambda: singular_volume(ctx, 0.5, grid, method="mc", samples=300, seed=1),
             lambda: wellroundedness_ratio(ctx, 0.1, grid[0], seed=1, samples=300)]
    for call in calls:
        with pytest.raises(ValueError, match="^need a finite t > 0$"):
            call()


def test_a_generator_seed_is_its_stream():
    ctx = context_for((1, 1, -1))
    want = wellroundedness_ratio(ctx, 0.1, 8.0, seed=5, samples=300)
    assert wellroundedness_ratio(ctx, 0.1, 8.0, seed=derive_rng(5, "wellrounded"),
                                 samples=300) == want


def test_numpy_integer_sample_counts_are_counts():
    ctx = context_for((1, 1, -1))
    series = [volume_series(ctx, [6.0, 8.0], method="mc", samples=n, seed=4)
              for n in (300, np.int64(300))]
    assert series[0] == series[1] and type(series[1].manifest["samples"]) is int
    ratios = [wellroundedness_ratio(ctx, 0.1, 8.0, seed=4, samples=n) for n in (300, np.int64(300))]
    assert ratios[0] == ratios[1]


def test_numpy_integer_seeds_name_the_same_streams():
    ctx = context_for((1, 1, -1))
    for norm in ("frobenius", "max"):
        series = [volume_series(ctx, [6.0, 8.0], method="mc", norm=norm, samples=300, seed=s)
                  for s in (5, np.int64(5))]
        assert series[0] == series[1]
        assert type(series[1].manifest["seed"]) is int
    ratios = [wellroundedness_ratio(ctx, 0.1, 8.0, seed=s, samples=300) for s in (5, np.int64(5))]
    assert ratios[0] == ratios[1]


def test_context_pq_requires_d_equal_p_plus_q():
    assert context_pq(4, 2, 2) == context_for((1, 1, -1, -1))
    for d, p, q in ((4, 2, 1), (2, 2, 1), (3, 3, 1)):
        with pytest.raises(ValueError, match="d = p \\+ q"):
            context_pq(d, p, q)
    # d = p + q holds here, but p is negative
    with pytest.raises(ValueError, match="nonnegative"):
        context_pq(2, -1, 3)


# --------------------------------------------------------- boundary layer


def test_wellroundedness_guards():
    ctx = context_for((1, 1, -1))
    for eps in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite epsilon"):
            wellroundedness_ratio(ctx, eps, 8.0, seed=7)
    for t in (0.0, -8.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite t"):
            wellroundedness_ratio(ctx, 0.05, t, seed=7)
    joined = context_for((1, 1, -1), joined=(1,))
    with pytest.raises(ValueError, match="one-dimensional"):
        wellroundedness_ratio(joined, 0.05, 8.0, seed=7)


def test_wellroundedness_takes_the_float_classifier(monkeypatch):
    """Its probe triangles are float, so the exact integer sign test,
    which would need integer entries, never sees them.  The classifier
    sees the probed points only: each centre once and its images."""
    rows = []
    real = sector.sym3_eigvals_batch
    monkeypatch.setattr(sector, "sym3_eigvals_batch", lambda m: rows.append(len(m)) or real(m))
    monkeypatch.setattr(sector, "_sign_sector_d3", None)
    res = wellroundedness_ratio(context_for((1, 1, -1)), 0.1, 8.0, seed=31, samples=200)
    assert sum(rows) == (1 + volume.WR_PROBES) * res.probed


def _probe_points(ctx, epsilon, t, seed, samples):
    """Weights and inside and mixed masks of the sampled points, as they
    were computed before the Ostrowski screen: every sampled point's
    WR_PROBES images are built and classified."""
    d = ctx.d
    rng = derive_rng(seed, "wellrounded")
    spec = sector.make_spec(ctx.blocks.dims, volume._block_signatures(ctx))
    margins, weights = volume._grid_margins(
        ctx, t, rng, samples, lo=-8.0 * epsilon, pad=0.25 + 2.0 * epsilon
    )
    _, base = volume._sampled_forms(ctx, margins, rng)
    steps = [expm(epsilon * x) for x in _unit_directions(d, volume.WR_PROBES, rng)]
    stacked = np.concatenate([base] + [np.einsum("ij,njk,lk->nil", e, base, e) for e in steps])
    pairs = enumeration.triangle_indices(d)
    tri = np.stack([stacked[:, i, j] for (i, j) in pairs], axis=1)
    member, _ = sector._classify_batch(tri, d, spec)
    radii = np.sqrt(np.sum(stacked**2, axis=(1, 2)))
    inside = (member & (radii < t)).reshape(1 + volume.WR_PROBES, samples).T
    return weights, inside[:, 0], inside.any(axis=1) & (~inside).any(axis=1)


def _probe_everything(ctx, epsilon, t, seed, samples):
    """The ratio from _probe_points, with a jackknife over min(20, samples) blocks."""
    weights, center, mixed = _probe_points(ctx, epsilon, t, seed, samples)
    num = float(np.sum(weights * mixed))
    den = float(np.sum(weights * center))
    ratio = math.inf if den == 0.0 else num / den
    parts = []
    for block in np.array_split(np.arange(samples), min(20, samples)):
        mask = np.ones(samples, dtype=bool)
        mask[block] = False
        dsub = float(np.sum(weights[mask] * center[mask]))
        if dsub > 0:
            parts.append(float(np.sum(weights[mask] * mixed[mask])) / dsub)
    if len(parts) >= 2 and math.isfinite(ratio):
        parts_arr = np.asarray(parts)
        stderr = float(
            math.sqrt((len(parts) - 1) / len(parts) * np.sum((parts_arr - parts_arr.mean()) ** 2))
        )
    else:
        stderr = math.inf
    inconclusive = not math.isfinite(ratio) or (ratio > 0 and stderr > 0.1 * ratio)
    return volume.WellRoundedness(
        ratio=ratio,
        stderr=stderr,
        epsilon=epsilon,
        t=t,
        member_weight=den,
        boundary_weight=num,
        inconclusive=inconclusive,
        probed=samples,
    )


@st.composite
def _wellroundedness_problems(draw):
    d = draw(st.integers(2, 4))
    p = draw(st.integers(0, d))
    return (
        context_pq(d, p, d - p),
        draw(st.floats(1e-4, 0.3)),
        draw(st.floats(2.0, 64.0)),
        draw(st.integers(0, 2**16)),
        draw(st.integers(2, 2000)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_wellroundedness_problems())
def test_screened_ratio_equals_probing_every_point(problem):
    ctx, eps, t, seed, samples = problem
    got = wellroundedness_ratio(ctx, eps, t, seed=seed, samples=samples)
    assert 0 <= got.probed <= samples
    want = _probe_everything(ctx, eps, t, seed, samples)
    # repr keeps a nan or an inf comparable field by field
    assert repr(dataclasses.replace(got, probed=samples)) == repr(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_wellroundedness_problems())
def test_settled_centres_keep_their_float_verdicts(problem):
    """A centre the screen settles takes its inside verdict from its margin
    spectrum, signs e^(2y), and radius sqrt(sum lambda^2); the float
    classifier and Frobenius norm of its Haar-framed form agree."""
    ctx, eps, t, seed, samples = problem
    rng = derive_rng(seed, "wellrounded")
    spec = sector.make_spec(ctx.blocks.dims, volume._block_signatures(ctx))
    margins, _ = volume._grid_margins(ctx, t, rng, samples, lo=-8.0 * eps, pad=0.25 + 2.0 * eps)
    _, forms = volume._sampled_forms(ctx, margins, rng)
    steps = [expm(eps * x) for x in _unit_directions(ctx.d, volume.WR_PROBES, rng)]
    logs = 2.0 * ctx.log_coords(margins)
    lam = np.asarray(ctx.signs) * np.exp(logs)
    slots = np.take_along_axis(lam, np.argsort(-np.abs(lam), axis=1, kind="stable"), axis=1)
    member, _ = sector._spectral_verdict(slots, spec)
    radii = np.sqrt(np.sum(lam**2, axis=1))
    settled = ~volume._unsettled(logs, member, radii, steps, t)
    float_member, float_radii = volume._member_radius(forms, spec)
    inside = member & (radii < t)
    assert np.array_equal(inside[settled], (float_member & (float_radii < t))[settled])


@st.composite
def _congruences(draw):
    """A symmetric S with chosen log |eigenvalues| (adjacent ties down to
    exact), random signs and frame, and an invertible e."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0]),
                         min_size=d - 1, max_size=d - 1))
    logs = np.concatenate([[0.0], -np.cumsum(gaps)]) + draw(st.floats(-2.0, 2.0))
    frame = random_rotation(rng, d)
    s = frame @ np.diag(rng.choice([-1.0, 1.0], d) * np.exp(logs)) @ frame.T
    if draw(st.booleans()):
        x = _unit_directions(d, 1, rng)[0]
        e = expm(draw(st.floats(1e-4, 0.5)) * x)
    else:
        e = np.eye(d) + draw(st.floats(0.0, 0.5)) * rng.standard_normal((d, d)) / d
    return s, e


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=_congruences())
def test_ostrowski_bounds_the_congruence(problem):
    """lambda_k(e S e^T) = theta_k lambda_k(S), eigenvalues by value, with
    sigma_min(e)^2 <= theta_k <= sigma_max(e)^2; the Frobenius norm moves
    by the same factors.  These bounds are what settles a point without
    its probe images in wellroundedness_ratio."""
    s, e = problem
    sv = np.linalg.svd(e, compute_uv=False)
    lo2, hi2 = sv.min() ** 2, sv.max() ** 2
    image = e @ s @ e.T
    theta = np.linalg.eigvalsh(image) / np.linalg.eigvalsh(s)
    tol = 1e-10
    assert np.all(theta >= lo2 * (1 - tol)) and np.all(theta <= hi2 * (1 + tol))
    norm, image_norm = np.linalg.norm(s), np.linalg.norm(image)
    assert lo2 * norm * (1 - tol) <= image_norm <= hi2 * norm * (1 + tol)


@pytest.mark.parametrize("samples", [3, 8])
def test_jackknife_below_20_samples_leaves_out_one_point_at_a_time(samples):
    """Below 20 samples each jackknife block is one point: n replicates,
    each the ratio without one point, and no empty block that would
    count the full-sample ratio as a replicate."""
    ctx = context_pq(3, 2, 1)
    got = wellroundedness_ratio(ctx, 0.2, 8.0, seed=2, samples=samples)
    weights, center, mixed = _probe_points(ctx, 0.2, 8.0, 2, samples)
    reps = []
    for i in range(samples):
        rest = np.arange(samples) != i
        den = math.fsum(weights[rest & center])
        if den > 0:
            reps.append(math.fsum(weights[rest & mixed]) / den)
    reps = np.asarray(reps)
    want = math.sqrt((len(reps) - 1) / len(reps) * np.sum((reps - reps.mean()) ** 2))
    assert got.stderr == pytest.approx(want, rel=1e-12)
    if samples == 8:
        # with 20 blocks, 12 of them empty, it read 0.6971
        assert got.stderr == pytest.approx(0.6678, abs=1e-4)


def test_screen_probes_few_points_at_the_benchmark_shape():
    ctx = context_for((1, 1, -1))
    res = wellroundedness_ratio(ctx, 0.1, 8.0, seed=31, samples=40_000)
    assert res.probed <= 0.1 * 40_000
    want = _probe_everything(ctx, 0.1, 8.0, 31, 40_000)
    assert dataclasses.replace(res, probed=40_000) == want


def test_wellroundedness_smoke():
    ctx = context_for((1, 1, -1))
    res = wellroundedness_ratio(ctx, 0.1, 8.0, seed=31, samples=1500)
    assert res.epsilon == 0.1
    assert res.t == 8.0
    assert math.isfinite(res.ratio) and res.ratio >= 0
    assert res.member_weight > 0
    assert res.boundary_weight >= 0
    assert res.inconclusive == (
        not math.isfinite(res.ratio) or (res.ratio > 0 and res.stderr > 0.1 * res.ratio)
    )
