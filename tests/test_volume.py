"""Density closed forms, region volumes, and boundary-layer estimates."""

import math

import numpy as np
import pytest

from qfsectors.rootdata import build_root_datum
from qfsectors.sector import AntiCap, Cap, FullFrame
from qfsectors.volume import (
    DensityContext,
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


def test_context_validation():
    datum = build_root_datum(3, 2, 1)
    with pytest.raises(ValueError, match="joined walls"):
        DensityContext(datum=datum, joined=(3,), signs=(1, 1, -1))
    with pytest.raises(ValueError, match="sign pattern disagrees"):
        DensityContext(datum=datum, joined=(), signs=(1, -1, -1))
    with pytest.raises(ValueError, match="length d"):
        DensityContext(datum=datum, joined=(), signs=(1, 1))
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
    with pytest.raises(ValueError, match="c >= 0"):
        singular_volume(ctx, -0.1, grid)


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
    with pytest.raises(ValueError, match="nonempty and increasing"):
        volume_series(ctx, [])
    with pytest.raises(ValueError, match="nonempty and increasing"):
        volume_series(ctx, [4.0, 3.0])
    with pytest.raises(ValueError, match="interior cut"):
        volume_series(context_for((1, 1, -1), joined=(1, 2)), [4.0])


# --------------------------------------------------------- boundary layer


def test_wellroundedness_guards():
    ctx = context_for((1, 1, -1))
    with pytest.raises(ValueError, match="epsilon"):
        wellroundedness_ratio(ctx, 0.0, 8.0, seed=7)
    joined = context_for((1, 1, -1), joined=(1,))
    with pytest.raises(ValueError, match="one-dimensional"):
        wellroundedness_ratio(joined, 0.05, 8.0, seed=7)


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
