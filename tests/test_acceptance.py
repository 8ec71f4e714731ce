"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers;
the block of all ten lines is printed in pytest's terminal summary by the
hook in conftest.py, so output capture cannot swallow it.  Heavy inputs
(the T = 40 scan, the stability sweep) are shared module fixtures
computed once; one T = 40 scan counts both the ball and the (+,+,-)
sector.
"""

import functools
import math
import time
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest

from conftest import ACCEPTANCE_REPORT as _REPORT
from conftest import brute_force_forms
from qfsectors.cartan import kah_decompose, reconstruct, signature_matrix
from qfsectors.enumeration import enumerate_forms, orbit_enumerate, tally
from qfsectors.rootdata import predict_exponent
from qfsectors.sampling import derive_rng, random_special_linear
from qfsectors.sector import (
    count_sector,
    fit_exponent,
    make_spec,
    sign_pattern_specs,
    tally_verdict,
)
from qfsectors.volume import (
    context_for,
    singular_volume,
    volume_series,
    wellroundedness_ratio,
    xi_density,
)
from qfsectors.wavefront import lipschitz_sweep

THRESHOLDS = [10.0, 14.0, 20.0, 28.0, 40.0]


def criterion(num):
    """Record one summary line per criterion, then assert it."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                ok, desc = fn(*args, **kwargs)
            except Exception as exc:
                _REPORT.append(f"[FAIL] criterion {num:02d}: raised {type(exc).__name__}: {exc}")
                raise
            line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
            _REPORT.append(line)
            print(line)
            assert ok, line

        return wrapper

    return deco


def _sign_verdicts(specs):
    return [tally_verdict(spec) for spec in specs]


@pytest.fixture(scope="module")
def t40_scan():
    """Ball and (+,+,-) sector counts from one scan to T = 40, and its time."""
    t0 = time.monotonic()
    ball, [(members, _)] = tally(
        3, THRESHOLDS, "max", _sign_verdicts([make_spec((1, 1, 1), ["+", "+", "-"])]), threads=1
    )
    return [float(c) for c in ball], [float(c) for c in members], time.monotonic() - t0


@pytest.fixture(scope="module")
def sweep_cells():
    return lipschitz_sweep(
        (2, 1),
        [0.01, 0.5],
        [1.0, 1.5, 2.0, 4.0, 4.5, 5.0],
        epsilon=1e-3,
        n_per_cell=170,
        seed=7,
        wall=1,
    )


def _fine(cells):
    vals = [v for c in cells for v in (c.ratio_k, c.ratio_a, c.ratio_h) if v is not None]
    return max(vals)


def _coarse(cells):
    vals = [
        v
        for c in cells
        for v in (c.ratio_coarse_aI, c.ratio_coarse_frame)
        if v is not None
    ]
    return max(vals)


@criterion(1)
def test_criterion_01():
    """Predicted (a, b) equals the brute ratio-table for every block
    pattern in d = 3..8, in under a second."""
    t0 = time.monotonic()
    checked = 0
    for d in range(3, 9):
        for cuts_mask in product((0, 1), repeat=d - 1):
            dims, run = [], 1
            for bit in cuts_mask:
                if bit:
                    dims.append(run)
                    run = 1
                else:
                    run += 1
            dims.append(run)
            pair = predict_exponent(d, tuple(dims))
            if len(dims) == 1:
                want_a, want_b = Fraction(d * (d - 1), 2), 1
            else:
                cuts = list(accumulate(dims))[:-1]
                ratios = [Fraction(i * (d - i)) / Fraction(2 * (d - i), d) for i in cuts]
                want_a = max(ratios)
                want_b = sum(1 for r in ratios if r == want_a)
            if (pair.a, pair.b) != (want_a, want_b):
                return False, f"mismatch at d={d} dims={dims}: {pair.a},{pair.b}"
            checked += 1
    dt = time.monotonic() - t0
    ok = dt < 1.0
    return ok, f"{checked} block patterns exact for d=3..8 in {dt * 1000:.0f}ms (< 1s)"


@criterion(2)
def test_criterion_02(t40_scan):
    """Ball counts on T = 10..40 fit slope in [2.7, 3.3] within budget
    (the budget covers the scan shared with criterion 3)."""
    counts, _, elapsed = t40_scan
    fit = fit_exponent((THRESHOLDS, counts))
    ok = 2.7 <= fit.a <= 3.3 and elapsed <= 600.0
    return ok, (
        f"ball slope {fit.a:.4f} in [2.7, 3.3], scan {elapsed:.1f}s <= 600s "
        f"(counts {[int(c) for c in counts]})"
    )


@criterion(3)
def test_criterion_03(t40_scan):
    """Sector counts grow at the ball rate, never exceed the ball, and
    the eight sign sectors partition the T = 10 ball exactly."""
    ball, sector_counts, _ = t40_scan
    fit = fit_exponent((THRESHOLDS, sector_counts))
    slope_ok = 2.6 <= fit.a <= 3.4
    bounded = all(s <= b for s, b in zip(sector_counts, ball))
    [total], counts = tally(3, [10.0], "max", _sign_verdicts(sign_pattern_specs(3)), threads=1)
    members = [c[0][0] for c in counts]
    degs = {c[1][0] for c in counts}
    audit_ok = len(degs) == 1 and sum(members) + degs.pop() == total
    ok = slope_ok and bounded and audit_ok
    return ok, (
        f"(+,+,-) slope {fit.a:.4f} in [2.6, 3.4]; sector <= ball at all T; "
        f"partition audit sum(members)+degenerate == {total} exact"
    )


@criterion(4)
def test_criterion_04():
    """Counts for the (1, 2) mixed-block sector track the density
    integral: both slopes near 3/2 and within 0.25 of each other."""
    grid = [12.0, 17.0, 24.0, 34.0, 48.0]
    spec = make_spec((1, 2), ["+", (1, 1)], norm="frobenius", block_window=0.6)
    counts = count_sector(grid, spec, threads=1)
    vols = volume_series(context_for((1, 1, -1), joined=(2,)), grid)
    gap = abs(counts.fit_a - vols.fit_a)
    ok = gap <= 0.25 and abs(vols.fit_a - 1.5) <= 0.15 and abs(counts.fit_a - 1.5) <= 0.4
    return ok, (
        f"count slope {counts.fit_a:.4f} (within 0.4 of 1.5), volume slope "
        f"{vols.fit_a:.4f} (within 0.15), gap {gap:.4f} <= 0.25"
    )


@criterion(5)
def test_criterion_05():
    """10^4 well-conditioned factorizations: reconstruction to 1e-9 and
    J-orthogonal h to 1e-8, inside 30 seconds."""
    t0 = time.monotonic()
    rng = derive_rng(17, "kah-acceptance")
    j = signature_matrix(2, 1)
    worst_rec = worst_h = 0.0
    kept = 0
    while kept < 10_000:
        g = random_special_linear(rng, 3)
        if np.linalg.cond(g) >= 1e4:
            continue
        kept += 1
        f = kah_decompose(g, (2, 1))
        worst_rec = max(worst_rec, np.linalg.norm(reconstruct(f) - g) / np.linalg.norm(g))
        worst_h = max(worst_h, np.linalg.norm(f.h @ j @ f.h.T - j))
    dt = time.monotonic() - t0
    ok = worst_rec <= 1e-9 and worst_h <= 1e-8 and dt < 30.0
    return ok, (
        f"worst reconstruction {worst_rec:.2e} <= 1e-9, worst hJh^T-J "
        f"{worst_h:.2e} <= 1e-8, {dt:.1f}s < 30s"
    )


@criterion(6)
def test_criterion_06(sweep_cells):
    """Away from the walls the factor ratios are finite and flat in
    depth: bins [1, 2] and [4, 5] agree within a factor 3."""
    safe = [c for c in sweep_cells if c.c == 0.5]
    points = sum(c.n_points for c in safe)
    finite = all(
        math.isfinite(v)
        for c in safe
        for v in (c.ratio_k, c.ratio_a, c.ratio_h)
        if v is not None
    ) and not any(c.empty for c in safe)
    shallow = _fine([c for c in safe if 1.0 <= c.depth <= 2.0])
    deep = _fine([c for c in safe if 4.0 <= c.depth <= 5.0])
    spread = max(shallow, deep) / min(shallow, deep)
    ok = points >= 1000 and finite and spread < 3.0
    return ok, (
        f"{points} base points at c=0.5, all ratios finite; depth bins "
        f"[1,2] vs [4,5]: {shallow:.3f} vs {deep:.3f}, spread {spread:.3f}x < 3x"
    )


@criterion(7)
def test_criterion_07(sweep_cells):
    """Near the wall the fine probe blows up by >= 5x while joining the
    pinned wall keeps the coarse probe within 2x of its deep baseline."""
    near = [c for c in sweep_cells if c.c == 0.01]
    far = [c for c in sweep_cells if c.c == 0.5]
    blowup = _fine(near) / _fine(far)
    coarse_ratio = _coarse(near) / _coarse(far)
    ok = blowup >= 5.0 and 0.5 <= coarse_ratio <= 2.0
    return ok, (
        f"fine blow-up {blowup:.1f}x >= 5x; coarse near/deep "
        f"{coarse_ratio:.3f} within [0.5, 2]"
    )


@criterion(8)
def test_criterion_08():
    """The density is nonnegative across the cone, and the near-wall
    volume fraction is linear through the origin in c (R^2 >= 0.95)."""
    ctx = context_for((1, 1, -1))
    rng = derive_rng(99, "xi-sample")
    vals = [
        xi_density(ctx, ctx.log_coords(rng.uniform(0.0, 3.0, size=2)))
        for _ in range(10_000)
    ]
    nonneg = all(v >= 0 for v in vals)
    total = volume_series(ctx, [10.0]).values[0]
    cs = np.array([0.05, 0.1, 0.2, 0.4])
    fr = np.array([singular_volume(ctx, c, [10.0]).values[0] / total for c in cs])
    slope = float((cs * fr).sum() / (cs * cs).sum())
    r2 = 1.0 - float(((fr - slope * cs) ** 2).sum() / (fr**2).sum())
    ok = nonneg and r2 >= 0.95
    return ok, (
        f"xi >= 0 on 10^4 cone sample; singular fraction ~ {slope:.3f} c "
        f"through origin, R^2 {r2:.4f} >= 0.95"
    )


@criterion(9)
def test_criterion_09():
    """Boundary-layer weight never grows through three T-doublings (to
    MC error) and shrinks with epsilon at the largest T."""
    ctx = context_for((1, 1, -1))
    sweep = [
        wellroundedness_ratio(ctx, 0.05, t, seed=9000 + i, samples=20_000)
        for i, t in enumerate((8.0, 16.0, 32.0, 64.0))
    ]
    conclusive = all(not r.inconclusive for r in sweep)
    mono = all(
        b.ratio <= a.ratio + 2.0 * math.hypot(a.stderr, b.stderr)
        for a, b in zip(sweep, sweep[1:])
    )
    eps_rows = [
        wellroundedness_ratio(ctx, 0.1, 64.0, seed=9100, samples=20_000),
        sweep[-1],
        wellroundedness_ratio(ctx, 0.025, 64.0, seed=9101, samples=20_000),
    ]
    eps_dec = eps_rows[0].ratio > eps_rows[1].ratio > eps_rows[2].ratio
    conclusive = conclusive and all(not r.inconclusive for r in eps_rows)
    ok = mono and eps_dec and conclusive
    ratios = ", ".join(f"{r.ratio:.4f}" for r in sweep)
    eps_txt = " > ".join(f"{r.ratio:.4f}" for r in eps_rows)
    return ok, (
        f"T-doubling ratios [{ratios}] non-increasing within 2 sigma; "
        f"eps sweep at T=64: {eps_txt}; all conclusive"
    )


@criterion(10)
def test_criterion_10(brute_d3_t15):
    """Enumeration equals the 729-case box scan, orbits stay inside the
    matching-determinant ball, and planted exponents are recovered."""
    got = [f.entries for f in enumerate_forms(3, 1.5)]
    enum_ok = got == brute_d3_t15 and len(got) == 308
    plus = {f.entries for f in enumerate_forms(3, 2.5) if f.det == 1}
    orb = orbit_enumerate(np.eye(3, dtype=int), 2.5)
    orbit_ok = {f.entries for f in orb} <= plus
    ts = np.array([3.0, 5.0, 9.0, 17.0, 33.0])
    errs = []
    for a0, c0 in ((3.0, 0.3), (1.5, 2.0), (2.5, 1.0)):
        errs.append(abs(fit_exponent((ts, c0 * ts**a0)).a - a0))
    fit_ok = max(errs) <= 1e-9
    ok = enum_ok and orbit_ok and fit_ok
    return ok, (
        f"T=1.5 enumeration == box scan (308 forms); orbit of I3 inside "
        f"det=+1 ball; planted exponents recovered to {max(errs):.1e}"
    )
