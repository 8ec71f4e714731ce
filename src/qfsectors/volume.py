"""Numerical volumes of sector regions under the invariant density.

The region attached to a block pattern is parameterized by a frame in
SO(d) and a point of the closed cone A_I+, coordinatized by its wall
margins m_1..m_n (one per interior cut).  The invariant density in
these coordinates is

    xi(a) = prod over cross-block positive roots alpha of
            sinh(alpha(log a))^{l+} * cosh(alpha(log a))^{l-},

which the quadrature path integrates directly (frobenius balls only,
where the radius is frame-independent) and the Monte Carlo path samples
from a piecewise-constant sketch of |xi| on a grid of margin cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm
from scipy.special import betainc

from . import enumeration
from .rootdata import BlockDecomposition, predict_exponent
from .sampling import derive_rng, haar_frames, random_rotation
from .sector import (
    AntiCap,
    Cap,
    CountSeries,
    FullFrame,
    _classify_batch,
    _spectral_verdict,
    make_spec,
    with_fit,
)
from .wavefront import _unit_directions

CHAMBER_TOL = 1e-9


@dataclass(frozen=True)
class DensityContext:
    """Sign pattern + joined walls: everything xi needs.

    signs is the diagonal of the base form the cone acts on, and J =
    diag(signs) the involution; d = len(signs).  joined lists the simple
    roots (1-based positions) collapsed to zero on A_I; the remaining
    positions are the interior cuts, and the cone coordinates are the
    margins at those cuts.
    """

    signs: tuple[int, ...]
    joined: tuple[int, ...]

    def __post_init__(self) -> None:
        signs = tuple(int(s) for s in self.signs)
        if len(signs) < 2 or any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be a +-1 vector of length >= 2")
        d = len(signs)
        joined = tuple(sorted(set(int(i) for i in self.joined)))
        blocks = BlockDecomposition.from_joined(d, joined)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "joined", joined)
        # derived structure, stored once; not fields, so == and hash ignore it
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_cuts", blocks.cuts)
        object.__setattr__(self, "_dims", np.asarray(blocks.dims, dtype=float))
        blk = np.repeat(np.arange(len(blocks.dims)), blocks.dims)
        pairs = [
            (i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1) if blk[i - 1] != blk[j - 1]
        ]
        # J E_ij J = signs_i signs_j E_ij: the root x_i - x_j is sinh (l+ = 1)
        # where the two signs agree and cosh (l- = 1) where they differ
        sinh = [signs[i - 1] == signs[j - 1] for i, j in pairs]
        object.__setattr__(
            self, "_free_roots", tuple((i, j, int(s), int(not s)) for (i, j), s in zip(pairs, sinh))
        )
        # the evaluator's view of the roots: the blocks of their two ends
        ends = np.asarray([(blk[i - 1], blk[j - 1]) for i, j in pairs], dtype=int)
        object.__setattr__(self, "_root_ends", ends.reshape(-1, 2).T)
        object.__setattr__(self, "_sinh_roots", np.asarray(sinh, dtype=bool))

    @property
    def d(self) -> int:
        return len(self.signs)

    @property
    def blocks(self) -> BlockDecomposition:
        return self._blocks

    @property
    def cuts(self) -> tuple[int, ...]:
        return self._cuts

    def free_roots(self) -> tuple[tuple[int, int, int, int], ...]:
        """Cross-block positive roots as (i, j, l_plus, l_minus)."""
        return self._free_roots

    def block_logs(self, margins) -> np.ndarray:
        """Margins (N, n) -> (N, n+1) trace-free block logs; each row's bits ignore the batch."""
        m = np.atleast_2d(np.asarray(margins, dtype=float))
        if m.shape[1] != len(self._cuts):
            raise ValueError("one margin per interior cut required")
        drop = np.concatenate([np.zeros((m.shape[0], 1)), np.cumsum(m, axis=1)], axis=1)
        shift = (drop * self._dims).sum(axis=1) / self.d
        return shift[:, None] - drop

    def log_coords(self, margins) -> np.ndarray:
        """Margins -> trace-free block-constant log coordinates.

        Accepts one margin vector (n,) or a batch (N, n); returns (d,)
        or (N, d) correspondingly.
        """
        y = np.repeat(self.block_logs(margins), self._blocks.dims, axis=1)
        return y[0] if np.ndim(margins) == 1 else y


def context_for(signs, joined=()) -> DensityContext:
    return DensityContext(signs=tuple(signs), joined=tuple(joined))


def context_pq(d: int, p: int, q: int, joined=()) -> DensityContext:
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    if d != p + q:
        raise ValueError("need d = p + q")
    return context_for((1,) * p + (-1,) * q, joined=joined)


def _log_abs_xi(ctx: DensityContext, margins: np.ndarray) -> np.ndarray:
    """log |xi| on a batch of margin vectors (N, n), no chamber check:
    -inf where a sinh root vanishes, so exp gives exactly 0 on a wall."""
    b = ctx.block_logs(margins).T
    hi, lo = ctx._root_ends
    v = b[hi] - b[lo]  # (roots, N): the terms are summed root by root
    sinh = ctx._sinh_roots
    with np.errstate(divide="ignore"):
        v[sinh] = np.log(np.abs(np.sinh(v[sinh])))
    v[~sinh] = np.log(np.cosh(v[~sinh]))
    return v.sum(axis=0)


def xi_density(ctx: DensityContext, log_a) -> float:
    """Density at a point of the closed cone; rejects points off it."""
    y = np.asarray(log_a, dtype=float)
    if y.shape != (ctx.d,):
        raise ValueError("log_a must be a length-d vector")
    if abs(float(y.sum())) > CHAMBER_TOL * ctx.d:
        raise ValueError("log_a outside the chamber: nonzero trace")
    starts = np.concatenate([[0], np.asarray(ctx.cuts, dtype=int)])
    dims = np.asarray(ctx.blocks.dims)
    means = np.add.reduceat(y, starts) / dims
    spread = float(np.max(np.abs(y - np.repeat(means, dims))))
    if spread > CHAMBER_TOL:
        raise ValueError("log_a outside the chamber: not block-constant")
    margins = -np.diff(means)
    if np.any(margins < -CHAMBER_TOL):
        raise ValueError("log_a outside the chamber: negative wall margin")
    return float(np.exp(_log_abs_xi(ctx, np.maximum(margins, 0.0)[None, :])[0]))


def _ball_radius(ctx: DensityContext, margins: np.ndarray) -> np.ndarray:
    """Frobenius norm of a . v0 on a batch of margin vectors."""
    return np.sqrt(np.exp(4.0 * ctx.block_logs(margins)) @ ctx._dims)


def haar_fraction(frame, d: int) -> float:
    """Haar measure of frames whose top axis meets the constraint."""
    if frame is None or isinstance(frame, FullFrame):
        return 1.0
    theta = frame.angle
    if theta >= math.pi / 2:
        inside = 1.0
    else:
        inside = 1.0 - float(betainc(0.5, (d - 1) / 2.0, math.cos(theta) ** 2))
    if isinstance(frame, AntiCap):
        return 1.0 - inside
    if isinstance(frame, Cap):
        return inside
    raise ValueError("unsupported frame constraint")


def _upper_margin(ctx, prefix, t: float, fill: float):
    """Next margin at which radius = T with the rest at `fill`, for a prefix
    list (a float) or prefix rows (N, k).  Radius grows in every margin, so
    this bounds the margin.  The top block's log is the trace shift
    sum_j s_j m_j, s_j = (dims after cut j) / d > 0, so radius >=
    sqrt(dims_0) e^(2 shift): the margin at which that one term reaches T
    lies above the root.  log radius^2, a log-sum-exp of affine terms, is
    convex: Newton from that bound descends onto the root, to brentq's
    tolerance 1e-14 + 4u |m|."""
    rows = np.atleast_2d(np.asarray(prefix, dtype=float))
    k, n = rows.shape[1], len(ctx.cuts)
    s = (ctx.d - np.cumsum(ctx._dims[:-1])) / ctx.d
    mv = np.full(len(rows), float(fill))

    def points(sel):
        return np.column_stack([rows[sel], mv[sel], np.full((len(mv[sel]), n - k - 1), fill)])

    todo = _ball_radius(ctx, points(slice(None))) < t
    reach = 0.5 * math.log(t) - 0.25 * math.log(ctx._dims[0]) - fill * s[k + 1 :].sum()
    mv[todo] = (reach - (rows[todo] * s[:k]).sum(axis=1)) / s[k]
    # d(block log)/d(margin k): the trace's shift minus the drop below cut k
    slope = s[k] - (np.arange(n + 1) > k)
    for _ in range(100):
        if not todo.any():
            return float(mv[0]) if np.ndim(prefix) == 1 else mv
        logs = 4.0 * ctx.block_logs(points(todo)) - 2.0 * math.log(t)
        top = logs.max(axis=1, keepdims=True)
        mass = np.exp(logs - top) * ctx._dims
        total = mass.sum(axis=1)
        step = (top[:, 0] + np.log(total)) * total / (4.0 * (mass * slope).sum(axis=1))
        mv[todo] -= np.where(step > 0.0, step, 0.0)
        todo[todo] = step > 1e-14 + 4.0 * np.finfo(float).eps * mv[todo]
    raise ArithmeticError("ball radius root failed to converge")


_X, _W = np.polynomial.legendre.leggauss(10)
# the 10-point Gauss-Legendre rule on [0, 1]: on its two halves, then whole
_NODES = np.concatenate([(_X + 1.0) / 4.0, (_X + 3.0) / 4.0, (_X + 1.0) / 2.0])
_WEIGHTS = np.concatenate([_W / 4.0, _W / 4.0, _W / 2.0])
_EPSABS, _EPSREL, _MAX_DEPTH = 1e-13, 1e-11, 40


def _nested_quadrature(ctx: DensityContext, t: float, lower: float) -> tuple[float, float]:
    """Integral of xi over {all margins > lower} inside the T-ball, and its
    error estimate.  Margin k is integrated for prefix rows (N, k) at once:
    each round evaluates the nodes of every open panel in one call to level
    k + 1, and accepts a panel whose 10-point rule and halves differ by at
    most max(epsabs * its share of the interval, epsrel * |halves|), else
    bisects it.  The estimate sums the accepted |whole - halves| over every
    level, weighted by the outer rules: the coarser rule's error, above the
    halves' own; rounding is not covered."""

    def level(prefix):
        value, abserr = np.zeros(len(prefix)), np.zeros(len(prefix))
        if prefix.shape[1] == len(ctx.cuts):
            return np.exp(_log_abs_xi(ctx, prefix)), abserr
        ub = _upper_margin(ctx, prefix, t, lower)
        rows = np.flatnonzero(ub > lower)
        a, h, whole = np.full(len(rows), float(lower)), ub[rows] - lower, None
        for depth in range(_MAX_DEPTH + 1):
            if not len(rows):
                return value, abserr
            m = 30 if whole is None else 20
            x = a[:, None] + h[:, None] * _NODES[:m]
            f, e = level(np.column_stack([np.repeat(prefix[rows], m, axis=0), x.ravel()]))
            w = h[:, None] * _WEIGHTS[:m]
            fw, ew = f.reshape(-1, m) * w, e.reshape(-1, m) * w
            left, right = fw[:, :10].sum(axis=1), fw[:, 10:20].sum(axis=1)
            whole = fw[:, 20:].sum(axis=1) if whole is None else whole
            diff = np.abs(whole - (left + right))
            ok = diff <= np.maximum(_EPSABS * 0.5**depth, _EPSREL * np.abs(left + right))
            np.add.at(value, rows[ok], left[ok] + right[ok])
            np.add.at(abserr, rows[ok], diff[ok] + ew[ok, :20].sum(axis=1))
            bad, half = ~ok, h[~ok] / 2.0
            a = np.column_stack([a[bad], a[bad] + half]).ravel()
            rows, h = np.repeat(rows[bad], 2), np.repeat(half, 2)
            whole = np.column_stack([left[bad], right[bad]]).ravel()
        raise ArithmeticError("quadrature panel reached the depth cap unconverged")

    return tuple(float(v[0]) for v in level(np.zeros((1, 0))))


def _margin_boxes(ctx: DensityContext, t: float) -> np.ndarray:
    """Per-cut upper bounds: beyond box k the point leaves the T-ball
    even with every other margin at zero (radius is monotone)."""
    n = len(ctx.cuts)
    return np.asarray([_upper_margin(ctx, [0.0] * k, t, 0.0) for k in range(n)])


_GRID_BINS = {1: 2048, 2: 120, 3: 36}
_GRID_CELLS = 36**3


def _grid_bins(n: int) -> int:
    """Bins per margin: the table up to n = 3, then the largest count
    whose n-th power stays within _GRID_CELLS."""
    if n in _GRID_BINS:
        return _GRID_BINS[n]
    bins = round(_GRID_CELLS ** (1.0 / n))
    return bins - 1 if bins**n > _GRID_CELLS else bins


def _grid_margins(ctx, t: float, rng, samples: int, lo: float = 0.0, pad: float = 0.25):
    """Margin sample from a piecewise-constant sketch of |xi| on the box,
    with its importance weights |xi| / density.

    Cells whose center cannot reach the T-ball (with slack for the cell
    size and the collar) get zero mass; the rest are weighted by |xi| at
    their center, mixed 9:1 with uniform-over-kept-cells so the
    importance weights stay bounded near the walls where xi vanishes.
    """
    n = len(ctx.cuts)
    bins = _grid_bins(n)
    hi = np.maximum(_margin_boxes(ctx, t) + pad, lo + 1e-6)
    edges = [np.linspace(lo, h, bins + 1) for h in hi]
    widths = np.asarray([e[1] - e[0] for e in edges])
    mids = [0.5 * (e[:-1] + e[1:]) for e in edges]
    centers = np.stack(
        [g.ravel() for g in np.meshgrid(*mids, indexing="ij")], axis=1
    )
    slack = (pad - lo) + 2.0 * float(widths.sum())
    keep = _ball_radius(ctx, centers) <= t * math.exp(slack)
    if not np.any(keep):
        keep = np.ones(len(centers), dtype=bool)
    logxi = _log_abs_xi(ctx, centers)
    logxi[~keep] = -np.inf
    shift = np.max(logxi)
    mass = np.exp(logxi - shift)
    total = float(mass.sum())
    nkept = int(np.count_nonzero(keep))
    p_cell = 0.9 * mass / total + 0.1 * keep / nkept
    idx = rng.choice(len(centers), size=samples, p=p_cell)
    jitter = rng.random((samples, n)) - 0.5
    margins = centers[idx] + jitter * widths[None, :]
    area = float(np.prod(widths))
    logp = np.log(p_cell[idx]) - math.log(area)
    return margins, np.exp(_log_abs_xi(ctx, margins) - logp)


def _sampled_forms(ctx: DensityContext, margins: np.ndarray, rng):
    """Haar frames k, one per margin row, and the forms k diag(signs e^{2y}) k^T."""
    eig = np.asarray(ctx.signs, dtype=float) * np.exp(2.0 * ctx.log_coords(margins))
    frames = random_rotation(rng, ctx.d, len(margins))
    return frames, np.einsum("nij,nj,nkj->nik", frames, eig, frames)


def _seeded(seed, label: str) -> np.random.Generator:
    """The stream (seed, label) for an integer seed, numpy's included; a
    Generator passes through, and any other seed raises."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        raise ValueError("monte-carlo needs a seed")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer or a numpy Generator, not {seed!r}")
    return derive_rng(int(seed), label)


def _sample_count(samples) -> int:
    """samples as an int, if it is an integer of at least 2."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, not {samples!r}")
    if samples < 2:
        raise ValueError("monte-carlo needs at least 2 samples")
    return int(samples)


def _mc_series(
    ctx: DensityContext,
    ts,
    norm: str,
    frame,
    samples: int,
    seed,
    near_wall_c: Optional[float] = None,
):
    rng = _seeded(seed, "volume-mc")
    # the box is sized by frobenius radius, and |Q|_F <= d |Q|_max
    reach = max(ts) if norm == "frobenius" else ctx.d * max(ts)
    margins, weights = _grid_margins(ctx, reach, rng, samples)

    factor = 1.0
    if norm == "frobenius":
        radii = _ball_radius(ctx, margins)
        factor = haar_fraction(frame, ctx.d)
    else:
        frames, forms = _sampled_forms(ctx, margins, rng)
        radii = np.max(np.abs(forms), axis=(1, 2))
        if not (frame is None or isinstance(frame, FullFrame)):
            # the slot-0 axis is a Haar-uniform line: its share is haar_fraction
            weights = weights * frame.accepts_rows(frames[:, :, 0])

    if near_wall_c is not None:
        weights = weights * (np.min(margins, axis=1) <= near_wall_c)

    values, errs = [], []
    for t in ts:
        contrib = factor * weights * (radii < t)
        values.append(float(contrib.mean()))
        errs.append(float(contrib.std(ddof=1) / math.sqrt(samples)))
    return values, errs


def _volume(ctx, t_grid, method, frame, norm, samples, seed, near_wall_c=None) -> CountSeries:
    """Volume per threshold of the region, or with near_wall_c of its
    near-wall slice (some margin <= c), by quadrature or MC."""
    norm = enumeration._check_norm(norm)
    ts = enumeration.t_grid_values(t_grid)
    n = len(ctx.cuts)
    if n == 0:
        raise ValueError("chamber must have at least one interior cut")
    digest = _context_digest(ctx, frame, norm)  # checks the frame before any work
    stderr = abserr = None
    if method == "quadrature":
        if norm != "frobenius":
            raise ValueError("quadrature supports the frobenius norm only")
        if n > 3:
            raise ValueError("quadrature limited to chamber dimension <= 3; use monte-carlo")
        factor = haar_fraction(frame, ctx.d)

        def region(t: float) -> tuple[float, float]:
            inner, err = _nested_quadrature(ctx, t, 0.0)
            if near_wall_c is None:
                return factor * inner, factor * err
            outer, err_c = _nested_quadrature(ctx, t, near_wall_c)
            return max(0.0, factor * (inner - outer)), factor * (err + err_c)

        values, abserr = zip(*(region(t) for t in ts))
    elif method in ("mc", "monte-carlo"):
        samples = _sample_count(samples)
        values, errs = _mc_series(ctx, ts, norm, frame, samples, seed, near_wall_c)
        stderr = tuple(errs)
    else:
        raise ValueError("method must be quadrature or monte-carlo")
    manifest = {
        "kind": "volume" if near_wall_c is None else "singular-volume",
        "method": method,
        "norm": norm,
    }
    if near_wall_c is not None:
        manifest["c"] = near_wall_c
    manifest.update(
        signs=list(ctx.signs),
        joined=list(ctx.joined),
        samples=int(samples) if method != "quadrature" else None,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
        abserr=list(abserr) if abserr else None,
    )
    if near_wall_c is None:
        pair = predict_exponent(ctx.d, ctx.blocks.dims)
        manifest.update(predicted_a=str(pair.a), predicted_b=pair.b)
    series = CountSeries(
        t_grid=tuple(ts),
        values=tuple(values),
        spec_digest=digest,
        manifest=manifest,
        stderr=stderr,
    )
    return with_fit(series)


def volume_series(
    ctx: DensityContext,
    t_grid,
    method: str = "quadrature",
    frame=None,
    norm: str = "frobenius",
    samples: int = 200_000,
    seed=None,
) -> CountSeries:
    """Region volume per threshold, quadrature or importance-sampled MC."""
    return _volume(ctx, t_grid, method, frame, norm, samples, seed)


def _context_digest(ctx: DensityContext, frame, norm: str) -> str:
    spec = make_spec(ctx.blocks.dims, _block_signatures(ctx), frame=frame, norm=norm)
    return spec.digest()


def _block_signatures(ctx: DensityContext) -> list[tuple[int, int]]:
    sigs, pos = [], 0
    for dim in ctx.blocks.dims:
        chunk = ctx.signs[pos : pos + dim]
        sigs.append((sum(1 for s in chunk if s == 1), sum(1 for s in chunk if s == -1)))
        pos += dim
    return sigs


def singular_volume(
    ctx: DensityContext,
    c: float,
    t_grid,
    method: str = "quadrature",
    frame=None,
    norm: str = "frobenius",
    samples: int = 200_000,
    seed=None,
) -> CountSeries:
    """Volume of the near-wall slice: some margin <= c, inside the ball."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError("need a finite c >= 0")
    return _volume(ctx, t_grid, method, frame, norm, samples, seed, near_wall_c=c)


# probe images per sampled point in wellroundedness_ratio
WR_PROBES = 8
# relative slack of wellroundedness_ratio's probe screen, which the
# docstring there shows to cover the float error of the verdicts
WR_SLACK = 1e-6


@dataclass(frozen=True)
class WellRoundedness:
    ratio: float
    stderr: float
    epsilon: float
    t: float
    member_weight: float
    boundary_weight: float
    inconclusive: bool
    probed: int  # sample points whose probe images were classified


def _member_radius(forms: np.ndarray, spec):
    """Float-classifier membership and Frobenius norm of a stack of forms."""
    d = forms.shape[1]
    i, j = np.asarray(enumeration.triangle_indices(d)).T
    member, _ = _classify_batch(forms[:, i, j], d, spec)
    return member, np.sqrt(np.sum(forms**2, axis=(1, 2)))


def _unsettled(logs, member, radii, steps, t: float) -> np.ndarray:
    """Rows whose probe images e S e^T might not share the centre's inside
    verdict, by Ostrowski's bound (see wellroundedness_ratio); logs are
    the centres' log |eigenvalues|."""
    sv = np.linalg.svd(np.stack(steps), compute_uv=False)
    hi2, lo2 = float(sv.max()) ** 2, float(sv.min()) ** 2
    gaps = np.diff(np.sort(logs, axis=1), axis=1)
    apart = np.all(gaps > math.log(hi2 / lo2) + WR_SLACK, axis=1)
    one_side = (
        ~member | (radii * hi2 < t * (1.0 - WR_SLACK)) | (radii * lo2 > t * (1.0 + WR_SLACK))
    )
    return ~(apart & one_side)


def wellroundedness_ratio(
    ctx: DensityContext,
    epsilon: float,
    t: float,
    seed,
    samples: int = 4000,
) -> WellRoundedness:
    """MC estimate of vol(eps-thickened boundary) / vol(region) at one T,
    for the full-frame region in the frobenius ball.

    A sampled point is "boundary" when its probe orbit (the point S plus
    WR_PROBES images e S e^T, e = exp(eps X) with X of unit metric norm)
    contains both members and nonmembers of the region.  Sampling covers
    a thin collar outside the walls so the outer half of the boundary
    layer is seen; weights are |xi| there, the magnitude of the
    adjacent-chart density.

    Most points are settled without a frame, a form or an image.  A
    centre S = k diag(lambda) k^T has the spectrum lambda = signs e^(2y)
    and the radius sqrt(sum lambda^2) whatever its Haar frame k, so its
    inside verdict is _spectral_verdict of its margin spectrum.  By
    Ostrowski's theorem, for S symmetric and e invertible the k-th
    eigenvalue of e S e^T (by value) is theta_k times that of S, with
    sigma_min(e)^2 <= theta_k <= sigma_max(e)^2; and ||e S e^T||_F lies in
    [sigma_min^2, sigma_max^2] ||S||_F.  With hi and lo the extreme
    singular values over all steps, every image keeps the signs of S and
    moves each log |eigenvalue| by at most log(hi^2 / lo^2).  A point is
    settled when the adjacent gaps of its log |eigenvalues| (2 y, known
    from its margins) all exceed that plus WR_SLACK, and its centre is a
    nonmember or its radius r has r hi^2 < t (1 - WR_SLACK) or
    r lo^2 > t (1 + WR_SLACK).  Every image then has the centre's slot
    sign pattern, a log gap above WR_SLACK between adjacent slots and the
    centre's side of t, hence the centre's inside verdict: the point is
    not mixed, and with e = I (sigma = 1) the same argument gives the float
    classifier's verdict on the centre itself.  Only the other points get
    a frame, a form and float verdicts for the centre and its images;
    `probed` counts those points.  Every point still draws its frame's
    normals, frames first and then the probe directions, so the stream
    and each result are those of building every frame.

    The slack covers the float error.  The screen reasons on exact
    spectra, while the verdicts come from the float classifier on float
    forms.  Forming k diag k^T and e S e^T perturbs S by a few ulps of
    ||S||_2, so by Weyl's bound each log |eigenvalue| moves by a few ulps
    times ||S||_2 / |lambda_min|; the classifier's solvers err on the same
    order, and the singular values of e are good to a few ulps of 1.
    Where membership matters (r < t), ||S||_2 / |lambda_min| <= t^d
    (det S = +-1), at most 1.7e7 for t <= 64 and d <= 4, so these errors
    are a few times 4e-9, two orders inside WR_SLACK, and a settled image
    keeps a gap far above the tie tolerance.  (The d = 3 closed form errs more on a near-tie of two
    same-sign slots, which cannot change a sign pattern, and it re-solves
    a float gap below 1e-6 by Jacobi.)  So every settled point gets the
    verdict that probing it would give.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("need a finite epsilon > 0")
    if not (math.isfinite(t) and t > 0):
        raise ValueError("need a finite t > 0")
    if any(dim != 1 for dim in ctx.blocks.dims):
        raise ValueError("thickened-boundary probes need all blocks one-dimensional")
    samples = _sample_count(samples)
    d = ctx.d
    rng = _seeded(seed, "wellrounded")
    spec = make_spec(ctx.blocks.dims, _block_signatures(ctx))
    margins, weights = _grid_margins(
        ctx, t, rng, samples, lo=-8.0 * epsilon, pad=0.25 + 2.0 * epsilon
    )
    # every point draws its frame's normals, so the stream reaches the
    # probe directions as if every frame were built
    normals = rng.standard_normal((samples, d, d))
    steps = [expm(epsilon * x) for x in _unit_directions(d, WR_PROBES, rng)]
    logs = 2.0 * ctx.log_coords(margins)
    eig = np.asarray(ctx.signs, dtype=float) * np.exp(logs)
    order = np.argsort(-np.abs(eig), axis=1, kind="stable")
    member, _ = _spectral_verdict(np.take_along_axis(eig, order, axis=1), spec)
    radii = np.sqrt(np.sum(eig**2, axis=1))
    rows = np.flatnonzero(_unsettled(logs, member, radii, steps, t))
    frames = haar_frames(normals[rows])
    base = np.einsum("nij,nj,nkj->nik", frames, eig[rows], frames)
    inside_member, inside_radii = _member_radius(
        np.concatenate([base] + [e @ base @ e.T for e in steps]), spec
    )
    inside = (inside_member & (inside_radii < t)).reshape(1 + WR_PROBES, len(rows))
    center = member & (radii < t)
    center[rows] = inside[0]
    mixed = np.zeros(samples, dtype=bool)
    mixed[rows] = inside.any(axis=0) & ~inside.all(axis=0)

    num = float(np.sum(weights * mixed))
    den = float(np.sum(weights * center))
    ratio = math.inf if den == 0.0 else num / den
    nblk = 20
    idx = np.array_split(np.arange(samples), nblk)
    parts = []
    for block in idx:
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
    return WellRoundedness(
        ratio=ratio,
        stderr=stderr,
        epsilon=epsilon,
        t=t,
        member_weight=den,
        boundary_weight=num,
        inconclusive=inconclusive,
        probed=len(rows),
    )
