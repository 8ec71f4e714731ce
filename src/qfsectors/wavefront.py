"""Stability probes for the k a w h factorization.

The factor map g -> (k, a, w, h) is smooth where the |eigenvalues| of
g J g.T stay simple, and it degenerates at the chamber walls where
neighbouring slots collide.  The probes measure that empirically:
perturb g on the left by exp(eps X) for random unit tangent directions
X, refactor, gauge away the column-sign ambiguity of the eigenvector
frame, and compare factor displacement against eps.

Distances on the group use the metric induced by the quadratic form
B(X, Y) = -tr(ad X . ad theta(Y)) on traceless matrices, theta(Y)=-Y.T.
On sl_d it equals 2d tr(X Y.T), so ||X||_B = sqrt(2d) ||X||_F; the test
suite keeps the literal adjoint action on an explicit basis as the
reference for that closed form.  The a factor is compared in plain
Euclidean log coordinates (the same metric up to a constant factor).

The k and h displacements of every kept direction of a probe come from
one stacked series log (_log_near_identity) on the factor differences,
E_k = (k' - k) k^T and E_h = (h' - h) h^-1, with no scipy logm: forming
k' k^T - I would cancel the leading digits of a small displacement.

The coarse frame observable is the largest principal angle between
matching column blocks of two k factors.  Their columns are already
orthonormal, so _largest_angle takes it in closed form from one product
a^T b, with no re-orthonormalization as in scipy's subspace_angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import sampling
from .cartan import (
    CartanFactors,
    kah_decompose,
    signature_matrix,
    weyl_matrix,
)
from .rootdata import BlockDecomposition

MAX_PROBE_EPS = 1e-2
SWEEP_DIRECTIONS = 3  # probe directions per sweep base point
_HALF_ULP = np.finfo(float).eps / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


class MetricDomainError(ValueError):
    """The two group elements are too far apart for the matrix log."""


def b_norm(x: np.ndarray) -> float:
    """||x||_B = sqrt(2d) ||x||_F for a traceless d x d matrix x."""
    return math.sqrt(2 * len(x)) * float(np.linalg.norm(x))


def _in_log_domain(e: np.ndarray) -> np.ndarray:
    """Mask of the rows of a stack of E, shape (n, d, d), with ||E||_F < 1."""
    return np.linalg.norm(e, axis=(1, 2)) < 1.0


def _sqrt_near_identity(e: np.ndarray) -> np.ndarray:
    """sqrt(I + E) - I for a stack of E with ||E||_F < 1.

    Denman-Beavers: Y -> (Y + Z^-1)/2, Z -> (Z + Y^-1)/2 from Y = I + E,
    Z = I converges quadratically to sqrt(I + E), so once a step moves Y
    by at most sqrt(eps) the error left is of order eps.
    """
    eye = np.eye(e.shape[-1])
    y, z = eye + e, eye
    step = math.inf
    while step > _SQRT_EPS:
        y, z, y_prev = (y + np.linalg.inv(z)) / 2.0, (z + np.linalg.inv(y)) / 2.0, y
        step = float(np.linalg.norm(y - y_prev, axis=(1, 2)).max())
    return y - eye


def _log_near_identity(e: np.ndarray) -> np.ndarray:
    """Principal log(I + E) for a stack of E, shape (n, d, d), ||E||_F < 1.

    log(I + E) = 2 atanh(Z) = 2 sum_j Z^(2j+1) / (2j+1) with
    Z = (2I + E)^-1 E, which commutes with E.  I + E is never formed, so
    a small E loses nothing to cancellation.  ||Z||_F < ||E||_F because
    ||(2I + E)^-1||_2 < 1.  Rows with ||Z||_F > 1/2 first take square
    roots (log M = 2 log sqrt M) until every row has ||Z||_F <= 1/2; the
    term count n is then the smallest whose tail bound
    rho^(2n+1) / ((2n+1)(1 - rho^2)), rho = max ||Z||_F over the stack,
    is at most eps/2 times rho: 24 terms at rho = 1/2, 6 at rho = 0.035.

    The result is real: ||E||_2 <= ||E||_F < 1 puts the spectrum of I + E
    in the disc |z - 1| < 1, which avoids (-inf, 0], so the principal log
    of the real matrix I + E is real.  Raises MetricDomainError when any
    row has ||E||_F >= 1.
    """
    e = np.array(e, dtype=float)  # the square roots overwrite rows
    if not _in_log_domain(e).all():
        raise MetricDomainError("group elements too far apart for the local metric")
    eye = np.eye(e.shape[-1])
    scale = np.ones(len(e))
    z = np.linalg.solve(2.0 * eye + e, e)
    zn = np.linalg.norm(z, axis=(1, 2))
    while (big := zn > 0.5).any():
        e[big] = _sqrt_near_identity(e[big])
        scale[big] *= 2.0
        z[big] = np.linalg.solve(2.0 * eye + e[big], e[big])
        zn[big] = np.linalg.norm(z[big], axis=(1, 2))
    rho = float(zn.max(initial=0.0))
    n = 1
    while rho ** (2 * n) > _HALF_ULP * (2 * n + 1) * (1.0 - rho * rho):
        n += 1
    z2 = z @ z
    acc = np.broadcast_to(eye / (2 * n - 1), z.shape)
    for j in range(n - 2, -1, -1):
        acc = z2 @ acc + eye / (2 * j + 1)
    return (2.0 * scale)[:, None, None] * (z @ acc)


def group_distance(x: np.ndarray, y: np.ndarray) -> float:
    """|| log(x y^-1) ||_B for nearby invertible x, y.

    x y^-1 = I + E with E = (x - y) y^-1, one solve; MetricDomainError
    when ||E||_F >= 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    e = np.linalg.solve(y.T, (x - y).T).T
    return b_norm(_log_near_identity(e[None])[0])


@dataclass(frozen=True)
class ProbeSample:
    """One perturbation direction: measured displacements (None if crossed)."""

    d_input: float
    crossed: bool
    d_k: float | None = None
    d_a: float | None = None
    d_h: float | None = None


@dataclass(frozen=True)
class ProbeReport:
    base: CartanFactors
    epsilon: float
    samples: int
    regularity_c: float
    chamber_depth: float
    crossings: int
    ratio_k: float | None = None
    ratio_a: float | None = None
    ratio_h: float | None = None
    ratio_coarse_aI: float | None = None
    ratio_coarse_frame: float | None = None
    detail: tuple[ProbeSample, ...] = ()


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, (int, np.integer)):
        return sampling.derive_rng(int(seed), "wavefront-probe")
    return seed


def _unit_directions(d: int, n: int, rng) -> list[np.ndarray]:
    dirs = []
    for _ in range(n):
        x = sampling.random_traceless(rng, d)
        dirs.append(x / b_norm(x))
    return dirs


def _gauge(base: CartanFactors, probe: CartanFactors):
    """Align probe's column-sign gauge to base; factors must share w."""
    dots = np.einsum("ij,ij->j", base.k, probe.k)
    signs = np.where(dots >= 0, 1.0, -1.0)
    if np.prod(signs) < 0:
        signs[int(np.argmin(np.abs(dots)))] *= -1.0
    k_al = probe.k * signs
    pmat = weyl_matrix(probe.w, probe.signature)
    h_al = (pmat.T @ np.diag(signs) @ pmat) @ probe.h
    return k_al, h_al


def _largest_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the column spans of a and b.

    a and b are d x m with orthonormal columns.  The angle's sine is
    ||b - a (a^T b)||_2 and its cosine the smallest singular value of
    a^T b; the arcsin is taken while sin^2 < 1/2 and the arccos beyond,
    each where it is well conditioned.
    """
    c = a.T @ b
    sin = float(np.linalg.svd(b - a @ c, compute_uv=False)[0])
    if sin * sin < 0.5:
        return math.asin(sin)
    return math.acos(min(float(np.linalg.svd(c, compute_uv=False)[-1]), 1.0))


def fine_probe(
    g: np.ndarray,
    signature: tuple[int, int],
    epsilon: float,
    n: int,
    seed,
    directions=None,
    joined=None,
) -> ProbeReport:
    """Refactor exp(eps X).g for n random unit X; compare every factor.

    seed may be an integer or a numpy Generator; it draws the n
    directions unless they are given.  The input displacement of each
    direction is eps ||X||_B exactly: inside the epsilon guard
    log(exp(eps X)) = eps X.  Perturbations whose
    sign pattern differs from the base are Weyl-slot crossings: counted,
    excluded from the ratios.

    joined, when given, lists 1-based boundary indices allowed to
    degenerate, and the same pass also measures the coarse observables
    on every direction, crossed ones included: block geometric means of
    the a coordinates (ratio_coarse_aI) and the largest principal angle
    between grouped eigenvector column spans (ratio_coarse_frame).  A
    kept boundary with margin below 10 eps makes the block clustering
    ambiguous; the coarse ratios are then None.
    """
    if not 0.0 < epsilon <= MAX_PROBE_EPS:
        raise ValueError("epsilon must lie in (0, 1e-2]")
    if seed is None and directions is None:
        raise ValueError("give either a seed (int or Generator) or the directions")
    d = sum(signature)
    cuts = None if joined is None else BlockDecomposition.from_joined(d, joined).cuts
    base = kah_decompose(g, signature)
    base_log_a = np.log(base.a)
    slots = None  # coarse blocks of slots, when their clustering is unambiguous
    if cuts is not None and not any(base.margins[c - 1] < 10.0 * epsilon for c in cuts):
        slots = np.split(np.arange(d), cuts)
        base_means = np.array([base_log_a[b].mean() for b in slots])
        ratio_ai, ratio_frame = 0.0, 0.0
    jmat = signature_matrix(*signature)
    h_inv = jmat @ base.h.T @ jmat  # exact inverse in H
    if directions is None:
        directions = _unit_directions(d, n, _as_rng(seed))
    detail, disp = [], []  # disp: (E_k, E_h) of each kept direction
    for x in directions:
        gp = scipy.linalg.expm(epsilon * x) @ g
        probe = kah_decompose(gp, signature)
        d_in = epsilon * b_norm(x)
        log_a = np.log(probe.a)
        if slots is not None:
            means = np.array([log_a[b].mean() for b in slots])
            ratio_ai = max(ratio_ai, float(np.linalg.norm(means - base_means)) / epsilon)
            ang = max(_largest_angle(base.k[:, b], probe.k[:, b]) for b in slots)
            ratio_frame = max(ratio_frame, ang / epsilon)
        if probe.w != base.w:
            detail.append(ProbeSample(d_input=d_in, crossed=True))
            continue
        k_al, h_al = _gauge(base, probe)
        # k_al base.k^T = I + E_k and h_al h^-1 = I + E_h, formed from the
        # factor differences so that a small displacement keeps its digits
        disp.append(((k_al - base.k) @ base.k.T, (h_al - base.h) @ h_inv))
        d_a = float(np.linalg.norm(log_a - base_log_a))
        detail.append(ProbeSample(d_input=d_in, crossed=False, d_a=d_a))
    # a tied base frame can be arbitrarily far from the probe's even with
    # w unchanged; that is the blow-up at the singular set, and a row
    # outside the log's domain reports as an infinite displacement
    e = np.array(disp).reshape(-1, d, d)
    dist = np.full(len(e), math.inf)
    ok = _in_log_domain(e)
    if ok.any():
        dist[ok] = [b_norm(lg) for lg in _log_near_identity(e[ok])]
    dist = iter(dist.tolist())  # d_k, d_h of the first kept direction, ...
    detail = [
        s if s.crossed else replace(s, d_k=next(dist), d_h=next(dist)) for s in detail
    ]
    kept = [s for s in detail if not s.crossed]
    return ProbeReport(
        base=base,
        epsilon=epsilon,
        samples=len(detail),
        regularity_c=float(min(base.margins)),
        chamber_depth=base.chamber_depth,
        crossings=len(detail) - len(kept),
        ratio_k=max(s.d_k / epsilon for s in kept) if kept else None,
        ratio_a=max(s.d_a / epsilon for s in kept) if kept else None,
        ratio_h=max(s.d_h / epsilon for s in kept) if kept else None,
        ratio_coarse_aI=None if slots is None else ratio_ai,
        ratio_coarse_frame=None if slots is None else ratio_frame,
        detail=tuple(detail),
    )


def coarse_probe(
    g: np.ndarray,
    signature: tuple[int, int],
    joined: tuple[int, ...],
    epsilon: float,
    n: int,
    seed,
    directions=None,
) -> ProbeReport:
    """Block-averaged stability: slots across each joined boundary merge.

    fine_probe(..., joined=joined) with the coarse ratios required:
    every kept boundary must have margin at least 10 eps, otherwise the
    block clustering is ambiguous and the base point is rejected.  The
    report's fine ratios, crossings and detail come from the same pass.
    """
    report = fine_probe(
        g, signature, epsilon, n, seed, directions=directions, joined=joined
    )
    if report.ratio_coarse_aI is None:
        raise ValueError(
            "margin at a kept boundary is below 10*eps; join it or shrink eps"
        )
    return report


def chamber_point(margins) -> np.ndarray:
    """Centered log-a vector realizing the given successive margins."""
    m = np.asarray(margins, dtype=float)
    y = np.concatenate([[0.0], -np.cumsum(m)])
    return y - y.mean()


def margins_for_depth(d: int, wall: int, c: float, depth: float) -> np.ndarray:
    """Margins with margins[wall]=c, the rest equal, ||chamber_point||=depth.

    The shared value t of the free margins solves a quadratic; the
    construction requires t >= c so that c really is the minimum margin.
    """
    base = np.zeros(d - 1)
    base[wall - 1] = c
    unit = np.ones(d - 1)
    unit[wall - 1] = 0.0
    u = chamber_point(base)
    v = chamber_point(unit)  # chamber_point is linear in the margins
    aa = float(v @ v)
    bb = 2.0 * float(u @ v)
    cc = float(u @ u) - depth * depth
    disc = bb * bb - 4.0 * aa * cc
    if aa == 0.0 or disc < 0.0:
        raise ValueError("no chamber point at this depth with the pinned margin")
    t = (-bb + math.sqrt(disc)) / (2.0 * aa)
    if t < c:
        raise ValueError("depth too small: the pinned margin would not be minimal")
    return base + t * unit


@dataclass(frozen=True)
class SweepCell:
    c: float
    depth: float
    epsilon: float
    n_points: int
    empty: bool
    crossings: int
    ratio_k: float | None = None
    ratio_a: float | None = None
    ratio_h: float | None = None
    ratio_coarse_aI: float | None = None
    ratio_coarse_frame: float | None = None


def lipschitz_sweep(
    signature: tuple[int, int],
    c_grid,
    depth_grid,
    epsilon: float,
    n_per_cell: int,
    seed: int,
    wall: int | None = None,
) -> list[SweepCell]:
    """Max displacement ratios over synthetic base points per (c, depth) cell.

    Base points are built directly as k0.diag(a).W.h0 with the canonical
    sign pattern, prescribed minimum margin c (at `wall`, or a random
    wall per point when None) and chamber depth ||log a||.  One probe
    pass per base point, on SWEEP_DIRECTIONS directions, gives the fine
    ratios and the coarse ratios that join exactly the pinned wall.
    Cells whose base-point construction fails are recorded as empty
    rather than fabricated; a negative or non-finite c or depth, or
    n_per_cell below 1, is a ValueError.
    """
    p, q = signature
    d = p + q
    if wall is not None and not 1 <= wall <= d - 1:
        raise ValueError("wall must be a boundary index 1..d-1")
    c_grid = [float(c) for c in c_grid]
    depth_grid = [float(depth) for depth in depth_grid]
    if not all(0.0 <= v < math.inf for v in c_grid + depth_grid):
        # a negative margin or depth puts the base point outside the closed
        # chamber, where kah re-sorts the slots and measures another point;
        # a NaN or infinite one builds no base point at all
        raise ValueError("c and depth must be finite and nonnegative")
    if n_per_cell < 1:
        raise ValueError("n_per_cell (base points per cell) must be at least 1")
    w0 = (1,) * p + (-1,) * q
    wmat = weyl_matrix(w0, signature)
    cells = []
    for c in c_grid:
        for depth in depth_grid:
            rk, ra, rh, rai, rfr = [], [], [], [], []
            crossings = 0
            n_ok = 0
            for b in range(n_per_cell):
                rng = sampling.derive_rng(seed, "sweep", c, depth, b)
                wall_b = wall if wall is not None else int(rng.integers(1, d))
                try:
                    margins = margins_for_depth(d, wall_b, c, depth)
                except ValueError:
                    continue
                avec = np.exp(chamber_point(margins))
                k0 = sampling.random_rotation(rng, d)
                h0 = sampling.random_indefinite_orthogonal(rng, p, q, scale=0.5)
                g = k0 @ (avec[:, None] * (wmat @ h0))
                dirs = _unit_directions(d, SWEEP_DIRECTIONS, rng)
                pr = fine_probe(
                    g, signature, epsilon, 0, None, directions=dirs, joined=(wall_b,)
                )
                n_ok += 1
                crossings += pr.crossings
                if pr.ratio_k is not None:
                    rk.append(pr.ratio_k)
                    ra.append(pr.ratio_a)
                    rh.append(pr.ratio_h)
                if pr.ratio_coarse_aI is not None:
                    rai.append(pr.ratio_coarse_aI)
                    rfr.append(pr.ratio_coarse_frame)
            cells.append(
                SweepCell(
                    c=c,
                    depth=depth,
                    epsilon=epsilon,
                    n_points=n_ok,
                    empty=not rk,
                    crossings=crossings,
                    ratio_k=max(rk) if rk else None,
                    ratio_a=max(ra) if ra else None,
                    ratio_h=max(rh) if rh else None,
                    ratio_coarse_aI=max(rai) if rai else None,
                    ratio_coarse_frame=max(rfr) if rfr else None,
                )
            )
    return cells
