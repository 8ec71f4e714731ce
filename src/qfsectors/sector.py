"""Spectral sector membership, sector counting, and exponent fitting.

A sector is described by a block decomposition of the eigenvalue slots
(in |eigenvalue|-descending order), a per-block inertia constraint, an
optional bound on the within-block spread, and a frame constraint on
the top eigenvector.  A form belongs to the sector when its spectrum,
grouped consecutively by the block dimensions, has strictly decreasing
block geometric means, matching per-block signatures, spread inside the
window, and an admissible frame.  Forms whose required strict
inequalities are ties are "degenerate": tallied separately, never
counted as members.  A frame reads the top eigenvector's line, which
exists only when the top |eigenvalue| is simple, so a framed sector
also needs a strict drop from slot 1 to slot 2.

_classify_batch is the one classifier: a single form is a batch of one
(sector_membership, whose verdict is "member", "nonmember" or
"degenerate"), and count_sector classifies each signed-permutation orbit
once.  Integer d = 3 batches of three 1-dim blocks get an exact
spectral verdict from the integer characteristic polynomial alone
(_sign_sector_d3).  Every other batch takes the float path: eigenvalues
from the closed forms with near-ties rerun through Jacobi, and a strict
inequality within TIE_TOL counts as a tie.  TIE_TOL governs only the
float paths.  A frame is then tested on the member forms' top lines,
read from one batched eigendecomposition of the member rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from . import enumeration
from .jacobi import jacobi_eigh, sym2_eigvals_batch, sym3_char_poly, sym3_eigvals_batch
from .rootdata import BlockDecomposition

# on the float paths, a strict |eigenvalue| or block-mean drop of at most
# this (in logs) is a tie
TIE_TOL = 1e-9
# rows per _classify call: its temporaries are several times its input,
# so a large batch is classified slice by slice
CLASSIFY_ROWS = 32_768


@dataclass(frozen=True)
class FullFrame:
    kind: str = field(default="full", init=False)


@dataclass(frozen=True)
class Cap:
    """Frames whose top-|eigenvalue| axis lies within `angle` of `axis`.

    Eigenvector sign is a gauge choice, so the angle is measured on the
    axis (line) through the eigenvector: arccos|<v, axis>|.
    """

    axis: tuple[float, ...]
    angle: float
    kind: str = field(default="cap", init=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.axis, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError("cap axis must be a vector of finite numbers")
        big = float(np.max(np.abs(v), initial=0.0))
        if big == 0.0:
            raise ValueError("cap axis must be nonzero")
        # scaled by its largest |component| first, the norm neither
        # overflows nor underflows
        v = v / big
        object.__setattr__(self, "axis", tuple(v / np.linalg.norm(v)))
        if not 0.0 < self.angle < math.pi:
            raise ValueError("cap angle must lie in (0, pi)")

    def accepts_rows(self, tops: np.ndarray) -> np.ndarray:
        """Verdicts for a stack of top eigenvectors, one per row."""
        c = np.abs(np.asarray(tops, dtype=float) @ np.asarray(self.axis))
        return np.arccos(np.minimum(c, 1.0)) <= self.angle


@dataclass(frozen=True)
class AntiCap(Cap):
    """Frames whose top axis avoids the cap entirely (complement)."""

    kind: str = field(default="anticap", init=False)

    def accepts_rows(self, tops: np.ndarray) -> np.ndarray:
        return ~super().accepts_rows(tops)


@dataclass(frozen=True)
class SectorSpec:
    block: BlockDecomposition
    block_signatures: tuple[tuple[int, int], ...]
    frame_constraint: object = FullFrame()
    norm: str = "max"
    block_window: Optional[float] = None

    def __post_init__(self) -> None:
        dims = self.block.dims
        sigs = tuple(_as_signature(s, dim) for s, dim in zip(self.block_signatures, dims))
        if len(sigs) != len(dims):
            raise ValueError("one signature per block required")
        for (pp, qq), dim in zip(sigs, dims):
            if pp < 0 or qq < 0 or pp + qq != dim:
                raise ValueError("block signature must sum to the block dimension")
        object.__setattr__(self, "block_signatures", sigs)
        if self.block_window is not None and not self.block_window > 0:
            raise ValueError("block window must be positive when given")
        object.__setattr__(self, "norm", enumeration._check_norm(self.norm))
        frame = self.frame_constraint
        if isinstance(frame, Cap) and len(frame.axis) != self.block.d:
            raise ValueError(
                f"a cap axis of length {len(frame.axis)} does not fit d = {self.block.d}")

    def digest(self) -> str:
        frame = self.frame_constraint
        payload = {
            "dims": list(self.block.dims),
            "sigs": [list(s) for s in self.block_signatures],
            "frame": [frame.kind] + (
                [list(frame.axis), frame.angle] if isinstance(frame, Cap) else []
            ),
            "norm": self.norm,
            "window": self.block_window,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=8).hexdigest()


def _as_signature(s, dim: int) -> tuple[int, int]:
    if s == "+" or s == 1:
        return (1, 0) if dim == 1 else _bad_sig(s)
    if s == "-" or s == -1:
        return (0, 1) if dim == 1 else _bad_sig(s)
    pp, qq = s
    return (int(pp), int(qq))


def _bad_sig(s):
    raise ValueError(f"sign shorthand {s!r} only applies to 1-dim blocks")


def make_spec(
    dims,
    signatures,
    frame=None,
    norm: str = "max",
    block_window: Optional[float] = None,
) -> SectorSpec:
    block = BlockDecomposition(d=sum(dims), dims=tuple(int(x) for x in dims))
    return SectorSpec(
        block=block,
        block_signatures=tuple(signatures),
        frame_constraint=frame if frame is not None else FullFrame(),
        norm=norm,
        block_window=block_window,
    )


def sign_pattern_specs(d: int, frame=None, norm: str = "max") -> list[SectorSpec]:
    """All 2^d one-dimensional-block sign-pattern sectors."""
    specs = []
    for bits in range(2**d):
        signs = ["+" if (bits >> i) & 1 == 0 else "-" for i in range(d)]
        specs.append(make_spec((1,) * d, signs, frame=frame, norm=norm))
    return specs


def sector_membership(q, spec: SectorSpec) -> str:
    """One form's verdict, "member", "nonmember" or "degenerate", from
    _classify_batch on a batch of one: an integer form (a QuadraticForm
    with its exact entries) takes count_sector's exact route, which raises
    OverflowError past its int64 bound.  Degeneracy is decided before the
    sign tests, so it does not depend on the requested signatures.  A
    nested list or object array of Python ints past int64 is read as
    the QuadraticForm of its exact entries."""
    if not isinstance(q, enumeration.QuadraticForm) and np.asarray(q).dtype == object:
        q = enumeration.QuadraticForm.from_matrix(q)
    if isinstance(q, enumeration.QuadraticForm):
        d, tri = q.d, enumeration._int_array([q.entries])
    else:
        mat = np.asarray(q)
        d = mat.shape[0]
        if mat.shape != (d, d) or not np.allclose(mat, mat.T):
            raise ValueError("expected a symmetric matrix")
        tri = mat[np.triu_indices(d)][None, :]
    if d != spec.block.d:
        raise ValueError(f"a {d}x{d} form cannot lie in a sector of d = {spec.block.d}")
    member, degenerate = _classify_batch(tri, d, spec)
    return "degenerate" if degenerate[0] else "member" if member[0] else "nonmember"


def _eigvals_batch(mats: np.ndarray) -> np.ndarray:
    d = mats.shape[1]
    if d == 2:
        lam = sym2_eigvals_batch(mats)
    elif d == 3:
        lam = sym3_eigvals_batch(mats)
    else:
        lam = np.linalg.eigvalsh(mats)
    # the closed forms lose ~1e-9 near repeated |eigenvalues|, exactly
    # where the tie tolerance decides degeneracy; rerun those few rows, in
    # every d so that one solver decides ties, through the cyclic Jacobi
    # path, which keeps ties at machine epsilon
    alam = np.sort(np.abs(lam), axis=1)
    rel = np.diff(alam, axis=1) / np.maximum(alam[:, 1:], 1e-300)
    close = np.min(rel, axis=1) <= 1e-6
    for r in np.nonzero(close)[0]:
        lam[r] = jacobi_eigh(mats[r])[0]
    return lam


def _matrices(tri: np.ndarray, d: int) -> np.ndarray:
    """Float symmetric matrices of a batch of upper triangles."""
    mats = np.zeros((tri.shape[0], d, d))
    for col, (i, j) in enumerate(enumeration.triangle_indices(d)):
        mats[:, i, j] = mats[:, j, i] = tri[:, col]
    return mats


def _slot_spectrum(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues in |eigenvalue|-descending slot order, one row per matrix."""
    lam = _eigvals_batch(mats)
    return np.take_along_axis(lam, np.argsort(-np.abs(lam), axis=1, kind="stable"), axis=1)


def _classify(tri: np.ndarray, d: int, spec: SectorSpec):
    """Float verdicts for a batch of upper triangles, frame left out:
    _spectral_verdict of their slot-ordered spectra (_slot_spectrum)."""
    return _spectral_verdict(_slot_spectrum(_matrices(tri, d)), spec)


def _spectral_verdict(lam_s: np.ndarray, spec: SectorSpec):
    """(member, degenerate) masks, frame left out, of spectra given in
    |eigenvalue|-descending slot order, one row per form.  A framed spec
    needs a strict drop after slot 1 as after each cut."""
    alam_s = np.abs(lam_s)
    logs = np.log(np.maximum(alam_s, 1e-300))
    cuts, dims = spec.block.cuts, np.asarray(spec.block.dims)
    starts = (0,) + cuts
    means = np.add.reduceat(logs, starts, axis=1) / dims[None, :]

    degenerate = np.any(alam_s < 1e-300, axis=1)
    for c in cuts if isinstance(spec.frame_constraint, FullFrame) else (1,) + cuts:
        degenerate |= logs[:, c - 1] - logs[:, c] <= TIE_TOL
    if len(dims) > 1:
        degenerate |= np.any(means[:, :-1] - means[:, 1:] <= TIE_TOL, axis=1)

    member = ~degenerate
    pos = np.add.reduceat((lam_s > 0).astype(np.int64), starts, axis=1)
    member &= np.all(pos == [s[0] for s in spec.block_signatures], axis=1)
    if spec.block_window is not None:
        spread = np.abs(logs - np.repeat(means, dims, axis=1))
        max_spread = np.maximum.reduceat(spread, starts, axis=1)
        member &= ~np.any(max_spread[:, dims >= 2] > spec.block_window, axis=1)
    return member, degenerate


def _classify_batch(tri: np.ndarray, d: int, spec: SectorSpec, weight=None):
    """Verdicts for one batch: (member, degenerate) masks, or with weight
    the per-row counts of member and degenerate forms, each row standing
    for its orbit of weight forms P Q P^T under the signed permutations P.

    The spectral verdict reads only the spectrum, which P keeps.  An
    integer d = 3 batch of 1-dim blocks gets it exactly from
    _sign_sector_d3 (a window never binds a 1-dim block).  Any other
    batch goes to _classify, which decides each row on its own, so
    slices of CLASSIFY_ROWS rows give the same verdicts with bounded
    temporaries; an empty batch still makes one (empty) call.

    A frame reads the top line v of a member form, a function of the
    form since its top |eigenvalue| is simple: the eigenvector of the
    largest |eigenvalue| in one np.linalg.eigh over the member rows, in
    every d.  The image P Q P^T has the top line P v.  The g = |G|
    elements reach each of an orbit's weight images from g / weight
    elements, so the orbit holds weight * #{P : frame accepts P v} / g
    accepted forms.  A form on its own takes the group of the identity
    alone.  A count that is not a whole number raises."""
    if tri.dtype.kind in "iuO" and d == 3 and spec.block.dims == (1, 1, 1):
        member, degenerate = _sign_sector_d3(tri, spec)
    else:
        parts = [
            _classify(tri[i : i + CLASSIFY_ROWS], d, spec)
            for i in range(0, max(tri.shape[0], 1), CLASSIFY_ROWS)
        ]
        member, degenerate = (np.concatenate(masks) for masks in zip(*parts))
    counts = member if weight is None else member * weight
    frame = spec.frame_constraint
    if not isinstance(frame, FullFrame):
        rows = np.nonzero(member)[0]
        group = np.eye(d)[None] if weight is None else enumeration.signed_permutations(d)
        lam, vec = np.linalg.eigh(_matrices(tri[rows], d))
        top = np.argmax(np.abs(lam), axis=1)
        tops = np.einsum("gij,nj->ngi", group, vec[np.arange(len(rows)), :, top])
        hits = frame.accepts_rows(tops.reshape(-1, d)).reshape(len(rows), len(group)).sum(axis=1)
        counts[rows], rest = np.divmod(counts[rows] * hits, len(group))
        if np.any(rest):
            raise RuntimeError("internal orbit check failed: a frame verdict differs "
                               "between group elements that give the same form")
    return counts, degenerate if weight is None else degenerate * weight


def _sign_sector_d3(tri: np.ndarray, spec: SectorSpec):
    """Exact (member, degenerate) masks of integer 3x3 forms in a sign
    sector, frame left out, from p(x) = x^3 - c2 x^2 + c1 x - c0.

    The roots of p are real, so Descartes' rule of signs is exact: the
    sign changes of (1, -c2, c1, -c0) count the positive eigenvalues, and
    those of (-1, 2 c2, -(c2^2 + c1), c1 c2 - c0), whose roots are the
    pair sums lambda_i + lambda_j = c2 - lambda_k, count the positive pair
    sums.  With no |eigenvalue| tie a pair sum has the sign of its
    larger-|lambda| member, so a positive eigenvalue in slot k adds 2 - k
    positive pair sums, and the two counts name the slot pattern.  An
    |eigenvalue| tie is a zero of c1 c2 - c0 = prod(lambda_i + lambda_j)
    (a +-lambda pair) or of the discriminant (a repeated root); those
    forms, and singular ones (c0 = 0), are the degenerate forms.
    """
    b = max(int(tri.max(initial=0)), -int(tri.min(initial=0)))
    # for |entries| <= b: |c2| <= 3b, |c1| <= 6b^2 and |c0| <= 6b^3, so the
    # two discriminant terms below are at most 1188 b^6 and 3564 b^6, and no
    # product or partial sum anywhere exceeds 4752 b^6
    if 4752 * b**6 >= 2**63:
        raise OverflowError("entries too large for the exact 64-bit sign test")
    c2, c1, c0 = sym3_char_poly(*tri.astype(np.int64).T)
    pair_product = c1 * c2 - c0
    disc = c1 * c1 * (c2 * c2 - 4 * c1) + c0 * (18 * c1 * c2 - 4 * c2**3 - 27 * c0)
    degenerate = (c0 == 0) | (pair_product == 0) | (disc == 0)
    plus = [p for p, _ in spec.block_signatures]
    member = ~degenerate & (enumeration._sign_changes(1, -c2, c1, -c0) == sum(plus))
    member &= enumeration._sign_changes(-1, 2 * c2, -(c2 * c2 + c1), pair_product) == sum(
        (2 - k) * p for k, p in enumerate(plus)
    )
    return member, degenerate


@dataclass(frozen=True)
class CountSeries:
    """A T-grid with counts or volumes, provenance, and an attached fit."""

    t_grid: tuple[float, ...]
    values: tuple[float, ...]
    spec_digest: str
    fit_b_fixed: ClassVar[int] = 1  # predict_exponent's b for every block pattern
    fit_a: Optional[float] = None
    fit_c: Optional[float] = None
    residuals: Optional[tuple[float, ...]] = None
    manifest: dict = field(default_factory=dict)
    degenerate: Optional[tuple[int, ...]] = None
    stderr: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if len(self.t_grid) != len(self.values):
            raise ValueError("T grid and values must have equal length")
        if any(v < 0 for v in self.values):
            raise ValueError("values must be nonnegative")


def with_fit(series: CountSeries) -> CountSeries:
    """Attach the b = 1 fit when there are enough positive points."""
    try:
        fit = fit_exponent((series.t_grid, series.values))
    except ValueError:
        return series
    return dataclasses.replace(series, fit_a=fit.a, fit_c=fit.c, residuals=fit.residuals)


def tally_verdict(spec: SectorSpec):
    """spec's verdict for enumeration.tally: (triangles, weights) to the
    per-row counts of member and degenerate forms, each canonical row
    classified once for its signed-permutation orbit."""
    d = spec.block.d
    # _classify_batch is looked up per call, so a patched one is the one run
    return lambda tri, weight: _classify_batch(tri, d, spec, weight)


def count_sector(t_grid, spec: SectorSpec, threads: int | None = None) -> CountSeries:
    """Stream the ball at max(T), classify, bin by threshold: one
    enumeration.tally with spec's tally_verdict, which classifies each
    signed-permutation orbit once, framed or not."""
    d = spec.block.d
    ts = enumeration.t_grid_values(t_grid)
    _, [(counts, degs)] = enumeration.tally(d, ts, spec.norm, [tally_verdict(spec)], threads)
    series = CountSeries(
        t_grid=tuple(ts),
        values=tuple(float(c) for c in counts),
        spec_digest=spec.digest(),
        manifest={
            "kind": "sector-counts",
            "d": d,
            "norm": spec.norm,
            "dims": list(spec.block.dims),
            "tie_tol": TIE_TOL,
        },
        degenerate=tuple(degs),
    )
    return with_fit(series)


@dataclass(frozen=True)
class FitResult:
    a: float
    c: float
    r2: float
    b_fixed: int
    residuals: tuple[float, ...]
    a_free: Optional[float] = None
    b_free: Optional[float] = None
    c_free: Optional[float] = None


def fit_exponent(series, b_fixed: int = 1) -> FitResult:
    """Least squares for log N = log c + a log T + (b-1) log log T.

    series is a (t_grid, values) pair.  Needs at least 4 positive data
    points and b_fixed >= 1; also reports the free-b fit as a diagnostic
    when there are enough points for three parameters.
    """
    if b_fixed < 1:
        raise ValueError("b_fixed must be at least 1: the model's log power is b - 1 >= 0")
    ts, vals = (np.asarray(x, dtype=float) for x in series)
    keep = vals > 0
    if int(keep.sum()) < 4:
        raise ValueError("insufficient data: need at least 4 positive points")
    ts, vals = ts[keep], vals[keep]
    if np.any(ts <= 1.0):
        raise ValueError("T values must exceed 1 for the log-log model")
    logt = np.log(ts)
    loglogt = np.log(logt)
    y = np.log(vals) - (b_fixed - 1) * loglogt
    design = np.column_stack([np.ones_like(logt), logt])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    sstot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sstot if sstot > 0 else 1.0
    a_free = b_free = c_free = None
    if len(ts) >= 5:
        d3 = np.column_stack([np.ones_like(logt), logt, loglogt])
        c3, *_ = np.linalg.lstsq(d3, np.log(vals), rcond=None)
        c_free, a_free, b_free = float(np.exp(c3[0])), float(c3[1]), float(c3[2] + 1)
    return FitResult(
        a=float(coef[1]),
        c=float(np.exp(coef[0])),
        r2=r2,
        b_fixed=b_fixed,
        residuals=tuple(float(r) for r in resid),
        a_free=a_free,
        b_free=b_free,
        c_free=c_free,
    )
