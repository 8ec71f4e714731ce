"""Shared oracles for the test suite.

The brute-force scans below are deliberately independent of the package
internals: they walk the full integer box with numpy and decide det ±1
from a rounded float determinant (entries are tiny, so the float det is
exact to well under 0.5).  Norm thresholds are compared exactly, against
the rational value of the float T.  spectral_data is the frame tests'
per-form Jacobi oracle, independent of the batched classifier, and
spectral_verdict_rowwise the spectral verdict as whole-row reductions.
"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qfsectors
from qfsectors import enumeration
from qfsectors.jacobi import jacobi_eigh, slot_order
from qfsectors.sector import TIE_TOL, FullFrame


def brute_force_forms(d: int, t: float, norm: str = "max"):
    """Every symmetric integer matrix with det ±1, norm < t, as a sorted
    list of upper-triangle tuples.  Box scan, built one entry at a time
    in lexicographic order; under the frobenius norm each new entry
    drops the points whose partial norm squared is already past t."""
    t2 = Fraction(t) ** 2
    b = int(np.ceil(t)) - 1 if float(t).is_integer() else int(np.floor(t))
    # an integer n satisfies n < t2 exactly when n <= ceil(t2) - 1
    if norm == "frobenius":
        b = math.isqrt(math.ceil(t2) - 1)
    idx = [(i, j) for i in range(d) for j in range(i, d)]
    values = np.arange(-b, b + 1)
    box, spent = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for i, j in idx:
        box = np.column_stack([np.repeat(box, len(values), axis=0), np.tile(values, len(box))])
        if norm == "frobenius":
            spent = np.repeat(spent, len(values)) + (1 if i == j else 2) * box[:, -1] ** 2
            keep = spent <= math.ceil(t2) - 1
            box, spent = box[keep], spent[keep]
    if norm == "max":
        box = box[np.abs(box).max(axis=1) < t]
    m = np.zeros((box.shape[0], d, d))
    for col, (i, j) in enumerate(idx):
        m[:, i, j] = m[:, j, i] = box[:, col]
    det = np.rint(np.linalg.det(m))
    return sorted(map(tuple, box[np.abs(det) == 1].tolist()))


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: tuple[float, ...]  # |lambda| descending
    frame: np.ndarray  # columns follow the eigenvalue order, det +1
    gaps: tuple[float, ...]  # |lambda_i| - |lambda_{i+1}|


def spectral_data(q) -> SpectralData:
    mat = q.matrix() if isinstance(q, enumeration.QuadraticForm) else np.asarray(q)
    lam, vec = jacobi_eigh(np.asarray(mat, dtype=float))
    # an |eigenvalue| within TIE_TOL (relative) of the next larger one is
    # taken as the same size, so an exact +-lambda pair puts the positive
    # one first however Jacobi rounded the two
    alam = np.abs(lam)
    size = alam.copy()
    ranked = np.argsort(-alam, kind="stable")
    for big, k in zip(ranked, ranked[1:]):
        if size[big] - alam[k] <= TIE_TOL * size[big]:
            size[k] = size[big]
    order = slot_order(np.sign(lam) * size)
    lam = lam[order]
    vec = vec[:, order]
    if np.linalg.det(vec) < 0:
        vec = vec.copy()
        vec[:, -1] = -vec[:, -1]
    gaps = tuple(float(abs(lam[i]) - abs(lam[i + 1])) for i in range(len(lam) - 1))
    return SpectralData(eigenvalues=tuple(float(x) for x in lam), frame=vec, gaps=gaps)


def spectral_verdict_rowwise(lam_s: np.ndarray, spec):
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


def child_env():
    """Environment in which a child process imports the same qfsectors as this test."""
    env = dict(os.environ)
    root = str(Path(qfsectors.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session")
def brute_d3_t15():
    return brute_force_forms(3, 1.5)


ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance [PASS]/[FAIL] lines after the run, where output
    capture (``-q``, fd capture) cannot swallow them."""
    if ACCEPTANCE_REPORT:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)
