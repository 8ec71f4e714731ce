"""Shared oracles for the test suite.

The brute-force scans below are deliberately independent of the package
internals: they walk the full integer box with numpy and decide det ±1
from a rounded float determinant (entries are tiny, so the float det is
exact to well under 0.5).  Norm thresholds are compared exactly, against
the rational value of the float T.
"""

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qfsectors


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
