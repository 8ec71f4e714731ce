"""Eigensolver accuracy against numpy and against exact determinants."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfsectors.enumeration import enumerate_forms
from qfsectors.jacobi import (
    _sym3_closed_form,
    jacobi_eigh,
    slot_order,
    sym2_eigvals_batch,
    sym3_eigvals_batch,
)


def random_symmetric(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2


def test_jacobi_matches_numpy_and_reconstructs():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 5, 6):
        for _ in range(20):
            a = random_symmetric(rng, d)
            w, v = jacobi_eigh(a)
            assert np.linalg.norm(v.T @ v - np.eye(d)) < 1e-12
            assert np.linalg.norm(v @ np.diag(w) @ v.T - a) < 1e-12 * max(
                1.0, np.abs(a).max()
            )
            ref = np.linalg.eigvalsh(a)
            assert np.allclose(np.sort(w), ref, atol=1e-11)


def test_jacobi_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        jacobi_eigh(np.ones((2, 3)))


def test_jacobi_diagonal_is_fixed_point():
    w, v = jacobi_eigh(np.diag([3.0, -2.0, 1.0]))
    assert np.array_equal(np.sort(w), np.array([-2.0, 1.0, 3.0]))
    assert np.array_equal(np.abs(v), np.eye(3))


def test_slot_order_matches_a_lexsort_reference():
    """|eigenvalue| descending, then positive before negative (zero counts
    as negative), then index; checked against np.lexsort on the same keys."""
    rng = np.random.default_rng(3)
    spectra = [rng.standard_normal(d) for d in (2, 3, 4, 5) for _ in range(50)]
    spectra += [
        np.array([-5.0, 5.0, -1.0]),
        np.array([2.0, -2.0, 2.0, -2.0]),
        np.array([-3.0, -3.0, 3.0, 0.0]),
        np.array([0.0, -0.0, 1.0]),
        rng.choice([-2.0, -1.0, 1.0, 2.0], size=6),
    ]
    for lam in spectra:
        ref = np.lexsort((np.arange(len(lam)), lam <= 0, -np.abs(lam)))
        assert slot_order(lam) == ref.tolist()
    assert slot_order(np.array([-5.0, 5.0, -1.0])) == [1, 0, 2]
    assert slot_order(np.array([2.0, -2.0, 2.0, -2.0])) == [0, 2, 1, 3]


def test_sym2_batch_matches_eigh():
    rng = np.random.default_rng(7)
    mats = np.stack([random_symmetric(rng, 2, 3.0) for _ in range(200)])
    got = np.sort(sym2_eigvals_batch(mats), axis=1)
    ref = np.sort(np.linalg.eigvalsh(mats), axis=1)
    assert np.allclose(got, ref, atol=1e-12 * np.abs(mats).max())


@st.composite
def integer_sym2(draw, bound=2**26):
    """(a, b, c) of an integer [[a, b], [b, c]] with entries up to bound:
    random ones, and near-singular ones with b next to sqrt(a c)."""
    a, c = draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound))
    if a * c >= 0 and draw(st.booleans()):
        b = min(bound, math.isqrt(a * c) + draw(st.integers(0, 2)))
        return a, draw(st.sampled_from((b, -b))), c
    return a, draw(st.integers(-bound, bound)), c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entries=st.lists(integer_sym2(), min_size=1, max_size=15))
@example(entries=[(2**26, 1, 0), (0, 0, 0), (-5, 2, 0)])
def test_sym2_batch_keeps_full_relative_accuracy(entries):
    """Both eigenvalues hold against a 50-digit reference.  For a
    near-singular matrix half - rad would cancel, where det / (half + rad)
    does not.  Entries up to 2**26 keep det exact, and the four roundings
    left give at most 4 ulp (1.93 ulp is the worst seen, on near-singular
    matrices)."""
    mats = np.array([[[a, b], [b, c]] for a, b, c in entries], dtype=float)
    got = sym2_eigvals_batch(mats)
    with mpmath.workdps(50):
        for (a, b, c), lam in zip(entries, got):
            half = mpmath.mpf(a + c) / 2
            rad = mpmath.sqrt(mpmath.mpf(a - c) ** 2 / 4 + b * b)
            for x, ref in zip(lam, (half + rad, half - rad)):
                assert abs(mpmath.mpf(float(x)) - ref) <= 4 * np.spacing(abs(float(ref)))


def test_sym3_batch_matches_eigh():
    rng = np.random.default_rng(13)
    mats = np.stack([random_symmetric(rng, 3, 5.0) for _ in range(500)])
    got = np.sort(sym3_eigvals_batch(mats), axis=1)
    ref = np.sort(np.linalg.eigvalsh(mats), axis=1)
    assert np.allclose(got, ref, atol=1e-10 * np.abs(mats).max())


def test_sym3_full_relative_accuracy_on_unimodular_integers():
    """det = product of eigenvalues must come out at +-1 to close to
    machine precision even when the spectrum spans several orders.

    Repeated |eigenvalues| are the closed form's known soft spot (the
    Newton polish declines there); those rows only get the loose bound.
    The classification pipeline reruns them through jacobi_eigh anyway.
    """
    mats = np.stack(
        [f.matrix().astype(float) for f in enumerate_forms(3, 9.0)][::7]
    )
    eig = sym3_eigvals_batch(mats)
    dets = np.prod(eig, axis=1)
    signs = np.round(dets)
    assert set(np.unique(signs)) <= {-1.0, 1.0}
    err = np.abs(dets - signs)
    assert np.max(err) < 1e-7
    alam = np.sort(np.abs(eig), axis=1)
    rel_gap = np.min(np.diff(alam, axis=1) / alam[:, 1:], axis=1)
    simple = rel_gap > 1e-6
    assert simple.sum() > 0.9 * len(mats)
    assert np.max(err[simple]) < 1e-9


def test_sym3_handles_repeated_eigenvalues():
    mats = np.array([np.eye(3), np.diag([2.0, 2.0, -1.0])])
    eig = np.sort(sym3_eigvals_batch(mats), axis=1)
    assert np.allclose(eig[0], [1.0, 1.0, 1.0], atol=1e-13)
    assert np.allclose(eig[1], [-1.0, 2.0, 2.0], atol=1e-13)


@pytest.mark.parametrize("big", (4.0, 5.0, 8.0))
def test_sym3_polish_keeps_a_near_tied_small_pair(big):
    """k diag(e^L, e^(-L/2 + g/2), e^(-L/2 - g/2)) k^T, g log-uniform in
    [1e-6, 0.1]: the closed form misses the small pair by far more than
    their gap, so a Newton step can cross to the other root or past
    zero.  The polish changes no sign and worsens no log|eigenvalue|."""
    rng = np.random.default_rng(int(big))
    n = 20_000
    gap = np.exp(rng.uniform(np.log(1e-6), np.log(0.1), n))
    lam = np.stack([np.full(n, np.exp(big)), np.exp((gap - big) / 2), np.exp(-(gap + big) / 2)], axis=1)
    k, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    k = k * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    mats = np.einsum("nij,nj,nkj->nik", k, lam, k)
    ref = np.linalg.eigvalsh(mats)
    got = np.sort(sym3_eigvals_batch(mats), axis=1)
    raw = np.sort(_sym3_closed_form(mats), axis=1)
    assert np.array_equal(np.sign(got), np.sign(ref))

    def worst(eig):
        return np.max(np.abs(np.log(np.abs(eig)) - np.log(np.abs(ref))))

    assert worst(got) <= worst(raw)
