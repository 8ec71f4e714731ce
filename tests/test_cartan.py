"""Factorization round trips, invariances, and guard rails."""

import dataclasses
import hashlib
import itertools
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfsectors.cartan import (
    AMBIGUITY_TOL,
    kah_decompose,
    reconstruct,
    regularity,
    signature_matrix,
    weyl_matrix,
)
from qfsectors.jacobi import MAX_SWEEPS, TOL, rotation_for, slot_order
from qfsectors.sampling import (
    derive_rng,
    random_indefinite_orthogonal,
    random_rotation,
    random_special_linear,
)

U = np.finfo(float).eps / 2.0  # unit roundoff


def well_conditioned_sl(rng, d, cond_cap=50.0):
    while True:
        g = random_special_linear(rng, d)
        sv = np.linalg.svd(g, compute_uv=False)
        if sv[0] <= cond_cap * sv[-1] and np.linalg.det(g) > 0:
            return g


@pytest.mark.parametrize("signature", [(2, 1), (1, 2), (1, 1), (3, 1), (2, 2)])
def test_round_trip_random(signature):
    rng = derive_rng(3, "cartan-roundtrip", signature)
    d = sum(signature)
    for _ in range(50):
        g = well_conditioned_sl(rng, d)
        fac = kah_decompose(g, signature)
        fac.validate()
        err = np.linalg.norm(reconstruct(fac) - g) / max(1.0, np.linalg.norm(g))
        assert err < 1e-10
        assert abs(np.prod(fac.a) - 1.0) < 1e-9
        assert np.all(fac.margins >= -1e-10)
        assert sorted(fac.w) == sorted((1,) * signature[0] + (-1,) * signature[1])


def array_jacobi(g, signature):
    """The one-sided Jacobi loop on a 2-D array of rows and the columns
    of k, with the row-norm floor from np.linalg.norm: a reference for
    the plain-float loop in kah_decompose, which takes the same rotations
    but sums its row products in another order."""
    p, q = signature
    jdiag = np.array([1.0] * p + [-1.0] * q)
    rows = np.asarray(g, dtype=float).copy()  # C order, whatever the input's
    k = np.eye(p + q)
    eps_floor = 16.0 * np.finfo(float).eps
    for _ in range(MAX_SWEEPS):
        rotated = False
        for i in range(p + q - 1):
            for jj in range(i + 1, p + q):
                ri = rows[i] * jdiag
                app, apq = float(ri @ rows[i]), float(ri @ rows[jj])
                aqq = float((rows[jj] * jdiag) @ rows[jj])
                floor = eps_floor * float(np.linalg.norm(rows[i]) * np.linalg.norm(rows[jj]))
                if abs(apq) <= max(TOL * math.sqrt(abs(app * aqq)), floor):
                    continue
                rotated = True
                c, sn = rotation_for(app, aqq, apq)
                rows[[i, jj]] = c * rows[i] - sn * rows[jj], sn * rows[i] + c * rows[jj]
                k[:, [i, jj]] = np.stack([c * k[:, i] - sn * k[:, jj], sn * k[:, i] + c * k[:, jj]], 1)
        if not rotated:
            return rows, k
    raise ArithmeticError("jacobi iteration did not converge")


@pytest.mark.parametrize("signature", [(2, 1), (1, 2), (3, 1), (2, 2), (3, 2)])
def test_jacobi_loop_matches_the_array_reference(signature):
    """w equals, and k, a and h agree to 1e-13 relative with, the factors
    the array loop gives, on well- and ill-conditioned inputs, C- or
    Fortran-ordered.  Not bit for bit: numpy's dot products round
    differently from the plain-float sums."""
    rng = derive_rng(8, "jacobi-reference", signature)
    jdiag = np.array([1.0] * signature[0] + [-1.0] * signature[1])
    for n in range(40):
        g = well_conditioned_sl(rng, sum(signature), cond_cap=50.0 if n % 2 else 1e5)
        if n % 4 == 3:
            g = np.asfortranarray(g)
        fac = kah_decompose(g, signature)
        rows, k = array_jacobi(g, signature)
        lam = np.einsum("ij,j,ij->i", rows, jdiag, rows)
        order = sorted(range(len(lam)), key=lambda i: (-abs(lam[i]), 0 if lam[i] > 0 else 1, i))
        rows, k, lam = rows[order], k[:, order], lam[order]
        if np.linalg.det(k) < 0:
            k[:, -1], rows[-1] = -k[:, -1], -rows[-1]
        a = np.sqrt(np.abs(lam))
        w = tuple(1 if v > 0 else -1 for v in lam)
        h = weyl_matrix(w, signature).T @ (rows / a[:, None])
        assert fac.w == w
        for got, ref in ((fac.k, k), (fac.a, a), (fac.h, h)):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@st.composite
def sl_inputs(draw):
    """(g, signature, cond): g = k1 diag(s) k2 in SL_d(R) for d = 2..4 and
    any signature, with cond(g) from 10^0.5 to 10^5."""
    d = draw(st.integers(2, 4))
    p = draw(st.integers(0, d))
    log_cond = draw(st.floats(0.5, 5.0)) * math.log(10.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 1.0, d)
    x = (x - x.min()) / np.ptp(x) * log_cond
    g = random_rotation(rng, d) @ (np.exp(x - x.mean())[:, None] * random_rotation(rng, d))
    g /= np.linalg.det(g) ** (1.0 / d)
    return g, (p, d - p), float(np.linalg.cond(g))


def mp_reference(g, signature):
    """log a, w and the tie flag from the eigenvalues of g J g^T, the
    float g taken exactly and everything after it at 50 digits."""
    p, q = signature
    with mpmath.workdps(50):
        gm = mpmath.matrix(g.tolist())
        lam, _ = mpmath.eigsy(gm * mpmath.diag([1] * p + [-1] * q) * gm.T)
        lam = [lam[i] for i in range(p + q)]
        order = slot_order(lam)
        logs = [mpmath.log(abs(lam[i])) / 2 for i in order]
        tie = any(2 * (x - y) <= AMBIGUITY_TOL for x, y in zip(logs, logs[1:]))
        return [float(x) for x in logs], tuple(1 if lam[i] > 0 else -1 for i in order), tie


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=sl_inputs())
def test_kah_decompose_matches_a_50_digit_reference(case):
    """log a within 1e-13 + 4 u cond(g) of the 50-digit eigenvalues of
    g J g^T, the same tie flag, the same w unless tied, and g back to
    1e-12.  The cond(g) term is the backward-stability floor: a flat
    1e-13 fails for the numpy-array form of the loop as well, whose
    error reaches 2e-12 near cond(g) = 1e5."""
    g, signature, cond = case
    fac = kah_decompose(g, signature)
    logs, w, tie = mp_reference(g, signature)
    assert np.abs(np.log(fac.a) - logs).max() <= 1e-13 + 4.0 * U * cond
    assert fac.tie == tie
    if not tie:  # under a tie, w follows the tie-break and is not stable
        assert fac.w == w
    assert np.linalg.norm(reconstruct(fac) - g) <= 1e-12 * np.linalg.norm(g)


def test_riemannian_signature_gives_orthogonal_h():
    rng = derive_rng(4, "cartan-riemannian")
    g = well_conditioned_sl(rng, 3)
    fac = kah_decompose(g, (3, 0))
    assert fac.w == (1, 1, 1)
    assert np.linalg.norm(fac.h @ fac.h.T - np.eye(3)) < 1e-8


def test_left_k_and_right_h_invariance():
    rng = derive_rng(5, "cartan-invariance")
    g = well_conditioned_sl(rng, 3)
    base = kah_decompose(g, (2, 1))
    k0 = random_rotation(rng, 3)
    shifted = kah_decompose(k0 @ g, (2, 1))
    assert shifted.w == base.w
    assert np.allclose(shifted.a, base.a, rtol=1e-10)
    h0 = random_indefinite_orthogonal(rng, 2, 1, scale=0.3)
    shifted = kah_decompose(g @ h0, (2, 1))
    assert shifted.w == base.w
    assert np.allclose(shifted.a, base.a, rtol=1e-9)


def test_identity_is_fully_tied():
    fac = kah_decompose(np.eye(3), (2, 1))
    assert fac.tie
    assert np.allclose(fac.a, 1.0)
    assert np.linalg.norm(reconstruct(fac) - np.eye(3)) < 1e-12


def test_tie_flag_on_equal_singular_values():
    fac = kah_decompose(np.diag([2.0, 2.0, 0.25]), (2, 1))
    assert fac.tie
    fac = kah_decompose(np.diag([4.0, 1.0, 0.25]), (2, 1))
    assert not fac.tie
    # slots sorted by |eigenvalue| of g J g^T, which here is (16, 1, -1/16)
    assert fac.w == (1, 1, -1)
    assert np.allclose(fac.a, [4.0, 1.0, 0.25], atol=1e-10)


def test_input_guards():
    with pytest.raises(ValueError):
        kah_decompose(np.diag([2.0, 1.0, 1.0]), (2, 1))  # det 2
    with pytest.raises(ValueError):
        kah_decompose(np.eye(3), (2, 2))  # shape mismatch
    with pytest.raises(ValueError):
        kah_decompose(np.diag([1e4, 1e-4, 1.0]), (2, 1))  # condition 1e8


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_a_value_error(value):
    """NaN used to pass the det test (abs(nan - 1) > tol is False) and
    fail in the SVD; now any non-finite entry is rejected before numpy
    sees it, without a RuntimeWarning."""
    one = np.eye(3)
    one[1, 2] = value
    for g in (np.full((3, 3), value), one):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                kah_decompose(g, (2, 1))


def test_weyl_matrix_properties():
    for signature, w in [((2, 1), (1, -1, 1)), ((2, 2), (-1, 1, -1, 1)), ((1, 2), (-1, 1, -1))]:
        j = signature_matrix(*signature)
        mat = weyl_matrix(w, signature)
        assert np.allclose(mat @ j @ mat.T, np.diag(w))
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        weyl_matrix((1, 1, 1), (2, 1))


@pytest.mark.parametrize("w", [(1, 0, 1), (1, 1, -2), (1, 1, 0.5), (2, 1, 1)])
def test_weyl_matrix_rejects_entries_other_than_plus_or_minus_one(w):
    """An entry that is not +-1 raises, even where the count of +1
    entries matches the signature; it is not read as a minus sign."""
    with pytest.raises(ValueError):
        weyl_matrix(w, (2, 1))


def test_validate_catches_corruption():
    """Each of validate's seven checks fires on a corruption that breaks
    only its own invariant, and says so in its own message."""
    fac = kah_decompose(well_conditioned_sl(derive_rng(6, "v"), 3), (2, 1))
    fac.validate()
    k_flip, h_flip = fac.k.copy(), fac.h.copy()
    k_flip[:, 0] *= -1.0  # still orthogonal, det -1
    h_flip[0] *= -1.0  # still h J h^T = J, det -1
    cases = [
        ({"k": fac.k * 1.01}, "k is not orthogonal"),
        ({"k": k_flip}, "k has determinant -1"),
        ({"a": fac.a[::-1].copy()}, "closed positive chamber"),
        ({"a": fac.a * 1.1}, "product of the a entries"),
        ({"w": (1, 1, 1)}, "p pluses and q minuses"),
        ({"h": fac.h * 1.01}, "does not preserve the indefinite form"),
        ({"h": h_flip}, "h has determinant away from 1"),
    ]
    for change, message in cases:
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(fac, **change).validate()


def pythagorean_rotation(rnd, d):
    """An exact rational rotation: Givens factors with (c, s) from
    Pythagorean triples, one in each coordinate plane."""
    rot = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        m, n = rnd.randint(1, 9), rnd.randint(1, 9)
        c, s = Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)
        for row in rot:
            row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
    return rot


# r with r^(2(d-1)) near 10, 1e3 and 1e5
COND_ROOTS = {
    2: ("19/6", "253/8", "4111/13"),
    3: ("16/9", "45/8", "249/14"),
    4: ("22/15", "19/6", "109/16"),
    5: ("4/3", "19/8", "59/14"),
}


def pinned_inputs():
    """(g, signature) for d = 2..5, every signature and cond(g) near 1,
    10, 1e3 and 1e5, plus the identity and diagonal ties.  Each
    g = R1 diag(r^(d-1), r^(d-3), ..., r^(1-d)) R2 is formed in exact
    rationals and rounded once, so its bits do not depend on the
    machine's BLAS or libm."""
    rnd = random.Random(20260)
    out = []
    for d, roots in COND_ROOTS.items():
        for r in ("1",) + roots:
            for p in range(d + 1):
                r1, r2 = pythagorean_rotation(rnd, d), pythagorean_rotation(rnd, d)
                diag = [Fraction(r) ** (d - 1 - 2 * i) for i in range(d)]
                g = [[float(sum(r1[i][m] * diag[m] * r2[m][j] for m in range(d)))
                      for j in range(d)] for i in range(d)]
                out.append((np.array(g), (p, d - p)))
        out += [(np.eye(d), (p, d - p)) for p in range(d + 1)]
    out += [(np.diag([2.0, 2.0, 0.25]), (2, 1)), (np.diag([2.0, 0.5, 2.0, 0.5]), (2, 2)),
            (np.diag([4.0, 1.0, 1.0, 0.25]), (1, 3))]
    return out


def test_factors_are_pinned_bit_for_bit():
    """The bytes of k, a and h and the sign pattern w on a fixed input
    set, against a digest recorded before the factorization's per-call
    overhead was cut: that work may change no bit of a factor.  margins
    and tie come through np.log and are left out."""
    digest = hashlib.sha256()
    for g, signature in pinned_inputs():
        fac = kah_decompose(g, signature)
        for arr in (fac.k, fac.a, fac.h):
            digest.update(arr.tobytes())
        digest.update(repr(fac.w).encode())
    assert digest.hexdigest() == "fe90d7f6ddfa2a84a5f2b4f850812ed01147b2033dbccb561dae88343c30b10d"


def test_regularity_report():
    fac = kah_decompose(np.diag([4.0, 1.0, 0.25]), (2, 1))
    rep = regularity(fac, c=1.0)
    assert rep.regular  # both margins are log 4 > 1
    assert rep.subset == (1, 2)
    assert regularity(fac, c=1.5).regular is False
    sub = regularity(fac, c=1.5, subset=(1,))
    assert sub.subset == (1,) and sub.regular is False
    with pytest.raises(ValueError):
        regularity(fac, c=0.1, subset=(3,))
