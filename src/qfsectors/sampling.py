"""Seeded samplers on counter-based RNG streams.

All stochastic code in the package draws from numpy Philox generators
derived here, so any (seed, label...) pair names a reproducible stream
that is independent of evaluation order and of other streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    data = str(part).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the stream named by (seed, labels).

    Distinct label tuples give statistically independent Philox streams;
    the same tuple always gives the same stream.
    """
    x = _splitmix64(int(seed) & _MASK64)
    for part in labels:
        x = _splitmix64(x ^ _key_part(part))
    key = np.array([x, _splitmix64(x)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def seeded_rng(seed, *labels) -> np.random.Generator:
    """The stream (seed, labels) of derive_rng for an integer seed,
    numpy's included; a Generator is its own stream, and any other seed,
    None and bools included, raises."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        raise ValueError("sampling needs a seed, an integer or a numpy Generator")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer or a numpy Generator, not {seed!r}")
    return derive_rng(int(seed), *labels)


def random_rotation(rng: np.random.Generator, d: int, size: int | None = None) -> np.ndarray:
    """Haar-uniform element of SO(d) via sign-fixed QR.

    With size=n, an (n, d, d) stack from one draw and one stacked QR; it
    equals n single calls bit for bit and leaves rng in the same state.
    """
    q = haar_frames(rng.standard_normal((1 if size is None else size, d, d)))
    return q[0] if size is None else q


def haar_frames(normals: np.ndarray) -> np.ndarray:
    """Sign-fixed QR frames in SO(d) of an (n, d, d) stack of standard
    normals: one stacked QR and det, each row's bits independent of the
    rest of the stack."""
    q, r = np.linalg.qr(normals)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, -1] = -q[flip, :, -1]
    return q


def random_indefinite_orthogonal(
    rng: np.random.Generator, p: int, q: int, scale: float = 0.5
) -> np.ndarray:
    """Element of SO(p, q) near the identity, exp of a random algebra element.

    The Lie algebra condition Xt J + J X = 0 with J = diag(I_p, -I_q)
    forces X = [[A, B], [B.T, D]] with A, D skew.  scale sets the
    Frobenius norm of X.
    """
    from scipy.linalg import expm

    d = p + q
    a = rng.standard_normal((p, p))
    dd = rng.standard_normal((q, q))
    b = rng.standard_normal((p, q))
    x = np.zeros((d, d))
    x[:p, :p] = (a - a.T) / 2
    x[p:, p:] = (dd - dd.T) / 2
    x[:p, p:] = b
    x[p:, :p] = b.T
    nrm = np.linalg.norm(x)
    if nrm > 0:
        x *= scale / nrm
    return expm(x)


def random_traceless(rng: np.random.Generator, d: int) -> np.ndarray:
    """Gaussian element of sl_d (isotropic in the Frobenius metric)."""
    x = rng.standard_normal((d, d))
    x -= np.trace(x) / d * np.eye(d)
    return x


def random_special_linear(rng: np.random.Generator, d: int) -> np.ndarray:
    """Gaussian matrix renormalized to determinant one."""
    while True:
        g = rng.standard_normal((d, d))
        det = np.linalg.det(g)
        if abs(det) > 1e-8:
            break
    if det < 0:
        if d % 2 == 1:
            return g / (-((-det) ** (1.0 / d)))
        g[0] = -g[0]  # scalar rescaling cannot fix the sign when d is even
        det = -det
    return g / det ** (1.0 / d)
