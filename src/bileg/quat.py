"""Quaternion arithmetic on float arrays of shape (..., 4).

Components are ordered (1, i, j, k) with the Euclidean convention
i*j = k, i*i = j*j = k*k = -1.  All functions broadcast over leading axes,
so a single sample and a whole grid of quaternions go through the same code.
Points of the 2-sphere are unit imaginary quaternions; ``to_vec3``/``from_vec3``
convert between the (...,4) and (...,3) pictures.
"""

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
QK = np.array([0.0, 0.0, 0.0, 1.0])


def mul(p, q):
    """Quaternion product p*q, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy + py * qw + pz * qx - px * qz,
            pw * qz + pz * qw + px * qy - py * qx,
        ],
        axis=-1,
    )


def conj(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def dot(p, q):
    """Euclidean inner product b(p, q) of the coefficient 4-vectors.

    The four products are summed in order: about a quarter of the cost of a
    sum over a trailing axis of length 4 and, unlike an einsum, bit-identical
    to np.sum(p * q, axis=-1) up to the sign of an exact zero.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    return (p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1]
            + p[..., 2] * q[..., 2] + p[..., 3] * q[..., 3])


def norm(q):
    return np.sqrt(dot(q, q))


def normalize(q):
    return np.asarray(q, dtype=float) / norm(q)[..., None]


def inv(q):
    """Inverse q^-1 = conj(q)/|q|^2 (conj(q) for unit quaternions)."""
    q = np.asarray(q, dtype=float)
    return conj(q) / dot(q, q)[..., None]


def quarter_turn(x, y, z):
    """Quarter turn y * conj(x) * z of the plane b-orthogonal to the orthonormal pair (x, y)."""
    return mul(y, mul(conj(x), z))


def ad(g, x):
    """Conjugation g*x*g^-1 by a unit quaternion g."""
    return mul(mul(g, x), conj(g))


def exp_im(v):
    """Exponential of an imaginary quaternion (...,4); real parts must vanish."""
    v = np.asarray(v, dtype=float)
    theta = np.sqrt(np.sum(v[..., 1:] ** 2, axis=-1))
    out = np.empty_like(v)
    out[..., 0] = np.cos(theta)
    # sinc(theta/pi) = sin(theta)/theta, exact at theta = 0
    out[..., 1:] = v[..., 1:] * np.sinc(theta / np.pi)[..., None]
    return out


def to_vec3(q):
    """Imaginary part as a 3-vector."""
    return np.asarray(q, dtype=float)[..., 1:]


def from_vec3(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (4,), dtype=float)
    out[..., 1:] = v
    return out
