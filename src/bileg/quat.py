"""Quaternion arithmetic on float arrays of shape (..., 4).

Components are ordered (1, i, j, k) with the Euclidean convention
i*j = k, i*i = j*j = k*k = -1.  All functions broadcast over leading axes,
so a single sample and a whole grid of quaternions go through the same code.
Points of the 2-sphere are unit imaginary quaternions; ``to_vec3``/``from_vec3``
convert between the (...,4) and (...,3) pictures.  ``_mul_planes`` takes the
product on component planes (4, ...), where each component is contiguous, in
the order of ``mul`` and with the same bits.
"""

import numpy as np

from ._fd import _components

ONE = np.array([1.0, 0.0, 0.0, 0.0])
QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
QK = np.array([0.0, 0.0, 0.0, 1.0])


def mul(p, q):
    """Quaternion product p*q, broadcasting over leading axes.

    Each component is summed left to right, as w = pw qw - px qx - py qy - pz qz
    reads, in a contiguous scratch array and then copied into the output:
    two scratch arrays in place of a temporary per product and term.  Two
    single quaternions are multiplied on Python floats, in the same order.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pc, qc = _components(p), _components(q)
    if p.ndim == q.ndim == 1:
        pw, px, py, pz = pc
        qw, qx, qy, qz = qc
        return np.array([pw * qw - px * qx - py * qy - pz * qz,
                         pw * qx + px * qw + py * qz - pz * qy,
                         pw * qy + py * qw + pz * qx - px * qz,
                         pw * qz + pz * qw + px * qy - py * qx])
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    acc, term = np.empty(out.shape[:-1]), np.empty(out.shape[:-1])
    for k in range(4):
        out[..., k] = _component(k, pc, qc, acc, term)
    return out


def _mul_planes(p, q):
    """Quaternion product p*q of quaternions held as component planes.

    p and q have shape (4, ...), component first, and broadcast over the
    rest; a single quaternion is a (4, 1) column.  Each row of the result is
    summed in place by the steps and in the order of `mul`, so the two give
    the same bits; on planes no component is strided and nothing is copied.
    """
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    term = np.empty(out.shape[1:])
    for k in range(4):
        _component(k, p, q, out[k], term)
    return out


# component k of p*q is ((p[a] q[b] op p[c] q[d]) op p[e] q[f]) - p[g] q[h]
_PRODUCT = ((np.subtract, 0, 0, 1, 1, 2, 2, 3, 3),
            (np.add, 0, 1, 1, 0, 2, 3, 3, 2),
            (np.add, 0, 2, 2, 0, 3, 1, 1, 3),
            (np.add, 0, 3, 3, 0, 1, 2, 2, 1))


def _component(k, p, q, acc, term):
    """Component k of p*q from the components p[0..3] and q[0..3], formed in acc."""
    op, a, b, c, d, e, f, g, h = _PRODUCT[k]
    return _terms(acc, term, op, p[a], q[b], p[c], q[d], p[e], q[f], p[g], q[h])


def _terms(acc, term, op, a0, b0, a1, b1, a2, b2, a3, b3):
    """((a0 b0 op a1 b1) op a2 b2) - a3 b3, formed in acc with term as scratch."""
    np.multiply(a0, b0, out=acc)
    op(acc, np.multiply(a1, b1, out=term), out=acc)
    op(acc, np.multiply(a2, b2, out=term), out=acc)
    return np.subtract(acc, np.multiply(a3, b3, out=term), out=acc)


def conj(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def dot(p, q):
    """Euclidean inner product b(p, q) of the coefficient 4-vectors.

    The four products are summed in order, in place: about a quarter of the
    cost of a sum over a trailing axis of length 4 and, unlike an einsum,
    bit-identical to np.sum(p * q, axis=-1) up to the sign of an exact zero.
    Two single 4-vectors are summed on Python floats, in the same order.
    """
    p0, p1, p2, p3 = _components(p)
    q0, q1, q2, q3 = _components(q)
    if type(p0) is float and type(q0) is float:
        return np.float64(p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3)
    out = np.multiply(p0, q0)
    term = np.empty_like(out)
    out += np.multiply(p1, q1, out=term)
    out += np.multiply(p2, q2, out=term)
    out += np.multiply(p3, q3, out=term)
    return out


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
