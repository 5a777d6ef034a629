"""Reference arithmetic for the benchmark's correctness checks.

Everything here is written independently of the package under test: the
quaternion product comes from a structure-constant table rather than an
expanded formula, sphere areas come from closed forms or a different
triangulation, and the Clifford algebras use their own multiplication
matrices.  The checks compare the program's outputs against these.
"""

import math

import numpy as np


class CheckFailed(Exception):
    """An op returned, but its output disagrees with the reference."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# quaternions ---------------------------------------------------------------

def _structure_constants(s1=1, s2=1):
    """C[i, j, k] with (e_i e_j) = sum_k C[i, j, k] e_k, basis (1, i, j, k).

    i^2 = -s1, j^2 = -s2, ij = k = -ji; (s1, s2) = (1, 1) is the quaternions.
    """
    C = np.zeros((4, 4, 4))
    # products of basis words: represent e_i as the word (i-bit, j-bit)
    words = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    index = {v: k for k, v in words.items()}
    for p in range(4):
        for q in range(4):
            a1, b1 = words[p]
            a2, b2 = words[q]
            sign = 1.0
            # move the i of the right word past the j of the left word
            if b1 and a2:
                sign = -sign
            if a1 and a2:
                sign *= -s1
            if b1 and b2:
                sign *= -s2
            C[p, q, index[((a1 + a2) % 2, (b1 + b2) % 2)]] = sign
    return C


QC = _structure_constants()


def qmul(p, q):
    return np.einsum("...i,...j,ijk->...k", p, q, QC)


def qconj(q):
    q = np.array(q, dtype=float, copy=True)
    q[..., 1:] *= -1.0
    return q


def exp_axis(t, w):
    """exp(t w) for a unit 3-vector w, broadcasting over t."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (4,))
    out[..., 0] = np.cos(t)
    out[..., 1:] = np.sin(t)[..., None] * np.asarray(w, dtype=float)
    return out


def exp_axis_velocity(t, w):
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (4,))
    out[..., 0] = -np.sin(t)
    out[..., 1:] = np.cos(t)[..., None] * np.asarray(w, dtype=float)
    return out


def hopf_left(g, axis3):
    """ad(g) axis as a 3-vector."""
    xi = np.concatenate([[0.0], axis3])
    return qmul(qmul(g, xi), qconj(g))[..., 1:]


def product_grid(a, b, G1, G2):
    """X[i, j] = G2[j] a G1[i] and Y likewise with b."""
    aG1 = qmul(a, G1)
    bG1 = qmul(b, G1)
    X = qmul(G2[None, :, :], aG1[:, None, :])
    Y = qmul(G2[None, :, :], bG1[:, None, :])
    return X, Y


def random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def perpendicular_unit(rng, line):
    line = np.asarray(line, dtype=float)
    line = line / np.linalg.norm(line)
    while True:
        v = rng.standard_normal(len(line))
        v -= np.dot(v, line) * line
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def orthonormal_pair(rng):
    """Random orthonormal quaternions (a, b)."""
    a = random_unit(rng, 4)
    b = rng.standard_normal(4)
    b -= np.dot(a, b) * a
    return a, b / np.linalg.norm(b)


def factor_axes(rng, a, b):
    """Axes of exp-circle factors horizontal for the pair (a, b).

    gamma1 = exp(t w1) is right horizontal for conj(a) b when w1 is
    orthogonal to vec(conj(a) b); gamma2 likewise for vec(b conj(a)).
    """
    ax1 = qmul(qconj(a), b)[1:]
    ax2 = qmul(b, qconj(a))[1:]
    return perpendicular_unit(rng, ax1), perpendicular_unit(rng, ax2)


# sphere areas --------------------------------------------------------------

def sphere_frame(axis):
    """(e1, e2) completing the unit axis to a right-handed frame."""
    axis = np.asarray(axis, dtype=float)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = ref - np.dot(ref, axis) * axis
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(axis, e1)


def colatitude_graph(axis, phi, t):
    """Points at colatitude phi(t) and azimuth -t about the axis (clockwise)."""
    e1, e2 = sphere_frame(axis)
    plane = np.cos(t)[:, None] * e1 - np.sin(t)[:, None] * e2
    return np.cos(phi)[:, None] * axis + np.sin(phi)[:, None] * plane


def cap_area_of_graph(phi_fn, n=1 << 14):
    """Area swept on the axis side by a colatitude graph over one turn.

    The integrand 1 - cos(phi(t)) is smooth and periodic, so the periodic
    trapezoid rule converges spectrally.
    """
    t = np.arange(n) * (2.0 * math.pi / n)
    return float(np.sum(1.0 - np.cos(phi_fn(t))) * (2.0 * math.pi / n))


def geodesic_polygon_area(points, pole):
    """Area of a closed sampled loop, fanned from the given interior pole.

    Each triangle (pole, p_i, p_{i+1}) contributes its signed excess by the
    van Oosterom-Strackee formula; the pole differs from the program's fan
    origin, so the two sums share no rounding pattern.
    """
    p = np.asarray(points, dtype=float)
    a, b = p[:-1], p[1:]
    c = np.broadcast_to(np.asarray(pole, dtype=float), a.shape)
    num = np.einsum("ij,ij->i", c, np.cross(a, b))
    den = (1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c)
           + np.einsum("ij,ij->i", c, a))
    return float(-np.sum(2.0 * np.arctan2(num, den)))


def q_from_area(area, side):
    sign = 1.0 if side == "left" else -1.0
    return (-sign * area / (4.0 * math.pi)) % 1.0


def mod1_gap(x, y):
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


# Clifford algebras of plane forms -----------------------------------------

def clifford_tables(s1, s2):
    """Structure constants, g and ghat matrices for the signature (s1, s2)."""
    C = _structure_constants(s1, s2)
    g = np.diag([1.0, s1, s2, s1 * s2])
    ghat = np.diag([1.0, -s1, -s2, s1 * s2])
    return C, g, ghat


def left_matrix(C, x):
    """Matrix of y -> x y on coefficient vectors."""
    return np.einsum("i,ijk->kj", x, C)
