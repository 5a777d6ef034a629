"""Shared array helpers: axes, finite differences, running products, 4x4 determinants."""

import math

import numpy as np

from .errors import ValidationError


def require_finite(name, *grids, nodes=2):
    """Raise ValidationError naming the first node at which a grid is not finite.

    The leading `nodes` axes index the nodes and any further axes hold the
    components at a node; all grids share the node axes.
    """
    ok = np.logical_and.reduce(
        [np.isfinite(g).reshape(g.shape[:nodes] + (-1,)).all(axis=-1) for g in grids])
    if not ok.all():
        bad = tuple(int(k) for k in np.argwhere(~ok)[0])
        where = f"index {bad[0]}" if nodes == 1 else f"node {bad}"
        raise ValidationError(f"{name} must be finite, first bad {where}")


def finite(value, name):
    """float(value), or ValidationError when it is NaN or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def axis_array(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(f"{name} must be a 1-d array with at least 2 entries")
    require_finite(name, arr, nodes=1)
    if np.any(np.diff(arr) <= 0.0):
        raise ValidationError(f"{name} must be strictly increasing")
    return arr


def uniform_step(x, name):
    h = float(x[1] - x[0])
    if np.abs(np.diff(x) - h).max() > 1e-9 * max(abs(h), 1.0):
        raise ValidationError(f"{name} must be uniformly spaced for finite differences")
    return h


def d_uniform(F, h, axis):
    """4th-order first derivative along the given axis of a uniform grid."""
    F = np.moveaxis(np.asarray(F, dtype=float), axis, 0)
    n = F.shape[0]
    if n < 5:
        raise ValidationError("need at least 5 samples along each axis for derivatives")
    out = np.empty_like(F)
    out[2:-2] = (F[:-4] - 8.0 * F[1:-3] + 8.0 * F[3:-1] - F[4:]) / (12.0 * h)
    out[0] = (-25.0 * F[0] + 48.0 * F[1] - 36.0 * F[2] + 16.0 * F[3] - 3.0 * F[4]) / (12.0 * h)
    out[1] = (-3.0 * F[0] - 10.0 * F[1] + 18.0 * F[2] - 6.0 * F[3] + F[4]) / (12.0 * h)
    out[-1] = (25.0 * F[-1] - 48.0 * F[-2] + 36.0 * F[-3] - 16.0 * F[-4] + 3.0 * F[-5]) / (12.0 * h)
    out[-2] = (3.0 * F[-1] + 10.0 * F[-2] - 18.0 * F[-3] + 6.0 * F[-4] - F[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def prefix_products(steps, combine):
    """Running products of a sequence of steps in log2(n) batched passes.

    combine(earlier, later) composes two stacks of steps and must be
    associative; entry k of the result is the composition of steps 0..k
    (a Hillis-Steele inclusive scan).
    """
    out = np.array(steps, dtype=float)
    k = 1
    while k < len(out):
        out[k:] = combine(out[:-k], out[k:])
        k *= 2
    return out


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _components(v):
    """The four components of a stack of 4-vectors: views of the stack, or
    Python floats for a single vector, whose arithmetic is several times
    cheaper than that of the 0-d arrays v[..., i] would be."""
    v = np.asarray(v, dtype=float)
    return v.tolist() if v.ndim == 1 else [v[..., i] for i in range(4)]


def _minors(a, b):
    """The six 2x2 minors a_i b_j - a_j b_i of two stacks of 4-vectors, i < j."""
    a, b = _components(a), _components(b)
    return [a[i] * b[j] - a[j] * b[i] for i, j in _PAIRS]


def det4(a, b, c, d):
    """Determinant of the 4x4 matrices with columns a, b, c, d, by Laplace
    expansion along the first two columns: 2x2 minors of (a, b) times the
    complementary minors of (c, d)."""
    m = _minors(a, b)
    n = _minors(c, d)
    return m[0] * n[5] - m[1] * n[4] + m[2] * n[3] + m[3] * n[2] - m[4] * n[1] + m[5] * n[0]


def cross4(a, b, c):
    """Generalized cross product: the 4-vector w with w . d = det4(a, b, c, d)
    for every d, i.e. w_l = eps_ijkl a_i b_j c_k; orthogonal to a, b and c."""
    m01, m02, m03, m12, m13, m23 = _minors(a, b)
    c0, c1, c2, c3 = _components(c)
    return np.stack([m13 * c2 - m12 * c3 - m23 * c1,
                     m02 * c3 - m03 * c2 + m23 * c0,
                     m03 * c1 - m01 * c3 - m13 * c0,
                     m01 * c2 - m02 * c1 + m12 * c0], axis=-1)
