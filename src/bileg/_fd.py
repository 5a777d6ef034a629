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


# the most samples, steps or grid nodes a call may ask for, checked before any is allocated
MAX_COUNT = 1 << 20
# int and float scalars, Python's and numpy's; a bool is an int and is refused apart
_REALS = (int, float, np.integer, np.floating)


def number(value, name):
    """float(value) for an int or float scalar, Python's or numpy's, NaN and
    infinities included; ValidationError for anything else."""
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


def finite(value, name, low=None, high=math.inf):
    """float(value) for a finite int or float scalar, Python's or numpy's, in
    (low, high] when low is given; ValidationError for anything else."""
    if type(value) is not float:
        value = number(value, name)
    if low is None:
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
    elif not (low < value <= high and value < math.inf):
        need = "be finite and positive" if (low, high) == (0, math.inf) else f"lie in ({low}, {high}]"
        raise ValidationError(f"{name} must {need}, got {value!r}")
    return value


def count(value, name, low, high=MAX_COUNT):
    """int(value) for a whole number in [low, high], an int or a float scalar as
    `finite` takes them; ValidationError otherwise."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, _REALS)
                                   or not finite(value, name).is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise ValidationError(f"{name} must be at most {high}, got {value}")
    return int(value)


def norm_and_unit(v):
    """(|v|, v / |v|) of a finite nonzero vector, (0.0, v) of a zero one.

    A vector whose largest component lies outside (1e-150, 1e150) is first
    divided by that component, so |v|^2 neither overflows nor underflows.
    """
    v = np.asarray(v, dtype=float)
    size = float(np.abs(v).max())
    if size == 0.0:
        return 0.0, v
    if 1e-150 < size < 1e150:
        n = float(np.linalg.norm(v))
        return n, v / n
    w = v / size
    n = float(np.linalg.norm(w))
    return size * n, w / n


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
    """4th-order first derivative along the given axis of a uniform grid.

    The interior stencil (F[i-2] - 8 F[i-1] + 8 F[i+1] - F[i+2]) / (12 h) is
    summed left to right by in-place ufuncs with one scratch array; the
    result is a new array laid out as F."""
    F = np.asarray(F, dtype=float)
    if F.shape[axis] < 5:
        raise ValidationError("need at least 5 samples along each axis for derivatives")
    out = np.empty_like(F)
    F, d = np.moveaxis(F, axis, 0), np.moveaxis(out, axis, 0)
    # along axis 0 the interior is one contiguous run of out and is summed in
    # place; along another axis in-place ufuncs on its strided interior ran
    # slower than on a scratch laid out as F, copied in once
    inner = d[2:-2] if axis == 0 else np.empty_like(d[2:-2])
    np.subtract(F[:-4], np.multiply(8.0, F[1:-3], out=inner), out=inner)
    inner += np.multiply(8.0, F[3:-1])
    inner -= F[4:]
    inner /= 12.0 * h
    if axis != 0:
        d[2:-2] = inner
    d[0] = (-25.0 * F[0] + 48.0 * F[1] - 36.0 * F[2] + 16.0 * F[3] - 3.0 * F[4]) / (12.0 * h)
    d[1] = (-3.0 * F[0] - 10.0 * F[1] + 18.0 * F[2] - 6.0 * F[3] + F[4]) / (12.0 * h)
    d[-1] = (25.0 * F[-1] - 48.0 * F[-2] + 36.0 * F[-3] - 16.0 * F[-4] + 3.0 * F[-5]) / (12.0 * h)
    d[-2] = (3.0 * F[-1] + 10.0 * F[-2] - 18.0 * F[-3] + 6.0 * F[-4] - F[-5]) / (12.0 * h)
    return out


def stencil_rows(rows, n):
    """The rows of an n-row grid that d_uniform along axis 0 reads for the slice
    `rows`: two on either side, and rows 0-4 or n-5 ... n-1 where `rows` holds a
    one-sided edge row.  d_uniform over just these rows gives, on `rows`, the
    whole grid's values bit for bit: every row there keeps its stencil."""
    lo, hi = max(rows.start - 2, 0), min(rows.stop + 2, n)
    if rows.start < 2:
        hi = max(hi, min(5, n))
    if rows.stop > n - 2:
        lo = min(lo, max(n - 5, 0))
    return slice(lo, hi)


def prefix_products(steps, combine, axis=0):
    """Running products of a sequence of steps in log2(n) batched passes.

    The steps run along `axis`; combine(earlier, later) composes two stacks
    of steps and must be associative; entry k of the result is the
    composition of steps 0..k (a Hillis-Steele inclusive scan).
    """
    out = np.array(steps, dtype=float)
    lead = (slice(None),) * (axis % out.ndim)
    k = 1
    while k < out.shape[axis]:
        later = lead + (slice(k, None),)
        out[later] = combine(out[lead + (slice(None, -k),)], out[later])
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
    out = np.empty(np.broadcast_shapes(np.shape(m01), np.shape(c0)) + (4,))
    out[..., 0] = m13 * c2 - m12 * c3 - m23 * c1
    out[..., 1] = m02 * c3 - m03 * c2 + m23 * c0
    out[..., 2] = m03 * c1 - m01 * c3 - m13 * c0
    out[..., 3] = m01 * c2 - m02 * c1 + m12 * c0
    return out
