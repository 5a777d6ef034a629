"""Shared uniform-grid helpers: axes, finite differences, running products."""

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
