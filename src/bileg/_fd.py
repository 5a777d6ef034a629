"""Shared uniform-grid helpers: axes, finite differences, running products."""

import numpy as np

from .errors import ValidationError


def axis_array(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(f"{name} must be a 1-d array with at least 2 entries")
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
