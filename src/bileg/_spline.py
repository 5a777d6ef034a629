"""Cubic interpolating splines in piecewise-polynomial form, in numpy alone.

A `Spline` holds knots x (strictly increasing) and coefficients c of shape
(degree + 1, ..., len(x) - 1): on [x[i], x[i+1]] its value is
sum_m c[m, ..., i] (t - x[i])^(degree - m).  c[-1] holds the knot values
and, for a cubic, c[-2] the knot slopes.  The interval axis comes last, so
the arithmetic of an evaluation runs along the points.  `cubic` builds the
not-a-knot or periodic interpolant of samples y over x.  `TensorSpline` is
the tensor product of two not-a-knot cubics, the interpolating bicubic
(FITPACK's s = 0 fit puts its knots at x[2:-2], which is not-a-knot).

The knot slopes solve a tridiagonal system.  It is solved by cyclic
reduction (Hockney, J. ACM 12(1), 1965): each level eliminates every other
unknown at once, so log2(n) vectorized halvings replace a scalar sweep.
Cyclic reduction is stable on diagonally dominant rows; the not-a-knot end
rows are not dominant, so each is first folded into its neighbour.  The
periodic system is cyclic: two solves of a dominant tridiagonal system and a
Sherman-Morrison correction give its solution.

Evaluation finds each point's interval by `searchsorted` on the interior
knots, then runs Horner's rule on the gathered coefficients.  Points
outside [x0, xn] use the end pieces; a periodic spline first wraps them
into one period.  A NaN point evaluates to NaN.
"""

import numpy as np

from .errors import ValidationError


class Spline:
    """Piecewise polynomial on knots x with coefficients c (see the module docstring)."""

    def __init__(self, x, c, periodic=False):
        self.x = x
        self.c = c
        self.periodic = periodic
        self._derivatives = {}
        # moves the point axis of an evaluation (last) to the front
        self._points_first = (c.ndim - 2,) + tuple(range(c.ndim - 2))

    def _locate(self, t):
        x = self.x
        if self.periodic:
            t = x[0] + (t - x[0]) % (x[-1] - x[0])
        return _locate(x, t)

    def __call__(self, t, nu=0):
        """Value (nu = 0) or nu-th derivative at the points t; shape t.shape + value shape."""
        if nu:
            if nu not in self._derivatives:
                self._derivatives[nu] = self.derivative(nu)
            return self._derivatives[nu](t)
        if type(t) is not np.ndarray or t.dtype != np.float64:
            t = np.asarray(t, dtype=float)
        i, u = self._locate(t if t.ndim == 1 else t.reshape(-1))
        out = horner(np.take(self.c, i, axis=-1), u)
        # the fresh result of a scalar spline already has its points first
        if self.c.ndim > 2:
            out = out.transpose(self._points_first).copy()
        return out if t.ndim == 1 else out.reshape(t.shape + self.c.shape[1:-1])

    def derivative(self, nu=1):
        """The nu-th derivative as a spline of degree lower by nu."""
        c = self.c
        for _ in range(nu):
            k = len(c) - 1
            if k == 0:
                c = np.zeros_like(c)
                break
            c = c[:-1] * np.arange(k, 0, -1).reshape((k,) + (1,) * (c.ndim - 1))
        return Spline(self.x, c, self.periodic)

    def integrate(self, a, b):
        """Integral from a to b; a periodic spline counts the whole periods between."""
        k = len(self.c)
        # antiderivative pieces, each zero at its left knot
        anti = self.c / np.arange(k, 0, -1).reshape((k,) + (1,) * (self.c.ndim - 1))
        w = np.diff(self.x)
        cum = np.cumsum(horner(anti, w) * w, axis=-1)
        cum = np.concatenate([np.zeros(cum.shape[:-1] + (1,)), cum], axis=-1)
        period = self.x[-1] - self.x[0]

        def primitive(t):
            turns = np.floor((t - self.x[0]) / period) if self.periodic else 0.0
            i, u = self._locate(np.array([float(t)]))
            within = horner(np.take(anti, i, axis=-1), u) * u
            return cum[..., i[0]] + within[..., 0] + turns * cum[..., -1]

        return primitive(b) - primitive(a)


def _locate(x, t):
    """Interval index i, with x[i] <= t < x[i+1] inside [x0, xn], and offset
    t - x[i] of each point of the flat array t."""
    i = np.searchsorted(x[1:-1], t, side="right")
    return i, t - x[i]


def horner(c, u):
    """sum_m c[m] u^(degree - m) by Horner's rule; u broadcasts against each c[m]."""
    if len(c) == 1:
        return np.broadcast_to(c[0], np.broadcast(c[0], u).shape).copy()
    out = c[0] * u
    out += c[1]
    for row in c[2:]:
        out *= u
        out += row
    return out


def _solve_tridiagonal(a, b, c, d):
    """Solve a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i (a_0 = c_{-1} = 0) by
    cyclic reduction for each row of d (K, N).  The rows must be diagonally
    dominant."""
    n = len(b)
    if n == 1:
        return d / b
    # keep the odd unknowns: fold each even neighbour into their rows
    m, nr = n // 2, (n - 1) // 2  # odd rows, and those with a right neighbour
    ae, be, ce, de = a[0::2], b[0::2], c[0::2], d[:, 0::2]
    ao, bo, co, do = a[1::2], b[1::2], c[1::2], d[:, 1::2]
    alpha = -ao / be[:m]
    gamma = -co[:nr] / be[1:nr + 1]
    a2 = alpha * ae[:m]
    b2 = bo + alpha * ce[:m]
    b2[:nr] += gamma * ae[1:nr + 1]
    c2 = np.zeros(m)
    c2[:nr] = gamma * ce[1:nr + 1]
    d2 = do + alpha * de[:, :m]
    d2[:, :nr] += gamma * de[:, 1:nr + 1]
    odd = _solve_tridiagonal(a2, b2, c2, d2)
    # back-substitute the even unknowns from their odd neighbours
    x = np.empty_like(d)
    x[:, 1::2] = odd
    padded = np.zeros((len(d), m + 2))
    padded[:, 1:-1] = odd
    ne = len(be)
    x[:, 0::2] = (de - ae * padded[:, :ne] - ce * padded[:, 1:ne + 1]) / be
    return x


def _checked(x, y, periodic=False):
    """x and y as float arrays, and the spacings of x, or ValidationError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValidationError(f"knots must be a 1-d array of at least 2 values, got shape {x.shape}")
    if y.shape[:1] != x.shape:
        raise ValidationError(f"values must have {len(x)} rows, got shape {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("knots and values must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0.0):
        raise ValidationError("knots must be strictly increasing")
    if periodic and not np.allclose(y[0], y[-1], rtol=1e-15, atol=1e-15):
        raise ValidationError("periodic values must repeat the first sample at the end")
    return x, y, dx


def cubic(x, y, periodic=False):
    """Not-a-knot (or periodic) cubic spline interpolating y over the knots x.

    x is a strictly increasing finite 1-d array of at least 2 knots and y has
    shape (len(x), ...).  Two knots give the line and three the parabola
    through the samples, as the not-a-knot conditions coincide there.  A
    periodic y must repeat its first sample at the end.
    """
    x, y, dx = _checked(x, y, periodic)
    n = len(x)
    flat = np.ascontiguousarray(y.reshape(n, -1).T)  # (K, n): one row per value component
    c = _hermite(dx, flat, _slopes(x, dx, flat, periodic))
    return Spline(x, c.reshape((4,) + y.shape[1:] + (n - 1,)), periodic)


def _slopes(x, dx, flat, periodic):
    """Knot slopes (K, n) of the spline through the rows of flat (K, n)."""
    n = len(x)
    slope = np.diff(flat, axis=1) / dx
    if n == 2:
        return np.hstack([slope, slope])
    if n == 3 and periodic:
        return np.repeat((slope / dx).sum(axis=1, keepdims=True) / (1.0 / dx).sum(), 3, axis=1)
    if n == 3:
        mid = (dx[1] * slope[:, 0] + dx[0] * slope[:, 1]) / (dx[0] + dx[1])
        return np.stack([2.0 * slope[:, 0] - mid, mid, 2.0 * slope[:, 1] - mid], axis=1)
    if periodic:
        return _periodic_slopes(dx, slope)
    return _not_a_knot_slopes(x, dx, slope)


def _hermite(dx, flat, s):
    """Coefficients (4, K, n-1) of the cubic pieces with knot values flat (K, n)
    and knot slopes s (K, n)."""
    slope = np.diff(flat, axis=1) / dx
    t = (s[:, :-1] + s[:, 1:] - 2.0 * slope) / dx
    c = np.empty((4,) + slope.shape)
    c[0] = t / dx
    c[1] = (slope - s[:, :-1]) / dx - t
    c[2] = s[:, :-1]
    c[3] = flat[:, :-1]
    return c


def _interior_rows(dx, slope):
    """Rows dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1} = r_i of
    the knots 1 .. n-2, as (lower, diagonal, upper, rhs)."""
    lower, upper = dx[1:], dx[:-1]
    rhs = 3.0 * (lower * slope[:, :-1] + upper * slope[:, 1:])
    return lower.copy(), 2.0 * (lower + upper), upper.copy(), rhs


def _not_a_knot_slopes(x, dx, slope):
    lower, diag, upper, rhs = _interior_rows(dx, slope)
    # the end rows dx_1 s_0 + d0 s_1 = r0 with d0 = x_2 - x_0 (and their
    # mirror at the far end), substituted into rows 1 and n-2, leave
    # (2 (dx_0 + dx_1) - d0) s_1 + dx_0 s_2 = r_1 - r0, which is dominant
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    r0 = ((dx[0] + 2.0 * d0) * dx[1] * slope[:, 0] + dx[0] ** 2 * slope[:, 1]) / d0
    r1 = (dx[-1] ** 2 * slope[:, -2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[:, -1]) / d1
    diag[0] -= d0
    rhs[:, 0] -= r0
    diag[-1] -= d1
    rhs[:, -1] -= r1
    lower[0] = 0.0
    upper[-1] = 0.0
    inner = _solve_tridiagonal(lower, diag, upper, rhs)
    first = (r0 - d0 * inner[:, 0]) / dx[1]
    last = (r1 - d1 * inner[:, -1]) / dx[-2]
    return np.column_stack([first, inner, last])


def _periodic_slopes(dx, slope):
    # n - 1 unknowns s_0 .. s_{n-2} on a cycle; row i couples s_{i-1}, s_i and
    # s_{i+1}, with the spacings and slopes taken cyclically
    lower, diag, upper, rhs = _interior_rows(np.concatenate([dx[-1:], dx]),
                                             np.hstack([slope[:, -1:], slope]))
    corner_low, corner_up = upper[-1], lower[0]  # A[m-1, 0] and A[0, m-1]
    # A = T + u v^T with u = (g, 0, .., 0, corner_low), v = (1, 0, .., 0, corner_up / g)
    g = -diag[0]
    diag[0] -= g
    diag[-1] -= corner_low * corner_up / g
    lower[0] = 0.0
    upper[-1] = 0.0
    u = np.zeros((1, len(diag)))
    u[0, 0], u[0, -1] = g, corner_low
    both = _solve_tridiagonal(lower, diag, upper, np.vstack([rhs, u]))
    y, z = both[:-1], both[-1]
    vy = y[:, 0] + corner_up / g * y[:, -1]
    vz = z[0] + corner_up / g * z[-1]
    s = y - np.multiply.outer(vy / (1.0 + vz), z)
    return np.hstack([s, s[:, :1]])


class TensorSpline:
    """Bicubic interpolant of z (nx, ny) over the grid x by y: not-a-knot in each axis.

    The x-splines of z are cubic Hermite pieces between the values and the
    x-slopes at the nodes.  Fitting is linear, so the y-splines of those
    values and slopes give every coefficient of the tensor product.
    """

    def __init__(self, x, y, z):
        x, z, dx = _checked(x, z)
        nx = len(x)
        zt = np.ascontiguousarray(z.T)  # (ny, nx): one x-row per y node
        along_y = cubic(y, np.hstack([zt, _slopes(x, dx, zt, False)]))  # c: (4, 2 nx, ny-1)

        def x_rows(part):  # (4 in y, ny-1 intervals) x-rows of nx nodes each
            return np.moveaxis(part, 1, -1).reshape(-1, nx)

        c = _hermite(dx, x_rows(along_y.c[:, :nx]), x_rows(along_y.c[:, nx:]))
        # (power in x, power in y, cell), cell = y interval * (nx - 1) + x interval
        self._c = c.reshape(4, 4, -1)
        self._x, self._y = x, along_y.x

    def ev(self, xi, yi):
        """Values at the points (xi, yi), broadcast together."""
        xi, yi = np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(yi, dtype=float))
        ix, ux = _locate(self._x, xi.reshape(-1))
        iy, uy = _locate(self._y, yi.reshape(-1))
        c = np.take(self._c, iy * (len(self._x) - 1) + ix, axis=-1)
        # the x cubic gives each point's coefficients of its y cubic
        return horner(horner(c, ux), uy).reshape(xi.shape)
