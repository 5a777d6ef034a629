"""Round-sphere kinematics behind the horizontal-lift constructions.

S^3 is the unit quaternions, S^2 the unit imaginary quaternions.  The two
Hopf projections about an axis xi send g to ad(g) xi (left) or ad(g^-1) xi
(right); curves on S^2 are carried as sampled `SphereCurve` objects in the
(b/4)-arc-length convention.  Over such a curve c the horizontal lift is
the linear ODE g' = W g (left) or g' = g V (right) with W = -V = c x c'/2,
so `horizontal_lift` builds each classical RK4 step as one unit quaternion,
all steps at once, and chains them with a log-depth prefix product; it
holds every quaternion as contiguous component planes (4, n), multiplied by
`quat._mul_planes` in the order of `quat.mul`, and fills the (n, 4) records
once at the end.
Between its nodes a lift is the cubic Hermite spline through its samples
and their exact velocities W g or g V (de Boor, "A Practical Guide to
Splines", ch. IV).  `signed_area`, `holonomy` and the Gauss-Bonnet residual
close the loop: the rotation number of a lift over one base period is read
off the fiber circle (`_quasiperiod`, which `factory` reads lattices with),
and matches minus (left) or plus (right) the enclosed area over 4 pi.

Every curve is read through its cubic spline (`_spline`: knot slopes by
cyclic reduction, Hockney 1965).  `reparametrize` and `gauss_bonnet_check`
read arc length from one table over that spline (`_ArcLength`).  On each
spline interval |c'|^2 is one quartic, its five coefficients formed once
from the velocity coefficients, and a speed is one Horner evaluation and a
square root, the quartic clamped at 0 first so that a stationary segment
reads speed 0 and is refused.  The length of each interval comes from
5-point Gauss-Legendre quadrature on that interval, where the speed is
smooth (Guenter and Parent, IEEE CG&A 10(3), 1990), and s(t) is inverted by
two Newton rounds inside the interval that holds each target length: from
the linear first guess, one round already lands within 4e-14 of four
rounds on the curves of perfbench's holonomy ops, and two within 2.2e-16,
as close as three.

Quaternions are float arrays [w, x, y, z]; sphere points are the imaginary
triples [x, y, z].  Both match the coefficient order of `CliffordElement`
in the definite signature.
"""

import math
from dataclasses import dataclass

import numpy as np
from . import _spline, quat
from ._fd import MAX_COUNT
from ._fd import count as _count
from ._fd import finite as _finite
from ._fd import norm_and_unit as _norm_and_unit
from ._fd import prefix_products as _prefix_products
from ._fd import require_finite as _require_finite
from .errors import PreconditionError, ValidationError

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

SIDES = ("left", "right")

# 5-point Gauss-Legendre rule on [0, 1]
_GL_ROOT = math.sqrt(10.0 / 7.0)
_GL_NODES = 0.5 + 0.5 * np.array([-math.sqrt(5.0 + 2.0 * _GL_ROOT) / 3.0,
                                  -math.sqrt(5.0 - 2.0 * _GL_ROOT) / 3.0, 0.0,
                                  math.sqrt(5.0 - 2.0 * _GL_ROOT) / 3.0,
                                  math.sqrt(5.0 + 2.0 * _GL_ROOT) / 3.0])
_GL_WEIGHTS = 0.5 * np.array([322.0 - 13.0 * math.sqrt(70.0), 322.0 + 13.0 * math.sqrt(70.0),
                              512.0, 322.0 + 13.0 * math.sqrt(70.0),
                              322.0 - 13.0 * math.sqrt(70.0)]) / 900.0
# the speed is sampled at the rule's nodes, then at the far and near ends of the interval
_OFFSETS = np.append(_GL_NODES, [1.0, 0.0])


def _check_side(side):
    if side not in SIDES:
        raise ValidationError(f"side must be one of {SIDES}, got {side!r}")


def _as_quat4(value, name="value"):
    """Coerce a quaternion given as a 4-array or a definite-signature element."""
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        sig = getattr(value, "sig", None)
        if sig is not None and (sig.s1, sig.s2) != (1, 1):
            raise ValidationError(
                f"{name} must live in the definite signature, got ({sig.s1}, {sig.s2})"
            )
        value = coeffs
    arr = np.asarray(value, dtype=float)
    if arr.shape != (4,):
        raise ValidationError(f"{name} must have 4 components, got shape {arr.shape}")
    _require_finite(name, arr, nodes=1)
    return arr


def _unit_axis(axis):
    """Accept a 3-vector or an imaginary quaternion; return the unit 3-vector."""
    arr = np.asarray(getattr(axis, "coeffs", axis), dtype=float)
    if arr.shape == (4,):
        if abs(arr[0]) > 1e-9:
            raise ValidationError("axis must be imaginary")
        arr = arr[1:]
    if arr.shape != (3,):
        raise ValidationError(f"axis must be a 3-vector, got shape {arr.shape}")
    _require_finite("axis", arr, nodes=1)
    n, unit = _norm_and_unit(arr)
    if abs(n - 1.0) > 1e-6:
        raise ValidationError(f"axis must be unit length, |axis| = {n:.3e}")
    return unit


def axis_frame(a):
    """Unit 3-vectors (e1, e2) completing the unit 3-vector a to the
    right-handed frame (a, e1, e2); e1 leans on a's smallest component."""
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(a)))] = 1.0
    e1 = ref - np.dot(ref, a) * a
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(a, e1)


def rotate_A(x, y, z, tol=1e-8):
    """Quarter-turn of the plane orthogonal to <x, y>, as z -> y * conj(x) * z.

    x and y are b-orthogonal unit quaternions; z must lie in their orthogonal
    2-plane.  The result stays in that plane and applying the map twice gives
    -z, so this is the positive pseudo-involution attached to the pair.
    """
    tol = _finite(tol, "tol")
    xq = _as_quat4(x, "x")
    yq = _as_quat4(y, "y")
    zq = _as_quat4(z, "z")
    for q, name in ((xq, "x"), (yq, "y")):
        if abs(quat.dot(q, q) - 1.0) > tol:
            raise PreconditionError(f"{name} must be a unit quaternion")
    if abs(quat.dot(xq, yq)) > tol:
        raise PreconditionError("x and y must be b-orthogonal")
    scale = max(np.linalg.norm(zq), 1.0)
    if abs(quat.dot(zq, xq)) > tol * scale or abs(quat.dot(zq, yq)) > tol * scale:
        raise PreconditionError("z must be orthogonal to the plane <x, y>")
    return quat.quarter_turn(xq, yq, zq)


def hopf(axis, side, g):
    """Hopf projection about the axis: ad(g) axis on the left, ad(g^-1) on the right."""
    _check_side(side)
    xi = quat.from_vec3(_unit_axis(axis))
    gq = quat.normalize(getattr(g, "coeffs", g))
    if side == "left":
        return quat.to_vec3(quat.ad(gq, xi))
    return quat.to_vec3(quat.ad(quat.conj(gq), xi))


def hopf_preimage(axis, point, side):
    """Some g in the fiber over the given sphere point: hopf(axis, side, g) = point."""
    _check_side(side)
    a = _unit_axis(axis)
    v = np.asarray(point, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"point must be a 3-vector, got shape {v.shape}")
    _require_finite("point", v, nodes=1)
    n, v = _norm_and_unit(v)
    if n == 0.0:
        raise ValidationError("point must be nonzero")
    c = float(np.dot(a, v))
    cross = np.cross(a, v)
    s = np.linalg.norm(cross)
    if s < 1e-12:
        if c > 0.0:
            g = quat.ONE.copy()
        else:
            # half turn about any direction orthogonal to the axis
            g = quat.from_vec3(axis_frame(a)[0])
    else:
        half = 0.5 * math.atan2(s, c)
        g = quat.exp_im(quat.from_vec3(cross / s * half))
    if side == "right":
        g = quat.conj(g)
    return g


@dataclass
class SphereCurve:
    """Sampled curve of unit imaginary quaternions.

    samples: (N, 3) imaginary triples, renormalized on construction.
    params: strictly increasing parameter values, one per sample.
    closed: endpoints must then agree to 1e-9.
    b4_length: total (b/4)-arc length, set by `reparametrize`.
    """

    samples: np.ndarray
    params: np.ndarray
    closed: bool = False
    b4_length: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        params = np.asarray(self.params, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ValidationError(f"samples must be (N, 3), got {samples.shape}")
        if params.shape != (samples.shape[0],):
            raise ValidationError("params must match samples in length")
        _require_finite("samples and params", samples, params, nodes=1)
        norms = np.linalg.norm(samples, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValidationError("samples must be unit imaginary quaternions")
        samples = samples / norms[:, None]
        if len(params) > 1:
            if np.any(np.diff(params) <= 0.0):
                raise ValidationError("params must be strictly increasing")
            chords = np.linalg.norm(np.diff(samples, axis=0), axis=1)
            if chords.max() > 0.5:
                raise ValidationError("consecutive samples too far apart, refine the curve")
        if self.closed and np.linalg.norm(samples[0] - samples[-1]) > 1e-9:
            raise ValidationError("closed curve endpoints do not match")
        self.samples = samples
        self.params = params

    def __len__(self):
        return len(self.params)


def latitude_circle(axis, colatitude, n=1024, turns=1):
    """Circle at fixed colatitude about the axis, clockwise seen from the axis pole.

    Runs through cos(phi) axis + sin(phi) (cos t e1 - sin t e2) with
    (axis, e1, e2) right-handed, for t over `turns` full periods.
    """
    a = _unit_axis(axis)
    if not 0.0 <= _finite(colatitude, "colatitude") <= math.pi:
        raise ValidationError(f"colatitude must lie in [0, pi], got {colatitude}")
    n = _count(n, "n", 2)
    turns = _count(turns, "turns", 1)
    e1, e2 = axis_frame(a)
    t = np.linspace(0.0, _TWO_PI * turns, n)
    plane = np.cos(t)[:, None] * e1 - np.sin(t)[:, None] * e2
    samples = math.cos(colatitude) * a + math.sin(colatitude) * plane
    samples[-1] = samples[0]
    return SphereCurve(samples, t, closed=True)


def _curve_spline(curve):
    samples = curve.samples
    if curve.closed:
        samples = samples.copy()
        samples[-1] = samples[0]
    return _spline.cubic(curve.params, samples, periodic=curve.closed)


def _squared_speed(cv):
    """The five coefficients (5, T) of the quartic |c'|^2 on each of T spline
    intervals, from the velocity coefficients cv (3, 3, T): power, component,
    interval."""
    p, q, r = cv
    return np.stack([(p * p).sum(axis=0), 2.0 * (p * q).sum(axis=0),
                     (q * q + 2.0 * p * r).sum(axis=0), 2.0 * (q * r).sum(axis=0),
                     (r * r).sum(axis=0)])


def _speed(speed2, u):
    """|c'| at the offsets u (..., T) into T spline intervals, by Horner on the
    quartic coefficients speed2 (5, T) of |c'|^2, clamped at 0: where the
    speed vanishes the rounding of the quartic may fall below it."""
    out = _spline.horner(speed2, u)
    return np.sqrt(np.maximum(out, 0.0, out=out), out=out)


class _ArcLength:
    """Unit-sphere arc length along a curve's spline.

    knot_lengths[i] is the length from params[0] to params[i], summed from a
    Gauss-Legendre rule on each spline interval; min_speed is the least
    speed at the knots and the quadrature nodes.
    """

    def __init__(self, curve):
        self.spline = _curve_spline(curve)
        self.speed2 = _squared_speed(self.spline.derivative().c)
        self.widths = widths = np.diff(curve.params)
        speed = _speed(self.speed2, np.multiply.outer(_OFFSETS, widths))
        self.min_speed = float(speed.min())
        self.knot_lengths = np.concatenate([[0.0], np.cumsum(widths * (_GL_WEIGHTS @ speed[:5]))])
        self.length = float(self.knot_lengths[-1])

    def points(self, s):
        """Unit curve points at the arc lengths s, each found by two rounds of
        Newton's method on the length inside the interval that holds it."""
        table = self.knot_lengths
        i = np.clip(np.searchsorted(table, s, side="right") - 1, 0, len(table) - 2)
        width = self.widths[i]
        within = s - table[i]
        u = width * within / (table[i + 1] - table[i])
        speed2 = np.take(self.speed2, i, axis=-1)
        for _ in range(2):
            # the speed at the rule's nodes on [0, u], and at u
            speed = _speed(speed2, np.multiply.outer(_OFFSETS[:6], u))
            partial = u * (_GL_WEIGHTS @ speed[:5])
            u = np.clip(u - (partial - within) / np.maximum(speed[5], 1e-12), 0.0, width)
        c = _spline.horner(np.take(self.spline.c, i, axis=-1), u).T
        return c / np.linalg.norm(c, axis=1)[:, None]


def reparametrize(curve, n=None):
    """Resample to unit speed in the (S^2, b/4) metric, recording the total length.

    The (b/4) metric halves the unit-sphere length.
    """
    n_out = _count(len(curve) if n is None else n, "n", 2)
    arc = _ArcLength(curve)
    if 0.5 * arc.min_speed < 1e-8:
        raise PreconditionError("curve has a stationary segment, cannot reparametrize")
    length = 0.5 * arc.length
    targets = np.linspace(0.0, length, n_out)
    samples = arc.points(2.0 * targets)
    if curve.closed:
        samples[-1] = samples[0]
    return SphereCurve(samples, targets, closed=curve.closed, b4_length=length)


@dataclass
class HorizontalCurve:
    """Horizontal lift samples in S^3 on a uniform parameter grid.

    velocities holds W g (left) or g V (right) at each sample.
    horizontality_residual and speed_residual are worst-case values of
    |b(velocity, fiber direction)| and ||velocity| - 1| along the lift;
    tracking_residual is the worst distance between the projected lift and
    the input curve.
    """

    params: np.ndarray
    samples: np.ndarray
    velocities: np.ndarray
    side: str
    axis: np.ndarray
    step: float
    horizontality_residual: float
    speed_residual: float
    tracking_residual: float

    def at(self, t):
        """Lift point at parameter t, from the Hermite piece that holds t."""
        t0, t1 = self.params[0], self.params[-1]
        t = _finite(t, "t")
        if t < t0 - 1e-9 or t > t1 + 1e-9:
            raise ValidationError(f"parameter {t} outside the lifted range [{t0}, {t1}]")
        return self._points(np.array([t]))[0]

    def _points(self, ts):
        """The lift at the parameters ts (1-d, clipped to the range) from the
        Hermite pieces that hold them, or the sample within 1e-13 of a node."""
        x = self.params
        ts = np.clip(ts, x[0], x[-1])
        i = np.clip(np.searchsorted(x, ts, side="right") - 1, 0, len(x) - 2)
        node = np.where(ts - x[i] < x[i + 1] - ts, i, i + 1)
        out = self.samples[node]
        off = np.abs(ts - x[node]) >= 1e-13
        if off.any():
            # the two nodes of each piece give that piece of the whole lift's spline
            k = np.union1d(i[off], i[off] + 1)
            out[off] = _spline.hermite(x[k], self.samples[k], self.velocities[k])(ts[off])
        return out


def _apply(p, g, side):
    """Act with p on g from the side the lift ODE multiplies on."""
    return quat.mul(p, g) if side == "left" else quat.mul(g, p)


def _apply_planes(p, g, side):
    """`_apply` on quaternions held as component planes (4, ...)."""
    return quat._mul_planes(p, g) if side == "left" else quat._mul_planes(g, p)


# conj on component planes
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])[:, None]


def _unit_planes(q):
    """q / |q| on component planes, by the steps of `quat.normalize`; q.T is
    the (n, 4) stack whose components are the planes of q."""
    return q / np.sqrt(quat.dot(q.T, q.T))


def _imaginary(v):
    """The imaginary quaternions of the 3-vectors v (3, n), as planes (4, n)."""
    out = np.zeros((4,) + v.shape[1:])
    out[1:] = v
    return out


def _body_velocity(g, cdot, xi, side):
    """Body velocity u (3, n) of the lift at states g (4, n) over base
    velocities cdot (3, n), and xi (4, 1), all as component planes.

    The left lift moves as g' = g u with u = -(1/2) Im(ad(g^-1) cdot) xi, the
    right lift as g' = u g with u = -(1/2) xi Im(ad(g) cdot); a horizontal
    lift of a (b/4)-unit-speed curve has u orthogonal to xi and |u| = 1.
    """
    c = _imaginary(cdot)
    g_inv = (g * _CONJ) / quat.dot(g.T, g.T)
    if side == "left":
        w = _imaginary(quat._mul_planes(quat._mul_planes(g_inv, c), g)[1:])
        u = quat._mul_planes(w, xi)
    else:
        w = _imaginary(quat._mul_planes(quat._mul_planes(g, c), g_inv)[1:])
        u = quat._mul_planes(xi, w)
    return -0.5 * u[1:]


def horizontal_lift(curve, axis, side, start, step=1e-3):
    """Integrate the horizontal distribution over a (b/4)-unit-speed curve.

    The left lift solves g' = W g with W = (1/2) c x c' (the right lift
    g' = g V with V = -W), which keeps ad(g) xi (resp. ad(g^-1) xi) on the
    curve and g horizontal.  Every classical RK4 step of this linear ODE
    is one unit quaternion; the steps are built together from the curve's
    spline at the nodes and midpoints, chained by a prefix product and
    renormalized.  The velocities W g or g V, and the horizontality, speed
    and tracking residuals, are taken at the nodes.  Every quaternion is
    held as component planes (4, n) until the records are filled.
    """
    _check_side(side)
    step = _finite(step, "step", 0, 0.1)
    a = _unit_axis(axis)
    xi = quat.from_vec3(a)[:, None]
    size, g0 = _norm_and_unit(_as_quat4(start, "start"))
    if size == 0.0:
        raise ValidationError("start must be nonzero")

    spl = _curve_spline(curve)
    # the speed at the knots: each piece's slope at its start, and the last piece's at its end
    knot_slopes = np.column_stack([spl.c[-2], spl.jet(curve.params[-1:])[1]])
    speeds = 0.5 * np.linalg.norm(knot_slopes, axis=0)
    worst = float(np.abs(speeds - 1.0).max())
    if worst > 1e-6:
        raise PreconditionError(
            f"curve must have unit (b/4) speed, deviation {worst:.3e}"
        )
    if not np.linalg.norm(hopf(a, side, g0) - curve.samples[0]) <= 1e-8:
        raise PreconditionError("start does not project to the curve start")

    t0, t1 = float(curve.params[0]), float(curve.params[-1])
    if t1 - t0 > MAX_COUNT * step:
        raise ValidationError(f"step {step} needs more than {MAX_COUNT} steps over this curve")
    n_steps = max(1, math.ceil((t1 - t0) / step))
    h = (t1 - t0) / n_steps
    grid = t0 + h * np.arange(n_steps + 1)
    # the curve at the grid nodes, then at the step midpoints, as planes (3, nodes)
    c, cdot = spl.jet(np.concatenate([grid, grid[:-1] + 0.5 * h]))
    # W (left) or V (right) = +-(1/2) c x c' from the renormalized curve
    c0, c1, c2 = c / np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    d0, d1, d2 = cdot
    half = 0.5 if side == "left" else -0.5
    w = _imaginary(np.stack([c1 * d2 - c2 * d1, c2 * d0 - c0 * d2, c0 * d1 - c1 * d0]))
    w[1:] *= half
    # with generators W0, Wm and W1 at the start, middle and end of a step, the
    # RK4 stage slopes of g' = W g are a_k g with a1 = W0, a2 = Wm (1 + h/2 a1),
    # a3 = Wm (1 + h/2 a2), a4 = W1 (1 + h a3), so the step is g -> P g with
    # P = 1 + h/6 (a1 + 2 a2 + 2 a3 + a4); the right lift mirrors every product.
    # |P g| = |P| |g|, so normalizing P is the same as renormalizing the state.
    one = quat.ONE[:, None]
    w0, w_mid, w1 = w[:, :n_steps], w[:, n_steps + 1:], w[:, 1:n_steps + 1]
    a2 = _apply_planes(w_mid, one + 0.5 * h * w0, side)
    a3 = _apply_planes(w_mid, one + 0.5 * h * a2, side)
    a4 = _apply_planes(w1, one + h * a3, side)
    steps = _unit_planes(one + (h / 6.0) * (w0 + 2.0 * a2 + 2.0 * a3 + a4))
    chained = _prefix_products(steps, lambda earlier, later: _apply_planes(later, earlier, side),
                               axis=1)
    g = np.empty((4, n_steps + 1))
    g[:, 0] = g0
    g[:, 1:] = _unit_planes(_apply_planes(chained, g0[:, None], side))
    velocities = _apply_planes(w[:, :n_steps + 1], g, side)

    u = _body_velocity(g[:, :-1], cdot[:, :n_steps], xi, side)
    # u as (n, 3) rows, whose product with a BLAS rounds as it rounds that of a stack of 3-vectors
    horiz = float(np.abs(np.ascontiguousarray(u.T) @ a).max())
    speed_dev = float(np.abs(np.linalg.norm(u, axis=0) - 1.0).max())
    # the projection ad(g) xi (left) or ad(g^-1) xi (right) of the renormalized
    # lift about the renormalized axis, by the steps of `hopf`, against the curve
    unit = _unit_planes(g)
    ends = (unit, unit * _CONJ) if side == "left" else (unit * _CONJ, unit)
    xi_hopf = quat.from_vec3(_unit_axis(a))[:, None]
    track = quat._mul_planes(quat._mul_planes(ends[0], xi_hopf), ends[1])[1:] - c[:, :n_steps + 1]
    tracking = float(np.linalg.norm(track, axis=0).max())
    return HorizontalCurve(
        params=grid,
        samples=np.ascontiguousarray(g.T),
        velocities=np.ascontiguousarray(velocities.T),
        side=side,
        axis=a,
        step=h,
        horizontality_residual=horiz,
        speed_residual=speed_dev,
        tracking_residual=tracking,
    )


def reduce_mod_4pi(value):
    """Reduce an angle-like quantity to the representative range (-2 pi, 2 pi]."""
    r = math.fmod(_finite(value, "value"), _FOUR_PI)
    if r > _TWO_PI:
        r -= _FOUR_PI
    elif r <= -_TWO_PI:
        r += _FOUR_PI
    return r


def signed_area(curve):
    """Signed spherical area enclosed by a closed curve, mod 4 pi in (-2 pi, 2 pi].

    Triangle fan from the first sample with the stable spherical-excess
    formula per triangle.  The orientation convention pairs with the left
    holonomy below: a clockwise latitude circle about an axis, as produced
    by `latitude_circle`, bounds the cap around that axis positively.
    """
    if not curve.closed:
        raise ValidationError("signed area needs a closed curve")
    v = curve.samples
    if len(v) < 3:
        return 0.0
    v0 = v[0]
    a, b = v[1:-1], v[2:]
    num = -np.einsum("ij,ij->i", np.broadcast_to(v0, a.shape), np.cross(a, b))
    den = 1.0 + a @ v0 + np.einsum("ij,ij->i", a, b) + b @ v0
    total = float(np.sum(2.0 * np.arctan2(num, den)))
    return reduce_mod_4pi(total)


@dataclass
class Holonomy:
    """Fiber rotation number of a horizontal lift over one base period."""

    q: float
    element: np.ndarray
    axis: np.ndarray
    side: str
    period: float


def fiber_angle(element, axis):
    """Angle of a quaternion about the unit 3-vector axis, and its distance
    off the circle subgroup {exp(t axis)}; the angle means something only
    when that distance is small."""
    real = float(element[0])
    along = float(np.dot(element[1:], axis))
    off = float(np.linalg.norm(element[1:] - along * axis))
    return math.atan2(along, real), off


def _quasiperiod(curve, side, axis, lo, hi, period):
    """Read a curve g of S^3 over one period p of its Hopf projection.

    curve maps 1-d parameter arrays to (N, 4) quaternions.  From one
    evaluation of it this returns the holonomy element E = conj(g(lo))
    g(lo + p) (left; g(lo + p) conj(g(lo)) right), E's fiber angle about the
    unit 3-vector axis and its distance off that fiber circle, and the worst
    displacement |g(t + p) - g(t) E| (left; E g(t) right) at nine times from
    lo to hi - p, or at lo alone when [lo, hi] holds no more than a period.
    """
    ts = np.linspace(lo, hi - period, 9) if hi - lo > period + 1e-9 else np.array([lo])
    G = curve(np.concatenate([ts, ts + period]))
    g, shifted = G[:len(ts)], G[len(ts):]
    element = _apply(quat.conj(g[0]), shifted[0], side)
    displacement = float(np.linalg.norm(shifted - _apply(g, element, side), axis=-1).max())
    return (element, *fiber_angle(element, axis), displacement)


def holonomy(lift, period, tol=1e-6):
    """Rotation number of the lift over one period of its projected curve.

    For a left lift gamma the element gamma(0)^-1 gamma(p) must lie in the
    circle subgroup of the axis; its angle over 2 pi, mod 1, is q, and
    gamma(t + p) = gamma(t) . element at every interior sample.  Right lifts
    use gamma(p) gamma(0)^-1 acting on the left.
    """
    tol = _finite(tol, "tol")
    t0, t1 = float(lift.params[0]), float(lift.params[-1])
    period = _finite(period, "period", 0, t1 - t0 + 1e-9)
    a = lift.axis
    element, angle, off, residual = _quasiperiod(lift._points, lift.side, a, t0, t1, period)
    if off > tol:
        raise ValidationError(
            f"holonomy element lies {off:.3e} off the axis circle subgroup; "
            "the projection is not periodic or the lift is not horizontal"
        )
    q = (angle / _TWO_PI) % 1.0
    if residual > 10.0 * tol:
        raise ValidationError(f"lift is not quasiperiodic, residual {residual:.3e}")

    target = quat.exp_im(quat.from_vec3(_TWO_PI * q * a))
    if np.linalg.norm(target - element / quat.norm(element)) > 10.0 * tol:
        raise ValidationError("holonomy element does not match exp(2 pi q axis)")
    return Holonomy(q=q, element=element, axis=a.copy(), side=lift.side, period=period)


def holonomy_area_check(curve, axis, side, step=1e-3, tol=1e-6):
    """Compare the fiber rotation number with the enclosed area over 4 pi.

    Returns (q_from_holonomy, q_from_area, agreement).  Left lifts satisfy
    q = -area/4pi mod 1, right lifts the opposite sign.
    """
    _check_side(side)
    tol = _finite(tol, "tol")
    if not curve.closed:
        raise ValidationError("holonomy against area needs a closed curve")
    unit = reparametrize(curve, n=max(len(curve), 4096))
    a = _unit_axis(axis)
    start = hopf_preimage(a, unit.samples[0], side)
    lift = horizontal_lift(unit, a, side, start, step=step)
    hol = holonomy(lift, unit.b4_length, tol=tol)
    area = signed_area(unit)
    side_sign = 1.0 if side == "left" else -1.0
    q_area = (-side_sign * area / _FOUR_PI) % 1.0
    gap = abs(hol.q - q_area) % 1.0
    return hol.q, q_area, min(gap, 1.0 - gap) < tol


def _periodic_stencil(values, h):
    """5-point first and second derivatives of periodic samples (no duplicate endpoint)."""
    f1 = np.roll(values, -1, axis=0)
    f2 = np.roll(values, -2, axis=0)
    fm1 = np.roll(values, 1, axis=0)
    fm2 = np.roll(values, 2, axis=0)
    d1 = (-f2 + 8.0 * f1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-f2 + 16.0 * f1 - 30.0 * values + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return d1, d2


def gauss_bonnet_check(curve, n=None):
    """Enclosed area plus the geodesic curvature integral against 2 pi, mod 4 pi.

    The curve is resampled to uniform arc length in the round unit-sphere
    metric, derivatives come from 5-point centered stencils, and the
    geodesic curvature is c'' . (c' x c).
    """
    if not curve.closed:
        raise ValidationError("needs a closed curve")
    if len(curve) < 32:
        raise ValidationError("curve is under-resolved, need at least 32 samples")
    # the 5-point stencils need 5 nodes
    m = max(1024, 2 * len(curve)) if n is None else _count(n, "n", 5)

    arc = _ArcLength(curve)
    if arc.min_speed < 1e-8:
        raise PreconditionError("curve has a stationary segment")
    length = arc.length
    # open grid of m nodes, spacing length/m, endpoint omitted (periodic wrap)
    targets = np.linspace(0.0, length, m, endpoint=False)
    c = arc.points(targets)

    h = length / m
    d1, d2 = _periodic_stencil(c, h)
    kappa = np.einsum("ij,ij->i", d2, np.cross(d1, c))
    total_kappa = float(np.sum(kappa) * h)

    loop = SphereCurve(np.vstack([c, c[:1]]), np.append(targets, length), closed=True)
    area = signed_area(loop)
    total = area + total_kappa
    return total, _TWO_PI, reduce_mod_4pi(total - _TWO_PI)
