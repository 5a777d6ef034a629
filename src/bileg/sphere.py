"""Round-sphere kinematics behind the horizontal-lift constructions.

S^3 is the unit quaternions, S^2 the unit imaginary quaternions.  The two
Hopf projections about an axis xi send g to ad(g) xi (left) or ad(g^-1) xi
(right); curves on S^2 are carried as sampled `SphereCurve` objects in the
(b/4)-arc-length convention.  Over such a curve c the horizontal lift is
the linear ODE g' = W g (left) or g' = g V (right) with W = -V = c x c'/2,
so `horizontal_lift` builds each classical RK4 step as one unit quaternion,
all steps at once, and chains them with a log-depth prefix product.
`signed_area`, `holonomy` and the Gauss-Bonnet residual close the loop: the
rotation number of a lift over one base period is read off the fiber
circle, and matches minus (left) or plus (right) the enclosed area over
4 pi.

Quaternions are float arrays [w, x, y, z]; sphere points are the imaginary
triples [x, y, z].  Both match the coefficient order of `CliffordElement`
in the definite signature.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from . import quat
from ._fd import prefix_products as _prefix_products
from ._fd import require_finite as _require_finite
from .errors import PreconditionError, ValidationError

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

SIDES = ("left", "right")


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
    n = np.linalg.norm(arr)
    if abs(n - 1.0) > 1e-6:
        raise ValidationError(f"axis must be unit length, |axis| = {n:.3e}")
    return arr / n


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
    v = v / np.linalg.norm(v)
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
    if not 0.0 <= colatitude <= math.pi:
        raise ValidationError("colatitude must lie in [0, pi]")
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
        return CubicSpline(curve.params, samples, axis=0, bc_type="periodic")
    return CubicSpline(curve.params, samples, axis=0)


def _cumulative_simpson(t, w):
    """Cumulative integral of samples w on the uniform grid t (even interval count)."""
    h = t[1] - t[0]
    out = np.zeros_like(w)
    # interval pairs: Simpson to the even nodes, the 5/8/-1 rule to the odd ones
    out[1::2] = (h / 12.0) * (5.0 * w[0:-1:2] + 8.0 * w[1::2] - w[2::2])
    pair = (h / 3.0) * (w[0:-1:2] + 4.0 * w[1::2] + w[2::2])
    out[2::2] = np.cumsum(pair)
    out[3::2] += out[2:-1:2]
    return out


def _arclength_tables(spl, t0, t1, intervals, scale):
    m = 2 * max(1, (intervals + 1) // 2)
    td = np.linspace(t0, t1, m + 1)
    speed = scale * np.linalg.norm(spl(td, 1), axis=1)
    return td, speed, _cumulative_simpson(td, speed)


def _invert_arclength(spl, td, s, targets, scale):
    s_of_t = CubicSpline(td, s)
    t = np.interp(targets, s, td)
    for _ in range(3):
        speed = scale * np.linalg.norm(spl(t, 1), axis=1)
        t = t - (s_of_t(t) - targets) / np.maximum(speed, 1e-12)
        t = np.clip(t, td[0], td[-1])
    return t


def reparametrize(curve, n=None):
    """Resample to unit speed in the (S^2, b/4) metric, recording the total length."""
    n_out = len(curve) if n is None else int(n)
    if n_out < 2:
        raise ValidationError("need at least 2 output samples")
    spl = _curve_spline(curve)
    t0, t1 = curve.params[0], curve.params[-1]
    td, speed, s = _arclength_tables(spl, t0, t1, 16 * (len(curve) - 1), 0.5)
    if speed.min() < 1e-8:
        raise PreconditionError("curve has a stationary segment, cannot reparametrize")
    length = float(s[-1])
    targets = np.linspace(0.0, length, n_out)
    t = _invert_arclength(spl, td, s, targets, 0.5)
    samples = spl(t)
    samples /= np.linalg.norm(samples, axis=1)[:, None]
    if curve.closed:
        samples[-1] = samples[0]
    return SphereCurve(samples, targets, closed=curve.closed, b4_length=length)


@dataclass
class HorizontalCurve:
    """Horizontal lift samples in S^3 on a uniform parameter grid.

    horizontality_residual and speed_residual are worst-case values of
    |b(velocity, fiber direction)| and ||velocity| - 1| along the lift;
    tracking_residual is the worst distance between the projected lift and
    the input curve.
    """

    params: np.ndarray
    samples: np.ndarray
    side: str
    axis: np.ndarray
    step: float
    horizontality_residual: float
    speed_residual: float
    tracking_residual: float
    _spline: object = field(repr=False, default=None)

    def at(self, t):
        """Lift point at parameter t, one partial integration step off the grid."""
        t0, t1 = self.params[0], self.params[-1]
        if t < t0 - 1e-9 or t > t1 + 1e-9:
            raise ValidationError(f"parameter {t} outside the lifted range [{t0}, {t1}]")
        t = min(max(t, t0), t1)
        idx = min(int((t - t0) / self.step), len(self.params) - 1)
        dt = t - self.params[idx]
        if abs(dt) < 1e-13:
            return self.samples[idx].copy()
        nodes = np.array([self.params[idx], self.params[idx] + 0.5 * dt, t])
        w0, w_mid, w1 = _lift_generator(self._spline, nodes, self.side)
        step = _rk4_propagators(w0, w_mid, w1, dt, self.side)
        return _apply(step, self.samples[idx], self.side)


def _lift_generator(spl, t, side):
    """W = c x c'/2 (left) or V = -c x c'/2 (right) at the parameters t.

    Over the curve c the left lift solves g' = W g and the right lift
    g' = g V; both are linear in g.
    """
    c = spl(t)
    c /= np.linalg.norm(c, axis=-1)[..., None]
    w = 0.5 * np.cross(c, spl(t, 1))
    return quat.from_vec3(w if side == "left" else -w)


def _apply(p, g, side):
    """Act with p on g from the side the lift ODE multiplies on."""
    return quat.mul(p, g) if side == "left" else quat.mul(g, p)


def _rk4_propagators(w0, w_mid, w1, h, side):
    """Unit quaternions P advancing the linear lift ODE by one classical RK4 step.

    w0, w_mid and w1 are the generators at the start, middle and end of each
    step.  For g' = W g the stage slopes are a_k g with a1 = W0,
    a2 = Wm (1 + h/2 a1), a3 = Wm (1 + h/2 a2), a4 = W1 (1 + h a3), so the
    step is g -> P g with P = 1 + h/6 (a1 + 2 a2 + 2 a3 + a4); the right lift
    mirrors every product.  |P g| = |P| |g|, so normalizing P is the same
    as renormalizing the stepped state.
    """
    half = 0.5 * h
    a2 = _apply(w_mid, quat.ONE + half * w0, side)
    a3 = _apply(w_mid, quat.ONE + half * a2, side)
    a4 = _apply(w1, quat.ONE + h * a3, side)
    return quat.normalize(quat.ONE + (h / 6.0) * (w0 + 2.0 * a2 + 2.0 * a3 + a4))


def _body_velocity(g, cdot, xi, side):
    """Body velocity u of the lift at states g over base velocities cdot.

    The left lift moves as g' = g u with u = -(1/2) Im(ad(g^-1) cdot) xi, the
    right lift as g' = u g with u = -(1/2) xi Im(ad(g) cdot); a horizontal
    lift of a (b/4)-unit-speed curve has u orthogonal to xi and |u| = 1.
    """
    c = quat.from_vec3(cdot)
    if side == "left":
        w = quat.from_vec3(quat.to_vec3(quat.mul(quat.mul(quat.inv(g), c), g)))
        u = quat.mul(w, xi)
    else:
        w = quat.from_vec3(quat.to_vec3(quat.mul(quat.mul(g, c), quat.inv(g))))
        u = quat.mul(xi, w)
    return -0.5 * quat.to_vec3(u)


def horizontal_lift(curve, axis, side, start, step=1e-3):
    """Integrate the horizontal distribution over a (b/4)-unit-speed curve.

    The left lift solves g' = W g with W = (1/2) c x c' (the right lift
    g' = g V with V = -W), which keeps ad(g) xi (resp. ad(g^-1) xi) on the
    curve and g horizontal.  Every classical RK4 step of this linear ODE
    is one unit quaternion; the steps are built together from the curve's
    spline at the nodes and midpoints, chained by a prefix product and
    renormalized.  The horizontality, speed and tracking residuals are
    measured at the nodes.
    """
    _check_side(side)
    if not 0.0 < step <= 0.1:
        raise ValidationError(f"step must lie in (0, 0.1], got {step}")
    a = _unit_axis(axis)
    xi = quat.from_vec3(a)
    g0 = _as_quat4(start, "start")
    g0 = g0 / quat.norm(g0)

    spl = _curve_spline(curve)
    speeds = 0.5 * np.linalg.norm(spl(curve.params, 1), axis=1)
    worst = float(np.abs(speeds - 1.0).max())
    if worst > 1e-6:
        raise PreconditionError(
            f"curve must have unit (b/4) speed, deviation {worst:.3e}"
        )
    if np.linalg.norm(hopf(a, side, g0) - curve.samples[0]) > 1e-8:
        raise PreconditionError("start does not project to the curve start")

    t0, t1 = float(curve.params[0]), float(curve.params[-1])
    n_steps = max(1, math.ceil((t1 - t0) / step))
    h = (t1 - t0) / n_steps
    grid = t0 + h * np.arange(n_steps + 1)
    w = _lift_generator(spl, grid, side)
    w_mid = _lift_generator(spl, grid[:-1] + 0.5 * h, side)
    steps = _rk4_propagators(w[:-1], w_mid, w[1:], h, side)
    chained = _prefix_products(steps, lambda earlier, later: _apply(later, earlier, side))
    samples = np.empty((n_steps + 1, 4))
    samples[0] = g0
    samples[1:] = quat.normalize(_apply(chained, g0, side))

    u = _body_velocity(samples[:-1], spl(grid[:-1], 1), xi, side)
    horiz = float(np.abs(u @ a).max())
    speed_dev = float(np.abs(np.linalg.norm(u, axis=1) - 1.0).max())
    track = hopf(a, side, samples) - spl(grid)
    tracking = float(np.linalg.norm(track, axis=1).max())
    return HorizontalCurve(
        params=grid,
        samples=samples,
        side=side,
        axis=a,
        step=h,
        horizontality_residual=horiz,
        speed_residual=speed_dev,
        tracking_residual=tracking,
        _spline=spl,
    )


def reduce_mod_4pi(value):
    """Reduce an angle-like quantity to the representative range (-2 pi, 2 pi]."""
    r = math.fmod(value, _FOUR_PI)
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


def holonomy(lift, period, tol=1e-6):
    """Rotation number of the lift over one period of its projected curve.

    For a left lift gamma the element gamma(0)^-1 gamma(p) must lie in the
    circle subgroup of the axis; its angle over 2 pi, mod 1, is q, and
    gamma(t + p) = gamma(t) . element at every interior sample.  Right lifts
    use gamma(p) gamma(0)^-1 acting on the left.
    """
    t0, t1 = lift.params[0], lift.params[-1]
    if not 0.0 < period <= t1 - t0 + 1e-9:
        raise ValidationError("period must be positive and within the lifted range")
    g_start = lift.samples[0]
    g_period = lift.at(t0 + period)
    if lift.side == "left":
        element = quat.mul(quat.conj(g_start), g_period)
    else:
        element = quat.mul(g_period, quat.conj(g_start))

    a = lift.axis
    angle, off = fiber_angle(element, a)
    if off > tol:
        raise ValidationError(
            f"holonomy element lies {off:.3e} off the axis circle subgroup; "
            "the projection is not periodic or the lift is not horizontal"
        )
    q = (angle / _TWO_PI) % 1.0

    # quasiperiodicity and projected periodicity at interior samples
    ts = np.linspace(t0, t1 - period, 9) if t1 - t0 > period + 1e-9 else np.array([t0])
    worst = 0.0
    for t in ts:
        g_t = lift.at(t)
        g_shift = lift.at(t + period)
        if lift.side == "left":
            pred = quat.mul(g_t, element)
        else:
            pred = quat.mul(element, g_t)
        worst = max(worst, float(np.linalg.norm(g_shift - pred)))
        proj_gap = np.linalg.norm(
            hopf(a, lift.side, g_shift) - hopf(a, lift.side, g_t)
        )
        worst = max(worst, proj_gap)
    if worst > 10.0 * tol:
        raise ValidationError(f"lift is not quasiperiodic, residual {worst:.3e}")

    target = quat.exp_im(quat.from_vec3(_TWO_PI * q * a))
    if np.linalg.norm(target - element / quat.norm(element)) > 10.0 * tol:
        raise ValidationError("holonomy element does not match exp(2 pi q axis)")
    return Holonomy(q=q, element=element, axis=a.copy(), side=lift.side, period=period)


def _mod1_distance(x, y):
    f = abs(x - y) % 1.0
    return min(f, 1.0 - f)


def holonomy_area_check(curve, axis, side, step=1e-3, tol=1e-6):
    """Compare the fiber rotation number with the enclosed area over 4 pi.

    Returns (q_from_holonomy, q_from_area, agreement).  Left lifts satisfy
    q = -area/4pi mod 1, right lifts the opposite sign.
    """
    _check_side(side)
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
    return hol.q, q_area, _mod1_distance(hol.q, q_area) < tol


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
    m = max(1024, 2 * len(curve)) if n is None else int(n)

    spl = _curve_spline(curve)
    t0, t1 = curve.params[0], curve.params[-1]
    td, speed, s = _arclength_tables(spl, t0, t1, 16 * (len(curve) - 1), 1.0)
    if speed.min() < 1e-8:
        raise PreconditionError("curve has a stationary segment")
    length = float(s[-1])
    # open grid of m nodes, spacing length/m, endpoint omitted (periodic wrap)
    targets = np.linspace(0.0, length, m, endpoint=False)
    t = _invert_arclength(spl, td, s, targets, 1.0)
    c = spl(t)
    c /= np.linalg.norm(c, axis=1)[:, None]

    h = length / m
    d1, d2 = _periodic_stencil(c, h)
    kappa = np.einsum("ij,ij->i", d2, np.cross(d1, c))
    total_kappa = float(np.sum(kappa) * h)

    loop = SphereCurve(np.vstack([c, c[:1]]), np.append(targets, length), closed=True)
    area = signed_area(loop)
    total = area + total_kappa
    return total, _TWO_PI, reduce_mod_4pi(total - _TWO_PI)
