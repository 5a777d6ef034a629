"""The batched lift and Frenet integrators against step-by-step reference loops.

The references below integrate the same ODEs one RK4 step at a time: the
lift in its nonlinear form g' = g u(g) (left) or u(g) g (right), and the
framed curve system with a QR renormalization after every step.  The batched
integrators must agree with them to 1e-9.  `from_theta` is also held against
a reference that splines the QR frames with not-a-knot cubics of gamma and T.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bileg import _fd, _spline, factory, quat, sphere
from bileg.sphere import (
    SphereCurve,
    holonomy_area_check,
    hopf_preimage,
    horizontal_lift,
    reparametrize,
)
from test_sphere import _fourier_curve

AGREE = 1e-9


# reference: one nonlinear RK4 step of the lift per loop iteration

def _ref_velocity(g, cdot, xi, side):
    c = quat.from_vec3(cdot)
    ginv = quat.conj(g) / quat.dot(g, g)
    if side == "left":
        w = quat.from_vec3(quat.to_vec3(quat.mul(quat.mul(ginv, c), g)))
        return quat.mul(g, -0.5 * quat.from_vec3(quat.to_vec3(quat.mul(w, xi))))
    w = quat.from_vec3(quat.to_vec3(quat.mul(quat.mul(g, c), ginv)))
    return quat.mul(-0.5 * quat.from_vec3(quat.to_vec3(quat.mul(xi, w))), g)


def _ref_lift(curve, axis, side, start, step):
    spl = sphere._curve_spline(curve)
    xi = quat.from_vec3(np.asarray(axis, float) / np.linalg.norm(axis))
    t0, t1 = float(curve.params[0]), float(curve.params[-1])
    n = max(1, math.ceil((t1 - t0) / step))
    h = (t1 - t0) / n
    grid = t0 + h * np.arange(n + 1)
    cd, cd_mid = spl(grid, 1), spl(grid[:-1] + 0.5 * h, 1)
    out = np.empty((n + 1, 4))
    g = out[0] = quat.normalize(start)
    for m in range(n):
        k1 = _ref_velocity(g, cd[m], xi, side)
        k2 = _ref_velocity(g + 0.5 * h * k1, cd_mid[m], xi, side)
        k3 = _ref_velocity(g + 0.5 * h * k2, cd_mid[m], xi, side)
        k4 = _ref_velocity(g + h * k3, cd[m + 1], xi, side)
        g = out[m + 1] = quat.normalize(g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return out


# reference: the batched lift with every quaternion held as a (n, 4) stack

def _stack_apply(p, g, side):
    return quat.mul(p, g) if side == "left" else quat.mul(g, p)


def _stack_lift(curve, axis, side, start, step):
    """Samples, velocities and the three residuals of the batched lift, with
    the products taken by `quat.mul` on (n, 4) stacks."""
    spl = sphere._curve_spline(curve)
    a = np.asarray(axis, float) / np.linalg.norm(axis)
    xi = quat.from_vec3(a)
    g0 = quat.normalize(start)
    t0, t1 = float(curve.params[0]), float(curve.params[-1])
    n = max(1, math.ceil((t1 - t0) / step))
    h = (t1 - t0) / n
    grid = t0 + h * np.arange(n + 1)
    nodes = np.concatenate([grid, grid[:-1] + 0.5 * h])
    c, cdot = spl(nodes), spl(nodes, 1)
    w = 0.5 * np.cross(c / np.linalg.norm(c, axis=-1)[..., None], cdot)
    w = quat.from_vec3(w if side == "left" else -w)
    w0, w_mid, w1 = w[:n], w[n + 1:], w[1:n + 1]
    a2 = _stack_apply(w_mid, quat.ONE + 0.5 * h * w0, side)
    a3 = _stack_apply(w_mid, quat.ONE + 0.5 * h * a2, side)
    a4 = _stack_apply(w1, quat.ONE + h * a3, side)
    steps = quat.normalize(quat.ONE + (h / 6.0) * (w0 + 2.0 * a2 + 2.0 * a3 + a4))
    chained = _fd.prefix_products(steps, lambda e, later: _stack_apply(later, e, side))
    samples = np.empty((n + 1, 4))
    samples[0] = g0
    samples[1:] = quat.normalize(_stack_apply(chained, g0, side))
    velocities = _stack_apply(w[:n + 1], samples, side)
    g, cd = samples[:-1], quat.from_vec3(cdot[:n])
    if side == "left":
        v = quat.from_vec3(quat.to_vec3(quat.mul(quat.mul(quat.inv(g), cd), g)))
        u = -0.5 * quat.to_vec3(quat.mul(v, xi))
    else:
        v = quat.from_vec3(quat.to_vec3(quat.mul(quat.mul(g, cd), quat.inv(g))))
        u = -0.5 * quat.to_vec3(quat.mul(xi, v))
    horiz = float(np.abs(u @ a).max())
    speed = float(np.abs(np.linalg.norm(u, axis=1) - 1.0).max())
    track = sphere.hopf(a, side, samples) - c[:n + 1]
    tracking = float(np.linalg.norm(track, axis=1).max())
    return samples, velocities, (horiz, speed, tracking)


# a unit axis whose normalization moves in its last bits when normalized
# again, as `hopf` does
ODD_AXIS = [0.9698243673082586, -0.03271874667890908, -0.24159921396994988]


@pytest.mark.parametrize("side", sphere.SIDES)
@pytest.mark.parametrize("seed", [31, 37])
def test_plane_lift_is_bit_identical_to_the_stack_lift(seed, side):
    rng = np.random.default_rng(seed)
    curve = reparametrize(_fourier_curve(rng), n=4096)
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis) if seed == 31 else np.array(ODD_AXIS)
    start = hopf_preimage(axis, curve.samples[0], side)
    for step in (1e-3, 0.05):
        lift = horizontal_lift(curve, axis, side, start, step=step)
        samples, velocities, residuals = _stack_lift(curve, axis, side, start, step)
        assert np.array_equal(lift.samples, samples)
        assert np.array_equal(lift.velocities, velocities)
        assert (lift.horizontality_residual, lift.speed_residual,
                lift.tracking_residual) == residuals


# reference: one RK4 step of F' = F Omega, then QR, per loop iteration

def _ref_frenet(kappa_fn, tau, F0, t_lo, t_hi, step):
    def omega(kappa):
        return np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, -kappa, 0.0],
                         [0.0, kappa, 0.0, -tau], [0.0, 0.0, tau, 0.0]])

    def run(t_end):
        n = max(1, math.ceil(abs(t_end) / step))
        ts = np.linspace(0.0, t_end, n + 1)
        out = np.empty((n + 1, 4, 4))
        F = out[0] = F0
        for idx in range(n):
            t, h = ts[idx], ts[idx + 1] - ts[idx]
            k1 = F @ omega(kappa_fn(t))
            k2 = (F + 0.5 * h * k1) @ omega(kappa_fn(t + 0.5 * h))
            k3 = (F + 0.5 * h * k2) @ omega(kappa_fn(t + 0.5 * h))
            k4 = (F + h * k3) @ omega(kappa_fn(t + h))
            Q, R = np.linalg.qr(F + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            F = out[idx + 1] = Q * np.sign(np.diag(R))
        return ts, out

    ts_f, F_f = run(t_hi) if t_hi > 0 else (np.zeros(1), F0[None])
    ts_b, F_b = run(t_lo) if t_lo < 0 else (np.zeros(1), F0[None])
    frames = np.concatenate([F_b[:0:-1], F_f])
    return np.concatenate([ts_b[:0:-1], ts_f]), frames[:, :, 0], frames[:, :, 1]


def _assert_lift_agrees(curve, axis, side, start, step):
    lift = horizontal_lift(curve, axis, side, start, step=step)
    ref = _ref_lift(curve, axis, side, start, step)
    assert np.abs(lift.samples - ref).max() < AGREE


@pytest.mark.parametrize("side", sphere.SIDES)
def test_lift_agrees_with_reference_on_fourier_loop(side):
    rng = np.random.default_rng(31)
    curve = reparametrize(_fourier_curve(rng), n=4096)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    start = hopf_preimage(axis, curve.samples[0], side)
    _assert_lift_agrees(curve, axis, side, start, 1e-3)


@pytest.mark.parametrize("side", sphere.SIDES)
def test_lift_agrees_with_reference_through_antipode(side):
    # the great circle through the axis pole crosses -axis half way round
    axis = np.array([0.0, 0.6, 0.8])
    e2 = np.array([1.0, 0.0, 0.0])
    t = np.linspace(0.0, 2 * math.pi, 4096)
    samples = np.cos(t)[:, None] * axis - np.sin(t)[:, None] * e2
    samples[-1] = samples[0]
    curve = reparametrize(SphereCurve(samples, t, closed=True), n=4096)
    start = hopf_preimage(axis, curve.samples[0], side)
    _assert_lift_agrees(curve, axis, side, start, 1e-3)


@pytest.mark.parametrize("side", sphere.SIDES)
def test_partial_step_agrees_with_reference(side):
    rng = np.random.default_rng(37)
    curve = reparametrize(_fourier_curve(rng), n=4096)
    axis = np.array([0.0, 0.0, 1.0])
    xi = quat.from_vec3(axis)
    spl = sphere._curve_spline(curve)
    lift = horizontal_lift(curve, axis, side, hopf_preimage(axis, curve.samples[0], side))
    for frac in (0.13, 0.5, 0.91):
        t = lift.params[0] + (len(lift.params) // 3 + frac) * lift.step
        idx = int((t - lift.params[0]) / lift.step)
        dt = t - lift.params[idx]
        # one reference step of length dt from the grid sample
        g = lift.samples[idx]
        cd0, cdm, cd1 = spl(np.array([lift.params[idx], lift.params[idx] + 0.5 * dt, t]), 1)
        k1 = _ref_velocity(g, cd0, xi, side)
        k2 = _ref_velocity(g + 0.5 * dt * k1, cdm, xi, side)
        k3 = _ref_velocity(g + 0.5 * dt * k2, cdm, xi, side)
        k4 = _ref_velocity(g + dt * k3, cd1, xi, side)
        ref = quat.normalize(g + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        assert np.abs(lift.at(t) - ref).max() < AGREE


def _quadratic(c):
    return lambda s: c[0] + c[1] * s + c[2] * s * s


def _scalar_only(c):
    # math.sin and the branch refuse arrays, so from_theta must go point by point
    return lambda s: c[0] + c[1] * math.sin(s) + (c[2] * s if s > 0 else 0.0)


def _constant(c):
    # returns a scalar for an array argument, so from_theta must go point by point
    return lambda s: c[0]


@pytest.mark.parametrize("potential", [_quadratic, _scalar_only, _constant])
def test_from_theta_agrees_with_reference(monkeypatch, potential):
    rng = np.random.default_rng(41)
    x = np.linspace(-0.3, 0.3, 41)
    f = potential(rng.uniform(-0.3, 0.3, size=3))
    g = potential(rng.uniform(-0.3, 0.3, size=3))
    grid = factory.from_theta(0.8, f, g, x, x)
    monkeypatch.setattr(factory, "_integrate_frenet", _ref_frenet)
    ref = factory.from_theta(0.8, f, g, x, x)
    assert np.abs(grid.X - ref.X).max() < AGREE
    assert np.abs(grid.Y - ref.Y).max() < AGREE


# reference: from_theta on QR frames, with not-a-knot cubics through gamma and
# through T as the factor curves and their velocities

def _ref_from_theta(theta0, f, g, x1, x2, step, tol=1e-6):
    margin = 2.0 * max(step, 1e-4)
    lo1, hi1 = min(x1[0], 0.0) - margin, max(x1[-1], 0.0) + margin
    lo2, hi2 = min(x2[0], 0.0) - margin, max(x2[-1], 0.0) + margin
    v2 = np.array([0.0, math.cos(theta0), math.sin(theta0), 0.0])
    F0_2 = np.stack([quat.ONE, v2, quat.mul(quat.QK, v2), quat.QK], axis=-1)
    ts1, G1, T1 = _ref_frenet(lambda t: -2.0 * f(t), -1.0, np.eye(4), lo1, hi1, step)
    ts2, G2, T2 = _ref_frenet(lambda t: 2.0 * g(t), 1.0, F0_2, lo2, hi2, step)
    return factory.construct(
        quat.ONE, quat.QK, _spline.cubic(ts1, G1), _spline.cubic(ts2, G2), x1, x2,
        dgamma1=_spline.cubic(ts1, T1), dgamma2=_spline.cubic(ts2, T2),
        t1_range=(lo1, hi1), t2_range=(lo2, hi2), tol=tol)


def _seeded_theta_data(seed, scale):
    rng = np.random.default_rng(seed)
    f = _quadratic(rng.uniform(-scale, scale, size=3))
    g = _quadratic(rng.uniform(-scale, scale, size=3))
    return float(rng.uniform(0.4, 1.1)), f, g


def _factor_samples(grid):
    """X, Y and the two factor velocities on the grid's axes."""
    return (grid.X, grid.Y, grid.factors.velocity1(grid.x1), grid.factors.velocity2(grid.x2))


def _theta(grid):
    return factory.angle_function(grid).theta


@pytest.mark.parametrize("seed", range(5))
def test_from_theta_agrees_with_qr_not_a_knot_reference(seed):
    theta0, f, g = _seeded_theta_data(seed, 0.3)
    half_width = 0.15 + 0.05 * seed  # 0.15 .. 0.35
    x = np.linspace(-half_width, half_width, 41)
    grid = factory.from_theta(theta0, f, g, x, x)
    ref = _ref_from_theta(theta0, f, g, x, x, 1e-3)
    for got, want in zip(_factor_samples(grid), _factor_samples(ref)):
        assert np.abs(got - want).max() < AGREE
    assert np.abs(_theta(grid) - _theta(ref)).max() < AGREE


@pytest.mark.parametrize("seed, half_width", [(5, 0.2), (6, 0.3)])
def test_from_theta_agrees_with_reference_at_the_coarsest_step(seed, half_width):
    # At step 0.1 the grid lies on the knots: between them the two kinds of
    # spline differ by their own interpolation errors, about 1e-6.  On the
    # knots the polar and QR steps still differ by about 1e-8, so X, Y and
    # the velocities are held to a tenth of the reference's own error against
    # a step of 1e-4, and theta to AGREE.  The reference's not-a-knot
    # velocities miss unit speed by 1.6e-6 or more at this step even for zero
    # potentials, so its construct check runs at 1e-4; from_theta keeps 1e-6.
    theta0, f, g = _seeded_theta_data(seed, 0.1)
    x = 0.1 * np.arange(-round(half_width / 0.1), round(half_width / 0.1) + 1)
    grid = factory.from_theta(theta0, f, g, x, x, step=0.1)
    ref = _ref_from_theta(theta0, f, g, x, x, 0.1, tol=1e-4)
    fine = factory.from_theta(theta0, f, g, x, x, step=1e-4)
    for got, want, exact in zip(*map(_factor_samples, (grid, ref, fine))):
        assert np.abs(got - want).max() < 0.1 * np.abs(want - exact).max()
    assert np.abs(_theta(grid) - _theta(ref)).max() < AGREE


def test_chained_frenet_frames_stay_orthogonal(monkeypatch):
    chained = []

    def recording(steps, combine):
        chained.append(_fd.prefix_products(steps, combine))
        return chained[-1]

    monkeypatch.setattr(factory, "_prefix_products", recording)
    theta0, f, g = _seeded_theta_data(11, 0.3)
    x = np.linspace(-0.35, 0.35, 41)
    factory.from_theta(theta0, f, g, x, x)
    assert len(chained) == 4  # two factors, each integrated both ways from 0
    for frames in chained:
        gram = np.swapaxes(frames, 1, 2) @ frames - np.eye(4)
        assert np.linalg.norm(gram, axis=(1, 2)).max() < 1e-12


@settings(max_examples=8, deadline=None)
@given(
    colat=st.floats(0.3, math.pi - 0.3),
    ripple=st.floats(-0.1, 0.1),
    axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: np.linalg.norm(v) > 0.2),
    side=st.sampled_from(sphere.SIDES),
)
def test_holonomy_q_equals_area_q(colat, ripple, axis, side):
    axis = np.asarray(axis) / np.linalg.norm(axis)
    e1 = np.cross(axis, [0.3, -0.5, 0.8])
    if np.linalg.norm(e1) < 1e-3:
        e1 = np.cross(axis, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    t = np.linspace(0.0, 2 * math.pi, 1024)
    phi = colat + ripple * np.cos(2 * t)
    plane = np.cos(t)[:, None] * e1 - np.sin(t)[:, None] * e2
    r = np.cos(phi)[:, None] * axis + np.sin(phi)[:, None] * plane
    r[-1] = r[0]
    q_h, q_a, agree = holonomy_area_check(SphereCurve(r, t, closed=True), axis, side)
    gap = abs(q_h - q_a) % 1.0
    assert min(gap, 1.0 - gap) < 1e-6 and agree, (q_h, q_a)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(sphere.SIDES))
def test_lift_projects_onto_its_curve(seed, side):
    rng = np.random.default_rng(seed)
    curve = reparametrize(_fourier_curve(rng), n=2048)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    # a step just over the curve's own spacing puts the lift nodes on the curve's parameters
    spacing = (curve.params[-1] - curve.params[0]) / (len(curve.params) - 1)
    lift = horizontal_lift(curve, axis, side, hopf_preimage(axis, curve.samples[0], side),
                           step=spacing * (1 + 1e-12))
    assert np.abs(lift.params - curve.params).max() < 1e-12
    g, xi = lift.samples, quat.from_vec3(axis)
    if side == "left":
        image = quat.mul(quat.mul(g, xi), quat.conj(g))
    else:
        image = quat.mul(quat.mul(quat.conj(g), xi), g)
    distance = np.linalg.norm(quat.to_vec3(image) - curve.samples, axis=1).max()
    assert distance <= lift.tracking_residual + 1e-12
    assert lift.tracking_residual < 1e-6
