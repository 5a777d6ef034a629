"""The batched lift and Frenet integrators against step-by-step reference loops.

The references below integrate the same ODEs one RK4 step at a time: the
lift in its nonlinear form g' = g u(g) (left) or u(g) g (right), and the
framed curve system with a QR renormalization after every step.  The batched
integrators must agree with them to 1e-9.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bileg import factory, quat, sphere
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
