"""Sphere kinematics: Hopf lifts, area, holonomy, Gauss-Bonnet."""

import math

import numpy as np
import pytest

from bileg import quat
from bileg.clifford import Signature2, element
from bileg.errors import PreconditionError, ValidationError
from bileg.sphere import (
    HorizontalCurve,
    SphereCurve,
    gauss_bonnet_check,
    holonomy,
    holonomy_area_check,
    hopf,
    hopf_preimage,
    horizontal_lift,
    latitude_circle,
    reduce_mod_4pi,
    reparametrize,
    rotate_A,
    signed_area,
)

I3 = np.array([1.0, 0.0, 0.0])


def _mod4pi_close(x, y, tol=1e-9):
    assert abs(reduce_mod_4pi(x - y)) < tol, (x, y)


def _mod1_dist(x, y):
    f = abs(x - y) % 1.0
    return min(f, 1.0 - f)


def _great_circle_curve(n=8001, turns=1):
    # projection of t -> e^{tj} about the axis i; (b/4)-unit speed already
    t = np.linspace(0.0, math.pi * turns, n)
    samples = np.stack([np.cos(2 * t), np.zeros_like(t), -np.sin(2 * t)], axis=1)
    samples[-1] = samples[0]
    return SphereCurve(samples, t, closed=True)


def _fourier_curve(rng, n=2048):
    # colatitude graph over a monotone azimuth: simple, no cusps
    t = np.linspace(0.0, 2 * math.pi, n)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = ref - np.dot(ref, axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    phi = rng.uniform(0.8, 1.8) * np.ones_like(t)
    for m in (1, 2):
        a, b = rng.uniform(-0.12, 0.12, size=2)
        phi += a * np.cos(m * t) + b * np.sin(m * t)
    plane = np.cos(t)[:, None] * e1 - np.sin(t)[:, None] * e2
    r = np.cos(phi)[:, None] * axis + np.sin(phi)[:, None] * plane
    r[-1] = r[0]
    return SphereCurve(r, t, closed=True)


def test_rotate_A_examples():
    one = np.array([1.0, 0, 0, 0])
    qi = np.array([0.0, 1, 0, 0])
    qj = np.array([0.0, 0, 1, 0])
    qk = np.array([0.0, 0, 0, 1])
    np.testing.assert_allclose(rotate_A(one, qk, qi), qj, atol=1e-15)
    # -j*k = -i by the multiplication table
    np.testing.assert_allclose(rotate_A(one, qk, qj), -qi, atol=1e-15)
    # accepts definite-signature algebra elements
    sig = Signature2(1, 1)
    out = rotate_A(element(sig, 1, 0, 0, 0), element(sig, 0, 0, 0, 1),
                   element(sig, 0, 1, 0, 0))
    np.testing.assert_allclose(out, qj, atol=1e-15)


def test_rotate_A_pseudo_involution():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = quat.normalize(rng.normal(size=4))
        y = rng.normal(size=4)
        y = quat.normalize(y - quat.dot(y, x) * x)
        # orthogonal 2-plane basis by Gram-Schmidt
        z = rng.normal(size=4)
        z -= quat.dot(z, x) * x + quat.dot(z, y) * y
        az = rotate_A(x, y, z)
        np.testing.assert_allclose(rotate_A(x, y, az), -z, atol=1e-12)
        # the two product forms agree and the plane is preserved
        np.testing.assert_allclose(az, quat.mul(quat.mul(y, quat.conj(x)), z), atol=1e-12)
        assert abs(quat.dot(az, x)) < 1e-12
        assert abs(quat.dot(az, y)) < 1e-12


def test_rotate_A_rejects_off_plane():
    one = np.array([1.0, 0, 0, 0])
    qk = np.array([0.0, 0, 0, 1])
    with pytest.raises(PreconditionError):
        rotate_A(one, qk, np.array([0.5, 1.0, 0, 0]))
    with pytest.raises(PreconditionError):
        rotate_A(one, 2.0 * qk, np.array([0.0, 1.0, 0, 0]))


def test_hopf_examples():
    assert np.allclose(hopf(I3, "left", np.array([1.0, 0, 0, 0])), I3)
    for t in (0.3, 1.1, 2.7):
        g = np.array([math.cos(t), 0.0, math.sin(t), 0.0])
        # e^{2tj} i = cos 2t i - sin 2t k
        expect = np.array([math.cos(2 * t), 0.0, -math.sin(2 * t)])
        np.testing.assert_allclose(hopf(I3, "left", g), expect, atol=1e-14)


def test_hopf_fiber_invariance():
    rng = np.random.default_rng(11)
    for _ in range(30):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        g = quat.normalize(rng.normal(size=4))
        s = rng.uniform(-3, 3)
        phase = quat.exp_im(quat.from_vec3(s * axis))
        left0 = hopf(axis, "left", g)
        left1 = hopf(axis, "left", quat.mul(g, phase))
        np.testing.assert_allclose(left0, left1, atol=1e-12)
        right0 = hopf(axis, "right", g)
        right1 = hopf(axis, "right", quat.mul(phase, g))
        np.testing.assert_allclose(right0, right1, atol=1e-12)
        assert abs(np.linalg.norm(left0) - 1.0) < 1e-12


def test_hopf_preimage():
    rng = np.random.default_rng(13)
    for side in ("left", "right"):
        for _ in range(25):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            g = hopf_preimage(axis, v, side)
            np.testing.assert_allclose(hopf(axis, side, g), v, atol=1e-12)
        # aligned and antipodal special cases
        np.testing.assert_allclose(hopf(I3, side, hopf_preimage(I3, I3, side)), I3, atol=1e-14)
        np.testing.assert_allclose(hopf(I3, side, hopf_preimage(I3, -I3, side)), -I3, atol=1e-14)


def test_reparametrize_great_circle():
    # non-uniform sampling of a great circle still gives (b/4)-length pi
    s = np.linspace(0.0, 2 * math.pi, 3001)
    t = s + 0.3 * np.sin(s)
    samples = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    samples[-1] = samples[0]
    curve = SphereCurve(samples, s, closed=True)
    unit = reparametrize(curve)
    assert abs(unit.b4_length - math.pi) < 1e-9
    # output really is unit speed
    chords = np.linalg.norm(np.diff(unit.samples, axis=0), axis=1)
    dt = np.diff(unit.params)
    np.testing.assert_allclose(0.5 * chords / dt, 1.0, atol=1e-5)


def test_reparametrize_idempotent():
    curve = _great_circle_curve(n=2001)
    once = reparametrize(curve)
    twice = reparametrize(once)
    assert np.max(np.abs(once.samples - twice.samples)) < 1e-9
    assert abs(once.b4_length - twice.b4_length) < 1e-9


def test_reparametrize_latitude_length():
    phi = 1.1
    lat = latitude_circle(I3, phi, n=2048)
    unit = reparametrize(lat)
    assert abs(unit.b4_length - math.pi * math.sin(phi)) < 1e-8


def test_reparametrize_degenerate():
    samples = np.broadcast_to(I3, (64, 3)).copy()
    curve = SphereCurve(samples, np.linspace(0, 1, 64), closed=True)
    with pytest.raises(PreconditionError):
        reparametrize(curve)


def test_great_circle_lift_closed_form():
    curve = _great_circle_curve()
    lift = horizontal_lift(curve, I3, "left", np.array([1.0, 0, 0, 0]), step=1e-3)
    exact = np.stack(
        [np.cos(lift.params), np.zeros_like(lift.params),
         np.sin(lift.params), np.zeros_like(lift.params)], axis=1)
    assert np.linalg.norm(lift.samples - exact, axis=1).max() < 1e-8
    np.testing.assert_allclose(lift.at(math.pi / 2), [0.0, 0, 1, 0], atol=1e-10)
    assert lift.horizontality_residual < 1e-10
    assert lift.speed_residual < 1e-6
    assert lift.tracking_residual < 1e-8
    assert np.abs(np.linalg.norm(lift.samples, axis=1) - 1.0).max() < 1e-12


def test_integrator_order():
    curve = _great_circle_curve()
    end = np.array([-1.0, 0.0, 0.0, 0.0])

    def endpoint_error(h):
        lift = horizontal_lift(curve, I3, "left", np.array([1.0, 0, 0, 0]), step=h)
        return np.linalg.norm(lift.samples[-1] - end)

    e_coarse = endpoint_error(0.05)
    e_fine = endpoint_error(0.025)
    ratio = e_coarse / e_fine
    assert 12.0 <= ratio <= 30.0, ratio


def test_lift_roundtrip_fourier():
    rng = np.random.default_rng(23)
    for trial in range(3):
        curve = reparametrize(_fourier_curve(rng), n=3072)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        for side in ("left", "right"):
            start = hopf_preimage(axis, curve.samples[0], side)
            lift = horizontal_lift(curve, axis, side, start, step=2e-3)
            assert lift.tracking_residual < 1e-8
            assert lift.horizontality_residual < 1e-12
            assert np.abs(np.linalg.norm(lift.samples, axis=1) - 1.0).max() < 1e-12


def test_lift_validation():
    curve = _great_circle_curve(n=2001)
    start = np.array([1.0, 0, 0, 0])
    with pytest.raises(ValidationError):
        horizontal_lift(curve, I3, "up", start)
    with pytest.raises(ValidationError):
        horizontal_lift(curve, I3, "left", start, step=0.5)
    with pytest.raises(PreconditionError):
        # j is not over the curve start
        horizontal_lift(curve, I3, "left", np.array([0.0, 0, 1, 0]))
    slow = SphereCurve(curve.samples, 2.0 * curve.params, closed=True)
    with pytest.raises(PreconditionError):
        horizontal_lift(slow, I3, "left", start)
    # constant curve is degenerate
    const = SphereCurve(np.broadcast_to(I3, (64, 3)).copy(),
                        np.linspace(0, 1, 64), closed=True)
    with pytest.raises(PreconditionError):
        horizontal_lift(const, I3, "left", start)


def test_signed_area_latitudes():
    for phi in (0.6, math.pi / 3, 2.0):
        lat = latitude_circle(I3, phi, n=16384)
        _mod4pi_close(signed_area(lat), 2 * math.pi * (1 - math.cos(phi)), tol=1e-7)


def test_signed_area_great_circle_and_point():
    assert abs(signed_area(_great_circle_curve(n=4096)) - 2 * math.pi) < 1e-9
    point = SphereCurve(np.broadcast_to(I3, (16, 3)).copy(),
                        np.linspace(0, 1, 16), closed=True)
    assert signed_area(point) == 0.0
    open_curve = SphereCurve(_great_circle_curve().samples[:100],
                             _great_circle_curve().params[:100], closed=False)
    with pytest.raises(ValidationError):
        signed_area(open_curve)


def test_signed_area_fan_apex_independence():
    rng = np.random.default_rng(31)
    curve = _fourier_curve(rng, n=1024)
    base = signed_area(curve)
    closed = curve.samples[:-1]
    for shift in (97, 311, 640):
        rolled = np.roll(closed, -shift, axis=0)
        rolled = np.vstack([rolled, rolled[:1]])
        _mod4pi_close(signed_area(SphereCurve(rolled, curve.params, closed=True)),
                      base, tol=1e-9)


def test_signed_area_orientation_and_doubling():
    rng = np.random.default_rng(37)
    curve = _fourier_curve(rng, n=1024)
    area = signed_area(curve)
    reversed_curve = SphereCurve(curve.samples[::-1].copy(), curve.params, closed=True)
    _mod4pi_close(signed_area(reversed_curve), -area, tol=1e-9)
    doubled = SphereCurve(np.vstack([curve.samples[:-1], curve.samples]),
                          np.linspace(0, 2, 2 * len(curve) - 1), closed=True)
    _mod4pi_close(signed_area(doubled), 2 * area, tol=1e-9)


def test_holonomy_great_circle():
    curve = _great_circle_curve(n=16001, turns=2)
    lift = horizontal_lift(curve, I3, "left", np.array([1.0, 0, 0, 0]), step=1e-3)
    hol = holonomy(lift, math.pi)
    assert _mod1_dist(hol.q, 0.5) < 1e-8
    np.testing.assert_allclose(hol.element, [-1.0, 0, 0, 0], atol=1e-8)


def test_holonomy_latitude_both_sides():
    phi = math.pi / 3
    lat = reparametrize(latitude_circle(I3, phi, n=4096, turns=2), n=8192)
    period = math.pi * math.sin(phi)
    assert abs(lat.b4_length - 2 * period) < 1e-8
    for side, q_expect, elem_expect in (
        ("left", 0.75, np.array([0.0, -1.0, 0, 0])),
        ("right", 0.25, np.array([0.0, 1.0, 0, 0])),
    ):
        start = hopf_preimage(I3, lat.samples[0], side)
        lift = horizontal_lift(lat, I3, side, start, step=1e-3)
        hol = holonomy(lift, period)
        assert _mod1_dist(hol.q, q_expect) < 1e-6
        np.testing.assert_allclose(hol.element, elem_expect, atol=1e-6)


def test_holonomy_rejects_wrong_period():
    curve = _great_circle_curve()
    lift = horizontal_lift(curve, I3, "left", np.array([1.0, 0, 0, 0]), step=1e-3)
    with pytest.raises(ValidationError):
        # gamma(pi/2) = j sits far off the circle subgroup of i
        holonomy(lift, math.pi / 2)
    with pytest.raises(ValidationError):
        holonomy(lift, 10.0)


def test_holonomy_area_great_circle():
    q_h, q_a, ok = holonomy_area_check(_great_circle_curve(n=4096), I3, "left")
    assert ok
    assert _mod1_dist(q_h, 0.5) < 1e-7
    assert _mod1_dist(q_a, 0.5) < 1e-7


def test_holonomy_area_latitude():
    lat = latitude_circle(I3, math.pi / 3, n=4096)
    q_h, q_a, ok = holonomy_area_check(lat, I3, "left")
    assert ok and _mod1_dist(q_h, 0.75) < 1e-6
    q_h, q_a, ok = holonomy_area_check(lat, I3, "right")
    assert ok and _mod1_dist(q_h, 0.25) < 1e-6


def test_holonomy_area_doubled_curve():
    single = latitude_circle(I3, math.pi / 3, n=4096)
    double = latitude_circle(I3, math.pi / 3, n=8192, turns=2)
    q1, _, ok1 = holonomy_area_check(single, I3, "left")
    q2, _, ok2 = holonomy_area_check(double, I3, "left")
    assert ok1 and ok2
    assert _mod1_dist(q2, (2.0 * q1) % 1.0) < 1e-6
    assert _mod1_dist(q2, 0.5) < 1e-6


def test_holonomy_area_fourier():
    rng = np.random.default_rng(41)
    curve = _fourier_curve(rng)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    for side in ("left", "right"):
        q_h, q_a, ok = holonomy_area_check(curve, axis, side)
        assert ok, (side, q_h, q_a)


def test_gauss_bonnet_latitudes():
    for phi in (1.0, 0.1):
        lat = latitude_circle(I3, phi, n=2048)
        total, reference, residual = gauss_bonnet_check(lat)
        assert reference == pytest.approx(2 * math.pi)
        assert abs(residual) < 1e-5
        # the curvature part alone matches the cot(phi) oracle
        kappa_part = total - signed_area(reparametrize(lat, n=2048))
        assert abs(kappa_part - 2 * math.pi * math.cos(phi)) < 1e-4


def test_gauss_bonnet_great_circle_and_reversal():
    curve = _great_circle_curve(n=2048)
    total, _, residual = gauss_bonnet_check(curve)
    assert abs(residual) < 1e-6
    assert abs(total - 2 * math.pi) < 1e-6
    rng = np.random.default_rng(43)
    fourier = _fourier_curve(rng)
    for samples in (fourier.samples, fourier.samples[::-1].copy()):
        _, _, res = gauss_bonnet_check(SphereCurve(samples, fourier.params, closed=True))
        assert abs(res) < 1e-5


def test_gauss_bonnet_under_resolved():
    lat = latitude_circle(I3, 1.0, n=16)
    with pytest.raises(ValidationError):
        gauss_bonnet_check(lat)


def test_submersion_scaling():
    # |D(hopf) mu| = 2|mu| for horizontal mu, via central differences
    rng = np.random.default_rng(47)
    h = 1e-5
    for side in ("left", "right"):
        for _ in range(25):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            g = quat.normalize(rng.normal(size=4))
            mu = rng.normal(size=3)
            mu -= np.dot(mu, axis) * axis
            mu /= np.linalg.norm(mu)
            step = quat.exp_im(quat.from_vec3(h * mu))
            if side == "left":
                plus, minus = quat.mul(g, step), quat.mul(g, quat.conj(step))
            else:
                plus, minus = quat.mul(step, g), quat.mul(quat.conj(step), g)
            deriv = (hopf(axis, side, plus) - hopf(axis, side, minus)) / (2 * h)
            assert abs(np.dot(deriv, deriv) - 4.0) < 1e-6


def test_connection_form_area():
    # loop integral of b(gamma', fiber direction) is half the projected area
    rng = np.random.default_rng(53)
    eps = 5e-3
    n = 1024
    t = np.linspace(0.0, 2 * math.pi, n)
    from scipy.interpolate import CubicSpline

    checked = 0
    for _ in range(6):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = quat.from_vec3(axis)
        g = quat.normalize(rng.normal(size=4))
        eta = np.zeros((n, 3))
        for m in (1, 2):
            a, b = rng.normal(size=3), rng.normal(size=3)
            eta += np.cos(m * t)[:, None] * a + np.sin(m * t)[:, None] * b
        eta[-1] = eta[0]
        loop = quat.mul(g, quat.exp_im(quat.from_vec3(eps * eta)))
        loop[-1] = loop[0]
        spline = CubicSpline(t, loop, axis=0, bc_type="periodic")
        vel = spline(t, 1)
        for side, factor in (("left", 0.5), ("right", -0.5)):
            if side == "left":
                fiber = quat.mul(loop, xi)
            else:
                fiber = quat.mul(xi, loop)
            integrand = np.sum(vel * fiber, axis=1)
            alpha = np.trapezoid(integrand, t)
            proj = hopf(axis, side, loop)
            proj[-1] = proj[0]
            area = signed_area(SphereCurve(proj, t, closed=True))
            if abs(area) < 2e-6:
                continue
            assert abs(alpha - factor * area) < 0.05 * abs(factor * area), side
            checked += 1
    assert checked >= 6


def test_sphere_curve_validation():
    with pytest.raises(ValidationError):
        SphereCurve(np.array([[1.0, 0, 0], [0, 1, 0]]), np.array([0.0, 1.0]), closed=True)
    with pytest.raises(ValidationError):
        SphereCurve(np.array([[1.0, 0, 0], [0, 2.0, 0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        SphereCurve(np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.array([1.0, 0.0]))
    # chord bound: antipodal jump
    with pytest.raises(ValidationError):
        SphereCurve(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.array([0.0, 1.0]))


def test_non_finite_input_is_rejected():
    curve = _great_circle_curve(n=2001)
    bad = curve.samples.copy()
    bad[5] = [np.nan, 0.0, 0.0]
    with pytest.raises(ValidationError):
        SphereCurve(bad, curve.params, closed=True)
    params = curve.params.copy()
    params[-1] = np.inf
    with pytest.raises(ValidationError):
        SphereCurve(curve.samples, params, closed=True)
    with pytest.raises(ValidationError):
        horizontal_lift(curve, I3, "left", np.array([np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        horizontal_lift(curve, np.array([np.nan, 0.0, 0.0]), "left", np.array([1.0, 0, 0, 0]))
