"""Product immersions: construction, factorization, angle, periods, flat tori."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bileg import quat, sphere
from bileg.errors import (
    NoMaximalLattice,
    NotFactorizable,
    PreconditionError,
    ValidationError,
)
from bileg.factory import (
    Factorization,
    ImmersionGrid,
    NoLattice,
    PeriodLattice,
    angle_function,
    asymptotic_frame,
    construct,
    cubic_form_entries,
    factorize,
    flat_torus_criteria,
    from_theta,
    gauss_map,
    lie_factorize,
    period_lattice,
    projection_immersion_test,
    residual_suite,
    torus_ansatz,
)


def _exp_circle(axis):
    # one-parameter subgroup t -> exp(t axis), vectorized with derivative
    w = np.asarray(axis, float)

    def gamma(t):
        t = np.asarray(t, float)
        out = np.zeros(t.shape + (4,))
        out[..., 0] = np.cos(t)
        out[..., 1:] = np.sin(t)[..., None] * w
        return out

    def dgamma(t):
        t = np.asarray(t, float)
        out = np.zeros(t.shape + (4,))
        out[..., 0] = -np.sin(t)
        out[..., 1:] = np.cos(t)[..., None] * w
        return out

    return gamma, dgamma


G1, DG1 = _exp_circle([1.0, 0.0, 0.0])
G2, DG2 = _exp_circle([0.0, 1.0, 0.0])


def _clifford_grid(n=49, half=0.6):
    x1 = np.linspace(-half, half, n)
    x2 = np.linspace(-half, half, n)
    return construct(quat.ONE, quat.QK, G1, G2, x1, x2,
                     dgamma1=DG1, dgamma2=DG2,
                     t1_range=(-half, half), t2_range=(-half, half))


def latitude_through(start3, pole3, colat, ccw=False, n=4097):
    """Latitude circle of the given colatitude about pole3, starting at the
    point of the circle nearest start3, clockwise seen from the pole unless
    ccw; (b/4) arc-length parametrized from 0."""
    p = np.asarray(pole3, float)
    p = p / np.linalg.norm(p)
    s = np.asarray(start3, float)
    e1 = s - np.dot(s, p) * p
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(p, e1)
    sphi = math.sin(colat)
    period = math.pi * sphi
    t = np.linspace(0.0, period, n)
    tau = 2.0 * t / sphi
    sgn = 1.0 if ccw else -1.0
    plane = np.cos(tau)[:, None] * e1 + sgn * np.sin(tau)[:, None] * e2
    samples = math.cos(colat) * p + sphi * plane
    samples[-1] = samples[0]
    return sphere.SphereCurve(samples, t, closed=True, b4_length=period)


def _cap_circles(cos_colat, ccw_pair=False):
    colat = math.acos(cos_colat)
    z = np.array([0.0, 0.0, 1.0])
    tilt1 = math.cos(colat) * z + math.sin(colat) * np.array([1.0, 0.0, 0.0])
    tilt2 = math.cos(colat) * (-z) + math.sin(colat) * np.array([0.0, 1.0, 0.0])
    c1 = latitude_through(z, tilt1, colat, ccw=ccw_pair)
    c2 = latitude_through(-z, tilt2, colat, ccw=not ccw_pair)
    return c1, c2


def _poly_theta_grid(n=49, half=0.6, theta0=0.7):
    f = lambda t: 0.25 + 0.2 * np.sin(1.3 * t)
    g = lambda t: -0.15 + 0.1 * np.cos(t)
    x1 = np.linspace(-half, half, n)
    x2 = np.linspace(-half, half, n)
    return from_theta(theta0, f, g, x1, x2), f, g


# construction


def test_construct_clifford_product():
    grid = _clifford_grid()
    i, j = 10, 31
    expect = quat.mul(G2(grid.x2[j]), G1(grid.x1[i]))
    expect_y = quat.mul(G2(grid.x2[j]), quat.mul(quat.QK, G1(grid.x1[i])))
    assert np.abs(grid.X[i, j] - expect).max() < 1e-12
    assert np.abs(grid.Y[i, j] - expect_y).max() < 1e-12
    res = residual_suite(grid)
    assert max(res.values()) < 1e-9, res


def test_construct_rejects_vertical_factor():
    bad, dbad = _exp_circle([0.0, 0.0, 1.0])  # k-circle is vertical for b = k
    x = np.linspace(-0.5, 0.5, 21)
    with pytest.raises(PreconditionError, match="horizontal"):
        construct(quat.ONE, quat.QK, bad, G2, x, x, dgamma1=dbad, dgamma2=DG2)


def test_construct_rejects_wrong_speed():
    def fast(t):
        t = np.asarray(t, float)
        return G1(2.0 * t)

    x = np.linspace(-0.5, 0.5, 21)
    with pytest.raises(PreconditionError, match="arc-length"):
        construct(quat.ONE, quat.QK, fast, G2, x, x)


def test_construct_rejects_non_finite_velocity():
    # NaN residuals compare false against the tolerance and must not pass
    nan_velocity = lambda t: np.full(np.shape(t) + (4,), np.nan)
    x = np.linspace(-0.5, 0.5, 21)
    with pytest.raises(PreconditionError, match="nan"):
        construct(quat.ONE, quat.QK, G1, G2, x, x, dgamma1=nan_velocity, dgamma2=DG2)


def test_factorization_validation():
    with pytest.raises(PreconditionError):
        Factorization(quat.ONE, quat.ONE, G1, G2)  # a, b not orthogonal
    shifted = lambda t: G1(np.asarray(t, float) + 0.3)
    with pytest.raises(PreconditionError, match="identity"):
        Factorization(quat.ONE, quat.QK, shifted, G2)
    with pytest.raises(ValidationError, match="a must be finite, first bad index 0"):
        Factorization([np.nan, 0.0, 0.0, 1.0], quat.QK, G1, G2)
    with pytest.raises(ValidationError, match="b must be finite, first bad index 3"):
        Factorization(quat.ONE, [0.0, 0.0, 0.0, np.inf], G1, G2)


def test_immersion_grid_validation():
    x = np.linspace(-0.5, 0.5, 11)
    good = _clifford_grid(n=11, half=0.5)
    with pytest.raises(ValidationError, match="unit"):
        ImmersionGrid(x, x, 2.0 * good.X, good.Y)
    with pytest.raises(ValidationError, match="orthogonal"):
        ImmersionGrid(x, x, good.X, good.X)
    off = np.linspace(0.1, 1.1, 11)  # origin not on the grid
    with pytest.raises(ValidationError, match="origin"):
        ImmersionGrid(off, off, good.X, good.Y).origin()


def test_non_finite_grids_are_rejected():
    good = _clifford_grid(n=11, half=0.5)
    x = good.x1
    X = good.X.copy()
    X[3, 7, 2] = np.nan
    with pytest.raises(ValidationError, match=r"X and Y must be finite, first bad node \(3, 7\)"):
        ImmersionGrid(x, x, X, good.Y)
    Y = good.Y.copy()
    Y[4, 1, 0] = np.inf
    with pytest.raises(ValidationError, match=r"first bad node \(4, 1\)"):
        ImmersionGrid(x, x, good.X, Y)
    with pytest.raises(ValidationError, match=r"M must be finite, first bad node \(3, 7\)"):
        lie_factorize(x, x, X)
    axis = x.copy()
    axis[6] = np.nan
    with pytest.raises(ValidationError, match="x2 must be finite, first bad index 6"):
        ImmersionGrid(x, axis, good.X, good.Y)


# factorization


def test_factorize_round_trip_analytic():
    grid = _clifford_grid()
    fac = factorize(grid)
    assert np.abs(fac.a - quat.ONE).max() < 1e-12
    assert np.abs(fac.b - quat.QK).max() < 1e-12
    ts = np.linspace(-0.55, 0.55, 301)  # off-node, inside the spline range
    assert np.abs(fac.gamma1(ts) - G1(ts)).max() < 1e-7
    assert np.abs(fac.gamma2(ts) - G2(ts)).max() < 1e-7
    assert np.abs(fac.velocity1(ts) - DG1(ts)).max() < 1e-5


def test_factorize_round_trip_integrated():
    grid, f, g = _poly_theta_grid()
    fac = factorize(grid)
    # spline velocities carry O(h^3) error, so validate at a looser tol;
    # the node values themselves are exact
    rebuilt = construct(fac.a, fac.b, fac.gamma1, fac.gamma2,
                        grid.x1, grid.x2,
                        dgamma1=fac.velocity1, dgamma2=fac.velocity2,
                        t1_range=fac.t1_range, t2_range=fac.t2_range,
                        tol=1e-5)
    assert np.abs(rebuilt.X - grid.X).max() < 1e-6
    assert np.abs(rebuilt.Y - grid.Y).max() < 1e-6


def test_factorize_rejects_non_product():
    x = np.linspace(-0.6, 0.6, 49)
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    u = xx1 + xx2 + 0.4 * xx1 * xx2  # not separable, so not a product
    X = np.stack([np.cos(u), np.sin(u), 0 * u, 0 * u], axis=-1)
    grid = ImmersionGrid(x, x, X, quat.mul(X, quat.QK))
    with pytest.raises(NotFactorizable):
        factorize(grid)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_non_finite_tol_is_rejected(tol):
    # a NaN tolerance compares false in both directions, so it must not reach a verdict
    x = np.linspace(-0.6, 0.6, 21)
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    twisted = np.stack([np.cos(xx1 * xx2), np.sin(xx1 * xx2), 0 * xx1, 0 * xx1], axis=-1)
    with pytest.raises(ValidationError, match="tol must be finite"):
        construct(quat.ONE, quat.QK, G1, G2, x, x, dgamma1=DG1, dgamma2=DG2, tol=tol)
    with pytest.raises(ValidationError, match="tol must be finite"):
        factorize(ImmersionGrid(x, x, twisted, quat.mul(twisted, quat.QK)), tol=tol)
    with pytest.raises(ValidationError, match="tol must be finite"):
        lie_factorize(x, x, twisted, tol=tol)


def test_lie_factorize_clifford():
    x = np.arange(-100, 101) * 0.01
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    M = quat.mul(G2(xx2), G1(xx1))
    fac = lie_factorize(x, x, M)
    assert fac.criterion_residual < 1e-8
    assert fac.reconstruction_residual < 1e-8
    assert np.abs(fac.C - quat.ONE).max() < 1e-12
    assert np.abs(fac.A - G1(x)).max() < 1e-8
    assert np.abs(fac.B - G2(x)).max() < 1e-8


def test_lie_factorize_constant():
    x = np.linspace(-0.5, 0.5, 21)
    c = quat.normalize(np.array([1.0, 2.0, -3.0, 4.0]))
    M = np.broadcast_to(c, (21, 21, 4)).copy()
    fac = lie_factorize(x, x, M)
    assert np.abs(fac.A - quat.ONE).max() < 1e-12
    assert np.abs(fac.B - quat.ONE).max() < 1e-12
    assert np.abs(fac.C - c).max() < 1e-12


_COMPONENTS = st.floats(-1.0, 1.0)
_VECTOR3 = st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS)


def _unit(v):
    v = np.asarray(v, float)
    norm = np.linalg.norm(v)
    assume(norm > 0.2)
    return v / norm


def _orthogonal_unit(v, axis):
    v = np.asarray(v, float)
    return _unit(v - np.dot(v, axis) * axis)


@settings(max_examples=30, deadline=None)
@given(
    a=st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS, _COMPONENTS),
    v=_VECTOR3, r1=_VECTOR3, r2=_VECTOR3,
    below=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    above=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    step=st.floats(0.05, 0.1),
    twist=st.floats(0.02, 0.05),
)
def test_factorizations_round_trip(a, v, r1, r2, below, above, step, twist):
    # orthonormal (a, b) and one-parameter factors horizontal for their axes
    a = _unit(a)
    b = quat.mul(a, quat.from_vec3(_unit(v)))
    g1, dg1 = _exp_circle(_orthogonal_unit(r1, quat.mul(quat.conj(a), b)[1:]))
    g2, dg2 = _exp_circle(_orthogonal_unit(r2, quat.mul(b, quat.conj(a))[1:]))
    x1 = step * np.arange(-below[0], above[0] + 1)
    x2 = step * np.arange(-below[1], above[1] + 1)
    grid = construct(a, b, g1, g2, x1, x2, dgamma1=dg1, dgamma2=dg2)

    fac = factorize(grid)
    lie = lie_factorize(x1, x2, grid.X)
    for got, want in ((fac.a, a), (fac.b, b), (lie.C, a),
                      (lie.A, fac.gamma1(x1)), (lie.A, g1(x1)),
                      (lie.B, fac.gamma2(x2)), (lie.B, g2(x2))):
        assert np.abs(got - want).max() < 1e-12

    # a left twist by a non-separable angle keeps X, Y unit and orthogonal
    turn = g1(twist * np.multiply.outer(x1, x2))
    Xp, Yp = quat.mul(turn, grid.X), quat.mul(turn, grid.Y)
    with pytest.raises(NotFactorizable):
        factorize(ImmersionGrid(x1, x2, Xp, Yp))
    with pytest.raises(NotFactorizable):
        lie_factorize(x1, x2, Xp)


def test_lie_factorize_counterexample():
    x = np.linspace(-1.0, 1.0, 81)
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    M = np.zeros((81, 81, 4))
    M[..., 0] = np.cos(xx1 * xx2)
    M[..., 1] = np.sin(xx1 * xx2)
    with pytest.raises(NotFactorizable, match="criterion"):
        lie_factorize(x, x, M)


# residual diagnostics


def test_residual_suite_flags_non_bilegendrian():
    x = np.linspace(-0.6, 0.6, 49)
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    u = xx1 + xx2 + 0.4 * xx1 * xx2
    X = np.stack([np.cos(u), np.sin(u), 0 * u, 0 * u], axis=-1)
    grid = ImmersionGrid(x, x, X, quat.mul(X, quat.QK))
    res = residual_suite(grid)
    assert max(res.values()) > 0.1


def test_residual_suite_propagates_nan():
    # one NaN velocity sample poisons every residual that reads d2X or d2Y
    good = _clifford_grid(n=21, half=0.5)
    bad_node = good.x2[13]

    def dgamma2(t):
        out = DG2(t)
        out[np.asarray(t) == bad_node] = np.nan
        return out

    factors = Factorization(quat.ONE, quat.QK, G1, G2, DG1, dgamma2)
    grid = ImmersionGrid(good.x1, good.x2, good.X, good.Y, factors=factors)
    res = residual_suite(grid)
    assert all(math.isnan(value) for value in res.values()), res


def test_residual_suite_refinement_order():
    # finite-difference residuals of a true immersion drop at 4th order
    f = lambda t: 0.3 * np.cos(t)
    g = lambda t: 0.2 * np.sin(t)
    vals = {}
    for n in (41, 81):
        x = np.linspace(-0.4, 0.4, n)
        grid = from_theta(0.8, f, g, x, x)
        bare = ImmersionGrid(grid.x1, grid.x2, grid.X, grid.Y)
        vals[n] = residual_suite(bare)
    checked = 0
    for key, coarse in vals[41].items():
        if coarse < 1e-10:  # below this the stencils sit on roundoff noise
            continue
        assert vals[81][key] < coarse / 4.0, (key, coarse, vals[81][key])
        checked += 1
    assert checked >= 6


# cubic form and angle


def test_cubic_form_vanishes_for_clifford():
    ents = cubic_form_entries(_clifford_grid())
    worst = max(np.abs(v).max() for v in ents.values())
    assert worst < 1e-9


def test_cubic_form_matches_angle_derivatives():
    grid, f, g = _poly_theta_grid()
    ents = cubic_form_entries(grid)
    sl = slice(2, -2)  # one-sided stencils are the noisiest
    assert np.abs(ents["C111"][sl, sl] / (-4.0) - f(grid.x1)[sl, None]).max() < 1e-5
    assert np.abs(ents["C222"][sl, sl] / (-4.0) - g(grid.x2)[None, sl]).max() < 1e-5
    # total symmetry and the vanishing entries
    assert np.abs(ents["C112"] - ents["C211"]).max() < 1e-6
    assert np.abs(ents["C221"] - ents["C122"]).max() < 1e-6
    assert np.abs(ents["C122"]).max() < 1e-6
    assert np.abs(ents["C211"]).max() < 1e-6
    hat = max(np.abs(ents[k]).max() for k in ents if k.startswith("Chat"))
    assert hat < 1e-6


def test_angle_clifford_quarter_pi():
    ang = angle_function(_clifford_grid())
    assert np.abs(ang.theta - math.pi / 4).max() < 1e-9
    assert abs(ang.theta0 - math.pi / 2) < 1e-9
    assert ang.wave_residual < 1e-9
    assert ang.split_residual < 1e-9
    assert ang.frame_residual < 1e-9


def test_angle_round_trip_from_theta():
    grid, f, g = _poly_theta_grid(theta0=0.7)
    ang = angle_function(grid)
    # theta0 is a gauge invariant only through exp(i theta0)
    assert abs(np.exp(1j * ang.theta0) - np.exp(1j * 0.7)) < 1e-7
    assert np.abs(ang.dtheta1 - f(ang.x1)).max() < 1e-6
    assert np.abs(ang.dtheta2 - g(ang.x2)).max() < 1e-6
    split = ang.theta1[:, None] + ang.theta2[None, :]
    assert np.abs(split - ang.theta).max() < 1e-6
    assert ang.wave_residual < 1e-5
    assert ang.frame_residual < 1e-6


def test_angle_undefined_on_constant_grid():
    x = np.linspace(-0.5, 0.5, 11)
    X = np.broadcast_to(quat.ONE, (11, 11, 4)).copy()
    Y = np.broadcast_to(quat.QK, (11, 11, 4)).copy()
    with pytest.raises(PreconditionError, match="vanish"):
        angle_function(ImmersionGrid(x, x, X, Y))


# asymptotic frames


def test_asymptotic_frame_clifford():
    grid = _clifford_grid(n=65, half=0.64)  # h = 0.02 keeps stencil error low
    for index, eps in ((1, 1.0), (2, -1.0)):
        fr = asymptotic_frame(grid, index)
        assert fr.eps == eps
        assert np.abs(fr.tau + eps).max() < 1e-6
        assert np.abs(fr.kappa).max() < 1e-6
        assert fr.tridiagonal_residual < 1e-6
        frame = np.stack([fr.gamma, fr.T, fr.N, fr.B], axis=-1)
        dets = np.linalg.det(frame)
        assert np.abs(dets - 1.0).max() < 1e-9


def test_asymptotic_frame_curvature_matches_angle():
    f = lambda t: 0.25 + 0.2 * np.sin(1.3 * t)
    g = lambda t: -0.15 + 0.1 * np.cos(t)
    x = np.linspace(-0.64, 0.64, 65)
    grid = from_theta(0.7, f, g, x, x)
    ang = angle_function(grid)
    fr1 = asymptotic_frame(grid, 1, ang)
    fr2 = asymptotic_frame(grid, 2, ang)
    # kappa_i = -2 eps_i dtheta_i
    assert np.abs(fr1.kappa + 2.0 * f(x)).max() < 1e-5
    assert np.abs(fr2.kappa - 2.0 * g(x)).max() < 1e-5
    assert fr1.tau_residual < 1e-6
    assert fr2.tau_residual < 1e-6
    assert fr1.kappa_residual < 1e-5
    assert fr2.kappa_residual < 1e-5


# prescribed-angle construction


def test_from_theta_clifford_limit():
    x = np.linspace(-0.6, 0.6, 41)
    zero = lambda t: np.zeros_like(np.asarray(t, float))
    grid = from_theta(math.pi / 2, zero, zero, x, x)
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    expect = quat.mul(G2(xx2), G1(xx1))
    expect_y = quat.mul(G2(xx2), quat.mul(quat.QK, G1(xx1)))
    assert np.abs(grid.X - expect).max() < 1e-8
    assert np.abs(grid.Y - expect_y).max() < 1e-8


def test_from_theta_random_potentials():
    rng = np.random.default_rng(7)
    c1 = rng.uniform(-0.3, 0.3, size=3)
    c2 = rng.uniform(-0.3, 0.3, size=3)
    f = lambda t: c1[0] + c1[1] * t + c1[2] * t * t
    g = lambda t: c2[0] + c2[1] * t + c2[2] * t * t
    theta0 = rng.uniform(0.5, 1.0)
    x = np.linspace(-0.5, 0.5, 41)
    grid = from_theta(theta0, f, g, x, x)
    res = residual_suite(grid)
    assert max(res.values()) < 1e-6, res
    ang = angle_function(grid)
    assert abs(np.exp(1j * ang.theta0) - np.exp(1j * theta0)) < 1e-7
    assert np.abs(ang.dtheta1 - f(x)).max() < 1e-6
    assert np.abs(ang.dtheta2 - g(x)).max() < 1e-6


def test_projection_immersion_margin():
    grid, f, g = _poly_theta_grid(theta0=0.7)
    ang = angle_function(grid)
    immersed, margin = projection_immersion_test(ang)
    assert immersed
    rem = ang.theta % (math.pi / 2)
    expect = np.minimum(rem, math.pi / 2 - rem).min()
    assert abs(margin - expect) < 1e-12
    assert margin > 0.05


# doubly periodic products


def test_torus_ansatz_great_circles():
    c1 = latitude_through([0, 0, 1], [1, 0, 0], math.pi / 2)
    c2 = latitude_through([0, 0, -1], [0, 1, 0], math.pi / 2, ccw=True)
    grid, lat = torus_ansatz(quat.ONE, quat.QK, c1, c2, n1=65, n2=65)
    assert isinstance(lat, PeriodLattice)
    assert abs(lat.p1 - math.pi) < 1e-9
    assert abs(lat.p2 - math.pi) < 1e-9
    assert lat.q1 == Fraction(1, 2)
    assert lat.q2 == Fraction(1, 2)
    assert lat.contains(1, 1) and lat.contains(2, 0) and lat.contains(0, 2)
    assert not lat.contains(1, 0) and not lat.contains(0, 1)
    rep = flat_torus_criteria(grid, lat)
    assert rep.satisfied
    assert rep.half_integer_rotations
    assert rep.immersed
    assert abs(rep.margin - math.pi / 4) < 1e-6
    assert abs(rep.kappa1_integral) < 1e-6
    assert abs(rep.kappa2_integral) < 1e-6


def test_torus_ansatz_cap_two_thirds():
    c1, c2 = _cap_circles(1.0 / 3.0)
    assert abs(sphere.signed_area(c1) - 4 * math.pi / 3) < 1e-5
    assert abs(sphere.signed_area(c2) + 4 * math.pi / 3) < 1e-5
    grid, lat = torus_ansatz(quat.ONE, quat.QK, c1, c2, n1=129, n2=129)
    assert isinstance(lat, PeriodLattice)
    assert lat.q1 == Fraction(2, 3)
    assert lat.q2 == Fraction(2, 3)
    assert abs(lat.q1_measured - 2.0 / 3.0) < 1e-9
    assert abs(lat.p1 - math.pi * math.sin(math.acos(1.0 / 3.0))) < 1e-9
    # lattice rule m = n mod 3
    assert lat.contains(1, 1) and lat.contains(3, 0) and lat.contains(0, 3)
    assert not lat.contains(1, 2) and not lat.contains(2, 1) and not lat.contains(1, 0)
    rep = flat_torus_criteria(grid, lat)
    assert not rep.satisfied
    assert not rep.half_integer_rotations
    assert not rep.immersed  # the angle crosses a quarter-turn multiple
    assert rep.margin < 1e-9
    assert abs(rep.kappa1_integral + 2 * math.pi / 3) < 1e-5
    assert abs(rep.kappa2_integral + 2 * math.pi / 3) < 1e-5


def test_torus_ansatz_rejects_wrong_start():
    c1 = latitude_through([0, 1, 0], [1, 0, 0], math.pi / 2)  # starts at j, not k
    c2 = latitude_through([0, 0, -1], [0, 1, 0], math.pi / 2, ccw=True)
    with pytest.raises(PreconditionError):
        torus_ansatz(quat.ONE, quat.QK, c1, c2, n1=17, n2=17)


def test_torus_ansatz_irrational_rotation():
    c1, c2 = _cap_circles(1.0 / math.sqrt(5.0))
    grid, lat = torus_ansatz(quat.ONE, quat.QK, c1, c2, n1=33, n2=33)
    assert isinstance(lat, NoLattice)
    assert abs(lat.q1_measured - (1.0 + 1.0 / math.sqrt(5.0)) / 2.0) < 1e-3
    assert lat.reason


def test_period_lattice_detection():
    fac = Factorization(quat.ONE, quat.QK, G1, G2,
                        t1_range=(0.0, 2 * math.pi), t2_range=(0.0, 2 * math.pi))
    lat = period_lattice(fac)
    assert abs(lat.p1 - math.pi) < 1e-6
    assert abs(lat.p2 - math.pi) < 1e-6
    assert lat.q1 == Fraction(1, 2)
    assert lat.q2 == Fraction(1, 2)
    assert lat.rule_residual < 1e-9


def test_period_lattice_wrong_period():
    fac = Factorization(quat.ONE, quat.QK, G1, G2,
                        t1_range=(0.0, 2 * math.pi), t2_range=(0.0, 2 * math.pi))
    with pytest.raises(NoMaximalLattice):
        period_lattice(fac, p1=math.pi / 2, p2=math.pi)


def test_period_lattice_non_periodic_factor():
    def drift(t):
        t = np.asarray(t, float)
        vec = np.stack([t, 0.21 * t * t, np.zeros_like(t)], axis=-1)
        return quat.exp_im(quat.from_vec3(vec))

    fac = Factorization(quat.ONE, quat.QK, drift, G2,
                        t1_range=(0.0, 2 * math.pi), t2_range=(0.0, 2 * math.pi))
    with pytest.raises(NoMaximalLattice, match="close"):
        period_lattice(fac)


def test_flat_torus_requires_lattice():
    grid = _clifford_grid(n=11, half=0.5)
    missing = NoLattice(0.3, 0.4, "no rational fit")
    with pytest.raises(ValidationError):
        flat_torus_criteria(grid, missing)


# Gauss map


def test_gauss_map_defining_equations():
    fac = Factorization(quat.ONE, quat.QK, G1, G2,
                        t1_range=(0.0, 2 * math.pi), t2_range=(0.0, 2 * math.pi))
    gm = gauss_map(fac)
    assert gm.equation_residual < 1e-12
    a_check = quat.mul(gm.m, quat.mul(quat.QJ, quat.conj(gm.n)))
    b_check = quat.mul(gm.m, quat.mul(quat.QK, quat.conj(gm.n)))
    assert np.abs(a_check - quat.ONE).max() < 1e-12
    assert np.abs(b_check - quat.QK).max() < 1e-12
    # the n-fiber is pinned by sending the first axis to -vec(conj(a) b)
    assert np.abs(quat.ad(gm.n, quat.QI)[1:] + np.array([0.0, 0.0, 1.0])).max() < 1e-12
    # factor curves live on the unit sphere and close with the factors
    assert np.abs(np.linalg.norm(gm.from_gamma1, axis=-1) - 1.0).max() < 1e-9
    assert np.abs(np.linalg.norm(gm.from_gamma2, axis=-1) - 1.0).max() < 1e-9
    half = (len(gm.x1) - 1) // 2
    assert np.abs(gm.from_gamma1[: half + 1] - gm.from_gamma1[half:]).max() < 1e-9


def test_gauss_map_general_axis():
    rng = np.random.default_rng(11)
    a = quat.normalize(rng.normal(size=4))
    v = rng.normal(size=4)
    b = quat.normalize(v - quat.dot(v, a) * a)
    assert abs(quat.dot(a, b)) < 1e-12
    ga, _ = _exp_circle(quat.to_vec3(quat.normalize(quat.mul(quat.conj(a), b))))
    gb, _ = _exp_circle(quat.to_vec3(quat.normalize(quat.mul(b, quat.conj(a)))))
    fac = Factorization(a, b, ga, gb, t1_range=(0.0, math.pi), t2_range=(0.0, math.pi))
    gm = gauss_map(fac, samples=65)
    assert gm.equation_residual < 1e-10
    assert abs(np.linalg.norm(gm.m) - 1.0) < 1e-9
    assert abs(np.linalg.norm(gm.n) - 1.0) < 1e-9


def test_torus_ansatz_general_orthonormal_pair():
    # a and b need not commute: c2 is lifted about -b.conj(a), which has the
    # horizontal distribution construct checks for the second factor
    rng = np.random.default_rng(17)
    for _ in range(2):
        a = quat.normalize(rng.normal(size=4))
        b = rng.normal(size=4)
        b = quat.normalize(b - np.dot(a, b) * a)
        s1 = quat.mul(quat.conj(a), b)[1:]
        s2 = -quat.mul(b, quat.conj(a))[1:]
        c1 = latitude_through(s1, np.cross(s1, rng.normal(size=3)), math.pi / 2, n=2049)
        c2 = latitude_through(s2, np.cross(s2, rng.normal(size=3)), math.pi / 2,
                              ccw=True, n=2049)
        grid, lat = torus_ansatz(a, b, c1, c2, n1=33, n2=33)
        assert isinstance(lat, PeriodLattice)
        assert lat.q1 == Fraction(1, 2) and lat.q2 == Fraction(1, 2)
        again = period_lattice(grid.factors, p1=lat.p1, p2=lat.p2)
        assert again.q1 == lat.q1 and again.q2 == lat.q2
