"""Constant-curvature patches: Gauss lifts, flat metrics, Chebyshev nets, sine-Gordon."""

import math

import numpy as np
import pytest

from bileg import cec
from bileg._fd import d_uniform
from bileg.errors import PreconditionError, ValidationError


def sphere_patch(r, n=129, band=0.6):
    # round sphere of radius r with outward normal, away from the poles
    u = np.linspace(band, math.pi - band, n)
    v = np.linspace(0.0, math.pi, n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    nh = np.stack(
        [np.sin(uu) * np.cos(vv), np.sin(uu) * np.sin(vv), np.cos(uu)], axis=-1
    )
    return cec.SurfacePatch("euclidean", u, v, r * nh, nh)


def graph_patch(n=201):
    # graph z = f(x, y) with closed-form unit normal
    x = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = 0.3 * np.sin(1.3 * X) * np.cos(0.7 * Y) + 0.1 * X * Y
    fx = 0.39 * np.cos(1.3 * X) * np.cos(0.7 * Y) + 0.1 * Y
    fy = -0.21 * np.sin(1.3 * X) * np.sin(0.7 * Y) + 0.1 * X
    e = np.stack([X, Y, f], axis=-1)
    den = np.sqrt(1.0 + fx**2 + fy**2)
    nu = np.stack([-fx / den, -fy / den, 1.0 / den], axis=-1)
    return cec.SurfacePatch("euclidean", x, x, e, nu)


class TestSurfacePatch:
    def test_rejects_non_unit_normal(self):
        p = sphere_patch(1.0, n=17)
        with pytest.raises(ValidationError, match="unit"):
            cec.SurfacePatch("euclidean", p.x1, p.x2, p.e, 1.1 * p.nu)

    def test_rejects_unknown_ambient(self):
        p = sphere_patch(1.0, n=17)
        with pytest.raises(ValidationError, match="ambient"):
            cec.SurfacePatch("minkowski", p.x1, p.x2, p.e, p.nu)

    def test_hyperboloid_membership_enforced(self):
        cyl = cec.hyperbolic_cylinder_patch(1.0, 17)
        with pytest.raises(ValidationError, match="satisfy"):
            cec.SurfacePatch("hyperboloid", cyl.x1, cyl.x2, 1.5 * cyl.e, cyl.nu)

    def test_rejects_non_finite_nodes(self):
        p = sphere_patch(1.0, n=17)
        e, nu = p.e.copy(), p.nu.copy()
        e[2, 9, 1] = np.nan
        message = r"e and nu must be finite, first bad node \(2, 9\)"
        with pytest.raises(ValidationError, match=message):
            cec.SurfacePatch("euclidean", p.x1, p.x2, e, p.nu)
        nu[11, 0, 2] = np.nan
        with pytest.raises(ValidationError, match=r"first bad node \(11, 0\)"):
            cec.SurfacePatch("euclidean", p.x1, p.x2, p.e, nu)


class TestFundamentalForms:
    def test_round_sphere_shape(self):
        # outward normal: shape operator is Id/r, det(shape) = 1/r^2
        for r in (1.0, 2.0):
            forms = cec.fundamental_forms(sphere_patch(r))
            eye = np.broadcast_to(np.eye(2) / r, forms.shape.shape)
            assert np.abs(forms.shape - eye).max() < 1e-8
            assert np.abs(forms.det_shape - 1.0 / r**2).max() < 1e-8
            assert forms.symmetry_residual < 1e-9
            assert forms.third_form_residual < 1e-8

    def test_plane_has_zero_second_form(self):
        x = np.linspace(-1.0, 1.0, 33)
        X, Y = np.meshgrid(x, x, indexing="ij")
        e = np.stack([X, Y, np.zeros_like(X)], axis=-1)
        nu = np.zeros_like(e)
        nu[..., 2] = 1.0
        forms = cec.fundamental_forms(cec.SurfacePatch("euclidean", x, x, e, nu))
        assert np.abs(forms.II).max() == 0.0
        assert np.abs(forms.III).max() == 0.0
        assert np.abs(forms.I - np.eye(2)).max() < 1e-12

    def test_pseudosphere_det_is_minus_one(self):
        forms = cec.fundamental_forms(cec.pseudosphere_patch(129))
        assert np.abs(forms.det_shape + 1.0).max() < 1e-4

    def test_pseudosphere_principal_curvatures(self):
        patch = cec.pseudosphere_patch(129)
        forms = cec.fundamental_forms(patch)
        lam = np.sort(np.linalg.eigvals(forms.shape).real, axis=-1)
        u = patch.x1[:, None] * np.ones((1, patch.x2.size))
        lo = np.minimum(-1.0 / np.sinh(u), np.sinh(u))
        hi = np.maximum(-1.0 / np.sinh(u), np.sinh(u))
        assert np.abs(lam[..., 0] - lo).max() < 1e-5
        assert np.abs(lam[..., 1] - hi).max() < 1e-5

    def test_cylinder_principal_curvatures(self):
        forms = cec.fundamental_forms(cec.hyperbolic_cylinder_patch(1.0, 65))
        lam = np.sort(np.linalg.eigvals(forms.shape).real, axis=-1)
        assert np.abs(lam[..., 0] - math.tanh(1.0)).max() < 1e-9
        assert np.abs(lam[..., 1] - 1.0 / math.tanh(1.0)).max() < 1e-9
        assert np.abs(forms.det_shape - 1.0).max() < 1e-9

    def test_degenerate_first_form_rejected(self):
        # surface collapsed onto a curve: I is singular everywhere
        x = np.linspace(0.0, 1.0, 17)
        X, _ = np.meshgrid(x, x, indexing="ij")
        e = np.stack([X, np.zeros_like(X), np.zeros_like(X)], axis=-1)
        nu = np.zeros_like(e)
        nu[..., 2] = 1.0
        patch = cec.SurfacePatch("euclidean", x, x, e, nu)
        with pytest.raises(PreconditionError, match="degenerate"):
            cec.fundamental_forms(patch)


class TestGaussLift:
    def test_unit_sphere_is_plus_lagrangian(self):
        lift = cec.gauss_lift(sphere_patch(1.0), 1.0)
        res = lift.residuals
        assert res["membership"] < 1e-9
        assert res["w_tangency"] < 1e-6
        assert res["omega_i"] < 1e-6
        assert res["derivative_identity"] < 1e-6
        # det(shape) = +k: lagrangian for the + sign, necessarily not for -
        assert res["omega_k_plus"] < 1e-6
        assert res["omega_k_minus"] > 0.1

    def test_pseudosphere_is_minus_lagrangian(self):
        lift = cec.gauss_lift(cec.pseudosphere_patch(129), 1.0)
        res = lift.residuals
        assert res["w_tangency"] < 1e-6
        assert res["omega_i"] < 1e-6
        assert res["omega_k_minus"] < 1e-6
        assert res["omega_k_plus"] > 0.1

    def test_hyperbolic_cylinder_lift(self):
        lift = cec.gauss_lift(cec.hyperbolic_cylinder_patch(1.0, 65), 1.0)
        res = lift.residuals
        assert res["membership"] < 1e-9
        assert res["w_tangency"] < 1e-4
        assert res["omega_i"] < 1e-9
        assert res["derivative_identity"] < 1e-9
        assert res["omega_k_plus"] < 1e-9
        assert res["omega_k_minus"] > 0.1

    def test_derivative_identity_on_generic_graph(self):
        # the lift tangent must be (De xi, De A xi / sqrt(k)) even off the CEC locus
        lift = cec.gauss_lift(graph_patch(), 1.0)
        res = lift.residuals
        assert res["membership"] < 1e-9
        assert res["w_tangency"] < 1e-6
        assert res["omega_i"] < 1e-6
        assert res["derivative_identity"] < 1e-6

    def test_wrong_k_breaks_invariance(self):
        # unit sphere has det(shape) = 1; lifting with k = 1.44 must fail the test
        lift = cec.gauss_lift(sphere_patch(1.0), 1.44)
        assert lift.residuals["omega_k_plus"] > 0.01

    def test_perturbed_normal_breaks_lift(self):
        patch = cec.pseudosphere_patch(65)
        t1 = d_uniform(patch.e, patch.steps[0], 0)
        t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
        nu_bad = patch.nu + 0.05 * t1
        nu_bad /= np.linalg.norm(nu_bad, axis=-1, keepdims=True)
        bad = cec.SurfacePatch("euclidean", patch.x1, patch.x2, patch.e, nu_bad)
        lift = cec.gauss_lift(bad, 1.0)
        assert lift.residuals["w_tangency"] > 1e-3
        assert lift.residuals["omega_k_minus"] > 1e-3

    def test_rejects_nonpositive_k(self):
        patch = sphere_patch(1.0, n=17)
        with pytest.raises(ValidationError, match="positive"):
            cec.gauss_lift(patch, 0.0)
        with pytest.raises(ValidationError, match="positive"):
            cec.gauss_lift(patch, -1.0)


class TestFlatMetric:
    def test_cylinder_minus_metric_is_constant(self):
        # det(shape) = +k branch: h = I - III/k, signature (+, -)
        fm = cec.flat_metric(cec.hyperbolic_cylinder_patch(1.0, 65), 1.0, "-")
        target = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert not fm.mask.any()
        assert np.abs(fm.h - target).max() < 1e-4
        assert fm.curvature_residual < 1e-3

    def test_pseudosphere_plus_metric_is_identity(self):
        # det(shape) = -k branch: h = I + III/k is a flat Riemannian metric
        fm = cec.flat_metric(cec.pseudosphere_patch(129), 1.0, "+")
        assert not fm.mask.any()
        assert np.abs(fm.h - np.eye(2)).max() < 1e-4
        assert fm.curvature_residual < 1e-3

    def test_umbilic_sphere_is_fully_masked(self):
        # h = I - III/k vanishes identically on the unit sphere; every node is umbilic
        fm = cec.flat_metric(sphere_patch(1.0), 1.0, "-")
        assert fm.mask.all()
        assert fm.curvature_residual == 0.0
        assert np.abs(fm.h).max() < 1e-8

    def test_wrong_k_is_a_precondition_failure(self):
        with pytest.raises(PreconditionError, match="det"):
            cec.flat_metric(sphere_patch(2.0), 1.0, "-")

    def test_rejects_bad_sign(self):
        with pytest.raises(ValidationError, match="sign"):
            cec.flat_metric(sphere_patch(1.0, n=17), 1.0, "0")

    def test_pullback_matches_form_combination(self):
        # lift pullback of the split metric reproduces I - III/k on the nose
        patch = cec.hyperbolic_cylinder_patch(1.0, 65)
        lift = cec.gauss_lift(patch, 1.0)
        forms = cec.fundamental_forms(patch)
        pb = lift.pullback_metric(sign=-1.0)
        assert np.abs(pb - (forms.I - forms.III)).max() < 1e-9
        fm = cec.flat_metric(patch, 1.0, "-")
        assert np.abs(pb - fm.h).max() < 1e-9
        # contract against a few fixed tangent pairs as well
        rng = np.random.default_rng(3)
        for _ in range(4):
            a, b = rng.normal(size=2), rng.normal(size=2)
            lhs = np.einsum("...ab,a,b->...", pb, a, b)
            rhs = np.einsum("...ab,a,b->...", forms.I - forms.III, a, b)
            assert np.abs(lhs - rhs).max() < 1e-9


class TestChebyshev:
    def test_quarter_pi_forms(self):
        x = np.linspace(-1.0, 1.0, 17)
        theta = np.full((17, 17), math.pi / 4)
        forms = cec.chebyshev_forms(cec.ThetaGrid(x, x, theta, k=1.0))
        assert np.abs(forms.I - 0.5 * np.eye(2)).max() < 1e-12
        assert np.abs(forms.II - 0.5 * np.diag([1.0, -1.0])).max() < 1e-12
        assert np.abs(forms.III - 0.5 * np.eye(2)).max() < 1e-12
        assert np.abs(forms.det_shape + 1.0).max() < 1e-12

    def test_det_shape_is_minus_k(self):
        rng = np.random.default_rng(5)
        x = np.linspace(-1.0, 1.0, 21)
        theta = 0.2 + 1.1 * rng.random((21, 21))
        for k in (0.5, 1.0, 2.7):
            forms = cec.chebyshev_forms(cec.ThetaGrid(x, x, theta, k=k))
            assert np.abs(forms.det_shape + k).max() < 1e-10
            # the + flat metric is the standard net metric: identically Id
            assert np.abs(forms.I + forms.III / k - np.eye(2)).max() < 1e-12

    def test_diagonals_are_asymptotic(self):
        rng = np.random.default_rng(6)
        x = np.linspace(-1.0, 1.0, 21)
        theta = 0.2 + 1.1 * rng.random((21, 21))
        forms = cec.chebyshev_forms(cec.ThetaGrid(x, x, theta, k=1.3))
        for d in (np.array([1.0, 1.0]), np.array([1.0, -1.0])):
            val = np.einsum("...ab,a,b->...", forms.II, d, d)
            assert np.abs(val).max() < 1e-12

    def test_rejects_theta_outside_open_range(self):
        x = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(PreconditionError, match="open interval"):
            cec.chebyshev_forms(cec.ThetaGrid(x, x, np.full((9, 9), math.pi / 2), k=1.0))
        with pytest.raises(PreconditionError):
            cec.chebyshev_forms(cec.ThetaGrid(x, x, np.zeros((9, 9)), k=1.0))


class TestSineGordon:
    def test_gudermannian_solves_k_one(self):
        # theta(y) = arctan(sinh y) solves theta_xx - theta_yy = (k/2) sin 2theta, k=1, c=0
        x = np.linspace(-1.0, 1.0, 9)
        y = np.linspace(0.1, 3.0, 1001)
        theta = np.arctan(np.sinh(y))[None, :] * np.ones((9, 1))
        rep = cec.sine_gordon_residual(cec.ThetaGrid(x, y, theta, k=1.0))
        assert np.abs(rep.residual).max() < 1e-6
        assert rep.area_residual < 1e-6

    def test_constant_half_pi_with_matching_c(self):
        # sin(2 theta) = 0 at theta = pi/2, so any k = c gives a solution
        x = np.linspace(-1.0, 1.0, 33)
        theta = np.full((33, 33), math.pi / 2)
        rep = cec.sine_gordon_residual(cec.ThetaGrid(x, x, theta, k=2.0, c=2.0))
        assert np.abs(rep.residual).max() < 1e-10

    def test_linear_theta_measures_forcing_term(self):
        # theta = x: residual is exactly -( (k-c)/2 ) sin 2x
        x = np.linspace(0.2, 1.2, 201)
        theta = x[:, None] * np.ones((1, 201))
        rep = cec.sine_gordon_residual(cec.ThetaGrid(x, x, theta, k=1.0))
        expect = -0.5 * np.sin(2.0 * theta)
        assert np.abs(rep.residual - expect).max() < 1e-10

    def test_rejects_nonpositive_k(self):
        x = np.linspace(-1.0, 1.0, 9)
        for k in (-1.0, float("nan")):
            with pytest.raises(ValidationError, match="positive"):
                cec.ThetaGrid(x, x, np.zeros((9, 9)), k=k)

    def test_rejects_non_finite_theta(self):
        x = np.linspace(-1.0, 1.0, 9)
        theta = np.zeros((9, 9))
        theta[4, 2] = np.nan
        with pytest.raises(ValidationError, match=r"theta must be finite, first bad node \(4, 2\)"):
            cec.ThetaGrid(x, x, theta, k=1.0)


class TestHazzidaki:
    def test_wave_solution_is_exact(self):
        # theta = a + b(x + y): theta_uv = 0 exactly, even under differencing
        x = np.linspace(-1.0, 1.0, 65)
        X, Y = np.meshgrid(x, x, indexing="ij")
        rep = cec.hazzidaki(cec.ThetaGrid(x, x, 0.7 + 0.1 * (X + Y), k=1.0))
        assert rep.lhs < 1e-12
        assert rep.sign_constant
        assert rep.holds is True

    def test_separable_trig_has_tiny_area(self):
        # theta_1(x+y) + theta_2(x-y) makes the mixed derivative vanish analytically
        x = np.linspace(-1.0, 1.0, 129)
        X, Y = np.meshgrid(x, x, indexing="ij")
        theta = 0.8 + 0.1 * np.sin(X + Y) + 0.1 * np.cos(X - Y)
        rep = cec.hazzidaki(cec.ThetaGrid(x, x, theta, k=1.0), tol=1e-6)
        assert rep.lhs < 1e-6
        assert rep.sign_constant
        assert rep.holds is True
        assert rep.lhs <= rep.rhs

    def test_quadratic_corner_telescoping(self):
        # theta = (x^2 - y^2)/8: theta_uv = 1/4 on the rotated square, so the
        # area integral telescopes to the corner sum and both equal 1
        x = np.linspace(-1.0, 1.0, 161)
        X, Y = np.meshgrid(x, x, indexing="ij")
        rep = cec.hazzidaki(cec.ThetaGrid(x, x, (X**2 - Y**2) / 8.0, k=1.0), tol=1e-6)
        assert abs(rep.lhs - 1.0) < 1e-6
        assert abs(rep.corner_sum - 1.0) < 1e-6
        assert abs(rep.lhs - rep.corner_sum) < 1e-6
        assert rep.sign_constant
        assert rep.holds is True

    def test_sign_change_is_flagged(self):
        x = np.linspace(-1.0, 1.0, 65)
        X, Y = np.meshgrid(x, x, indexing="ij")
        theta = 0.8 + 0.05 * np.sin(2.0 * X)
        rep = cec.hazzidaki(cec.ThetaGrid(x, x, theta, k=1.0), tol=1e-6)
        assert not rep.sign_constant
        assert rep.holds is None

    def test_requires_symmetric_axes(self):
        x = np.linspace(-1.0, 1.0, 33)
        y = np.linspace(-0.5, 1.0, 33)
        grid = cec.ThetaGrid(x, y, np.zeros((33, 33)), k=1.0)
        with pytest.raises(ValidationError, match="symmetric"):
            cec.hazzidaki(grid)


class TestPatchGenerators:
    def test_pseudosphere_rejects_rim(self):
        with pytest.raises(ValidationError, match="rim"):
            cec.pseudosphere_patch(33, u_range=(0.0, 2.0))

    def test_pseudosphere_rejects_tiny_resolution(self):
        with pytest.raises(ValidationError, match="resolution"):
            cec.pseudosphere_patch(4)

    def test_cylinder_rejects_degenerate_radius(self):
        with pytest.raises(ValidationError, match="positive"):
            cec.hyperbolic_cylinder_patch(0.0, 33)

    def test_cylinder_sits_on_hyperboloid(self):
        patch = cec.hyperbolic_cylinder_patch(0.7, 33)
        b = np.einsum("...a,...a->...", patch.e * cec.H3_SIGMA, patch.e)
        assert np.abs(b + 1.0).max() < 1e-12
