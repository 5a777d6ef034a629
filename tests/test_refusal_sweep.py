"""Refusal sweep over `bileg.__all__`.

Every numeric scalar argument of the public API, replaced one at a time by
each of a fixed set of bad values, must give a result or a BilegError, never
a builtin exception or a RuntimeWarning.  No value may make a call allocate
by its size: the count cap refuses 1e308 before anything is allocated.  The
names in `bileg.__all__` are all classified here, so a new public callable
with a scalar argument cannot miss the sweep.
"""

import functools
import math

import numpy as np
import pytest

import bileg
from bileg import quat
from bileg.errors import BilegError, ValidationError

BAD = [math.nan, math.inf, -math.inf, "x", None, [1.0], True, 2.5, 0, -1, 1e308]

I3 = np.array([1.0, 0.0, 0.0])
START = np.array([1.0, 0.0, 0.0, 0.0])


def _exp_circle(axis):
    w = np.asarray(axis, float)

    def gamma(t):
        t = np.asarray(t, float)
        return np.concatenate([np.cos(t)[..., None], np.sin(t)[..., None] * w], axis=-1)

    def dgamma(t):
        t = np.asarray(t, float)
        return np.concatenate([-np.sin(t)[..., None], np.cos(t)[..., None] * w], axis=-1)

    return gamma, dgamma


G1, DG1 = _exp_circle([1.0, 0.0, 0.0])
G2, DG2 = _exp_circle([0.0, 1.0, 0.0])


def _latitude_through(start3, pole3, ccw):
    """Great circle about pole3 through start3, (b/4) arc length from 0."""
    p, e1 = np.asarray(pole3, float), np.asarray(start3, float)
    e2 = np.cross(p, e1) if ccw else -np.cross(p, e1)
    t = np.linspace(0.0, math.pi, 1025)
    plane = np.cos(2.0 * t)[:, None] * e1 + np.sin(2.0 * t)[:, None] * e2
    plane[-1] = plane[0]
    return bileg.SphereCurve(plane, t, closed=True)


@functools.cache
def _fixtures():
    """Small valid inputs, built once."""
    # the projection of t -> exp(t j) about i, of unit (b/4) speed
    t = np.linspace(0.0, math.pi, 1025)
    great_i = bileg.SphereCurve(np.stack([np.cos(2 * t), 0 * t, -np.sin(2 * t)], axis=1), t,
                                closed=True)
    lift = bileg.horizontal_lift(great_i, I3, "left", START, step=1e-2)
    x = np.linspace(-0.4, 0.4, 17)
    grid = bileg.construct(quat.ONE, quat.QK, G1, G2, x, x, dgamma1=DG1, dgamma2=DG2,
                           t1_range=(-0.4, 0.4), t2_range=(-0.4, 0.4))
    c1 = _latitude_through([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], ccw=False)
    c2 = _latitude_through([0.0, 0.0, -1.0], [0.0, 1.0, 0.0], ccw=True)
    torus, lattice = bileg.torus_ansatz(quat.ONE, quat.QK, c1, c2, n1=17, n2=17, step=1e-2)
    factors = bileg.Factorization(quat.ONE, quat.QK, G1, G2, t1_range=(0.0, 2 * math.pi),
                                  t2_range=(0.0, 2 * math.pi))
    u = np.linspace(0.6, math.pi - 0.6, 17)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    normal = np.stack([np.sin(uu) * np.cos(vv), np.sin(uu) * np.sin(vv), np.cos(uu)], axis=-1)
    sphere_patch = bileg.SurfacePatch("euclidean", u, u, normal, normal)
    s = np.linspace(-1.0, 1.0, 17)
    theta = 0.7 + 0.1 * (s[:, None] + s[None, :])
    sig = bileg.Signature2(1, -1)
    one, _, j, _ = bileg.basis(sig)
    definite = bileg.basis(bileg.Signature2(1, 1))
    form = bileg.AmbientForm4((1, 1, 1, 1), -1)
    point = bileg.BasePoint(form, (1, 0, 0, 0), (0, 0, 0, 1))
    x0, y0 = np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0, 1])
    section = lambda t: bileg.w_project(bileg.BasePoint(form, x0, y0), np.ones(8))
    return dict(
        great=great_i, lift=lift, grid=grid, circles=(c1, c2), torus=torus, lattice=lattice,
        factors=factors,
        angle=bileg.angle_function(grid), sphere_patch=sphere_patch,
        theta_grid=bileg.ThetaGrid(s, s, theta, 1.0), s=s, theta=theta,
        gauss_lift=bileg.gauss_lift(sphere_patch, 1.0), plane=bileg.PlaneSpan(one, j),
        one=one, j=j, definite=definite, form=form, point=point,
        contact=bileg.ContactVector(point, (0, 1, 0, 0), (0, 1, 0, 0)),
        path=lambda t: (x0, y0), section=section)


def _f(name):
    return _fixtures()[name]


# public name -> (call taking the swept arguments as keywords, the scalar argument names)
SWEPT = {
    "rotate_A": (lambda **kw: bileg.rotate_A(quat.ONE, quat.QI, quat.QJ, **kw), ["tol"]),
    "latitude_circle": (lambda **kw: bileg.latitude_circle(**{
        "axis": I3, "colatitude": 1.0, "n": 64, **kw}), ["colatitude", "n", "turns"]),
    "reparametrize": (lambda **kw: bileg.reparametrize(_f("great"), **kw), ["n"]),
    "horizontal_lift": (lambda **kw: bileg.horizontal_lift(
        _f("great"), I3, "left", START, **{"step": 1e-2, **kw}), ["step"]),
    "HorizontalCurve.at": (lambda **kw: _f("lift").at(**{"t": 1.0, **kw}), ["t"]),
    "holonomy": (lambda **kw: bileg.holonomy(**{"lift": _f("lift"), "period": math.pi, **kw}),
                 ["period", "tol"]),
    "holonomy_area_check": (lambda **kw: bileg.holonomy_area_check(
        bileg.latitude_circle(I3, 1.0, n=256), I3, "left", **{"step": 1e-2, **kw}),
        ["step", "tol"]),
    "gauss_bonnet_check": (lambda **kw: bileg.gauss_bonnet_check(_f("great"), **kw), ["n"]),
    "reduce_mod_4pi": (lambda **kw: bileg.reduce_mod_4pi(**{"value": 7.0, **kw}), ["value"]),
    "construct": (lambda **kw: bileg.construct(
        quat.ONE, quat.QK, G1, G2, _f("s"), _f("s"), dgamma1=DG1, dgamma2=DG2, **kw), ["tol"]),
    "factorize": (lambda **kw: bileg.factorize(_f("grid"), **kw), ["tol"]),
    "lie_factorize": (lambda **kw: bileg.lie_factorize(
        _f("grid").x1, _f("grid").x2, _f("grid").X, **kw), ["tol"]),
    "asymptotic_frame": (lambda **kw: bileg.asymptotic_frame(**{
        "grid": _f("grid"), "index": 1, "angle": _f("angle"), **kw}), ["index", "tol"]),
    "from_theta": (lambda **kw: bileg.from_theta(**{
        "theta0": 0.7, "f": np.zeros_like, "g": np.zeros_like, "x1": _f("s") / 5,
        "x2": _f("s") / 5, "step": 1e-2, **kw}), ["theta0", "step"]),
    "projection_immersion_test": (
        lambda **kw: bileg.projection_immersion_test(_f("angle"), **kw), ["tol"]),
    "torus_ansatz": (lambda **kw: bileg.torus_ansatz(quat.ONE, quat.QK, *_f("circles"), **{
        "n1": 9, "n2": 9, "step": 1e-2, **kw}), ["n1", "n2", "step"]),
    "period_lattice": (lambda **kw: bileg.period_lattice(_f("factors"), **{
        "p1": math.pi, "p2": math.pi, **kw}), ["p1", "p2", "tol"]),
    "PeriodLattice.contains": (lambda **kw: _f("lattice").contains(**{"m": 1, "n": 1, **kw}),
                               ["m", "n"]),
    "gauss_map": (lambda **kw: bileg.gauss_map(_f("factors"), **{"samples": 9, **kw}),
                  ["samples"]),
    "flat_torus_criteria": (
        lambda **kw: bileg.flat_torus_criteria(_f("torus"), _f("lattice"), **kw), ["tol"]),
    "gauss_lift": (lambda **kw: bileg.gauss_lift(_f("sphere_patch"), **{"k": 1.0, **kw}),
                   ["k"]),
    "GaussLift.pullback_metric": (lambda **kw: _f("gauss_lift").pullback_metric(**kw),
                                  ["sign"]),
    "flat_metric": (lambda **kw: bileg.flat_metric(
        bileg.pseudosphere_patch(16), **{"k": 1.0, "sign": "+", "tol": 1e-2, **kw}),
        ["k", "tol"]),
    "ThetaGrid": (lambda **kw: bileg.ThetaGrid(_f("s"), _f("s"), _f("theta"), **{
        "k": 1.0, **kw}), ["k", "c"]),
    "chebyshev_forms": (lambda **kw: bileg.chebyshev_forms(_f("theta_grid"), **kw), ["k"]),
    "hazzidaki": (lambda **kw: bileg.hazzidaki(_f("theta_grid"), **kw), ["tol"]),
    "pseudosphere_patch": (lambda **kw: bileg.pseudosphere_patch(**{"resolution": 16, **kw}),
                           ["resolution"]),
    "hyperbolic_cylinder_patch": (lambda **kw: bileg.hyperbolic_cylinder_patch(**{
        "r": 0.7, "resolution": 16, **kw}), ["r", "resolution"]),
    "Signature2": (lambda **kw: bileg.Signature2(**{"s1": 1, "s2": -1, **kw}), ["s1", "s2"]),
    "Signature2.from_form": (lambda **kw: bileg.Signature2.from_form(np.eye(2), **kw), ["tol"]),
    "invariant_plane_test": (lambda **kw: bileg.invariant_plane_test(
        _f("plane"), _f("j"), **kw), ["tol"]),
    "bilagrangian_test": (lambda **kw: bileg.bilagrangian_test(
        bileg.PlaneSpan(*_f("definite")[:2]), _f("definite")[2], _f("definite")[3], **kw),
        ["tol"]),
    "classify_plane": (lambda **kw: bileg.classify_plane(_f("plane"), _f("j"), **kw), ["tol"]),
    "principal_line": (lambda **kw: bileg.principal_line(
        _f("plane"), _f("j"), _f("one"), **kw), ["tol"]),
    "AmbientForm4": (lambda **kw: bileg.AmbientForm4(**{"sigma": (1, 1, 1, 1), "eta": -1,
                                                        **kw}), ["eta"]),
    "frame_at": (lambda **kw: bileg.frame_at(_f("point"), **kw), ["eta"]),
    "curvature_pairing": (lambda **kw: bileg.curvature_pairing(
        _f("point"), _f("contact"), **kw), ["eta"]),
    "covariant_constancy_residual": (lambda **kw: bileg.covariant_constancy_residual(
        _f("form"), _f("path"), (_f("section"), _f("section")), "g", **kw), ["t0", "h"]),
    "stabilizer_membership": (lambda **kw: bileg.stabilizer_membership(
        np.eye(4), np.eye(2), **kw), ["tol"]),
    "clifford_isomorphism": (lambda **kw: bileg.clifford_isomorphism(
        np.eye(2), **{"eta": 1, "v": [1.0, 0.0], **kw}), ["eta"]),
}

# public callables without a numeric scalar argument: arrays, curves, grids,
# elements, planes, points and callables only
NO_SCALARS = {
    "PlaneSpan", "basis", "mul", "inner_g", "inner_ghat", "eigenspaces_of_mx",
    "principal_vectors", "eigen_split", "effective_pair_check", "BasePoint",
    "ContactVector", "w_project", "hopf", "hopf_preimage", "signed_area", "ImmersionGrid",
    "Factorization", "residual_suite", "cubic_form_entries", "angle_function",
    "SurfacePatch", "fundamental_forms", "sine_gordon_residual",
}

# Clifford coefficients are element data, like array entries: a NaN element
# is built, and each validator that takes one refuses it
COEFFICIENTS = {"CliffordElement", "element", "from_coeffs"}

# records of what a call computed; they hold any value they are given
RECORDS = {
    "SphereCurve", "HorizontalCurve", "Holonomy", "LieFactors", "AngleData", "FramedCurve",
    "PeriodLattice", "NoLattice", "GaussMapData", "FlatTorusReport", "FundamentalForms",
    "GaussLift", "FlatMetricData", "SineGordonReport", "HazzidakiReport", "StructureFrame",
}


def test_every_public_callable_is_classified():
    public = {name for name in bileg.__all__
              if not (isinstance(getattr(bileg, name), type)
                      and issubclass(getattr(bileg, name), BaseException))}
    swept = {name for name in SWEPT if "." not in name}
    assert swept | NO_SCALARS | COEFFICIENTS | RECORDS == public
    assert not swept & (NO_SCALARS | COEFFICIENTS | RECORDS)
    # a swept method belongs to a public class
    assert {name.split(".")[0] for name in SWEPT} <= public


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_valid_base_call_returns(name):
    call, _ = SWEPT[name]
    call()


@pytest.mark.parametrize("name, argument", [
    (name, argument) for name in sorted(SWEPT) for argument in SWEPT[name][1]])
def test_bad_scalar_returns_or_raises_a_bileg_error(name, argument):
    call, _ = SWEPT[name]
    _fixtures()  # outside the try: a fixture's own error is no refusal
    for value in BAD:
        try:
            call(**{argument: value})
        except BilegError:
            pass
        except Exception as exc:
            pytest.fail(f"{name}({argument}={value!r}) raised {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("bad", ["x", None, [1.0], True])
def test_coefficients_refuse_non_numbers(bad):
    # float() raised a builtin ValueError or TypeError on these
    sig = bileg.Signature2(1, -1)
    with pytest.raises(ValidationError, match=r"coefficient c must be a number"):
        bileg.element(sig, 0.0, 1.0, bad, 0.0)
    with pytest.raises(ValidationError, match=r"coefficient c must be a number"):
        bileg.from_coeffs(sig, [0.0, 1.0, bad, 0.0])


@pytest.mark.parametrize("coeffs", [[1.0, 0.0, 0.0], None, 1.0])
def test_from_coeffs_needs_four_coefficients(coeffs):
    with pytest.raises(ValidationError, match="coeffs must be four numbers"):
        bileg.from_coeffs(bileg.Signature2(1, -1), coeffs)


def test_coefficients_take_nan_and_numpy_scalars():
    # element data: a NaN element is built, and the validators that take one refuse it
    sig = bileg.Signature2(1, -1)
    x = bileg.element(sig, math.nan, np.float64(1.0), np.int64(2), 3)
    assert math.isnan(x.a) and (x.b, x.c, x.d) == (1.0, 2.0, 3.0)
    assert all(type(t) is float for t in (x.a, x.b, x.c, x.d))
    y = bileg.from_coeffs(sig, np.array([math.nan, 1.0, 2.0, 3.0]))
    assert math.isnan(y.a) and (y.b, y.c, y.d) == (1.0, 2.0, 3.0)
