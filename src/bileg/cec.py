"""Verifiers for surfaces of constant extrinsic curvature.

A surface patch with unit normal field determines three fundamental forms
and a shape operator.  When the extrinsic curvature det(A) is constant,
the Gauss lift x -> (e(x), nu(x)/sqrt(k)) of the surface is horizontal and
lagrangian for the structures on the contact bundle of the ambient unit
sphere bundle, and the combination I -/+ (1/k) III is a flat metric.  This
module assembles the forms by finite differences, measures each of those
properties as a residual, evaluates the Chebyshev-net normal forms of
negatively curved patches, and checks the two scalar consequences: the
hyperbolic sine-Gordon equation and the total-curvature bound obtained by
integrating the mixed derivative of the net angle over a rotated square.

Two ambients are supported: euclidean 3-space, and the unit hyperboloid
b(e, e) = -1 in R^{3,1} with b = diag(1, 1, 1, -1).  Grids are indexed
F[i, j] with i along the first parameter axis.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._fd import MAX_COUNT, axis_array, count, cross4, d_uniform, finite, require_finite, uniform_step
from ._spline import TensorSpline, cubic
from .errors import PreconditionError, ValidationError

H3_SIGMA = np.array([1.0, 1.0, 1.0, -1.0])

_AMBIENT_DIM = {"euclidean": 3, "hyperboloid": 4}


def _sigma(ambient):
    if ambient == "euclidean":
        return np.ones(3)
    return H3_SIGMA


def _bdot(sigma, p, q):
    # summed in order: bit-identical to np.sum(sigma * p * q, axis=-1) up to
    # the sign of an exact zero, at a fraction of its cost
    return functools.reduce(np.add, (s * p[..., i] * q[..., i] for i, s in enumerate(sigma)))


def _det2(M):
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def _mul2(A, B):
    """Stacked 2x2 products A @ B, entry by entry."""
    out = np.empty(np.broadcast_shapes(A.shape, B.shape))
    for i in range(2):
        for k in range(2):
            out[..., i, k] = A[..., i, 0] * B[..., 0, k] + A[..., i, 1] * B[..., 1, k]
    return out


def _det3(m):
    """Determinant of a 3x3 matrix given as rows of grids, by first-row cofactors."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass
class SurfacePatch:
    """Sampled immersion with unit normal field.

    e and nu are grids of shape (N1, N2, d) with d = 3 for the euclidean
    ambient and d = 4 for the hyperboloid b(e, e) = -1 in R^{3,1}.  The
    normal must be unit for the ambient form, and in the hyperboloid case
    e must lie on the level set with nu tangent to it.
    """

    ambient: str
    x1: np.ndarray
    x2: np.ndarray
    e: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        if self.ambient not in _AMBIENT_DIM:
            raise ValidationError(f"unknown ambient {self.ambient!r}")
        self.x1 = axis_array(self.x1, "x1")
        self.x2 = axis_array(self.x2, "x2")
        d = _AMBIENT_DIM[self.ambient]
        shape = (len(self.x1), len(self.x2), d)
        self.e = np.asarray(self.e, dtype=float)
        self.nu = np.asarray(self.nu, dtype=float)
        if self.e.shape != shape or self.nu.shape != shape:
            raise ValidationError(f"e and nu must have shape {shape}")
        require_finite("e and nu", self.e, self.nu)
        sigma = _sigma(self.ambient)
        unit = np.abs(_bdot(sigma, self.nu, self.nu) - 1.0).max()
        if unit > 1e-8:
            raise ValidationError(f"nu must be a unit normal field, worst deviation {unit:.3e}")
        if self.ambient == "hyperboloid":
            level = np.abs(_bdot(sigma, self.e, self.e) + 1.0).max()
            tangent = np.abs(_bdot(sigma, self.nu, self.e)).max()
            if level > 1e-8:
                raise ValidationError(f"e must satisfy b(e, e) = -1, worst {level:.3e}")
            if tangent > 1e-8:
                raise ValidationError(f"nu must satisfy b(nu, e) = 0, worst {tangent:.3e}")

    @property
    def steps(self):
        return uniform_step(self.x1, "x1"), uniform_step(self.x2, "x2")


def _patch_derivatives(patch):
    h1, h2 = patch.steps
    de = (d_uniform(patch.e, h1, 0), d_uniform(patch.e, h2, 1))
    dnu = (d_uniform(patch.nu, h1, 0), d_uniform(patch.nu, h2, 1))
    return de, dnu


@dataclass
class FundamentalForms:
    """The three fundamental forms and shape operator on a parameter grid.

    I, II, III and shape have shape (N1, N2, 2, 2); det_shape is the
    extrinsic curvature grid.  symmetry_residual records the finite
    difference asymmetry of II before symmetrization; third_form_residual
    the defect of III = II I^-1 II.
    """

    x1: np.ndarray
    x2: np.ndarray
    I: np.ndarray
    II: np.ndarray
    III: np.ndarray
    shape: np.ndarray
    det_shape: np.ndarray
    symmetry_residual: float = 0.0
    third_form_residual: float = 0.0


def _assemble_forms(x1, x2, I, II_raw, III):
    scale = np.abs(I).max() + 1.0
    det_I = _det2(I)
    if np.abs(det_I).min() < 1e-12 * scale**2:
        raise PreconditionError("degenerate first fundamental form node")
    sym = float(np.abs(II_raw - np.swapaxes(II_raw, -1, -2)).max())
    II = 0.5 * (II_raw + np.swapaxes(II_raw, -1, -2))
    # shape = I^-1 II through the adjugate of I
    adj = np.empty_like(I)
    adj[..., 0, 0], adj[..., 1, 1] = I[..., 1, 1], I[..., 0, 0]
    adj[..., 0, 1], adj[..., 1, 0] = -I[..., 0, 1], -I[..., 1, 0]
    shape = _mul2(adj, II) / det_I[..., None, None]
    third = float(np.abs(III - _mul2(II, shape)).max())
    return FundamentalForms(
        x1=x1, x2=x2, I=I, II=II, III=III, shape=shape,
        det_shape=_det2(shape),
        symmetry_residual=sym, third_form_residual=third,
    )


def fundamental_forms(patch):
    """First, second and third fundamental forms of a patch by stencils.

    With the sign convention II(xi, mu) = b(D nu . xi, D e . mu), the round
    sphere of radius r with outward normal has shape operator Id / r.
    """
    return _forms(patch, *_patch_derivatives(patch))


def _forms(patch, de, dnu):
    """`fundamental_forms` of the patch from its partials de and dnu."""
    sigma = _sigma(patch.ambient)
    I = np.empty(patch.e.shape[:2] + (2, 2))
    II = np.empty_like(I)
    III = np.empty_like(I)
    for a in range(2):
        for b_ in range(2):
            II[..., a, b_] = _bdot(sigma, dnu[a], de[b_])
            if a <= b_:  # I and III are symmetric
                I[..., a, b_] = I[..., b_, a] = _bdot(sigma, de[a], de[b_])
                III[..., a, b_] = III[..., b_, a] = _bdot(sigma, dnu[a], dnu[b_])
    return _assemble_forms(patch.x1, patch.x2, I, II, III)


def _quarter_turn_euclidean(nu, v):
    # 90 degree rotation of the plane orthogonal to nu; kills the nu-component
    return np.cross(nu, v)


def _quarter_turn_hyperboloid(e, nu, v):
    """Quarter turn of the b-positive plane orthogonal to both e and nu.

    The Hodge-type contraction w = Sigma^-1 eps(e, nu, v, .) is orthogonal
    to e, nu and v, and only sees the component of v in the plane; it is
    rescaled to an isometry there.
    """
    w = cross4(e, nu, v) / H3_SIGMA
    vp = v + _bdot(H3_SIGMA, v, e)[..., None] * e \
        - _bdot(H3_SIGMA, v, nu)[..., None] * nu
    nv = _bdot(H3_SIGMA, vp, vp)
    nw = _bdot(H3_SIGMA, w, w)
    factor = np.sqrt(np.maximum(nv, 0.0) / np.maximum(nw, 1e-300))
    return factor[..., None] * w


@dataclass
class GaussLift:
    """The lift (e, nu / sqrt k) with its structural residuals.

    residuals holds grid maxima: 'membership' of the lifted pair,
    'w_tangency' of its coordinate tangents, 'omega_i' and the two
    'omega_k_plus' / 'omega_k_minus' lagrangian defects, and
    'derivative_identity' for D(nu/sqrt k) = De . A / sqrt k.
    """

    ambient: str
    k: float
    x1: np.ndarray
    x2: np.ndarray
    x: np.ndarray
    y: np.ndarray
    residuals: dict = field(default_factory=dict)

    def pullback_metric(self, sign=-1.0):
        """Grid of b(dx_a, dx_b) + sign b(dy_a, dy_b) over coordinate pairs."""
        sign = finite(sign, "sign")
        sigma = _sigma(self.ambient)
        h1 = uniform_step(self.x1, "x1")
        h2 = uniform_step(self.x2, "x2")
        dx = (d_uniform(self.x, h1, 0), d_uniform(self.x, h2, 1))
        dy = (d_uniform(self.y, h1, 0), d_uniform(self.y, h2, 1))
        out = np.empty(self.x.shape[:2] + (2, 2))
        for a in range(2):
            for b_ in range(2):
                out[..., a, b_] = _bdot(sigma, dx[a], dx[b_]) \
                    + sign * _bdot(sigma, dy[a], dy[b_])
        return out


def gauss_lift(patch, k):
    """Lift the patch into the ambient contact bundle and measure residuals.

    The lift is always tangent to the contact distribution and
    omega_i-lagrangian; it is omega_k-lagrangian for the structure of sign
    eta exactly when det(shape) = eta k, which the two omega_k residuals
    detect.
    """
    k = finite(k, "k", 0)
    sigma = _sigma(patch.ambient)
    rk = math.sqrt(k)
    x = patch.e
    y = patch.nu / rk
    de, dnu = _patch_derivatives(patch)
    forms = _forms(patch, de, dnu)
    dy = (dnu[0] / rk, dnu[1] / rk)

    if patch.ambient == "euclidean":
        membership = float(np.abs(_bdot(sigma, y, y) - 1.0 / k).max())
    else:
        membership = max(
            float(np.abs(_bdot(sigma, x, x) + 1.0).max()),
            float(np.abs(_bdot(sigma, x, y)).max()),
            float(np.abs(_bdot(sigma, y, y) - 1.0 / k).max()),
        )

    legs = list(de) + list(dy)
    w_tan = max(float(np.abs(_bdot(sigma, leg, patch.nu)).max()) for leg in legs)
    if patch.ambient == "hyperboloid":
        w_tan = max(w_tan, max(
            float(np.abs(_bdot(sigma, leg, x)).max()) for leg in legs))

    omega_i = float(np.abs(
        _bdot(sigma, de[0], dy[1]) - _bdot(sigma, dy[0], de[1])).max())

    # derivative identity D(nu) . xi_a = De . A . xi_a, column a of the shape
    A = forms.shape
    deriv = 0.0
    for a in range(2):
        model = A[..., 0, a, None] * de[0] + A[..., 1, a, None] * de[1]
        deriv = max(deriv, float(np.abs(dnu[a] - model).max()))

    if patch.ambient == "euclidean":
        Adx = _quarter_turn_euclidean(patch.nu, de[0])
        Ady = _quarter_turn_euclidean(patch.nu, dy[0])
    else:
        Adx = _quarter_turn_hyperboloid(x, patch.nu, de[0])
        Ady = _quarter_turn_hyperboloid(x, patch.nu, dy[0])
    base = _bdot(sigma, Adx, de[1])
    fiber = _bdot(sigma, Ady, dy[1])
    omega_k_plus = float(np.abs(base - fiber).max())
    omega_k_minus = float(np.abs(base + fiber).max())

    return GaussLift(
        ambient=patch.ambient, k=float(k), x1=patch.x1, x2=patch.x2,
        x=x, y=y,
        residuals={
            "membership": membership,
            "w_tangency": w_tan,
            "omega_i": omega_i,
            "derivative_identity": deriv,
            "omega_k_plus": omega_k_plus,
            "omega_k_minus": omega_k_minus,
        },
    )


@dataclass
class FlatMetricData:
    """Combination h = I -/+ (1/k) III with its curvature estimate.

    curvature holds the Brioschi scalar curvature of h, NaN on masked
    nodes; the mask covers near-umbilic nodes (minus sign only) and nodes
    where h degenerates.  curvature_residual is the largest |curvature|
    over unmasked nodes, zero when everything is masked.
    """

    x1: np.ndarray
    x2: np.ndarray
    sign: str
    h: np.ndarray
    curvature: np.ndarray
    mask: np.ndarray
    curvature_residual: float


def _brioschi(E, F, G, h1, h2):
    d1 = lambda f: d_uniform(f, h1, 0)
    d2 = lambda f: d_uniform(f, h2, 1)
    Eu, Ev = d1(E), d2(E)
    Gu, Gv = d1(G), d2(G)
    Fu, Fv = d1(F), d2(F)
    Evv = d2(Ev)
    Guu = d1(Gu)
    Fuv = d2(Fu)
    M1 = ((-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev),
          (Fv - 0.5 * Gu, E, F),
          (0.5 * Gv, F, G))
    M2 = ((0.0, 0.5 * Ev, 0.5 * Gu),
          (0.5 * Ev, E, F),
          (0.5 * Gu, F, G))
    det_h = E * G - F * F
    return _det3(M1) - _det3(M2), det_h


def flat_metric(patch, k, sign, tol=1e-4):
    """Assemble h = I - (1/k) III (sign '-') or I + (1/k) III (sign '+').

    The minus combination requires det(shape) = k on the patch and is flat
    away from umbilic points with mixed signature; the plus combination
    requires det(shape) = -k and is positive definite with no umbilics.
    The Brioschi formula only certifies the vanishing of the curvature, so
    its magnitude is what is reported.
    """
    if sign not in ("+", "-"):
        raise ValidationError("sign must be '+' or '-'")
    k = finite(k, "k", 0)
    tol = finite(tol, "tol")
    forms = fundamental_forms(patch)
    target = k if sign == "-" else -k
    worst = float(np.abs(forms.det_shape - target).max())
    if worst > tol:
        raise PreconditionError(
            f"patch is not CEC with det(shape) = {target:g}: worst deviation {worst:.3e}"
        )
    h = forms.I - (1.0 / k) * forms.III if sign == "-" else forms.I + (1.0 / k) * forms.III

    mask = np.zeros(h.shape[:2], dtype=bool)
    if sign == "-":
        lam = np.linalg.eigvals(forms.shape)
        gap = np.abs(lam[..., 0] - lam[..., 1])
        size = np.abs(lam[..., 0]) + np.abs(lam[..., 1]) + 1.0
        mask |= gap < 1e-4 * size

    h1, h2 = patch.steps
    numer, det_h = _brioschi(h[..., 0, 0], h[..., 0, 1], h[..., 1, 1], h1, h2)
    scale = np.abs(h).max() + 1.0
    degenerate = np.abs(det_h) < 1e-8 * scale**2
    mask |= degenerate
    curvature = np.full(h.shape[:2], np.nan)
    good = ~mask
    curvature[good] = numer[good] / det_h[good] ** 2
    residual = float(np.abs(curvature[good]).max()) if good.any() else 0.0
    return FlatMetricData(
        x1=patch.x1, x2=patch.x2, sign=sign, h=h,
        curvature=curvature, mask=mask, curvature_residual=residual,
    )


@dataclass
class ThetaGrid:
    """Net angle on a rectangle with the curvature constants k > 0 and c."""

    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    k: float
    c: float = 0.0

    def __post_init__(self):
        self.x = axis_array(self.x, "x")
        self.y = axis_array(self.y, "y")
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (len(self.x), len(self.y)):
            raise ValidationError(
                f"theta must have shape {(len(self.x), len(self.y))}")
        require_finite("theta", self.theta)
        self.k = finite(self.k, "k", 0)
        self.c = finite(self.c, "c")

    @property
    def steps(self):
        return uniform_step(self.x, "x"), uniform_step(self.y, "y")


def chebyshev_forms(tg, k=None):
    """Fundamental forms of the asymptotic Chebyshev net with angle theta.

    I = diag(cos^2, sin^2), II = (sqrt k / 2) diag(sin 2theta, -sin 2theta),
    III = k diag(sin^2, cos^2); the extrinsic curvature is -k identically
    and the diagonal directions (1, +-1) are asymptotic.
    """
    k = tg.k if k is None else finite(k, "k", 0)
    th = tg.theta
    if th.min() <= 0.0 or th.max() >= 0.5 * math.pi:
        raise PreconditionError("theta must take values in the open interval (0, pi/2)")
    z = np.zeros_like(th)
    c2, s2 = np.cos(th) ** 2, np.sin(th) ** 2
    s2t = np.sin(2.0 * th)
    I = np.stack([np.stack([c2, z], axis=-1), np.stack([z, s2], axis=-1)], axis=-2)
    II = 0.5 * math.sqrt(k) * np.stack(
        [np.stack([s2t, z], axis=-1), np.stack([z, -s2t], axis=-1)], axis=-2)
    III = k * np.stack([np.stack([s2, z], axis=-1), np.stack([z, c2], axis=-1)], axis=-2)
    return _assemble_forms(tg.x, tg.y, I, II, III)


@dataclass
class SineGordonReport:
    """Pointwise and integrated residuals of the net-angle equation."""

    x: np.ndarray
    y: np.ndarray
    residual: np.ndarray
    area_residual: float


def sine_gordon_residual(tg):
    """Residual grid of theta_xx - theta_yy = ((k - c)/2) sin(2 theta).

    Also integrates both sides over the rectangle, pairing the wave
    operator against the net area form dArea = (1/2) sin(2 theta) dx dy.
    """
    hx, hy = tg.steps
    txx = d_uniform(d_uniform(tg.theta, hx, 0), hx, 0)
    tyy = d_uniform(d_uniform(tg.theta, hy, 1), hy, 1)
    rhs = 0.5 * (tg.k - tg.c) * np.sin(2.0 * tg.theta)
    residual = txx - tyy - rhs
    wave = np.trapezoid(np.trapezoid(txx - tyy, tg.y, axis=1), tg.x)
    area = np.trapezoid(np.trapezoid(0.5 * np.sin(2.0 * tg.theta), tg.y, axis=1), tg.x)
    return SineGordonReport(
        x=tg.x, y=tg.y, residual=residual,
        area_residual=float(abs(wave - (tg.k - tg.c) * area)),
    )


@dataclass
class HazzidakiReport:
    """Total curvature of the net metric against the angle oscillation.

    lhs integrates 2 |theta_uv| over the rotated square in the diagonal
    coordinates u = x + y, v = x - y; rhs = 4 (max theta - min theta).
    The inequality lhs <= rhs is only asserted (holds True/False) when
    theta_uv does not change sign on the rotated square; otherwise holds
    is None.  corner_sum telescopes theta over the corners of the rotated
    square and equals lhs in the sign-constant case.
    """

    lhs: float
    rhs: float
    corner_sum: float
    oscillation: float
    sign_constant: bool
    holds: object


def hazzidaki(tg, tol=1e-9):
    """Evaluate the total-curvature bound on a symmetric square [-R, R]^2."""
    tol = finite(tol, "tol")
    R = float(tg.x[-1])
    for axis, name in ((tg.x, "x"), (tg.y, "y")):
        if abs(axis[0] + R) > 1e-9 * max(1.0, R) or abs(axis[-1] - R) > 1e-9 * max(1.0, R):
            raise ValidationError(f"{name} axis must cover a symmetric square [-R, R]")
    hx, hy = tg.steps
    P = d_uniform(d_uniform(tg.theta, hx, 0), hx, 0) \
        - d_uniform(d_uniform(tg.theta, hy, 1), hy, 1)
    spl_p = TensorSpline(tg.x, tg.y, P)

    n = max(len(tg.x), len(tg.y))
    u = np.linspace(-R, R, n)
    v = np.linspace(-R, R, n)
    U, V = np.meshgrid(u, v, indexing="ij")
    Pt = spl_p.ev(0.5 * (U + V), 0.5 * (U - V))
    theta_uv = 0.25 * Pt
    lhs = float(np.trapezoid(np.trapezoid(2.0 * np.abs(theta_uv), v, axis=1), u))

    scale = np.abs(Pt).max() + 1.0
    sign_constant = bool(Pt.min() >= -tol * scale or Pt.max() <= tol * scale)

    # the corners lie on the boundary knot lines, where the bicubic of theta
    # is the not-a-knot cubic of that line
    left, right = cubic(tg.y, tg.theta[[0, -1]].T)(0.0)
    down, up = cubic(tg.x, tg.theta[:, [0, -1]])(0.0)
    corners = float(right) - float(up) - float(down) + float(left)
    corner_sum = 2.0 * abs(corners)

    osc = float(tg.theta.max() - tg.theta.min())
    rhs = 4.0 * osc
    holds = bool(lhs <= rhs + tol * (1.0 + rhs)) if sign_constant else None
    return HazzidakiReport(
        lhs=lhs, rhs=rhs, corner_sum=corner_sum, oscillation=osc,
        sign_constant=sign_constant, holds=holds,
    )


def pseudosphere_patch(resolution, u_range=(0.5, 2.0), v_range=(0.0, math.pi)):
    """Tractrix of revolution with extrinsic curvature -1.

    Parametrized by (u, v) -> (sech u cos v, sech u sin v, u - tanh u) for
    u > 0, with normal (tanh u cos v, tanh u sin v, sech u); the principal
    curvatures are (-1/sinh u, sinh u).  The rim u = 0 is excluded.
    """
    n = count(resolution, "resolution", 8, math.isqrt(MAX_COUNT))
    if u_range[0] <= 0.0 or u_range[1] <= u_range[0]:
        raise ValidationError("u_range must be increasing with u > 0 away from the rim")
    u = np.linspace(u_range[0], u_range[1], n)
    v = np.linspace(v_range[0], v_range[1], n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    se, ta = 1.0 / np.cosh(uu), np.tanh(uu)
    e = np.stack([se * np.cos(vv), se * np.sin(vv), uu - ta], axis=-1)
    nu = np.stack([ta * np.cos(vv), ta * np.sin(vv), se], axis=-1)
    return SurfacePatch(ambient="euclidean", x1=u, x2=v, e=e, nu=nu)


def hyperbolic_cylinder_patch(r, resolution, t_range=(-1.0, 1.0),
                              phi_range=(0.0, 2.0 * math.pi)):
    """Equidistant tube of radius r about a geodesic of the hyperboloid.

    e(t, phi) = cosh(r) gamma(t) + sinh(r) (cos phi, sin phi, 0, 0) with
    gamma(t) = (0, 0, sinh t, cosh t); principal curvatures tanh r and
    coth r, so the extrinsic curvature is 1 for every r > 0.  r is capped
    at 8: b(nu, nu) = 1 and b(e, e) = -1 are differences of terms of size
    cosh(r)^2, whose cancellation loses more than the patch's 1e-8 check
    allows from about r = 9 on.
    """
    r = finite(r, "r", 0)
    if r > 8.0:
        raise ValidationError(f"r must be at most 8, got {r}")
    n = count(resolution, "resolution", 8, math.isqrt(MAX_COUNT))
    t = np.linspace(t_range[0], t_range[1], n)
    phi = np.linspace(phi_range[0], phi_range[1], n)
    # each plane broadcasts a scaled 1-d axis, so no whole-grid temporary is made
    ch, sh = math.cosh(r), math.sinh(r)
    e, nu = np.empty((n, n, 4)), np.empty((n, n, 4))
    for grid, s_gam, s_rad in ((e, ch, sh), (nu, sh, ch)):
        grid[..., 0] = s_rad * np.cos(phi)
        grid[..., 1] = s_rad * np.sin(phi)
        grid[..., 2] = s_gam * np.sinh(t)[:, None]
        grid[..., 3] = s_gam * np.cosh(t)[:, None]
    return SurfacePatch(ambient="hyperboloid", x1=t, x2=phi, e=e, nu=nu)
