"""grid_verify: vectorised whole-grid verification.

One op is one of
- a product immersion through `factory.construct` -> `residual_suite` ->
  `angle_function` -> `asymptotic_frame` (1 and 2) -> `factorize` ->
  `lie_factorize`, at N = 96, 192 or 384 intervals per axis (N + 1 nodes,
  so the parameter origin is a node);
- a perturbed non-product grid (`ImmersionGrid` -> `residual_suite`) that
  `factorize` and `lie_factorize` must refuse, about 1 in 8 surfaces;
- a constant-curvature patch: a scaled pseudosphere or a hyperbolic
  cylinder through `cec.fundamental_forms` / `gauss_lift` / `flat_metric`,
  or a Chebyshev net-angle grid through `chebyshev_forms` /
  `sine_gordon_residual` / `hazzidaki`.
"""

import json
import math
from pathlib import Path

import numpy as np
from bileg import cec, factory
from bileg.errors import NotFactorizable

from reference import (
    exp_axis,
    exp_axis_velocity,
    factor_axes,
    orthonormal_pair,
    product_grid,
    qmul,
    random_unit,
    require,
)
from workloads import Op, Workload, seeded_rng, shuffled, stratified

# surfaces of one pass: (intervals per axis, accepted count, perturbed count).
# With eight patches the median of a pass's 35 latencies falls inside the
# accepted 96-interval surfaces and the 90th percentile inside the accepted
# 192-interval ones, not on a class boundary.
SURFACES = [(96, 18, 2), (192, 5, 1), (384, 1, 0)]
PATCHES = {"cec.pseudosphere": 3, "cec.hyperbolic_cylinder": 2, "cec.chebyshev": 3}
TINY_SURFACES = [(48, 1, 1), (64, 1, 0)]
TINY_PATCHES = {"cec.pseudosphere": 1, "cec.hyperbolic_cylinder": 1, "cec.chebyshev": 1}

# discretisation limits of the checks, from the order of the stencils
PROBE_TOL = 1e-7        # spline of the factor samples at off-node probes
FRAME_TOL = 1e-6        # |tau + eps| of the asymptotic Frenet frames
WAVE_TOL = 1e-5         # wave and split residuals of the angle function
LIE_TOL = 1e-6          # marched factors against the generating curves
# stencil limits of the curvature checks: each is at least twice the worst
# value seen over 60 random patches at 49 nodes, the smallest size run
LAGRANGIAN_TOL = 1e-5   # omega_k residual of the Gauss lift on its own sign
NET_ANGLE_TOL = 2e-3    # sine-Gordon residual of the kink, relative to max(1, k)
CORNER_TOL = 5e-4       # corner telescoping against the curvature quadrature


def _tolerances():
    """The residual tolerances the package ships with."""
    path = Path(factory.__file__).with_name("tolerances.json")
    return json.loads(path.read_text())["tolerances"]


def _factor_data(rng, nodes):
    a, b = orthonormal_pair(rng)
    w1, w2 = factor_axes(rng, a, b)
    half = float(rng.uniform(0.5, 0.9))
    x = np.linspace(-half, half, nodes)
    return a, b, w1, w2, half, x


def _product_op(rng, intervals, tols):
    a, b, w1, w2, half, x = _factor_data(rng, intervals + 1)

    def g1(t):
        return exp_axis(t, w1)

    def dg1(t):
        return exp_axis_velocity(t, w1)

    def g2(t):
        return exp_axis(t, w2)

    def dg2(t):
        return exp_axis_velocity(t, w2)

    probes = 0.5 * (x[:-1] + x[1:])

    def run():
        grid = factory.construct(a, b, g1, g2, x, x, dgamma1=dg1, dgamma2=dg2,
                                 t1_range=(-half, half), t2_range=(-half, half))
        residuals = factory.residual_suite(grid)
        angle = factory.angle_function(grid)
        frames = (factory.asymptotic_frame(grid, 1, angle),
                  factory.asymptotic_frame(grid, 2, angle))
        factors = factory.factorize(grid)
        lie = factory.lie_factorize(grid.x1, grid.x2, grid.X)
        return grid, residuals, angle, frames, factors, lie

    def check(out):
        grid, residuals, angle, frames, factors, lie = out
        G1, G2 = g1(x), g2(x)
        X, Y = product_grid(a, b, G1, G2)
        require(max(np.abs(grid.X - X).max(), np.abs(grid.Y - Y).max()) < 1e-12,
                "constructed grid differs from the product of the factors")
        for name, value in residuals.items():
            require(value <= tols[name], f"residual {name} = {value:.3e} > {tols[name]:g}")
        require(len(residuals) == len(tols), "residual suite is missing entries")
        require(angle.wave_residual < WAVE_TOL and angle.split_residual < WAVE_TOL,
                f"angle residuals {angle.wave_residual:.2e}, {angle.split_residual:.2e}")
        for fr in frames:
            require(fr.tau_residual < FRAME_TOL, f"torsion off by {fr.tau_residual:.2e}")
        require(np.abs(factors.a - a).max() < 1e-12 and np.abs(factors.b - b).max() < 1e-12,
                "factorize recovered the wrong (a, b)")
        e1 = np.abs(factors.gamma1(probes) - g1(probes)).max()
        e2 = np.abs(factors.gamma2(probes) - g2(probes)).max()
        require(max(e1, e2) < PROBE_TOL, f"factor curves off at probes: {e1:.2e}, {e2:.2e}")
        lie_err = max(np.abs(lie.A - G1).max(), np.abs(lie.B - G2).max(),
                      np.abs(lie.C - a).max())
        require(lie_err < LIE_TOL, f"Lie factors off by {lie_err:.2e}")

    return Op(f"product.{intervals}", run, check)


def _perturbed_op(rng, intervals, tols):
    a, b, w1, w2, half, x = _factor_data(rng, intervals + 1)
    X, Y = product_grid(a, b, exp_axis(x, w1), exp_axis(x, w2))
    # a left rotation by a non-separable angle keeps X, Y unit and orthogonal
    eps = float(rng.uniform(2e-3, 5e-3))
    freq = float(rng.uniform(1.0, 2.0))
    twist = exp_axis(eps * np.sin(freq * np.multiply.outer(x, x) + rng.uniform(0, 1)),
                     random_unit(rng, 3))
    Xp, Yp = qmul(twist, X), qmul(twist, Y)

    def run():
        grid = factory.ImmersionGrid(x, x, Xp, Yp)
        residuals = factory.residual_suite(grid)
        refused = []
        for attempt in (lambda: factory.factorize(grid),
                        lambda: factory.lie_factorize(x, x, Xp)):
            try:
                attempt()
                refused.append(False)
            except NotFactorizable:
                refused.append(True)
        return residuals, refused

    def check(out):
        residuals, refused = out
        require(all(refused), f"non-product grid accepted: refused = {refused}")
        crit = residuals["product_criterion"]
        require(crit > tols["product_criterion"],
                f"product criterion {crit:.2e} passes on a non-product grid")

    return Op(f"perturbed.{intervals}", run, check)


def _pseudosphere_op(rng, nodes):
    rho = float(rng.uniform(0.7, 1.5))
    k = 1.0 / rho ** 2
    u = np.linspace(float(rng.uniform(0.45, 0.6)), float(rng.uniform(1.7, 2.0)), nodes)
    v = np.linspace(0.0, float(rng.uniform(2.0, 3.0)), nodes)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    sech, tanh = 1.0 / np.cosh(uu), np.tanh(uu)
    e = rho * np.stack([sech * np.cos(vv), sech * np.sin(vv), uu - tanh], axis=-1)
    nu = np.stack([tanh * np.cos(vv), tanh * np.sin(vv), sech], axis=-1)

    def run():
        patch = cec.SurfacePatch("euclidean", u, v, e, nu)
        return (cec.fundamental_forms(patch), cec.gauss_lift(patch, k),
                cec.flat_metric(patch, k, "+"))

    def check(out):
        forms, lift, flat = out
        det_err = float(np.abs(forms.det_shape + k).max())
        require(det_err < 1e-4 * k, f"det(shape) off -k = {-k:.4f} by {det_err:.2e}")
        res = lift.residuals
        require(res["omega_k_minus"] < LAGRANGIAN_TOL and res["omega_k_plus"] > 0.1 * k,
                f"lift lagrangian residuals {res['omega_k_minus']:.2e}, {res['omega_k_plus']:.2e}")
        require(flat.curvature_residual < 1e-3,
                f"I + III/k curvature {flat.curvature_residual:.2e}")

    return Op("cec.pseudosphere", run, check)


def _cylinder_op(rng, nodes):
    r = float(rng.uniform(0.6, 1.2))
    span = float(rng.uniform(0.6, 1.0))
    t = np.linspace(-span, span, nodes)
    phi = np.linspace(0.0, 2.0 * math.pi, nodes)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    zero = np.zeros_like(tt)
    geodesic = np.stack([zero, zero, np.sinh(tt), np.cosh(tt)], axis=-1)
    radial = np.stack([np.cos(pp), np.sin(pp), zero, zero], axis=-1)
    e = math.cosh(r) * geodesic + math.sinh(r) * radial
    nu = math.sinh(r) * geodesic + math.cosh(r) * radial

    def run():
        patch = cec.SurfacePatch("hyperboloid", t, phi, e, nu)
        return (cec.fundamental_forms(patch), cec.gauss_lift(patch, 1.0),
                cec.flat_metric(patch, 1.0, "-"))

    def check(out):
        forms, lift, flat = out
        det_err = float(np.abs(forms.det_shape - 1.0).max())
        require(det_err < 1e-6, f"det(shape) off 1 by {det_err:.2e}")
        res = lift.residuals
        require(res["omega_k_plus"] < LAGRANGIAN_TOL and res["omega_k_minus"] > 0.1,
                f"lift lagrangian residuals {res['omega_k_plus']:.2e}, {res['omega_k_minus']:.2e}")
        require(flat.curvature_residual < 1e-3,
                f"I - III curvature {flat.curvature_residual:.2e}")

    return Op("cec.hyperbolic_cylinder", run, check)


def _chebyshev_op(rng, nodes):
    """Boosted kink theta = gd(sqrt(k) g (y - v x) + c) of the net-angle equation.

    With g = 1/sqrt(1 - v^2) it solves theta_xx - theta_yy = (k/2) sin 2 theta,
    and the offset c keeps theta inside (0, pi/2) on the square.
    """
    k = float(rng.uniform(0.5, 2.0))
    vel = float(rng.uniform(-0.6, 0.6))
    R = float(rng.uniform(0.5, 1.0))
    boost = math.sqrt(k) / math.sqrt(1.0 - vel * vel)
    offset = boost * (1.0 + abs(vel)) * R + float(rng.uniform(0.2, 0.8))
    x = np.linspace(-R, R, nodes)
    arg = boost * (x[None, :] - vel * x[:, None]) + offset
    theta = np.arctan(np.sinh(arg))

    def run():
        tg = cec.ThetaGrid(x, x, theta, k)
        return (cec.chebyshev_forms(tg), cec.sine_gordon_residual(tg), cec.hazzidaki(tg))

    def check(out):
        forms, sg, hz = out
        det_err = float(np.abs(forms.det_shape + k).max())
        require(det_err < 1e-10 * max(1.0, k), f"net det(shape) off -k by {det_err:.2e}")
        sg_err = float(np.abs(sg.residual).max())
        require(sg_err < NET_ANGLE_TOL * max(1.0, k), f"net-angle residual {sg_err:.2e}")
        osc = float(theta.max() - theta.min())
        require(hz.oscillation == osc and hz.rhs == 4.0 * osc, "oscillation misread")
        # theta_uv = (k/8) sin(2 theta) > 0, so the bound must be asserted and hold
        require(hz.sign_constant and hz.holds is True, "oscillation bound not asserted")
        require(abs(hz.lhs - hz.corner_sum) < CORNER_TOL * max(1.0, hz.lhs),
                f"corner sum {hz.corner_sum!r} against quadrature {hz.lhs!r}")

    return Op("cec.chebyshev", run, check)


PATCH_OPS = {
    "cec.pseudosphere": (_pseudosphere_op, (65, 97)),
    "cec.hyperbolic_cylinder": (_cylinder_op, (49, 65)),
    "cec.chebyshev": (_chebyshev_op, (65, 129)),
}


def build(seed, tiny=False, workdir=None):
    rng = seeded_rng(seed, "grid_verify")
    tols = _tolerances()
    ops = []
    for intervals, accepted, perturbed in (TINY_SURFACES if tiny else SURFACES):
        ops += [_product_op(rng, intervals, tols) for _ in range(accepted)]
        ops += [_perturbed_op(rng, intervals, tols) for _ in range(perturbed)]
    for kind, count in (TINY_PATCHES if tiny else PATCHES).items():
        make, (lo, hi) = PATCH_OPS[kind]
        if tiny:
            lo = hi = 49
        for nodes in stratified(rng, lo, hi + 1, count, jitter=0.2):
            ops.append(make(rng, int(nodes) | 1))
    warmup = _product_op(rng, 48, tols)
    # one (N+1)^2 quaternion grid, and the twelve that residual_suite holds at
    # once (X, Y, four first and six second partials), from array sizes
    sizes = []
    for intervals, _, _ in (TINY_SURFACES if tiny else SURFACES):
        grid = (intervals + 1) ** 2 * 4 * 8
        sizes += [(f"quaternion grid, N={intervals}", grid),
                  (f"residual_suite grids, N={intervals}", 12 * grid)]
    return Workload("grid_verify", shuffled(rng, ops), warmup,
                    notes={"computed_bytes": sizes})
