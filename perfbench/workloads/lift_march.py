"""lift_march: serial ODE marching with little grid work.

One op is one of
- a closed curve through `sphere.holonomy_area_check` and
  `sphere.gauss_bonnet_check`: a latitude circle or a 2-harmonic
  colatitude graph about a random axis, on a random side;
- one `factory.torus_ansatz` on a pair of great circles (both rotation
  numbers 1/2) or of circles bounding 4 pi/3 caps (both 2/3), whose lattice
  is re-derived from the factors by `factory.period_lattice`;
- one `factory.from_theta` -> `factory.angle_function` round trip with
  random quadratic curvature potentials.
Curve lengths and domains vary with the seed, so step counts vary per op.
"""

import math
from fractions import Fraction

import numpy as np
from bileg import factory, sphere

from reference import (
    cap_area_of_graph,
    colatitude_graph,
    mod1_gap,
    perpendicular_unit,
    q_from_area,
    random_unit,
    require,
)
from workloads import Op, Workload, seeded_rng, shuffled, stratified

# ops of one pass, by kind
MIX = {"holonomy.latitude": 5, "holonomy.fourier": 5, "torus.great_circles": 1,
       "torus.caps": 1, "theta.round_trip": 13}
TINY_MIX = {"holonomy.latitude": 1, "holonomy.fourier": 1, "torus.great_circles": 1,
            "torus.caps": 1, "theta.round_trip": 1}

# sizes vary with the seed only inside the central fifth of their bins, so
# the per-pass work, and each percentile's op, hardly move between seeds
JITTER = 0.2
Q_TOL = 1e-6
# the Gauss-Bonnet residual converges at second order in the sample spacing:
# about 5e-7 at 2048 samples and 2e-6 at 1024
GB_TOL = 1e-5


def _holonomy_op(kind, axis, phi_fn, side, samples, area):
    t = np.linspace(0.0, 2.0 * math.pi, samples)
    points = colatitude_graph(axis, phi_fn(t), t)
    points[-1] = points[0]
    curve = sphere.SphereCurve(points, t, closed=True)
    q_ref = q_from_area(area, side)

    def run():
        q_h, q_a, agree = sphere.holonomy_area_check(curve, axis, side)
        _, _, gb_residual = sphere.gauss_bonnet_check(curve)
        return q_h, q_a, agree, gb_residual

    def check(out):
        q_h, q_a, agree, gb_residual = out
        require(agree, "holonomy and area disagree in the program's own test")
        require(mod1_gap(q_h, q_ref) < Q_TOL,
                f"holonomy q {q_h!r} against reference {q_ref!r}")
        require(mod1_gap(q_a, q_ref) < Q_TOL, f"area q {q_a!r} against {q_ref!r}")
        require(abs(gb_residual) < GB_TOL, f"Gauss-Bonnet residual {gb_residual:.3e}")

    return Op(kind, run, check)


def _latitude_op(rng, colat, samples):
    axis = random_unit(rng, 3)
    side = "left" if rng.uniform() < 0.5 else "right"
    area = 2.0 * math.pi * (1.0 - math.cos(colat))
    return _holonomy_op("holonomy.latitude", axis, lambda t: colat + 0.0 * t,
                        side, samples, area)


def _fourier_op(rng, mean, samples):
    axis = random_unit(rng, 3)
    side = "left" if rng.uniform() < 0.5 else "right"
    c1, s1, c2, s2 = rng.uniform(-0.06, 0.06, size=4)

    def phi(t):
        return (mean + c1 * np.cos(t) + s1 * np.sin(t)
                + c2 * np.cos(2.0 * t) + s2 * np.sin(2.0 * t))

    return _holonomy_op("holonomy.fourier", axis, phi, side, samples,
                        cap_area_of_graph(phi))


def _circle_through(start, pole, colat, ccw, samples):
    """Circle about `pole` through `start`, unit (b/4) speed from parameter 0."""
    e1 = start - np.dot(start, pole) * pole
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    period = math.pi * math.sin(colat)
    t = np.linspace(0.0, period, samples)
    tau = 2.0 * t / math.sin(colat)
    turn = 1.0 if ccw else -1.0
    points = (math.cos(colat) * pole
              + math.sin(colat) * (np.cos(tau)[:, None] * e1
                                   + turn * np.sin(tau)[:, None] * e2))
    points[-1] = points[0]
    return sphere.SphereCurve(points, t, closed=True, b4_length=period), period


def _torus_op(rng, kind, samples, n):
    # a = 1 and b a random unit imaginary: torus_ansatz lifts c2 about
    # conj(b) a while construct checks gamma2 against b conj(a), and the
    # two axes agree only when a commutes with b (see CHANGES.md)
    a = np.array([1.0, 0.0, 0.0, 0.0])
    s = random_unit(rng, 3)
    b = np.concatenate([[0.0], s])
    if kind == "torus.great_circles":
        colat, expected = 0.5 * math.pi, Fraction(1, 2)
        pole1, pole2 = perpendicular_unit(rng, s), perpendicular_unit(rng, s)
    else:
        # caps of area 4 pi / 3 about tilted poles, clockwise then counter-clockwise
        colat, expected = math.acos(1.0 / 3.0), Fraction(2, 3)
        pole1 = s / 3.0 + math.sin(colat) * perpendicular_unit(rng, s)
        pole2 = -s / 3.0 + math.sin(colat) * perpendicular_unit(rng, s)
    c1, p1 = _circle_through(s, pole1, colat, False, samples)
    c2, p2 = _circle_through(-s, pole2, colat, True, samples)

    def run():
        grid, lattice = factory.torus_ansatz(a, b, c1, c2, n1=n, n2=n)
        again = factory.period_lattice(grid.factors, p1=p1, p2=p2)
        return lattice, again

    def check(out):
        lattice, again = out
        for lat in (lattice, again):
            require(isinstance(lat, factory.PeriodLattice),
                    f"no period lattice: {getattr(lat, 'reason', lat)}")
            require(lat.q1 == expected and lat.q2 == expected,
                    f"rotation numbers {lat.q1}, {lat.q2}, expected {expected}")
        require(abs(lattice.p1 - p1) < 1e-9 and abs(lattice.p2 - p2) < 1e-9,
                "periods differ from the curve lengths")

    return Op(kind, run, check)


def _theta_op(rng, half_width, nodes):
    cf = rng.uniform(-0.3, 0.3, size=3)
    cg = rng.uniform(-0.3, 0.3, size=3)
    theta0 = float(rng.uniform(0.4, 1.1))
    f0, f1, f2 = (float(c) for c in cf)
    g0, g1, g2 = (float(c) for c in cg)

    def f(s):
        return f0 + f1 * s + f2 * s * s

    def g(s):
        return g0 + g1 * s + g2 * s * s

    x = np.linspace(-half_width, half_width, nodes)

    def run():
        grid = factory.from_theta(theta0, f, g, x, x)
        return factory.angle_function(grid)

    def check(ang):
        require(abs(np.exp(1j * ang.theta0) - np.exp(1j * theta0)) < 1e-6,
                f"theta0 {ang.theta0!r} against {theta0!r}")
        err1 = float(np.abs(ang.dtheta1 - f(x)).max())
        err2 = float(np.abs(ang.dtheta2 - g(x)).max())
        require(max(err1, err2) < 1e-6, f"potentials recovered to {err1:.2e}, {err2:.2e}")

    return Op("theta.round_trip", run, check)


def build(seed, tiny=False, workdir=None):
    rng = seeded_rng(seed, "lift_march")
    mix = TINY_MIX if tiny else MIX
    samples = 1024 if tiny else 2048
    ops = []
    for colat in stratified(rng, 0.2, 1.0, mix["holonomy.latitude"], JITTER):
        ops.append(_latitude_op(rng, colat, samples))
    for mean in stratified(rng, 0.3, 0.9, mix["holonomy.fourier"], JITTER):
        ops.append(_fourier_op(rng, mean, samples))
    for kind in ("torus.great_circles", "torus.caps"):
        for _ in range(mix[kind]):
            ops.append(_torus_op(rng, kind, 1025 if tiny else 4097, 17 if tiny else 65))
    for half_width in stratified(rng, 0.15, 0.35, mix["theta.round_trip"], JITTER):
        ops.append(_theta_op(rng, half_width, 21 if tiny else 41))
    warmup = _theta_op(rng, 0.2, 21)
    return Workload("lift_march", shuffled(rng, ops), warmup)
