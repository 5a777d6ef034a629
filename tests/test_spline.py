"""The numpy spline kernel and the arc-length table against scipy, and a
runtime that never imports scipy.  scipy is a test dependency only."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline

from bileg import _spline, sphere
from bileg.errors import PreconditionError, ValidationError

SRC = str(Path(sphere.__file__).resolve().parents[1])
REL = 1e-12


def _knots(n, jittered, rng):
    x = np.linspace(-1.0, 2.5, n)
    if jittered and n > 2:
        x[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (x[1] - x[0])
    return x


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= REL * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 1025, 16385])
@pytest.mark.parametrize("jittered", [False, True])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("shape", [(), (4,)])
def test_cubic_matches_scipy(n, jittered, periodic, shape):
    rng = np.random.default_rng(n + 7 * jittered + 3 * periodic + len(shape))
    x = _knots(n, jittered, rng)
    y = rng.normal(size=(n,) + shape)
    if periodic:
        y[-1] = y[0]
    want = CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot")
    got = _spline.cubic(x, y, periodic=periodic)
    # inside, at every knot, and beyond both ends
    t = np.concatenate([rng.uniform(x[0] - 0.7, x[-1] + 0.7, 2000), x])
    for nu in (0, 1):
        _close(got(t, nu), want(t, nu))
    _close(got.derivative()(t), want.derivative()(t))
    _close(got.derivative()(t, 1), want.derivative()(t, 1))
    _close(got(0.4), want(0.4))
    for a, b in ((x[0], x[-1]), (0.3, 1.7), (2.0, -0.5), (-3.0, 9.0)):
        _close(got.integrate(a, b), want.integrate(a, b))


@pytest.mark.parametrize("jittered", [False, True])
@pytest.mark.parametrize("periodic", [False, True])
def test_nan_point_gives_nan_as_scipy(jittered, periodic):
    rng = np.random.default_rng(5)
    x = _knots(33, jittered, rng)
    y = np.sin(x)[:, None] * [1.0, 2.0]
    if periodic:
        y[-1] = y[0]
    want = CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot")
    got = _spline.cubic(x, y, periodic=periodic)
    t = np.array([0.4, np.nan, 1.3])
    for nu in (0, 1):
        value, reference = got(t, nu), want(t, nu)
        np.testing.assert_array_equal(np.isnan(value), np.isnan(reference))
        assert np.isnan(value[1]).all()
        _close(value[[0, 2]], reference[[0, 2]])


def test_two_and_three_knots_are_the_line_and_the_parabola():
    x = np.array([0.0, 0.5, 2.0])
    y = 1.0 - 2.0 * x + 3.0 * x * x
    t = np.linspace(-1.0, 3.0, 41)
    np.testing.assert_allclose(_spline.cubic(x, y)(t), 1.0 - 2.0 * t + 3.0 * t * t, rtol=1e-13)
    np.testing.assert_allclose(_spline.cubic(x[:2], y[:2])(t), y[0] + (y[1] - y[0]) / 0.5 * t,
                               rtol=1e-13)
    np.testing.assert_array_equal(_spline.cubic(x[:2], [4.0, 4.0], periodic=True)(t), 4.0)


@pytest.mark.parametrize("x, y, periodic", [
    ([0.0], [1.0], False),
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], False),
    ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], False),
    ([0.0, np.nan, 1.0], [1.0, 2.0, 3.0], False),
    ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0], False),
    ([0.0, 1.0, 2.0], [1.0, 2.0], False),
    ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 1.0 + 1e-12], True),
])
def test_refused_where_scipy_refuses(x, y, periodic):
    with pytest.raises(ValueError):
        CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot")
    with pytest.raises(ValidationError):
        _spline.cubic(x, y, periodic=periodic)


@pytest.mark.parametrize("n", [2, 3, 17])
@pytest.mark.parametrize("jittered", [False, True])
def test_hermite_reproduces_a_cubic(n, jittered):
    rng = np.random.default_rng(n + 7 * jittered)
    x = _knots(n, jittered, rng)
    coeffs = rng.normal(size=(4, 3))  # a cubic in each of three components

    def cubic(t, nu=0):
        poly = np.polynomial.polynomial
        return np.stack([poly.polyval(t, poly.polyder(c, nu)) for c in coeffs.T], axis=-1)

    got = _spline.hermite(x, cubic(x), cubic(x, 1))
    # inside, at every knot, and beyond both ends
    t = np.concatenate([rng.uniform(x[0] - 0.7, x[-1] + 0.7, 500), x])
    for nu in (0, 1, 2):
        _close(got(t, nu), cubic(t, nu))


def test_hermite_returns_the_slopes_at_the_knots():
    rng = np.random.default_rng(3)
    x = _knots(33, True, rng)
    y, dy = rng.normal(size=(33, 4)), rng.normal(size=(33, 4))
    got = _spline.hermite(x, y, dy)
    _close(got(x), y)
    _close(got(x, 1), dy)


@pytest.mark.parametrize("dy, message", [
    ([1.0, np.nan, 3.0], "slopes must be finite"),
    ([1.0, 2.0, np.inf], "slopes must be finite"),
    ([1.0, 2.0], "slopes must have the shape"),
])
def test_hermite_refuses_bad_slopes(dy, message):
    with pytest.raises(ValidationError, match=message):
        _spline.hermite([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], dy)


@pytest.mark.parametrize("nx, ny", [(41, 41), (97, 61)])
def test_tensor_spline_matches_rect_bivariate_spline(nx, ny):
    rng = np.random.default_rng(nx * ny)
    x = np.linspace(-1.0, 1.0, nx)
    y = np.linspace(-1.3, 1.3, ny)
    z = np.sin(3.0 * x[:, None]) * np.cos(2.0 * y[None]) + 0.01 * rng.normal(size=(nx, ny))
    want = RectBivariateSpline(x, y, z)
    got = _spline.TensorSpline(x, y, z)
    xi = np.concatenate([rng.uniform(-1.0, 1.0, 4000), x, np.full(ny, 1.0)])
    yi = np.concatenate([rng.uniform(-1.3, 1.3, 4000), np.full(nx, -1.3), y])
    _close(got.ev(xi, yi), want.ev(xi, yi))
    _close(got.ev(1.0, 0.0), want.ev(1.0, 0.0))


# reference: the arc-length tables the sphere module used before, a
# Simpson table oversampled 16 times and a spline over it for the inverse


def _cumulative_simpson(t, w):
    h = t[1] - t[0]
    out = np.zeros_like(w)
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


def _reference_resample(curve, n):
    samples = curve.samples.copy()
    samples[-1] = samples[0]
    spl = CubicSpline(curve.params, samples, bc_type="periodic")
    t0, t1 = curve.params[0], curve.params[-1]
    td, _, s = _arclength_tables(spl, t0, t1, 16 * (len(curve) - 1), 0.5)
    targets = np.linspace(0.0, s[-1], n)
    points = spl(_invert_arclength(spl, td, s, targets, 0.5))
    return float(s[-1]), points / np.linalg.norm(points, axis=1)[:, None]


def _loops():
    from test_sphere import _fourier_curve, _great_circle_curve

    yield sphere.latitude_circle([1.0, 0.0, 0.0], 1.1, n=2048)
    yield sphere.latitude_circle([0.0, 0.6, 0.8], 0.1, n=2048)
    yield _fourier_curve(np.random.default_rng(41))
    yield _fourier_curve(np.random.default_rng(43))
    yield _great_circle_curve(n=2001)
    yield _great_circle_curve(n=4096)


@pytest.mark.parametrize("curve", list(_loops()))
def test_arc_length_table_matches_the_simpson_reference(curve):
    for n in (len(curve), 4096):
        length, points = _reference_resample(curve, n)
        unit = sphere.reparametrize(curve, n=n)
        assert abs(unit.b4_length - length) < 1e-9
        assert np.abs(unit.samples[:-1] - points[:-1]).max() < 1e-9


class _SumOfSquaresArcLength:
    """The arc-length table with the speed taken as the norm of the velocity
    at every point and three Newton rounds, where the package forms |c'|^2
    as one quartic per interval and takes two rounds."""

    # the speed is sampled at the rule's nodes, then at both ends of the interval
    OFFSETS = np.append(sphere._GL_NODES, [0.0, 1.0])

    def __init__(self, curve):
        self.spline = sphere._curve_spline(curve)
        self.velocity = self.spline.derivative().c
        self.widths = widths = np.diff(curve.params)
        speed = self._speed(self.velocity, np.multiply.outer(self.OFFSETS, widths))
        self.min_speed = float(speed.min())
        self.knot_lengths = np.concatenate(
            [[0.0], np.cumsum(widths * (sphere._GL_WEIGHTS @ speed[:5]))])
        self.length = float(self.knot_lengths[-1])

    @staticmethod
    def _speed(cv, u):
        return np.sqrt((_spline.horner(cv[:, :, None], u) ** 2).sum(axis=0))

    def points(self, s):
        table = self.knot_lengths
        i = np.clip(np.searchsorted(table, s, side="right") - 1, 0, len(table) - 2)
        width = self.widths[i]
        within = s - table[i]
        u = width * within / (table[i + 1] - table[i])
        cv = np.take(self.velocity, i, axis=-1)
        for _ in range(3):
            speed = self._speed(cv, np.multiply.outer(self.OFFSETS, u))
            partial = u * (sphere._GL_WEIGHTS @ speed[:5])
            u = np.clip(u - (partial - within) / np.maximum(speed[-1], 1e-12), 0.0, width)
        c = _spline.horner(np.take(self.spline.c, i, axis=-1), u).T
        return c / np.linalg.norm(c, axis=1)[:, None]


@pytest.mark.parametrize("curve", list(_loops()))
def test_quartic_speed_agrees_with_the_sum_of_squares_reference(monkeypatch, curve):
    got = sphere.reparametrize(curve, n=4096)
    gauss_bonnet = sphere.gauss_bonnet_check(curve)[2]
    monkeypatch.setattr(sphere, "_ArcLength", _SumOfSquaresArcLength)
    want = sphere.reparametrize(curve, n=4096)
    assert abs(got.b4_length - want.b4_length) < 1e-12
    assert np.abs(got.samples - want.samples).max() < 1e-12
    assert abs(gauss_bonnet - sphere.gauss_bonnet_check(curve)[2]) < 1e-10


def _plateau(n=512, m=40):
    """Angles along a great circle that nearly stop on m of n - 1 intervals:
    the spline's speed there is about 1.1e-10."""
    steps = np.ones(n - 1)
    steps[200:200 + m] = 1e-9
    return 2.0 * math.pi * np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()


def _reversal(n=257):
    """Angles that run back and forth along a great circle: the speed
    vanishes at two knots, and the quartic rounds below 0 at one of them
    when read from the piece on its left."""
    return 2.0 * np.sin(np.linspace(0.0, 2.0 * math.pi, n))


@pytest.mark.parametrize("angles", [_plateau(), _reversal()], ids=["plateau", "reversal"])
def test_stationary_segment_is_refused_without_warning(angles):
    t = np.linspace(0.0, 2.0 * math.pi, len(angles))
    samples = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(t)], axis=1)
    samples[-1] = samples[0]
    curve = sphere.SphereCurve(samples, t, closed=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="stationary segment"):
            sphere.reparametrize(curve)
        with pytest.raises(PreconditionError, match="stationary segment"):
            sphere.gauss_bonnet_check(curve)
        with pytest.raises(PreconditionError, match="stationary segment"):
            sphere.holonomy_area_check(curve, [0.0, 0.0, 1.0], "left")


def _dominant_system(rng, n, delta, k):
    """A tridiagonal system (a, b, c, d) of n unknowns and k right-hand sides
    whose dominance ratio max (|a| + |c|) / |b| is delta."""
    b = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    share = rng.uniform(0.0, 1.0, n)
    size = delta * np.abs(b) * rng.uniform(0.2, 1.0, n)
    if n > 2:
        j = rng.integers(1, n - 1)
        size[j] = delta * abs(b[j])  # an interior row at the ratio
    a = share * size * rng.choice([-1.0, 1.0], n)
    c = (1.0 - share) * size * rng.choice([-1.0, 1.0], n)
    a[0] = c[-1] = 0.0
    return a, b, c, rng.normal(size=(k, n))


@pytest.mark.parametrize("delta", [0.5, 0.3, 0.1, 1e-2, 1e-3])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1023, 2047, 5000])
def test_level_bound_matches_the_full_reduction(delta, n):
    rng = np.random.default_rng(int(1e6 * delta) + n)
    for k in (1, 2, 4):
        a, b, c, d = _dominant_system(rng, n, delta, k)
        got = _spline._solve_tridiagonal(a, b, c, d)
        full = _spline._reduce(a, b, c, d, n)
        ulp = np.spacing(np.abs(full).max(axis=1, keepdims=True))
        assert np.all((got == full) | (np.abs(got - full) <= ulp))


def test_level_bound_runs_every_level_without_dominance():
    rng = np.random.default_rng(3)
    for delta in (1.0, 1.5):
        a, b, c, d = _dominant_system(rng, 1000, delta, 2)
        assert _spline._levels(a, b, c) >= 1000
        full = _spline._reduce(a, b, c, d, 1000)
        assert np.array_equal(_spline._solve_tridiagonal(a, b, c, d), full)
    # each level at most squares the ratio: 0.5 needs 7 levels to pass 2^-64
    assert _spline._levels(np.full(5, 0.25), np.ones(5), np.full(5, 0.25)) == 7
    assert _spline._levels(np.full(5, 0.5), np.ones(5), np.full(5, 0.5)) == 5
    assert _spline._levels(np.zeros(5), np.ones(5), np.zeros(5)) == 0


def _run(code):
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                           textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = _run("""
        import sys
        import bileg
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    assert out.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    curve = tmp_path / "gc.json"
    curve.write_text('{"version": "bileg/1", "kind": "great_circle", "axis": [1, 0, 0], '
                     '"closed": true, "payload": {"samples": 512}}')
    out = _run(f"""
        import sys
        sys.modules["scipy"] = None
        from bileg import cli
        for argv in (["area", "--curve", {str(curve)!r}],
                     ["lift", "--curve", {str(curve)!r}, "--out", {str(tmp_path / "l.csv")!r}]):
            code = cli.main(argv)
            assert code == 0, (argv, code)
        print("done")
    """)
    assert out.strip().endswith("done")
    assert "q snaps to 1/2" in out
