"""The blocked grid verifiers against whole-grid reference formulas.

The references below evaluate every per-node quantity over the whole grid at
once, with inner products as sums over the trailing axis and determinants
from LAPACK, the way `factory` and `cec` did before their per-node work was
split into row blocks and closed forms.  The verifiers must agree with them
to roundoff, |new - ref| <= 1e-10 + 1e-9 |ref|, give the same verdict
against the shipped tolerances, and reproduce the asymptotic frame's
tangent bit for bit.  The shared quaternion kernels (`quat.dot`,
`quat.quarter_turn`, `_fd.det4`, `_fd.cross4`) are held to the formulas they
replaced in the same way.
"""

import itertools
import json
from importlib import resources

import numpy as np
import pytest

from bileg import cec, factory, quat
from bileg._fd import cross4, d_uniform, det4, uniform_step
from bileg.factory import ImmersionGrid, from_theta

TOLERANCES = json.loads(
    resources.files("bileg").joinpath("tolerances.json").read_text())["tolerances"]


def _agree(new, ref):
    new, ref = np.asarray(new, float), np.asarray(ref, float)
    assert new.shape == ref.shape
    gap = np.abs(new - ref)
    assert np.all(gap <= 1e-10 + 1e-9 * np.abs(ref)), float(gap.max())


# references: whole-grid formulas

def _bdot(p, q):
    return np.sum(p * q, axis=-1)


def _norm(q):
    return np.linalg.norm(q, axis=-1)


def _apply_A(X, Y, z):
    return quat.mul(Y, quat.mul(quat.conj(X), z))


def _ref_criterion(M, d1M, d2M, h1, h2):
    U = quat.mul(quat.conj(M), d1M)
    V = quat.mul(d2M, quat.conj(M))
    return max(float(_norm(d_uniform(U, h2, 1)).max()),
               float(_norm(d_uniform(V, h1, 0)).max()))


def _ref_cubic(sec, parts, uvw, hat=False):
    u, v, w = uvw
    pair = min(u, v) + max(u, v)
    k = int(w) - 1
    dX, dY = parts[k], parts[k + 2]
    if hat:
        return -(_bdot(sec[pair + "X"], dY) + _bdot(sec[pair + "Y"], dX))
    return _bdot(sec[pair + "X"], dY) - _bdot(sec[pair + "Y"], dX)


def _ref_residual_suite(grid):
    X, Y = grid.X, grid.Y
    d1X, d2X, d1Y, d2Y = parts = factory._partials(grid)
    out = {
        "tangency_dX_X": float(max(np.abs(_bdot(d1X, X)).max(), np.abs(_bdot(d2X, X)).max())),
        "tangency_dX_Y": float(max(np.abs(_bdot(d1X, Y)).max(), np.abs(_bdot(d2X, Y)).max())),
        "tangency_dY_X": float(max(np.abs(_bdot(d1Y, X)).max(), np.abs(_bdot(d2Y, X)).max())),
        "tangency_dY_Y": float(max(np.abs(_bdot(d1Y, Y)).max(), np.abs(_bdot(d2Y, Y)).max())),
    }
    out["omega_i"] = float(np.abs(_bdot(d1X, d2Y) - _bdot(d1Y, d2X)).max())
    Ad2X = _apply_A(X, Y, d2X)
    Ad2Y = _apply_A(X, Y, d2Y)
    out["omega_k"] = float(np.abs(_bdot(d1X, Ad2X) + _bdot(d1Y, Ad2Y)).max())
    g11 = _bdot(d1X, d1X) + _bdot(d1Y, d1Y)
    g22 = _bdot(d2X, d2X) + _bdot(d2Y, d2Y)
    g12 = _bdot(d1X, d2X) + _bdot(d1Y, d2Y)
    out["flat_metric"] = float(
        max(np.abs(g11 - 2.0).max(), np.abs(g22 - 2.0).max(), np.abs(g12).max()))
    out["unit_speed"] = float(max(
        np.abs(_bdot(d1X, d1X) - 1.0).max(), np.abs(_bdot(d2X, d2X) - 1.0).max(),
        np.abs(_bdot(d1Y, d1Y) - 1.0).max(), np.abs(_bdot(d2Y, d2Y) - 1.0).max()))
    left = quat.mul(d1Y, quat.conj(X)) + quat.mul(Y, quat.conj(d1X))
    right = quat.mul(quat.conj(d2X), Y) + quat.mul(quat.conj(X), d2Y)
    out["normal_transport"] = float(max(_norm(left).max(), _norm(right).max()))
    h1 = uniform_step(grid.x1, "x1")
    h2 = uniform_step(grid.x2, "x2")
    out["product_criterion"] = _ref_criterion(X, d1X, d2X, h1, h2)
    sec = factory._second_partials(grid, parts)
    out["cubic_122"] = float(np.abs(_ref_cubic(sec, parts, "122")).max())
    out["cubic_211"] = float(np.abs(_ref_cubic(sec, parts, "211")).max())
    out["cubic_hat"] = float(np.max([np.abs(_ref_cubic(sec, parts, lead + diag + diag,
                                                       hat=True)).max()
                                     for lead in "12" for diag in "12"]))
    return out


def _ref_angle(grid):
    """theta, frame_residual, wave, split, dtheta1 and dtheta2 of the immersion."""
    i0, j0 = grid.origin()
    d1X, d2X, d1Y, d2Y = factory._partials(grid)
    U = 0.5 * (d1X + d2X)
    V = 0.5 * (d1Y + d2Y)
    nu, nv = _norm(U), _norm(V)
    raw = np.where((nu >= nv)[..., None], U / nu[..., None], V / nv[..., None])
    n1, n2 = raw.shape[:2]
    sign = np.ones((n1, n2))
    s_row = np.sign(_bdot(raw[1:, j0], raw[:-1, j0]))
    sign[i0 + 1:, j0] = np.cumprod(s_row[i0:])
    sign[i0 - 1::-1, j0] = np.cumprod(s_row[i0 - 1::-1])
    s_col = np.sign(_bdot(raw[:, 1:], raw[:, :-1]))
    sign[:, j0 + 1:] = sign[:, [j0]] * np.cumprod(s_col[:, j0:], axis=1)
    sign[:, j0 - 1::-1] = sign[:, [j0]] * np.cumprod(s_col[:, j0 - 1::-1], axis=1)
    e1 = sign[..., None] * raw
    theta = np.arctan2(_bdot(V, e1), _bdot(U, e1))
    row = theta[:, j0].copy()
    theta[i0:, j0] = np.unwrap(row[i0:])
    theta[i0::-1, j0] = np.unwrap(row[i0::-1])
    theta[:, j0:] = np.unwrap(theta[:, j0:], axis=1)
    theta[:, j0::-1] = np.unwrap(theta[:, j0::-1], axis=1)

    e2 = _apply_A(grid.X, grid.Y, e1)
    cs, sn = np.cos(theta)[..., None], np.sin(theta)[..., None]
    recon = max(
        float(_norm(d1X - (cs * e1 - sn * e2)).max()),
        float(_norm(d1Y - (sn * e1 + cs * e2)).max()),
        float(_norm(d2X - (cs * e1 + sn * e2)).max()),
        float(_norm(d2Y - (sn * e1 - cs * e2)).max()),
    )
    det = np.linalg.det(np.stack([grid.X, e1, e2, grid.Y], axis=-1))
    frame = max(recon, float(np.abs(det - 1.0).max()))

    h1 = uniform_step(grid.x1, "x1")
    h2 = uniform_step(grid.x2, "x2")
    d1theta = d_uniform(theta, h1, 0)
    wave = float(np.abs(d_uniform(d1theta, h2, 1)).max())
    theta00 = float(theta[i0, j0])
    split = float(np.abs(theta - (theta[:, j0] - 0.5 * theta00)[:, None]
                         - (theta[i0, :] - 0.5 * theta00)[None, :]).max())
    return {"theta": theta, "frame_residual": frame, "wave_residual": wave,
            "split_residual": split, "dtheta1": d1theta[:, j0],
            "dtheta2": d_uniform(theta, h2, 1)[i0, :]}


def _ref_tangent(grid, index):
    """T of the asymptotic frame, read off the whole-grid partials."""
    i0, j0 = grid.origin()
    d1X, d2X, _, _ = factory._partials(grid)
    return d1X[:, j0] if index == 1 else d2X[i0, :]


def _ref_assemble(I, II_raw, III):
    II = 0.5 * (II_raw + np.swapaxes(II_raw, -1, -2))
    shape = np.linalg.solve(I, II)
    third = float(np.abs(III - II @ np.linalg.solve(I, II)).max())
    return {"II": II, "shape": shape, "det_shape": np.linalg.det(shape),
            "third_form_residual": third}


def _ref_brioschi(E, F, G, h1, h2):
    d1 = lambda f: d_uniform(f, h1, 0)
    d2 = lambda f: d_uniform(f, h2, 1)
    Eu, Ev, Gu, Gv, Fu, Fv = d1(E), d2(E), d1(G), d2(G), d1(F), d2(F)
    Evv, Guu, Fuv = d2(Ev), d1(Gu), d2(Fu)
    M1 = np.stack([
        np.stack([-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev], axis=-1),
        np.stack([Fv - 0.5 * Gu, E, F], axis=-1),
        np.stack([0.5 * Gv, F, G], axis=-1),
    ], axis=-2)
    M2 = np.stack([
        np.stack([np.zeros_like(E), 0.5 * Ev, 0.5 * Gu], axis=-1),
        np.stack([0.5 * Ev, E, F], axis=-1),
        np.stack([0.5 * Gu, F, G], axis=-1),
    ], axis=-2)
    return np.linalg.det(M1) - np.linalg.det(M2)


# inputs: analytic (factors attached) and finite-difference grids, accepted and
# perturbed, at sizes that cross the row blocks in every way

# (n1, n2): three blocks of which the last is short, with n2 not dividing the
# block; n1 smaller than one block; one-row blocks
_ROWS = factory._BLOCK_NODES // 97
SIZES = [(2 * _ROWS + 11, 97), (21, 33), (7, factory._BLOCK_NODES // 2 + 1)]


def _theta_grid(n1, n2):
    f = lambda t: 0.25 + 0.2 * np.sin(1.3 * t)
    g = lambda t: -0.15 + 0.1 * np.cos(t)
    return from_theta(0.7, f, g, np.linspace(-0.3, 0.3, n1), np.linspace(-0.5, 0.5, n2))


def _grids(n1, n2):
    grid = _theta_grid(n1, n2)
    bare = ImmersionGrid(grid.x1, grid.x2, grid.X, grid.Y)
    # a left rotation by a non-separable angle keeps X, Y unit and orthogonal
    u = 4e-3 * np.sin(1.7 * np.multiply.outer(grid.x1, grid.x2) + 0.3)
    twist = quat.exp_im(quat.from_vec3(u[..., None] * np.array([0.6, 0.0, 0.8])))
    perturbed = ImmersionGrid(grid.x1, grid.x2, quat.mul(twist, grid.X),
                              quat.mul(twist, grid.Y))
    return {"analytic": grid, "finite_difference": bare, "perturbed": perturbed}


@pytest.fixture(scope="module", params=SIZES, ids=["blocks", "one_block", "one_row_blocks"])
def grids(request):
    return _grids(*request.param)


@pytest.mark.parametrize("kind", ["analytic", "finite_difference", "perturbed"])
def test_residual_suite_agrees(grids, kind):
    grid = grids[kind]
    new, ref = factory.residual_suite(grid), _ref_residual_suite(grid)
    assert list(new) == list(ref)
    for name in ref:
        _agree(new[name], ref[name])
        assert (new[name] <= TOLERANCES[name]) == (ref[name] <= TOLERANCES[name]), name
    if kind == "perturbed":
        assert ref["product_criterion"] > TOLERANCES["product_criterion"]


@pytest.mark.parametrize("kind", ["analytic", "finite_difference", "perturbed"])
def test_angle_function_agrees(grids, kind):
    grid = grids[kind]
    new, ref = factory.angle_function(grid), _ref_angle(grid)
    for name, value in ref.items():
        _agree(getattr(new, name), value)


@pytest.mark.parametrize("kind", ["analytic", "finite_difference"])
@pytest.mark.parametrize("index", [1, 2])
def test_asymptotic_frame_tangent_is_bit_identical(grids, kind, index):
    grid = grids[kind]
    ref = _ref_tangent(grid, index)
    np.testing.assert_array_equal(factory._axis_tangent(grid, index, *grid.origin()), ref)
    if grid.X.shape[1] == 97:  # the coarser grids miss the framed-curve tolerance
        frame = factory.asymptotic_frame(grid, index, factory.angle_function(grid))
        np.testing.assert_array_equal(frame.T, ref)


def test_frame_determinant_closed_form():
    rng = np.random.default_rng(3)
    cols = [rng.standard_normal((5, 7, 4)) for _ in range(4)]
    _agree(det4(*cols), np.linalg.det(np.stack(cols, axis=-1)))
    # a single 4-vector takes the Python-float path: the same arithmetic, bit for bit
    assert det4(*(c[2, 3] for c in cols)) == det4(*cols)[2, 3]


def _levi_civita4():
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
    return eps


def test_cross4_is_the_levi_civita_contraction():
    rng = np.random.default_rng(5)
    a, b, c = rng.standard_normal((3, 9, 11, 4))
    ref = np.einsum("abcd,...a,...b,...c->...d", _levi_civita4(), a, b, c)
    _agree(cross4(a, b, c), ref)
    np.testing.assert_array_equal(cross4(a[4, 5], b[4, 5], c[4, 5]), cross4(a, b, c)[4, 5])


def test_dot_is_bit_identical_to_the_trailing_sum():
    rng = np.random.default_rng(7)
    for shape in [(4,), (257, 4), (33, 65, 4)]:
        p = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        q = rng.standard_normal(shape)
        np.testing.assert_array_equal(quat.dot(p, q), np.sum(p * q, axis=-1))


def test_quarter_turn_agrees_with_the_old_rotate_A():
    # rotate_A used to map z to -z * conj(x) * y
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        frame, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        x, y, u, v = frame.T
        z = rng.standard_normal() * u + rng.standard_normal() * v
        old = -quat.mul(quat.mul(z, quat.conj(x)), y)
        worst = max(worst, float(np.abs(quat.quarter_turn(x, y, z) - old).max()))
    assert worst <= 1e-14, worst


def _patches():
    x = np.linspace(-1.0, 1.0, 41)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = 0.3 * np.sin(1.3 * X) * np.cos(0.7 * Y) + 0.1 * X * Y
    fx = 0.39 * np.cos(1.3 * X) * np.cos(0.7 * Y) + 0.1 * Y
    fy = -0.21 * np.sin(1.3 * X) * np.sin(0.7 * Y) + 0.1 * X
    den = np.sqrt(1.0 + fx**2 + fy**2)
    graph = cec.SurfacePatch("euclidean", x, x, np.stack([X, Y, f], axis=-1),
                             np.stack([-fx / den, -fy / den, 1.0 / den], axis=-1))
    return [cec.pseudosphere_patch(65), cec.hyperbolic_cylinder_patch(0.7, 49), graph]


@pytest.mark.parametrize("index", range(3))
def test_fundamental_forms_agree(index):
    patch = _patches()[index]
    forms = cec.fundamental_forms(patch)
    ref = _ref_assemble(forms.I, forms.II, forms.III)
    for name, value in ref.items():
        _agree(getattr(forms, name), value)


def test_chebyshev_forms_agree():
    x = np.linspace(-1.0, 1.0, 33)
    theta = 2.0 * np.arctan(np.exp(np.add.outer(x, 0.5 * x)))
    theta = np.clip(theta, 0.1, 1.4)
    forms = cec.chebyshev_forms(cec.ThetaGrid(x, x, theta, k=1.0))
    ref = _ref_assemble(forms.I, forms.II, forms.III)
    for name, value in ref.items():
        _agree(getattr(forms, name), value)


@pytest.mark.parametrize("index", range(3))
def test_brioschi_agrees(index):
    patch = _patches()[index]
    forms = cec.fundamental_forms(patch)
    h = forms.I + forms.III
    h1, h2 = patch.steps
    E, F, G = h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]
    numer, det_h = cec._brioschi(E, F, G, h1, h2)
    _agree(numer, _ref_brioschi(E, F, G, h1, h2))
    _agree(det_h, E * G - F * F)
    if index < 2:  # the two CEC patches: the flat combination of each sign
        k, sign = (1.0, "+") if index == 0 else (1.0, "-")
        flat = cec.flat_metric(patch, k, sign)
        E, F, G = flat.h[..., 0, 0], flat.h[..., 0, 1], flat.h[..., 1, 1]
        ref = _ref_brioschi(E, F, G, h1, h2) / (E * G - F * F) ** 2
        good = ~flat.mask
        _agree(flat.curvature[good], ref[good])
