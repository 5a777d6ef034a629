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

The verifiers form their derivatives on row windows.  Those must equal bit
for bit the whole-grid first and second partials and product criterion the
verifiers used to form, kept below as they were, on every row block and on
windows that touch the grid's edges; and no verifier may hold more than a
few whole grids of temporaries.
"""

import itertools
import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from bileg import cec, factory, quat
from bileg._fd import cross4, d_uniform, det4, stencil_rows, uniform_step
from bileg.factory import ImmersionGrid, from_theta

TOLERANCES = json.loads(
    resources.files("bileg").joinpath("tolerances.json").read_text())["tolerances"]


def _agree(new, ref):
    new, ref = np.asarray(new, float), np.asarray(ref, float)
    assert new.shape == ref.shape
    gap = np.abs(new - ref)
    assert np.all(gap <= 1e-10 + 1e-9 * np.abs(ref)), float(gap.max())


# references: the whole-grid derivatives, as the verifiers formed them before
# they streamed row windows

def _partials(grid):
    """First partials (d1X, d2X, d1Y, d2Y): analytic when factors carry velocities."""
    f = grid.factors
    if f is not None and f.dgamma1 is not None and f.dgamma2 is not None:
        G1 = factory._eval_curve(f.gamma1, grid.x1)
        G2 = factory._eval_curve(f.gamma2, grid.x2)
        dG1 = f.velocity1(grid.x1)
        dG2 = f.velocity2(grid.x2)
        return (factory._product(G2, f.a, dG1), factory._product(dG2, f.a, G1),
                factory._product(G2, f.b, dG1), factory._product(dG2, f.b, G1))
    h1 = uniform_step(grid.x1, "x1")
    h2 = uniform_step(grid.x2, "x2")
    return (d_uniform(grid.X, h1, 0), d_uniform(grid.X, h2, 1),
            d_uniform(grid.Y, h1, 0), d_uniform(grid.Y, h2, 1))


def _second_partials(grid, parts):
    """Seconds by differencing the first partials; mixed ones analytically if possible."""
    d1X, d2X, d1Y, d2Y = parts
    h1 = uniform_step(grid.x1, "x1")
    h2 = uniform_step(grid.x2, "x2")
    f = grid.factors
    if f is not None and f.dgamma1 is not None and f.dgamma2 is not None:
        dG1 = f.velocity1(grid.x1)
        dG2 = f.velocity2(grid.x2)
        d12X = factory._product(dG2, f.a, dG1)
        d12Y = factory._product(dG2, f.b, dG1)
    else:
        d12X = d_uniform(d2X, h1, 0)
        d12Y = d_uniform(d2Y, h1, 0)
    return {
        "11X": d_uniform(d1X, h1, 0),
        "12X": d12X,
        "22X": d_uniform(d2X, h2, 1),
        "11Y": d_uniform(d1Y, h1, 0),
        "12Y": d12Y,
        "22Y": d_uniform(d2Y, h2, 1),
    }


def _product_criterion(M, d1M, d2M, h1, h2):
    """Worst |d2(conj(M) d1M)| and |d1((d2M) conj(M))|; both vanish on a product."""
    U = quat.mul(quat.conj(M), d1M)
    V = quat.mul(d2M, quat.conj(M))
    return float(factory._worst(quat.norm(d_uniform(U, h2, 1)),
                                quat.norm(d_uniform(V, h1, 0))))


def _cubic(sec, parts, uvw):
    """Terms (b(du dv X, dw Y), b(du dv Y, dw X)) of the entry uvw (e.g. "122"):
    the cubic form is C(u, v, w) = first - second, its conjugate -(first + second)."""
    u, v, w = uvw
    pair = min(u, v) + max(u, v)
    k = int(w) - 1
    return quat.dot(sec[pair + "X"], parts[k + 2]), quat.dot(sec[pair + "Y"], parts[k])


def _cubic_form_entries(grid):
    parts = _partials(grid)
    sec = _second_partials(grid, parts)
    out = {}
    for uvw in (u + v + w for u in "12" for v in "12" for w in "12"):
        first, second = _cubic(sec, parts, uvw)
        out["C" + uvw] = first - second
    for uvw in (lead + diag + diag for lead in "12" for diag in "12"):
        first, second = _cubic(sec, parts, uvw)
        out["Chat" + uvw] = -(first + second)
    return out


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
    d1X, d2X, d1Y, d2Y = parts = _partials(grid)
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
    sec = _second_partials(grid, parts)
    out["cubic_122"] = float(np.abs(_ref_cubic(sec, parts, "122")).max())
    out["cubic_211"] = float(np.abs(_ref_cubic(sec, parts, "211")).max())
    out["cubic_hat"] = float(np.max([np.abs(_ref_cubic(sec, parts, lead + diag + diag,
                                                       hat=True)).max()
                                     for lead in "12" for diag in "12"]))
    return out


def _ref_angle(grid):
    """theta, frame_residual, wave, split, dtheta1 and dtheta2 of the immersion."""
    i0, j0 = grid.origin()
    d1X, d2X, d1Y, d2Y = _partials(grid)
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
    d1X, d2X, _, _ = _partials(grid)
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


def _theta_grid(x1, x2):
    f = lambda t: 0.25 + 0.2 * np.sin(1.3 * t)
    g = lambda t: -0.15 + 0.1 * np.cos(t)
    return from_theta(0.7, f, g, x1, x2)


def _grids(n1, n2):
    return _kinds(_theta_grid(np.linspace(-0.3, 0.3, n1), np.linspace(-0.5, 0.5, n2)))


def _kinds(grid):
    """The analytic grid, its finite-difference twin, and a perturbed twin."""
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


# theta0 in [4, 5.5] with larger potentials turns the unsigned frame through
# e -> -e at thousands of nodes, where the grids above flip none

@pytest.fixture(scope="module", params=[(theta0, size) for theta0 in (4.0, 5.5) for size in SIZES],
                ids=lambda p: f"{p[0]}-{p[1][0]}x{p[1][1]}")
def flip_grids(request):
    theta0, (n1, n2) = request.param
    f = lambda t: 1.5 + 0.4 * np.sin(1.3 * t)
    g = lambda t: -1.2 + 0.3 * np.cos(t)
    return _kinds(from_theta(theta0, f, g, np.linspace(-0.3, 0.3, n1),
                             np.linspace(-0.5, 0.5, n2)))


@pytest.mark.parametrize("kind", ["analytic", "finite_difference", "perturbed"])
def test_angle_function_agrees_across_frame_sign_flips(flip_grids, kind, monkeypatch):
    grid = flip_grids[kind]
    signs = []
    propagate = factory._propagate_sign

    def recorded(*args):
        signs.append(propagate(*args))
        return signs[-1]

    monkeypatch.setattr(factory, "_propagate_sign", recorded)
    new, ref = factory.angle_function(grid), _ref_angle(grid)
    assert (signs[0] < 0).sum() > 100
    for name, value in ref.items():
        _agree(getattr(new, name), value)


@pytest.mark.parametrize("kind", ["analytic", "finite_difference"])
def test_angle_function_forms_each_block_once(grids, kind, monkeypatch):
    grid = grids[kind]
    calls = []
    first = factory._RowDerivatives.first

    def counted(self, rows):
        calls.append(rows)
        return first(self, rows)

    monkeypatch.setattr(factory._RowDerivatives, "first", counted)
    factory.angle_function(grid)
    assert calls == factory._row_blocks(*grid.X.shape[:2])


@pytest.mark.parametrize("kind", ["analytic", "finite_difference"])
@pytest.mark.parametrize("index", [1, 2])
def test_asymptotic_frame_tangent_is_bit_identical(grids, kind, index):
    grid = grids[kind]
    ref = _ref_tangent(grid, index)
    np.testing.assert_array_equal(factory._axis_tangent(grid, index, *grid.origin()), ref)
    if grid.X.shape[1] == 97:  # the coarser grids miss the framed-curve tolerance
        frame = factory.asymptotic_frame(grid, index, factory.angle_function(grid))
        np.testing.assert_array_equal(frame.T, ref)


# row windows against the whole-grid derivatives, bit for bit: every window of
# a grid with 5 to 9 rows, and the row blocks of grids whose blocks hold 1 to 4
# rows, which put block boundaries 1 to 4 rows from either grid edge

def _centered_grids(n1, n2):
    """The three kinds of grid over axes that hold the parameter origin also
    when n1 or n2 is even."""
    x1 = 0.6 / (n1 - 1) * (np.arange(n1) - n1 // 2)
    x2 = 1.0 / (n2 - 1) * (np.arange(n2) - n2 // 2)
    return _kinds(_theta_grid(x1, x2))


def _assert_windows_exact(grid, windows):
    parts = _partials(grid)
    sec = _second_partials(grid, parts)
    seconds = np.stack([sec[k] for k in ("11X", "12X", "22X", "11Y", "12Y", "22Y")])
    h1, h2 = uniform_step(grid.x1, "x1"), uniform_step(grid.x2, "x2")
    # the two terms of _product_criterion, node by node
    U = quat.mul(quat.conj(grid.X), parts[0])
    V = quat.mul(parts[1], quat.conj(grid.X))
    terms = quat.norm(d_uniform(U, h2, 1)), quat.norm(d_uniform(V, h1, 0))
    derivs = factory._derivatives(grid)
    for rows in windows:
        first, second, criterion = derivs.window(rows)
        np.testing.assert_array_equal(np.stack(sum(first, ())), np.stack(parts)[:, rows])
        np.testing.assert_array_equal(np.stack(sum(second, ())), seconds[:, rows])
        assert criterion == factory._worst(terms[0][rows], terms[1][rows]), rows
        np.testing.assert_array_equal(np.stack(sum(derivs.first(rows), ())),
                                      np.stack(parts)[:, rows])


@pytest.mark.parametrize("n1", range(5, 10))
@pytest.mark.parametrize("kind", ["analytic", "finite_difference", "perturbed"])
def test_every_window_of_a_short_grid_is_exact(n1, kind):
    grid = _centered_grids(n1, 11)[kind]
    _assert_windows_exact(grid, [slice(r0, r1) for r0 in range(n1) for r1 in range(r0 + 1, n1 + 1)])


def test_stencil_rows_hold_what_the_stencil_reads():
    for n in range(5, 12):
        for r0, r1 in itertools.combinations(range(n + 1), 2):
            halo = stencil_rows(slice(r0, r1), n)
            read = set()
            for k in range(r0, r1):
                read |= set(range(5) if k < 2 else range(n - 5, n) if k > n - 3
                            else range(k - 2, k + 3))
            assert set(range(halo.start, halo.stop)) == set(range(min(read), max(read) + 1))


# one-row blocks on 9 rows put boundaries 1 to 4 rows from both edges; the
# others put them 2 and 4 rows (8 rows of 2), 3 and 1 (7 of 3), 4 and 1 (5 of 4)
@pytest.mark.parametrize("block_rows, n1", [(1, 9), (2, 8), (3, 7), (4, 5)])
def test_row_blocks_near_the_edges_are_exact(block_rows, n1, monkeypatch):
    # the narrowest grid whose row blocks hold block_rows rows
    n2 = factory._BLOCK_NODES // (block_rows + 1) + 1
    blocks = factory._row_blocks(n1, n2)
    assert {b.stop - b.start for b in blocks[:-1]} <= {block_rows}
    for kind, grid in _centered_grids(n1, n2).items():
        _assert_windows_exact(grid, blocks)
        parts = _partials(grid)
        h1, h2 = uniform_step(grid.x1, "x1"), uniform_step(grid.x2, "x2")
        suite = factory.residual_suite(grid)
        assert suite["product_criterion"] == _product_criterion(grid.X, parts[0], parts[1], h1, h2)
        cubic, ref = factory.cubic_form_entries(grid), _cubic_form_entries(grid)
        assert list(cubic) == list(ref)
        for name in ref:
            np.testing.assert_array_equal(cubic[name], ref[name])
        M = grid.X / quat.norm(grid.X)[..., None]
        lie = factory.lie_factorize(grid.x1, grid.x2, grid.X, tol=1e300)
        assert lie.criterion_residual == _product_criterion(
            M, d_uniform(M, h1, 0), d_uniform(M, h2, 1), h1, h2)
        # one block over the whole grid forms the whole-grid derivatives
        monkeypatch.setattr(factory, "_BLOCK_NODES", n1 * n2)
        assert factory.residual_suite(grid) == suite
        monkeypatch.undo()


# temporaries: at 385^2 nodes every whole-grid derivative would be one more
# 4.7 MB quaternion grid; the verifiers hold at most four grids' worth at once

@pytest.fixture(scope="module")
def large_grids():
    return _grids(385, 385)


@pytest.mark.parametrize("verifier, kind", [
    ("residual_suite", "analytic"), ("residual_suite", "finite_difference"),
    ("angle_function", "analytic"), ("angle_function", "finite_difference"),
    ("lie_factorize", "finite_difference"),
])
def test_verifier_temporaries_stay_under_four_grids(large_grids, verifier, kind):
    grid = large_grids[kind]
    call = {
        "residual_suite": lambda: factory.residual_suite(grid),
        "angle_function": lambda: factory.angle_function(grid),
        "lie_factorize": lambda: factory.lie_factorize(grid.x1, grid.x2, grid.X),
    }[verifier]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grids = (peak - before) / grid.X.nbytes
    assert grids <= 4.0, f"{verifier} held {grids:.2f} quaternion grids of temporaries"


@pytest.mark.parametrize("kind", ["analytic", "finite_difference"])
def test_angle_function_holds_under_three_grids(large_grids, kind):
    # per node it keeps scalars only: b(U, e), b(V, e), the overlaps, theta
    grid = large_grids[kind]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        factory.angle_function(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grids = (peak - before) / grid.X.nbytes
    assert grids <= 3.0, f"angle_function held {grids:.2f} quaternion grids of temporaries"


def test_lie_factors_keep_no_grid(large_grids):
    # C was a view of the normalized copy of M, so the record kept that whole grid
    grid = large_grids["finite_difference"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lie = factory.lie_factorize(grid.x1, grid.x2, grid.X)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert lie.C.shape == (4,)
    assert kept < 0.1 * grid.X.nbytes, f"LieFactors kept {kept / grid.X.nbytes:.2f} grids"


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


def _stack_mul(p, q):
    """quat.mul as it was: sixteen product temporaries and np.stack."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy + py * qw + pz * qx - px * qz,
                     pw * qz + pz * qw + px * qy - py * qx], axis=-1)


def _stack_cross4(a, b, c):
    """_fd.cross4 as it was, with np.stack, on stacks of 4-vectors."""
    a, b, c = (np.moveaxis(v, -1, 0) for v in (a, b, c))
    m01, m02, m03, m12, m13, m23 = (a[i] * b[j] - a[j] * b[i]
                                    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    c0, c1, c2, c3 = c
    return np.stack([m13 * c2 - m12 * c3 - m23 * c1,
                     m02 * c3 - m03 * c2 + m23 * c0,
                     m03 * c1 - m01 * c3 - m13 * c0,
                     m01 * c2 - m02 * c1 + m12 * c0], axis=-1)


def _expression_d_uniform(F, h, axis):
    """_fd.d_uniform as it was, with the interior stencil as one expression."""
    F = np.moveaxis(np.asarray(F, dtype=float), axis, 0)
    out = np.empty_like(F)
    out[2:-2] = (F[:-4] - 8.0 * F[1:-3] + 8.0 * F[3:-1] - F[4:]) / (12.0 * h)
    out[0] = (-25.0 * F[0] + 48.0 * F[1] - 36.0 * F[2] + 16.0 * F[3] - 3.0 * F[4]) / (12.0 * h)
    out[1] = (-3.0 * F[0] - 10.0 * F[1] + 18.0 * F[2] - 6.0 * F[3] + F[4]) / (12.0 * h)
    out[-1] = (25.0 * F[-1] - 48.0 * F[-2] + 36.0 * F[-3] - 16.0 * F[-4] + 3.0 * F[-5]) / (12.0 * h)
    out[-2] = (3.0 * F[-1] + 10.0 * F[-2] - 18.0 * F[-3] + 6.0 * F[-4] - F[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def _bits_equal(new, ref):
    assert new.shape == ref.shape and new.tobytes() == ref.tobytes()


def _spread(rng, shape):
    """Normal samples over twelve decades, with some exact zeros of either sign."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    v.flat[::7] = 0.0
    v.flat[::11] = -0.0
    return v


def test_mul_is_bit_identical_to_the_stacked_product():
    rng = np.random.default_rng(13)
    grid = _spread(rng, (33, 17, 4))
    cases = [
        (_spread(rng, (4,)), _spread(rng, (4,))),
        (_spread(rng, (4,)), _spread(rng, (65, 4))),
        (_spread(rng, (65, 4)), _spread(rng, (4,))),
        (_spread(rng, (33, 1, 4)), _spread(rng, (1, 17, 4))),
        (grid[:, 5], _spread(rng, (33, 4))),   # a strided column view
        (grid, grid[::-1, ::2].repeat(2, axis=1)[:, :17]),
    ]
    for p, q in cases:
        out = quat.mul(p, q)
        _bits_equal(out, _stack_mul(p, q))
        assert not np.shares_memory(out, p) and not np.shares_memory(out, q)
        assert out.base is None
        if p.ndim > 1 or q.ndim > 1:
            # the same product on component planes, a single quaternion as a column
            planes = quat._mul_planes(np.moveaxis(p, -1, 0).reshape(4, *p.shape[:-1] or (1,)),
                                      np.moveaxis(q, -1, 0).reshape(4, *q.shape[:-1] or (1,)))
            _bits_equal(np.ascontiguousarray(np.moveaxis(planes, 0, -1)), out)


def test_dot_is_the_ordered_sum_of_four_products():
    rng = np.random.default_rng(17)
    grid = _spread(rng, (33, 17, 4))
    cases = [
        (_spread(rng, (4,)), _spread(rng, (4,))),
        (np.array([0.0, -0.0, 0.0, -0.0]), np.array([-1.0, 1.0, -1.0, 1.0])),  # -0.0
        (_spread(rng, (4,)), _spread(rng, (65, 4))),
        (_spread(rng, (33, 1, 4)), _spread(rng, (1, 17, 4))),
        (grid[:, 5], _spread(rng, (33, 4))),
        (grid, grid[::-1]),
    ]
    for p, q in cases:
        got = quat.dot(p, q)
        want = p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2] \
            + p[..., 3] * q[..., 3]
        assert type(got) is type(want)
        _bits_equal(np.asarray(got), np.asarray(want))


def test_cross4_and_d_uniform_are_bit_identical_to_their_expressions():
    rng = np.random.default_rng(17)
    a, b, c = (_spread(rng, (9, 11, 4)) for _ in range(3))
    _bits_equal(cross4(a, b, c), _stack_cross4(a, b, c))
    _bits_equal(cross4(a[:, 3], b[:, 7], c[4, 0]), _stack_cross4(a[:, 3], b[:, 7], c[4, 0]))
    F = _spread(rng, (9, 11, 4))
    for G, axis in [(F, 0), (F, 1), (F[:, 4], 0), (F[2, :, 1], 0), (F[:, ::2], 1)]:
        out = d_uniform(G, 0.037, axis)
        _bits_equal(out, _expression_d_uniform(G, 0.037, axis))
        assert out.base is None


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
