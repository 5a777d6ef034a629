"""Construction, factorization, and classification of bilegendrian surfaces.

A bilegendrian immersion of the plane into the unit tangent bundle of the
3-sphere is, up to isometry, a two-factor product

    phi(x1, x2) = (gamma2(x2) . a . gamma1(x1),  gamma2(x2) . b . gamma1(x1))

where a, b are orthogonal unit quaternions, gamma1 is a right horizontal
arc-length curve for the axis conj(a).b, and gamma2 is a left horizontal
arc-length curve for the axis b.conj(a).  This module builds such immersions
from factor curves (`construct`), reads the factors of a sampled product off
its coordinate axes (`factorize`; `lie_factorize` for any unit quaternion
grid that passes the product criterion), measures every structural residual
(`residual_suite`), extracts the angle function and asymptotic Frenet frames
that classify the immersion (`angle_function`, `asymptotic_frame`,
`from_theta`), and handles the doubly-periodic case: the torus ansatz from
closed spherical curves, the period lattice with its fiber rotation numbers,
the Gauss map factorization, and the flat-torus criteria.

Grids are indexed X[i, j] with i along x1 and j along x2.  Quaternions are
rows (w, x, y, z).

The whole-grid verifiers (`residual_suite`, `angle_function`) form their
partials once per call and then evaluate every per-node quantity over row
blocks of about `_BLOCK_NODES` = 16384 nodes (512 KiB per quaternion
block).  Whole 385^2 grids (4.7 MB each) would stream some 40 full-size
temporaries through memory, while much smaller blocks pay numpy's per-call
cost too often; on a host with a 2 MiB L2 cache, 4096, 8192, 16384 and
32768 nodes per block ran the verifiers at 97^2, 193^2 and 385^2 nodes
fastest at 16384.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.interpolate import CubicSpline

from . import quat, sphere
from ._fd import axis_array as _axis_array
from ._fd import d_uniform as _d_uniform
from ._fd import det4
from ._fd import finite as _finite
from ._fd import prefix_products as _prefix_products
from ._fd import require_finite as _require_finite
from ._fd import uniform_step as _uniform_step
from .errors import (
    NoMaximalLattice,
    NotFactorizable,
    PreconditionError,
    ValidationError,
)

_TWO_PI = 2.0 * math.pi

# J-eigenvalues of the two asymptotic directions
EPS1 = 1.0
EPS2 = -1.0


# nodes per row block of the per-node verifier work; see the module docstring
_BLOCK_NODES = 16384


def _worst(*grids):
    """Largest |entry| over the grids; NaN as soon as one entry is NaN."""
    return functools.reduce(np.maximum, [np.abs(g).max() for g in grids])


def _row_blocks(n1, n2):
    """Slices of consecutive rows holding about _BLOCK_NODES nodes each."""
    rows = max(1, _BLOCK_NODES // n2)
    return [slice(i, min(i + rows, n1)) for i in range(0, n1, rows)]


def _orthonormal_pair(a, b):
    """a and b as orthogonal unit quaternion 4-arrays; anything else raises."""
    pair = [np.asarray(q, dtype=float) for q in (a, b)]
    for arr, name in zip(pair, "ab"):
        if arr.shape != (4,):
            raise ValidationError(f"{name} must be a quaternion 4-array, got shape {arr.shape}")
        _require_finite(name, arr, nodes=1)
        if abs(np.linalg.norm(arr) - 1.0) > 1e-9:
            raise PreconditionError(f"{name} must be a unit quaternion")
    if abs(float(quat.dot(*pair))) > 1e-9:
        raise PreconditionError("a and b must be orthogonal")
    return pair


def _eval_curve(fn, ts):
    ts = np.asarray(ts, dtype=float)
    out = np.asarray(fn(ts), dtype=float)
    if out.shape != ts.shape + (4,):
        raise ValidationError(
            "factor curve callables must map a parameter array (N,) to quaternions (N, 4)"
        )
    return out


def _fd_curve(fn, ts, delta=1e-5):
    return (_eval_curve(fn, ts + delta) - _eval_curve(fn, ts - delta)) / (2.0 * delta)


@dataclass
class Factorization:
    """Factor data (a, b, gamma1, gamma2) of a product immersion.

    gamma1 and gamma2 are vectorized callables from parameters to unit
    quaternions with gamma(0) = 1; dgamma1 and dgamma2, when given, return
    their velocities and are used instead of finite differences.  t1_range
    and t2_range record the parameter intervals on which the callables are
    trusted.
    """

    a: np.ndarray
    b: np.ndarray
    gamma1: object
    gamma2: object
    dgamma1: object = None
    dgamma2: object = None
    t1_range: tuple = None
    t2_range: tuple = None

    def __post_init__(self):
        self.a, self.b = _orthonormal_pair(self.a, self.b)
        zero = np.zeros(1)
        for name, fn in (("gamma1", self.gamma1), ("gamma2", self.gamma2)):
            g0 = _eval_curve(fn, zero)[0]
            if np.linalg.norm(g0 - quat.ONE) > 1e-9:
                raise PreconditionError(f"{name}(0) must be the identity")

    def axis1(self):
        """Right horizontality axis conj(a).b of the first factor."""
        return quat.mul(quat.conj(self.a), self.b)

    def axis2(self):
        """Left horizontality axis b.conj(a) of the second factor."""
        return quat.mul(self.b, quat.conj(self.a))

    def velocity1(self, ts):
        if self.dgamma1 is not None:
            return _eval_curve(self.dgamma1, np.asarray(ts, dtype=float))
        return _fd_curve(self.gamma1, np.asarray(ts, dtype=float))

    def velocity2(self, ts):
        if self.dgamma2 is not None:
            return _eval_curve(self.dgamma2, np.asarray(ts, dtype=float))
        return _fd_curve(self.gamma2, np.asarray(ts, dtype=float))


@dataclass
class ImmersionGrid:
    """Sampled legendrian-pair immersion on a rectangular parameter grid.

    X and Y are (N1, N2, 4) unit quaternion grids with b(X, Y) = 0, indexed
    [i, j] for (x1[i], x2[j]).  When the grid was assembled from factor
    curves the Factorization is attached and supplies analytic derivatives.
    """

    x1: np.ndarray
    x2: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    factors: Factorization = None

    def __post_init__(self):
        self.x1 = _axis_array(self.x1, "x1")
        self.x2 = _axis_array(self.x2, "x2")
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        shape = (len(self.x1), len(self.x2), 4)
        if X.shape != shape or Y.shape != shape:
            raise ValidationError(f"X and Y must have shape {shape}")
        _require_finite("X and Y", X, Y)
        unit = float(_worst(quat.norm(X) - 1.0, quat.norm(Y) - 1.0))
        if unit > 1e-9:
            raise ValidationError(f"X and Y must be unit grids, worst deviation {unit:.3e}")
        ortho = float(np.abs(quat.dot(X, Y)).max())
        if ortho > 1e-9:
            raise ValidationError(f"X and Y must be pointwise orthogonal, worst {ortho:.3e}")
        self.X = X
        self.Y = Y

    def origin(self):
        """Indices (i0, j0) of the parameter origin; the grid must contain it."""
        return _origin(self.x1, self.x2)


def _origin(x1, x2):
    i0 = int(np.argmin(np.abs(x1)))
    j0 = int(np.argmin(np.abs(x2)))
    if abs(x1[i0]) > 1e-9 or abs(x2[j0]) > 1e-9:
        raise ValidationError("the grid must contain the parameter origin (0, 0)")
    return i0, j0


def _product(L, c, R):
    """The product grid L(x2) . c . R(x1), indexed [i, j] for (x1[i], x2[j])."""
    return quat.mul(L[None, :, :], quat.mul(c, R)[:, None, :])


def _partials(grid):
    """First partials (d1X, d2X, d1Y, d2Y): analytic when factors carry velocities."""
    f = grid.factors
    if f is not None and f.dgamma1 is not None and f.dgamma2 is not None:
        G1 = _eval_curve(f.gamma1, grid.x1)
        G2 = _eval_curve(f.gamma2, grid.x2)
        dG1 = f.velocity1(grid.x1)
        dG2 = f.velocity2(grid.x2)
        return (_product(G2, f.a, dG1), _product(dG2, f.a, G1),
                _product(G2, f.b, dG1), _product(dG2, f.b, G1))
    h1 = _uniform_step(grid.x1, "x1")
    h2 = _uniform_step(grid.x2, "x2")
    return (_d_uniform(grid.X, h1, 0), _d_uniform(grid.X, h2, 1),
            _d_uniform(grid.Y, h1, 0), _d_uniform(grid.Y, h2, 1))


def _axis_tangent(grid, index, i0, j0):
    """d1X on the column j0 (index 1) or d2X on the row i0 (index 2), the same
    values `_partials` gives there, without forming the whole grids."""
    f = grid.factors
    if f is not None and f.dgamma1 is not None and f.dgamma2 is not None:
        if index == 1:
            G2 = _eval_curve(f.gamma2, grid.x2)
            return _product(G2[j0:j0 + 1], f.a, f.velocity1(grid.x1))[:, 0]
        G1 = _eval_curve(f.gamma1, grid.x1)
        return _product(f.velocity2(grid.x2), f.a, G1[i0:i0 + 1])[0]
    h1 = _uniform_step(grid.x1, "x1")
    h2 = _uniform_step(grid.x2, "x2")
    if index == 1:
        return _d_uniform(grid.X[:, j0], h1, 0)
    return _d_uniform(grid.X[i0, :], h2, 0)


def _second_partials(grid, parts):
    """Seconds by differencing the first partials; mixed ones analytically if possible."""
    d1X, d2X, d1Y, d2Y = parts
    h1 = _uniform_step(grid.x1, "x1")
    h2 = _uniform_step(grid.x2, "x2")
    f = grid.factors
    if f is not None and f.dgamma1 is not None and f.dgamma2 is not None:
        dG1 = f.velocity1(grid.x1)
        dG2 = f.velocity2(grid.x2)
        d12X = _product(dG2, f.a, dG1)
        d12Y = _product(dG2, f.b, dG1)
    else:
        d12X = _d_uniform(d2X, h1, 0)
        d12Y = _d_uniform(d2Y, h1, 0)
    return {
        "11X": _d_uniform(d1X, h1, 0),
        "12X": d12X,
        "22X": _d_uniform(d2X, h2, 1),
        "11Y": _d_uniform(d1Y, h1, 0),
        "12Y": d12Y,
        "22Y": _d_uniform(d2Y, h2, 1),
    }


def construct(a, b, gamma1, gamma2, x1, x2, dgamma1=None, dgamma2=None,
              t1_range=None, t2_range=None, tol=1e-6):
    """Assemble the product immersion of two horizontal factor curves.

    gamma1 must be right horizontal for the axis conj(a).b and gamma2 left
    horizontal for b.conj(a), both arc-length parametrized with gamma(0) = 1.
    The horizontality and speed are checked by sampling; violations raise
    PreconditionError.  Returns the sampled grid with the factors attached.
    """
    tol = _finite(tol, "tol")
    x1 = _axis_array(x1, "x1")
    x2 = _axis_array(x2, "x2")
    if t1_range is None:
        t1_range = (min(float(x1[0]), 0.0), max(float(x1[-1]), 0.0))
    if t2_range is None:
        t2_range = (min(float(x2[0]), 0.0), max(float(x2[-1]), 0.0))
    factors = Factorization(a, b, gamma1, gamma2, dgamma1, dgamma2,
                            t1_range=t1_range, t2_range=t2_range)

    for index, (fn, vel, rng, axis, side) in enumerate(
        (
            (factors.gamma1, factors.velocity1, t1_range, factors.axis1(), "right"),
            (factors.gamma2, factors.velocity2, t2_range, factors.axis2(), "left"),
        ),
        start=1,
    ):
        ts = np.linspace(rng[0], rng[1], 257)
        G = _eval_curve(fn, ts)
        dG = vel(ts)
        if side == "right":
            horiz = float(np.abs(quat.dot(dG, quat.mul(axis, G))).max())
        else:
            horiz = float(np.abs(quat.dot(dG, quat.mul(G, axis))).max())
        speed = float(np.abs(quat.norm(dG) - 1.0).max())
        if not (horiz <= tol and speed <= tol):
            raise PreconditionError(
                f"gamma{index} must be {side} horizontal and arc-length parametrized; "
                f"horizontality residual {horiz:.3e}, speed residual {speed:.3e}"
            )

    G1 = _eval_curve(factors.gamma1, x1)
    G2 = _eval_curve(factors.gamma2, x2)
    X = _product(G2, factors.a, G1)
    Y = _product(G2, factors.b, G1)
    X = X / quat.norm(X)[..., None]
    Y = Y / quat.norm(Y)[..., None]
    return ImmersionGrid(x1, x2, X, Y, factors=factors)


def _split(origin, *grids):
    """Read the factors of product grids B(x2) . c_k . A(x1) off the axes.

    c_k = grid_k(0, 0); A = conj(c_0) . M(., 0) and B = M(0, .) . conj(c_0) come
    from the first grid M and are exact on the axes.  Returns ([c_k], A, B, r)
    with r the worst |grid_k - B . c_k . A| over all grids."""
    i0, j0 = origin
    consts = [g[i0, j0] for g in grids]
    A = quat.mul(quat.conj(consts[0]), grids[0][:, j0])
    B = quat.mul(grids[0][i0, :], quat.conj(consts[0]))
    residual = max(float(quat.norm(g - _product(B, c, A)).max())
                   for g, c in zip(grids, consts))
    return consts, A, B, residual


def factorize(grid, tol=1e-6):
    """Recover the factor data of a sampled product immersion.

    Reads a = X(0,0), b = Y(0,0), gamma1 = conj(a).X(., 0) and
    gamma2 = X(0, .).conj(a), interpolates the axis samples with splines, and
    checks that the product reproduces the whole grid.  Raises NotFactorizable
    when the reconstruction residual exceeds tol.
    """
    tol = _finite(tol, "tol")
    (a, b), G1, G2, residual = _split(grid.origin(), grid.X, grid.Y)
    if residual > tol:
        raise NotFactorizable(
            f"the grid is not a two-factor product: reconstruction residual {residual:.3e}"
        )

    spl1 = CubicSpline(grid.x1, G1)
    spl2 = CubicSpline(grid.x2, G2)
    return Factorization(
        a, b, spl1, spl2, spl1.derivative(), spl2.derivative(),
        t1_range=(float(grid.x1[0]), float(grid.x1[-1])),
        t2_range=(float(grid.x2[0]), float(grid.x2[-1])),
    )


@dataclass
class LieFactors:
    """Separable factorization M(x1, x2) = B(x2) . C . A(x1) of a group-valued grid.

    C = M(0, 0) and A, B are read off the axes, so B . C . A equals M there;
    reconstruction_residual, the worst |M - B . C . A|, measures only the
    nodes off the axes.
    """

    x1: np.ndarray
    x2: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    criterion_residual: float
    reconstruction_residual: float


def _product_criterion(M, d1M, d2M, h1, h2):
    """Worst |d2(conj(M) d1M)| and |d1((d2M) conj(M))|; both vanish on a product."""
    U = quat.mul(quat.conj(M), d1M)
    V = quat.mul(d2M, quat.conj(M))
    return float(_worst(quat.norm(_d_uniform(U, h2, 1)), quat.norm(_d_uniform(V, h1, 0))))


def lie_factorize(x1, x2, M, tol=1e-6):
    """Split a unit quaternion grid into B(x2) . C . A(x1), if possible.

    The split exists iff the logarithmic derivative criterion holds:
    d2(conj(M) d1M) = d1((d2M) conj(M)) = 0.  Its worst residual above tol
    raises NotFactorizable.  Once it holds, the factors are read off the
    axes: C = M(0, 0), A = conj(C) . M(., 0) and B = M(0, .) . conj(C), so
    A(0) = B(0) = 1.
    """
    tol = _finite(tol, "tol")
    x1 = _axis_array(x1, "x1")
    x2 = _axis_array(x2, "x2")
    M = np.asarray(M, dtype=float)
    if M.shape != (len(x1), len(x2), 4):
        raise ValidationError(f"M must have shape {(len(x1), len(x2), 4)}")
    _require_finite("M", M)
    norms = quat.norm(M)
    if np.abs(norms - 1.0).max() > 1e-6:
        raise ValidationError("M must consist of unit quaternions")
    M = M / norms[..., None]
    h1 = _uniform_step(x1, "x1")
    h2 = _uniform_step(x2, "x2")
    origin = _origin(x1, x2)

    criterion = _product_criterion(M, _d_uniform(M, h1, 0), _d_uniform(M, h2, 1), h1, h2)
    if criterion > tol:
        raise NotFactorizable(
            f"the product criterion fails with residual {criterion:.3e}; "
            "the grid does not separate into single-variable factors"
        )

    (C,), A, B, reconstruction = _split(origin, M)
    return LieFactors(x1, x2, A, B, C, criterion, reconstruction)


def residual_suite(grid):
    """Worst-case structural residuals of the sampled immersion.

    Every quantity vanishes identically on an exact bilegendrian immersion:
    tangency of the derivatives to the contact planes, the two symplectic
    pullbacks, flatness of the pulled-back fiber metric 2(dx1^2 + dx2^2),
    unit speed along both axes, the two normal transport identities, the
    product criterion, and the structural entries of the cubic forms.
    Returns a dict of named maxima; a NaN anywhere makes its entry NaN.
    """
    X, Y = grid.X, grid.Y
    parts = _partials(grid)
    h1 = _uniform_step(grid.x1, "x1")
    h2 = _uniform_step(grid.x2, "x2")
    criterion = _product_criterion(X, parts[0], parts[1], h1, h2)
    sec = _second_partials(grid, parts)
    worst = {}
    for rows in _row_blocks(*X.shape[:2]):
        x, y = X[rows], Y[rows]
        d1x, d2x, d1y, d2y = block = [p[rows] for p in parts]
        g11x, g22x = quat.dot(d1x, d1x), quat.dot(d2x, d2x)
        g11y, g22y = quat.dot(d1y, d1y), quat.dot(d2y, d2y)
        # d1(Y conj(X)) = 0 and d2(conj(X) Y) = 0: the normal is transported
        left = quat.mul(d1y, quat.conj(x)) + quat.mul(y, quat.conj(d1x))
        right = quat.mul(quat.conj(d2x), y) + quat.mul(quat.conj(x), d2y)
        sec_block = {k: v[rows] for k, v in sec.items()}
        cubic = {uvw: _cubic(sec_block, block, uvw) for uvw in ("111", "122", "211", "222")}
        found = {
            "tangency_dX_X": _worst(quat.dot(d1x, x), quat.dot(d2x, x)),
            "tangency_dX_Y": _worst(quat.dot(d1x, y), quat.dot(d2x, y)),
            "tangency_dY_X": _worst(quat.dot(d1y, x), quat.dot(d2y, x)),
            "tangency_dY_Y": _worst(quat.dot(d1y, y), quat.dot(d2y, y)),
            "omega_i": _worst(quat.dot(d1x, d2y) - quat.dot(d1y, d2x)),
            "omega_k": _worst(quat.dot(d1x, quat.quarter_turn(x, y, d2x))
                              + quat.dot(d1y, quat.quarter_turn(x, y, d2y))),
            "flat_metric": _worst(g11x + g11y - 2.0, g22x + g22y - 2.0,
                                  quat.dot(d1x, d2x) + quat.dot(d1y, d2y)),
            "unit_speed": _worst(g11x - 1.0, g22x - 1.0, g11y - 1.0, g22y - 1.0),
            "normal_transport": _worst(quat.norm(left), quat.norm(right)),
            "product_criterion": criterion,  # whole-grid: it differentiates along both axes
            "cubic_122": _worst(cubic["122"][0] - cubic["122"][1]),
            "cubic_211": _worst(cubic["211"][0] - cubic["211"][1]),
            "cubic_hat": _worst(*(first + second for first, second in cubic.values())),
        }
        for name, value in found.items():
            worst[name] = np.maximum(worst.get(name, value), value)
    return {name: float(value) for name, value in worst.items()}


def _cubic(sec, parts, uvw):
    """Terms (b(du dv X, dw Y), b(du dv Y, dw X)) of the entry uvw (e.g. "122"):
    the cubic form is C(u, v, w) = first - second, its conjugate -(first + second)."""
    u, v, w = uvw
    pair = min(u, v) + max(u, v)
    k = int(w) - 1
    return quat.dot(sec[pair + "X"], parts[k + 2]), quat.dot(sec[pair + "Y"], parts[k])


def cubic_form_entries(grid):
    """Grids of the cubic form C and its conjugate on the coordinate fields.

    C(u, v, w) = b(du dv X, dw Y) - b(du dv Y, dw X) and the conjugate form
    negates the symmetrized combination.  Keys C111 ... C222 follow the index
    pattern (lead, diag, diag); Chat entries likewise.
    """
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


@dataclass
class AngleData:
    """Angle function of an immersion and its split into one-variable parts.

    theta is the unwrapped grid; theta0 = 2 theta(0, 0) is the rotation
    invariant (well defined through exp(i theta0)); theta1 + theta2
    reproduces theta up to split_residual, with theta1(0) = theta2(0) =
    theta(0, 0) / 2.  dtheta1 and dtheta2 sample the two curvature
    potentials along the axes.  wave_residual bounds |d1 d2 theta| and
    frame_residual the defect of the diagonalizing tangent frame.
    """

    x1: np.ndarray
    x2: np.ndarray
    theta: np.ndarray
    theta0: float
    theta1: np.ndarray
    theta2: np.ndarray
    dtheta1: np.ndarray
    dtheta2: np.ndarray
    wave_residual: float
    split_residual: float
    frame_residual: float


def _propagate_sign(raw, i0, j0):
    """Sign grid making the raw unit field continuous along row j0, then columns."""
    n1, n2 = raw.shape[:2]
    sign = np.ones((n1, n2))
    row = raw[:, j0]
    rowdots = quat.dot(row[1:], row[:-1])
    coldots = quat.dot(raw[:, 1:], raw[:, :-1])
    worst = min(
        float(np.abs(rowdots).min()) if len(rowdots) else 1.0,
        float(np.abs(coldots).min()) if coldots.size else 1.0,
    )
    if worst < 0.1:
        raise PreconditionError(
            f"grid too coarse to propagate the tangent frame sign, overlap {worst:.3f}"
        )
    s_row = np.sign(rowdots)
    if i0 + 1 < n1:
        sign[i0 + 1:, j0] = np.cumprod(s_row[i0:])
    if i0 > 0:
        sign[i0 - 1::-1, j0] = np.cumprod(s_row[i0 - 1::-1])
    s_col = np.sign(coldots)
    if j0 + 1 < n2:
        sign[:, j0 + 1:] = sign[:, [j0]] * np.cumprod(s_col[:, j0:], axis=1)
    if j0 > 0:
        sign[:, j0 - 1::-1] = sign[:, [j0]] * np.cumprod(s_col[:, j0 - 1::-1], axis=1)
    return sign


def angle_function(grid):
    """Extract the angle function theta of the immersion.

    The symmetrized derivative (d1 + d2)/2 of the pair (X, Y) equals
    (cos(theta) e1, sin(theta) e1) for a unit tangent field e1; theta is read
    off nodewise, the sign of e1 is fixed at the origin and propagated by
    continuity, and the branch is unwrapped along the origin row and then
    along every column.
    """
    i0, j0 = grid.origin()
    X, Y = grid.X, grid.Y
    parts = _partials(grid)
    blocks = _row_blocks(*X.shape[:2])

    def halves(rows):
        d1x, d2x, d1y, d2y = block = [p[rows] for p in parts]
        return block, 0.5 * (d1x + d2x), 0.5 * (d1y + d2y)

    raw = np.empty_like(X)
    for rows in blocks:
        _, U, V = halves(rows)
        nu, nv = quat.norm(U), quat.norm(V)
        if np.any(np.maximum(nu, nv) < 1e-8):
            raise PreconditionError("angle frame undefined: both derivative components vanish")
        raw[rows] = np.where(
            (nu >= nv)[..., None],
            U / np.maximum(nu, 1e-300)[..., None],
            V / np.maximum(nv, 1e-300)[..., None],
        )
    sign = _propagate_sign(raw, i0, j0)

    # theta before unwrapping differs from it by multiples of 2 pi, so the
    # frame is rebuilt from it in the same pass
    theta = np.empty(X.shape[:2])
    frame_residual = 0.0
    for rows in blocks:
        (d1x, d2x, d1y, d2y), U, V = halves(rows)
        x, y = X[rows], Y[rows]
        e1 = sign[rows, :, None] * raw[rows]
        th = theta[rows] = np.arctan2(quat.dot(V, e1), quat.dot(U, e1))
        e2 = quat.quarter_turn(x, y, e1)
        cs, sn = np.cos(th)[..., None], np.sin(th)[..., None]
        frame_residual = np.maximum(frame_residual, _worst(
            quat.norm(d1x - (cs * e1 - sn * e2)),
            quat.norm(d1y - (sn * e1 + cs * e2)),
            quat.norm(d2x - (cs * e1 + sn * e2)),
            quat.norm(d2y - (sn * e1 - cs * e2)),
            det4(x, e1, e2, y) - 1.0,
        ))

    row = theta[:, j0].copy()
    theta[i0:, j0] = np.unwrap(row[i0:])
    theta[i0::-1, j0] = np.unwrap(row[i0::-1])
    theta[:, j0:] = np.unwrap(theta[:, j0:], axis=1)
    theta[:, j0::-1] = np.unwrap(theta[:, j0::-1], axis=1)

    h1 = _uniform_step(grid.x1, "x1")
    h2 = _uniform_step(grid.x2, "x2")
    d1theta = _d_uniform(theta, h1, 0)
    wave = float(np.abs(_d_uniform(d1theta, h2, 1)).max())

    theta00 = float(theta[i0, j0])
    theta1 = theta[:, j0] - 0.5 * theta00
    theta2 = theta[i0, :] - 0.5 * theta00
    split = float(np.abs(theta - theta1[:, None] - theta2[None, :]).max())
    return AngleData(
        x1=grid.x1,
        x2=grid.x2,
        theta=theta,
        theta0=2.0 * theta00,
        theta1=theta1,
        theta2=theta2,
        dtheta1=d1theta[:, j0],
        dtheta2=_d_uniform(theta[i0], h2, 0),
        wave_residual=wave,
        split_residual=split,
        frame_residual=float(frame_residual),
    )


@dataclass
class FramedCurve:
    """Frenet data of the restriction of the immersion to a coordinate axis.

    The frame columns are (gamma, T, N, B) with T the axis velocity of X,
    N the quarter turn of T, and B the restriction of Y.  kappa = b(T', N)
    and tau = b(N', B); tridiagonal_residual bounds |b(T', B)|, and the
    residuals record |tau + eps| and |kappa + 2 eps dtheta|.
    """

    t: np.ndarray
    gamma: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    eps: float
    tridiagonal_residual: float
    tau_residual: float
    kappa_residual: float


def asymptotic_frame(grid, index, angle=None, tol=1e-6):
    """Frenet frame of the asymptotic curve along the x1 or x2 axis.

    index selects the axis (1 or 2).  The frame must be tridiagonal,
    b(T', B) = 0, up to tol; the torsion must equal -eps and the curvature
    -2 eps dtheta, which ties the frame to the angle data (computed on
    demand when not supplied).
    """
    if index not in (1, 2):
        raise ValidationError("index must be 1 or 2")
    if angle is None:
        angle = angle_function(grid)
    i0, j0 = grid.origin()
    T = _axis_tangent(grid, index, i0, j0)
    if index == 1:
        t = grid.x1
        gam = grid.X[:, j0]
        B = grid.Y[:, j0]
        eps = EPS1
        dtheta = angle.dtheta1
    else:
        t = grid.x2
        gam = grid.X[i0, :]
        B = grid.Y[i0, :]
        eps = EPS2
        dtheta = angle.dtheta2
    N = quat.quarter_turn(gam, B, T)
    h = _uniform_step(t, f"x{index}")
    Tdot = _d_uniform(T, h, 0)
    Ndot = _d_uniform(N, h, 0)
    trid = float(np.abs(quat.dot(Tdot, B)).max())
    if trid > tol:
        raise PreconditionError(
            f"the axis restriction is not a framed curve, b(T', B) residual {trid:.3e}"
        )
    kappa = quat.dot(Tdot, N)
    tau = quat.dot(Ndot, B)
    tau_residual = float(np.abs(tau + eps).max())
    kappa_residual = float(np.abs(kappa + 2.0 * eps * dtheta).max())
    if tau_residual > 1e-3 or kappa_residual > 1e-3:
        raise PreconditionError(
            f"frame invariants are off: |tau + eps| = {tau_residual:.3e}, "
            f"|kappa + 2 eps dtheta| = {kappa_residual:.3e}"
        )
    return FramedCurve(
        t=t, gamma=gam, T=T, N=N, B=B, kappa=kappa, tau=tau, eps=eps,
        tridiagonal_residual=trid, tau_residual=tau_residual,
        kappa_residual=kappa_residual,
    )


def _frenet_generators(kappa, tau):
    """Omega of the framed curve system F' = F Omega, one 4x4 per curvature sample."""
    omega = np.zeros(np.shape(kappa) + (4, 4))
    omega[..., 0, 1] = -1.0
    omega[..., 1, 0] = 1.0
    omega[..., 1, 2] = -kappa
    omega[..., 2, 1] = kappa
    omega[..., 2, 3] = -tau
    omega[..., 3, 2] = tau
    return omega


def _sample_potential(fn, t):
    """fn on the parameter array t, point by point when fn does not broadcast."""
    try:
        out = np.asarray(fn(t), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != t.shape:
        out = np.array([float(fn(s)) for s in t])
    return out


def _integrate_frenet(kappa_fn, tau, F0, t_lo, t_hi, step):
    """Solve F' = F Omega(t) from t = 0 both ways; returns (ts, gamma, T) samples.

    kappa_fn maps an array of parameters to curvatures.  A classical RK4
    step of this linear ODE is F -> F P for one 4x4 matrix P per step.  The
    steps are built together, orthonormalized by one batched QR with the
    signs fixed so R has a positive diagonal (for orthogonal F that equals
    orthonormalizing F P), and chained by a prefix matrix product.
    """
    eye = np.eye(4)

    def run(t_end):
        n = max(1, math.ceil(abs(t_end) / step))
        ts = np.linspace(0.0, t_end, n + 1)
        t, h = ts[:-1], np.diff(ts)
        a1 = _frenet_generators(kappa_fn(t), tau)
        omega_mid = _frenet_generators(kappa_fn(t + 0.5 * h), tau)
        omega1 = _frenet_generators(kappa_fn(t + h), tau)
        h = h[:, None, None]
        a2 = (eye + 0.5 * h * a1) @ omega_mid
        a3 = (eye + 0.5 * h * a2) @ omega_mid
        a4 = (eye + h * a3) @ omega1
        Q, R = np.linalg.qr(eye + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
        steps = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
        out = np.empty((n + 1, 4, 4))
        out[0] = F0
        out[1:] = F0 @ _prefix_products(steps, np.matmul)
        return ts, out

    ts_f, F_f = run(t_hi) if t_hi > 0 else (np.zeros(1), F0[None])
    ts_b, F_b = run(t_lo) if t_lo < 0 else (np.zeros(1), F0[None])
    ts = np.concatenate([ts_b[:0:-1], ts_f])
    frames = np.concatenate([F_b[:0:-1], F_f])
    return ts, frames[:, :, 0], frames[:, :, 1]


def from_theta(theta0, f, g, x1, x2, step=1e-3):
    """Build the immersion classified by (exp(i theta0), f, g).

    f and g are the curvature potentials d1 theta(., 0) and d2 theta(0, .);
    they are called on parameter arrays, or point by point when they do not
    return an array of the same shape.  The first factor solves the framed
    curve system with kappa = -2 f and tau = -1 from the identity frame; the
    second uses kappa = 2 g, tau = +1, and the initial direction rotated by
    theta0 about the last imaginary axis.  Both are splined and assembled
    with a = 1, b = k.
    """
    x1 = _axis_array(x1, "x1")
    x2 = _axis_array(x2, "x2")
    margin = 2.0 * max(step, 1e-4)
    lo1, hi1 = min(float(x1[0]), 0.0) - margin, max(float(x1[-1]), 0.0) + margin
    lo2, hi2 = min(float(x2[0]), 0.0) - margin, max(float(x2[-1]), 0.0) + margin

    F0_1 = np.eye(4)
    v2 = np.array([0.0, math.cos(theta0), math.sin(theta0), 0.0])
    F0_2 = np.stack([quat.ONE, v2, quat.mul(quat.QK, v2), quat.QK], axis=-1)

    ts1, G1, T1 = _integrate_frenet(lambda t: -2.0 * _sample_potential(f, t), -1.0,
                                    F0_1, lo1, hi1, step)
    ts2, G2, T2 = _integrate_frenet(lambda t: 2.0 * _sample_potential(g, t), 1.0,
                                    F0_2, lo2, hi2, step)
    spl_g1, spl_t1 = CubicSpline(ts1, G1), CubicSpline(ts1, T1)
    spl_g2, spl_t2 = CubicSpline(ts2, G2), CubicSpline(ts2, T2)
    return construct(
        quat.ONE, quat.QK, spl_g1, spl_g2, x1, x2,
        dgamma1=spl_t1, dgamma2=spl_t2,
        t1_range=(lo1, hi1), t2_range=(lo2, hi2),
    )


def projection_immersion_test(angle, tol=1e-9):
    """Whether the first-component projection of the surface is an immersion.

    The projection degenerates exactly where theta meets a multiple of
    pi / 2; the margin is the distance of the sampled angle range to that
    set, and the test passes when it stays positive.
    """
    quarter = 0.5 * math.pi
    dist = np.abs((angle.theta + 0.5 * quarter) % quarter - 0.5 * quarter)
    margin = float(dist.min())
    return margin > tol, margin


@dataclass
class PeriodLattice:
    """Maximal period lattice {(m p1, n p2) : m q1 - n q2 integer}.

    q1 and q2 are the snapped rational fiber rotation numbers of the two
    factors about their horizontality axes; the measured floats are kept
    alongside.
    """

    p1: float
    p2: float
    q1: Fraction
    q2: Fraction
    q1_measured: float
    q2_measured: float
    axis1: np.ndarray
    axis2: np.ndarray
    rule_residual: float = 0.0

    def contains(self, m, n):
        return (Fraction(m) * self.q1 - Fraction(n) * self.q2).denominator == 1


@dataclass
class NoLattice:
    """Measured fiber rotation data that fails to close into a period lattice."""

    q1_measured: float
    q2_measured: float
    reason: str


def _snap_rational(value, limit, tol):
    frac = Fraction(value).limit_denominator(limit)
    if abs(float(frac) - value) > tol:
        return None
    return frac % 1


def torus_ansatz(a, b, c1, c2, n1=65, n2=65, step=1e-3,
                 denominator_limit=64, snap_tol=1e-6):
    """Construct a candidate doubly-periodic immersion from two closed curves.

    c1 and c2 are closed spherical curves, arc-length parametrized in the
    quarter-metric, starting at the conjugated axes: c1(0) = vec(conj(a).b)
    and c2(0) = vec(a.conj(b)) = -vec(b.conj(a)).  c1 is lifted on the right
    about conj(a).b and c2 on the left about -b.conj(a), whose horizontal
    distribution is the one `construct` checks for the second factor.  Their
    horizontal lifts through the identity are the factor curves; the periods
    are the curve lengths, and the fiber rotation numbers are measured from
    the lift holonomies.  Returns the
    grid over one fundamental rectangle together with the PeriodLattice, or
    a NoLattice report when the rotation numbers fail to snap to rationals.
    """
    a, b = _orthonormal_pair(a, b)
    xi1 = quat.mul(quat.conj(a), b)
    xi2 = -quat.mul(b, quat.conj(a))
    for name, curve, xi in (("c1", c1, xi1), ("c2", c2, xi2)):
        if not curve.closed:
            raise PreconditionError(f"{name} must be a closed curve")
        if abs(float(curve.params[0])) > 1e-12:
            raise ValidationError(f"{name} must be parametrized from 0")
        gap = float(np.linalg.norm(curve.samples[0] - quat.to_vec3(xi)))
        if gap > 1e-6:
            raise PreconditionError(
                f"{name}(0) must be the conjugated axis, offset {gap:.3e}"
            )

    lift1 = sphere.horizontal_lift(c1, quat.to_vec3(xi1), "right", quat.ONE, step=step)
    lift2 = sphere.horizontal_lift(c2, quat.to_vec3(xi2), "left", quat.ONE, step=step)
    p1 = float(lift1.params[-1])
    p2 = float(lift2.params[-1])
    h1 = sphere.holonomy(lift1, p1)
    h2 = sphere.holonomy(lift2, p2)
    q1 = (-h1.q) % 1.0
    q2 = (-h2.q) % 1.0

    spl1 = CubicSpline(lift1.params, lift1.samples)
    spl2 = CubicSpline(lift2.params, lift2.samples)
    x1 = np.linspace(0.0, p1, n1)
    x2 = np.linspace(0.0, p2, n2)
    grid = construct(
        a, b, spl1, spl2, x1, x2,
        dgamma1=spl1.derivative(), dgamma2=spl2.derivative(),
        t1_range=(0.0, p1), t2_range=(0.0, p2),
    )

    s1 = _snap_rational(q1, denominator_limit, snap_tol)
    s2 = _snap_rational(q2, denominator_limit, snap_tol)
    if s1 is None or s2 is None:
        lattice = NoLattice(
            q1, q2,
            reason=f"fiber rotation numbers do not snap to rationals with "
                   f"denominator at most {denominator_limit}",
        )
    else:
        lattice = PeriodLattice(
            p1=p1, p2=p2, q1=s1, q2=s2, q1_measured=q1, q2_measured=q2,
            axis1=quat.to_vec3(xi1), axis2=-quat.to_vec3(xi2),
        )
    return grid, lattice


def _detect_period(curve_fn, lo, hi, tol=1e-6):
    """Smallest period of a sampled closed curve whose span is a whole multiple of it."""
    ts = np.linspace(lo, hi, 1024)
    C = curve_fn(ts)
    if np.linalg.norm(C[-1] - C[0]) > 1e-6:
        raise NoMaximalLattice(
            "the projected factor does not close over the sampled domain; "
            "pass the period explicitly"
        )
    span = hi - lo
    best = span
    for k in range(2, 9):
        p = span / k
        probe = np.linspace(lo, hi - p, 257)
        gap = np.linalg.norm(curve_fn(probe + p) - curve_fn(probe), axis=-1).max()
        if gap < max(tol, 1e-6):
            best = min(best, p)
    return best


def period_lattice(factors, p1=None, p2=None, tol=1e-6,
                   denominator_limit=64, snap_tol=1e-6):
    """Period lattice of a doubly-periodic product immersion.

    The factor curves are quasiperiodic over the periods p1, p2 of their
    Hopf projections (detected from the factor domains when not supplied):
    gamma1 picks up the left multiplier exp(-2 pi q1 conj(a) b) and gamma2
    the right multiplier exp(2 pi q2 b conj(a)).  The rotation numbers are
    snapped to rationals and the divisibility rule m q1 - n q2 integer is
    verified against the holonomy algebra; failures raise NoMaximalLattice.
    """
    a, b = factors.a, factors.b
    w1, w2 = (v / np.linalg.norm(v) for v in (quat.to_vec3(factors.axis1()),
                                               quat.to_vec3(factors.axis2())))

    rng1 = factors.t1_range or (0.0, _TWO_PI)
    rng2 = factors.t2_range or (0.0, _TWO_PI)
    if p1 is None:
        p1 = _detect_period(
            lambda t: sphere.hopf(w1, "right", _eval_curve(factors.gamma1, t)),
            rng1[0], rng1[1], tol,
        )
    if p2 is None:
        p2 = _detect_period(
            lambda t: sphere.hopf(w2, "left", _eval_curve(factors.gamma2, t)),
            rng2[0], rng2[1], tol,
        )
    if p1 <= 0 or p2 <= 0:
        raise ValidationError("periods must be positive")

    E1 = quat.normalize(_eval_curve(factors.gamma1, np.array([p1]))[0])
    E2 = quat.normalize(_eval_curve(factors.gamma2, np.array([p2]))[0])
    psi1, off1 = sphere.fiber_angle(E1, w1)
    psi2, off2 = sphere.fiber_angle(E2, w2)
    if off1 > 10.0 * tol or off2 > 10.0 * tol:
        raise NoMaximalLattice(
            f"a factor holonomy element lies off its fiber circle "
            f"(offsets {off1:.3e}, {off2:.3e}); the factors are not quasiperiodic "
            "about the product axes"
        )
    q1 = (-psi1 / _TWO_PI) % 1.0
    q2 = (psi2 / _TWO_PI) % 1.0

    # quasiperiodic displacement check inside the trusted domains
    worst = 0.0
    if rng1[1] - rng1[0] > p1 + 1e-9:
        ts = np.linspace(rng1[0], rng1[1] - p1, 9)
        shift = _eval_curve(factors.gamma1, ts + p1)
        pred = quat.mul(E1, _eval_curve(factors.gamma1, ts))
        worst = max(worst, float(np.linalg.norm(shift - pred, axis=-1).max()))
    if rng2[1] - rng2[0] > p2 + 1e-9:
        ts = np.linspace(rng2[0], rng2[1] - p2, 9)
        shift = _eval_curve(factors.gamma2, ts + p2)
        pred = quat.mul(_eval_curve(factors.gamma2, ts), E2)
        worst = max(worst, float(np.linalg.norm(shift - pred, axis=-1).max()))
    if worst > 100.0 * tol:
        raise NoMaximalLattice(
            f"the factors are not quasiperiodic over ({p1:.6g}, {p2:.6g}): "
            f"displacement residual {worst:.3e}"
        )

    s1 = _snap_rational(q1, denominator_limit, snap_tol)
    s2 = _snap_rational(q2, denominator_limit, snap_tol)
    if s1 is None or s2 is None:
        raise NoMaximalLattice(
            f"fiber rotation numbers ({q1:.8f}, {q2:.8f}) do not snap to rationals "
            f"with denominator at most {denominator_limit}"
        )

    # the divisibility rule must reproduce exact translations of the pair (a, b)
    rule_residual = 0.0
    snap_err = max(abs(float(s1) - q1), abs(float(s2) - q2))
    for m in range(-8, 9):
        for n in range(-8, 9):
            if (Fraction(m) * s1 - Fraction(n) * s2).denominator != 1:
                continue
            E1m = quat.exp_im(quat.from_vec3(m * psi1 * w1))
            E2n = quat.exp_im(quat.from_vec3(n * psi2 * w2))
            res = max(
                float(np.linalg.norm(quat.mul(E2n, quat.mul(a, E1m)) - a)),
                float(np.linalg.norm(quat.mul(E2n, quat.mul(b, E1m)) - b)),
            )
            allowance = 100.0 * tol + 4.0 * math.pi * (abs(m) + abs(n)) * snap_err
            if res > allowance:
                raise NoMaximalLattice(
                    f"lattice candidate ({m}, {n}) fails the translation check "
                    f"with residual {res:.3e}"
                )
            rule_residual = max(rule_residual, res)

    return PeriodLattice(
        p1=float(p1), p2=float(p2), q1=s1, q2=s2,
        q1_measured=q1, q2_measured=q2,
        axis1=w1, axis2=w2, rule_residual=rule_residual,
    )


@dataclass
class GaussMapData:
    """Factorized Gauss map into a product of two spheres.

    The normal plane at (x1, x2) is spanned by X and Y; in the product
    picture it factorizes through the pair m, n solving a = m j conj(n),
    b = m k conj(n), as the separate spherical curves
    from_gamma2(x2) = pi(gamma2 m) and from_gamma1(x1) = pi(conj(gamma1) n)
    under the Hopf projection pi about the first imaginary axis.
    """

    m: np.ndarray
    n: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    from_gamma1: np.ndarray
    from_gamma2: np.ndarray
    equation_residual: float


def gauss_map(factors, x1=None, x2=None, samples=257):
    """Factor the Gauss map of a product immersion through two circles of spheres.

    The pair (m, n) is chosen deterministically: n is the minimal rotation
    taking the first imaginary axis to -vec(conj(a).b), and m = a n conj(j)
    then solves both defining equations.
    """
    i_axis = np.array([1.0, 0.0, 0.0])
    ab = quat.mul(quat.conj(factors.a), factors.b)
    n_q = sphere.hopf_preimage(i_axis, -quat.to_vec3(ab), "left")
    m_q = -quat.mul(factors.a, quat.mul(n_q, quat.QJ))
    res = max(
        float(np.linalg.norm(factors.a - quat.mul(m_q, quat.mul(quat.QJ, quat.conj(n_q))))),
        float(np.linalg.norm(factors.b - quat.mul(m_q, quat.mul(quat.QK, quat.conj(n_q))))),
    )
    if x1 is None:
        rng = factors.t1_range or (0.0, _TWO_PI)
        x1 = np.linspace(rng[0], rng[1], samples)
    else:
        x1 = _axis_array(x1, "x1")
    if x2 is None:
        rng = factors.t2_range or (0.0, _TWO_PI)
        x2 = np.linspace(rng[0], rng[1], samples)
    else:
        x2 = _axis_array(x2, "x2")
    G1 = _eval_curve(factors.gamma1, x1)
    G2 = _eval_curve(factors.gamma2, x2)
    from_gamma1 = sphere.hopf(i_axis, "left", quat.mul(quat.conj(G1), n_q))
    from_gamma2 = sphere.hopf(i_axis, "left", quat.mul(G2, m_q))
    return GaussMapData(
        m=m_q, n=n_q, x1=x1, x2=x2,
        from_gamma1=from_gamma1, from_gamma2=from_gamma2,
        equation_residual=res,
    )


@dataclass
class FlatTorusReport:
    """Criteria for a doubly-periodic immersion to project to a flat torus.

    The projection is an immersed flat torus exactly when the angle misses
    the multiples of pi / 2 (margin positive), the fiber rotation numbers
    are 0 or 1/2, and the factor curvatures integrate to zero over their
    periods.
    """

    kappa1_integral: float
    kappa2_integral: float
    q1: Fraction
    q2: Fraction
    half_integer_rotations: bool
    immersed: bool
    margin: float
    satisfied: bool


def flat_torus_criteria(grid, lattice, tol=1e-5):
    """Evaluate the flat-torus criteria of a doubly-periodic immersion."""
    if not isinstance(lattice, PeriodLattice):
        raise ValidationError("flat_torus_criteria needs a PeriodLattice")
    angle = angle_function(grid)
    fr1 = asymptotic_frame(grid, 1, angle)
    fr2 = asymptotic_frame(grid, 2, angle)
    for t, p, name in ((fr1.t, lattice.p1, "x1"), (fr2.t, lattice.p2, "x2")):
        if t[0] > 1e-9 or t[-1] < p - 1e-9:
            raise ValidationError(f"the {name} range must cover one full period [0, p]")
    k1 = float(CubicSpline(fr1.t, fr1.kappa).integrate(0.0, lattice.p1))
    k2 = float(CubicSpline(fr2.t, fr2.kappa).integrate(0.0, lattice.p2))
    half = (2 * lattice.q1).denominator == 1 and (2 * lattice.q2).denominator == 1
    immersed, margin = projection_immersion_test(angle)
    satisfied = half and immersed and max(abs(k1), abs(k2)) <= max(tol, 1e-8)
    return FlatTorusReport(
        kappa1_integral=k1, kappa2_integral=k2,
        q1=lattice.q1, q2=lattice.q2,
        half_integer_rotations=half, immersed=immersed, margin=margin,
        satisfied=satisfied,
    )
