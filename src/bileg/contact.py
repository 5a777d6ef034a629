"""The Clifford bundle over pairs of orthogonal non-null vectors in R^4.

Base space M = {(x, y) : b(x,x) != 0, b(y,y) != 0, b(x,y) = 0} for a
nondegenerate diagonal form b.  Over each point sits W = plane x plane with
plane = <x, y>-perp, carrying the pseudo-involutions I, J, K, the grade map
alpha and the pairings omega_i, g, ghat, omega_k.  Each of these is one
Kronecker product kron(L, X) of a 2x2 matrix L in eta on the legs (xi, mu)
with X = Id or the quarter turn A for an operator, B = diag(sigma) or B A
for a pairing (the table _TENSORS).  The connection is ambient
differentiation followed by projection along N = <(x,0),(y,0),(0,x),(0,y)>;
every structure tensor is covariantly constant along W-directions, and the
appendix-style curvature pairing has a closed form.  The quarter turn A of
the contact plane is the Hodge dual of x^y scaled to an isometry.

Numerics: every value here is a handful of flops on 4-vectors, where a numpy
call costs more than its arithmetic.  So the pointwise values are formed on
Python floats: b (a sum in index order, the order np.sum takes on four
terms), the checks of BasePoint and ContactVector, the projection w_project,
the six minors that give A, and the colinearity test of curvature_pairing.
The 8x8 tensors stay numpy arrays, filled block by block, and every product
with them stays a numpy `@`: OpenBLAS rounds an 8x8 matrix-vector product
differently from a sum in index order, and the outputs that inherit such a
product (the images and pairings in curvature_pairing and in the residual of
covariant_constancy_residual) keep its bits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._fd import finite as _finite
from .clifford import Signature2, _dot
from .errors import PreconditionError, ValidationError

_MEMBER_TOL = 1e-10

# name: (is a pairing, acts through A, leg matrix L in eta)
_TENSORS = {
    "I": (False, False, lambda e: [[0, 1], [-e, 0]]),
    "J": (False, True, lambda e: [[0, e], [1, 0]]),
    "K": (False, True, lambda e: [[1, 0], [0, -1]]),
    "alpha": (False, False, lambda e: [[1, 0], [0, -1]]),
    "g": (True, False, lambda e: [[1, 0], [0, e]]),
    "ghat": (True, False, lambda e: [[1, 0], [0, -e]]),
    "omega_i": (True, False, lambda e: [[0, 1], [-1, 0]]),
    "omega_k": (True, True, lambda e: [[1, 0], [0, -e]]),
}


def _b(sigma, u, v):
    """sum_i sigma_i u_i v_i of float 4-tuples, summed in index order."""
    return (sigma[0] * u[0] * v[0] + sigma[1] * u[1] * v[1]
            + sigma[2] * u[2] * v[2] + sigma[3] * u[3] * v[3])


def _floats4(v, message):
    """v as a tuple of four Python floats; ValidationError(message) unless a 4-vector."""
    if isinstance(v, np.ndarray):
        if v.shape != (4,):
            raise ValidationError(message)
        v = v.tolist()
    try:
        out = tuple(map(float, v))
    except (TypeError, ValueError):
        raise ValidationError(message) from None
    if len(out) != 4:
        raise ValidationError(message)
    return out


def _require_finite_pair(name, u, v):
    """ValidationError naming the first index at which u or v is not finite."""
    for k, (a, c) in enumerate(zip(u, v)):
        if not (math.isfinite(a) and math.isfinite(c)):
            raise ValidationError(f"{name} must be finite, first bad index {k}")


def _eta(eta):
    """eta as an int; ValidationError unless it equals +1 or -1 exactly."""
    if eta not in (1, -1):
        raise ValidationError("eta must be +1 or -1")
    return int(eta)


@dataclass(frozen=True)
class AmbientForm4:
    """Diagonal signature of b on R^4 plus the sign eta of the second factor."""

    sigma: tuple
    eta: int

    def __post_init__(self):
        if len(self.sigma) != 4 or any(s not in (1, -1) for s in self.sigma):
            raise ValidationError("sigma must be four entries of +1 or -1")
        _eta(self.eta)
        object.__setattr__(self, "sigma", tuple(int(s) for s in self.sigma))

    @property
    def matrix(self):
        return np.diag(np.array(self.sigma, dtype=float))

    def b(self, u, v):
        message = "b takes two 4-vectors"
        return _b(self.sigma, _floats4(u, message), _floats4(v, message))


@dataclass(frozen=True)
class BasePoint:
    form: AmbientForm4
    x: tuple
    y: tuple

    def __post_init__(self):
        message = "base point needs two 4-vectors"
        x, y = _floats4(self.x, message), _floats4(self.y, message)
        _require_finite_pair("base point x and y", x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        sigma = self.form.sigma
        scale = max(1.0, _dot(x, x), _dot(y, y))
        if abs(_b(sigma, x, x)) <= _MEMBER_TOL * scale:
            raise PreconditionError("b(x,x) vanishes")
        if abs(_b(sigma, y, y)) <= _MEMBER_TOL * scale:
            raise PreconditionError("b(y,y) vanishes")
        if abs(_b(sigma, x, y)) > _MEMBER_TOL * scale:
            raise PreconditionError("x and y are not b-orthogonal")

    @property
    def xv(self):
        return np.array(self.x)

    @property
    def yv(self):
        return np.array(self.y)


@dataclass(frozen=True)
class ContactVector:
    """An element (xi, mu) of W at a base point: both legs b-orthogonal to x, y."""

    point: BasePoint
    xi: tuple
    mu: tuple

    def __post_init__(self):
        message = "contact vector needs two 4-vectors"
        xi, mu = _floats4(self.xi, message), _floats4(self.mu, message)
        _require_finite_pair("contact vector xi and mu", xi, mu)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "mu", mu)
        sigma, x, y = self.point.form.sigma, self.point.x, self.point.y
        scale = max(1.0, math.sqrt(_dot(xi, xi)), math.sqrt(_dot(mu, mu)))
        for leg in (xi, mu):
            if (abs(_b(sigma, leg, x)) > 1e-8 * scale
                    or abs(_b(sigma, leg, y)) > 1e-8 * scale):
                raise ValidationError("vector does not lie in W")

    @property
    def vec8(self):
        return np.array(self.xi + self.mu)


def _as8(v):
    """An ambient 8-vector from a ContactVector, an 8-vector or its (2, 4) legs."""
    v = np.asarray(getattr(v, "vec8", v), dtype=float)
    if v.shape == (8,):
        return v
    if v.shape == (2, 4):
        return v.reshape(8)
    raise ValidationError("expected an ambient 8-vector")


def w_project(p, v):
    """Project an ambient 8-vector to W along N, componentwise."""
    v = _as8(v).tolist()
    sigma, x, y = p.form.sigma, p.x, p.y
    bxx, byy = _b(sigma, x, x), _b(sigma, y, y)
    out = []
    for leg in (v[:4], v[4:]):
        # leg - (b(leg, x) / b(x, x)) x - (b(leg, y) / b(y, y)) y
        cx, cy = _b(sigma, leg, x) / bxx, _b(sigma, leg, y) / byy
        out.append(tuple([u - cx * a - cy * c for u, a, c in zip(leg, x, y)]))
    return ContactVector(p, *out)


@dataclass(frozen=True)
class StructureFrame:
    """I, J, K, alpha and the four pairings of W at one base point."""

    point: BasePoint
    eta: int
    eps: int
    A: np.ndarray = field(repr=False)

    def _tensor8(self, name, pairing):
        is_pairing, through_a, legs = _TENSORS.get(name, (None, None, None))
        if is_pairing is not pairing:
            kind = "pairing" if pairing else "operator"
            raise ValidationError(f"unknown {kind}: {name!r}")
        X = self.A if through_a else np.eye(4)
        if pairing:
            X = self.point.form.matrix @ X
        # kron(L, X): block (r, c) is L[r][c] X
        out = np.zeros((8, 8))
        for r, row in enumerate(legs(self.eta)):
            for c, coef in enumerate(row):
                if coef:
                    out[4 * r:4 * r + 4, 4 * c:4 * c + 4] = coef * X
        return out

    def operator8(self, name):
        return self._tensor8(name, False)

    def gram8(self, name):
        return self._tensor8(name, True)

    def apply(self, name, cv):
        out = self.operator8(name) @ cv.vec8
        return ContactVector(self.point, tuple(out[:4]), tuple(out[4:]))

    def pair(self, name, cv, cw):
        return float(cv.vec8 @ self.gram8(name) @ cw.vec8)


def frame_at(p, eta=None):
    """Structure frame of W at p; A rotates the contact plane by a quarter turn.

    A is fixed by b-antisymmetry, b(A., A.) = eps*b, A^2 = -eps*Id and the
    orientation condition Vol(x, u, A u, y) > 0 on the positive-norm basis
    direction u.  That makes it the Hodge dual of x^y scaled to an isometry:
    A = s2 Sigma^-1 cross4(x, y, .) / sqrt(|b(x,x) b(y,y)|), with Sigma^-1 =
    Sigma = diag(sigma), (s1, s2), s1 >= s2, the signature of b on the contact
    plane and eps = s1 s2.
    """
    eta = _eta(p.form.eta if eta is None else eta)
    sigma, x, y = p.form.sigma, p.x, p.y
    bxx, byy = _b(sigma, x, x), _b(sigma, y, y)
    # Sylvester's law: the plane has what sigma has of positive directions
    # beyond those of x and y
    positive = sigma.count(1) - (bxx > 0) - (byy > 0)
    s1p, s2p = (1 if positive > 0 else -1), (1 if positive > 1 else -1)
    # column j is cross4(x, y, e_j), written in the minors m_ij = x_i y_j - x_j y_i,
    # and row i is scaled by k_i = sigma_i s2 / sqrt(|b(x,x) b(y,y)|)
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    m01, m02, m03 = x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x0 * y3 - x3 * y0
    m12, m13, m23 = x1 * y2 - x2 * y1, x1 * y3 - x3 * y1, x2 * y3 - x3 * y2
    scale = s2p / math.sqrt(abs(bxx * byy))
    k0, k1, k2, k3 = (scale * s for s in sigma)
    A = np.array([[0.0, -k0 * m23, k0 * m13, -k0 * m12],
                  [k1 * m23, 0.0, -k1 * m03, k1 * m02],
                  [-k2 * m13, k2 * m03, 0.0, -k2 * m01],
                  [k3 * m12, -k3 * m02, k3 * m01, 0.0]])
    return StructureFrame(p, eta, s1p * s2p, A)


def _on_manifold(form, x, y, tol=1e-8):
    sigma = form.sigma
    scale = max(1.0, _dot(x, x), _dot(y, y))
    return (abs(_b(sigma, x, y)) <= tol * scale
            and abs(_b(sigma, x, x)) > tol * scale
            and abs(_b(sigma, y, y)) > tol * scale)


def covariant_constancy_residual(form, path, fields, tensor, t0=0.0, h=1e-3):
    """Richardson-extrapolated residual of the covariant derivative at t0.

    path(t) -> (x, y) stays in M; fields are W-section callables along it,
    one for an operator tensor, two for a pairing.  The connection is the
    ambient t-derivative followed by projection along N.  Returns
    (residual, velocity_in_w): the structure lemmas assume the path velocity
    lies in W, so the flag reports whether that hypothesis held.
    """
    t0 = _finite(t0, "t0")
    h = _finite(h, "h", 0, 0.05)
    if tensor not in _TENSORS:
        raise ValidationError(f"unknown tensor: {tensor!r}")
    pairing = _TENSORS[tensor][0]
    need = 2 if pairing else 1
    if len(fields) != need:
        raise ValidationError(f"tensor {tensor} needs {need} section(s)")

    def at(t):
        """Point (x, y) as an 8-vector, frame, tensor matrix and sections at t."""
        x, y = (_floats4(v, "path points must be 4-vectors") for v in path(t))
        if not _on_manifold(form, x, y):
            raise PreconditionError("path leaves the base manifold")
        fr = frame_at(BasePoint(form, x, y))
        return (np.array(x + y), fr, fr._tensor8(tensor, pairing),
                [_as8(fn(t)) for fn in fields])

    # stencil times t0, t0 -+ h, t0 -+ h/2
    xy, frames, T, S = zip(*(at(t) for t in (t0, t0 - h, t0 + h, t0 - h / 2, t0 + h / 2)))
    p0 = frames[0].point

    def residual(lo, hi, step):
        # nabla of each section: ambient centered difference, then project
        nabla = [w_project(p0, (S[hi][k] - S[lo][k]) / (2 * step)).vec8
                 for k in range(need)]
        if not pairing:
            dimg = (T[hi] @ S[hi][0] - T[lo] @ S[lo][0]) / (2 * step)
            return w_project(p0, dimg).vec8 - T[0] @ nabla[0]
        dval = (S[hi][0] @ T[hi] @ S[hi][1] - S[lo][0] @ T[lo] @ S[lo][1]) / (2 * step)
        corr = nabla[0] @ T[0] @ S[0][1] + S[0][0] @ T[0] @ nabla[1]
        return np.atleast_1d(dval - corr)

    extrapolated = (4.0 * residual(3, 4, h / 2) - residual(1, 2, h)) / 3.0
    # velocity check at t0: both legs of dp/dt must be b-orthogonal to x and y
    vel = (xy[2] - xy[1]) / (2 * h)
    in_w = np.linalg.norm(vel - w_project(p0, vel).vec8) <= 1e-6 * max(
        1.0, np.linalg.norm(vel))
    return float(np.linalg.norm(extrapolated)), bool(in_w)


def curvature_pairing(p, X, eta=None):
    """Both sides of the closed-form curvature identity at (p, X).

    The left side is the Gauss-equation sum over the four normal directions;
    the right side is the closed form in terms of ghat.  X must have colinear
    legs for the identity to be exact.
    """
    eta = _eta(p.form.eta if eta is None else eta)
    fr = frame_at(p, eta)
    sigma = p.form.sigma
    X8 = X.vec8
    xi, mu = X8[:4].tolist(), X8[4:].tolist()
    # singular values s0 >= s1 of the legs [xi mu] from their 2x2 Gram matrix:
    # s0^2 + s1^2 is its trace and s0^2 s1^2 = |xi ^ mu|^2 its determinant, a
    # sum over the six minors that stays accurate for colinear legs
    trace = _dot(xi, xi) + _dot(mu, mu)
    det = sum((xi[i] * mu[j] - xi[j] * mu[i]) ** 2
              for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    s0_sq = 0.5 * (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0)))
    s1_sq = det / s0_sq if s0_sq > 0 else 0.0
    # s1 > 1e-8 max(s0, 1)
    if not s1_sq <= 1e-16 * max(s0_sq, 1.0):
        raise PreconditionError("legs of X must be colinear")
    x, y = p.x, p.y
    bxx, byy = _b(sigma, x, x), _b(sigma, y, y)
    lam_x, lam_y = math.sqrt(abs(bxx)), math.sqrt(abs(byy))
    s_x, s_y = math.copysign(1.0, bxx), math.copysign(1.0, byy)

    # the images J X and K X keep numpy's 8x8 products; their legs are float lists
    X = (xi, mu)
    JX, KX = ((fr.operator8(name) @ X8).tolist() for name in "JK")
    JX, KX = (JX[:4], JX[4:]), (KX[:4], KX[4:])
    lhs = 0.0
    # normal direction: B(U, V) = factor * b(U[u], V[v]) / lam, weighted by sign
    for u, v, factor, lam, sign in ((0, 0, -1, lam_x, s_x), (1, 0, -1, lam_y, s_y),
                                    (0, 1, -eta, lam_x, eta * s_x),
                                    (1, 1, -eta, lam_y, eta * s_y)):
        def B(U, V):
            return factor * _b(sigma, U[u], V[v]) / lam
        lhs += sign * (B(JX, X) * B(X, KX) - B(X, X) * B(JX, KX))

    norm_p = bxx + eta * byy
    ghat = fr.gram8("ghat")
    ghat_XIX = float(X8 @ ghat @ (fr.operator8("I") @ X8))
    ghat_XX = float(X8 @ ghat @ X8)
    rhs = (-fr.eps * norm_p / (2.0 * bxx * byy)) * ghat_XIX * ghat_XX
    return float(lhs), float(rhs)


def stabilizer_membership(M44, b2, tol=1e-9):
    """True iff the map is diag(N, N) with N preserving the plane form b2."""
    tol = _finite(tol, "tol")
    M = np.asarray(M44, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if M.shape != (4, 4) or b2.shape != (2, 2):
        raise ValidationError("expected a 4x4 matrix and a 2x2 form")
    if not (np.isfinite(M).all() and np.isfinite(b2).all()):
        raise ValidationError("the matrix and the form must be finite")
    N = M[:2, :2]
    if np.max(np.abs(M[:2, 2:])) > tol or np.max(np.abs(M[2:, :2])) > tol:
        return False
    if np.max(np.abs(M[2:, 2:] - N)) > tol:
        return False
    return bool(np.max(np.abs(N.T @ b2 @ N - b2)) <= tol)


def clifford_isomorphism(b2, eta, v):
    """Linear map (xi, mu) -> phi0(xi) + i^{-1} phi0(mu) into Cl(eta * b2).

    phi0 sends a unit positive direction of b2 to 1 and its b2-orthogonal
    complement to k.  Returns (4x4 coefficient matrix, algebra signature);
    the map carries (omega_i, g, alpha) of the plane model onto
    (omega_axis(i), g, grade) of the algebra.
    """
    b2 = np.asarray(b2, dtype=float)
    v = np.asarray(v, dtype=float)
    if (b2.shape != (2, 2) or v.shape != (2,) or not np.isfinite(b2).all()
            or not np.isfinite(v).all() or abs(b2[0, 1] - b2[1, 0]) > 1e-12):
        raise ValidationError("expected a finite symmetric 2x2 form and a finite 2-vector")
    eta = _eta(eta)
    nv = v @ b2 @ v
    if nv <= 1e-12:
        raise PreconditionError("v must be a positive direction of b2")
    u1 = v / np.sqrt(nv)
    # b2-orthogonal complement of u1
    w = np.array([-(b2 @ u1)[1], (b2 @ u1)[0]])
    nw = w @ b2 @ w
    if abs(nw) <= 1e-12:
        raise PreconditionError("b2 degenerates on the complement of v")
    u2 = w / np.sqrt(abs(nw))
    sig = Signature2(eta, eta * int(np.sign(nw)))
    # images of (u1, u2) in each leg: phi0(u1) = 1, phi0(u2) = k, and the mu
    # leg premultiplied by i^{-1} = -eta*i:
    # -eta*i*1 = -eta*i ; -eta*i*k = -eta*(-s1 j) = eta*s1 j = j  (s1 = eta)
    img = np.array([[1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, -eta, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0]])
    # coefficient columns of the standard basis: inverse coordinates in (u1, u2)
    P = np.linalg.inv(np.column_stack([u1, u2]))
    return np.hstack([img[:2].T @ P, img[2:].T @ P]), sig
