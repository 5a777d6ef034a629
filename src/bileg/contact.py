"""The Clifford bundle over pairs of orthogonal non-null vectors in R^4.

Base space M = {(x, y) : b(x,x) != 0, b(y,y) != 0, b(x,y) = 0} for a
nondegenerate diagonal form b.  Over each point sits W = plane x plane with
plane = <x, y>-perp, carrying the pseudo-involutions I, J, K, the grade map
alpha and the pairings omega_i, g, ghat, omega_k.  The connection is ambient
differentiation followed by projection along N = <(x,0),(y,0),(0,x),(0,y)>;
every structure tensor is covariantly constant along W-directions, and the
appendix-style curvature pairing has a closed form.  The quarter turn A of
the contact plane is the Hodge dual of x^y scaled to an isometry.
"""

from dataclasses import dataclass, field

import numpy as np

from ._fd import cross4
from .clifford import Signature2
from .errors import PreconditionError, ValidationError

_MEMBER_TOL = 1e-10


@dataclass(frozen=True)
class AmbientForm4:
    """Diagonal signature of b on R^4 plus the sign eta of the second factor."""

    sigma: tuple
    eta: int

    def __post_init__(self):
        if len(self.sigma) != 4 or any(s not in (1, -1) for s in self.sigma):
            raise ValidationError("sigma must be four entries of +1 or -1")
        if self.eta not in (1, -1):
            raise ValidationError("eta must be +1 or -1")
        object.__setattr__(self, "sigma", tuple(int(s) for s in self.sigma))

    @property
    def matrix(self):
        return np.diag(np.array(self.sigma, dtype=float))

    def b(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(np.sum(np.array(self.sigma) * u * v))


@dataclass(frozen=True)
class BasePoint:
    form: AmbientForm4
    x: tuple
    y: tuple

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != (4,) or y.shape != (4,):
            raise ValidationError("base point needs two 4-vectors")
        object.__setattr__(self, "x", tuple(x))
        object.__setattr__(self, "y", tuple(y))
        scale = max(1.0, float(x @ x), float(y @ y))
        if abs(self.form.b(x, x)) <= _MEMBER_TOL * scale:
            raise PreconditionError("b(x,x) vanishes")
        if abs(self.form.b(y, y)) <= _MEMBER_TOL * scale:
            raise PreconditionError("b(y,y) vanishes")
        if abs(self.form.b(x, y)) > _MEMBER_TOL * scale:
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
        xi = np.asarray(self.xi, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if xi.shape != (4,) or mu.shape != (4,):
            raise ValidationError("contact vector needs two 4-vectors")
        object.__setattr__(self, "xi", tuple(xi))
        object.__setattr__(self, "mu", tuple(mu))
        b = self.point.form.b
        x, y = self.point.xv, self.point.yv
        scale = max(1.0, np.linalg.norm(xi), np.linalg.norm(mu))
        for leg in (xi, mu):
            if abs(b(leg, x)) > 1e-8 * scale or abs(b(leg, y)) > 1e-8 * scale:
                raise ValidationError("vector does not lie in W")

    @property
    def vec8(self):
        return np.concatenate([self.xi, self.mu])


def _as8(v):
    v = np.asarray(v, dtype=float)
    if v.shape == (8,):
        return v
    if v.shape == (2, 4):
        return v.reshape(8)
    raise ValidationError("expected an ambient 8-vector")


def w_project(p, v):
    """Project an ambient 8-vector to W along N, componentwise."""
    v = _as8(v)
    b = p.form.b
    x, y = p.xv, p.yv
    out = np.empty(8)
    for half in (0, 1):
        leg = v[4 * half:4 * half + 4]
        leg = leg - (b(leg, x) / b(x, x)) * x - (b(leg, y) / b(y, y)) * y
        out[4 * half:4 * half + 4] = leg
    return ContactVector(p, tuple(out[:4]), tuple(out[4:]))


@dataclass(frozen=True)
class StructureFrame:
    """I, J, K, alpha and the four pairings of W at one base point."""

    point: BasePoint
    eta: int
    eps: int
    A: np.ndarray = field(repr=False)

    def operator8(self, name):
        A, eta = self.A, self.eta
        I4 = np.eye(4)
        Z = np.zeros((4, 4))
        if name == "I":
            return np.block([[Z, I4], [-eta * I4, Z]])
        if name == "J":
            return np.block([[Z, eta * A], [A, Z]])
        if name == "K":
            return np.block([[A, Z], [Z, -A]])
        if name == "alpha":
            return np.block([[I4, Z], [Z, -I4]])
        raise ValidationError(f"unknown operator: {name!r}")

    def gram8(self, name):
        B = self.point.form.matrix
        eta = self.eta
        Z = np.zeros((4, 4))
        if name == "g":
            return np.block([[B, Z], [Z, eta * B]])
        if name == "ghat":
            return np.block([[B, Z], [Z, -eta * B]])
        if name == "omega_i":
            return np.block([[Z, B], [-B, Z]])
        if name == "omega_k":
            return self.gram8("g") @ self.operator8("K")
        raise ValidationError(f"unknown pairing: {name!r}")

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
    eta = p.form.eta if eta is None else int(eta)
    if eta not in (1, -1):
        raise ValidationError("eta must be +1 or -1")
    x, y = p.xv, p.yv
    bxx, byy = p.form.b(x, x), p.form.b(y, y)
    # Sylvester's law: the plane has what sigma has of positive directions
    # beyond those of x and y
    positive = sum(s > 0 for s in p.form.sigma) - (bxx > 0) - (byy > 0)
    s1p, s2p = (1 if positive > 0 else -1), (1 if positive > 1 else -1)
    A = (s2p / np.sqrt(abs(bxx * byy))) * p.form.matrix @ cross4(x, y, np.eye(4)).T
    return StructureFrame(p, eta, s1p * s2p, A)


_OPERATORS = ("I", "J", "K", "alpha")
_PAIRINGS = ("g", "ghat", "omega_i", "omega_k")


def _on_manifold(form, x, y, tol=1e-8):
    scale = max(1.0, float(x @ x), float(y @ y))
    return (abs(form.b(x, y)) <= tol * scale
            and abs(form.b(x, x)) > tol * scale
            and abs(form.b(y, y)) > tol * scale)


def covariant_constancy_residual(form, path, fields, tensor, t0=0.0, h=1e-3):
    """Richardson-extrapolated residual of the covariant derivative at t0.

    path(t) -> (x, y) stays in M; fields are W-section callables along it,
    one for an operator tensor, two for a pairing.  The connection is the
    ambient t-derivative followed by projection along N.  Returns
    (residual, velocity_in_w): the structure lemmas assume the path velocity
    lies in W, so the flag reports whether that hypothesis held.
    """
    if not 0 < h <= 0.05:
        raise ValidationError("step must lie in (0, 0.05]")
    if tensor not in _OPERATORS and tensor not in _PAIRINGS:
        raise ValidationError(f"unknown tensor: {tensor!r}")
    need = 1 if tensor in _OPERATORS else 2
    if len(fields) != need:
        raise ValidationError(f"tensor {tensor} needs {need} section(s)")

    def point_at(t):
        x, y = path(t)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not _on_manifold(form, x, y):
            raise PreconditionError("path leaves the base manifold")
        return BasePoint(form, tuple(x), tuple(y))

    p0 = point_at(t0)
    fr0 = frame_at(p0)

    def section8(fn, t):
        cv = fn(t)
        if isinstance(cv, ContactVector):
            return cv.vec8
        return _as8(cv)

    def residual_at(step):
        for t in (t0 - step, t0 + step):
            point_at(t)
        # nabla of each section: ambient centered difference, then project
        nabla = []
        for fn in fields:
            ds = (section8(fn, t0 + step) - section8(fn, t0 - step)) / (2 * step)
            nabla.append(w_project(p0, ds).vec8)
        if tensor in _OPERATORS:
            def image(t):
                fr = frame_at(point_at(t))
                return fr.operator8(tensor) @ section8(fields[0], t)
            dimg = (image(t0 + step) - image(t0 - step)) / (2 * step)
            res8 = (w_project(p0, dimg).vec8
                    - fr0.operator8(tensor) @ nabla[0])
            return res8
        def value(t):
            fr = frame_at(point_at(t))
            s = section8(fields[0], t)
            u = section8(fields[1], t)
            return s @ fr.gram8(tensor) @ u
        dval = (value(t0 + step) - value(t0 - step)) / (2 * step)
        G0 = fr0.gram8(tensor)
        s0 = section8(fields[0], t0)
        u0 = section8(fields[1], t0)
        corr = nabla[0] @ G0 @ u0 + s0 @ G0 @ nabla[1]
        return np.atleast_1d(dval - corr)

    r_h = residual_at(h)
    r_h2 = residual_at(h / 2)
    extrapolated = (4.0 * r_h2 - r_h) / 3.0
    residual = float(np.linalg.norm(extrapolated))

    # velocity check at t0: both legs of dp/dt must be b-orthogonal to x and y
    vel = (np.concatenate(path(t0 + h)) - np.concatenate(path(t0 - h))) / (2 * h)
    in_w = np.linalg.norm(vel - w_project(p0, vel).vec8) <= 1e-6 * max(
        1.0, np.linalg.norm(vel))
    return residual, bool(in_w)


def curvature_pairing(p, X, eta=None):
    """Both sides of the closed-form curvature identity at (p, X).

    The left side is the Gauss-equation sum over the four normal directions;
    the right side is the closed form in terms of ghat.  X must have colinear
    legs for the identity to be exact.
    """
    eta = p.form.eta if eta is None else int(eta)
    fr = frame_at(p, eta)
    b = p.form.b
    xi = np.array(X.xi)
    mu = np.array(X.mu)
    legs = np.column_stack([xi, mu])
    sv = np.linalg.svd(legs, compute_uv=False)
    if sv[1] > 1e-8 * max(sv[0], 1.0):
        raise PreconditionError("legs of X must be colinear")
    x, y = p.xv, p.yv
    lam_x = np.sqrt(abs(b(x, x)))
    lam_y = np.sqrt(abs(b(y, y)))
    s_x = np.sign(b(x, x))
    s_y = np.sign(b(y, y))
    eps_i = (s_x, s_y, eta * s_x, eta * s_y)

    def B_i(idx, U, V):
        u1, u2 = U[:4], U[4:]
        v1, v2 = V[:4], V[4:]
        if idx == 0:
            return -b(u1, v1) / lam_x
        if idx == 1:
            return -b(u2, v1) / lam_y
        if idx == 2:
            return -eta * b(u1, v2) / lam_x
        return -eta * b(u2, v2) / lam_y

    X8 = X.vec8
    JX = fr.operator8("J") @ X8
    KX = fr.operator8("K") @ X8
    lhs = 0.0
    for idx in range(4):
        lhs += eps_i[idx] * (B_i(idx, JX, X8) * B_i(idx, X8, KX)
                             - B_i(idx, X8, X8) * B_i(idx, JX, KX))

    norm_p = b(x, x) + eta * b(y, y)
    ghat_XIX = fr.pair("ghat", X, fr.apply("I", X))
    ghat_XX = fr.pair("ghat", X, X)
    rhs = (-fr.eps * norm_p / (2.0 * b(x, x) * b(y, y))) * ghat_XIX * ghat_XX
    return float(lhs), float(rhs)


def stabilizer_membership(M44, b2, tol=1e-9):
    """True iff the map is diag(N, N) with N preserving the plane form b2."""
    M = np.asarray(M44, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if M.shape != (4, 4) or b2.shape != (2, 2):
        raise ValidationError("expected a 4x4 matrix and a 2x2 form")
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
    eta = int(eta)
    if b2.shape != (2, 2) or abs(b2[0, 1] - b2[1, 0]) > 1e-12:
        raise ValidationError("expected a symmetric 2x2 form")
    if eta not in (1, -1):
        raise ValidationError("eta must be +1 or -1")
    v = np.asarray(v, dtype=float)
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
    sigma2 = int(np.sign(nw))
    sig = Signature2(eta, eta * sigma2)
    # columns: images of (u1, u2, 0, 0) and (0, 0, u1, u2) in coefficients
    # phi0(u1) = 1, phi0(u2) = k, second factor premultiplied by i^{-1} = -eta*i
    # -eta*i*1 = -eta*i ; -eta*i*k = -eta*(-s1 j) = eta*s1 j = j  (s1 = eta)
    P = np.linalg.inv(np.column_stack([u1, u2]))
    cols = np.zeros((4, 4))
    img = np.array([[1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, -eta, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0]])
    for half in (0, 1):
        for col in (0, 1):
            e = np.zeros(2)
            e[col] = 1.0
            coords = P @ e
            cols[:, 2 * half + col] = (coords[0] * img[2 * half]
                                       + coords[1] * img[2 * half + 1])
    return cols, sig
