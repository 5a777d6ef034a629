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
"""

from dataclasses import dataclass, field

import numpy as np

from ._fd import cross4
from ._fd import require_finite as _require_finite
from .clifford import Signature2
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
        _require_finite("base point x and y", x, y, nodes=1)
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
        _require_finite("contact vector xi and mu", xi, mu, nodes=1)
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
    """An ambient 8-vector from a ContactVector, an 8-vector or its (2, 4) legs."""
    v = np.asarray(getattr(v, "vec8", v), dtype=float)
    if v.shape == (8,):
        return v
    if v.shape == (2, 4):
        return v.reshape(8)
    raise ValidationError("expected an ambient 8-vector")


def w_project(p, v):
    """Project an ambient 8-vector to W along N, componentwise."""
    legs = _as8(v).reshape(2, 4)
    xy = np.array([p.x, p.y])
    # c[leg, n] = b(leg, n) / b(n, n) for n = x, y
    c = np.sum(np.array(p.form.sigma) * legs[:, None] * xy, axis=2) / [
        p.form.b(p.x, p.x), p.form.b(p.y, p.y)]
    out = legs - c[:, :1] * xy[0] - c[:, 1:] * xy[1]
    return ContactVector(p, tuple(out[0]), tuple(out[1]))


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
        return np.kron(legs(self.eta), X)

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
    x, y = p.xv, p.yv
    bxx, byy = p.form.b(x, x), p.form.b(y, y)
    # Sylvester's law: the plane has what sigma has of positive directions
    # beyond those of x and y
    positive = sum(s > 0 for s in p.form.sigma) - (bxx > 0) - (byy > 0)
    s1p, s2p = (1 if positive > 0 else -1), (1 if positive > 1 else -1)
    A = (s2p / np.sqrt(abs(bxx * byy))) * p.form.matrix @ cross4(x, y, np.eye(4)).T
    return StructureFrame(p, eta, s1p * s2p, A)


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
    if tensor not in _TENSORS:
        raise ValidationError(f"unknown tensor: {tensor!r}")
    pairing = _TENSORS[tensor][0]
    need = 2 if pairing else 1
    if len(fields) != need:
        raise ValidationError(f"tensor {tensor} needs {need} section(s)")

    def at(t):
        """Point (x, y) as an 8-vector, frame, tensor matrix and sections at t."""
        x, y = (np.asarray(v, dtype=float) for v in path(t))
        if not _on_manifold(form, x, y):
            raise PreconditionError("path leaves the base manifold")
        fr = frame_at(BasePoint(form, tuple(x), tuple(y)))
        return (np.concatenate([x, y]), fr, fr._tensor8(tensor, pairing),
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
    b = p.form.b
    X8 = X.vec8
    sv = np.linalg.svd(X8.reshape(2, 4).T, compute_uv=False)
    if sv[1] > 1e-8 * max(sv[0], 1.0):
        raise PreconditionError("legs of X must be colinear")
    x, y = p.xv, p.yv
    bxx, byy = b(x, x), b(y, y)
    lam_x, lam_y = np.sqrt(abs(bxx)), np.sqrt(abs(byy))
    s_x, s_y = np.sign(bxx), np.sign(byy)

    X, JX, KX = (v.reshape(2, 4) for v in (X8, fr.operator8("J") @ X8, fr.operator8("K") @ X8))
    lhs = 0.0
    # normal direction: B(U, V) = factor * b(U[u], V[v]) / lam, weighted by sign
    for u, v, factor, lam, sign in ((0, 0, -1, lam_x, s_x), (1, 0, -1, lam_y, s_y),
                                    (0, 1, -eta, lam_x, eta * s_x),
                                    (1, 1, -eta, lam_y, eta * s_y)):
        def B(U, V):
            return factor * b(U[u], V[v]) / lam
        lhs += sign * (B(JX, X) * B(X, KX) - B(X, X) * B(JX, KX))

    norm_p = bxx + eta * byy
    ghat = fr.gram8("ghat")
    ghat_XIX = float(X8 @ ghat @ (fr.operator8("I") @ X8))
    ghat_XX = float(X8 @ ghat @ X8)
    rhs = (-fr.eps * norm_p / (2.0 * bxx * byy)) * ghat_XIX * ghat_XX
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
