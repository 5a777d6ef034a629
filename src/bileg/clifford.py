"""Clifford algebras of plane forms and the classification of invariant planes.

The algebra of a nondegenerate symmetric bilinear form b on R^2 is spanned by
(1, i, j, k) with i^2 = -b(e1,e1), j^2 = -b(e2,e2), k = i*j.  Since only the
orthonormalized signs of b matter, a :class:`Signature2` pins the algebra and
the three signatures (+,+), (+,-), (-,-) cover everything; (+,+) recovers the
quaternions.

Left multiplication m_x by a unit imaginary x is, depending on the sign of
g(x,x), a complex structure or a para-complex structure on the algebra, and
the module classifies its invariant 2-planes: the regular ones, the
exceptional ones where the auxiliary product ghat degenerates, and the
principal vectors and principal lines carried by the regular ones.  Each
plane is read through one orthonormal Gram-Schmidt frame Q and the 2x2
matrix R = Q^T m_x Q, from which every test and classification follows.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError

_TOL = 1e-9
_DEGEN_TOL = 1e-10

REGULAR = "Regular"
EXCEPTIONAL_NULL_SUM = "ExceptionalNullSum"
EXCEPTIONAL_GRAPH = "ExceptionalGraph"
EXCEPTIONAL_NULL_EIGENVECTOR = "ExceptionalNullEigenvector"


@dataclass(frozen=True)
class Signature2:
    """Signs (b(e1,e1), b(e2,e2)) of an orthonormalized plane form."""

    s1: int
    s2: int

    def __post_init__(self):
        if self.s1 not in (1, -1) or self.s2 not in (1, -1):
            raise ValidationError("signature entries must be +1 or -1")

    @property
    def sign(self):
        """+1 when the number of positive directions is even, else -1."""
        return self.s1 * self.s2

    @property
    def i_sq(self):
        return -self.s1

    @property
    def j_sq(self):
        return -self.s2

    @property
    def k_sq(self):
        return -self.s1 * self.s2

    @staticmethod
    def from_form(b2, tol=1e-12):
        """Signature of an arbitrary nondegenerate symmetric 2x2 form.

        Orthonormalization is by eigen-decomposition with eigenvalues in
        descending order, so the result depends only on the signature.
        """
        b2 = np.asarray(b2, dtype=float)
        if b2.shape != (2, 2) or abs(b2[0, 1] - b2[1, 0]) > tol:
            raise ValidationError("expected a symmetric 2x2 matrix")
        w = np.sort(np.linalg.eigvalsh(b2))[::-1]
        if np.min(np.abs(w)) <= tol:
            raise ValidationError("form is degenerate")
        return Signature2(int(np.sign(w[0])), int(np.sign(w[1])))


@dataclass(frozen=True)
class CliffordElement:
    """a + b i + c j + d k over a fixed Signature2."""

    a: float
    b: float
    c: float
    d: float
    sig: Signature2

    @property
    def coeffs(self):
        return np.array([self.a, self.b, self.c, self.d])

    @property
    def real(self):
        return self.a

    def imaginary_part(self):
        return CliffordElement(0.0, self.b, self.c, self.d, self.sig)

    def even_part(self):
        return CliffordElement(self.a, 0.0, 0.0, self.d, self.sig)

    def odd_part(self):
        return CliffordElement(0.0, self.b, self.c, 0.0, self.sig)

    @property
    def norm_sq(self):
        s = self.sig
        return (self.a * self.a - self.b * self.b * s.i_sq
                - self.c * self.c * s.j_sq - self.d * self.d * s.k_sq)

    def grade(self):
        return CliffordElement(self.a, -self.b, -self.c, self.d, self.sig)

    def reversion(self):
        return CliffordElement(self.a, self.b, self.c, -self.d, self.sig)

    def conjugation(self):
        return CliffordElement(self.a, -self.b, -self.c, -self.d, self.sig)

    def __add__(self, other):
        _check_sig(self, other)
        return CliffordElement(self.a + other.a, self.b + other.b,
                               self.c + other.c, self.d + other.d, self.sig)

    def __sub__(self, other):
        _check_sig(self, other)
        return CliffordElement(self.a - other.a, self.b - other.b,
                               self.c - other.c, self.d - other.d, self.sig)

    def __neg__(self):
        return CliffordElement(-self.a, -self.b, -self.c, -self.d, self.sig)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return mul(self, other)
        return CliffordElement(self.a * other, self.b * other,
                               self.c * other, self.d * other, self.sig)

    def __rmul__(self, scalar):
        return self.__mul__(scalar)


def element(sig, a, b, c, d):
    return CliffordElement(float(a), float(b), float(c), float(d), sig)


def from_coeffs(sig, coeffs):
    a, b, c, d = (float(t) for t in coeffs)
    return CliffordElement(a, b, c, d, sig)


def basis(sig):
    """The ordered basis (1, i, j, k)."""
    return (element(sig, 1, 0, 0, 0), element(sig, 0, 1, 0, 0),
            element(sig, 0, 0, 1, 0), element(sig, 0, 0, 0, 1))


def _check_sig(x, y):
    if x.sig is not y.sig and x.sig != y.sig:
        raise ValidationError("signature mismatch")


def mul(x, y):
    """Clifford product from the table i^2 = -s1, j^2 = -s2, i*j = k."""
    _check_sig(x, y)
    s1, s2 = x.sig.s1, x.sig.s2
    a, b, c, d = x.a, x.b, x.c, x.d
    e, f, g, h = y.a, y.b, y.c, y.d
    return CliffordElement(
        a * e - s1 * b * f - s2 * c * g - s1 * s2 * d * h,
        a * f + b * e + s2 * (c * h - d * g),
        a * g + c * e + s1 * (d * f - b * h),
        a * h + d * e + (b * g - c * f),
        x.sig,
    )


def apply_involution(x, kind):
    """One of the three involutions: grade, reversion, conjugation."""
    if kind == "grade":
        return x.grade()
    if kind == "reversion":
        return x.reversion()
    if kind == "conjugation":
        return x.conjugation()
    raise ValidationError(f"unknown involution kind: {kind!r}")


def inner_g(x, y):
    """g(x, y) = R(x * conj(y))."""
    _check_sig(x, y)
    s1, s2 = x.sig.s1, x.sig.s2
    # the real part of mul(x, y.conjugation()), term for term
    return x.a * y.a - s1 * x.b * -y.b - s2 * x.c * -y.c - s1 * s2 * x.d * -y.d


def inner_ghat(x, y):
    """ghat(x, y) = g(grade(x), y); flips the sign of g on odd elements."""
    return inner_g(x.grade(), y)


def _require_unit_imaginary(w, name="axis", tol=1e-7):
    if abs(w.real) > tol:
        raise PreconditionError(f"{name} must be imaginary")
    if abs(abs(inner_g(w, w)) - 1.0) > tol:
        raise PreconditionError(f"{name} must have |g({name},{name})| = 1")


def _require_odd(w, name="axis", tol=1e-7):
    # the plane classification lemmas only hold for axes in the odd part
    if abs(w.a) > tol or abs(w.d) > tol:
        raise PreconditionError(f"{name} must lie in the odd part")


def omega_axis(w, y, z):
    """The 2-form omega_w(y, z) = g(y, w*z) of a unit imaginary axis."""
    _require_unit_imaginary(w, "w")
    return inner_g(y, mul(w, z))


def g_matrix(sig):
    """Gram matrix of g on coefficient space, basis (1, i, j, k)."""
    return np.diag([1.0, sig.s1, sig.s2, sig.s1 * sig.s2])


def ghat_matrix(sig):
    return np.diag([1.0, -sig.s1, -sig.s2, sig.s1 * sig.s2])


def mx_matrix(x):
    """Left multiplication by x as a 4x4 matrix on coefficient space."""
    s1, s2 = x.sig.s1, x.sig.s2
    a, b, c, d = x.a, x.b, x.c, x.d
    # column k is the product table's x * e_k for the basis (1, i, j, k)
    return np.array([[a, -s1 * b, -s2 * c, -s1 * s2 * d],
                     [b, a, -s2 * d, s2 * c],
                     [c, s1 * d, a, -s1 * b],
                     [d, -c, b, a]])


@dataclass(frozen=True)
class PlaneSpan:
    """A 2-plane in the algebra, given by two independent elements."""

    u: CliffordElement
    v: CliffordElement

    def __post_init__(self):
        _check_sig(self.u, self.v)
        # the frame S = Q T of the unit-size matrix by Gram-Schmidt; the second
        # column is orthogonalized twice, which keeps Q orthonormal to working
        # precision however close the columns are (Giraud, Langou and
        # Rozloznik, Comput. Math. Appl. 50, 2005)
        a, c = self.matrix().T
        t00 = np.sqrt(a @ a)
        q0 = a / t00 if t00 > 0 else a
        t01 = q0 @ c
        w = c - t01 * q0
        d = q0 @ w
        w = w - d * q0
        t11 = np.sqrt(w @ w)
        # sv[1] / sv[0] of S from sv0 sv1 = |det T| and sv0^2 + sv1^2 = |T|^2 = 1
        det = t00 * t11
        if not det > 1e-12 * (0.5 + np.sqrt(max(0.25 - det * det, 0.0))):
            raise ValidationError("span is degenerate")
        object.__setattr__(self, "_frame", (np.column_stack([q0, w / t11]),
                                            np.array([[t00, t01 + d], [0.0, t11]])))

    @property
    def sig(self):
        return self.u.sig

    def matrix(self):
        """4x2 coefficient matrix, normalized to unit Frobenius size."""
        m = np.column_stack([self.u.coeffs, self.v.coeffs])
        return m / np.linalg.norm(m)


def _representation(P, x, tol=_TOL):
    """(Q, R) with Q the frame of P and R = Q^T m_x Q if m_x properly keeps P, else None.

    m_x keeps P when m_x Q - Q R, its part off the plane, is at most tol
    relative to m_x Q, and keeps it properly unless P is a real eigenplane:
    T^-1 R T, the least-squares solution of S X = m_x S on the span basis
    S = Q T, lies within 100 tol of +Id or -Id.
    """
    _require_unit_imaginary(x, "x")
    Q, T = P._frame
    MQ = mx_matrix(x) @ Q
    R = Q.T @ MQ
    if not np.linalg.norm(MQ - Q @ R) <= tol * np.linalg.norm(MQ):
        return None
    (a, b), (_, c) = T
    rep = np.array([[1.0 / a, -b / (a * c)], [0.0, 1.0 / c]]) @ R @ T
    for lam in (1.0, -1.0):
        if np.linalg.norm(rep - lam * np.eye(2)) <= 100 * tol:
            return None
    return Q, R


def eigenspaces_of_mx(x):
    """Real eigenplanes (E+, E-) of m_x for a negative-sign unit imaginary x.

    E+ = span(1+x, y+x*y) with y the first of i, j, k made orthogonal to x by
    Gram-Schmidt and of nonzero norm.
    """
    _require_unit_imaginary(x, "x")
    if inner_g(x, x) > 0:
        raise PreconditionError("x has positive sign: no real eigenspaces")
    y = _orthogonal_unit_imaginary(x)
    one = basis(x.sig)[0]
    e_plus = PlaneSpan(one + x, y + mul(x, y))
    e_minus = PlaneSpan(one - x, y - mul(x, y))
    return e_plus, e_minus


def _orthogonal_unit_imaginary(x, tol=1e-9):
    candidates = list(basis(x.sig)[1:])
    # pairwise sums as fallback seeds in case every projection is null
    candidates += [candidates[0] + candidates[1], candidates[0] + candidates[2],
                   candidates[1] + candidates[2]]
    gxx = inner_g(x, x)
    for e in candidates:
        y0 = e - (inner_g(e, x) / gxx) * x
        n2 = inner_g(y0, y0)
        if abs(n2) > tol:
            return (1.0 / np.sqrt(abs(n2))) * y0
    raise PreconditionError("no non-null imaginary direction orthogonal to x")


def invariant_plane_test(P, x, tol=_TOL):
    """True iff m_x maps P into itself and P is not a real eigenspace of m_x."""
    return _representation(P, x, tol) is not None


def bilagrangian_test(P, y1, y2, tol=_TOL):
    """True iff omega_{y1} and omega_{y2} both vanish on P."""
    for y in (y1, y2):
        _require_unit_imaginary(y, "y")
    if abs(inner_g(y1, y2)) > 1e-7:
        raise PreconditionError("y1, y2 must be g-orthogonal")
    u, v = (from_coeffs(P.sig, q) for q in P._frame[0].T)
    return (abs(omega_axis(y1, u, v)) <= tol
            and abs(omega_axis(y2, u, v)) <= tol)


def classify_plane(P, x, tol=_DEGEN_TOL):
    """Classify an m_x-invariant plane by the restriction of ghat.

    Regular means the restricted Gram determinant is nonzero.  For positive x
    the degenerate planes split into a sum of null lines (negative-sign forms
    only) or the graph of a multiplication operator over the even part; for
    negative x degeneracy means a ghat-null real eigenvector sits inside P.
    """
    _require_odd(x)
    rep = _representation(P, x)
    if rep is None:
        raise PreconditionError("plane is not properly m_x-invariant")
    Q, R = rep
    T = P._frame[1]
    Gh = ghat_matrix(P.sig)
    # ghat on the span basis S = Q T
    gram = T.T @ (Q.T @ Gh @ Q) @ T
    if abs(gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]) > tol:
        return REGULAR
    if inner_g(x, x) > 0:
        # degeneracy forces ghat to vanish identically on the plane
        if np.max(np.abs(gram)) > 1e-6:
            raise PreconditionError("ghat degenerate but not identically zero")
        odd = (Q @ T)[1:3, :]
        osv = np.linalg.svd(odd, compute_uv=False)
        if osv[1] <= 1e-8:
            if P.sig.sign != -1:
                raise PreconditionError("null-sum planes need an odd signature")
            return EXCEPTIONAL_NULL_SUM
        return EXCEPTIONAL_GRAPH
    # negative x: R^2 = Id and R is not +/-Id, so R has the eigenvalues +1 and
    # -1, the columns of R + lam Id span its eigenline of lam, and degeneracy
    # forces one of the two eigenlines to be ghat-null
    for lam in (1.0, -1.0):
        E = R + lam * np.eye(2)
        u4 = Q @ E[:, np.argmax(np.abs(E).sum(axis=0))]
        if abs(u4 @ Gh @ u4) <= 1e-7 * (u4 @ u4):
            return EXCEPTIONAL_NULL_EIGENVECTOR
    raise PreconditionError("degenerate plane with no ghat-null eigenline")


def principal_vectors(P, x):
    """The four h-null, ghat-unit vectors of a regular invariant plane.

    Returns a list of (vector, flag) with flag "real" or "complex"; complex
    vectors are (real part, imaginary part) pairs of elements.
    """
    if classify_plane(P, x) != REGULAR:
        raise PreconditionError("principal vectors need a regular plane")
    Q, R = _representation(P, x)
    T = P._frame[1]
    Gh = ghat_matrix(P.sig)
    # h = ghat(., m_x .) on the span basis S = Q T, where m_x Q = Q R
    H = T.T @ (Q.T @ Gh @ Q) @ R @ T
    H = 0.5 * (H + H.T)
    # null directions of the quadratic via its eigen-frame: with H = E L E^T
    # the form reads l0 p^2 + l1 q^2, so p = +/- sqrt(-l1/l0) q
    lam, E = np.linalg.eigh(H)
    if np.min(np.abs(lam)) < 1e-12 * max(np.max(np.abs(lam)), 1.0):
        raise PreconditionError("principal quadratic is degenerate")
    ratio = -lam[1] / lam[0]
    flag = "real" if ratio >= 0 else "complex"
    # sqrt(ratio) or i sqrt(-ratio)
    root = np.sqrt(complex(ratio))
    out = []
    for pq in (np.array([root, 1.0]), np.array([-root, 1.0])):
        w = Q @ (T @ (E @ pq))
        n2 = w @ Gh @ w
        if abs(n2) < 1e-12:
            raise PreconditionError("principal direction is ghat-null")
        w = w / np.sqrt(n2 if flag == "complex" else abs(n2))
        for signed in (w, -w):
            if flag == "real":
                out.append((from_coeffs(P.sig, signed.real), flag))
            else:
                out.append(((from_coeffs(P.sig, signed.real),
                             from_coeffs(P.sig, signed.imag)), flag))
    return out


def principal_line(P, x, v, tol=1e-7):
    """The line E_v Int Cl+ attached to a real principal vector v.

    E_v is spanned by v and k*x*v; its intersection with the even part is one
    line, returned as a unit-coefficient element.
    """
    _require_unit_imaginary(x, "x")
    _require_odd(x, "x")
    if inner_g(x, x) > 0:
        raise PreconditionError("principal lines need a negative-sign x")
    S = P.matrix()
    sol, *_ = np.linalg.lstsq(S, v.coeffs, rcond=None)
    if np.linalg.norm(S @ sol - v.coeffs) > tol * max(np.linalg.norm(v.coeffs), 1.0):
        raise PreconditionError("v does not lie in the plane")
    if abs(inner_ghat(v, mul(x, v))) > tol or abs(abs(inner_ghat(v, v)) - 1.0) > 1e-5:
        raise PreconditionError("v is not principal")
    # proof identity: the even half of v is g-orthogonal to x times its odd half
    if abs(inner_g(v.even_part(), mul(x, v.odd_part()))) > tol:
        raise PreconditionError("principal identity fails for v")
    k_elem = basis(P.sig)[3]
    w2 = mul(k_elem, mul(x, v))
    odd = np.column_stack([v.coeffs, w2.coeffs])[1:3, :]
    u2, sv, vt = np.linalg.svd(odd)
    if sv[0] <= tol:
        line = v.coeffs
    else:
        if sv[1] > tol * sv[0]:
            raise PreconditionError("E_v meets Cl+ in dimension 0")
        combo = vt[-1]
        line = combo[0] * v.coeffs + combo[1] * w2.coeffs
    if np.linalg.norm(line) < 1e-9:
        raise PreconditionError("E_v is a degenerate span")
    if abs(line[1]) + abs(line[2]) > 1e-6 * np.linalg.norm(line):
        raise PreconditionError("computed line is not even")
    return from_coeffs(P.sig, line / np.linalg.norm(line))


@dataclass(frozen=True)
class PseudoInvolutionMatrix:
    """A 4x4 matrix M with M^2 = -sign * Id for sign in {+1, -1}."""

    entries: tuple
    sign: int

    @staticmethod
    def from_matrix(M, tol=1e-9):
        M = np.asarray(M, dtype=float)
        if M.shape != (4, 4):
            raise ValidationError("expected a 4x4 matrix")
        M2 = M @ M
        eye = np.eye(4)
        if np.max(np.abs(M2 - eye)) <= tol:
            sign = -1
        elif np.max(np.abs(M2 + eye)) <= tol:
            sign = 1
        else:
            raise ValidationError("matrix does not square to +/- identity")
        return PseudoInvolutionMatrix(tuple(map(tuple, M)), sign)

    @property
    def matrix(self):
        return np.array(self.entries)

    @property
    def trace(self):
        return float(np.trace(self.matrix))

    @property
    def balanced(self):
        return abs(self.trace) <= 1e-9


COMPLEX_ONLY = "ComplexOnly"


def eigen_split(M):
    """Eigen-decomposition of a pseudo-involution.

    Negative sign (M^2 = +Id): returns (basis of E+, basis of E-, balanced).
    Positive sign (M^2 = -Id): returns the ComplexOnly marker.
    """
    if M.sign == 1:
        return COMPLEX_ONLY
    A = M.matrix
    out = []
    for lam in (1.0, -1.0):
        proj = 0.5 * (np.eye(4) + lam * A)
        u, sv, _ = np.linalg.svd(proj)
        rank = int(np.sum(sv > 0.5))
        out.append(u[:, :rank])
    dims_equal = out[0].shape[1] == out[1].shape[1]
    if dims_equal != M.balanced:
        raise PreconditionError("trace and eigenspace dimensions disagree")
    return out[0], out[1], M.balanced


def effective_pair_check(x, xp):
    """Wedge coefficient of omega_x ^ omega_x' against the g-volume form.

    Returns (coefficient, 2*g(x,x'), effective); the first two agree and the
    pair of 2-forms is effective exactly when x, x' are g-orthogonal.  The
    metric volume form gives the basis (1, i, j, k) the orientation sign of
    the signature, which keeps the identity uniform across signatures.
    """
    for w in (x, xp):
        if abs(w.real) > 1e-9 * max(1.0, np.linalg.norm(w.coeffs)):
            raise PreconditionError("effective pairs need imaginary elements")
    _check_sig(x, xp)
    G = g_matrix(x.sig)
    O1 = G @ mx_matrix(x)
    O2 = G @ mx_matrix(xp)
    shuffle = (O1[0, 1] * O2[2, 3] - O1[0, 2] * O2[1, 3] + O1[0, 3] * O2[1, 2]
               + O1[2, 3] * O2[0, 1] - O1[1, 3] * O2[0, 2]
               + O1[1, 2] * O2[0, 3])
    coeff = x.sig.sign * shuffle
    rhs = 2.0 * inner_g(x, xp)
    return coeff, rhs, abs(inner_g(x, xp)) <= 1e-9
