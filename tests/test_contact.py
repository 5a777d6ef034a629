"""Contact bundle: frame algebra, projection, flatness, curvature pairing."""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from bileg._fd import det4
from bileg.clifford import basis as cl_basis
from bileg.clifford import from_coeffs, inner_g, mul
from bileg.contact import (
    AmbientForm4,
    BasePoint,
    ContactVector,
    StructureFrame,
    clifford_isomorphism,
    covariant_constancy_residual,
    curvature_pairing,
    frame_at,
    stabilizer_membership,
    w_project,
)
from bileg.errors import PreconditionError, ValidationError

EUCLIDEAN = AmbientForm4((1, 1, 1, 1), -1)
LORENTZIAN = AmbientForm4((1, 1, 1, -1), -1)
FORMS = [EUCLIDEAN, LORENTZIAN, AmbientForm4((1, 1, -1, -1), 1),
         AmbientForm4((1, 1, 1, 1), 1)]


def random_point(rng, form):
    B = form.matrix
    while True:
        x = rng.standard_normal(4)
        nx = x @ B @ x
        if abs(nx) < 0.1:
            continue
        x = x / np.sqrt(abs(nx))
        y = rng.standard_normal(4)
        y = y - ((y @ B @ x) / (x @ B @ x)) * x
        ny = y @ B @ y
        if abs(ny) < 0.1:
            continue
        y = y / np.sqrt(abs(ny))
        p = BasePoint(form, tuple(x), tuple(y))
        try:
            frame_at(p)
        except PreconditionError:
            continue
        return p


def random_w_vector(rng, p):
    return w_project(p, rng.standard_normal(8))


def test_w_project_annihilates_n_and_is_idempotent():
    rng = np.random.default_rng(31)
    for form in FORMS:
        for _ in range(10):
            p = random_point(rng, form)
            zero = w_project(p, np.concatenate([p.xv, np.zeros(4)]))
            assert np.linalg.norm(zero.vec8) < 1e-12
            zero = w_project(p, np.concatenate([np.zeros(4), p.yv]))
            assert np.linalg.norm(zero.vec8) < 1e-12
            v = rng.standard_normal(8)
            pv = w_project(p, v)
            again = w_project(p, pv.vec8)
            np.testing.assert_allclose(again.vec8, pv.vec8, atol=1e-12)
            b = form.b
            assert abs(b(np.array(pv.xi), p.xv)) < 1e-12
            assert abs(b(np.array(pv.mu), p.yv)) < 1e-12
            # difference lies in N
            N = np.zeros((8, 4))
            N[:4, 0], N[:4, 1] = p.xv, p.yv
            N[4:, 2], N[4:, 3] = p.xv, p.yv
            resid, *_ = np.linalg.lstsq(N, v - pv.vec8, rcond=None)
            assert np.linalg.norm(N @ resid - (v - pv.vec8)) < 1e-10


def test_frame_nine_clifford_relations():
    rng = np.random.default_rng(32)
    for form in FORMS:
        for eta in (1, -1):
            for _ in range(8):
                p = random_point(rng, form)
                fr = frame_at(p, eta)
                eps = fr.eps
                I8 = fr.operator8("I")
                J8 = fr.operator8("J")
                K8 = fr.operator8("K")
                for _ in range(4):
                    v = random_w_vector(rng, p).vec8
                    checks = [
                        (I8 @ (I8 @ v), -eta * v),
                        (J8 @ (J8 @ v), -eta * eps * v),
                        (K8 @ (K8 @ v), -eps * v),
                        (I8 @ (J8 @ v) + J8 @ (I8 @ v), np.zeros(8)),
                        (I8 @ (K8 @ v) + K8 @ (I8 @ v), np.zeros(8)),
                        (J8 @ (K8 @ v) + K8 @ (J8 @ v), np.zeros(8)),
                        (I8 @ (J8 @ v), K8 @ v),
                        (J8 @ (K8 @ v), eta * eps * (I8 @ v)),
                        (K8 @ (I8 @ v), eta * (J8 @ v)),
                    ]
                    for got, want in checks:
                        np.testing.assert_allclose(got, want, atol=1e-12)


def test_frame_pairings_match_formulas():
    rng = np.random.default_rng(33)
    for form in FORMS:
        b = form.b
        for _ in range(10):
            p = random_point(rng, form)
            fr = frame_at(p)
            v = random_w_vector(rng, p)
            w = random_w_vector(rng, p)
            xi, mu = np.array(v.xi), np.array(v.mu)
            xip, mup = np.array(w.xi), np.array(w.mu)
            eta = form.eta
            np.testing.assert_allclose(
                fr.pair("omega_i", v, w), b(xi, mup) - b(mu, xip), atol=1e-12)
            np.testing.assert_allclose(
                fr.pair("g", v, w), b(xi, xip) + eta * b(mu, mup), atol=1e-12)
            np.testing.assert_allclose(
                fr.pair("ghat", v, w), b(xi, xip) - eta * b(mu, mup),
                atol=1e-12)
            # ghat = g(., alpha .) and omega_i = g(., I .)
            np.testing.assert_allclose(
                fr.pair("ghat", v, w), fr.pair("g", v, fr.apply("alpha", w)),
                atol=1e-12)
            np.testing.assert_allclose(
                fr.pair("omega_i", v, w), fr.pair("g", v, fr.apply("I", w)),
                atol=1e-12)
            # omega_k is antisymmetric on W
            np.testing.assert_allclose(
                fr.pair("omega_k", v, w), -fr.pair("omega_k", w, v),
                atol=1e-12)


def test_frame_quaternion_rotation_example():
    p = BasePoint(EUCLIDEAN, (1, 0, 0, 0), (0, 0, 0, 1))
    fr = frame_at(p, -1)
    assert fr.eps == 1
    np.testing.assert_allclose(fr.A @ np.array([0, 1, 0, 0.0]),
                               [0, 0, 1, 0], atol=1e-12)
    # eta = -1, eps = +1 makes J an involution on W
    rng = np.random.default_rng(34)
    J8 = fr.operator8("J")
    for _ in range(5):
        v = random_w_vector(rng, p).vec8
        np.testing.assert_allclose(J8 @ (J8 @ v), v, atol=1e-12)


def test_quarter_turn_meets_its_defining_conditions():
    """A kills x and y, is b-antisymmetric, squares to -eps Id on the contact
    plane and orients Vol(x, u, A u, y) > 0 on a positive-norm u; eps is read
    off the eigenvalues of b on the plane, for every signature of b."""
    rng = np.random.default_rng(38)
    for sigma in itertools.product((1, -1), repeat=4):
        form = AmbientForm4(sigma, -1)
        B = form.matrix
        for _ in range(6):
            p = random_point(rng, form)
            # A depends only on the plane and its orientation, not on the sizes of x and y
            scaled = BasePoint(form, tuple(2.5 * p.xv), tuple(0.3 * p.yv))
            np.testing.assert_allclose(frame_at(scaled).A, frame_at(p).A, rtol=1e-12, atol=1e-12)
            fr = frame_at(p)
            A, x, y = fr.A, p.xv, p.yv
            size = max(1.0, np.abs(A).max()) ** 2
            # a Euclidean-orthonormal basis V of the plane <x, y>-perp, and b on it
            V = np.linalg.svd(np.vstack([x @ B, y @ B]))[2][2:].T
            w, E = np.linalg.eigh(V.T @ B @ V)
            assert fr.eps == int(np.sign(w[0] * w[1]))
            np.testing.assert_allclose(A @ np.column_stack([x, y]), 0.0, atol=1e-12 * size)
            np.testing.assert_allclose(B @ A, -(B @ A).T, atol=1e-12 * size)
            np.testing.assert_allclose(A @ A @ V, -fr.eps * V, atol=1e-12 * size)
            if w[-1] > 0:
                u = V @ E[:, -1]
                assert det4(x, u, A @ u, y) > 0


def _ref_quarter_turn(p):
    """The eigen-frame construction of A that the Hodge dual replaced, kept as a reference."""
    B = p.form.matrix
    V = np.linalg.svd(np.vstack([p.xv @ B, p.yv @ B]))[2][2:].T
    w, Q = np.linalg.eigh(V.T @ B @ V)
    w, Q = w[::-1], Q[:, ::-1]
    u1, u2 = (V @ Q[:, k] / np.sqrt(abs(w[k])) for k in range(2))
    s1, s2 = np.sign(w)
    lam = np.sign(np.linalg.det(np.column_stack([p.xv, u1, u2, p.yv])))
    # A u1 = lam u2, A u2 = -lam eps u1, extended by 0 on <x, y>
    return np.outer(lam * u2, s1 * (B @ u1)) - np.outer(lam * s1 * s2 * u1, s2 * (B @ u2))


def test_quarter_turn_agrees_with_eigen_frame_reference():
    rng = np.random.default_rng(39)
    for sigma in itertools.product((1, -1), repeat=4):
        for eta in (1, -1):
            form = AmbientForm4(sigma, eta)
            for _ in range(8):
                p = random_point(rng, form)
                A, want = frame_at(p).A, _ref_quarter_turn(p)
                assert np.abs(A - want).max() <= 1e-12 * np.abs(want).max()


def _orthonormal_frame(rng, form):
    """b-orthogonal frame, unit |b|-norms, listed positive-norm first."""
    B = form.matrix
    vecs = []
    signs = []
    while len(vecs) < 4:
        v = rng.standard_normal(4)
        for u, su in zip(vecs, signs):
            v = v - su * (v @ B @ u) * u
        n = v @ B @ v
        if abs(n) < 1e-3:
            continue
        vecs.append(v / np.sqrt(abs(n)))
        signs.append(int(np.sign(n)))
    order = np.argsort([-s for s in signs], kind="stable")
    return [vecs[i] for i in order], [signs[i] for i in order]


def _rotation_path(form, f, s, pair):
    """Norm-preserving motion in the span of two frame directions."""
    i0, i1 = pair
    if s[i0] == s[i1]:
        return lambda t: np.cos(t) * f[i0] + np.sin(t) * f[i1]
    return lambda t: np.cosh(t) * f[i0] + np.sinh(t) * f[i1]


TENSORS = ("g", "ghat", "omega_i", "omega_k", "I", "J", "K", "alpha")


def test_covariant_constancy_all_tensors():
    rng = np.random.default_rng(35)
    for form in (EUCLIDEAN, LORENTZIAN):
        f, s = _orthonormal_frame(rng, form)
        xpath = _rotation_path(form, f, s, (0, 1))
        ypath = _rotation_path(form, f, s, (2, 3))
        path = lambda t: (xpath(t), ypath(1.3 * t))
        c1, c2 = rng.standard_normal(8), rng.standard_normal(8)
        sec1 = lambda t: w_project(BasePoint(form, tuple(xpath(t)),
                                             tuple(ypath(1.3 * t))), c1)
        sec2 = lambda t: w_project(BasePoint(form, tuple(xpath(t)),
                                             tuple(ypath(1.3 * t))), c2)
        for tensor in TENSORS:
            fields = (sec1,) if tensor in ("I", "J", "K", "alpha") else (sec1,
                                                                         sec2)
            res, in_w = covariant_constancy_residual(form, path, fields,
                                                     tensor, t0=0.2, h=1e-3)
            assert in_w, tensor
            assert res < 1e-8, (tensor, res)


def test_covariant_constancy_flags_non_w_velocity():
    form = EUCLIDEAN
    B = form.matrix
    # generator mixing x into both the contact plane and the y-direction
    S = np.zeros((4, 4))
    S[0, 1], S[1, 0] = 1.0, -1.0
    S[0, 3], S[3, 0] = 0.7, -0.7
    Om = np.linalg.inv(B) @ S
    x0 = np.array([1, 0, 0, 0.0])
    y0 = np.array([0, 0, 0, 1.0])
    path = lambda t: (expm(t * Om) @ x0, expm(t * Om) @ y0)
    c1 = np.arange(8.0)
    sec = lambda t: w_project(BasePoint(form, tuple(path(t)[0]),
                                        tuple(path(t)[1])), c1)
    res, in_w = covariant_constancy_residual(form, path, (sec, sec),
                                             "omega_k", t0=0.0, h=1e-3)
    assert not in_w
    assert np.isfinite(res)


def test_covariant_constancy_rejects_bad_paths():
    form = EUCLIDEAN
    x0 = np.array([1, 0, 0, 0.0])
    y0 = np.array([0, 0, 0, 1.0])
    drift = lambda t: (x0 + t * y0, y0)
    sec = lambda t: w_project(BasePoint(form, (1, 0, 0, 0), (0, 0, 0, 1)),
                              np.ones(8))
    with pytest.raises(PreconditionError):
        covariant_constancy_residual(form, drift, (sec, sec), "g", h=1e-2)
    ok_path = lambda t: (x0, y0)
    with pytest.raises(ValidationError):
        covariant_constancy_residual(form, ok_path, (sec, sec), "g", h=0.5)
    with pytest.raises(ValidationError):
        covariant_constancy_residual(form, ok_path, (sec,), "g")
    with pytest.raises(ValidationError):
        covariant_constancy_residual(form, ok_path, (sec,), "shape")


def _colinear_contact_vector(rng, p, scale=(1.0, 1.0)):
    w = w_project(p, np.concatenate([rng.standard_normal(4), np.zeros(4)]))
    leg = np.array(w.xi)
    if np.linalg.norm(leg) < 1e-3:
        return None
    leg = leg / np.linalg.norm(leg)
    return ContactVector(p, tuple(scale[0] * leg), tuple(scale[1] * leg))


def test_curvature_pairing_identity():
    rng = np.random.default_rng(36)
    for form in (EUCLIDEAN, LORENTZIAN):
        for eta in (-1, 1):
            done = 0
            nontrivial = 0
            while done < 100:
                p = random_point(rng, form)
                X = _colinear_contact_vector(
                    rng, p, scale=tuple(rng.standard_normal(2)))
                if X is None:
                    continue
                lhs, rhs = curvature_pairing(p, X, eta=eta)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)
                done += 1
                nontrivial += abs(rhs) > 1e-8
            if not (form is EUCLIDEAN and eta == -1):
                assert nontrivial > 25


def test_curvature_pairing_examples():
    p = BasePoint(EUCLIDEAN, (1, 0, 0, 0), (0, 0, 0, 1))
    # single-leg vector: both sides vanish
    X0 = ContactVector(p, (0, 1, 0, 0), (0, 0, 0, 0))
    lhs, rhs = curvature_pairing(p, X0)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12
    # the quaternionic test vector (i, i); for eta = -1 the closed form
    # vanishes on unit pairs, so the Gauss sum must cancel to zero
    X = ContactVector(p, (0, 1, 0, 0), (0, 1, 0, 0))
    lhs, rhs = curvature_pairing(p, X)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    assert abs(rhs) < 1e-12
    # eta = +1 with unequal legs gives a nonzero pairing and quartic scaling
    X1 = ContactVector(p, (0, 1, 0, 0), (0, 2, 0, 0))
    lhs1, rhs1 = curvature_pairing(p, X1, eta=1)
    np.testing.assert_allclose(lhs1, rhs1, atol=1e-12)
    assert abs(rhs1) > 1e-6
    X2 = ContactVector(p, (0, 2, 0, 0), (0, 4, 0, 0))
    lhs2, rhs2 = curvature_pairing(p, X2, eta=1)
    np.testing.assert_allclose(lhs2, 16 * lhs1, atol=1e-10)
    np.testing.assert_allclose(rhs2, 16 * rhs1, atol=1e-10)
    # non-colinear legs rejected
    bad = ContactVector(p, (0, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(PreconditionError):
        curvature_pairing(p, bad)


def test_stabilizer_membership():
    th = 0.4
    N = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    b2 = np.eye(2)
    M = np.block([[N, np.zeros((2, 2))], [np.zeros((2, 2)), N]])
    assert stabilizer_membership(M, b2)
    N2 = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    M2 = np.block([[N, np.zeros((2, 2))], [np.zeros((2, 2)), N2]])
    assert not stabilizer_membership(M2, b2)
    M3 = np.block([[2 * N, np.zeros((2, 2))], [np.zeros((2, 2)), 2 * N]])
    assert not stabilizer_membership(M3, b2)
    M4 = M.copy()
    M4[0, 2] = 0.1
    assert not stabilizer_membership(M4, b2)
    # split form preserved by a boost
    b2h = np.diag([1.0, -1.0])
    t = 0.3
    Nh = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    Mh = np.block([[Nh, np.zeros((2, 2))], [np.zeros((2, 2)), Nh]])
    assert stabilizer_membership(Mh, b2h)


def test_clifford_isomorphism_carries_structures():
    rng = np.random.default_rng(37)
    for b2 in (np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]]),
               np.diag([1.0, -1.0])):
        for eta in (1, -1):
            phi, sig = clifford_isomorphism(b2, eta, np.array([1.0, 0.3]))
            one, qi, qj, qk = cl_basis(sig)
            for _ in range(30):
                v = rng.standard_normal(4)
                w = rng.standard_normal(4)
                fv = from_coeffs(sig, phi @ v)
                fw = from_coeffs(sig, phi @ w)
                b2f = lambda a, c: float(a @ b2 @ c)
                g_eta = b2f(v[:2], w[:2]) + eta * b2f(v[2:], w[2:])
                om = b2f(v[:2], w[2:]) - b2f(v[2:], w[:2])
                np.testing.assert_allclose(inner_g(fv, fw), g_eta,
                                           atol=1e-12)
                np.testing.assert_allclose(inner_g(fv, mul(qi, fw)), om,
                                           atol=1e-12)
                av = np.concatenate([v[:2], -v[2:]])
                np.testing.assert_allclose((phi @ av), fv.grade().coeffs,
                                           atol=1e-12)
    with pytest.raises(PreconditionError):
        clifford_isomorphism(-np.eye(2), -1, np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_and_vectors_are_rejected(bad):
    with pytest.raises(ValidationError, match="finite"):
        BasePoint(EUCLIDEAN, (bad, 0, 0, 0), (0, 0, 0, 1))
    with pytest.raises(ValidationError, match="finite"):
        BasePoint(LORENTZIAN, (1, 0, 0, 0), (0, 0, 1, bad))
    p = BasePoint(EUCLIDEAN, (1, 0, 0, 0), (0, 0, 0, 1))
    with pytest.raises(ValidationError, match="finite"):
        ContactVector(p, (0, bad, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValidationError, match="finite"):
        ContactVector(p, (0, 1, 0, 0), (0, 0, bad, 0))


def test_base_point_and_contact_validation():
    with pytest.raises(PreconditionError):
        BasePoint(EUCLIDEAN, (1, 0, 0, 0), (1, 0, 0, 0))
    with pytest.raises(PreconditionError):
        BasePoint(LORENTZIAN, (0, 0, 1, 1), (1, 0, 0, 0))
    p = BasePoint(EUCLIDEAN, (1, 0, 0, 0), (0, 0, 0, 1))
    with pytest.raises(ValidationError):
        ContactVector(p, (1, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValidationError):
        AmbientForm4((1, 1, 1, 0), -1)
    with pytest.raises(ValidationError):
        AmbientForm4((1, 1, 1, 1), 2)


@pytest.mark.parametrize("bad", [1.5, 0.5, 0, 2, np.nan, np.inf, "1"])
def test_eta_must_be_exactly_plus_or_minus_one(bad):
    p = BasePoint(EUCLIDEAN, (1, 0, 0, 0), (0, 0, 0, 1))
    X = ContactVector(p, (0, 1, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValidationError, match="eta"):
        frame_at(p, eta=bad)
    with pytest.raises(ValidationError, match="eta"):
        curvature_pairing(p, X, eta=bad)
    with pytest.raises(ValidationError, match="eta"):
        clifford_isomorphism(np.eye(2), bad, [1.0, 0.0])
    assert frame_at(p, eta=1.0).eta == 1 and frame_at(p, eta=np.int64(-1)).eta == -1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clifford_isomorphism_rejects_non_finite_input(bad):
    for b2, v in (([[bad, 0], [0, 1]], [1, 0]), ([[1, bad], [bad, 1]], [1, 0]),
                  (np.eye(2), [bad, 0]), (np.eye(2), [1, bad])):
        with pytest.raises(ValidationError, match="finite"):
            clifford_isomorphism(b2, 1, v)
    with pytest.raises(ValidationError):
        clifford_isomorphism(np.eye(2), 1, [1.0, 0.0, 0.0])


# The np.block, per-leg and per-column forms that the Kronecker table and the
# one-evaluation-per-stencil-time residual replaced, kept as references; the
# rewrites must equal them exactly (np.array_equal: up to the sign of a zero).

def _ref_operator8(fr, name):
    A, eta = fr.A, fr.eta
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


def _ref_gram8(fr, name):
    B = fr.point.form.matrix
    eta = fr.eta
    Z = np.zeros((4, 4))
    if name == "g":
        return np.block([[B, Z], [Z, eta * B]])
    if name == "ghat":
        return np.block([[B, Z], [Z, -eta * B]])
    if name == "omega_i":
        return np.block([[Z, B], [-B, Z]])
    if name == "omega_k":
        return _ref_gram8(fr, "g") @ _ref_operator8(fr, "K")
    raise ValidationError(f"unknown pairing: {name!r}")


def _ref_w_project(p, v):
    v = np.asarray(v, dtype=float).reshape(8)
    b = p.form.b
    x, y = p.xv, p.yv
    out = np.empty(8)
    for half in (0, 1):
        leg = v[4 * half:4 * half + 4]
        leg = leg - (b(leg, x) / b(x, x)) * x - (b(leg, y) / b(y, y)) * y
        out[4 * half:4 * half + 4] = leg
    return ContactVector(p, tuple(out[:4]), tuple(out[4:]))


def _ref_curvature_pairing(p, X, eta=None):
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
    JX = _ref_operator8(fr, "J") @ X8
    KX = _ref_operator8(fr, "K") @ X8
    lhs = 0.0
    for idx in range(4):
        lhs += eps_i[idx] * (B_i(idx, JX, X8) * B_i(idx, X8, KX)
                             - B_i(idx, X8, X8) * B_i(idx, JX, KX))

    norm_p = b(x, x) + eta * b(y, y)
    G = _ref_gram8(fr, "ghat")
    IX = _ref_operator8(fr, "I") @ X8
    ghat_XIX = float(X8 @ G @ ContactVector(p, tuple(IX[:4]), tuple(IX[4:])).vec8)
    ghat_XX = float(X8 @ G @ X8)
    rhs = (-fr.eps * norm_p / (2.0 * b(x, x) * b(y, y))) * ghat_XIX * ghat_XX
    return float(lhs), float(rhs)


def _ref_clifford_isomorphism(b2, eta, v):
    b2 = np.asarray(b2, dtype=float)
    eta = int(eta)
    v = np.asarray(v, dtype=float)
    nv = v @ b2 @ v
    u1 = v / np.sqrt(nv)
    w = np.array([-(b2 @ u1)[1], (b2 @ u1)[0]])
    nw = w @ b2 @ w
    u2 = w / np.sqrt(abs(nw))
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
    return cols, int(np.sign(nw))


def _ref_covariant_constancy_residual(form, path, fields, tensor, t0=0.0, h=1e-3):
    operator = tensor in ("I", "J", "K", "alpha")

    def point_at(t):
        x, y = path(t)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return BasePoint(form, tuple(x), tuple(y))

    p0 = point_at(t0)
    fr0 = frame_at(p0)

    def section8(fn, t):
        cv = fn(t)
        if isinstance(cv, ContactVector):
            return cv.vec8
        return np.asarray(cv, dtype=float).reshape(8)

    def residual_at(step):
        nabla = []
        for fn in fields:
            ds = (section8(fn, t0 + step) - section8(fn, t0 - step)) / (2 * step)
            nabla.append(_ref_w_project(p0, ds).vec8)
        if operator:
            def image(t):
                fr = frame_at(point_at(t))
                return _ref_operator8(fr, tensor) @ section8(fields[0], t)
            dimg = (image(t0 + step) - image(t0 - step)) / (2 * step)
            return _ref_w_project(p0, dimg).vec8 - _ref_operator8(fr0, tensor) @ nabla[0]

        def value(t):
            fr = frame_at(point_at(t))
            s = section8(fields[0], t)
            u = section8(fields[1], t)
            return s @ _ref_gram8(fr, tensor) @ u
        dval = (value(t0 + step) - value(t0 - step)) / (2 * step)
        G0 = _ref_gram8(fr0, tensor)
        s0 = section8(fields[0], t0)
        u0 = section8(fields[1], t0)
        corr = nabla[0] @ G0 @ u0 + s0 @ G0 @ nabla[1]
        return np.atleast_1d(dval - corr)

    r_h = residual_at(h)
    r_h2 = residual_at(h / 2)
    extrapolated = (4.0 * r_h2 - r_h) / 3.0
    residual = float(np.linalg.norm(extrapolated))
    vel = (np.concatenate(path(t0 + h)) - np.concatenate(path(t0 - h))) / (2 * h)
    in_w = np.linalg.norm(vel - _ref_w_project(p0, vel).vec8) <= 1e-6 * max(
        1.0, np.linalg.norm(vel))
    return residual, bool(in_w)


def test_structure_tensors_equal_block_reference():
    rng = np.random.default_rng(40)
    for form in FORMS:
        for eta in (1, -1):
            for _ in range(6):
                fr = frame_at(random_point(rng, form), eta)
                for name in ("I", "J", "K", "alpha"):
                    assert np.array_equal(fr.operator8(name), _ref_operator8(fr, name)), name
                for name in ("g", "ghat", "omega_i", "omega_k"):
                    assert np.array_equal(fr.gram8(name), _ref_gram8(fr, name)), name
    for name in ("g", "omega_k", "shape"):
        with pytest.raises(ValidationError, match="unknown operator"):
            fr.operator8(name)
    for name in ("I", "alpha", "shape"):
        with pytest.raises(ValidationError, match="unknown pairing"):
            fr.gram8(name)


def test_w_project_equals_looped_reference():
    rng = np.random.default_rng(41)
    for form in FORMS:
        for _ in range(20):
            p = random_point(rng, form)
            v = rng.standard_normal(8) * rng.uniform(0.1, 10.0)
            got, want = w_project(p, v.reshape(2, 4)), _ref_w_project(p, v)
            assert np.array_equal(got.vec8, want.vec8)


def test_curvature_pairing_equals_reference():
    rng = np.random.default_rng(42)
    for form in FORMS:
        for eta in (1, -1):
            done = 0
            while done < 15:
                p = random_point(rng, form)
                X = _colinear_contact_vector(rng, p, scale=tuple(rng.standard_normal(2)))
                if X is None:
                    continue
                assert curvature_pairing(p, X, eta=eta) == _ref_curvature_pairing(p, X, eta)
                done += 1


def test_clifford_isomorphism_equals_reference():
    rng = np.random.default_rng(43)
    for _ in range(60):
        b2 = rng.standard_normal((2, 2))
        b2 = b2 + b2.T
        v = rng.standard_normal(2)
        for eta in (1, -1):
            try:
                phi, sig = clifford_isomorphism(b2, eta, v)
            except PreconditionError:
                continue
            want, sigma2 = _ref_clifford_isomorphism(b2, eta, v)
            assert np.array_equal(phi, want)
            assert (sig.s1, sig.s2) == (eta, eta * sigma2)


def _test_paths(rng, form):
    """A path whose velocity lies in W, and one whose velocity leaves it."""
    f, s = _orthonormal_frame(rng, form)
    xpath = _rotation_path(form, f, s, (0, 1))
    ypath = _rotation_path(form, f, s, (2, 3))
    yield lambda t: (xpath(t), ypath(1.3 * t))
    S = np.zeros((4, 4))
    S[0, 1], S[1, 0], S[0, 3], S[3, 0] = 1.0, -1.0, 0.7, -0.7
    Om = np.linalg.inv(form.matrix) @ S
    yield lambda t: (expm(t * Om) @ f[0], expm(t * Om) @ f[3])


def test_covariant_constancy_equals_reference():
    rng = np.random.default_rng(44)
    for form in FORMS:
        for path in _test_paths(rng, form):
            coeffs = rng.standard_normal((2, 8))
            sections = [lambda t, c=c: w_project(BasePoint(form, *map(tuple, path(t))), c)
                        for c in coeffs]
            for tensor in TENSORS:
                fields = sections[:1] if tensor in ("I", "J", "K", "alpha") else sections
                got = covariant_constancy_residual(form, path, fields, tensor, t0=0.2, h=1e-3)
                want = _ref_covariant_constancy_residual(form, path, fields, tensor,
                                                         t0=0.2, h=1e-3)
                assert got == want, tensor


def test_covariant_constancy_evaluates_each_stencil_time_once():
    """The path and every section are called once at each of t0, t0 -+ h, t0 -+ h/2."""
    rng = np.random.default_rng(45)
    form = LORENTZIAN
    path = next(_test_paths(rng, form))
    t0, h = 0.2, 1e-3
    stencil = sorted([t0, t0 - h, t0 + h, t0 - h / 2, t0 + h / 2])
    for tensor in TENSORS:
        calls = {"path": []}

        def counted(name, fn):
            calls[name] = []
            return lambda t: calls[name].append(t) or fn(t)

        traced = counted("path", path)
        fields = [counted(k, lambda t, c=c: w_project(BasePoint(form, *map(tuple, path(t))), c))
                  for k, c in enumerate(rng.standard_normal((2, 8)))]
        if tensor in ("I", "J", "K", "alpha"):
            fields = fields[:1]
            del calls[1]
        covariant_constancy_residual(form, traced, fields, tensor, t0=t0, h=h)
        for name, times in calls.items():
            assert sorted(times) == stencil, (tensor, name, times)


def test_b_equals_numpy_sum_bit_for_bit():
    """b is an index-order float sum; np.sum takes the same order on four terms."""
    rng = np.random.default_rng(46)
    for form in FORMS:
        sigma = np.array(form.sigma)
        for _ in range(500):
            u = rng.standard_normal(4) * 10.0 ** rng.integers(-8, 9, 4)
            v = rng.standard_normal(4) * 10.0 ** rng.integers(-8, 9, 4)
            want = float(np.sum(sigma * u * v))
            for a, c in ((u, v), (tuple(u), tuple(v)), (u.tolist(), list(v)),
                         (tuple(u.tolist()), v)):
                got = form.b(a, c)
                assert type(got) is float and got == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_covariant_constancy_rejects_non_finite_t0(bad):
    """A non-finite t0 is refused, also on a path and sections that ignore t."""
    x0 = np.array([1, 0, 0, 0.0])
    y0 = np.array([0, 0, 0, 1.0])
    sec = lambda t: w_project(BasePoint(EUCLIDEAN, x0, y0), np.ones(8))
    for path in (lambda t: (x0, y0), lambda t: (np.cos(t) * x0 + np.sin(t) * y0,
                                                np.cos(t) * y0 - np.sin(t) * x0)):
        with pytest.raises(ValidationError, match="t0 must be finite"):
            covariant_constancy_residual(EUCLIDEAN, path, (sec, sec), "g", t0=bad)


@pytest.mark.parametrize("h", ["x", None])
def test_covariant_constancy_refuses_a_non_number_step(h):
    # the range test raised a builtin TypeError
    x0 = np.array([1, 0, 0, 0.0])
    y0 = np.array([0, 0, 0, 1.0])
    sec = lambda t: w_project(BasePoint(EUCLIDEAN, x0, y0), np.ones(8))
    with pytest.raises(ValidationError, match="h must be a number"):
        covariant_constancy_residual(EUCLIDEAN, lambda t: (x0, y0), (sec, sec), "g", h=h)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stabilizer_membership_rejects_non_finite_input(bad):
    M = np.eye(4)
    M[0, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        stabilizer_membership(M, np.eye(2))
    b2 = np.eye(2)
    b2[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        stabilizer_membership(np.eye(4), b2)
