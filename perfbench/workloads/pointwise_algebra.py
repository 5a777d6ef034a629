"""pointwise_algebra: scalar Clifford and contact-bundle algebra.

One op is a bundle of 46 items, each one random plane or base point, across
all signatures; bundling puts an op's time next to the lift ops it is
measured with.  An item is one of
- an m_x-invariant plane through `clifford.classify_plane`,
  `principal_vectors` and `bilagrangian_test`;
- a plane that is not invariant: `bilagrangian_test` must say so and
  `classify_plane` must refuse it;
- a base point through `contact.frame_at` and `curvature_pairing`;
- a path of base points through `contact.covariant_constancy_residual`.
The work is Python scalars and 8 x 8 `np.block` matrices, bound by call
overhead: the opposite regime to grid_verify.
"""

import numpy as np
from bileg import clifford, contact
from bileg.errors import PreconditionError

from reference import clifford_tables, left_matrix, require
from workloads import Op, Workload, chain, seeded_rng, shuffled

SIGNATURES = ((1, 1), (1, -1), (-1, -1))
FORMS = ((1, 1, 1, 1), (1, 1, 1, -1))
TENSORS = ("g", "ghat", "omega_i", "omega_k", "I", "J", "K", "alpha")
# ops of one pass, by kind; the median falls well inside the invariant
# planes and the 90th percentile inside the base points, not on a boundary
MIX = {"plane.invariant": 360, "plane.generic": 48, "point": 120, "path": 24}
TINY_MIX = {"plane.invariant": 3, "plane.generic": 3, "point": 4, "path": 2}
BUNDLES = 12                # ops per pass, each a bundle of 552 / 12 = 46 items


def _unit_odd(rng, s1, s2):
    """An odd unit imaginary x = b i + c j with |g(x, x)| = 1, kept off the null cone."""
    while True:
        b, c = rng.standard_normal(2)
        n2 = s1 * b * b + s2 * c * c
        if abs(n2) > 0.2 * (b * b + c * c):
            r = np.sqrt(abs(n2))
            return np.array([0.0, b / r, c / r, 0.0])


def _orthogonal_axes(rng, C, g, x):
    """Unit imaginaries (y1, y2) completing x to a g-orthogonal triple."""
    gxx = x @ g @ x
    while True:
        y = np.concatenate([[0.0], rng.standard_normal(3)])
        y = y - (y @ g @ x) / gxx * x
        n2 = y @ g @ y
        if abs(n2) < 0.1 * (y @ y):
            continue
        y1 = y / np.sqrt(abs(n2))
        y2 = left_matrix(C, x) @ y1
        n2 = y2 @ g @ y2
        if abs(n2) > 1e-6:
            return y1, y2 / np.sqrt(abs(n2))


def _plane_op(rng, sig, invariant):
    s1, s2 = sig
    C, g, ghat = clifford_tables(s1, s2)
    x = _unit_odd(rng, s1, s2)
    Mx = left_matrix(C, x)
    while True:
        u = rng.standard_normal(4)
        v = Mx @ u if invariant else rng.standard_normal(4)
        S, _ = np.linalg.qr(np.column_stack([u, v]))
        sv = np.linalg.svd(np.column_stack([u, v]), compute_uv=False)
        if sv[1] < 1e-2 * sv[0]:
            continue
        gram = S.T @ ghat @ S
        H = S.T @ ghat @ Mx @ S
        lam = np.linalg.eigvalsh(0.5 * (H + H.T))
        # regular planes with a well-conditioned principal quadratic only
        if invariant and (abs(np.linalg.det(gram)) < 1e-3
                          or np.abs(lam).min() < 1e-3 * max(np.abs(lam).max(), 1.0)):
            continue
        break
    y1, y2 = _orthogonal_axes(rng, C, g, x)
    S2 = clifford.Signature2(s1, s2)
    P = clifford.PlaneSpan(clifford.from_coeffs(S2, u), clifford.from_coeffs(S2, v))
    X, Y1, Y2 = (clifford.from_coeffs(S2, c) for c in (x, y1, y2))
    basis = np.column_stack([u, v])

    def in_plane(w):
        coef, *_ = np.linalg.lstsq(basis, w, rcond=None)
        return np.linalg.norm(basis @ coef - w) <= 1e-8 * max(1.0, np.linalg.norm(w))

    if invariant:
        def run():
            kind = clifford.classify_plane(P, X)
            return kind, clifford.principal_vectors(P, X), clifford.bilagrangian_test(P, Y1, Y2)

        def check(out):
            kind, vectors, bilagrangian = out
            require(kind == "Regular", f"regular plane classified {kind}")
            require(bilagrangian is True, "invariant plane fails the double-lagrangian test")
            require(len(vectors) == 4, "expected four principal vectors")
            for vec, flag in vectors:
                w = vec.coeffs if flag == "real" else vec[0].coeffs + 1j * vec[1].coeffs
                require(in_plane(w.real) and in_plane(np.imag(w)), "principal vector leaves P")
                h = w @ ghat @ (Mx @ w)
                n2 = w @ ghat @ w
                require(abs(h) < 1e-8, f"principal vector not h-null: {abs(h):.2e}")
                require(abs(abs(n2) - 1.0) < 1e-8, f"principal vector not ghat-unit: {n2}")
    else:
        def run():
            bilagrangian = clifford.bilagrangian_test(P, Y1, Y2)
            try:
                clifford.classify_plane(P, X)
            except PreconditionError:
                return bilagrangian, True
            return bilagrangian, False

        def check(out):
            bilagrangian, refused = out
            require(bilagrangian is False, "generic plane passes the double-lagrangian test")
            require(refused, "classify_plane accepted a plane that is not invariant")

    return Op("plane.invariant" if invariant else "plane.generic", run, check)


def _base_point(rng, sigma):
    """(x, y) b-orthogonal and non-null, with b non-degenerate on <x, y>-perp."""
    B = np.diag(np.asarray(sigma, dtype=float))
    while True:
        x = rng.standard_normal(4)
        nx = x @ B @ x
        if abs(nx) < 0.1 * (x @ x):
            continue
        x = x / np.sqrt(abs(nx))
        y = rng.standard_normal(4)
        y = y - (y @ B @ x) / (x @ B @ x) * x
        ny = y @ B @ y
        if abs(ny) < 0.1 * (y @ y):
            continue
        y = y / np.sqrt(abs(ny))
        _, _, vt = np.linalg.svd(np.vstack([x @ B, y @ B]))
        V = vt[2:].T
        w = np.linalg.eigvalsh(V.T @ B @ V)
        if np.abs(w).min() > 0.05 * max(np.abs(w).max(), 1.0):
            return B, x, y, V


def _point_op(rng, sigma, eta):
    B, x, y, V = _base_point(rng, sigma)
    form = contact.AmbientForm4(sigma, eta)
    p = contact.BasePoint(form, tuple(x), tuple(y))
    # contact vectors: both legs in <x, y>-perp; the pairing needs colinear legs
    legs = [V @ rng.standard_normal(2) for _ in range(4)]
    vectors = [np.concatenate([legs[0], legs[1]]), np.concatenate([legs[2], legs[3]])]
    leg = V @ rng.standard_normal(2)
    scale = rng.standard_normal(2)
    X = contact.ContactVector(p, tuple(scale[0] * leg), tuple(scale[1] * leg))

    def run():
        frame = contact.frame_at(p, eta)
        return frame, contact.curvature_pairing(p, X, eta=eta)

    def check(out):
        frame, (lhs, rhs) = out
        e = frame.eps
        I8, J8, K8 = (frame.operator8(n) for n in "IJK")
        for v in vectors:
            size = max(1.0, np.abs(v).max())
            relations = [
                (I8 @ (I8 @ v), -eta * v), (J8 @ (J8 @ v), -eta * e * v),
                (K8 @ (K8 @ v), -e * v), (I8 @ (J8 @ v), K8 @ v),
                (J8 @ (K8 @ v), eta * e * (I8 @ v)), (K8 @ (I8 @ v), eta * (J8 @ v)),
                (I8 @ (J8 @ v), -(J8 @ (I8 @ v))),
            ]
            for got, want in relations:
                require(np.abs(got - want).max() < 1e-10 * size, "structure relation fails")
        require(abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)),
                f"curvature pairing {lhs!r} against closed form {rhs!r}")

    return Op("point", run, check)


def _path_op(rng, sigma, tensor):
    """A path x(t), y(t) in two b-orthonormal planes, so its velocity lies in W."""
    form = contact.AmbientForm4(sigma, -1)
    B = form.matrix
    while True:
        vecs, signs = [], []
        while len(vecs) < 4:
            v = rng.standard_normal(4)
            for u, su in zip(vecs, signs):
                v = v - su * (v @ B @ u) * u
            n = v @ B @ v
            if abs(n) < 1e-2:
                continue
            vecs.append(v / np.sqrt(abs(n)))
            signs.append(int(np.sign(n)))
        order = np.argsort([-s for s in signs], kind="stable")
        f = [vecs[i] for i in order]
        s = [signs[i] for i in order]
        if np.abs(np.linalg.det(np.column_stack(f))) > 0.05:
            break

    def span(i0, i1):
        if s[i0] == s[i1]:
            return lambda t: np.cos(t) * f[i0] + np.sin(t) * f[i1]
        return lambda t: np.cosh(t) * f[i0] + np.sinh(t) * f[i1]

    rate = float(rng.uniform(0.7, 1.6))
    xpath, ypath = span(0, 1), span(2, 3)

    def path(t):
        return xpath(t), ypath(rate * t)

    def section(coeffs):
        def field(t):
            return contact.w_project(contact.BasePoint(form, tuple(xpath(t)),
                                                       tuple(ypath(rate * t))), coeffs)
        return field

    fields = (section(rng.standard_normal(8)),)
    if tensor not in ("I", "J", "K", "alpha"):
        fields += (section(rng.standard_normal(8)),)
    t0 = float(rng.uniform(0.1, 0.4))

    def run():
        return contact.covariant_constancy_residual(form, path, fields, tensor, t0=t0, h=1e-3)

    def check(out):
        residual, in_w = out
        require(in_w, "path velocity left W")
        require(residual < 1e-8, f"{tensor} not covariantly constant: {residual:.2e}")

    return Op(f"path.{tensor}", run, check)


def build(seed, tiny=False, workdir=None):
    rng = seeded_rng(seed, "pointwise_algebra")
    mix = TINY_MIX if tiny else MIX
    items = []
    for i in range(mix["plane.invariant"]):
        items.append(_plane_op(rng, SIGNATURES[i % 3], True))
    for i in range(mix["plane.generic"]):
        items.append(_plane_op(rng, SIGNATURES[i % 3], False))
    for i in range(mix["point"]):
        items.append(_point_op(rng, FORMS[i % 2], (-1, 1)[(i // 2) % 2]))
    for i in range(mix["path"]):
        items.append(_path_op(rng, FORMS[i % 2], TENSORS[i % len(TENSORS)]))
    items = shuffled(rng, items)
    bundles = 2 if tiny else BUNDLES
    warmup = _point_op(rng, FORMS[0], -1)
    return Workload("pointwise_algebra",
                    [chain("algebra.bundle", items[i::bundles]) for i in range(bundles)],
                    warmup)
