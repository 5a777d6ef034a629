"""Clifford layer: product oracle, involutions, invariant-plane classification."""

import numpy as np
import pytest

from bileg.clifford import (
    COMPLEX_ONLY,
    EXCEPTIONAL_GRAPH,
    EXCEPTIONAL_NULL_EIGENVECTOR,
    EXCEPTIONAL_NULL_SUM,
    REGULAR,
    CliffordElement,
    PlaneSpan,
    PseudoInvolutionMatrix,
    Signature2,
    apply_involution,
    basis,
    bilagrangian_test,
    classify_plane,
    effective_pair_check,
    eigen_split,
    eigenspaces_of_mx,
    element,
    from_coeffs,
    g_matrix,
    ghat_matrix,
    inner_g,
    inner_ghat,
    invariant_plane_test,
    mul,
    mx_matrix,
    omega_axis,
    principal_line,
    principal_vectors,
)
from bileg.errors import PreconditionError, ValidationError

SIGS = [Signature2(1, 1), Signature2(1, -1), Signature2(-1, -1)]


# ---------------------------------------------------------------------------
# independent multiplication oracle: normal-order words over two generators
# with e_a e_a -> -s_a and e2 e1 -> -e1 e2

_BASIS_WORDS = [(), (1,), (2,), (1, 2)]
_SLOT = {(): 0, (1,): 1, (2,): 2, (1, 2): 3}


def _reduce_word(word, s1, s2):
    coeff = 1
    w = list(word)
    changed = True
    while changed:
        changed = False
        for idx in range(len(w) - 1):
            a, b = w[idx], w[idx + 1]
            if a == b:
                coeff *= -s1 if a == 1 else -s2
                del w[idx:idx + 2]
                changed = True
                break
            if a == 2 and b == 1:
                w[idx], w[idx + 1] = 1, 2
                coeff = -coeff
                changed = True
                break
    return coeff, tuple(w)


def mul_oracle(xc, yc, sig):
    out = [0.0, 0.0, 0.0, 0.0]
    for bi, wi in enumerate(_BASIS_WORDS):
        for bj, wj in enumerate(_BASIS_WORDS):
            sign, normal = _reduce_word(wi + wj, sig.s1, sig.s2)
            out[_SLOT[normal]] += sign * xc[bi] * yc[bj]
    return np.array(out)


def rand_elem(rng, sig, lo=-3, hi=4, integer=False):
    if integer:
        co = rng.integers(lo, hi, size=4).astype(float)
    else:
        co = rng.standard_normal(4)
    return from_coeffs(sig, co)


def test_mul_matches_word_oracle_exactly_on_integers():
    rng = np.random.default_rng(11)
    for sig in SIGS:
        for _ in range(60):
            x = rand_elem(rng, sig, integer=True)
            y = rand_elem(rng, sig, integer=True)
            got = mul(x, y).coeffs
            want = mul_oracle(x.coeffs, y.coeffs, sig)
            assert np.array_equal(got, want)


def test_mul_matches_word_oracle_on_floats():
    rng = np.random.default_rng(12)
    for sig in SIGS:
        for _ in range(60):
            x = rand_elem(rng, sig)
            y = rand_elem(rng, sig)
            np.testing.assert_allclose(
                mul(x, y).coeffs, mul_oracle(x.coeffs, y.coeffs, sig),
                rtol=0, atol=1e-12)


def test_quaternion_product_samples():
    sig = Signature2(1, 1)
    one, i, j, k = basis(sig)
    assert mul(one + i, one + j).coeffs.tolist() == [1, 1, 1, 1]
    assert mul(mul(i, j), k).coeffs.tolist() == [-1, 0, 0, 0]
    assert mul(j, i).coeffs.tolist() == [0, 0, 0, -1]
    # split case: j squares to +1
    sp = Signature2(1, -1)
    assert mul(basis(sp)[2], basis(sp)[2]).coeffs.tolist() == [1, 0, 0, 0]


def test_multiplication_table_all_signatures():
    for sig in SIGS:
        one, i, j, k = basis(sig)
        s1, s2 = sig.s1, sig.s2
        table = {
            (1, 1): (-s1, 0), (2, 2): (-s2, 0), (3, 3): (-s1 * s2, 0),
            (1, 2): (1, 3), (2, 1): (-1, 3),
            (2, 3): (s2, 1), (3, 2): (-s2, 1),
            (3, 1): (s1, 2), (1, 3): (-s1, 2),
        }
        els = [one, i, j, k]
        for (a, b), (coef, slot) in table.items():
            got = mul(els[a], els[b]).coeffs
            want = np.zeros(4)
            want[slot] = coef
            assert np.array_equal(got, want), (sig, a, b)


def test_associativity_integer_exact_and_float():
    rng = np.random.default_rng(13)
    for sig in SIGS:
        for _ in range(350):
            x = rand_elem(rng, sig, integer=True)
            y = rand_elem(rng, sig, integer=True)
            z = rand_elem(rng, sig, integer=True)
            left = mul(mul(x, y), z).coeffs
            right = mul(x, mul(y, z)).coeffs
            assert np.array_equal(left, right)
        for _ in range(350):
            x, y, z = (rand_elem(rng, sig) for _ in range(3))
            np.testing.assert_allclose(
                mul(mul(x, y), z).coeffs, mul(x, mul(y, z)).coeffs,
                rtol=0, atol=1e-12)


def test_involutions():
    rng = np.random.default_rng(14)
    for sig in SIGS:
        for _ in range(40):
            x = rand_elem(rng, sig)
            y = rand_elem(rng, sig)
            for kind in ("grade", "reversion", "conjugation"):
                twice = apply_involution(apply_involution(x, kind), kind)
                assert np.array_equal(twice.coeffs, x.coeffs)
            # grade is an automorphism, the other two reverse products
            np.testing.assert_allclose(
                mul(x, y).grade().coeffs, mul(x.grade(), y.grade()).coeffs,
                atol=1e-12)
            np.testing.assert_allclose(
                mul(x, y).reversion().coeffs,
                mul(y.reversion(), x.reversion()).coeffs, atol=1e-12)
            np.testing.assert_allclose(
                mul(x, y).conjugation().coeffs,
                mul(y.conjugation(), x.conjugation()).coeffs, atol=1e-12)
            assert np.array_equal(x.grade().reversion().coeffs,
                                  x.conjugation().coeffs)
    with pytest.raises(ValidationError):
        apply_involution(element(SIGS[0], 1, 0, 0, 0), "transpose")


def test_inner_products():
    sig = Signature2(1, 1)
    one, i, j, k = basis(sig)
    assert inner_g(one + 2 * i, one + 2 * i) == 5
    assert inner_ghat(i, i) == -1
    assert inner_ghat(k, k) == 1
    rng = np.random.default_rng(15)
    for sig in SIGS:
        G = g_matrix(sig)
        Gh = ghat_matrix(sig)
        for _ in range(30):
            x = rand_elem(rng, sig)
            y = rand_elem(rng, sig)
            np.testing.assert_allclose(inner_g(x, y), x.coeffs @ G @ y.coeffs,
                                       atol=1e-12)
            # the closed form is the product's real part, bit for bit
            assert inner_g(x, y) == mul(x, y.conjugation()).a
            np.testing.assert_allclose(inner_ghat(x, y),
                                       x.coeffs @ Gh @ y.coeffs, atol=1e-12)
            # trace property: R(xy) = R(yx)
            np.testing.assert_allclose(mul(x, y).a, mul(y, x).a, atol=1e-12)
            assert abs(x.norm_sq - inner_g(x, x)) < 1e-12


def _unit_imaginary(rng, sig, sign=None, odd=False):
    G = np.diag([sig.s1, sig.s2, sig.s1 * sig.s2])
    while True:
        v = rng.standard_normal(3)
        if odd:
            v[2] = 0.0
        n2 = v @ G @ v
        if abs(n2) < 1e-2:
            continue
        if sign is not None and np.sign(n2) != sign:
            continue
        v = v / np.sqrt(abs(n2))
        return from_coeffs(sig, [0.0, *v])


def test_mx_symmetries_and_isometries():
    """Odd x: m_x is g-antisymmetric and ghat-symmetric; norms scale."""
    rng = np.random.default_rng(16)
    for sig in SIGS:
        G = g_matrix(sig)
        Gh = ghat_matrix(sig)
        for _ in range(40):
            co = rng.standard_normal(2)
            x = from_coeffs(sig, [0.0, co[0], co[1], 0.0])
            M = mx_matrix(x)
            # column k is the product x * e_k
            assert np.array_equal(M, np.column_stack([mul(x, e).coeffs for e in basis(sig)]))
            np.testing.assert_allclose(G @ M + M.T @ G, np.zeros((4, 4)),
                                       atol=1e-12)
            np.testing.assert_allclose(Gh @ M - M.T @ Gh, np.zeros((4, 4)),
                                       atol=1e-12)
            n2 = inner_g(x, x)
            np.testing.assert_allclose(M.T @ G @ M, n2 * G, atol=1e-11)
            np.testing.assert_allclose(M.T @ Gh @ M, -n2 * Gh, atol=1e-11)
        # the g-isometry law holds for every x, odd or not
        for _ in range(40):
            x = rand_elem(rng, sig)
            M = mx_matrix(x)
            np.testing.assert_allclose(M.T @ G @ M, inner_g(x, x) * G,
                                       atol=1e-10)


def test_omega_axis_antisymmetric():
    rng = np.random.default_rng(17)
    for sig in SIGS:
        for _ in range(25):
            w = _unit_imaginary(rng, sig)
            y = rand_elem(rng, sig)
            z = rand_elem(rng, sig)
            np.testing.assert_allclose(omega_axis(w, y, z),
                                       -omega_axis(w, z, y), atol=1e-10)
    with pytest.raises(PreconditionError):
        omega_axis(element(SIGS[0], 1, 1, 0, 0), basis(SIGS[0])[0],
                   basis(SIGS[0])[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_axes_are_rejected(bad):
    # NaN compares false with every tolerance, so each validator must ask for
    # finite coefficients before it measures anything
    sig = Signature2(1, 1)
    one, i, j, _ = basis(sig)
    P = PlaneSpan(one, i)
    y = element(sig, 0, bad, 0, 0)
    with pytest.raises(ValidationError, match="finite"):
        omega_axis(y, one, i)
    with pytest.raises(ValidationError, match="finite"):
        invariant_plane_test(P, y)
    with pytest.raises(ValidationError, match="finite"):
        bilagrangian_test(P, y, j)
    with pytest.raises(ValidationError, match="finite"):
        bilagrangian_test(P, j, y)
    with pytest.raises(ValidationError, match="finite"):
        classify_plane(P, element(sig, 0, 1, bad, 0))


def test_eigenspaces_example_and_properties():
    # in (+,-) the axis j is a negative unit and E+ = <1 + j, i - k>
    sig = Signature2(1, -1)
    one, i, j, k = basis(sig)
    ep, em = eigenspaces_of_mx(j)
    want = np.column_stack([(one + j).coeffs, (i - k).coeffs])
    stacked = np.hstack([ep.matrix(), want / np.linalg.norm(want)])
    assert np.linalg.matrix_rank(stacked, tol=1e-9) == 2

    rng = np.random.default_rng(18)
    for sig in [Signature2(1, -1), Signature2(-1, -1)]:
        G = g_matrix(sig)
        Gh = ghat_matrix(sig)
        for _ in range(40):
            x = _unit_imaginary(rng, sig, sign=-1, odd=True)
            M = mx_matrix(x)
            ep, em = eigenspaces_of_mx(x)
            for pl, lam in ((ep, 1.0), (em, -1.0)):
                S = pl.matrix()
                np.testing.assert_allclose(M @ S, lam * S, atol=1e-9)
                # eigenplanes are g-null
                np.testing.assert_allclose(S.T @ G @ S, np.zeros((2, 2)),
                                           atol=1e-9)
            # and ghat-orthogonal to each other
            np.testing.assert_allclose(
                ep.matrix().T @ Gh @ em.matrix(), np.zeros((2, 2)), atol=1e-9)
            # projection to the even part doubles ghat into g
            for pl in (ep, em):
                S = pl.matrix()
                Pev = np.diag([1.0, 0.0, 0.0, 1.0])
                lhs = S.T @ Gh @ S
                rhs = 2.0 * (Pev @ S).T @ G @ (Pev @ S)
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_eigenspaces_need_negative_axis():
    sig = Signature2(1, 1)
    with pytest.raises(PreconditionError):
        eigenspaces_of_mx(basis(sig)[1])


def _orthogonal_axes(rng, sig, x):
    """Unit imaginaries (y1, y2) with x, y1, y2 mutually g-orthogonal."""
    for _ in range(100):
        y1 = _unit_imaginary(rng, sig)
        y1 = y1 - inner_g(y1, x) * (1.0 / inner_g(x, x)) * x
        n2 = inner_g(y1, y1)
        if abs(n2) < 1e-3:
            continue
        y1 = (1.0 / np.sqrt(abs(n2))) * y1
        y2 = mul(x, y1)
        n2 = inner_g(y2, y2)
        y2 = (1.0 / np.sqrt(abs(n2))) * y2
        assert abs(inner_g(x, y1)) < 1e-9
        assert abs(inner_g(x, y2)) < 1e-9
        assert abs(inner_g(y1, y2)) < 1e-9
        return y1, y2
    raise AssertionError("no orthogonal axis found")


def test_invariant_plane_equivalence_bulk():
    """m_x-invariance of a plane is equivalent to being bilagrangian for the
    two complementary axes.  Sampled over random and constructed planes."""
    rng = np.random.default_rng(19)
    per_sig = 10_000
    for sig in SIGS:
        hits = 0
        for trial in range(per_sig):
            x = _unit_imaginary(rng, sig)
            y1, y2 = _orthogonal_axes(rng, sig, x)
            if trial % 2 == 0:
                u = rand_elem(rng, sig)
                v = rand_elem(rng, sig)
            else:
                u = rand_elem(rng, sig)
                v = mul(x, u)
            m = np.column_stack([u.coeffs, v.coeffs])
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[1] < 1e-3 * sv[0]:
                continue
            P = PlaneSpan(u, v)
            inv = invariant_plane_test(P, x)
            bil = bilagrangian_test(P, y1, y2)
            assert inv == bil, (sig, trial)
            hits += inv
        # constructed planes guarantee both branches are exercised
        assert hits > per_sig // 4


def test_eigenplanes_are_excluded_from_both_tests():
    rng = np.random.default_rng(20)
    for sig in [Signature2(1, -1), Signature2(-1, -1)]:
        for _ in range(20):
            x = _unit_imaginary(rng, sig, sign=-1)
            y1, y2 = _orthogonal_axes(rng, sig, x)
            for pl in eigenspaces_of_mx(x):
                assert not invariant_plane_test(pl, x)
                assert not bilagrangian_test(pl, y1, y2)


def test_classify_regular_and_principal_vectors_quaternion():
    sig = Signature2(1, 1)
    one, i, j, k = basis(sig)
    P = PlaneSpan(one, i)
    assert classify_plane(P, i) == REGULAR
    vecs = principal_vectors(P, i)
    assert len(vecs) == 4
    assert all(flag == "real" for _, flag in vecs)
    coeff_set = {tuple(np.abs(np.round(v.coeffs, 9))) for v, _ in vecs}
    assert coeff_set == {(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)}
    signs = {tuple(np.round(v.coeffs, 9)) for v, _ in vecs}
    assert len(signs) == 4


def test_classify_exceptional_graph():
    sig = Signature2(1, 1)
    one, i, j, k = basis(sig)
    P = PlaneSpan(one - j, k - i)
    assert classify_plane(P, i) == EXCEPTIONAL_GRAPH


def test_orthogonal_imaginaries_anticommute():
    rng = np.random.default_rng(23)
    for sig in SIGS:
        for _ in range(40):
            x = _unit_imaginary(rng, sig)
            y1, _ = _orthogonal_axes(rng, sig, x)
            anti = mul(x, y1) + mul(y1, x)
            np.testing.assert_allclose(anti.coeffs, np.zeros(4), atol=1e-10)


def test_null_sum_never_occurs_in_definite_signature():
    rng = np.random.default_rng(24)
    sig = Signature2(1, 1)
    seen = set()
    for _ in range(400):
        x = _unit_imaginary(rng, sig, odd=True)
        u = rand_elem(rng, sig)
        v = mul(x, u)
        m = np.column_stack([u.coeffs, v.coeffs])
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[1] < 1e-3 * sv[0]:
            continue
        label = classify_plane(PlaneSpan(u, v), x)
        assert label != EXCEPTIONAL_NULL_SUM
        seen.add(label)
    assert REGULAR in seen


def test_classify_exceptional_null_sum():
    sig = Signature2(1, -1)
    one, i, j, k = basis(sig)
    P = PlaneSpan(one + k, i - j)
    assert classify_plane(P, i) == EXCEPTIONAL_NULL_SUM


def test_classify_exceptional_null_eigenvector():
    sig = Signature2(1, -1)
    one, i, j, k = basis(sig)
    # one ghat-null eigenvector from E+, a non-null one from E-
    u = one - i + j + k
    v = one - j
    P = PlaneSpan(u, v)
    assert classify_plane(P, j) == EXCEPTIONAL_NULL_EIGENVECTOR


def test_classify_rejects_non_invariant():
    sig = Signature2(1, 1)
    one, i, j, k = basis(sig)
    with pytest.raises(PreconditionError):
        classify_plane(PlaneSpan(one, j + 0.3 * k), i)


def test_principal_vectors_and_line_negative_axis():
    sig = Signature2(1, -1)
    one, i, j, k = basis(sig)
    P = PlaneSpan(one, j)
    assert classify_plane(P, j) == REGULAR
    vecs = principal_vectors(P, j)
    assert all(flag == "real" for _, flag in vecs)
    coeff_set = {tuple(np.abs(np.round(v.coeffs, 9))) for v, _ in vecs}
    assert coeff_set == {(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)}
    for v, _ in vecs:
        assert abs(abs(inner_ghat(v, v)) - 1.0) < 1e-9
        assert abs(inner_ghat(v, mul(j, v))) < 1e-9
    # lines: an even principal vector spans its own line
    line_one = principal_line(P, j, one)
    assert np.allclose(np.abs(line_one.coeffs), [1, 0, 0, 0], atol=1e-9)
    line_j = principal_line(P, j, j)
    assert np.allclose(np.abs(line_j.coeffs), [0, 0, 0, 1], atol=1e-9)


def test_principal_vectors_complex_branch():
    sig = Signature2(1, -1)
    one, i, j, k = basis(sig)
    P = PlaneSpan(one + j, i + k)
    assert classify_plane(P, j) == REGULAR
    vecs = principal_vectors(P, j)
    assert all(flag == "complex" for _, flag in vecs)
    Gh = ghat_matrix(sig)
    for (re, im), _ in vecs:
        w = re.coeffs + 1j * im.coeffs
        n2 = w @ Gh @ w
        np.testing.assert_allclose(n2, 1.0 + 0j, atol=1e-9)
        h = w @ Gh @ (mx_matrix(j) @ w)
        assert abs(h) < 1e-9


def test_principal_identity_even_odd_split():
    """ghat(v, x v) = 2 g(even v, x odd v) for every v and odd axis x."""
    rng = np.random.default_rng(21)
    for sig in SIGS:
        for _ in range(50):
            co = rng.standard_normal(2)
            x = from_coeffs(sig, [0.0, co[0], co[1], 0.0])
            v = rand_elem(rng, sig)
            lhs = inner_ghat(v, mul(x, v))
            rhs = 2.0 * inner_g(v.even_part(), mul(x, v.odd_part()))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_eigen_split_involution_and_complex_cases():
    sig = Signature2(1, -1)
    one, i, j, k = basis(sig)
    Mj = PseudoInvolutionMatrix.from_matrix(mx_matrix(j))
    assert Mj.sign == -1
    ep, em, balanced = eigen_split(Mj)
    assert balanced and ep.shape[1] == 2 and em.shape[1] == 2
    np.testing.assert_allclose(mx_matrix(j) @ ep, ep, atol=1e-9)
    np.testing.assert_allclose(mx_matrix(j) @ em, -em, atol=1e-9)

    Mi = PseudoInvolutionMatrix.from_matrix(mx_matrix(i))
    assert Mi.sign == 1
    assert eigen_split(Mi) == COMPLEX_ONLY

    unbal = PseudoInvolutionMatrix.from_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))
    ep, em, balanced = eigen_split(unbal)
    assert not balanced and ep.shape[1] == 3 and em.shape[1] == 1

    with pytest.raises(ValidationError):
        PseudoInvolutionMatrix.from_matrix(np.diag([2.0, 1.0, 1.0, 1.0]))


def test_effective_pair_check():
    rng = np.random.default_rng(22)
    sig = Signature2(1, 1)
    one, i, j, k = basis(sig)
    coeff, rhs, eff = effective_pair_check(j, j)
    assert abs(coeff - 2.0) < 1e-12 and abs(rhs - 2.0) < 1e-12 and not eff
    coeff, rhs, eff = effective_pair_check(i, j)
    assert abs(coeff) < 1e-12 and eff
    for sig in SIGS:
        for _ in range(40):
            x = _unit_imaginary(rng, sig)
            xp = _unit_imaginary(rng, sig)
            coeff, rhs, eff = effective_pair_check(x, xp)
            np.testing.assert_allclose(coeff, rhs, atol=1e-10)
            assert eff == (abs(inner_g(x, xp)) <= 1e-9)


def test_signature_sign_rule_and_from_form():
    assert Signature2(1, 1).sign == 1
    assert Signature2(1, -1).sign == -1
    assert Signature2(-1, -1).sign == 1
    assert Signature2.from_form([[0, 1], [1, 0]]) == Signature2(1, -1)
    assert Signature2.from_form([[2, 0], [0, 3]]) == Signature2(1, 1)
    assert Signature2.from_form([[-1, 0], [0, -2]]) == Signature2(-1, -1)
    with pytest.raises(ValidationError):
        Signature2.from_form([[1, 0], [0, 0]])
    with pytest.raises(ValidationError):
        Signature2(1, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_form_rejects_non_finite_forms(bad):
    for b2 in ([[bad, 0], [0, 1]], [[1, 0], [0, bad]], [[1, bad], [bad, 1]]):
        with pytest.raises(ValidationError, match="finite"):
            Signature2.from_form(b2)


def test_signature_mismatch_rejected():
    x = element(Signature2(1, 1), 1, 0, 0, 0)
    y = element(Signature2(1, -1), 1, 0, 0, 0)
    with pytest.raises(ValidationError):
        mul(x, y)


def test_plane_span_rejects_degenerate():
    sig = Signature2(1, 1)
    one = basis(sig)[0]
    with pytest.raises(ValidationError):
        PlaneSpan(one, 2.0 * one)


# thresholds: each is probed a factor of 10 on either side ----------------


def _unit_size(*columns):
    S = np.column_stack(columns)
    return S / np.linalg.norm(S)


@pytest.mark.parametrize("shape", ["orthogonal", "near_parallel"])
def test_span_threshold(shape):
    """PlaneSpan refuses a span whose singular-value ratio is at most 1e-12."""
    sig = Signature2(1, 1)
    one, i, _, _ = basis(sig)
    for ratio, accepted in ((1e-11, True), (1e-13, False)):
        # sv ratio of [1, d i] is d; of [1, 1 + d i] it is d / 2 to first order
        d = ratio if shape == "orthogonal" else 2 * ratio
        v = d * i if shape == "orthogonal" else one + d * i
        sv = np.linalg.svd(_unit_size(one.coeffs, v.coeffs), compute_uv=False)
        assert sv[1] / sv[0] == pytest.approx(ratio, rel=1e-3)
        if accepted:
            PlaneSpan(one, v)
        else:
            with pytest.raises(ValidationError, match="degenerate"):
                PlaneSpan(one, v)


def test_invariance_threshold():
    """m_x keeps P when |m_x Q - Q Q^T m_x Q| <= 1e-9 |m_x Q| for an orthonormal frame Q."""
    sig = Signature2(1, 1)
    one, i, j, _ = basis(sig)
    M = mx_matrix(i)

    def defect(d):
        Q, _ = np.linalg.qr(_unit_size(one.coeffs, (i + d * j).coeffs))
        MQ = M @ Q
        return np.linalg.norm(MQ - Q @ (Q.T @ MQ)) / np.linalg.norm(MQ)

    # span(1, i) is m_i-invariant, and the defect grows linearly as v tilts towards j
    per_unit = defect(1e-6) / 1e-6
    for target, kept in ((1e-10, True), (1e-8, False)):
        d = target / per_unit
        assert defect(d) == pytest.approx(target, rel=1e-3)
        assert invariant_plane_test(PlaneSpan(one, i + d * j), i) is kept


def test_eigenplane_threshold():
    """A plane whose representation lies within 100 tol of +/-Id is an eigenplane, not invariant."""
    sig = Signature2(1, -1)
    j = basis(sig)[2]
    e_plus, _ = eigenspaces_of_mx(j)
    S = e_plus.matrix()
    tol = 1e-10
    for distance, proper in ((1e-9, False), (1e-7, True)):
        # m_x = a + m_j is (1 + a) Id on E+; a real part below 1e-7 still passes as imaginary
        x = element(sig, distance / np.sqrt(2), 0, 1, 0)
        rep, *_ = np.linalg.lstsq(S, mx_matrix(x) @ S, rcond=None)
        assert np.linalg.norm(rep - np.eye(2)) == pytest.approx(distance, rel=1e-6)
        assert invariant_plane_test(e_plus, x, tol=tol) is proper


def test_ghat_gram_threshold():
    """A plane is regular when |det| of ghat on its unit-size span basis exceeds 1e-10."""
    sig = Signature2(1, -1)
    one, i, j, k = basis(sig)
    Gh = ghat_matrix(sig)
    # 1 - i + j + k is a ghat-null vector of E+(j) and 1 - j a non-null one of E-(j);
    # tilting the first within E+ makes the determinant grow linearly
    null, other, tilt = one - i + j + k, one - j, one + j

    def det(e):
        S = _unit_size((null + e * tilt).coeffs, other.coeffs)
        return abs(np.linalg.det(S.T @ Gh @ S))

    per_unit = det(1e-6) / 1e-6
    for target, label in ((1e-9, REGULAR), (1e-11, EXCEPTIONAL_NULL_EIGENVECTOR)):
        e = target / per_unit
        assert det(e) == pytest.approx(target, rel=1e-3)
        assert classify_plane(PlaneSpan(null + e * tilt, other), j) == label


def test_principal_quadratic_threshold():
    """principal_vectors refuses when min |eig h| < 1e-12 max(max |eig h|, 1) on the span basis."""
    sig = Signature2(1, -1)
    b = 100.0
    x = from_coeffs(sig, [0.0, b, np.sqrt(b * b + 1), 0.0])
    M = mx_matrix(x)
    K = ghat_matrix(sig) @ M
    # on the invariant plane span(1 + j, x (1 + j)), h reaches 200 |w|^2 along w; a
    # span basis (w, w + d z) then gives h the eigenvalues of order 200 and d^2
    Q, _ = np.linalg.qr(np.column_stack([[1.0, 0, 1, 0], M @ [1.0, 0, 1, 0]]))
    lam, E = np.linalg.eigh(Q.T @ (0.5 * (K + K.T)) @ Q)
    w, z = Q @ E[:, np.argmax(np.abs(lam))], Q @ E[:, np.argmin(np.abs(lam))]

    def quadratic(d):
        S = _unit_size(w, w + d * z)
        H = S.T @ K @ S
        ev = np.abs(np.linalg.eigvalsh(0.5 * (H + H.T)))
        return ev.min() / max(ev.max(), 1.0), abs(np.linalg.det(S.T @ ghat_matrix(sig) @ S))

    per_unit = quadratic(1e-3)[0] / 1e-6
    for target, accepted in ((1e-11, True), (1e-13, False)):
        d = np.sqrt(target / per_unit)
        ratio, det = quadratic(d)
        assert ratio == pytest.approx(target, rel=1e-2)
        assert det > 1e-9  # regular by a factor of 10 and more
        P = PlaneSpan(from_coeffs(sig, w), from_coeffs(sig, w + d * z))
        assert classify_plane(P, x) == REGULAR
        if accepted:
            assert len(principal_vectors(P, x)) == 4
        else:
            with pytest.raises(PreconditionError, match="principal quadratic is degenerate"):
                principal_vectors(P, x)


# the LAPACK forms that the frame replaced, kept as references ------------


def _ref_invariant(P, x, tol=1e-9):
    S, M = P.matrix(), mx_matrix(x)
    sv = np.linalg.svd(np.hstack([S, M @ S]), compute_uv=False)
    if sv[2] > tol * sv[0]:
        return False
    rep, *_ = np.linalg.lstsq(S, M @ S, rcond=None)
    return all(np.linalg.norm(rep - lam * np.eye(2)) > 100 * tol for lam in (1.0, -1.0))


def _ref_principal(P, x):
    S, Gh = P.matrix(), ghat_matrix(P.sig)
    H = S.T @ Gh @ mx_matrix(x) @ S
    lam, E = np.linalg.eigh(0.5 * (H + H.T))
    ratio = -lam[1] / lam[0]
    out = []
    for root in (np.sqrt(complex(ratio)), -np.sqrt(complex(ratio))):
        w = S @ (E @ np.array([root, 1.0]))
        n2 = w @ Gh @ w
        w = w / np.sqrt(n2 if ratio < 0 else abs(n2))
        out += [w, -w]
    return out


def test_frame_agrees_with_lapack_reference():
    rng = np.random.default_rng(25)
    for sig in SIGS:
        Gh = ghat_matrix(sig)
        for trial in range(400):
            x = _unit_imaginary(rng, sig, odd=True)
            y1, y2 = _orthogonal_axes(rng, sig, x)
            u = rand_elem(rng, sig)
            v = mul(x, u) if trial % 2 else rand_elem(rng, sig)
            S = np.column_stack([u.coeffs, v.coeffs])
            if np.linalg.svd(S, compute_uv=False)[1] < 1e-3 * np.linalg.norm(S):
                continue
            P = PlaneSpan(u, v)
            invariant = _ref_invariant(P, x)
            assert invariant_plane_test(P, x) is invariant
            q, _ = np.linalg.qr(P.matrix())
            lagrangian = all(abs(omega_axis(y, from_coeffs(sig, q[:, 0]), from_coeffs(sig, q[:, 1])))
                             <= 1e-9 for y in (y1, y2))
            assert bilagrangian_test(P, y1, y2) is lagrangian
            if not invariant:
                continue
            regular = bool(abs(np.linalg.det(P.matrix().T @ Gh @ P.matrix())) > 1e-10)
            assert (classify_plane(P, x) == REGULAR) is regular
            if regular:
                got = [vec.coeffs if flag == "real" else vec[0].coeffs + 1j * vec[1].coeffs
                       for vec, flag in principal_vectors(P, x)]
                for want in _ref_principal(P, x):
                    assert min(np.abs(w - want).max() for w in got) < 1e-12
