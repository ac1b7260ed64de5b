import random
from fractions import Fraction

import numpy as np
import pytest

from twyang.exact import P_ONE, RatFunc, poly, rf
from twyang.rkmat import (
    PairType,
    all_supported_pairs,
    check_p_identity,
    check_reflection,
    check_symmetry,
    check_twisted_reflection,
    check_unitarity,
    check_yang_baxter,
    check_r_unitarity,
    g_matrix,
    k_one_param,
    p_scalar,
    pair,
    r_matrix,
    r_matrix_for_pair,
    verify_k_matrix,
)
from twyang.tensors import LabeledMatrix, ORTHOGONAL, SYMPLECTIC, op_P, op_Q


def test_pair_type_validation():
    with pytest.raises(ValueError):
        pair("DIb", 6, 3, 3)
    with pytest.raises(ValueError):
        pair("B0", 4)
    with pytest.raises(ValueError):
        pair("CII", 6, 3, 3)  # odd p, q
    with pytest.raises(ValueError):
        pair("BIa", 5, 2, 3)  # p < q
    with pytest.raises(ValueError):
        pair("D0", 2)


def test_pair_derived_constants():
    pt = pair("B0", 3)
    assert pt.kappa == Fraction(1, 2) and pt.n == 1 and pt.i_range == [0, 1]
    pt = pair("C0", 2)
    assert pt.kappa == 2 and pt.family == SYMPLECTIC
    pt = pair("BIa", 5, 3, 2)
    assert pt.c == 4 and pt.bold_k == 1 and pt.ell == 1 and not pt.first_kind
    pt = pair("CII", 4, 2, 2)
    assert pt.first_kind and pt.bold_k == 1 and pt.ell == 1
    pt = pair("CI", 6)
    assert pt.bold_k == 3 and pt.ell == 0


def test_r_matrix_gl2_entries():
    R = r_matrix(2, "gl")
    inv_u = RatFunc(P_ONE, poly(0, 1))
    for i in (-1, 1):
        for j in (-1, 1):
            # delta-pattern minus swap/u
            assert R[((i, j), (i, j))] == (RatFunc.of(1) - (inv_u if i == j else 0))
            if i != j:
                assert R[((i, j), (j, i))] == -inv_u


def test_r_matrix_kappa_values():
    assert pair("B0", 3).kappa == Fraction(1, 2)
    assert pair("C0", 4).kappa == 3
    assert pair("D0", 6).kappa == 2


def test_r_unitarity_sp4():
    assert check_r_unitarity(r_matrix(4, SYMPLECTIC)).passed


def test_g_matrix_ci_n4():
    g = g_matrix(pair("CI", 4))
    diag = [g[((l,), (l,))] for l in (-2, -1, 1, 2)]
    assert diag == [RatFunc.of(-1), RatFunc.of(-1), RatFunc.of(1), RatFunc.of(1)]


def test_g_matrix_trivial_pairs():
    for tag, N in [("B0", 3), ("C0", 4), ("D0", 6)]:
        g = g_matrix(pair(tag, N))
        for l in pair(tag, N).labels():
            assert g[((l,), (l,))] == RatFunc.of(1)


def test_g_matrix_bia_532():
    # instantiating the BI(a) display with (p, q) = (3, 2): constant part
    # diag(-1, 1, 1, 1, -1) and c = 4/(p-q) = 4
    pt = pair("BIa", 5, 3, 2)
    g = g_matrix(pt)
    at_inf = [g[((l,), (l,))].value_at_infinity() for l in pt.labels()]
    assert at_inf == [-1, 1, 1, 1, -1]
    assert pt.g_diagonal() == {-2: -1, -1: 1, 0: 1, 1: 1, 2: -1}
    assert pt.c == 4
    # K(u) = (I - c u G)(1 - c u)^{-1} entrywise
    c = pt.c
    for l in pt.labels():
        expect = RatFunc(poly(1, -c * pt.g_diagonal()[l]), poly(1, -c))
        assert g[((l,), (l,))] == expect


def test_k_one_param():
    pt = pair("CI", 2)
    assert k_one_param(pt, 0) == g_matrix(pt)
    k = k_one_param(pt, 1)
    assert k[((-1,), (-1,))] == rf((1, -1), (0, 1))  # -1 + 1/u
    assert k[((1,), (1,))] == rf((1, 1), (0, 1))  # 1 + 1/u
    with pytest.raises(ValueError):
        k_one_param(pair("C0", 2), 1)


def test_yang_baxter_passes():
    assert check_yang_baxter(r_matrix(2, "gl")).passed
    assert check_yang_baxter(r_matrix(3, ORTHOGONAL)).passed


def test_yang_baxter_perturbed_fails_with_witness():
    # replace kappa by kappa + 1 in the so_3 R-matrix
    labs = [(i, k) for i in (-1, 0, 1) for k in (-1, 0, 1)]
    R = LabeledMatrix.identity(labs, RatFunc.of(1))
    R = R + op_P(3).map_values(lambda v: -v * RatFunc(P_ONE, poly(0, 1)))
    R = R + op_Q(3, ORTHOGONAL).map_values(
        lambda v: v * RatFunc(P_ONE, poly(Fraction(-3, 2), 1))
    )
    rep = check_yang_baxter(R)
    assert not rep.passed and rep.witnesses
    # oracle: evaluate both sides of the YBE at a rational point and exhibit
    # the violated entry found by the checker
    (rk, ck), _ = rep.witnesses[0]
    labs = (-1, 0, 1)

    def sides(R, u0=Fraction(5), v0=Fraction(7, 2)):
        r12, r13, r23 = (_place(R.map_values(lambda e: e.eval(x)), legs, labs)
                         for x, legs in ((u0, (1, 2)), (u0 + v0, (1, 3)), (v0, (2, 3))))
        return r12 @ r13 @ r23, r23 @ r13 @ r12

    lhs, rhs = sides(r_matrix(3, ORTHOGONAL))
    assert np.array_equal(lhs, rhs)
    lhs, rhs = sides(R)
    row, col = (sum(labs.index(x) * 3 ** (2 - t) for t, x in enumerate(k)) for k in (rk, ck))
    assert lhs[row, col] != rhs[row, col]


def _place(m, legs, labels):
    """The dense matrix of the two-leg m acting on `legs` (1-based) of
    (C^N)^(x3), the identity on the third leg; rows and columns (a, b, c)."""
    pos = {l: k for k, l in enumerate(labels)}
    N = len(labels)
    (other,) = {1, 2, 3} - set(legs)
    out = np.zeros((N,) * 6, dtype=object)
    for (r, c), v in m.data.items():
        for t in range(N):
            idx = [0] * 6
            for leg, x, y in zip(legs, r, c):
                idx[leg - 1], idx[leg + 2] = pos[x], pos[y]
            idx[other - 1] = idx[other + 2] = t
            out[tuple(idx)] = v
    return out.reshape(N**3, N**3)


def test_reflection_scalar_k_commutes():
    R = r_matrix(4, SYMPLECTIC)
    K = LabeledMatrix.identity([(l,) for l in (-2, -1, 1, 2)], RatFunc.of(1))
    assert check_reflection(R, K).passed


def test_reflection_ci_g_with_sp4():
    assert check_reflection(r_matrix(4, SYMPLECTIC), g_matrix(pair("CI", 4))).passed


def test_reflection_fails_for_bad_k():
    R = r_matrix(2, "gl")
    K = LabeledMatrix([(-1,), (1,)], {(-1, -1): RatFunc.of(1), (1, 1): RatFunc.of(2)})
    rep = check_reflection(R, K)
    assert not rep.passed and rep.witnesses


def test_twisted_reflection_scalar_k():
    # AI/AII-style sanity: K = I with the gl_N R-matrix and t = t_+-
    for N, fam in [(2, ORTHOGONAL), (2, SYMPLECTIC), (3, ORTHOGONAL)]:
        R = r_matrix(N, "gl")
        labs = [(l,) for l in ([-1, 0, 1] if N == 3 else [-1, 1])]
        K = LabeledMatrix.identity(labs, RatFunc.of(1))
        assert check_twisted_reflection(R, K, fam).passed


def test_one_param_reflection_diii():
    pt = pair("DIII", 4)
    K = k_one_param(pt, Fraction(3, 7))
    assert check_reflection(r_matrix_for_pair(pt), K).passed
    assert check_symmetry(K, pt).passed


def test_p_scalar_ci():
    pt = pair("CI", 4)
    K = g_matrix(pt)
    assert K.trace() == RatFunc.of(0)
    ka = pt.kappa
    assert p_scalar(K, pt) == RatFunc.of(-1) + RatFunc(P_ONE, poly(-ka, 2))


def test_p_scalar_b0_is_p0_form():
    pt = pair("B0", 3)
    p = p_scalar(g_matrix(pt), pt)
    ka = pt.kappa
    # p0(u) = u(kappa - 2u - 1)/((2u-kappa)(kappa-u))
    p0 = RatFunc(poly(0, 1) * poly(ka - 1, -2), poly(-ka, 2) * poly(ka, -1))
    assert p == p0


@pytest.mark.parametrize("pt", all_supported_pairs(6), ids=str)
def test_k_matrix_suite_all_pairs(pt):
    rep = verify_k_matrix(pt)
    assert rep.passed, rep.as_dict()


def test_p_identity_all_pairs():
    for pt in all_supported_pairs(6):
        assert check_p_identity(g_matrix(pt), pt).passed


def test_one_param_random_a():
    rng = random.Random(23)
    for tag, N in [("CI", 2), ("CI", 4), ("DIII", 4)]:
        pt = pair(tag, N)
        for _ in range(3):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            rep = verify_k_matrix(pt, a=a)
            assert rep.passed, (tag, N, a)
