"""The identity engine and the product check: each relation check passes on
a module, K-matrix or R-matrix that satisfies it and fails, with a witness,
once one coefficient is perturbed."""

from fractions import Fraction

from twyang.exact import P_ONE, RatFunc, poly
from twyang.liealg import sp2_on_so3
from twyang.reps import (
    eval_so3,
    olshanskii_eval,
    onedim_module,
    restrict_v_j,
    vector_eval_x,
)
from twyang.rkmat import (
    check_r_unitarity,
    check_reflection,
    check_symmetry,
    check_twisted_reflection,
    check_unitarity,
    g_matrix,
    k_one_param,
    pair,
    r_matrix,
    r_matrix_for_pair,
)
from twyang.tensors import LabeledMatrix, ORTHOGONAL
from twyang.verify import (
    OperatorMatrix,
    check_mr_commutators,
    check_olshanskii_commutators,
    check_rtt_commutators,
    check_twisted_commutators,
    scalar_product_with_reflected,
)


def _perturbed(op, key, r, c, delta):
    """A copy of the operator matrix with delta added to the coefficient of u^0
    in the numerator of entry (r, c) of s_key."""
    blocks = dict(op.blocks)
    blocks[key] = blocks[key].copy()
    blocks[key][0, r, c] += delta
    return OperatorMatrix(op.labels, op.family, op.dim, op.den, blocks)


def _assert_quadruple_witness(rep, labels):
    assert not rep.passed and rep.witnesses
    D = rep.details["degree_bound"]
    for (i, j, k, l), (u0, v0) in rep.witnesses:
        assert {i, j, k, l} <= set(labels)
        assert -(D // 2) <= u0 <= (D + 1) // 2 and -(D // 2) <= v0 <= (D + 1) // 2


def _assert_entry_witness(rep, legs):
    assert not rep.passed and rep.witnesses
    for (row, col), (u0, v0) in rep.witnesses:
        assert len(row) == len(col) == legs and isinstance(u0, int) and isinstance(v0, int)


def test_rtt_vector_module_perturbed():
    x = vector_eval_x(3, ORTHOGONAL, Fraction(1, 2))
    assert check_rtt_commutators(x.op, x.kappa).passed
    bad = _perturbed(x.op, (1, 0), 0, 0, 1)
    _assert_quadruple_witness(check_rtt_commutators(bad, x.kappa), x.op.labels)


def test_twisted_module_perturbed():
    m = eval_so3(-1)
    rep = check_twisted_commutators(m.op, m.pair.kappa)
    assert rep.passed and rep.details["arithmetic"] == "int64"
    bad = _perturbed(m.op, (1, 1), 0, 0, 1)
    _assert_quadruple_witness(check_twisted_commutators(bad, m.pair.kappa),
                              m.op.labels)


def test_olshanskii_module_perturbed():
    om = olshanskii_eval(-1, sp2_on_so3(Fraction(-1, 2)))
    rep = check_olshanskii_commutators(om.op)
    assert rep.passed and rep.details["operator_dim"] == 2 * 2 * om.dim
    bad = _perturbed(om.op, (-1, 1), 0, 0, Fraction(1, 3))
    _assert_quadruple_witness(check_olshanskii_commutators(bad), om.op.labels)


def test_reflection_algebra_module_perturbed():
    bm, rep = restrict_v_j(onedim_module(pair("C0", 4)))
    assert rep.passed and bm.op.labels == [1, 2]
    assert check_mr_commutators(bm.op).passed
    bad = _perturbed(bm.op, (1, 1), 0, 0, 1)
    _assert_quadruple_witness(check_mr_commutators(bad), bm.op.labels)


def test_twisted_reflection_k_perturbed():
    R = r_matrix(3, "gl")
    labs = [(l,) for l in (-1, 0, 1)]
    K = LabeledMatrix.identity(labs, RatFunc.of(1))
    assert check_twisted_reflection(R, K, ORTHOGONAL).passed
    K.data[((0,), (1,))] = RatFunc.of(1)
    _assert_entry_witness(check_twisted_reflection(R, K, ORTHOGONAL), 2)


def test_large_coefficients_take_the_python_int_path():
    pt = pair("CI", 4)
    R = r_matrix_for_pair(pt)
    K = k_one_param(pt, Fraction(10**15, 7))
    rep = check_reflection(R, K)
    assert rep.passed and rep.details["arithmetic"] == "int"
    K.data[((1,), (1,))] = K.data[((1,), (1,))] + RatFunc.of(1)
    rep = check_reflection(R, K)
    assert rep.details["arithmetic"] == "int"
    _assert_entry_witness(rep, 2)


def _assert_product_witness(rep, labels):
    assert not rep.passed and rep.witnesses
    D = rep.details["degree_bound"]
    for (i, j), u0, what in rep.witnesses:
        assert {i, j} <= set(labels) and isinstance(u0, int) and -D // 2 <= u0 <= D // 2
        assert what in ("nonzero", "not scalar", "scalar differs")


def test_unitarity_k_perturbed():
    pt = pair("BIa", 5, 3, 2)  # second kind: G(u) = (I - c u G)/(1 - c u)
    K = g_matrix(pt)
    rep = check_unitarity(K)
    assert rep.passed and rep.details["grid_points"] == 3
    K.data[((1,), (1,))] = K.data[((1,), (1,))] + RatFunc.of(1)
    rep = check_unitarity(K)
    _assert_product_witness(rep, pt.labels())
    assert [w[0] for w in rep.witnesses] == [(1, 1)]
    K = g_matrix(pt)
    K.data[((1,), (-1,))] = RatFunc.of(1)
    _assert_product_witness(check_unitarity(K), pt.labels())
    # a scalar product other than 1 is named by its w
    K = g_matrix(pair("C0", 2)).map_values(lambda v: 2 * v)
    rep = check_unitarity(K)
    assert not rep.passed and rep.witnesses == [("w(u)", RatFunc.of(4))]


def test_r_unitarity_perturbed():
    R = r_matrix(3, ORTHOGONAL)
    rep = check_r_unitarity(R)
    assert rep.passed and rep.details["operator_dim"] == 9
    R.data[((1, 0), (1, 0))] = R.data[((1, 0), (1, 0))] + RatFunc(P_ONE, poly(0, 1))
    rep = check_r_unitarity(R)
    _assert_product_witness(rep, [-1, 0, 1])
    assert [(w[0], w[2]) for w in rep.witnesses] == [
        ((0, 1), "nonzero"), ((1, 0), "nonzero"), ((1, 1), "not scalar")]


def test_unitary_scalar_module_perturbed():
    m = eval_so3(-1)
    w, rep = scalar_product_with_reflected(m.op)
    assert rep.passed and w is not None
    assert rep.details["degree_bound"] == 2 * (m.op.slots - 1)
    assert rep.details["grid_points"] == rep.details["degree_bound"] + 1
    for key, r, c in (((1, 1), 0, 0), ((1, 0), 0, 0)):
        w, rep = scalar_product_with_reflected(_perturbed(m.op, key, r, c, 1))
        _assert_product_witness(rep, m.op.labels)


def test_unitary_scalar_python_int_path():
    a = Fraction(10**15, 7)
    m = onedim_module(pair("CI", 4), a)
    w, rep = scalar_product_with_reflected(m.op)
    # (G + a/u)(G - a/u) = 1 - a^2/u^2, G^2 = I
    assert rep.passed and rep.details["arithmetic"] == "int"
    assert w == RatFunc(poly(-a * a, 0, 1), poly(0, 0, 1))
    bad = _perturbed(m.op, (1, 1), 0, 0, 1)
    w, rep = scalar_product_with_reflected(bad)
    assert rep.details["arithmetic"] == "int"
    _assert_product_witness(rep, m.op.labels)


def test_symmetry_k_perturbed():
    for pt in (pair("BIa", 5, 3, 2), pair("CI", 4)):
        K = g_matrix(pt)
        assert check_symmetry(K, pt).passed
        K.data[((1,), (1,))] = K.data[((1,), (1,))] + RatFunc.of(1)
        rep = check_symmetry(K, pt)
        # the trace term carries the change to every diagonal entry
        assert not rep.passed
        assert [w[0] for w in rep.witnesses] == [(l, l) for l in pt.labels()]
    # the one-parameter K of CI and DIII passes the same check, no flag needed
    for tag, N in (("CI", 2), ("DIII", 4)):
        pt = pair(tag, N)
        assert check_symmetry(k_one_param(pt, Fraction(-5, 3)), pt).passed
        K = k_one_param(pt, Fraction(-5, 3))
        K.data[((-1,), (-1,))] = K.data[((-1,), (-1,))] + RatFunc(P_ONE, poly(0, 1))
        assert not check_symmetry(K, pt).passed
