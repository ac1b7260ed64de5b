"""The identity engine: each relation check passes on a module, K-matrix or
R-matrix that satisfies it and fails, with a witness, once one coefficient
is perturbed."""

from fractions import Fraction

from twyang.exact import RatFunc, Sqrt2
from twyang.liealg import sp2_on_so3
from twyang.reps import (
    eval_so3,
    olshanskii_eval,
    onedim_module,
    restrict_v_j,
    vector_eval_x,
)
from twyang.rkmat import (
    check_reflection,
    check_twisted_reflection,
    k_one_param,
    pair,
    r_matrix,
    r_matrix_for_pair,
)
from twyang.tensors import LabeledMatrix, ORTHOGONAL
from twyang.verify import (
    check_mr_commutators,
    check_olshanskii_commutators,
    check_rtt_commutators,
    check_twisted_commutators,
)


def _perturbed(op, key, r, c, delta):
    """A copy of the operator matrix with delta added to entry (r, c) of s_key."""
    s = dict(op.s)
    e = s[key].copy()
    e[r, c] = e[r, c] + delta
    s[key] = e
    return type(op)(op.labels, op.family, op.dim, s)


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
    assert check_rtt_commutators(x.op.cleared(), x.kappa).passed
    bad = _perturbed(x.op, (1, 0), 0, 0, RatFunc.of(1))
    _assert_quadruple_witness(check_rtt_commutators(bad.cleared(), x.kappa), x.op.labels)


def test_twisted_module_perturbed():
    m = eval_so3(-1)
    rep = check_twisted_commutators(m.op.cleared(), m.pair.kappa)
    assert rep.passed and rep.details["arithmetic"] == "int64"
    bad = _perturbed(m.op, (1, 1), 0, 0, m.op.entry(1, 1)[0, 0])
    _assert_quadruple_witness(check_twisted_commutators(bad.cleared(), m.pair.kappa),
                              m.op.labels)


def test_olshanskii_module_over_q_sqrt2_perturbed():
    om = olshanskii_eval(-1, sp2_on_so3(Fraction(-1, 2)))
    rep = check_olshanskii_commutators(om.op.cleared())
    # Q(sqrt 2) entries double the module dimension
    assert rep.passed and rep.details["operator_dim"] == 2 * 2 * (2 * om.dim)
    key = next(k for k, e in om.op.s.items()
               if any(isinstance(x.num.coeff(0), Sqrt2) and x.num.coeff(0).b for x in e.flat))
    bad = _perturbed(om.op, key, 0, 0, RatFunc.of(Sqrt2(0, 1)))
    _assert_quadruple_witness(check_olshanskii_commutators(bad.cleared()), om.op.labels)


def test_reflection_algebra_module_perturbed():
    bm, rep = restrict_v_j(onedim_module(pair("C0", 4)))
    assert rep.passed and bm.op.labels == [1, 2]
    assert check_mr_commutators(bm.op.cleared()).passed
    bad = _perturbed(bm.op, (1, 1), 0, 0, RatFunc.of(1))
    _assert_quadruple_witness(check_mr_commutators(bad.cleared()), bm.op.labels)


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
