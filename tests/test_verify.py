"""The identity engine, the product check and the symmetry relation: each
relation check passes on a module, K-matrix or R-matrix that satisfies it and
fails, with a witness, once one coefficient is perturbed; the symmetry
relation also agrees with a coefficient-convolution oracle."""

from fractions import Fraction

import numpy as np
import pytest

from test_acceptance import all_modules_for_criterion_4
from twyang import rkmat, verify
from twyang.exact import P_ONE, RatFunc, poly
from twyang.liealg import so2_char, sp2_module, sp2_on_so3
from twyang.reps import (
    eval_so3,
    olshanskii_eval,
    onedim_module,
    restrict_v_j,
    restrict_v_plus,
    tensor_twisted,
    vector_eval_x,
    verify_twisted,
)
from twyang.rkmat import _operator as rkmat_operator
from twyang.rkmat import (
    all_supported_pairs,
    check_r_unitarity,
    check_reflection,
    check_symmetry,
    check_twisted_reflection,
    check_unitarity,
    check_yang_baxter,
    g_matrix,
    k_one_param,
    pair,
    r_matrix,
    r_matrix_for_pair,
    verify_k_matrix,
    verify_r_matrix,
)
from twyang.tensors import LabeledMatrix, ORTHOGONAL, theta
from twyang.verify import (
    OperatorMatrix,
    _arithmetic,
    _convolve,
    _norm,
    _r_kappa,
    _symmetry_report,
    _witness_key,
    check_mr_commutators,
    check_olshanskii_commutators,
    check_relation,
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
    assert rep.passed and rep.details["arithmetic"] == "float64"
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


# ---------------------------------------------------------------------------
# the symmetry relation against the coefficient oracle
# ---------------------------------------------------------------------------


def _oracle_lincomb(terms):
    """sum_t p_t(u) c_t(u) for scalar polynomials p_t and coefficient arrays
    c_t (coefficients along axis 0)."""
    parts = [_convolve(np.array(p.coeffs, dtype=object), c, np.multiply)
             for p, c in terms if p]
    out = np.zeros_like(max(parts, key=len))
    for x in parts:
        out[: len(x)] += x
    return out


def _oracle_symmetry(op, kappa, sign_refl, sign_pm, trace_g=None):
    """(witness set, degree) of the symmetry relation by coefficient
    convolution of the relation multiplied through by den(u) den(k-u) (2u-k)
    [(2u-2k) den Tr G(u)]; degree is that of the cleared polynomial (-1 when
    it is zero)."""
    ka = Fraction(kappa)
    refl = op.substitute(-1, ka)
    c, cr = (m.coeffs() * Fraction(1, m.scale) for m in (op, refl))
    den, denr = op.den, refl.den
    a = poly(-ka, 2)
    b = P_ONE if trace_g is None else poly(-2 * ka, 2) * trace_g.den
    labs = op.labels
    pos = {l: k for k, l in enumerate(labs)}
    neg = [pos[-l] for l in labs]
    th = np.array([[theta(op.family, i, j) for j in labs] for i in labs], dtype=object)
    flipped = c[:, neg][:, :, neg].transpose(0, 2, 1, 3, 4) * th[None, :, :, None, None]
    terms = [(denr * a * b, flipped), (-sign_refl * den * a * b, cr),
             (-sign_pm * denr * b, c), (sign_pm * den * b, cr)]
    if trace_g is not None:
        diag = np.arange(len(labs))
        tr = np.zeros_like(c)
        tr[:, diag, diag] = c[:, diag, diag].sum(axis=1)[:, None]
        terms += [(-trace_g.num * den * a, cr), (denr * a * trace_g.den, tr)]
    cleared = _oracle_lincomb(terms).astype(bool)
    bad = cleared.any(axis=(0, 3, 4))
    degree = max((p for p in range(len(cleared)) if cleared[p].any()), default=-1)
    return {((labs[i], labs[j]), "symmetry relation violated")
            for i, j in zip(*np.nonzero(bad))}, degree


def _perturb(op, slot, delta=Fraction(1, 3)):
    """delta added to the u^slot coefficient of the numerator over den of
    entry (0, 0) of the first stored block, the block padded to op.slots."""
    key = sorted(op.blocks)[0]
    blocks = dict(op.blocks)
    b = np.zeros((op.slots,) + blocks[key].shape[1:], dtype=object)
    b[: len(blocks[key])] = blocks[key]
    b[slot, 0, 0] += delta * op.scale
    blocks[key] = b
    return OperatorMatrix(op.labels, op.family, op.dim, op.den, blocks, op.scale)


def _perturb_den(op):
    """The same numerators over den(u) (u - 5/2)."""
    return OperatorMatrix(op.labels, op.family, op.dim, op.den * poly(Fraction(-5, 2), 1),
                          op.blocks, op.scale)


def _symmetry_cases():
    """(name, operator matrix, kappa, sign_refl, sign_pm, Tr G or None)."""
    cases = []
    for pt in all_supported_pairs(6):
        tr = g_matrix(pt).trace()
        args = (pt.kappa, pt.sign_ci_diii, pt.sign_pm, tr)
        cases.append((f"G {pt}", rkmat_operator(g_matrix(pt), pt.family)) + args)
        if pt.tag in ("CI", "DIII"):
            K = k_one_param(pt, Fraction(-5, 3))
            cases.append((f"K(a) {pt}", rkmat_operator(K, pt.family)) + args)
    modules = all_modules_for_criterion_4()
    for tag, N, fam in (("CI", 2, "symplectic"), ("B0", 3, "orthogonal")):
        for a in (0, Fraction(1, 2)):
            modules.append(tensor_twisted(vector_eval_x(N, fam, a), onedim_module(pair(tag, N))))
    tm = tensor_twisted(vector_eval_x(4, "symplectic", 0), onedim_module(pair("CI", 4)))
    for m in (tm, onedim_module(pair("C0", 4))):
        sub, rep = restrict_v_plus(m)
        assert rep.passed
        modules.append(sub)
    for m in modules:
        pt = m.pair
        cases.append((m.provenance, m.op, pt.kappa, pt.sign_ci_diii, pt.sign_pm,
                      g_matrix(pt).trace()))
    for sign, lie in ((-1, sp2_on_so3(Fraction(-1, 2))), (-1, sp2_module(-2)),
                      (1, so2_char(Fraction(3, 7)))):
        om = olshanskii_eval(sign, lie)
        cases.append((om.provenance, om.op, 0, 1, om.sign, None))
    return cases


def test_symmetry_relation_matches_coefficient_oracle():
    # every case is checked as built and with a perturbation in numerator
    # slot 0, in the top slot and in den; verdicts and witness sets must agree
    # with the oracle, the grid must have degree_bound + 1 points, and the
    # bound must cover the cleared degree (and reach it on some input)
    fails, tight, cases = 0, 0, _symmetry_cases()
    for name, op, *args in cases:
        for variant in (op, _perturb(op, 0), _perturb(op, op.slots - 1), _perturb_den(op)):
            rep = _symmetry_report("symmetry", variant, *args)
            want, degree = _oracle_symmetry(variant, *args)
            assert rep.passed == (not want) and set(rep.witnesses) == want, name
            d = rep.details
            assert d["grid_points"] == d["degree_bound"] + 1, name
            assert d["operator_dim"] == len(op.labels) * op.dim, name
            # float64 wherever the bound allows; the B0 N=3 tensor's bound
            # is 2^54-2^58, so its four variants take int64
            assert d["arithmetic"] == ("float64" if d["bound_bits"] <= 53 else "int64"), name
            assert degree <= d["degree_bound"], name
            fails += not rep.passed
            tight += degree == d["degree_bound"]
        assert _symmetry_report("symmetry", op, *args).passed, name
    assert fails == 3 * len(cases) and tight > 0


def test_symmetry_python_int_path():
    pt = pair("CI", 4)
    # a = 10^15/7 keeps every partial sum below 2^63; 10^16/7 does not
    for a, arithmetic in ((Fraction(10**15, 7), "int64"), (Fraction(10**16, 7), "int")):
        rep = check_symmetry(k_one_param(pt, a), pt)
        assert rep.passed and rep.details["arithmetic"] == arithmetic
        assert rep.details["grid_points"] == rep.details["degree_bound"] + 1
        K = k_one_param(pt, a)
        K.data[((-1,), (-1,))] = K.data[((-1,), (-1,))] + RatFunc(P_ONE, poly(0, 1))
        rep = check_symmetry(K, pt)
        assert not rep.passed and rep.details["arithmetic"] == arithmetic
        want, _ = _oracle_symmetry(rkmat_operator(K, pt.family), pt.kappa, pt.sign_ci_diii,
                                   pt.sign_pm, g_matrix(pt).trace())
        assert set(rep.witnesses) == want and ((-1, -1), "symmetry relation violated") in want


# The grid arithmetic follows from each check's proven bound alone: float64
# below 2^53, int64 below 2^63, Python ints beyond.  For K = G + a/u of CI,
# N = 4, the bound grows with a; these a land each check in each tier.
_CI4 = pair("CI", 4)
_TIERS = {
    "reflection": (lambda K: check_reflection(r_matrix_for_pair(_CI4), K),
                   ((1,), (1,)), RatFunc.of(1),
                   {"float64": Fraction(3, 7), "int64": Fraction(10**7, 7),
                    "int": Fraction(10**8, 7)}),
    "symmetry": (lambda K: check_symmetry(K, _CI4),
                 ((-1,), (-1,)), RatFunc(P_ONE, poly(0, 1)),
                 {"float64": Fraction(3, 7), "int64": Fraction(10**15, 7),
                  "int": Fraction(10**16, 7)}),
    # at a = 10^9/7 the bound is about 2^60: the -1 moves one diagonal entry
    # of the scaled K(-1)K(1) from 10^18 - 49 to 10^18, both about 2^60,
    # where half an ulp of float64 is 64
    "unitary-scalar": (lambda K: scalar_product_with_reflected(rkmat_operator(K))[1],
                       ((1,), (1,)), RatFunc.of(-1),
                       {"float64": Fraction(3, 7), "int64": Fraction(10**9, 7),
                        "int": Fraction(10**10, 7)}),
}


@pytest.mark.parametrize("check", _TIERS)
def test_arithmetic_tiers_agree(check):
    run, key, delta, tiers = _TIERS[check]
    witness_sets = []
    for arithmetic, a in tiers.items():
        rep = run(k_one_param(_CI4, a))
        assert rep.passed and rep.details["arithmetic"] == arithmetic, check
        K = k_one_param(_CI4, a)
        K.data[key] = K.data[key] + delta
        rep = run(K)
        assert not rep.passed and rep.details["arithmetic"] == arithmetic, check
        bits = rep.details["bound_bits"]
        assert {"float64": bits <= 53, "int64": 53 < bits <= 63, "int": bits > 63}[arithmetic]
        witness_sets.append(set(rep.witnesses))
    assert witness_sets[0] and all(w == witness_sets[0] for w in witness_sets), check


def test_int64_tier_keeps_a_perturbation_below_float64_resolution():
    # negative control of the float64 threshold: this bound lies in
    # [2^53, 2^63), where float64 rounding loses the -1 in K_11
    run, key, delta, tiers = _TIERS["unitary-scalar"]
    K = k_one_param(_CI4, tiers["int64"])
    K.data[key] = K.data[key] + delta
    rep = run(K)
    assert 53 < rep.details["bound_bits"] <= 63
    assert not rep.passed and rep.details["arithmetic"] == "int64"
    assert rep.witnesses == [((1, 1), -1, "scalar differs")]


@pytest.fixture(scope="module")
def engine_reports():
    """(report name, sub-report name, details) of every engine sub-report of
    the R-matrix suites up to N = 6 (YBE operator_dim 216) and the K suite of
    every pair up to N = 6."""
    reports = [verify_r_matrix(N, fam) for fam, Ns in (("gl", range(2, 7)),
                                                        (ORTHOGONAL, range(3, 7)),
                                                        ("symplectic", (2, 4, 6)))
               for N in Ns]
    reports += [verify_k_matrix(pt) for pt in all_supported_pairs(6)]
    return [(rep.name, name, d) for rep in reports for name, d in rep.details.items()
            if isinstance(d, dict) and "grid_points" in d]


def test_suites_run_in_float64(engine_reports):
    # every engine sub-report of these suites stays below 2^53, so they take
    # the float64 (BLAS) path
    assert len(engine_reports) >= 2 * 12 + 2 * len(all_supported_pairs(6))
    for rep_name, name, d in engine_reports:
        assert d["arithmetic"] == "float64" and d["bound_bits"] <= 53, (rep_name, name)
    assert max(d["operator_dim"] for _, name, d in engine_reports if name == "yang-baxter") == 216


def test_batches_stay_under_the_cap(engine_reports):
    # every batched temporary of check_relation has at most _BATCH_ENTRIES
    # entries, unless one grid point alone has more
    m = tensor_twisted(vector_eval_x(3, ORTHOGONAL, 0), onedim_module(pair("B0", 3)))
    twisted = verify_twisted(m).details["reflection-commutators"]
    relations = [d for _, name, d in engine_reports if "batch_points" in d] + [twisted]
    assert len(relations) == 12 + len(all_supported_pairs(6)) + 1
    for d in relations:
        n = d["operator_dim"]
        assert 1 <= d["batch_points"] <= d["grid_points"]
        assert d["batch_points"] * n * n <= verify._BATCH_ENTRIES or d["batch_points"] == 1
    assert {d["batch_points"] == 1 for d in relations} == {True, False}


# ---------------------------------------------------------------------------
# the batched grid evaluation against the per-point loop
# ---------------------------------------------------------------------------


def _at(c, w):
    acc = c[-1]
    for p in range(len(c) - 2, -1, -1):
        acc = acc * w + c[p]
    return acc


def _relation_oracle(name, labels, A, X, B=None, entry_labels=None):
    """check_relation one grid point at a time, u0 outer and v0 inner, with
    I_N (x) X(v0) and A (x) I_d formed by np.kron: the Report without
    batch_points."""
    rep = verify.Report(name)
    N = len(labels)
    d = X.shape[-1]
    x = X.transpose(0, 1, 3, 2, 4).reshape(-1, N * d, N * d)
    a, b = (None if F is None else F.transpose(0, 1, 3, 2, 4).reshape(-1, N * N, N * N)
            for F in (A, B))
    D = len(x) + len(a) - 2 + (0 if b is None else len(b) - 1)
    lo, hi = -(D // 2), (D + 1) // 2
    grid = range(lo, hi + 1)
    bound = 2 * _norm(x, hi) ** 2 * _norm(a, D) * (1 if b is None else _norm(b, 2 * hi))
    dtype, label = _arithmetic(bound)
    x, a = x.astype(dtype), a.astype(dtype)
    if b is not None:
        b = b.astype(dtype)
    n = N * N * d
    rep.details.update(degree_bound=D, grid_points=len(grid) ** 2, operator_dim=n,
                       arithmetic=label, bound_bits=bound.bit_length())

    def two_leg(F, M):
        return (F @ M.reshape(N * N, d * n)).reshape(n, n)

    def leg1(Xm, M):
        M = M.reshape(N, N, d, n).transpose(1, 0, 2, 3).reshape(N, N * d, n)
        return (Xm @ M).reshape(N, N, d, n).transpose(1, 0, 2, 3).reshape(n, n)

    def leg2(Xm, M):
        return (Xm @ M.reshape(N, N * d, n)).reshape(n, n)

    eye_n, eye_d = np.eye(N, dtype=dtype), np.eye(d, dtype=dtype)
    found = {}
    for u0 in grid:
        for v0 in grid:
            Am = _at(a, u0 - v0)
            lhs = np.kron(eye_n, _at(x, v0))
            rhs = leg1(_at(x, u0), np.kron(Am, eye_d))
            if b is not None:
                Bm = _at(b, u0 + v0)
                lhs, rhs = two_leg(Bm, lhs), two_leg(Bm, rhs)
            lhs = two_leg(Am, leg1(_at(x, u0), lhs))
            rhs = leg2(_at(x, v0), rhs)
            bad = (lhs != rhs).reshape(N, N, d, N, N, d)
            if entry_labels is None:
                bad = bad.any(axis=(2, 5))
            for idx in zip(*np.nonzero(bad)):
                found.setdefault(_witness_key(labels, entry_labels, idx), (u0, v0))
    for key in sorted(found):
        rep.fail((key, found[key]))
    return rep


def _relation_calls(run):
    """The arguments of every check_relation call that run() makes."""
    calls = []

    def spy(*args, **kw):
        calls.append((args, kw))
        return check_relation(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (verify, rkmat):
            mp.setattr(mod, "check_relation", spy)
        run()
    return calls


def _vanishing_first(op, run):
    """op with (u - lo)/den added to entry (0, 0) of its first block, lo the
    first grid value of run(op + u/den), so that the first grid point of the
    relation sees no change."""
    key = sorted(op.blocks)[0]
    b = np.zeros((max(op.slots, 2),) + op.blocks[key].shape[1:], dtype=object)
    b[: len(op.blocks[key])] = op.blocks[key]
    b[1, 0, 0] += op.scale

    def with_block(b):
        return OperatorMatrix(op.labels, op.family, op.dim, op.den, {**op.blocks, key: b},
                              op.scale)

    lo = -(run(with_block(b)).details["degree_bound"] // 2)
    b[0, 0, 0] -= lo * op.scale
    return with_block(b)


def _relation_cases():
    """(label, args, kwargs) of check_relation calls: passing and failing YBE,
    module commutators and reflection equations, in all three arithmetics."""
    runs = [(f"YBE {fam} N={N}", lambda N=N, fam=fam: check_yang_baxter(r_matrix(N, fam)))
            for fam, Ns in (("gl", (2, 3, 4)), (ORTHOGONAL, (3, 4)), ("symplectic", (2, 4)))
            for N in Ns]
    cases = []
    for fam, N in ((ORTHOGONAL, 3), ("symplectic", 4)):  # kappa -> kappa + 1
        labs = list(pair("B0" if fam == ORTHOGONAL else "C0", N).labels())
        kappa = Fraction(N, 2) + (1 if fam == "symplectic" else -1)
        r = _r_kappa(labs, fam, kappa + 1)
        cases.append((f"YBE shifted kappa {fam} N={N}",
                       ("yang-baxter", labs, r, r), {"entry_labels": [(l,) for l in labs]}))
    x = vector_eval_x(3, ORTHOGONAL, Fraction(1, 2))
    m = eval_so3(-1)
    om = olshanskii_eval(-1, sp2_on_so3(Fraction(-1, 2)))
    bm, _ = restrict_v_j(onedim_module(pair("C0", 4)))
    for label, op, check in (
            ("rtt", x.op, lambda op: check_rtt_commutators(op, x.kappa)),
            ("twisted", m.op, lambda op: check_twisted_commutators(op, m.pair.kappa)),
            ("olshanskii", om.op, check_olshanskii_commutators),
            ("reflection-algebra", bm.op, check_mr_commutators)):
        for how, variant in (("", op),
                             (" perturbed", _perturbed(op, sorted(op.blocks)[-1], 0, 0, 1)),
                             (" perturbed past (lo, lo)", _vanishing_first(op, check))):
            runs.append((f"{label} commutators{how}", lambda op=variant, check=check: check(op)))
    reflect, key, delta, tiers = _TIERS["reflection"]
    for arithmetic, a in tiers.items():
        K = k_one_param(_CI4, a)
        runs.append((f"reflection {arithmetic}", lambda K=K: reflect(K)))
        K = k_one_param(_CI4, a)
        K.data[key] = K.data[key] + delta
        runs.append((f"reflection perturbed {arithmetic}", lambda K=K: reflect(K)))
    for label, run in runs:
        cases += [(label, args, kw) for args, kw in _relation_calls(run)]
    return cases


def test_batched_relation_matches_per_point_oracle(monkeypatch):
    # identical passed, witnesses (with their first failing point) and
    # details, with the default cap, one point per batch and batches of
    # G - 1 points, which end in mid-row
    cases = _relation_cases()
    tiers, past_first_batch = set(), 0
    for label, args, kw in cases:
        want = _relation_oracle(*args, **kw)
        d = want.details
        n, G = d["operator_dim"], d["degree_bound"] + 1
        for cap in (verify._BATCH_ENTRIES, 1, n * n * (G - 1)):
            with monkeypatch.context() as mp:
                mp.setattr(verify, "_BATCH_ENTRIES", cap)
                got = check_relation(*args, **kw)
            batch = got.details.pop("batch_points")
            assert batch == min(G * G, max(1, cap // (n * n))), label
            assert (got.passed, got.witnesses, got.details) == \
                (want.passed, want.witnesses, want.details), (label, cap)
        assert want.passed == ("perturbed" not in label and "shifted" not in label), label
        tiers.add(d["arithmetic"])
        lo = -(d["degree_bound"] // 2)
        past_first_batch += any((u0 - lo) * G + v0 - lo >= G - 1 for _, (u0, v0) in want.witnesses)
    assert tiers == {"float64", "int64", "int"}
    assert past_first_batch >= 3


def _product_oracle(op):
    """(w, report) of scalar_product_with_reflected one grid point at a time."""
    rep = verify.Report("unitary-scalar")
    labels, N, m = op.labels, len(op.labels), op.dim
    x = op.coeffs().transpose(0, 1, 3, 2, 4).reshape(-1, N * m, N * m)
    D = 2 * (len(x) - 1)
    grid = range(-(D // 2), D // 2 + 1)
    bound = _norm(x, D // 2) ** 2
    dtype, label = _arithmetic(bound)
    x = x.astype(dtype)
    rep.details.update(degree_bound=D, grid_points=len(grid), operator_dim=N * m,
                       arithmetic=label, bound_bits=bound.bit_length())
    failed, ys, scalar = {}, [], True
    for u0 in grid:
        Z = (_at(x, u0) @ _at(x, -u0)).reshape(N, m, N, m).transpose(0, 2, 1, 3)
        c = Z[0, 0, 0, 0]
        for i in range(N):
            for j in range(N):
                if i != j and (Z[i, j] != 0).any():
                    failed.setdefault((i, j), (u0, "nonzero"))
            if not np.array_equal(Z[i, i], Z[i, i, 0, 0] * np.eye(m, dtype=dtype)):
                failed.setdefault((i, i), (u0, "not scalar"))
                scalar = False
            elif Z[i, i, 0, 0] != c:
                failed.setdefault((i, i), (u0, "scalar differs"))
        ys.append(int(c))
    for (i, j), (u0, what) in sorted(failed.items()):
        rep.fail(((labels[i], labels[j]), u0, what))
    if not scalar:
        return None, rep
    w = verify._interpolate(grid.start, ys) * Fraction(1, op.scale ** 2)
    return RatFunc(w, op.den * op.den.compose_affine(-1, 0)), rep


def test_batched_product_matches_per_point_oracle():
    m = eval_so3(-1)
    lo = -(m.op.slots - 1)  # a perturbation by u^2 - lo^2 leaves Z(+-lo) alone
    ops = [m.op, _perturbed(m.op, (1, 1), 0, 0, 1), _perturbed(m.op, (1, 0), 0, 0, 1),
           _perturb(_perturb(m.op, 2, 1), 0, -lo * lo),
           rkmat_operator(g_matrix(pair("BIa", 5, 3, 2))), rkmat_operator(r_matrix(3, ORTHOGONAL))]
    _, key, delta, tiers = _TIERS["unitary-scalar"]
    for a in tiers.values():
        K = k_one_param(_CI4, a)
        ops.append(rkmat_operator(K))
        K.data[key] = K.data[key] + delta
        ops.append(rkmat_operator(K))
    got = [scalar_product_with_reflected(op) for op in ops]
    for (w, rep), (w0, want) in zip(got, map(_product_oracle, ops)):
        assert w == w0 and (rep.passed, rep.witnesses, rep.details) == \
            (want.passed, want.witnesses, want.details)
    assert {rep.details["arithmetic"] for _, rep in got} == {"float64", "int64", "int"}
    assert any(u0 != -(rep.details["degree_bound"] // 2)
               for _, rep in got for _, u0, _ in rep.witnesses)
