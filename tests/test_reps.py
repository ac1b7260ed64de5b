import random
from fractions import Fraction

import numpy as np
import pytest

from twyang.exact import P_ONE, RatFunc, poly, rf, series_expand
from twyang.liealg import so2_char, sp2_module, sp2_on_so3
from twyang.reps import (
    OperatorMatrix,
    TwistedModule,
    bridge_so3,
    bridge_so4,
    bridge_sp2,
    check_embedding_brackets,
    eval_so3,
    eval_so4,
    eval_sp2,
    extract_x_weights,
    highest_weight_extract,
    olshanskii_eval,
    onedim_module,
    restrict_v_j,
    restrict_v_plus,
    sklyanin_det2,
    tensor_twisted,
    unitary_scalar,
    vector_eval_x,
    verify_olshanskii,
    verify_twisted,
    verify_x,
)
from twyang.rkmat import g_matrix, pair
from twyang.tensors import theta

ALL_PAIRS = [
    pair("B0", 3), pair("C0", 2), pair("D0", 4), pair("CI", 2), pair("DIII", 4),
    pair("BIa", 5, 3, 2), pair("BIb", 3, 2, 1), pair("CII", 4, 2, 2),
    pair("DIa", 4, 2, 2),
]


@pytest.mark.parametrize("pt", ALL_PAIRS, ids=str)
def test_onedim_verifies(pt):
    rep = verify_twisted(onedim_module(pt))
    assert rep.passed and rep.details["w"] == 1


def test_onedim_rejects_extra_parameter():
    with pytest.raises(ValueError):
        onedim_module(pair("B0", 3), a=1)


def test_onedim_one_param_weight():
    m = onedim_module(pair("CI", 4), a=Fraction(3, 7))
    hw = highest_weight_extract(m)
    want = RatFunc.of(1) + rf((Fraction(3, 7),), (0, 1))
    assert hw.weights == {1: want, 2: want}


def test_eval_sp2_weights_and_w():
    for mu in [0, -1, -2]:
        m = eval_sp2("C0", mu)
        assert verify_twisted(m).passed
        hw = highest_weight_extract(m)
        assert hw.weights[1] == RatFunc.of(1) + rf((2 * Fraction(mu),), (-2, 1))
        w = unitary_scalar(m)
        assert w == hw.weights[1] * hw.weights[1].reflect()
    for mu in [0, Fraction(1, 2), Fraction(3, 7)]:
        m = eval_sp2("CI", mu)
        assert verify_twisted(m).passed
        hw = highest_weight_extract(m)
        assert hw.weights[1] == RatFunc.of(1) + rf((2 * Fraction(mu),), (0, 1))


def test_eval_so3_weight_display():
    for mu in [0, Fraction(-1, 2), -1]:
        m = eval_so3(mu)
        assert verify_twisted(m).passed
        hw = highest_weight_extract(m)
        mu = Fraction(mu)
        den1 = poly(Fraction(-3, 4), 1) * poly(Fraction(-1, 4), 1)
        want1 = RatFunc.of(1) + RatFunc(poly(mu * mu - mu, 2 * mu), den1)
        assert hw.weights[1] == want1
        den0 = den1 * poly(Fraction(-1, 4), 1)
        num0 = poly(Fraction(-1, 4), -1) * (mu * mu) - poly(Fraction(-1, 4), 1) * mu
        want0 = RatFunc.of(1) + RatFunc(num0, den0)
        assert hw.weights[0] == want0
        assert unitary_scalar(m) == want1 * want1.reflect()


def test_eval_so4_weight_display():
    for variant, mu1, mu2 in [("D0", 0, -1), ("D0", -1, -1), ("DIII", 1, 0),
                              ("DIII", Fraction(1, 2), Fraction(-1, 2))]:
        m = eval_so4(variant, mu1, mu2)
        assert verify_twisted(m).passed
        hw = highest_weight_extract(m)
        mu1, mu2 = Fraction(mu1), Fraction(mu2)
        if variant == "DIII":
            den = poly(0, -1, 1)
            w1 = RatFunc.of(1) + RatFunc(poly(2 * mu1), poly(0, 1)) + RatFunc(
                poly(mu1**2 - mu2**2 + mu1 - mu2), den)
            w2 = RatFunc.of(1) + RatFunc(poly(2 * mu2), poly(0, 1)) + RatFunc(
                poly(mu2**2 - mu1**2 + mu2 - mu1), den)
        else:
            den = poly(-1, 1) * poly(-1, 1)
            w1 = RatFunc.of(1) + RatFunc(poly(2 * mu1), poly(-1, 1)) + RatFunc(
                poly(mu1**2 - mu2**2), den)
            w2 = RatFunc.of(1) + RatFunc(poly(2 * mu2), poly(-1, 1)) + RatFunc(
                poly(mu2**2 - mu1**2), den)
        assert hw.weights[1] == w1 and hw.weights[2] == w2
        assert unitary_scalar(m) == w2 * w2.reflect()


def test_eval_rejects_inadmissible_weights():
    with pytest.raises(ValueError):
        eval_sp2("C0", 1)
    with pytest.raises(ValueError):
        eval_so3(Fraction(1, 4))
    with pytest.raises(ValueError):
        eval_so4("D0", 1, 0)


# ---------------------------------------------------------------------------
# Olshanskii modules
# ---------------------------------------------------------------------------


def test_olshanskii_trivial_sdet():
    om = olshanskii_eval(-1, sp2_module(0))
    assert verify_olshanskii(om).passed
    sdet, rep = sklyanin_det2(om)
    assert rep.passed and sdet == rf((1, 2), (-1, 2))  # (2u+1)/(2u-1)
    om = olshanskii_eval(1, so2_char(0))
    sdet, rep = sklyanin_det2(om)
    assert rep.passed and sdet == RatFunc.of(1)


def test_olshanskii_sdet_scalar_on_3dim():
    om = olshanskii_eval(-1, sp2_module(-2))
    assert om.dim == 3
    assert verify_olshanskii(om).passed
    sdet, rep = sklyanin_det2(om)
    assert rep.passed and sdet is not None


def test_bridge_sp2_matches_eval():
    for mu in [0, -1, -2]:
        b = bridge_sp2("C0", olshanskii_eval(-1, sp2_module(mu)))
        e = eval_sp2("C0", mu)
        for k in set(b.op.blocks) | set(e.op.blocks):
            assert np.array_equal(b.op.entry(*k), e.op.entry(*k))
    for mu in [0, Fraction(1, 2)]:
        b = bridge_sp2("CI", olshanskii_eval(1, so2_char(mu)))
        e = eval_sp2("CI", mu)
        for k in set(b.op.blocks) | set(e.op.blocks):
            assert np.array_equal(b.op.entry(*k), e.op.entry(*k))


def test_bridge_sp2_trivial_is_identity():
    b = bridge_sp2("C0", olshanskii_eval(-1, sp2_module(0)))
    assert b.op.entry(1, 1)[0, 0] == RatFunc.of(1)
    assert b.op.entry(-1, -1)[0, 0] == RatFunc.of(1)
    assert not np.any(b.op.entry(1, -1))


@pytest.mark.parametrize("mu", [0, Fraction(-1, 2), -1, Fraction(-3, 2), -2])
def test_bridge_so3_matches_eval(mu):
    om = olshanskii_eval(-1, sp2_on_so3(mu))
    assert verify_olshanskii(om).passed
    b = bridge_so3(om)
    e = eval_so3(mu)
    for k in set(b.op.blocks) | set(e.op.blocks):
        assert np.array_equal(b.op.entry(*k), e.op.entry(*k)), k
    sdet, rep = sklyanin_det2(om)
    assert rep.passed


# highest weights of the so_3 bridges of two sp_2 evaluation modules; they do
# not depend on the basis chosen for the symmetric square of C^2
BRIDGE_SO3_OF_SP2 = {
    -1: {0: rf(("5/16", "-1/2", 1), ("1/16", "-1/2", 1)), 1: rf(("-5/4", 1), ("-1/4", 1))},
    -2: {0: rf(("-35/64", "7/16", "-5/4", 1), ("-3/64", "7/16", "-5/4", 1)),
         1: rf(("35/16", -3, 1), ("3/16", -1, 1))},
}


@pytest.mark.parametrize("mu", [-1, -2])
def test_bridge_so3_of_rational_module_is_rational(mu):
    b = bridge_so3(olshanskii_eval(-1, sp2_module(mu)))
    assert all(type(x) is int for c in b.op.blocks.values() for x in c.flat)
    assert all(type(x) is Fraction for x in b.op.den.coeffs)
    assert verify_twisted(b).passed
    assert highest_weight_extract(b).weights == BRIDGE_SO3_OF_SP2[mu]
    blocks = dict(b.op.blocks)
    blocks[(1, 1)] = blocks[(1, 1)].copy()
    blocks[(1, 1)][0, 0, 0] += 1
    bad = OperatorMatrix(b.op.labels, b.op.family, b.dim, b.op.den, blocks, b.op.scale)
    assert not verify_twisted(TwistedModule(b.pair, bad)).passed


def test_bridge_so4_matches_eval():
    for mu1, mu2 in [(0, 0), (1, 0), (-1, -2)]:
        b = bridge_so4("DIII", olshanskii_eval(1, so2_char(mu1 + mu2)),
                       olshanskii_eval(-1, sp2_module(mu2 - mu1)))
        e = eval_so4("DIII", mu1, mu2)
        for k in set(b.op.blocks) | set(e.op.blocks):
            assert np.array_equal(b.op.entry(*k), e.op.entry(*k))
    for mu1, mu2 in [(0, -1), (-1, -1)]:
        b = bridge_so4("D0", olshanskii_eval(-1, sp2_module(mu1 + mu2)),
                       olshanskii_eval(-1, sp2_module(mu2 - mu1)))
        e = eval_so4("D0", mu1, mu2)
        for k in set(b.op.blocks) | set(e.op.blocks):
            assert np.array_equal(b.op.entry(*k), e.op.entry(*k))


def test_bridge_sign_validation():
    with pytest.raises(ValueError):
        bridge_sp2("C0", olshanskii_eval(1, so2_char(0)))
    with pytest.raises(ValueError):
        bridge_so3(olshanskii_eval(1, so2_char(0)))


# ---------------------------------------------------------------------------
# X-modules and tensors
# ---------------------------------------------------------------------------


def test_vector_eval_x_limit_and_rtt():
    x = vector_eval_x(3, "orthogonal", 0)
    assert verify_x(x).passed
    # u -> infinity limit is the identity pattern
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            m = x.op.entry(i, j)
            for r in range(3):
                for c in range(3):
                    lim = m[r, c].value_at_infinity()
                    assert lim == (1 if (i == j and r == c) else 0)


def test_vector_eval_x_weights_satisfy_nontrivial_relation():
    for N, fam in [(3, "orthogonal"), (4, "symplectic"), (4, "orthogonal")]:
        x = vector_eval_x(N, fam, Fraction(1, 3))
        hw = extract_x_weights(x)
        assert len(hw.candidates) == 1
        lam = hw.candidates[0][1]
        n = N // 2
        ka = Fraction(N, 2) + (1 if fam == "symplectic" else -1)
        lo = 0 if N % 2 else 1
        for i in range(lo, n):
            shift = -ka + n - i
            lhs = lam[-i] / lam[-i - 1]
            rhs = (lam[i + 1] / lam[i]).substitute_affine(1, shift)
            assert lhs == rhs, (N, fam, i)


def rf_matmul(a, b):
    return a @ b


def test_tensor_with_onedim_is_tgt_product():
    # with a one-dimensional right factor S(u) = G(u), the tensor action is
    # T(u-k/2) G(u) T^t(-u+k/2) computed directly on W
    pt = pair("CI", 4)
    x = vector_eval_x(4, "symplectic", Fraction(1, 2))
    v = onedim_module(pt)
    tm = tensor_twisted(x, v)
    ka2 = pt.kappa / 2
    g = pt.g_diagonal()
    labs = pt.labels()
    for i in labs:
        for j in labs:
            acc = np.empty((4, 4), dtype=object)
            acc[:] = RatFunc.of(0)
            for a in labs:
                t1 = np.vectorize(lambda e: e.substitute_affine(1, -ka2), otypes=[object])(x.op.entry(i, a))
                # (T^t)_{aj}(-u+k/2) = theta_aj t_{-j,-a}(-u+k/2)
                t2 = np.vectorize(lambda e: e.substitute_affine(-1, ka2), otypes=[object])(x.op.entry(-j, -a))
                th = theta(pt.family, a, j)
                acc = acc + (RatFunc.of(g[a] * th) * t1) @ t2
            got = tm.op.entry(i, j)[: 4, : 4]  # d_V = 1: flat W-block
            assert np.array_equal(got, acc), (i, j)


def test_tensor_weights_tilde_product_formula():
    from twyang.classify import TildeTuple, WeightTuple, tilde

    for pt, fam, a in [(pair("CI", 4), "symplectic", 0),
                       (pair("D0", 4), "orthogonal", Fraction(1, 3)),
                       (pair("B0", 3), "orthogonal", 0),
                       (pair("BIa", 5, 3, 2), "orthogonal", 0)]:
        x = vector_eval_x(pt.N, fam, a)
        v = onedim_module(pt)
        tm = tensor_twisted(x, v)
        hw = highest_weight_extract(tm)
        assert len(hw.candidates) == 1
        lam = extract_x_weights(x).candidates[0][1]
        gamma_t = tilde(WeightTuple(pt, hw.weights)).tmu
        muv_t = tilde(WeightTuple(pt, {i: v.op.entry(i, i)[0, 0] for i in pt.i_range})).tmu
        ka2 = pt.kappa / 2
        for i in pt.i_range:
            expect = muv_t[i] * lam[i].substitute_affine(1, -ka2) * lam[-i].substitute_affine(-1, ka2)
            assert gamma_t[i] == expect, (str(pt), i)


def test_tensor_weights_restriction_corollary():
    # first kind: tmu_i = 2u lam_i(u-k/2) lam_{-i}(-u+k/2) (bold k = n);
    # second kind BIa: prefactors (1 + c u)/(1 - c u)-type per the corollary
    from twyang.classify import WeightTuple, tilde

    two_u = RatFunc(poly(0, 2))
    for pt, fam in [(pair("CI", 4), "symplectic"), (pair("D0", 4), "orthogonal"),
                    (pair("B0", 5), "orthogonal"), (pair("C0", 2), "symplectic")]:
        x = vector_eval_x(pt.N, fam, 0)
        tm = tensor_twisted(x, onedim_module(pt))
        hw = highest_weight_extract(tm)
        lam = extract_x_weights(x).candidates[0][1]
        gt = tilde(WeightTuple(pt, hw.weights)).tmu
        ka2 = pt.kappa / 2
        for i in pt.i_range:
            prod = lam[i].substitute_affine(1, -ka2) * lam[-i].substitute_affine(-1, ka2)
            assert gt[i] == two_u * prod, (str(pt), i)
    pt = pair("BIa", 5, 3, 2)
    x = vector_eval_x(5, "orthogonal", 0)
    tm = tensor_twisted(x, onedim_module(pt))
    gt = tilde(WeightTuple(pt, highest_weight_extract(tm).weights)).tmu
    lam = extract_x_weights(x).candidates[0][1]
    c, k, ell = pt.c, pt.bold_k, Fraction(pt.ell)
    ka2 = pt.kappa / 2
    for i in pt.i_range:
        prod = lam[i].substitute_affine(1, -ka2) * lam[-i].substitute_affine(-1, ka2)
        if i > k:
            pref = RatFunc(poly(1, c), poly(1, -c))
        else:
            pref = RatFunc(poly(1 + c * ell, -c), poly(1, -c))
        assert gt[i] == two_u * pref * prod, i


def test_tensor_w_is_multiplicative():
    # w on W (x) V equals the T-part scalar z(-u-k/2) z(u-k/2) times w_V;
    # oracle: z from T(u) T^t(u+k) = z(u) I computed on W directly
    pt = pair("CI", 4)
    x = vector_eval_x(4, "symplectic", 0)
    for v, wv in [(onedim_module(pt), RatFunc.of(1)),
                  (onedim_module(pt, a=Fraction(2, 5)),
                   RatFunc.of(1) - rf((Fraction(4, 25),), (0, 0, 1)))]:
        tm = tensor_twisted(x, v)
        w = unitary_scalar(tm)
        ka = pt.kappa
        # z(u): (1,1)-entry of T(u) T^t(u+kappa)
        acc = RatFunc.of(0)
        d = x.dim
        ent = np.empty((d, d), dtype=object)
        ent[:] = RatFunc.of(0)
        for a in pt.labels():
            t1 = x.op.entry(2, a)
            t2 = np.vectorize(lambda e: e.substitute_affine(1, ka), otypes=[object])(
                x.op.entry(-2, -a))
            ent = ent + RatFunc.of(theta(pt.family, a, 2)) * (t1 @ t2)
        z = ent[0, 0]
        zz = z.substitute_affine(-1, -ka / 2) * z.substitute_affine(1, -ka / 2)
        assert w == zz * wv


# ---------------------------------------------------------------------------
# restrictions
# ---------------------------------------------------------------------------


def test_restrict_v_plus_onedim():
    m = onedim_module(pair("CI", 4))
    sub, rep = restrict_v_plus(m)
    assert rep.passed and sub.pair == pair("CI", 2) and sub.dim == 1


def test_restrict_v_plus_tensor_ci():
    x = vector_eval_x(4, "symplectic", 0)
    tm = tensor_twisted(x, onedim_module(pair("CI", 4)))
    sub, rep = restrict_v_plus(tm)
    assert rep.passed, rep.as_dict()
    assert sub.pair == pair("CI", 2)
    hw_par = highest_weight_extract(tm).weights
    hw_sub = highest_weight_extract(sub).weights
    inv2u = RatFunc(P_ONE, poly(0, 2))
    half = Fraction(1, 2)
    for i in sub.pair.i_range:
        mc = hw_par[i].substitute_affine(1, half) + inv2u * hw_par[2].substitute_affine(1, half)
        assert hw_sub[i] == mc


def test_restrict_v_plus_bcd0_with_h():
    x = vector_eval_x(4, "symplectic", Fraction(1, 3))
    tm = tensor_twisted(x, onedim_module(pair("C0", 4)))
    sub, rep = restrict_v_plus(tm)
    assert rep.passed, rep.as_dict()
    hw_par = highest_weight_extract(tm).weights
    hw_sub = highest_weight_extract(sub).weights
    kp = pair("C0", 4).kappa - 1
    h = RatFunc(poly(-2 * kp - 1, 2), poly(-2 * kp, 2))
    inv2u = RatFunc(P_ONE, poly(0, 2))
    half = Fraction(1, 2)
    for i in sub.pair.i_range:
        mc = h * (hw_par[i].substitute_affine(1, half) + inv2u * hw_par[2].substitute_affine(1, half))
        assert hw_sub[i] == mc


def test_restrict_v_plus_rejects_unsupported():
    with pytest.raises(ValueError):
        restrict_v_plus(onedim_module(pair("CII", 4, 2, 2)))


def test_restrict_v_j_modules():
    m = eval_so4("DIII", 1, 0)
    bm, rep = restrict_v_j(m)
    assert rep.passed and bm.n == 2 and bm.ell == 0
    m = eval_so4("D0", 0, -1)
    bm, rep = restrict_v_j(m)
    assert rep.passed
    m = onedim_module(pair("BIb", 3, 2, 1))
    bm, rep = restrict_v_j(m)
    assert rep.passed and rep.details["BB_scalar"] == 1
    # b_ij(u) = [pm] g_ij(u) on the one-dimensional module ([pm] = -1 for BIb)
    g = g_matrix(pair("BIb", 3, 2, 1))
    assert bm.op.entry(1, 1)[0, 0] == -g[((1,), (1,))]


# ---------------------------------------------------------------------------
# structural invariants and serialization
# ---------------------------------------------------------------------------


def test_embedding_brackets_on_modules():
    for m in [eval_sp2("C0", -1), eval_so3(Fraction(-1, 2)),
              eval_so4("DIII", 1, 0), onedim_module(pair("BIa", 5, 3, 2))]:
        assert check_embedding_brackets(m).passed, m.provenance


def test_serialization_round_trip(tmp_path):
    from twyang import serialize

    m = eval_so3(-1)
    f = tmp_path / "m.json"
    serialize.dump(m, f)
    m2 = serialize.load(f)
    assert m2.pair == m.pair and m2.dim == m.dim
    for k in set(m.op.blocks) | set(m2.op.blocks):
        assert np.array_equal(m.op.entry(*k), m2.op.entry(*k))
    assert verify_twisted(m2).passed
    x = vector_eval_x(3, "orthogonal", Fraction(1, 2))
    f2 = tmp_path / "x.json"
    serialize.dump(x, f2)
    x2 = serialize.load(f2)
    assert verify_x(x2).passed


def test_corrupted_module_fails_with_witness():
    m = eval_so3(-1)
    bad = dict(m.op.blocks)
    bad[(1, 1)] = bad[(1, 1)].copy()
    bad[(1, 1)][0, 0, 0] += 1  # s_11[0, 0] gains 1/den(u)
    mb = TwistedModule(m.pair, OperatorMatrix(m.op.labels, m.op.family, m.op.dim,
                                              m.op.den, bad), "corrupted")
    rep = verify_twisted(mb)
    assert not rep.passed and rep.witnesses
