"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` (or through the full suite);
every check is exact, and the stated time budgets are enforced.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from twyang.classify import (
    Certificate,
    WeightTuple,
    check_nontrivial,
    classify,
    construct_from_cert,
    mu_factorize_b0,
    p1_symmetry_center,
    tilde,
)
from twyang.exact import (
    P_ONE,
    Poly,
    RatFunc,
    TruncSeries,
    factor_shifted_square,
    poly,
    rf,
    series_expand,
)
from twyang.liealg import so2_char, sp2_module, sp2_on_so3
from twyang.reps import (
    bridge_so3,
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
    verify_twisted,
)
from twyang.rkmat import (
    all_supported_pairs,
    check_reflection,
    check_symmetry,
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
from twyang.tensors import LabeledMatrix, ORTHOGONAL, op_P, op_Q, theta

# evaluation-module grids used by criteria 4, 5 and 8 (dims <= 9)
SP2_C0_GRID = [0, -1, -2, -3]
SP2_CI_GRID = [0, Fraction(1, 2), -1, Fraction(3, 7)]
SO3_GRID = [0, Fraction(-1, 2), -1, Fraction(-3, 2)]
SO4_D0_GRID = [(0, 0), (Fraction(-1, 2), Fraction(-1, 2)), (0, -1), (-1, -1), (0, -2)]
SO4_DIII_GRID = [(0, 0), (1, 0), (Fraction(1, 2), Fraction(-1, 2)), (-1, -2)]


def _line(num, name, ok, extra=""):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {name} {extra}")
    assert ok


def all_modules_for_criterion_4():
    mods = []
    for mu in SP2_C0_GRID:
        mods.append(eval_sp2("C0", mu))
    for mu in SP2_CI_GRID:
        mods.append(eval_sp2("CI", mu))
    for mu in SO3_GRID:
        mods.append(eval_so3(mu))
    for mu1, mu2 in SO4_D0_GRID:
        mods.append(eval_so4("D0", mu1, mu2))
    for mu1, mu2 in SO4_DIII_GRID:
        mods.append(eval_so4("DIII", mu1, mu2))
    for pt in [pair("B0", 3), pair("C0", 2), pair("D0", 4), pair("CI", 2),
               pair("DIII", 4), pair("BIa", 5, 3, 2), pair("BIb", 3, 2, 1),
               pair("CII", 4, 2, 2), pair("DIa", 4, 2, 2)]:
        mods.append(onedim_module(pt))
    return mods


def test_criterion_01_ybe_suite():
    cases = [("gl", N) for N in range(2, 7)]
    cases += [(ORTHOGONAL, N) for N in range(3, 7)]
    cases += [("symplectic", N) for N in (2, 4, 6)]
    worst = 0.0
    for fam, N in cases:
        t0 = time.time()
        rep = verify_r_matrix(N, fam)
        dt = time.time() - t0
        worst = max(worst, dt)
        assert rep.passed, (fam, N)
        assert dt <= 60, (fam, N, dt)
    _line(1, "YBE suite glN N=2..6, gN orth 3..6 / sympl 2,4,6", True,
          f"(worst instance {worst:.2f}s)")


def test_criterion_02_kmatrix_suite():
    pairs = all_supported_pairs(6)
    for pt in pairs:
        rep = verify_k_matrix(pt)
        assert rep.passed, (str(pt), rep.as_dict())
    _line(2, f"K-matrix suite: RE + unitarity + symmetry + p-identity "
             f"for {len(pairs)} pairs (N <= 6)", True)


def test_criterion_03_one_parameter_family():
    rng = random.Random(333)
    worst = 0.0
    count = 0
    for tag, N in [("CI", 2), ("CI", 4), ("CI", 6), ("DIII", 4), ("DIII", 6)]:
        pt = pair(tag, N)
        R = r_matrix_for_pair(pt)
        for _ in range(5):
            a = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            K = k_one_param(pt, a)
            t0 = time.time()
            assert check_reflection(R, K).passed, (tag, N, a)
            assert check_symmetry(K, pt, one_param=True).passed, (tag, N, a)
            dt = time.time() - t0
            worst = max(worst, dt)
            assert dt <= 60
            count += 1
    _line(3, f"one-parameter family RE + symmetry, {count} random (pair, a)",
          True, f"(worst instance {worst:.2f}s; DIII N=2 excluded: so_2 is not "
                f"a valid orthogonal rank)")


def test_criterion_04_module_relation_suite():
    t0 = time.time()
    mods = all_modules_for_criterion_4()
    for m in mods:
        assert m.dim <= 9, m.provenance
        rep = verify_twisted(m)
        assert rep.passed, (m.provenance, rep.as_dict())
    total = time.time() - t0
    assert total <= 300, total
    _line(4, f"module relation suite ([s,s], s=s, scalar w) on {len(mods)} "
             f"modules", True, f"({total:.1f}s total)")


def test_criterion_05_weight_formulas():
    # sp2 corollary
    for mu in SP2_C0_GRID:
        m = eval_sp2("C0", mu)
        w = highest_weight_extract(m).weights
        assert w[1] == RatFunc.of(1) + rf((2 * Fraction(mu),), (-2, 1))
        assert unitary_scalar(m) == w[1] * w[1].reflect()
    for mu in SP2_CI_GRID:
        m = eval_sp2("CI", mu)
        w = highest_weight_extract(m).weights
        assert w[1] == RatFunc.of(1) + rf((2 * Fraction(mu),), (0, 1))
        assert unitary_scalar(m) == w[1] * w[1].reflect()
    # so3 corollary display
    for mu in SO3_GRID:
        m = eval_so3(mu)
        w = highest_weight_extract(m).weights
        mu = Fraction(mu)
        den1 = poly(Fraction(-3, 4), 1) * poly(Fraction(-1, 4), 1)
        assert w[1] == RatFunc.of(1) + RatFunc(poly(mu * mu - mu, 2 * mu), den1)
        num0 = poly(Fraction(-1, 4), -1) * (mu * mu) - poly(Fraction(-1, 4), 1) * mu
        assert w[0] == RatFunc.of(1) + RatFunc(num0, den1 * poly(Fraction(-1, 4), 1))
        assert unitary_scalar(m) == w[1] * w[1].reflect()
    # so4 corollary displays, both variants
    for variant, grid in [("D0", SO4_D0_GRID), ("DIII", SO4_DIII_GRID)]:
        for mu1, mu2 in grid:
            m = eval_so4(variant, mu1, mu2)
            w = highest_weight_extract(m).weights
            mu1, mu2 = Fraction(mu1), Fraction(mu2)
            if variant == "DIII":
                den = poly(0, -1, 1)
                e1 = RatFunc.of(1) + RatFunc(poly(2 * mu1), poly(0, 1)) + RatFunc(
                    poly(mu1**2 - mu2**2 + mu1 - mu2), den)
                e2 = RatFunc.of(1) + RatFunc(poly(2 * mu2), poly(0, 1)) + RatFunc(
                    poly(mu2**2 - mu1**2 + mu2 - mu1), den)
            else:
                den = poly(-1, 1) * poly(-1, 1)
                e1 = RatFunc.of(1) + RatFunc(poly(2 * mu1), poly(-1, 1)) + RatFunc(
                    poly(mu1**2 - mu2**2), den)
                e2 = RatFunc.of(1) + RatFunc(poly(2 * mu2), poly(-1, 1)) + RatFunc(
                    poly(mu2**2 - mu1**2), den)
            assert w[1] == e1 and w[2] == e2
            assert unitary_scalar(m) == e2 * e2.reflect()
    _line(5, "extracted weights equal the displayed evaluation formulas; "
             "w(u) = mu_n(-u) mu_n(u) on each", True)


def test_criterion_06_bridge_consistency():
    for mu in [0, Fraction(-1, 2), -1, Fraction(-3, 2), -2]:  # dims 1..5
        om = olshanskii_eval(-1, sp2_on_so3(mu))
        b = bridge_so3(om)
        e = eval_so3(mu)
        for k in set(b.op.blocks) | set(e.op.blocks):
            assert np.array_equal(b.op.entry(*k), e.op.entry(*k)), (mu, k)
        sdet, rep = sklyanin_det2(om)
        assert rep.passed and sdet is not None, mu
    # sdet agreement and scalarity on plain evaluation modules as well
    for sign, lie in [(-1, sp2_module(-2)), (1, so2_char(Fraction(3, 2)))]:
        sdet, rep = sklyanin_det2(olshanskii_eval(sign, lie))
        assert rep.passed and sdet is not None
    _line(6, "bridge_so3 o olshanskii_eval(-) = eval_so3 entrywise "
             "(sl2 dims 1..5); Sklyanin determinant agrees and is scalar", True)


def test_criterion_07_tensor_and_restriction():
    two_u = RatFunc(poly(0, 2))
    cases = [(pair("CI", 2), "symplectic"), (pair("CI", 4), "symplectic"),
             (pair("CI", 6), "symplectic"), (pair("C0", 2), "symplectic"),
             (pair("C0", 4), "symplectic"), (pair("B0", 3), "orthogonal"),
             (pair("B0", 5), "orthogonal"), (pair("D0", 4), "orthogonal"),
             (pair("D0", 6), "orthogonal"), (pair("DIII", 4), "orthogonal"),
             (pair("DIII", 6), "orthogonal"), (pair("C0", 6), "symplectic")]
    for pt, fam in cases:
        x = vector_eval_x(pt.N, fam, 0)
        v = onedim_module(pt)
        tm = tensor_twisted(x, v)
        hw = highest_weight_extract(tm)
        assert hw.candidates, str(pt)
        lam = extract_x_weights(x).candidates[0][1]
        gt = tilde(WeightTuple(pt, hw.candidates[0][1])).tmu
        mt = tilde(WeightTuple(pt, {i: v.op.entry(i, i)[0, 0] for i in pt.i_range})).tmu
        ka2 = pt.kappa / 2
        for i in pt.i_range:
            prod = lam[i].substitute_affine(1, -ka2) * lam[-i].substitute_affine(-1, ka2)
            # tensor formula
            assert gt[i] == mt[i] * prod, (str(pt), i)
            # restriction corollary, first kind with bold k = n: tmu_i = 2u * prod
            assert gt[i] == two_u * prod, (str(pt), i)
    # V+ restriction of the sp4/CI tensor: verifies as sp2/CI, weight matches
    x = vector_eval_x(4, "symplectic", 0)
    tm = tensor_twisted(x, onedim_module(pair("CI", 4)))
    sub, rep = restrict_v_plus(tm)
    assert rep.passed and sub.pair == pair("CI", 2)
    par = highest_weight_extract(tm).weights
    got = highest_weight_extract(sub).weights
    inv2u = RatFunc(P_ONE, poly(0, 2))
    half = Fraction(1, 2)
    for i in sub.pair.i_range:
        expect = par[i].substitute_affine(1, half) + inv2u * par[2].substitute_affine(1, half)
        assert got[i] == expect
    # V^J restriction satisfies the reflection-algebra commutators exactly
    for m in [eval_so4("DIII", 1, 0), eval_so4("D0", 0, -1),
              onedim_module(pair("BIa", 5, 3, 2))]:
        bm, rep = restrict_v_j(m)
        assert rep.passed, m.provenance
    _line(7, "tensor weights satisfy the product and restriction formulas "
             "(N <= 6); V+ of the sp4/CI tensor verifies with the induction "
             "weight; V^J satisfies the reflection-algebra relation", True)


def test_criterion_08_classification_round_trip():
    rng = random.Random(888)
    pairs = [pair("C0", 2), pair("C0", 4), pair("C0", 6), pair("B0", 3),
             pair("B0", 5), pair("D0", 4), pair("D0", 6), pair("CI", 2),
             pair("CI", 4), pair("CI", 6), pair("DIII", 4), pair("DIII", 6)]

    def rand_q():
        deg = rng.randint(0, 2)
        roots = [Fraction(rng.randint(-6, 6), 2) for _ in range(deg)]  # in [-3, 3]
        return Poly.from_roots(roots)

    done = 0
    while done < 50:
        pt = rng.choice(pairs)
        n = pt.n
        Q = [rand_q() for _ in range(n)]
        P = []
        for i in range(1, n + 1):
            c = p1_symmetry_center(pt) if i == 1 else Fraction(n - i + 2)
            P.append(Q[i - 1] * Q[i - 1].compose_affine(-1, c)
                     * Fraction((-1) ** Q[i - 1].degree))
        gamma = None
        if pt.tag in ("CI", "DIII"):
            gamma = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            if P[0].eval(gamma) == 0:
                continue
        cert = Certificate(pt, P, gamma)
        wt = construct_from_cert(cert, Q)
        v = classify(wt, deg_max=18)
        assert v.finite_dim == "yes", (str(pt), v.as_dict())
        assert v.certificate.P == cert.P and v.certificate.gamma == cert.gamma
        done += 1
    # every module of criterion 4 classifies as finite-dimensional with a
    # certificate obeying the symmetry constraints
    classified = 0
    for m in all_modules_for_criterion_4():
        pt = m.pair
        hw = highest_weight_extract(m)
        wt = WeightTuple(pt, hw.weights)
        v = classify(wt)
        if pt.tag in ("B0", "C0", "D0", "CI", "DIII"):
            assert v.finite_dim == "yes", (m.provenance, v.as_dict())
            for i, P in enumerate(v.certificate.P, start=1):
                c = p1_symmetry_center(pt) if i == 1 else Fraction(pt.n - i + 2)
                assert P.compose_affine(-1, c) == P
            classified += 1
        else:
            assert v.finite_dim == "necessary-conditions-only" and v.necessary_pass
    _line(8, f"50 random certificates survive classify o construct exactly; "
             f"{classified} constructed modules classify finite-dimensional "
             f"with symmetric certificates", True)


def test_criterion_09_negative_controls():
    # perturbed R-matrix (kappa -> kappa + 1) fails the YBE with a witness
    labs = [(i, k) for i in (-1, 0, 1) for k in (-1, 0, 1)]
    R = LabeledMatrix.identity(labs, RatFunc.of(1))
    R = R + op_P(3).map_values(lambda v: -v * RatFunc(P_ONE, poly(0, 1)))
    R = R + op_Q(3, ORTHOGONAL).map_values(
        lambda v: v * RatFunc(P_ONE, poly(Fraction(-3, 2), 1)))
    rep = check_yang_baxter(R)
    assert not rep.passed and rep.witnesses
    # weight violating the tilde product condition: nontrivial = False
    wt = WeightTuple(pair("D0", 4), {1: rf((1, 1), (0, 1)), 2: RatFunc.of(1)})
    v = classify(wt)
    assert not v.nontrivial and v.finite_dim == "no"
    # CI ratio with irrational pole structure: inconclusive, never a wrong "no"
    wt = WeightTuple(pair("CI", 2), {1: rf((2, 0, 1), (0, 0, 1))})
    v = classify(wt)
    assert v.finite_dim == "inconclusive"
    _line(9, "negative controls: YBE witness, nontrivial=false, "
             "irrational gamma -> inconclusive", True)


def test_criterion_10_series_layer():
    rng = random.Random(1010)
    for _ in range(100):
        h = TruncSeries([Fraction(1)] + [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                                         for _ in range(12)])
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        k = factor_shifted_square(h, a)
        assert k * k.shift_argument(a) == h
    for mu in SO3_GRID:
        w = highest_weight_extract(eval_so3(mu)).weights
        mc = mu_factorize_b0(w[0], w[1], 12)
        bridge = RatFunc.of(1) + RatFunc(poly(2 * Fraction(mu)), poly(Fraction(-1, 2), 1))
        assert mc == series_expand(bridge, 12)
    _line(10, "factor_shifted_square round trip (100 random, D=12); "
              "mu_factorize_b0 matches the bridge weight through D=12", True)
