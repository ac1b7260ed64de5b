import random
import sys
from fractions import Fraction

import pytest

from twyang.classify import (
    Certificate,
    SolveResult,
    TildeTuple,
    WeightTuple,
    check_mr,
    check_nontrivial,
    classify,
    construct_from_cert,
    extend_lambda,
    mu_factorize_b0,
    p1_symmetry_center,
    solve_P,
    solve_P_gamma,
    tilde,
    untilde,
    xgn_fd_check,
)
from twyang.exact import Poly, RatFunc, poly, rf, series_expand
from twyang.reps import (
    eval_so3,
    eval_so4,
    eval_sp2,
    extract_x_weights,
    highest_weight_extract,
    onedim_module,
    vector_eval_x,
)
from twyang.rkmat import pair


def test_tilde_rank_one():
    pt = pair("C0", 2)
    mu = rf((-2 + 2 * Fraction(-1), 1), (-2, 1))  # 1 + 2(-1)/(u-2)
    tt = tilde(WeightTuple(pt, {1: mu}))
    assert tt.tmu[1] == RatFunc(poly(0, 2)) * mu  # n = 1: (2u - 1 + 1) mu = 2u mu


def test_tilde_onedim_trivial_pairs():
    for pt in [pair("C0", 4), pair("B0", 5), pair("D0", 6)]:
        wt = WeightTuple(pt, {i: RatFunc.of(1) for i in pt.i_range})
        tt = tilde(wt)
        for i in pt.i_range:
            assert tt.tmu[i] == RatFunc(poly(0, 2))  # 2u


def test_tilde_untilde_random_bijection():
    rng = random.Random(31)
    for _ in range(20):
        pt = rng.choice([pair("C0", 4), pair("B0", 5), pair("D0", 6), pair("CI", 8)])
        g = pt.g_diagonal()
        mu = {i: RatFunc(poly(Fraction(rng.randint(-3, 3), 2), g[i]), poly(0, 1))
              for i in pt.i_range}
        wt = WeightTuple(pt, mu)
        assert untilde(tilde(wt)).mu == wt.mu


def test_weight_tuple_validates_infinity_value():
    with pytest.raises(ValueError):
        WeightTuple(pair("C0", 2), {1: rf((0, 2), (0, 1))})  # tends to 2, not 1


def test_nontrivial_constructed_modules():
    for m in [eval_sp2("C0", -2), eval_so3(-1), eval_so4("DIII", 1, 0),
              onedim_module(pair("BIa", 5, 3, 2))]:
        wt = WeightTuple(m.pair, highest_weight_extract(m).weights)
        ok, wit = check_nontrivial(wt)
        assert ok, (m.provenance, wit)


def test_nontrivial_counterexample():
    pt = pair("D0", 4)
    wt = WeightTuple(pt, {1: rf((1, 1), (0, 1)), 2: RatFunc.of(1)})
    ok, wit = check_nontrivial(wt)
    assert not ok and wit[0][0] == 1


def test_b_type_zero_component_condition():
    # an even perturbation of mu_0 violates the zero-component identity
    m = eval_so3(-1)
    w = highest_weight_extract(m).weights
    wt_ok = WeightTuple(m.pair, w)
    assert check_nontrivial(wt_ok)[0]
    bad = dict(w)
    bad[0] = bad[0] + rf((1,), (0, 0, 1))  # + 1/u^2
    ok, wit = check_nontrivial(WeightTuple(m.pair, bad))
    assert not ok


# ---------------------------------------------------------------------------
# Drinfeld solvers
# ---------------------------------------------------------------------------


def test_solve_p_trivial_and_single_root():
    assert solve_P(RatFunc.of(1), 1).P == Poly((1,))
    alpha = Fraction(5, 2)
    r = rf((1 - alpha, 1)) / rf((-alpha, 1))
    res = solve_P(r, 1)
    assert res.P == poly(-alpha, 1)


def test_solve_p_two_step_chain():
    # ratio (u+1-a)/(u-a-1) with shift 1: P = (u-a)(u-a-1); oracle by expansion
    a = Fraction(1, 3)
    P = poly(-a, 1) * poly(-a - 1, 1)
    oracle = RatFunc(P.compose_affine(1, 1), P)
    assert oracle == rf((1 - a, 1)) / rf((-a - 1, 1))
    res = solve_P(rf((1 - a, 1)) / rf((-a - 1, 1)), 1)
    assert res.P == P


def _solutions_by_degree(ratio, shift, degrees):
    """Every monic P with P(u+shift) B = A P, one linear solve per degree."""
    from twyang.linalg import solve as lin_solve

    A, B = ratio.num, ratio.den
    found = []
    for d in degrees:
        base = [Poly([0] * k + [1]).compose_affine(1, shift) * B - A * Poly([0] * k + [1])
                for k in range(d + 1)]
        top = max((p.degree for p in base if p), default=-1)
        rows = [[base[k].coeff(e) for k in range(d)] for e in range(top + 1)]
        rhs = [-base[d].coeff(e) for e in range(top + 1)]
        sol, _ = lin_solve(rows, rhs)
        if sol is not None:
            Q = Poly(list(sol) + [Fraction(1)])
            if not (Q.compose_affine(1, shift) * B - A * Q):
                found.append(Q)
    return found


def _degree_search(ratio, shift, sym_center, deg_max):
    """Oracle: the search degree by degree from deg A to deg_max, one linear
    solve per degree.  Returns (status, P)."""
    A, B = ratio.num, ratio.den
    if A.degree != B.degree or A.lead != 1:
        return "none", None
    for d in range(A.degree, deg_max + 1):
        found = _solutions_by_degree(ratio, shift, [d])
        if found:
            P = found[0]
            if sym_center is not None and P.compose_affine(-1, sym_center) != P:
                return "none", None
            return "found", P
    return "inconclusive", None


def _random_chains(rng, count):
    """(ratio, shift, sym_center) triples: shifted chains P(u+s)/P(u), with a
    symmetric P = (-1)^deg Q Q(-u+c) when a center is given (sometimes the
    wrong one), and some multiplied by a random (u+a)/(u+b)."""
    out = []
    for k in range(count):
        shift = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)])
        Q = Poly.from_roots([Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                             for _ in range(rng.randint(0, 3))])
        sym = None
        if k % 2:
            sym = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            P = Q * Q.compose_affine(-1, sym) * Fraction((-1) ** Q.degree)
            if rng.random() < 0.2:
                sym += 1
        else:
            P = Q
        ratio = RatFunc(P.compose_affine(1, shift), P)
        if rng.random() < 0.4:
            a, b = (Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(2))
            ratio = ratio * RatFunc(poly(a, 1), poly(b, 1))
        out.append((ratio, shift, sym))
    return out


def test_solve_p_uniqueness_across_degrees():
    # whenever solve_P succeeds at degree d, no other degree <= deg_max admits
    # a different solution
    a = Fraction(1, 3)
    P = poly(-a, 1) * poly(-a - 1, 1)
    ratio = RatFunc(P.compose_affine(1, 1), P)
    assert _solutions_by_degree(ratio, 1, range(0, 8)) == [P]


def test_solve_p_matches_degree_search_oracle():
    # same status and P as the search over every degree; where the search
    # gives up at its cap, the forced degree decides "none" or names d > deg_max
    rng = random.Random(4)
    seen = set()
    for ratio, shift, sym in _random_chains(rng, 90):
        old, old_P = _degree_search(ratio, shift, sym, 8)
        new = solve_P(ratio, shift, sym, deg_max=8)
        seen.add((old, new.status))
        if old == "inconclusive":
            assert new.status == "none" or (
                new.status == "inconclusive" and "> deg_max = 8" in new.detail
            ), (ratio, shift, new)
        else:
            assert (new.status, new.P) == (old, old_P), (ratio, shift, sym)
    assert {("found", "found"), ("none", "none"), ("inconclusive", "none")} <= seen


def test_solve_p_forced_degree_negative_controls():
    # d = (a_1 - b_1)/shift decides before any linear solve
    res = solve_P(rf((Fraction(1, 3), 1), (0, 1)), 1)  # d = 1/3
    assert res.status == "none" and "1/3" in res.detail
    res = solve_P(rf((0, 1), (1, 1)), 1)  # u/(u+1): d = -1
    assert res.status == "none" and "-1" in res.detail
    res = solve_P(rf((0, 1), (1, 1)), 1, deg_max=-5)  # still "no", whatever the cap
    assert res.status == "none"
    # d = 2 is an integer >= deg A, but P would need the roots -2, 1/2 (from A)
    # and 0, -3/2 (from B): no P of degree 2
    ratio = RatFunc(poly(3, 1) * poly(Fraction(1, 2), 1), poly(0, 1) * poly(Fraction(3, 2), 1))
    res = solve_P(ratio, 1)
    assert res.status == "none" and "forced degree 2" in res.detail
    assert _solutions_by_degree(ratio, 1, range(0, 17)) == []
    # (u+20)/u forces P = u(u+1)...(u+19): past the cap it is inconclusive,
    # naming d, and found once the cap allows it
    ratio = rf((20, 1), (0, 1))
    res = solve_P(ratio, 1)
    assert res.status == "inconclusive" and "degree 20 > deg_max = 16" in res.detail
    res = solve_P(ratio, 1, deg_max=20)
    assert res.status == "found" and res.P == Poly.from_roots(range(0, -20, -1))


def test_solve_p_one_linear_solve_per_call(monkeypatch):
    import sys

    from twyang.linalg import solve as lin_solve

    calls = []

    def counting_solve(rows, rhs):
        calls.append(len(rows))
        return lin_solve(rows, rhs)

    # the package re-exports the function classify, so take the module itself
    monkeypatch.setattr(sys.modules[solve_P.__module__], "solve", counting_solve)
    rng = random.Random(5)
    for ratio, shift, sym in _random_chains(rng, 40):
        calls.clear()
        res = solve_P(ratio, shift, sym)
        assert len(calls) <= 1
        if res.status == "found":
            assert len(calls) == 1
    calls.clear()
    assert solve_P(rf((Fraction(1, 3), 1), (0, 1)), 1).status == "none" and not calls


def _sympy_poly(sympy, p, u):
    return sum((sympy.Rational(c.numerator, c.denominator) * u**k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def test_rational_roots_match_sympy():
    # SymPy as an independent oracle: the roots of the linear factors of its
    # factorization over Q, on random integer polynomials and on products with
    # zero, repeated and irrational roots
    sympy = pytest.importorskip("sympy")
    from twyang.linalg import rational_roots

    u = sympy.Symbol("u")
    rng = random.Random(6)
    polys = []
    for _ in range(40):
        cs = [rng.randint(-30, 30) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)]
        polys.append(Poly(cs))
    for _ in range(40):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        roots += rng.sample(roots, min(len(roots), rng.randint(0, 2)))  # repeated
        roots += [Fraction(0)] * rng.randint(0, 2)
        extra = Poly([rng.choice([2, 3, 5, 7]), 0, 1])  # u^2 + prime: no rational root
        polys.append(Poly.from_roots(roots) * extra * Fraction(rng.randint(1, 6), rng.randint(1, 6)))
    for _ in range(20):  # heights far past the reach of divisor enumeration
        roots = [Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**6))
                 for _ in range(rng.randint(1, 3))]
        extra = Poly([rng.randint(1, 10**20), rng.randint(-10**20, 10**20), 1])
        polys.append(Poly.from_roots(roots) * extra * Fraction(rng.randint(1, 10**9), 7))
    for p in polys:
        _, factors = sympy.Poly(_sympy_poly(sympy, p, u), u).factor_list()
        expected = sorted({Fraction(-f.nth(0)) / Fraction(f.nth(1))
                           for f, _ in factors if f.degree() == 1})
        assert rational_roots(p) == expected, p


def test_rational_roots_controls(monkeypatch):
    import time

    from twyang import linalg
    from twyang.linalg import rational_roots

    F = Fraction
    assert rational_roots(Poly()) == [] and rational_roots(poly(3)) == []
    assert rational_roots(Poly.from_roots([0, 0, F(5, 2)])) == [0, F(5, 2)]  # zero root
    rep = Poly.from_roots([F(1, 2)] * 3 + [-3] * 2 + [F(-7, 4)]) * 12
    assert rational_roots(rep) == [-3, F(-7, 4), F(1, 2)]  # repeated roots
    assert rational_roots(poly(2, 0, 1)) == []  # u^2 + 2
    lead = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29  # leading coefficient, many primes
    roots = [F(1, 6469693230), F(-29, 2 * 3 * 5), F(11, 13 * 17), F(46, 1)]
    p = Poly.from_roots(roots) * poly(1, 1, 1) * lead
    assert p.lead == lead and rational_roots(p) == sorted(roots)
    # roots 1, 3, 7 meet mod 2 and mod 3 (a double root there), so the prime
    # search has to go on to 5
    primes, real_primes = [], linalg._primes

    def recording_primes():
        for q in real_primes():
            primes.append(q)
            yield q

    monkeypatch.setattr(linalg, "_primes", recording_primes)
    assert rational_roots(Poly.from_roots([1, 3, 7])) == [1, 3, 7]
    assert primes == [2, 3, 5]
    # a constant term of 1e30: divisor enumeration would need ~1e15 steps
    r = F(10**15 + 37, 7)
    p = Poly.from_roots([r, -r]) * poly(3, 0, 1)
    t0 = time.perf_counter()
    assert rational_roots(p) == [-r, r]
    assert rational_roots(Poly.from_roots([r, -r]) * 49) == [-r, r]
    assert time.perf_counter() - t0 < 1.0


def test_found_p_satisfy_the_functional_equation_in_sympy(monkeypatch):
    # every P that solve_P finds, on random chains and inside classify round
    # trips, expands to P(u+s) B - A P = 0 in SymPy
    import sys

    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    cl = sys.modules[solve_P.__module__]
    found = []

    def recording_solve_P(ratio, shift, *args, **kwargs):
        res = solve_P(ratio, shift, *args, **kwargs)
        if res.status == "found":
            found.append((ratio, Fraction(shift), res.P))
        return res

    monkeypatch.setattr(cl, "solve_P", recording_solve_P)
    for ratio, shift, sym in _random_chains(random.Random(7), 40):
        recording_solve_P(ratio, shift, sym)
    Q = poly(-1, 1)
    certs = [
        (Certificate(pair("CI", 2), [Q * Q.compose_affine(-1, 4) * -1], Fraction(5)), [Q]),
        (Certificate(pair("D0", 4), [Poly((1,)), poly(Fraction(-3, 2), 1)
                                     * poly(Fraction(-1, 2), 1)]),
         [Poly((1,)), poly(Fraction(-3, 2), 1)]),
    ]
    for cert, qs in certs:
        assert cl.classify(construct_from_cert(cert, qs)).certificate == cert
    for m in [eval_so3(-1), eval_so4("DIII", 1, 0), eval_sp2("C0", -2)]:
        assert cl.classify(WeightTuple(m.pair, highest_weight_extract(m).weights)).finite_dim == "yes"
    assert len(found) > 20
    for ratio, s, P in found:
        A, B, Ps = (_sympy_poly(sympy, p, u) for p in (ratio.num, ratio.den, P))
        shifted = Ps.subs(u, u + sympy.Rational(s.numerator, s.denominator))
        assert sympy.expand(shifted * B - A * Ps) == 0, (ratio, s, P)


def test_solve_p_symmetry_veto():
    # unique P exists but fails a wrong symmetry center
    a = Fraction(2)
    r = rf((1 - a, 1)) / rf((-a, 1))
    res = solve_P(r, 1, sym_center=Fraction(100))
    assert res.status == "none"


def test_solve_p_gamma_pure_gamma_factor():
    kap = Fraction(2)
    gamma = Fraction(3)
    ratio = RatFunc(poly(gamma, -1), poly(gamma - kap, 1))  # (g-u)/(g+u-k)
    res = solve_P_gamma(ratio, 2, kap)
    assert res.status == "found" and res.P == Poly((1,)) and res.gamma == gamma


def test_solve_p_gamma_ci_evaluation_weight():
    # CI n=1 weight 1 + 2 mu/u: certificate (P = 1, gamma = 2 mu + 2)
    for mu in [0, Fraction(1, 2), -1]:
        tmu = RatFunc(poly(0, 2)) * (RatFunc.of(1) + rf((2 * Fraction(mu),), (0, 1)))
        ratio = tmu.substitute_affine(-1, 2) / tmu
        res = solve_P_gamma(ratio, 2, 2, sym_center=Fraction(4))
        assert res.status == "found" and res.P == Poly((1,))
        assert res.gamma == 2 * Fraction(mu) + 2


def test_solve_p_gamma_irrational_is_inconclusive():
    # tmu = 2u + 4/u: ratio numerator has irrational roots only
    pt = pair("CI", 2)
    wt = WeightTuple(pt, {1: rf((2, 0, 1), (0, 0, 1))})
    v = classify(wt)
    assert v.finite_dim == "inconclusive"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_eval_so3():
    for mu in [0, Fraction(-1, 2), -1]:
        wt = WeightTuple(pair("B0", 3), highest_weight_extract(eval_so3(mu)).weights)
        v = classify(wt)
        assert v.finite_dim == "yes"
        P1 = v.certificate.P[0]
        assert P1.compose_affine(-1, Fraction(3, 2)) == P1


def test_classify_eval_so4_diii():
    for mu1, mu2 in [(1, 0), (Fraction(1, 2), Fraction(-1, 2)), (-1, -2)]:
        wt = WeightTuple(pair("DIII", 4),
                         highest_weight_extract(eval_so4("DIII", mu1, mu2)).weights)
        v = classify(wt)
        assert v.finite_dim == "yes" and v.certificate.gamma is not None
        P1, P2 = v.certificate.P
        assert P1.compose_affine(-1, Fraction(2)) == P1
        assert P2.compose_affine(-1, Fraction(2)) == P2


def test_classify_nontrivial_false():
    wt = WeightTuple(pair("D0", 4), {1: rf((1, 1), (0, 1)), 2: RatFunc.of(1)})
    v = classify(wt)
    assert not v.nontrivial and v.finite_dim == "no" and v.certificate is None


def test_classify_necessary_only():
    for pt in [pair("BIa", 5, 3, 2), pair("CII", 4, 2, 2), pair("DIa", 6, 4, 2),
               pair("BIb", 3, 2, 1)]:
        m = onedim_module(pt)
        wt = WeightTuple(pt, highest_weight_extract(m).weights)
        v = classify(wt)
        assert v.finite_dim == "necessary-conditions-only"
        assert v.necessary_pass is True


# One weight per tag, verdict JSON captured before the condition-table
# rewrite of classify; it pins the order and the text of the diagnostics:
# the necessary-conditions gamma row (bold_k + 1) comes after the other rows,
# also when it is not the last index (DIa N=8), and so does its "gamma = " line.
# Weights are {i: (numerator, denominator)} with coefficients from u^0 up.
PINNED_VERDICTS = [
    (("B0", 3), {0: (("-35/64", "7/16", "-5/4", "1"), ("-3/64", "7/16", "-5/4", "1")),
                 1: (("35/16", "-3", "1"), ("3/16", "-1", "1"))}, 16,
     {"nontrivial": True, "finite_dim": "yes", "diagnostics": [],
      "certificate": {"P": ["u^4 + -3*u^3 + 17/8*u^2 + 3/16*u + -35/256"], "gamma": None}}),
    (("C0", 2), {1: (("1/3", "1"), ("0", "1"))}, 16,
     {"nontrivial": True, "finite_dim": "no",
      "diagnostics": ["(1, 'P would have degree -1/3, not an integer >= 2')"]}),
    (("D0", 4), {1: (("3/4", "0", "1"), ("1/4", "-1", "1")), 2: (("-3/2", "1"), ("-1/2", "1"))}, 1,
     {"nontrivial": True, "finite_dim": "inconclusive",
      "diagnostics": ["(2, 'P would have degree 2 > deg_max = 1')"]}),
    (("CI", 2), {1: (("2", "0", "1"), ("0", "0", "1"))}, 16,
     {"nontrivial": True, "finite_dim": "inconclusive",
      "diagnostics": ["(1, 'no rational gamma works and the cleared numerator has "
                      "non-rational roots; a complex gamma cannot be excluded')"]}),
    (("DIII", 4), {1: (("1", "1"), ("-1", "1")), 2: (("-2", "-1", "1"), ("0", "-1", "1"))}, 16,
     {"nontrivial": True, "finite_dim": "yes", "diagnostics": [],
      "certificate": {"P": ["1", "u^2 + -2*u"], "gamma": "2"}}),
    (("BIa", 5, 3, 2), {0: (("1",), ("1",)), 1: (("1",), ("1",)),
                        2: (("-1/4", "-1"), ("-1/4", "1"))}, 16,
     {"nontrivial": True, "finite_dim": "necessary-conditions-only",
      "diagnostics": ["(2, 'gamma = 5/4')"], "necessary_conditions_pass": True}),
    (("BIb", 3, 2, 1), {0: (("-1/4", "-1"), ("-1/4", "1")), 1: (("1",), ("1",))}, 16,
     {"nontrivial": True, "finite_dim": "necessary-conditions-only", "diagnostics": [],
      "necessary_conditions_pass": True}),
    (("CII", 8, 6, 2), {1: (("-6", "3/2", "-3/2", "1"), ("-6", "23/2", "-13/2", "1")),
                        2: (("1",), ("1",)), 3: (("1",), ("1",)),
                        4: (("-1", "-1"), ("-1", "1"))}, 4,
     {"nontrivial": True, "finite_dim": "inconclusive",
      "diagnostics": ["(2, 'P would have degree 5 > deg_max = 4')", "(4, 'gamma = 2')"]}),
    (("DIa", 8, 4, 4), {1: (("-13/9", "61/18", "-35/9", "-5/6", "1"),
                            ("14/9", "-13/2", "82/9", "-31/6", "1")),
                        2: (("-13/9", "61/18", "-35/9", "-5/6", "1"),
                            ("14/9", "-13/2", "82/9", "-31/6", "1")),
                        3: (("-2/3", "1/6", "-1"), ("2/3", "-11/6", "1")),
                        4: (("-1",), ("1",))}, 16,
     {"nontrivial": True, "finite_dim": "necessary-conditions-only",
      "diagnostics": ["(4, 'P would have degree 5/3, not an integer >= 1')",
                      "(3, 'no admissible (P, gamma)')"], "necessary_conditions_pass": False}),
]


@pytest.mark.parametrize("args, mu, deg_max, expect", PINNED_VERDICTS,
                         ids=[c[0][0] for c in PINNED_VERDICTS])
def test_classify_verdict_json_is_pinned(args, mu, deg_max, expect):
    def rat(coeffs):
        return Poly([Fraction(c) for c in coeffs])

    wt = WeightTuple(pair(*args), {i: RatFunc(rat(num), rat(den)) for i, (num, den) in mu.items()})
    assert classify(wt, deg_max).as_dict() == expect


def test_certificate_invariants():
    with pytest.raises(ValueError):
        Certificate(pair("CI", 2), [poly(-1, 1)])  # missing gamma
    with pytest.raises(ValueError):
        Certificate(pair("C0", 2), [poly(-1, 1)])  # P_1 not symmetric (center 4)
    c = Certificate(pair("C0", 2), [poly(0, -4, 1)])  # u^2 - 4u = u(u-4)
    assert c.P[0].compose_affine(-1, Fraction(4)) == c.P[0]


# ---------------------------------------------------------------------------
# Molev-Ragoucy conditions
# ---------------------------------------------------------------------------


def test_check_mr_constant_tuple():
    mu = {1: RatFunc.of(1), 2: RatFunc.of(1)}
    rep = check_mr(mu, 0)
    assert rep["nontrivial"] and rep["finite_dim"] == "yes"
    assert rep["P"] == [Poly((1,))]


def test_check_mr_symmetric_ratio():
    # q~ = 0 tuple with tmu_1/tmu_2 = P(u+1)/P(u) for the reflection-symmetric
    # P = (u+3)(u-5) (center N~ - i + 2 = 2); non-triviality is automatic
    # because P(u+1)P(2-u) = P(u)P(1-u) for such P
    P = Poly.from_roots([Fraction(-3), Fraction(5)])
    mu2 = RatFunc.of(1)
    tmu2 = RatFunc(poly(0, 2))
    tmu1 = tmu2 * RatFunc(P.compose_affine(1, 1), P)
    mu1 = (tmu1 - mu2) / RatFunc(poly(-1, 2))
    rep = check_mr({1: mu1, 2: mu2}, 0)
    assert rep["nontrivial"], rep
    assert rep["finite_dim"] == "yes" and rep["P"] == [P]


def test_check_mr_gamma_path():
    # 0 < q~ < N: the p~+1 ratio carries the (gamma-u)/(gamma+u-q~) factor,
    # which satisfies f(u) f(1-u) = 1, so non-triviality holds automatically
    gamma = Fraction(3)
    qt = 1
    mu2 = RatFunc.of(1)
    tmu2 = RatFunc(poly(0, 2))
    tmu1 = tmu2 * RatFunc(poly(gamma, -1), poly(gamma - qt, 1))
    mu1 = (tmu1 - mu2) / RatFunc(poly(-1, 2))
    rep = check_mr({1: mu1, 2: mu2}, qt)
    assert rep["nontrivial"], rep
    assert rep["finite_dim"] == "yes" and rep["gamma"] == gamma
    assert rep["P"] == [Poly((1,))]


def test_none_outranks_a_later_inconclusive(monkeypatch):
    # a row without P (i = 2) followed by an inconclusive row (i = 3) decides
    # "no" in check_mr as in classify; every later row finds P = 1
    cl = sys.modules[solve_P.__module__]
    script = []

    def scripted_solve_P(ratio, shift, sym_center=None, deg_max=16):
        return script.pop(0) if script else SolveResult("found", P=Poly((1,)))

    def run(call):
        script[:] = [SolveResult("none", detail="no P"),
                     SolveResult("inconclusive", detail="too large")]
        out = call()
        assert not script
        return out

    monkeypatch.setattr(cl, "solve_P", scripted_solve_P)
    ones = {i: RatFunc.of(1) for i in (1, 2, 3)}
    assert run(lambda: check_mr(ones, 0))["finite_dim"] == "no"
    v = run(lambda: classify(WeightTuple(pair("D0", 6), dict(ones))))
    assert v.finite_dim == "no" and v.diagnostics == [(2, "no P"), (3, "too large")]
    pt = pair("BIb", 7, 6, 1)
    v = run(lambda: classify(WeightTuple(pt, highest_weight_extract(onedim_module(pt)).weights)))
    assert v.finite_dim == "necessary-conditions-only" and v.necessary_pass is False
    assert v.diagnostics == [(2, "no P"), (3, "too large")]


# ---------------------------------------------------------------------------
# series factorization, lambda extension, X(g_N) polynomials
# ---------------------------------------------------------------------------


def test_mu_factorize_trivial():
    mc = mu_factorize_b0(RatFunc.of(1), RatFunc.of(1), 8)
    assert mc.coeffs == (1,) + (0,) * 8


def test_mu_factorize_matches_bridge_weight():
    for mu in [Fraction(-1, 2), -1]:
        w = highest_weight_extract(eval_so3(mu)).weights
        mc = mu_factorize_b0(w[0], w[1], 12)
        bridge = RatFunc.of(1) + RatFunc(poly(2 * Fraction(mu)), poly(Fraction(-1, 2), 1))
        assert mc == series_expand(bridge, 12)


def test_mu_factorize_rejects_bad_hypotheses():
    w = highest_weight_extract(eval_so3(-1)).weights
    with pytest.raises(ValueError):
        mu_factorize_b0(w[0] + rf((1,), (0, 0, 1)), w[1], 8)


def test_extend_lambda_all_ones():
    lam = extend_lambda({0: RatFunc.of(1), 1: RatFunc.of(1)}, 3, "orthogonal")
    assert all(lam[i] == RatFunc.of(1) for i in lam)


def test_extend_lambda_one_step_formula():
    lam0 = RatFunc.of(1) + rf((1,), (0, 1))
    lam1 = RatFunc.of(1)
    lam = extend_lambda({0: lam0, 1: lam1}, 3, "orthogonal")
    ka = Fraction(1, 2)
    want = (lam0 / lam1).substitute_affine(1, -ka + 1) * lam0
    assert lam[-1] == want


def test_extend_lambda_even_needs_extra_datum():
    with pytest.raises(ValueError):
        extend_lambda({1: RatFunc.of(1), 2: RatFunc.of(1)}, 4, "symplectic")


def test_extended_vector_weights_unchanged():
    x = vector_eval_x(4, "symplectic", 0)
    lam = extract_x_weights(x).candidates[0][1]
    out = extend_lambda({1: lam[1], 2: lam[2]}, 4, "symplectic", nu=lam[-1], k=1)
    assert out == lam


def test_xgn_fd_check():
    # constant tuple: all P_i = 1
    lam = {i: RatFunc.of(1) for i in (-2, -1, 1, 2)}
    ps = xgn_fd_check(lam, 4, "symplectic")
    assert ps == [Poly((1,)), Poly((1,))]
    # ratio lambda_1/lambda_2 = (u+1-a)/(u-a): P_2 = u - a
    a = Fraction(2)
    lam2 = RatFunc.of(1)
    lam1 = rf((1 - a, 1)) / rf((-a, 1))
    lamm1 = RatFunc.of(1)
    full = extend_lambda({1: lam1, 2: lam2}, 4, "symplectic", nu=lamm1, k=1)
    ps = xgn_fd_check(full, 4, "symplectic")
    if ps is not None:
        assert ps[1] == poly(-a, 1)
    # type C P_1 from lambda_{-1}/lambda_1 with shift 2: degree-2 chain
    P1 = poly(-1, 1) * poly(-3, 1)  # (u-1)(u-3)
    ratio = RatFunc(P1.compose_affine(1, 2), P1)
    lam = {1: RatFunc.of(1), 2: RatFunc.of(1)}
    full = extend_lambda(lam, 4, "symplectic", nu=ratio, k=1)
    ps = xgn_fd_check(full, 4, "symplectic")
    assert ps is not None and ps[0] == P1


def test_vector_module_lambda_is_fd():
    x = vector_eval_x(4, "symplectic", 0)
    lam = extract_x_weights(x).candidates[0][1]
    ps = xgn_fd_check(lam, 4, "symplectic")
    assert ps is not None


# ---------------------------------------------------------------------------
# construct_from_cert round trips
# ---------------------------------------------------------------------------


def test_construct_trivial_certificate():
    pt = pair("C0", 2)
    cert = Certificate(pt, [Poly((1,))])
    wt = construct_from_cert(cert, [Poly((1,))])
    assert wt.mu[1] == RatFunc.of(1)
    v = classify(wt)
    assert v.finite_dim == "yes" and v.certificate == cert


def test_construct_ci_rank_one_round_trip():
    pt = pair("CI", 2)
    Q = poly(-1, 1)  # u - 1
    P = Q * Q.compose_affine(-1, Fraction(4)) * Fraction(-1)
    cert = Certificate(pt, [P], gamma=Fraction(5))
    wt = construct_from_cert(cert, [Q])
    v = classify(wt)
    assert v.finite_dim == "yes"
    assert v.certificate.P == cert.P and v.certificate.gamma == cert.gamma


def test_construct_d0_round_trip():
    pt = pair("D0", 4)
    Q1 = Poly((1,))
    Q2 = poly(Fraction(-3, 2), 1)
    P1 = Poly((1,))
    P2 = Q2 * Q2.compose_affine(-1, Fraction(2)) * Fraction(-1)
    cert = Certificate(pt, [P1, P2])
    wt = construct_from_cert(cert, [Q1, Q2])
    v = classify(wt)
    assert v.finite_dim == "yes" and v.certificate.P == cert.P


def test_construct_rejects_mismatched_q():
    pt = pair("C0", 2)
    cert = Certificate(pt, [Poly((1,))])
    with pytest.raises(ValueError):
        construct_from_cert(cert, [poly(-1, 1)])


def test_negative_index_weights_formula():
    # the eigenvalue of s_{-i,-i}(u) on the highest weight vector:
    # (2k-2u-n) s_{-i,-i}(u) eta = [ sum_l beta_{i,l}(u) (p(u) mu_l(k-u)
    #   +- mu_l(u)/(2u-k)) + sum_{l in I_N} mu_l(u) ] eta
    from twyang.rkmat import g_matrix, p_scalar

    for m in [eval_so3(-1), eval_so4("DIII", 1, 0), onedim_module(pair("BIa", 5, 3, 2))]:
        pt = m.pair
        n, ka = pt.n, pt.kappa
        hw = highest_weight_extract(m)
        eta, mu = hw.candidates[0]
        p = p_scalar(g_matrix(pt), pt)
        pm = pt.sign_pm
        inv1 = RatFunc(poly(1), poly(-ka, 2))
        lead = RatFunc(poly(2 * ka - n, -2))  # 2k - 2u - n
        for i in range(1, n + 1):
            rhs = RatFunc.of(0)
            for l in range(1, n + 1):
                beta = RatFunc(poly(2 * ka - n + 1, -2)) if l == i else RatFunc.of(1)
                rhs = rhs + beta * (p * mu[l].substitute_affine(-1, ka) + pm * inv1 * mu[l])
            for l in pt.i_range:
                rhs = rhs + mu[l]
            smat = m.op.entry(-i, -i)
            d = m.dim
            for r in range(d):
                acc = RatFunc.of(0)
                for c in range(d):
                    acc = acc + smat[r, c] * eta[c]
                assert lead * acc == rhs * eta[r], (m.provenance, i, r)
