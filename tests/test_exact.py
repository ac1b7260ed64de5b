import random
from fractions import Fraction

import pytest

from twyang.exact import (
    Poly,
    RatFunc,
    TruncSeries,
    factor_shifted_square,
    frac,
    poly,
    rf,
    series_expand,
)


def rand_rat(rng, lo=-5, hi=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def rand_poly(rng, max_deg=3):
    return Poly([rand_rat(rng) for _ in range(rng.randint(0, max_deg + 1))])


def rand_ratfunc(rng):
    num = rand_poly(rng)
    den = Poly()
    while not den:
        den = rand_poly(rng)
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_sign_flip():
    f = rf((1,), (-2, 1))  # 1/(u-2)
    g = f.substitute_affine(-1, 0)
    assert g == rf((-1,), (2, 1))  # -1/(u+2)


def test_substitute_affine_image():
    f = RatFunc.of(poly(0, 1))  # u
    assert f.substitute_affine(-1, 2) == RatFunc.of(poly(2, -1))  # 2 - u


def test_substitute_composition_reduces():
    f = rf((1, 2), (-1, 2))  # (2u+1)/(2u-1)
    g = f.substitute_affine(1, Fraction(-1, 2))
    assert g == rf((0, 1), (-1, 1))  # u/(u-1)


def test_substitute_degenerate_rejected():
    with pytest.raises(ValueError):
        rf((1,), (1, 1)).substitute_affine(0, 3)


def test_substitute_matches_pointwise_evaluation():
    # independent oracle: f(a x + b) evaluated at sample points
    rng = random.Random(1)
    for _ in range(25):
        f = rand_ratfunc(rng)
        a = Fraction(0)
        while not a:
            a = rand_rat(rng)
        b = rand_rat(rng)
        g = f.substitute_affine(a, b)
        for x in (Fraction(7), Fraction(11, 2), Fraction(-13, 3)):
            try:
                lhs = g.eval(x)
                rhs = f.eval(a * x + b)
            except ZeroDivisionError:
                continue
            assert lhs == rhs


def test_substitution_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(20):
        f, g, h = (rand_ratfunc(rng) for _ in range(3))
        a, b = Fraction(2, 3), Fraction(-1, 2)

        def s(x):
            return x.substitute_affine(a, b)

        assert s(f + g) == s(f) + s(g)
        assert s(f * g) == s(f) * s(g)
        assert s((f + g) * h) == (s(f) + s(g)) * s(h)
        assert s(RatFunc.of(1)) == RatFunc.of(1)


def test_field_cancellation():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_ratfunc(rng)
        g = rand_ratfunc(rng)
        if not g:
            continue
        assert (f * g) / g == f


# ---------------------------------------------------------------------------
# series expansion at infinity
# ---------------------------------------------------------------------------


def long_division_series(num: Poly, den: Poly, order: int):
    """Independent oracle: expand num/den at u = infinity by long division.

    Writes num/den = sum c_k u^{-k} and determines c_k from the recursion
    num = den * (sum c_k u^{-k}), comparing coefficients of u^{m-k}.
    """
    m = den.degree
    cs = []
    for k in range(order + 1):
        # coefficient of u^{m-k} on both sides
        lhs = num.coeff(m - k)
        acc = Fraction(0)
        for i in range(k):
            acc += cs[i] * den.coeff(m - k + i)
        cs.append((lhs - acc) / den.lead)
    return cs


def test_series_constant():
    assert series_expand(RatFunc.of(1), 3).coeffs == (1, 0, 0, 0)


def test_series_geometric():
    f = rf((1,), (-2, 1))  # 1/(u-2)
    assert series_expand(f, 3).coeffs == (0, 1, 2, 4)


def test_series_long_division_oracle():
    f = rf((1, 1), (-1, 1))  # (u+1)/(u-1)
    assert long_division_series(f.num, f.den, 3) == [1, 2, 2, 2]
    assert series_expand(f, 3).coeffs == (1, 2, 2, 2)
    rng = random.Random(4)
    for _ in range(25):
        den = Poly()
        while den.degree < 1:
            den = rand_poly(rng, 3)
        num = rand_poly(rng, den.degree)
        got = series_expand(RatFunc(num, den, reduce=False), 6).coeffs
        assert list(got) == long_division_series(num, den, 6)


def test_series_rejects_unbounded():
    with pytest.raises(ValueError):
        series_expand(rf((0, 0, 1), (1, 1)), 3)  # u^2/(u+1)


def test_series_multiplicativity():
    rng = random.Random(5)
    for _ in range(20):
        f, g = rand_ratfunc(rng), rand_ratfunc(rng)
        if not f.finite_at_infinity or not g.finite_at_infinity:
            continue
        lhs = series_expand(f * g, 8)
        rhs = series_expand(f, 8) * series_expand(g, 8)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# factor_shifted_square
# ---------------------------------------------------------------------------


def series_product_shifted(k: TruncSeries, a) -> TruncSeries:
    """Independent oracle for k(u) * k(u+a)."""
    return k * k.shift_argument(a)


def test_factor_identity():
    h = TruncSeries([1, 0, 0, 0, 0])
    assert factor_shifted_square(h, 1).coeffs == (1, 0, 0, 0, 0)


def test_factor_recovers_simple_input():
    k = TruncSeries([1, 1, 0, 0, 0])  # 1 + 1/u at order 4
    h = series_product_shifted(k, 1)
    assert factor_shifted_square(h, 1) == k


def test_factor_zero_shift_halves_first_coefficient():
    h = TruncSeries([1, 2, 0, 0])
    k = factor_shifted_square(h, 0)
    assert k.coeffs[1] == 1


def test_factor_requires_unit_constant_term():
    with pytest.raises(ValueError):
        factor_shifted_square(TruncSeries([2, 0]), 1)


def test_factor_round_trip_random():
    rng = random.Random(6)
    for _ in range(100):
        d = 8
        h = TruncSeries([Fraction(1)] + [rand_rat(rng) for _ in range(d)])
        a = rand_rat(rng)
        k = factor_shifted_square(h, a)
        assert series_product_shifted(k, a) == h


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def test_linear_solve_identity():
    from twyang.linalg import solve

    sol, ker = solve([[1, 0], [0, 1]], [Fraction(1), Fraction(0)])
    assert sol == [1, 0] and ker == []


def test_linear_solve_zero_matrix_full_kernel():
    from twyang.linalg import solve

    sol, ker = solve([[Fraction(0)] * 3 for _ in range(2)], [Fraction(0)] * 2)
    assert sol == [0, 0, 0] and len(ker) == 3


def test_linear_solve_cramer_cross_check():
    from twyang.linalg import solve

    a, b, c, d = Fraction(2, 3), Fraction(1, 5), Fraction(-1, 2), Fraction(4, 7)
    e, f = Fraction(1), Fraction(-2, 3)
    det = a * d - b * c
    sol, ker = solve([[a, b], [c, d]], [e, f])
    assert ker == []
    assert sol == [(e * d - b * f) / det, (a * f - e * c) / det]


def test_linear_algebra_is_exact_on_int_input():
    from twyang.linalg import kernel_basis, solve

    assert kernel_basis([[2, 1]]) == [[Fraction(-1, 2), Fraction(1)]]
    assert all(type(x) is Fraction for x in kernel_basis([[2, 1]])[0])
    sol, ker = solve([[3]], [1])
    assert sol == [Fraction(1, 3)] and type(sol[0]) is Fraction and ker == []


def test_linear_solve_inconsistent_marker():
    from twyang.linalg import solve

    sol, ker = solve([[1, 1], [1, 1]], [Fraction(1), Fraction(2)])
    assert sol is None


# ---------------------------------------------------------------------------
# Poly kernels (scaled integers) against the plain Fraction algorithms
# ---------------------------------------------------------------------------


def oracle_mul(a, b):
    out = [Fraction(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def oracle_divmod(a, b):
    q, r = Poly(), a
    inv = 1 / b.lead
    while r and r.degree >= b.degree:
        t = Poly([0] * (r.degree - b.degree) + [r.lead * inv])
        q = q + t
        r = r - oracle_mul(t, b)
    return q, r


def oracle_gcd(a, b):
    while b:
        a, b = b, oracle_divmod(a, b)[1]
    return a * (1 / a.lead) if a else a


def oracle_compose_affine(p, a, b):
    """P(a u + b) by Horner's rule over Poly products and sums."""
    arg, acc = Poly((frac(b), frac(a))), Poly()
    for c in reversed(p.coeffs):
        acc = acc * arg + Poly.constant(c)
    return acc


def same(p, q):
    """Equal coefficient tuples, coefficient types included."""
    return p.coeffs == q.coeffs and list(map(type, p.coeffs)) == list(map(type, q.coeffs))


def kernel_pairs(rng):
    """Operand pairs: random, zero and constant, non-monic, heights up to
    1e40, coprime, and with a known common factor (returned as a third item)."""
    def tall(deg, h):
        return Poly([Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(deg + 1)])

    pairs = [(rand_poly(rng, 6), rand_poly(rng, 4), None) for _ in range(60)]
    x = rand_poly(rng, 3) or poly(1, 2)
    pairs += [(Poly(), x, None), (x, Poly(), None), (Poly(), Poly(), None),
              (poly(Fraction(-3, 7)), x, None), (x, poly(5), None), (poly(2), poly(3), None)]
    for _ in range(30):
        g = tall(rng.randint(1, 3), 10**rng.choice((1, 12, 40)))
        a, b = tall(rng.randint(0, 4), 10**40), tall(rng.randint(0, 4), 10**40)
        pairs.append((a, b, None))
        pairs.append((g * a, g * b, g))
    # coprime by construction: distinct rational roots, non-monic
    pairs += [(Poly.from_roots([1, Fraction(-2, 3)]) * 5, Poly.from_roots([2, 7]) * Fraction(-1, 9), None),
              (poly(1, 0, 1), poly(-2, 0, 1), None)]
    return pairs


def test_poly_kernels_match_fraction_oracle():
    rng = random.Random(11)
    for a, b, g in kernel_pairs(rng):
        assert same(a * b, oracle_mul(a, b))
        if b:
            q, r = a.divmod(b)
            oq, orr = oracle_divmod(a, b)
            assert same(q, oq) and same(r, orr)
            assert q * b + r == a and r.degree < b.degree
        d = a.gcd(b)
        assert same(d, oracle_gcd(a, b))
        if g is not None and a and b:
            assert not d % g  # the known common factor divides the gcd
    assert poly(1, 0, 1).gcd(poly(-2, 0, 1)) == poly(1)
    assert Poly().gcd(Poly()) == Poly()


def test_compose_affine_matches_horner_oracle():
    rng = random.Random(14)
    shifts = [(0, 0), (0, Fraction(-7, 3)), (1, 1), (-1, Fraction(7, 2)),
              (Fraction(1, 2), Fraction(-1, 2)), (2, -1), (Fraction(-3, 5), Fraction(10**12, 7))]
    for a, b, _ in kernel_pairs(rng):
        for p in (a, b, a * b):
            for s, t in shifts + [(rand_rat(rng), rand_rat(rng))]:
                assert same(p.compose_affine(s, t), oracle_compose_affine(p, s, t))
    p = Poly.from_roots([1, Fraction(-2, 3), 5])
    assert p.compose_affine(0, 1) == Poly()  # a = 0 is evaluation at b
    assert p.compose_affine(0, 2) == Poly.constant(p.eval(2))
    assert p.compose_affine(1, 0) == p


def test_poly_kernels_match_sympy():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")

    def sp(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)] or [0], u, domain="QQ")

    def back(s):
        return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(s.all_coeffs())])

    rng = random.Random(13)
    for a, b, _ in kernel_pairs(rng):
        assert a * b == back(sp(a) * sp(b))
        if b:
            q, r = sympy.div(sp(a), sp(b))
            assert a.divmod(b) == (back(q), back(r))
        if a or b:
            assert a.gcd(b) == back(sympy.gcd(sp(a), sp(b)).monic())
