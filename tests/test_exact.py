import random
from fractions import Fraction

import pytest

from twyang.exact import (
    Poly,
    RatFunc,
    Sqrt2,
    TruncSeries,
    default_series_order,
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


def test_default_series_order_env(monkeypatch):
    monkeypatch.delenv("TWYANG_TRUNC_ORDER", raising=False)
    assert default_series_order() == 12
    monkeypatch.setenv("TWYANG_TRUNC_ORDER", "20")
    assert default_series_order() == 20


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


def test_linear_solve_inconsistent_marker():
    from twyang.linalg import solve

    sol, ker = solve([[1, 1], [1, 1]], [Fraction(1), Fraction(2)])
    assert sol is None


# ---------------------------------------------------------------------------
# Q(sqrt2)
# ---------------------------------------------------------------------------


def test_sqrt2_field():
    x = Sqrt2(1, 1)
    assert x * x == Sqrt2(3, 2)
    assert x / x == 1
    assert (Sqrt2(0, 1) * Sqrt2(0, 1)) == 2
    inv = Sqrt2(1, 1).inverse()
    assert inv * Sqrt2(1, 1) == 1
    assert Sqrt2(Fraction(1, 2), 0).is_rational
