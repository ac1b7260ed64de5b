"""Exact scalar, polynomial, rational-function and truncated-series arithmetic.

Coefficients are arbitrary-precision rationals (fractions.Fraction).  The
polynomial kernels (products, division with remainder, gcd, the substitution
u -> a u + b) scale them to Python integers over a common denominator and
build one Fraction per result coefficient, so results are the same canonical
Fractions as plain Fraction arithmetic would give.  The variable of
polynomials is always "u".
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm


def frac(x, y=None) -> Fraction:
    """Coerce ints / strings / Fractions to an exact rational; a zero
    denominator is a ValueError that names the value."""
    try:
        if y is not None:
            return Fraction(x, y)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):
            return Fraction(x)
    except ZeroDivisionError:
        value = x if y is None else f"{x}/{y}"
        raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a Fraction or string")
    return Fraction(x)


def _scaled(cs):
    """(integers n, d) with cs[k] = n[k] / d for the Fractions cs, d > 0 the
    least common denominator."""
    d = lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _primitive(x):
    """The integer polynomial x over its content, leading coefficient > 0."""
    if not x:
        return x
    g = gcd(*x)
    if x[-1] < 0:
        g = -g
    return [c // g for c in x] if g != 1 else x


def _divide(r, y):
    """(q, r, s) with s x = q y + r and deg r < deg y for integer polynomials
    x = r (the list is consumed) and y, s a nonzero integer.  Each step takes
    the top coefficient c of r and g = gcd(c, y[-1]), multiplies r and q by
    y[-1]/g and subtracts (c/g) u^k y, so no coefficient leaves the integers."""
    n, lead = len(y) - 1, y[-1]
    q, s = [0] * (len(r) - n), 1
    for k in range(len(r) - n - 1, -1, -1):
        c = r.pop()
        if c:
            g = gcd(c, lead)
            m, c = lead // g, c // g
            if m != 1:
                r, q, s = [m * t for t in r], [m * t for t in q], s * m
            q[k] = c
            for j in range(n):
                r[k + j] -= c * y[j]
    while r and not r[-1]:
        r.pop()
    return q, r, s


class Poly:
    """Univariate polynomial in u, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else frac(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _of(nums, den):
        """The polynomial sum_k (nums[k] / den) u^k from integers, den != 0."""
        p = Poly.__new__(Poly)
        cs = [Fraction(c, den) for c in nums]
        while cs and not cs[-1]:
            cs.pop()
        p.coeffs = tuple(cs)
        return p

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(c):
        return Poly((c,))

    @staticmethod
    def from_roots(roots):
        p = Poly((1,))
        for r in roots:
            p = p * Poly((-frac(r), 1))
        return p

    # -- structure ----------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lead(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.constant(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        (x, dx), (y, dy) = _scaled(a), _scaled(b)
        out = [0] * (len(x) + len(y) - 1)
        for i, c in enumerate(x):
            if c:
                for j, e in enumerate(y):
                    out[i + j] += c * e
        return Poly._of(out, dx * dy)

    __rmul__ = __mul__

    def __pow__(self, k):
        r = Poly((1,))
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def divmod(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.coeffs, other.coeffs
        n = len(b) - 1
        if len(a) <= n:
            return Poly(), self
        (x, dx), (y, dy) = _scaled(a), _scaled(b)
        q, r, s = _divide(x, y)
        return Poly._of([t * dy for t in q], s * dx), Poly._of(r, s * dx)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        """Monic gcd; the zero polynomial only for gcd(0, 0).

        This is the primitive polynomial remainder sequence (Knuth,
        TAOCP vol. 2, 4.6.1) on integer coefficients: each pseudo-remainder
        is divided by its content, so the coefficients stay as small as the
        gcd's own, and only the last one is made monic."""
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            p = self if a else other
            return p.monic() if p else p
        if len(a) == 1 or len(b) == 1:
            return P_ONE
        x, y = _primitive(_scaled(a)[0]), _primitive(_scaled(b)[0])
        if len(x) < len(y):
            x, y = y, x
        while len(y) > 1:
            x, y = y, _primitive(_divide(x, y)[1])
        if y:
            return P_ONE
        return Poly._of(x, x[-1])

    def lcm(self, other):
        if not self or not other:
            return Poly()
        return ((self * other) // self.gcd(other)).monic()

    def monic(self):
        if not self:
            return self
        return self * (1 / self.lead)

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, a, b):
        """P(a*u + b), exact; a may be zero (evaluation at the constant b).

        One Taylor shift on integers: with P = sum_k x_k u^k / d (x_k integers),
        b = s/t and n = deg P, H(w) = t^n d P(w/t) has the integer coefficients
        x_k t^(n-k); synthetic division (Horner's scheme, n(n+1)/2 integer
        steps) gives H(w + s), and P(a u + b) = H(t a u + s) / (t^n d), so its
        coefficient k is h_k (t a)^k / (t^n d)."""
        a, b = frac(a), frac(b)
        if not self.coeffs:
            return self
        x, d = _scaled(self.coeffs)
        n, s, t = len(x) - 1, b.numerator, b.denominator
        h = [c * t ** (n - k) for k, c in enumerate(x)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                h[j] += s * h[j + 1]
        # (t a)^k = p^k / q^k over the common denominator q^n
        p, q = (t * a).numerator, (t * a).denominator
        pk, qk = 1, q**n
        for k in range(n + 1):
            h[k] *= pk * qk
            pk, qk = pk * p, qk // q
        return Poly._of(h, q**n * t**n * d)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*u" if c != 1 else "u")
            else:
                parts.append(f"{c}*u^{k}" if c != 1 else f"u^{k}")
        return " + ".join(reversed(parts))


P_ZERO = Poly()
P_ONE = Poly((1,))


def poly(*coeffs):
    """Poly from ascending coefficients given as ints/strings/Fractions."""
    return Poly([frac(c) for c in coeffs])


class RatFunc:
    """Reduced rational function num/den in u with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE, reduce=True):
        if not isinstance(num, Poly):
            num = Poly.constant(frac(num))
        if not isinstance(den, Poly):
            den = Poly.constant(frac(den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            g = num.gcd(den)
            if g and g.degree > 0:
                num, den = num // g, den // g
            lc = den.lead
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        self.num = num
        self.den = den

    @staticmethod
    def of(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return RatFunc(x, P_ONE, reduce=False)
        return RatFunc(Poly.constant(frac(x)), P_ONE, reduce=False)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (RatFunc, Poly, int, Fraction)):
            o = RatFunc.of(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if hasattr(other, "__array__"):
            return NotImplemented
        o = RatFunc.of(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-RatFunc.of(other))

    def __rsub__(self, other):
        return RatFunc.of(other) + (-self)

    def __mul__(self, other):
        if hasattr(other, "__array__"):
            return NotImplemented
        o = RatFunc.of(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc.of(other)
        if not o.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return RatFunc.of(other) / self

    def substitute_affine(self, a, b):
        """f(a*u + b); a must be nonzero for the map to be a substitution."""
        a = frac(a)
        if not a:
            raise ValueError("degenerate substitution: a = 0")
        return RatFunc(self.num.compose_affine(a, b), self.den.compose_affine(a, b))

    def reflect(self, c=0):
        """f(c - u)."""
        return self.substitute_affine(-1, c)

    def eval(self, x):
        d = self.den.eval(x)
        if not d:
            raise ZeroDivisionError(f"pole at u = {x}")
        return self.num.eval(x) / d

    @property
    def finite_at_infinity(self):
        return self.num.degree <= self.den.degree

    def value_at_infinity(self):
        if not self.finite_at_infinity:
            raise ValueError("unbounded at u = infinity")
        if self.num.degree < self.den.degree:
            return Fraction(0)
        return self.num.lead / self.den.lead

    def __repr__(self):
        if self.den == P_ONE:
            return repr(self.num)
        return f"({self.num})/({self.den})"


RF_ZERO = RatFunc(P_ZERO, reduce=False)


def rf(num_coeffs, den_coeffs=(1,)):
    return RatFunc(poly(*num_coeffs), poly(*den_coeffs))


class TruncSeries:
    """Truncated series c0 + c1/u + ... + cD/u^D; accuracy claimed through u^-D."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else frac(c) for c in coeffs]
        if not cs:
            raise ValueError("a truncated series stores at least the constant term")
        self.coeffs = tuple(cs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: order + 1])

    def _common(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries([other] + [Fraction(0)] * self.order)
        d = min(self.order, other.order)
        return self.truncate(d), other.truncate(d)

    def __add__(self, other):
        a, b = self._common(other)
        return TruncSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._common(other)
        return a + (-b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries([c * other for c in self.coeffs])
        a, b = self._common(other)
        d = a.order
        out = [Fraction(0)] * (d + 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j in range(d + 1 - i):
                out[i + j] = out[i + j] + x * b.coeffs[j]
        return TruncSeries(out)

    __rmul__ = __mul__

    def shift_argument(self, a):
        """k(u) -> k(u + a), re-expanded exactly at the same truncation order."""
        a = frac(a)
        d = self.order
        out = [Fraction(0)] * (d + 1)
        # (u+a)^(-j) = sum_t binom(-j, t) a^t u^(-j-t)
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            for t in range(d - j + 1):
                w = Fraction((-1) ** t * comb(j + t - 1, t)) if j > 0 else Fraction(t == 0)
                out[j + t] = out[j + t] + c * w * a**t
        return TruncSeries(out)

    def scale_argument(self, s):
        """k(u) -> k(s*u) for a nonzero rational s."""
        s = frac(s)
        if not s:
            raise ValueError("degenerate scaling")
        return TruncSeries([c / s**k for k, c in enumerate(self.coeffs)])

    def __repr__(self):
        parts = [str(self.coeffs[0])]
        for k in range(1, len(self.coeffs)):
            if self.coeffs[k]:
                parts.append(f"{self.coeffs[k]}/u^{k}")
        return " + ".join(parts) + f" + O(u^-{self.order + 1})"


def series_expand(f: RatFunc, order: int) -> TruncSeries:
    """Expansion of a rational function at u = infinity through u^-order."""
    if not f.finite_at_infinity:
        raise ValueError("not a power series in 1/u: numerator degree exceeds denominator")
    m = f.den.degree
    # in v = 1/u:  f = (sum_k num_k v^(m-k)) / (sum_k den_k v^(m-k))
    a = [f.num.coeff(m - j) for j in range(order + 1)]
    b = [f.den.coeff(m - j) for j in range(order + 1)]
    inv0 = 1 / b[0]
    out = []
    for j in range(order + 1):
        s = a[j]
        for i in range(j):
            s = s - out[i] * b[j - i]
        out.append(s * inv0)
    return TruncSeries(out)


def factor_shifted_square(h: TruncSeries, a) -> TruncSeries:
    """The unique k with constant term 1 and h(u) = k(u) * k(u+a) through order D."""
    if h.coeffs[0] != 1:
        raise ValueError("series must have constant term 1")
    a = frac(a)
    d = h.order
    k = [Fraction(1)] + [Fraction(0)] * d

    def binw(j, t):
        return Fraction((-1) ** t * comb(j + t - 1, t)) if j > 0 else Fraction(t == 0)

    # coeff_m( k(u) k(u+a) ) = sum_{r+j+t=m} k_r k_j binom(-j,t) a^t
    for m in range(1, d + 1):
        s = Fraction(0)
        for r in range(m + 1):
            for j in range(m - r + 1):
                t = m - r - j
                if r == m and j == 0:
                    continue  # the 2*k_m terms, handled below
                if j == m and r == 0 and t == 0:
                    continue
                s = s + k[r] * k[j] * binw(j, t) * a**t
        k[m] = (h.coeffs[m] - s) / 2
    return TruncSeries(k)
