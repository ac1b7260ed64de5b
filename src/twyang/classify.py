"""Non-triviality, finite-dimensionality and Drinfeld certificates.

All conditions are stated through the tilde transform

    tmu_i(u) = (2u - n + i) mu_i(u) + sum_{l > i} mu_l(u).

Every Drinfeld polynomial P_i is one row (i, ratio, shift, centre, kap) of a
condition table: P_i(u+shift)/P_i(u) = ratio with P_i(u) = P_i(-u+centre),
times (gamma-u)/(gamma+u-kap) for a scalar gamma when kap is set.
`_conditions` writes a pair's table, `_decide` solves the rows in order by
exact linear algebra (`solve_P`, `solve_P_gamma`) and `_worst` ranks the
outcomes none > inconclusive > found.  Nothing is factored over extensions;
when a rational answer cannot be certified the verdict is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    P_ONE,
    Poly,
    RatFunc,
    TruncSeries,
    factor_shifted_square,
    frac,
    poly,
    series_expand,
)
from .linalg import rational_roots, solve
from .rkmat import PairType, pair
from .tensors import SYMPLECTIC, kappa


@dataclass
class WeightTuple:
    """Highest weight (mu_i(u))_{i in I_N} of a twisted-Yangian module."""

    pair: PairType
    mu: dict  # i -> RatFunc

    def __post_init__(self):
        g = self.pair.g_diagonal()
        for i in self.pair.i_range:
            if i not in self.mu:
                raise ValueError(f"missing weight component {i}")
            f = RatFunc.of(self.mu[i])
            self.mu[i] = f
            if not f.finite_at_infinity or f.value_at_infinity() != g[i]:
                raise ValueError(
                    f"component {i} must tend to g_{i}{i} = {g[i]} at infinity"
                )

    def __eq__(self, other):
        return self.pair == other.pair and self.mu == other.mu


@dataclass
class TildeTuple:
    pair: PairType
    tmu: dict  # i -> RatFunc


def _tilde(mu: dict, labels, n: int) -> dict:
    out = {}
    for i in labels:
        acc = RatFunc(poly(-n + i, 2)) * mu[i]
        for l in range(i + 1, n + 1):
            acc = acc + mu[l]
        out[i] = acc
    return out


def tilde(wt: WeightTuple) -> TildeTuple:
    return TildeTuple(wt.pair, _tilde(wt.mu, wt.pair.i_range, wt.pair.n))


def untilde(tt: TildeTuple) -> WeightTuple:
    n = tt.pair.n
    mu = {}
    for i in sorted(tt.pair.i_range, reverse=True):
        acc = tt.tmu[i]
        for l in range(i + 1, n + 1):
            acc = acc - mu[l]
        mu[i] = acc / RatFunc(poly(-n + i, 2))
    return WeightTuple(tt.pair, mu)


def _b_type_g(pt: PairType) -> RatFunc:
    """The series g(u) entering the type-B zero-component condition."""
    if pt.tag == "B0":
        return RatFunc.of(1)
    c = pt.c
    ell = Fraction(pt.ell)
    sb = pt.sign_bracket
    return RatFunc(poly(1 + sb * c * ell, -sb * c), poly(1, -c))


def check_nontrivial(wt: WeightTuple):
    """Exact non-triviality test; returns (bool, witnesses)."""
    pt = wt.pair
    n = pt.n
    tt = tilde(wt).tmu
    witnesses = []
    for i in pt.i_range:
        if i == n:
            continue
        c = Fraction(n - i)
        lhs = tt[i] * tt[i].substitute_affine(-1, c)
        rhs = tt[i + 1] * tt[i + 1].substitute_affine(-1, c)
        if lhs != rhs:
            witnesses.append((i, "tilde product condition violated"))
    if pt.N % 2 == 1:
        ka = pt.kappa
        g = _b_type_g(pt)
        u = RatFunc(poly(0, 1))
        lhs = u * g * tt[0].substitute_affine(-1, ka)
        rhs = (RatFunc.of(ka) - u) * g.substitute_affine(-1, ka) * tt[0]
        if lhs != rhs:
            witnesses.append((0, "type-B zero-component condition violated"))
    return not witnesses, witnesses


FOUND = "found"
NONE = "none"
INCONCLUSIVE = "inconclusive"


@dataclass
class SolveResult:
    status: str
    P: Poly | None = None
    gamma: Fraction | None = None
    detail: str = ""


def solve_P(ratio: RatFunc, shift, sym_center=None, deg_max: int = 16) -> SolveResult:
    """The unique monic P with P(u+shift)/P(u) = ratio (and the reflection
    symmetry P(u) = P(-u+sym_center) when a center is given), shift != 0.

    The degree of P is forced.  With A = ratio.num = u^n + a_1 u^(n-1) + ...
    and B = ratio.den = u^n + b_1 u^(n-1) + ..., the u^(n+d-1) coefficient of
    P(u+shift) B = A P for a monic P of degree d reads d shift + b_1 = a_1,
    so d = (a_1 - b_1)/shift; and since A, B are coprime, A divides
    P(u+shift), so d >= n.  Two solutions would differ by a shift-periodic
    rational function, a constant, so P is unique.  One exact linear solve at
    degree d therefore decides existence: the answer is NONE when d is not
    an integer >= n or that solve has no solution, and INCONCLUSIVE only when
    d > deg_max, which caps the size of the solve and nothing else.
    """
    shift = frac(shift)
    A, B = ratio.num, ratio.den
    if A.degree != B.degree or A.lead != 1:
        return SolveResult(NONE, detail="ratio is not a quotient of equal-degree monics")
    d = (A.coeff(A.degree - 1) - B.coeff(B.degree - 1)) / shift
    if d.denominator != 1 or d < A.degree:
        return SolveResult(NONE, detail=f"P would have degree {d}, not an integer >= {A.degree}")
    d = int(d)
    if d > deg_max:
        return SolveResult(INCONCLUSIVE, detail=f"P would have degree {d} > deg_max = {deg_max}")
    # unknowns p_0 .. p_{d-1} and p_d = 1 (monic) in P(u+shift) B - A P = 0
    base = [Poly([0] * k + [1]).compose_affine(1, shift) * B - A * Poly([0] * k + [1])
            for k in range(d + 1)]
    top = range(max((p.degree for p in base if p), default=-1) + 1)
    sol, _ = solve([[base[k].coeff(e) for k in range(d)] for e in top],
                   [-base[d].coeff(e) for e in top])
    P = None if sol is None else Poly(list(sol) + [Fraction(1)])
    if P is None or P.compose_affine(1, shift) * B - A * P:
        return SolveResult(NONE, detail=f"no P of the forced degree {d}")
    if sym_center is not None and P.compose_affine(-1, frac(sym_center)) != P:
        return SolveResult(
            NONE, detail=f"unique P of degree {d} violates the reflection symmetry"
        )
    return SolveResult(FOUND, P=P)


def _gamma_candidates(ratio: RatFunc, kap):
    """Rational gamma candidates plus whether irrational roots may remain."""
    roots = rational_roots(ratio.num)
    cands = list(roots) + [frac(kap) / 2]
    # divide out the rational roots; leftover degree > 0 means irrational roots
    rem = ratio.num
    for r in roots:
        lin = poly(-r, 1)
        while rem.degree >= 1 and not rem % lin:
            rem = rem // lin
    return cands, rem.degree >= 1


def solve_P_gamma(ratio: RatFunc, shift, kap, sym_center=None, deg_max: int = 16) -> SolveResult:
    """(P, gamma) with ratio = P(u+shift)/P(u) * (gamma-u)/(gamma+u-kap),
    P monic with the reflection symmetry and P(gamma) != 0."""
    kap = frac(kap)
    cands, maybe_irrational = _gamma_candidates(ratio, kap)
    saw_inconclusive = False
    for gamma in dict.fromkeys(cands):
        denom = poly(gamma, -1)  # gamma - u
        r2 = ratio * RatFunc(poly(gamma - kap, 1), denom)
        res = solve_P(r2, shift, sym_center, deg_max)
        if res.status == FOUND and res.P.eval(gamma) != 0:
            return SolveResult(FOUND, P=res.P, gamma=gamma)
        if res.status == INCONCLUSIVE:
            saw_inconclusive = True
    if maybe_irrational:
        return SolveResult(
            INCONCLUSIVE,
            detail="no rational gamma works and the cleared numerator has "
            "non-rational roots; a complex gamma cannot be excluded",
        )
    if saw_inconclusive:
        return SolveResult(
            INCONCLUSIVE, detail=f"some gamma would need a P of degree > deg_max = {deg_max}"
        )
    return SolveResult(NONE, detail="no admissible (P, gamma)")


@dataclass
class Certificate:
    """Drinfeld data (P_1..P_n, optional gamma) for a supported pair."""

    pair: PairType
    P: list  # [P_1, ..., P_n] as Poly
    gamma: Fraction | None = None

    def __post_init__(self):
        pt = self.pair
        n = pt.n
        if len(self.P) != n:
            raise ValueError(f"expected {n} polynomials")
        for i in [*range(2, n + 1), 1]:
            c = p1_symmetry_center(pt) if i == 1 else Fraction(n - i + 2)
            if self.P[i - 1].compose_affine(-1, c) != self.P[i - 1]:
                raise ValueError(f"P_{i} violates P(u) = P(-u+{c})")
        if pt.tag in ("CI", "DIII"):
            if self.gamma is None:
                raise ValueError("CI/DIII certificates carry a scalar gamma")
            if self.P[0].eval(self.gamma) == 0:
                raise ValueError("P_1(gamma) must be nonzero")
        elif self.gamma is not None:
            raise ValueError("gamma exists for CI/DIII only")

    def __eq__(self, other):
        return (
            self.pair == other.pair and self.P == other.P and self.gamma == other.gamma
        )


def p1_symmetry_center(pt: PairType) -> Fraction:
    if pt.N % 2 == 1:
        return Fraction(pt.n) + Fraction(1, 2)
    if pt.family == SYMPLECTIC:
        return Fraction(pt.n + 3)
    return Fraction(pt.n)


@dataclass
class Verdict:
    nontrivial: bool
    finite_dim: str  # yes | no | inconclusive | necessary-conditions-only
    certificate: Certificate | None = None
    necessary_pass: bool | None = None
    diagnostics: list = field(default_factory=list)

    def as_dict(self):
        out = {
            "nontrivial": self.nontrivial,
            "finite_dim": self.finite_dim,
            "diagnostics": [str(d) for d in self.diagnostics],
        }
        if self.necessary_pass is not None:
            out["necessary_conditions_pass"] = self.necessary_pass
        if self.certificate is not None:
            out["certificate"] = {
                "P": [str(p) for p in self.certificate.P],
                "gamma": None
                if self.certificate.gamma is None
                else str(self.certificate.gamma),
            }
        return out


_FULL_TAGS = ("B0", "C0", "D0", "CI", "DIII")
_RANK = (FOUND, INCONCLUSIVE, NONE)
_ANSWER = {FOUND: "yes", INCONCLUSIVE: "inconclusive", NONE: "no"}


def _chain(tt: dict, n: int, special=None, kap=None) -> list:
    """Rows of P_2..P_n: P_i(u+1)/P_i(u) = tmu_{i-1}/tmu_i with centre
    n - i + 2; the row i = special carries the gamma factor of kap."""
    return [(i, tt[i - 1] / tt[i], 1, Fraction(n - i + 2), kap if i == special else None)
            for i in range(2, n + 1)]


def _p1_shift(N: int, family: str):
    """(shift, j): P_1's ratio divides the top component by component j."""
    if N % 2 == 1:
        return Fraction(1, 2), 1
    return (2, 1) if family == SYMPLECTIC else (1, 2)


def _conditions(pt: PairType, tt: dict) -> list:
    """The condition table (i, ratio, shift, centre, kap) of a pair.

    BCD0, CI, DIII: P_2..P_n, then P_1 (with gamma for CI and DIII).  BIa,
    BIb, CII, DIa: the necessary conditions on P_2..P_n; the one at
    bold_k + 1 (none for BI with q = 1) carries gamma with kap = ell and
    goes last."""
    if pt.tag not in _FULL_TAGS:
        special = None if pt.tag in ("BIa", "BIb") and pt.q == 1 else pt.bold_k + 1
        rows = _chain(tt, pt.n, special, Fraction(pt.ell))
        return sorted(rows, key=lambda row: row[4] is not None)
    ka = pt.kappa
    shift, j = _p1_shift(pt.N, pt.family)
    top = tt[0] if pt.N % 2 == 1 else tt[1].substitute_affine(-1, ka)
    ratio = top / tt[j]
    if pt.tag in ("C0", "D0"):
        ratio = ratio * RatFunc(poly(0, 1), poly(ka, -1))  # u / (kappa - u)
    kap = ka if pt.tag in ("CI", "DIII") else None
    return _chain(tt, pt.n) + [(1, ratio, shift, p1_symmetry_center(pt), kap)]


def _decide(conds, deg_max: int):
    """Yield (i, SolveResult) per row in order, lazily, so callers may stop early."""
    for i, ratio, shift, centre, kap in conds:
        if kap is None:
            yield i, solve_P(ratio, shift, centre, deg_max)
        else:
            yield i, solve_P_gamma(ratio, shift, kap, centre, deg_max)


def _worst(results) -> str:
    """The worst status among the results: none > inconclusive > found."""
    return max((r.status for r in results), key=_RANK.index, default=FOUND)


def classify(wt: WeightTuple, deg_max: int = 16) -> Verdict:
    """Decide finite-dimensionality; extract the Drinfeld certificate where
    the classification theorems apply (BCD0, CI, DIII), or check the
    necessary conditions only (BIa, BIb, CII, DIa).  deg_max caps the forced
    degree of each Drinfeld polynomial (see solve_P)."""
    if deg_max < 0:
        raise ValueError(f"deg_max must be a nonnegative integer, got {deg_max}")
    pt = wt.pair
    ok, wit = check_nontrivial(wt)
    if not ok:
        return Verdict(False, "no", diagnostics=wit)
    res = dict(_decide(_conditions(pt, tilde(wt).tmu), deg_max))
    worst = _worst(res.values())
    diag = [(i, r.detail) for i, r in res.items() if r.status != FOUND]
    if pt.tag in _FULL_TAGS:
        if worst != FOUND:
            return Verdict(True, _ANSWER[worst], diagnostics=diag)
        cert = Certificate(pt, [res[i].P for i in range(1, pt.n + 1)], res[1].gamma)
        return Verdict(True, "yes", certificate=cert, diagnostics=diag)
    # no certificate carries the gamma of a necessary-conditions row
    diag += [(i, f"gamma = {r.gamma}") for i, r in res.items() if r.gamma is not None]
    if worst == INCONCLUSIVE:
        return Verdict(True, "inconclusive", diagnostics=diag)
    return Verdict(
        True, "necessary-conditions-only", necessary_pass=worst == FOUND, diagnostics=diag
    )


# ---------------------------------------------------------------------------
# Molev-Ragoucy conditions (labels 1..N)
# ---------------------------------------------------------------------------


def check_mr(mu: dict, q_tilde: int, deg_max: int = 16):
    """Non-triviality and finite-dimensionality for a B(N~, q~)-type tuple.

    Returns a dict report with keys nontrivial, finite_dim, P, gamma."""
    Nt = max(mu)
    tt = _tilde(mu, range(1, Nt + 1), Nt)
    witnesses = []
    if mu[Nt] * mu[Nt].substitute_affine(-1, 0) != RatFunc.of(1):
        witnesses.append((Nt, "mu_N(u) mu_N(-u) != 1"))
    for i in range(1, Nt):
        c = Fraction(Nt - i)
        if tt[i] * tt[i].substitute_affine(-1, c) != tt[i + 1] * tt[i + 1].substitute_affine(-1, c):
            witnesses.append((i, "tilde product condition violated"))
    report = {"nontrivial": not witnesses, "witnesses": witnesses,
              "finite_dim": None, "P": None, "gamma": None}
    if witnesses:
        report["finite_dim"] = "no"
        return report
    special = Nt - q_tilde + 1 if 0 < q_tilde < Nt else None
    res = dict(_decide(_chain(tt, Nt, special, Fraction(q_tilde)), deg_max))
    worst = _worst(res.values())
    report["finite_dim"] = _ANSWER[worst]
    if worst == FOUND:
        report["P"] = [r.P for r in res.values()]
        report["gamma"] = None if special is None else res[special].gamma
    return report


# ---------------------------------------------------------------------------
# series factorization for type B rank 1
# ---------------------------------------------------------------------------


def mu_factorize_b0(mu0: RatFunc, mu1: RatFunc, order: int = 12) -> TruncSeries:
    """The series mu0(u) with tmu_1(u) = 2u mu0(2u) mu0(2u-1) and
    tmu_0(u) = 2u mu0(2u) mu0(1-2u), for a rank-one type-B weight pair.

    Both hypotheses are verified exactly before factoring, and the
    factorization is re-multiplied and checked through the given order."""
    pt = pair("B0", 3)
    wt = WeightTuple(pt, {0: mu0, 1: mu1})
    tt = tilde(wt).tmu
    u = RatFunc(poly(0, 1))
    half = Fraction(1, 2)
    if u * tt[0].substitute_affine(-1, half) != (RatFunc.of(half) - u) * tt[0]:
        raise ValueError("hypothesis failed: u tmu_0(1/2-u) = (1/2-u) tmu_0(u)")
    if tt[0] * tt[0].substitute_affine(-1, 1) != tt[1] * tt[1].substitute_affine(-1, 1):
        raise ValueError("hypothesis failed: tmu_0(u)tmu_0(1-u) = tmu_1(u)tmu_1(1-u)")
    lam = factor_shifted_square(series_expand(mu1, order), Fraction(-1, 2))
    mu_circ = lam.scale_argument(half)  # lambda(u/2)
    # verify the two displays through the truncation order
    m2u = mu_circ.scale_argument(2)
    # mu_circ(2u - 1) = mu_circ(2(u - 1/2)) and mu_circ(1 - 2u) = mu_circ(-2(u - 1/2))
    m2um1 = mu_circ.scale_argument(2).shift_argument(Fraction(-1, 2))
    m1m2u = mu_circ.scale_argument(-2).shift_argument(Fraction(-1, 2))
    lhs1 = series_expand(tt[1] / RatFunc(poly(0, 2)), order)
    if lhs1 != m2u * m2um1:
        raise ValueError("re-multiplication failed for tmu_1")
    lhs0 = series_expand(tt[0] / RatFunc(poly(0, 2)), order)
    if lhs0 != m2u * m1m2u:
        raise ValueError("re-multiplication failed for tmu_0")
    return mu_circ


# ---------------------------------------------------------------------------
# extension of X(g_N)-weights and their Drinfeld polynomials
# ---------------------------------------------------------------------------


def extend_lambda(partial: dict, N: int, family: str, nu: RatFunc | None = None,
                  k: int | None = None) -> dict:
    """The unique full tuple (lambda_i)_{-n<=i<=n} extending the given
    components over I_N so that the X(g_N) Verma module is non-trivial.

    Even N needs the extra datum lambda_{-k} = nu."""
    n = N // 2
    ka = kappa(N, family)
    lam = {i: RatFunc.of(partial[i]) for i in partial}
    for i in lam:
        if not lam[i].finite_at_infinity or lam[i].value_at_infinity() != 1:
            raise ValueError(f"lambda_{i} must tend to 1 at infinity")

    def step(i):
        return Fraction(-ka + n - i)

    if N % 2 == 1:
        lam[-1] = (lam[0] / lam[1]).substitute_affine(1, step(0)) * lam[0]
        for i in range(1, n):
            lam[-i - 1] = (lam[i] / lam[i + 1]).substitute_affine(1, step(i)) * lam[-i]
    else:
        if nu is None or k is None:
            raise ValueError("even N requires the extra datum (nu, k)")
        lam[-k] = RatFunc.of(nu)
        for i in range(k, n):
            lam[-i - 1] = (lam[i] / lam[i + 1]).substitute_affine(1, step(i)) * lam[-i]
        for i in range(k - 1, 0, -1):
            lam[-i] = lam[-i - 1] / (lam[i] / lam[i + 1]).substitute_affine(1, step(i))
    # verify the non-triviality relation on the full tuple
    lo = 0 if N % 2 == 1 else 1
    for i in range(lo, n):
        lhs = lam[-i] / lam[-i - 1]
        rhs = (lam[i + 1] / lam[i]).substitute_affine(1, step(i))
        if lhs != rhs:
            raise AssertionError(f"extension failed the defining relation at i={i}")
    return lam


def xgn_fd_check(lam: dict, N: int, family: str, deg_max: int = 16):
    """Drinfeld polynomials of an X(g_N)-weight, or None where absent."""
    n = N // 2
    shift, j = _p1_shift(N, family)
    top = lam[0] if N % 2 == 1 else lam[-1]
    conds = [(i, lam[i - 1] / lam[i], 1, None, None) for i in range(2, n + 1)]
    conds.append((1, top / lam[j], shift, None, None))
    out = {}
    for i, res in _decide(conds, deg_max):
        if res.status != FOUND:
            return None
        out[i] = res.P
    return [out[i] for i in range(1, n + 1)]


def construct_from_cert(cert: Certificate, Q: list) -> WeightTuple:
    """A weight tuple whose classification returns exactly the certificate.

    Q supplies monic polynomials with rational roots such that
    P_i(u) = (-1)^{deg Q_i} Q_i(u) Q_i(-u + c_i) for the pair's reflection
    centers c_i; the construction follows the sufficiency recipe
    (lambda products of shifted Q's, extension, restriction weights, and for
    CI/DIII a tensor factor with the one-dimensional module V(gamma-kappa))."""
    pt = cert.pair
    n = pt.n
    ka = pt.kappa
    if len(Q) != n:
        raise ValueError(f"expected {n} polynomials Q_i")
    for i in range(1, n + 1):
        c = p1_symmetry_center(pt) if i == 1 else Fraction(n - i + 2)
        refl = Q[i - 1].compose_affine(-1, c)
        prod = Q[i - 1] * refl * Fraction((-1) ** Q[i - 1].degree)
        if prod != cert.P[i - 1]:
            raise ValueError(f"Q_{i} does not reproduce P_{i} under reflection at {c}")
    qhat = [q.compose_affine(1, ka / 2) for q in Q]  # Qhat_i(u) = Q_i(u + kappa/2)
    a = sum(q.degree for q in Q[1:])
    ua = Poly([0] * a + [1]) if a else P_ONE

    def lam_i(i):
        num = P_ONE
        for j in range(2, i + 1):
            num = num * qhat[j - 1]
        for j in range(i + 1, n + 1):
            num = num * qhat[j - 1].compose_affine(1, 1)
        return RatFunc(num, ua)

    lam = {i: lam_i(i) for i in range(1, n + 1)}
    if pt.N % 2 == 1:
        lam[0] = RatFunc(qhat[0].compose_affine(1, Fraction(1, 2)), qhat[0]) * lam[1]
        full = extend_lambda(lam, pt.N, pt.family)
    else:
        if pt.family == SYMPLECTIC:
            nu = RatFunc(qhat[0].compose_affine(1, 2), qhat[0]) * lam[1]
        else:
            nu = RatFunc(qhat[0].compose_affine(1, 1), qhat[0]) * lam[2]
        full = extend_lambda(lam, pt.N, pt.family, nu=nu, k=1)
    gfac = RatFunc.of(1)
    if pt.tag in ("CI", "DIII"):
        gfac = RatFunc(poly(cert.gamma - ka, 1), poly(0, 1))  # 1 + (gamma-kappa)/u
    two_u = RatFunc(poly(0, 2))
    tmu = {}
    for i in pt.i_range:
        tmu[i] = (
            two_u
            * gfac
            * full[i].substitute_affine(1, -ka / 2)
            * full[-i].substitute_affine(-1, ka / 2)
        )
    return untilde(TildeTuple(pt, tmu))
