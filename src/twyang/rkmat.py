"""Symmetric-pair data, R-matrices, G/K-matrices and their exact identities.

Supported pair tags: B0, C0, D0 (trivial pairs), CI, DIII, BIa, BIb, CII,
DIa, and AIII (rows/columns labeled 1..N, used for reflection-algebra
bookkeeping).  DI(b) has a non-diagonal G matrix and is rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import P_ONE, RF_ZERO, Poly, RatFunc, frac, poly
from .tensors import (
    ORTHOGONAL,
    SYMPLECTIC,
    IndexSet,
    LabeledMatrix,
    kappa,
    op_P,
    op_Q,
)
from .verify import (
    OperatorMatrix,
    Report,
    _symmetry_report,
    check_relation,
    scalar_product_with_reflected,
)

GL = "gl"

_BCD_TAGS = ("B0", "C0", "D0", "CI", "DIII", "BIa", "BIb", "CII", "DIa")


@dataclass(frozen=True)
class PairType:
    """A supported symmetric pair together with its derived constants."""

    tag: str
    N: int
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        t, N = self.tag, self.N
        if t == "DIb":
            raise ValueError("type DI(b) is unsupported: its G matrix is not diagonal")
        if t not in _BCD_TAGS + ("AIII",):
            raise ValueError(f"unknown pair tag {t!r}")
        if t in ("B0", "BIa", "BIb"):
            if N % 2 == 0 or N < 3:
                raise ValueError(f"{t} requires odd N >= 3")
        elif t in ("C0", "CI", "CII"):
            if N % 2 == 1 or N < 2:
                raise ValueError(f"{t} requires even N >= 2")
        elif t in ("D0", "DIII", "DIa"):
            if N % 2 == 1 or N < 4:
                raise ValueError(f"{t} requires even N >= 4")
        if t in ("BIa", "BIb", "CII", "DIa", "AIII"):
            p, q = self.p, self.q
            if p is None or q is None or q <= 0 or p < q or p + q != N:
                raise ValueError(f"{t} requires p >= q > 0 with p + q = N")
            if t == "BIa" and not (p % 2 == 1 and q % 2 == 0):
                raise ValueError("BI(a) requires p odd and q even")
            if t == "BIb" and not (p % 2 == 0 and q % 2 == 1):
                raise ValueError("BI(b) requires p even and q odd")
            if t in ("CII", "DIa") and not (p % 2 == 0 and q % 2 == 0):
                raise ValueError(f"{t} requires p and q even")
        elif self.p is not None or self.q is not None:
            raise ValueError(f"{t} takes no 'p' or 'q', got p={self.p!r}, q={self.q!r}")

    # -- index data ------------------------------------------------------
    @property
    def n(self) -> int:
        return self.N // 2

    @property
    def index_set(self) -> IndexSet:
        return IndexSet.for_N(self.N)

    def labels(self):
        if self.tag == "AIII":
            return list(range(1, self.N + 1))
        return self.index_set.labels()

    @property
    def i_range(self):
        """The index set I_N: {0..n} in type B, {1..n} otherwise."""
        lo = 0 if self.N % 2 == 1 else 1
        return list(range(lo, self.n + 1))

    # -- family data -------------------------------------------------------
    @property
    def family(self) -> str:
        if self.tag == "AIII":
            return GL
        return SYMPLECTIC if self.tag in ("C0", "CI", "CII") else ORTHOGONAL

    @property
    def kappa(self) -> Fraction:
        if self.tag == "AIII":
            raise ValueError("kappa is defined for the B-C-D families only")
        return kappa(self.N, self.family)

    @property
    def sign_pm(self) -> int:
        """The bare +- sign: +1 orthogonal, -1 symplectic."""
        return -1 if self.family == SYMPLECTIC else 1

    @property
    def sign_ci_diii(self) -> int:
        """The (+-) sign: -1 for CI and DIII, +1 otherwise."""
        return -1 if self.tag in ("CI", "DIII") else 1

    @property
    def sign_bracket(self) -> int:
        """The [+-] sign: -1 for BI(b), +1 otherwise."""
        return -1 if self.tag == "BIb" else 1

    # -- G-matrix data -------------------------------------------------------
    @property
    def first_kind(self) -> bool:
        """True iff the K-matrix G(u) is constant."""
        if self.tag in ("BIa", "BIb", "CII", "DIa", "AIII"):
            return self.p == self.q
        return True

    @property
    def c(self) -> Fraction:
        if self.first_kind:
            raise ValueError("the constant c exists only for second-kind pairs")
        return Fraction(4, self.p - self.q)

    def g_diagonal(self):
        """The diagonal of the constant matrix G, keyed by signed label."""
        n, t = self.n, self.tag
        d = {}
        if t in ("B0", "C0", "D0"):
            for l in self.labels():
                d[l] = 1
        elif t in ("CI", "DIII"):
            for i in range(1, n + 1):
                d[i], d[-i] = 1, -1
        elif t == "BIa":
            k = (self.p - 1) // 2
            for l in self.labels():
                d[l] = 1 if abs(l) <= k else -1
        elif t == "BIb":
            k = (self.q - 1) // 2
            for l in self.labels():
                d[l] = -1 if abs(l) <= k else 1
        elif t in ("CII", "DIa"):
            k = self.p // 2
            for l in self.labels():
                d[l] = 1 if abs(l) <= k else -1
        elif t == "AIII":
            for l in self.labels():
                d[l] = 1 if l <= self.p else -1
        return d

    @property
    def bold_k(self) -> int:
        """The unique k in I_N with g_kk != g_{k+1,k+1}, or n if g is constant 1."""
        g = self.g_diagonal()
        seq = [g[i] for i in self.i_range]
        if all(x == 1 for x in seq):
            return self.n
        for pos, i in enumerate(self.i_range[:-1]):
            if seq[pos] != seq[pos + 1]:
                return i
        return self.n

    @property
    def ell(self) -> int:
        return self.n - self.bold_k

    def __str__(self):
        if self.p is not None:
            return f"{self.tag}(N={self.N}, p={self.p}, q={self.q})"
        return f"{self.tag}(N={self.N})"


def pair(tag: str, N: int, p: int | None = None, q: int | None = None) -> PairType:
    return PairType(tag, N, p, q)


def all_supported_pairs(max_N: int = 6):
    """Every supported B-C-D pair with N <= max_N."""
    out = []
    for N in range(2, max_N + 1):
        for tag in _BCD_TAGS:
            if tag in ("BIa", "BIb", "CII", "DIa"):
                for q in range(1, N):
                    p = N - q
                    try:
                        out.append(PairType(tag, N, p, q))
                    except ValueError:
                        pass
            else:
                try:
                    out.append(PairType(tag, N))
                except ValueError:
                    pass
    return out


# ---------------------------------------------------------------------------
# R-matrices
# ---------------------------------------------------------------------------


def r_matrix(N: int, family: str) -> LabeledMatrix:
    """R(u) = I - P/u (gl_N) or I - P/u + Q/(u - kappa) (g_N), over RatFunc."""
    if family == GL:
        labels = [(i, k) for i in IndexSet.for_N(N).labels() for k in IndexSet.for_N(N).labels()]
        out = LabeledMatrix.identity(labels, RatFunc.of(1))
        inv_u = RatFunc(P_ONE, poly(0, 1))
        return out + op_P(N).map_values(lambda v: -v * inv_u)
    if family == SYMPLECTIC and N % 2 == 1:
        raise ValueError("symplectic requires even N")
    if family == ORTHOGONAL and N < 3:
        raise ValueError("orthogonal requires N >= 3")
    labels = [(i, k) for i in IndexSet.for_N(N).labels() for k in IndexSet.for_N(N).labels()]
    out = LabeledMatrix.identity(labels, RatFunc.of(1))
    inv_u = RatFunc(P_ONE, poly(0, 1))
    inv_uk = RatFunc(P_ONE, poly(-kappa(N, family), 1))
    out = out + op_P(N).map_values(lambda v: -v * inv_u)
    out = out + op_Q(N, family).map_values(lambda v: v * inv_uk)
    return out


def r_matrix_for_pair(pt: PairType) -> LabeledMatrix:
    return r_matrix(pt.N, GL if pt.tag == "AIII" else pt.family)


# ---------------------------------------------------------------------------
# G / K matrices
# ---------------------------------------------------------------------------


def g_matrix(pt: PairType) -> LabeledMatrix:
    """The K-matrix G(u) of the pair: constant for the first kind,
    (I - c u G)/(1 - c u) for the second kind, as a diagonal RatFunc matrix."""
    diag = pt.g_diagonal()
    labels = pt.labels()
    m = LabeledMatrix(labels)
    if pt.first_kind:
        for l in labels:
            m.data[((l,), (l,))] = RatFunc.of(diag[l])
        return m
    c = pt.c
    den = poly(1, -c)  # 1 - c u
    for l in labels:
        num = poly(1, -c * diag[l])  # 1 - c u g_ll
        m.data[((l,), (l,))] = RatFunc(num, den)
    return m


def k_one_param(pt: PairType, a) -> LabeledMatrix:
    """The one-parameter K-matrix G + a u^{-1} I for pairs CI and DIII."""
    if pt.tag not in ("CI", "DIII"):
        raise ValueError("the one-parameter family exists for CI and DIII only")
    a = frac(a)
    au = RatFunc(Poly.constant(a), poly(0, 1))
    m = g_matrix(pt)
    for l in pt.labels():
        m.data[((l,), (l,))] = m[((l,), (l,))] + au
    return m


# ---------------------------------------------------------------------------
# exact identity checks (the relations of the form A X1 B X2 run on verify's engine)
# ---------------------------------------------------------------------------


def _operator(m: LabeledMatrix, family=None) -> OperatorMatrix:
    """m as an operator matrix over its one-leg labels: a one-leg K acts on C
    (dim 1), a two-leg R on leg (x) C^N, with s_ij[k, l] = R[(i, k), (j, l)]."""
    labels = sorted({l[0] for l in m.labels})
    d = len(labels) if m.legs == 2 else 1
    pos = {l: k for k, l in enumerate(labels)}
    s = {}
    for (r, c), v in m.data.items():
        e = s.setdefault((r[0], c[0]), np.full((d, d), RF_ZERO, dtype=object))
        e[(pos[r[1]], pos[c[1]]) if d > 1 else (0, 0)] = v
    return OperatorMatrix.from_entries(labels, family, d, s)


def check_yang_baxter(R: LabeledMatrix) -> Report:
    """R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u), exactly; checked as
    R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v), with X = R on leg (x) C^N."""
    r = _operator(R)
    x = r.coeffs()
    return check_relation("yang-baxter", r.labels, x, x,
                          entry_labels=[(l,) for l in r.labels])


def check_reflection(R: LabeledMatrix, K: LabeledMatrix) -> Report:
    """R(u-v) K1(u) R(u+v) K2(v) = K2(v) R(u+v) K1(u) R(u-v), exactly."""
    k = _operator(K)
    r = _operator(R).coeffs()
    return check_relation("reflection", k.labels, r, k.coeffs(), r, entry_labels=[()])


def check_twisted_reflection(R: LabeledMatrix, K: LabeledMatrix, family: str) -> Report:
    """R(u-v) K1(u) R^t(-u-v) K2(v) = K2(v) R^t(-u-v) K1(u) R(u-v), exactly."""
    k = _operator(K)
    rt = R.partial_transpose(1, family).map_values(lambda v: v.reflect())
    return check_relation("twisted-reflection", k.labels, _operator(R).coeffs(),
                          k.coeffs(), _operator(rt).coeffs(), entry_labels=[()])


def _check_product(name, X: LabeledMatrix, w_expected: RatFunc) -> Report:
    w, rep = scalar_product_with_reflected(_operator(X))
    rep.name = name
    if w is not None and w != w_expected:
        rep.fail(("w(u)", w))
    return rep


def check_unitarity(K: LabeledMatrix) -> Report:
    """K(u) K(-u) = I, exactly."""
    return _check_product("unitarity", K, RatFunc.of(1))


def check_r_unitarity(R: LabeledMatrix) -> Report:
    """R(u) R(-u) = (1 - u^-2) I, exactly, with R an operator matrix on leg (x) C^N."""
    return _check_product("r-unitarity", R, RatFunc(poly(-1, 0, 1), poly(0, 0, 1)))


def p_scalar(K: LabeledMatrix, pt: PairType) -> RatFunc:
    """p(u) = (+-)1 -+ 1/(2u - kappa) + Tr K(u) / (2u - 2 kappa)."""
    if pt.tag == "AIII":
        raise ValueError("p(u) is defined for the B-C-D families only")
    ka = pt.kappa
    tr = K.trace()
    one = RatFunc.of(pt.sign_ci_diii)
    mid = RatFunc(Poly.constant(-pt.sign_pm), poly(-ka, 2))
    last = RatFunc.of(tr) * RatFunc(P_ONE, poly(-2 * ka, 2))
    return one + mid + last


def check_p_identity(K: LabeledMatrix, pt: PairType) -> Report:
    """p(u) p(kappa - u) = 1 - (2u - kappa)^-2, exactly."""
    rep = Report("p-identity")
    ka = pt.kappa
    p = p_scalar(K, pt)
    lhs = p * p.reflect(ka)
    rhs = RatFunc.of(1) - RatFunc(P_ONE, poly(-ka, 2) * poly(-ka, 2))
    if lhs != rhs:
        rep.fail(("p(u)p(kappa-u)", lhs - rhs))
    rep.details["p"] = p
    return rep


def check_symmetry(K: LabeledMatrix, pt: PairType) -> Report:
    """The K-matrix symmetry identity, exactly:

      K^t(u) = (+-)K(k-u) +- (K(u)-K(k-u))/(2u-k)
               + (Tr G(u) K(k-u) - Tr K(u) I)/(2u-2k),

    the symmetry relation of the one-dimensional module S(u) -> K(u), with G
    the pair's G-matrix.  For K = G this is the identity of G; for the
    one-parameter K = G + a/u I of CI and DIII, where Tr G = 0 and (+-) = -1,
    it reads K^t(u) = -K(k-u) +- (K(u)-K(k-u))/(2u-k) - Tr K(u) I/(2u-2k).
    """
    if pt.tag == "AIII":
        raise ValueError("the symmetry identity is for the B-C-D families only")
    return _symmetry_report("k-symmetry", _operator(K, pt.family), pt.kappa,
                            pt.sign_ci_diii, pt.sign_pm, g_matrix(pt).trace())


def verify_k_matrix(pt: PairType, a=None) -> Report:
    """Full K-matrix suite for a pair: reflection, unitarity, symmetry, p(u)."""
    rep = Report(f"k-matrix {pt}" + (f" a={a}" if a is not None else ""))
    K = g_matrix(pt) if a is None else k_one_param(pt, a)
    R = r_matrix_for_pair(pt)
    rep.merge(check_reflection(R, K))
    if a is None:
        rep.merge(check_unitarity(K))
    if pt.tag != "AIII":
        rep.merge(check_symmetry(K, pt))
        if a is None:
            rep.merge(check_p_identity(K, pt))
    return rep


def verify_r_matrix(N: int, family: str) -> Report:
    rep = Report(f"r-matrix N={N} {family}")
    R = r_matrix(N, family)
    rep.merge(check_yang_baxter(R))
    rep.merge(check_r_unitarity(R))
    return rep
