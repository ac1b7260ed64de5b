"""Concrete modules over twisted Yangians: construction and verification.

A module stores, for each pair of signed indices (i, j), the d x d matrix of
exact rational functions by which s_ij(u) acts.  All defining identities are
checked as exact polynomial identities after clearing denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import P_ONE, Poly, RatFunc, Sqrt2, frac, poly
from .liealg import (
    LieModule,
    _eye,
    _zeros,
    casimir_so3,
    casimir_so4,
    casimir_z_gl2,
    gl1_module,
    gl2_module,
    so3_module,
    so4_module,
    sp2_module,
)
from .rkmat import PairType, Report, g_matrix, pair
from .tensors import ORTHOGONAL, SYMPLECTIC, theta
from .verify import (
    ClearedS,
    check_mr_commutators,
    check_olshanskii_commutators,
    check_rtt_commutators,
    check_twisted_commutators,
    scalar_product_with_reflected,
)
from . import linalg


def _rf_zeros(d):
    m = np.empty((d, d), dtype=object)
    m[:] = RatFunc.of(0)
    return m


class OperatorMatrix:
    """Common storage for S/T-matrices acting on a d-dimensional space."""

    def __init__(self, labels, family, dim, s):
        self.labels = list(labels)
        self.family = family
        self.dim = dim
        self.s = {k: v for k, v in s.items() if v is not None}
        self._cleared = None

    def entry(self, i, j):
        got = self.s.get((i, j))
        return got if got is not None else _rf_zeros(self.dim)

    def cleared(self) -> ClearedS:
        if self._cleared is None:
            self._cleared = ClearedS.of(self.labels, self.family, self.dim, self.s)
        return self._cleared

    def map_entries(self, f):
        return {k: np.vectorize(f, otypes=[object])(m) for k, m in self.s.items()}


@dataclass
class TwistedModule:
    pair: PairType
    op: OperatorMatrix
    provenance: str = ""

    @property
    def dim(self):
        return self.op.dim

    def entry(self, i, j):
        return self.op.entry(i, j)


@dataclass
class XModule:
    N: int
    family: str
    op: OperatorMatrix
    provenance: str = ""

    @property
    def dim(self):
        return self.op.dim

    @property
    def kappa(self) -> Fraction:
        return Fraction(self.N, 2) + (1 if self.family == SYMPLECTIC else -1)


@dataclass
class OlshanskiiModule:
    sign: int  # +1 for Y+(2) (orthogonal transpose), -1 for Y-(2)
    op: OperatorMatrix
    provenance: str = ""

    @property
    def dim(self):
        return self.op.dim


def _operator_matrix_from_entries(labels, family, dim, entries):
    s = {}
    for k, m in entries.items():
        if m is not None and any(bool(x) for x in m.flat):
            s[k] = m
    return OperatorMatrix(labels, family, dim, s)


# ---------------------------------------------------------------------------
# evaluation modules
# ---------------------------------------------------------------------------


def _rf_const_matrix(m):
    return np.vectorize(lambda x: RatFunc.of(x), otypes=[object])(m)


def _series_matrix(terms, dim):
    """Sum of (RatFunc scalar, numpy matrix) products as a RatFunc matrix."""
    out = _rf_zeros(dim)
    for c, m in terms:
        out = out + np.vectorize(lambda x: c * RatFunc.of(x), otypes=[object])(m)
    return out


def eval_sp2(variant: str, mu) -> TwistedModule:
    """Evaluation modules of the rank-one symplectic twisted Yangians.

    variant "C0": S(u) = I + F'(u-2)^{-1} on the sp_2 module V(mu);
    variant "CI": S(u) = G + F' u^{-1} on the one-dimensional gl_1 module.
    """
    if variant == "C0":
        pt = pair("C0", 2)
        lie = sp2_module(mu)
        inv = RatFunc(P_ONE, poly(-2, 1))
    elif variant == "CI":
        pt = pair("CI", 2)
        lie = gl1_module(mu)
        inv = RatFunc(P_ONE, poly(0, 1))
    else:
        raise ValueError("variant must be C0 or CI")
    g = pt.g_diagonal()
    fp = lie.fprime(g)
    d = lie.dim
    entries = {}
    for i in pt.labels():
        for j in pt.labels():
            terms = []
            if i == j:
                terms.append((RatFunc.of(g[i]), _eye(d)))
            if (i, j) in fp:
                terms.append((inv, fp[(i, j)]))
            if terms:
                entries[(i, j)] = _series_matrix(terms, d)
    op = _operator_matrix_from_entries(pt.labels(), pt.family, d, entries)
    return TwistedModule(pt, op, provenance=f"eval_sp2({variant}, mu={frac(mu)})")


def eval_so3(mu) -> TwistedModule:
    """Evaluation module of X(so_3, so_3)^tw on the so_3 module V(mu):

    S(u) = I + u/(u-3/4) [ F'/(u-1/4) + (F'^2 - 2F' - 2 Omega(u) I)/(2(u-1/4)^2) ],
    Omega(u) = (4u+1)/(4u) * Omega.
    """
    pt = pair("B0", 3)
    lie = so3_module(mu)
    d = lie.dim
    g = pt.g_diagonal()
    fp = lie.fprime(g)
    om = casimir_so3(lie)
    u_over = RatFunc(poly(0, 1), poly(frac(-3, 4), 1))  # u/(u-3/4)
    inv1 = RatFunc(P_ONE, poly(frac(-1, 4), 1))  # 1/(u-1/4)
    omega_u = RatFunc(poly(1, 4), poly(0, 4))  # (4u+1)/(4u)

    def fpm(i, j):
        return fp.get((i, j), _zeros(d))

    entries = {}
    labs = pt.labels()
    for i in labs:
        for j in labs:
            fp2 = _zeros(d)
            for a in labs:
                fp2 = fp2 + fpm(i, a) @ fpm(a, j)
            inner = _series_matrix(
                [
                    (inv1, fpm(i, j)),
                    (inv1 * inv1 * frac(1, 2), fp2 - 2 * fpm(i, j)),
                ],
                d,
            )
            if i == j:
                inner = inner + _series_matrix([(-inv1 * inv1 * omega_u, om)], d)
            m = np.vectorize(lambda x: u_over * x, otypes=[object])(inner)
            if i == j:
                m = m + _rf_const_matrix(_eye(d))
            entries[(i, j)] = m
    op = _operator_matrix_from_entries(labs, pt.family, d, entries)
    return TwistedModule(pt, op, provenance=f"eval_so3(mu={frac(mu)})")


def eval_so4(variant: str, mu1, mu2) -> TwistedModule:
    """Evaluation modules of X(so_4, so_4^rho)^tw.

    variant "D0":   S(u) = I + F'/(u-1) + (F'^2 - 2F' - 2 Omega I)/(2(u-1)^2);
    variant "DIII": S(u) = G + F'/u + G (F'^2 - 2 z I)/(2u(u-1)).
    """
    if variant == "D0":
        pt = pair("D0", 4)
        lie = so4_module(mu1, mu2)
        cas = casimir_so4(lie)
    elif variant == "DIII":
        pt = pair("DIII", 4)
        lie = gl2_module(mu1, mu2)
        cas = casimir_z_gl2(lie)
    else:
        raise ValueError("variant must be D0 or DIII")
    d = lie.dim
    g = pt.g_diagonal()
    fp = lie.fprime(g)
    labs = pt.labels()

    def fpm(i, j):
        return fp.get((i, j), _zeros(d))

    entries = {}
    if variant == "D0":
        inv = RatFunc(P_ONE, poly(-1, 1))
        for i in labs:
            for j in labs:
                fp2 = _zeros(d)
                for a in labs:
                    fp2 = fp2 + fpm(i, a) @ fpm(a, j)
                quad = fp2 - 2 * fpm(i, j) - (2 * cas if i == j else _zeros(d))
                m = _series_matrix(
                    [(inv, fpm(i, j)), (inv * inv * frac(1, 2), quad)], d
                )
                if i == j:
                    m = m + _rf_const_matrix(_eye(d))
                entries[(i, j)] = m
    else:
        inv_u = RatFunc(P_ONE, poly(0, 1))
        inv_uu1 = RatFunc(P_ONE, poly(0, -1, 1))  # 1/(u(u-1))
        for i in labs:
            for j in labs:
                fp2 = _zeros(d)
                for a in labs:
                    fp2 = fp2 + fpm(i, a) @ fpm(a, j)
                quad = fp2 - (2 * cas if i == j else _zeros(d))
                m = _series_matrix(
                    [(inv_u, fpm(i, j)), (inv_uu1 * frac(g[i], 2), quad)], d
                )
                if i == j:
                    m = m + _rf_const_matrix(g[i] * _eye(d))
                entries[(i, j)] = m
    op = _operator_matrix_from_entries(labs, pt.family, d, entries)
    return TwistedModule(
        pt, op, provenance=f"eval_so4({variant}, mu=({frac(mu1)},{frac(mu2)}))"
    )


def onedim_module(pt: PairType, a=None) -> TwistedModule:
    """One-dimensional module S(u) -> G(u), or G + a/u I for CI/DIII."""
    if a is not None and pt.tag not in ("CI", "DIII"):
        raise ValueError("the parameter a exists for CI and DIII only")
    gm = g_matrix(pt)
    entries = {}
    for l in pt.labels():
        v = gm[((l,), (l,))]
        if a is not None:
            v = v + RatFunc(Poly.constant(frac(a)), poly(0, 1))
        m = np.empty((1, 1), dtype=object)
        m[0, 0] = v
        entries[(l, l)] = m
    op = _operator_matrix_from_entries(pt.labels(), pt.family, 1, entries)
    return TwistedModule(pt, op, provenance=f"onedim({pt}, a={a})")


# ---------------------------------------------------------------------------
# Olshanskii Y+-(2) modules and the Sklyanin determinant
# ---------------------------------------------------------------------------


def olshanskii_eval(sign: int, lie) -> OlshanskiiModule:
    """Evaluation module of Y+-(2): s_ij(u) = delta_ij + F_ij (u +- 1/2)^{-1}.

    `lie` supplies the F-action: a LieModule over labels {-1, 1} or a raw
    (dim, {(i,j): matrix}) pair.  sign +1 needs an so_2-type action, sign -1
    an sp_2-type one.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if isinstance(lie, LieModule):
        d, F = lie.dim, lie.F
    else:
        d, F = lie
    den = poly(Fraction(sign, 2), 1)  # u +- 1/2
    inv = RatFunc(P_ONE, den)
    labs = [-1, 1]
    entries = {}
    for i in labs:
        for j in labs:
            terms = []
            if i == j:
                terms.append((RatFunc.of(1), _eye(d)))
            if (i, j) in F:
                terms.append((inv, F[(i, j)]))
            if terms:
                entries[(i, j)] = _series_matrix(terms, d)
    fam = ORTHOGONAL if sign == 1 else SYMPLECTIC
    op = _operator_matrix_from_entries(labs, fam, d, entries)
    return OlshanskiiModule(sign, op, provenance=f"olshanskii_eval(sign={sign:+d})")


def verify_olshanskii(m: OlshanskiiModule) -> Report:
    """Defining commutator relations and the symmetry relation of Y+-(2)."""
    rep = Report(f"olshanskii {m.provenance}")
    cs = m.op.cleared()
    rep.merge(check_olshanskii_commutators(cs))
    sym = Report("olshanskii-symmetry")
    for i in (-1, 1):
        for j in (-1, 1):
            th = theta(m.op.family, i, j)
            lhs = np.vectorize(lambda x: RatFunc.of(th) * x, otypes=[object])(
                m.op.entry(-j, -i)
            )
            s_u = m.op.entry(i, j)
            s_neg = np.vectorize(lambda x: x.reflect(), otypes=[object])(s_u)
            inv2u = RatFunc(Poly.constant(frac(m.sign)), poly(0, 2))
            rhs = s_neg + np.vectorize(lambda x: inv2u * x, otypes=[object])(s_u - s_neg)
            if any(bool(x) for x in (lhs - rhs).flat):
                sym.fail(((i, j), "symmetry relation violated"))
    rep.merge(sym)
    return rep


def sklyanin_det2(m: OlshanskiiModule):
    """sdet S(u) from both closed expressions; returns (RatFunc|None, Report)."""
    rep = Report("sklyanin-det")
    pm = m.sign
    pref = RatFunc(poly(1, 2), poly(pm, 2))  # (2u+1)/(2u +- 1)

    def sub(e, a, b):
        return np.vectorize(lambda x: x.substitute_affine(a, b), otypes=[object])(e)

    s = m.op.entry
    line1 = sub(s(-1, -1), 1, -1) @ sub(s(-1, -1), -1, 0) - pm * (
        sub(s(-1, 1), 1, -1) @ sub(s(1, -1), -1, 0)
    )
    line2 = sub(s(1, 1), -1, 0) @ sub(s(1, 1), 1, -1) - pm * (
        sub(s(1, -1), -1, 0) @ sub(s(-1, 1), 1, -1)
    )
    if any(bool(x) for x in (line1 - line2).flat):
        rep.fail(("sdet", "the two expressions for sdet differ"))
        return None, rep
    d = m.dim
    c = line1[0, 0]
    for r in range(d):
        for q in range(d):
            if (r == q and line1[r, q] != c) or (r != q and line1[r, q]):
                rep.fail(("sdet", "sdet is not a scalar operator"))
                return None, rep
    return pref * c, rep


# ---------------------------------------------------------------------------
# bridges from Y+-(2)
# ---------------------------------------------------------------------------

K2x2 = {(-1, -1): Fraction(-1), (1, 1): Fraction(1)}  # E_11 - E_{-1,-1}


def bridge_sp2(variant: str, m: OlshanskiiModule) -> TwistedModule:
    """X(sp_2, sp_2^rho)^tw module from a Y+-(2) module.

    variant "C0" takes a Y-(2) module via S(u) -> S(u/2 - 1/2);
    variant "CI" takes a Y+(2) module via S(u) -> S(u/2 - 1/2) K.
    """
    if variant == "C0":
        if m.sign != -1:
            raise ValueError("C0 bridges from Y-(2)")
        pt = pair("C0", 2)
    elif variant == "CI":
        if m.sign != 1:
            raise ValueError("CI bridges from Y+(2)")
        pt = pair("CI", 2)
    else:
        raise ValueError("variant must be C0 or CI")
    half = Fraction(1, 2)
    entries = {}
    for i in (-1, 1):
        for j in (-1, 1):
            e = m.op.s.get((i, j))
            if e is None:
                continue
            e = np.vectorize(lambda x: x.substitute_affine(half, -half), otypes=[object])(e)
            if variant == "CI":
                e = K2x2[(j, j)] * e
            entries[(i, j)] = e
    op = _operator_matrix_from_entries([-1, 1], SYMPLECTIC, m.dim, entries)
    return TwistedModule(pt, op, provenance=f"bridge_sp2({variant}) of {m.provenance}")


def _aux_matmul(A, B):
    """Multiply operator-valued aux matrices stored as {(r,c): d x d RatFunc}."""
    out = {}
    for (r, k), a in A.items():
        for (k2, c), b in B.items():
            if k != k2:
                continue
            p = a @ b
            key = (r, c)
            out[key] = p if key not in out else out[key] + p
    return out


def _scalar_aux(entries_scalar, dim):
    """Lift a {(r,c): RatFunc} aux matrix to operator-valued (scalar * Id)."""
    out = {}
    eye = _rf_const_matrix(_eye(dim))
    for k, c in entries_scalar.items():
        out[k] = np.vectorize(lambda x, c=c: c * x, otypes=[object])(eye)
    return out


def bridge_so3(m: OlshanskiiModule) -> TwistedModule:
    """X(so_3, so_3)^tw module from a Y-(2) module via

        S(u) -> (1/2) R(-1) S_1(2u-1) R(-4u+1)^{t-} S_2(2u)

    restricted to the symmetric square of C^2 with the orthonormal basis
    (v_{-1}, v_0, v_1), v_0 = (e_{-1} x e_1 + e_1 x e_{-1}) / sqrt(2).
    Entries are coerced back to Q when they are rational.
    """
    if m.sign != -1:
        raise ValueError("the so_3 bridge takes a Y-(2) module")
    d = m.dim
    aux = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    # (1/2) R(-1) = (I + P)/2
    proj = {}
    for a, b in aux:
        proj[((a, b), (a, b))] = RatFunc.of(frac(1, 2))
        key = ((a, b), (b, a))
        proj[key] = proj.get(key, RatFunc.of(0)) + RatFunc.of(frac(1, 2))
    # R(-4u+1)^{t-} = I + Q_-/(4u - 1)
    rt = {((a, b), (a, b)): RatFunc.of(1) for a, b in aux}
    inv = RatFunc(P_ONE, poly(frac(-1, 4), 1)) * frac(1, 4)  # 1/(4u-1)
    for a in (-1, 1):
        for c in (-1, 1):
            th = theta(SYMPLECTIC, a, c)
            key = ((a, -a), (c, -c))
            rt[key] = rt.get(key, RatFunc.of(0)) + th * inv
    s1 = {}
    s2 = {}
    for (i, j), e in m.op.s.items():
        e1 = np.vectorize(lambda x: x.substitute_affine(2, -1), otypes=[object])(e)
        e2 = np.vectorize(lambda x: x.substitute_affine(2, 0), otypes=[object])(e)
        for b in (-1, 1):
            s1[((i, b), (j, b))] = e1
        for a in (-1, 1):
            s2[((a, i), (a, j))] = e2
    M = _aux_matmul(_scalar_aux(proj, d), s1)
    M = _aux_matmul(M, _scalar_aux(rt, d))
    M = _aux_matmul(M, s2)

    def comp(r, c):
        got = M.get((r, c))
        return got if got is not None else _rf_zeros(d)

    sq2 = RatFunc.of(Sqrt2(0, 1))
    cols = {
        -1: [(RatFunc.of(1), (-1, -1))],
        0: [(1 / sq2, (-1, 1)), (1 / sq2, (1, -1))],
        1: [(RatFunc.of(-1), (1, 1))],
    }
    entries = {}
    for j in (-1, 0, 1):
        img = {r: _rf_zeros(d) for r in aux}
        for cscale, c in cols[j]:
            for r in aux:
                img[r] = img[r] + np.vectorize(
                    lambda x, s=cscale: s * x, otypes=[object]
                )(comp(r, c))
        if any(bool(x) for x in (img[(-1, 1)] - img[(1, -1)]).flat):
            raise AssertionError("image of the so_3 bridge left the symmetric square")
        entries[(-1, j)] = img[(-1, -1)]
        entries[(0, j)] = np.vectorize(lambda x: sq2 * x, otypes=[object])(img[(-1, 1)])
        entries[(1, j)] = np.vectorize(lambda x: -x, otypes=[object])(img[(1, 1)])
    entries = {k: _rationalize(v) for k, v in entries.items()}
    pt = pair("B0", 3)
    op = _operator_matrix_from_entries(pt.labels(), pt.family, d, entries)
    return TwistedModule(pt, op, provenance=f"bridge_so3 of {m.provenance}")


def _rationalize(m):
    """Coerce Sqrt2 coefficients back to Fraction when possible."""

    def fix(x: RatFunc):
        def fixpoly(p: Poly):
            out = []
            for c in p.coeffs:
                if isinstance(c, Sqrt2):
                    if not c.is_rational:
                        return None
                    c = c.rational()
                out.append(c)
            return Poly(out)

        n, d = fixpoly(x.num), fixpoly(x.den)
        if n is None or d is None:
            return x
        return RatFunc(n, d, reduce=False)

    return np.vectorize(fix, otypes=[object])(m)


def bridge_so4(variant: str, mp: OlshanskiiModule, mm: OlshanskiiModule) -> TwistedModule:
    """X(so_4, so_4^rho)^tw module on the tensor product of a Y+(2)- and a
    Y-(2)-module (variant "DIII", map S -> S1(u-1/2) K_1 S2(u-1/2)) or of two
    Y-(2)-modules (variant "D0", no K factor)."""
    if variant == "DIII":
        if mp.sign != 1 or mm.sign != -1:
            raise ValueError("DIII bridges from Y+(2) x Y-(2)")
        pt = pair("DIII", 4)
        use_k = True
    elif variant == "D0":
        if mp.sign != -1 or mm.sign != -1:
            raise ValueError("D0 bridges from Y-(2) x Y-(2)")
        pt = pair("D0", 4)
        use_k = False
    else:
        raise ValueError("variant must be DIII or D0")
    half = Fraction(1, 2)
    sp = {k: np.vectorize(lambda x: x.substitute_affine(1, -half), otypes=[object])(v)
          for k, v in mp.op.s.items()}
    sm = {k: np.vectorize(lambda x: x.substitute_affine(1, -half), otypes=[object])(v)
          for k, v in mm.op.s.items()}
    basis = {-2: (-1, -1), -1: (-1, 1), 1: (1, -1), 2: (1, 1)}
    sgn = {-2: 1, -1: 1, 1: 1, 2: -1}
    dim = mp.dim * mm.dim
    entries = {}
    for i, (a, b) in basis.items():
        for j, (c, dd) in basis.items():
            e1 = sp.get((a, c))
            e2 = sm.get((b, dd))
            if e1 is None or e2 is None:
                continue
            w = sgn[i] * sgn[j] * (K2x2[(c, c)] if use_k else 1)
            mat = np.kron(e1, e2)
            if w != 1:
                mat = np.vectorize(lambda x, w=w: RatFunc.of(w) * x, otypes=[object])(mat)
            entries[(i, j)] = mat
    op = _operator_matrix_from_entries(pt.labels(), pt.family, dim, entries)
    return TwistedModule(
        pt, op, provenance=f"bridge_so4({variant}) of {mp.provenance} x {mm.provenance}"
    )


# ---------------------------------------------------------------------------
# X(g_N)-modules and tensor products
# ---------------------------------------------------------------------------


def vector_eval_x(N: int, family: str, a) -> XModule:
    """The X(g_N)-module on C^N with T(u) = R(u - a) (unnormalized)."""
    a = frac(a)
    if family == SYMPLECTIC and N % 2 == 1:
        raise ValueError("symplectic requires even N")
    if family == ORTHOGONAL and N < 3:
        raise ValueError("orthogonal requires N >= 3")
    kappa = Fraction(N, 2) + (1 if family == SYMPLECTIC else -1)
    from .tensors import IndexSet

    labs = IndexSet.for_N(N).labels()
    d = N
    pos = {l: k for k, l in enumerate(labs)}
    inv1 = RatFunc(P_ONE, poly(-a, 1))  # 1/(u-a)
    inv2 = RatFunc(P_ONE, poly(-a - kappa, 1))  # 1/(u-a-kappa)
    entries = {}
    for i in labs:
        for j in labs:
            m = _rf_zeros(d)
            nz = False
            if i == j:
                for l in labs:
                    m[pos[l], pos[l]] = m[pos[l], pos[l]] + RatFunc.of(1)
                nz = True
            # -delta_ik delta_lj / (u-a):  t_ij e_i ~ -e_j/(u-a)
            m[pos[j], pos[i]] = m[pos[j], pos[i]] - inv1
            # theta_ij delta_{k,-j} delta_{l,-i} / (u-a-kappa)
            m[pos[-i], pos[-j]] = m[pos[-i], pos[-j]] + theta(family, i, j) * inv2
            if nz or any(bool(x) for x in m.flat):
                entries[(i, j)] = m
    op = _operator_matrix_from_entries(labs, family, d, entries)
    xm = XModule(N, family, op, provenance=f"vector_eval_x(N={N}, {family}, a={a})")
    rep = verify_x(xm)
    if not rep.passed:
        raise AssertionError(f"RTT relation failed for {xm.provenance}: {rep}")
    return xm


def verify_x(m: XModule) -> Report:
    rep = Report(f"x-module {m.provenance}")
    rep.merge(check_rtt_commutators(m.op.cleared(), m.kappa))
    return rep


def extract_x_weights(m: XModule) -> HighestWeightData:
    """Highest weight data of an X(g_N)-module: the joint kernel of the
    t_ij(u), i < j, and the eigenvalue functions lambda_i(u) for every label."""
    cs = m.op.cleared()
    labs = m.op.labels
    raising = []
    for i in labs:
        for j in labs:
            if i < j and (i, j) in cs.num:
                raising.extend(a.tolist() for a in cs.num[(i, j)])
    basis = linalg.intersect_kernels(raising, m.dim)
    if not basis:
        return HighestWeightData(0, [])
    den = cs.den
    cands = []
    for v in basis:
        piv = next((r for r in range(m.dim) if v[r]), None)
        if piv is None:
            continue
        v = [x / v[piv] for x in v]
        weights = {}
        ok = True
        for i in labs:
            arrs = cs.num.get((i, i), [])
            img = [
                Poly([sum((a[r][c] * v[c] for c in range(m.dim)), Fraction(0))
                      for a in (arr.tolist() for arr in arrs)])
                for r in range(m.dim)
            ]
            lam = RatFunc(img[piv], den)
            for r in range(m.dim):
                if RatFunc(img[r], den) != lam * v[r]:
                    ok = False
                    break
            if not ok:
                break
            weights[i] = lam
        if ok:
            cands.append((v, weights))
    return HighestWeightData(len(basis), cands)


def tensor_twisted(x: XModule, v: TwistedModule) -> TwistedModule:
    """The module W (x) V with s_ij acting through the coproduct

        Delta(s_ij(u)) = sum_{a,b} theta_jb t_ia(u-k/2) t_{-j,-b}(-u+k/2) (x) s_ab(u).
    """
    pt = v.pair
    if x.N != pt.N or x.family != pt.family:
        raise ValueError("tensor factors live over different g_N")
    ka2 = pt.kappa / 2
    t1 = {k: np.vectorize(lambda e: e.substitute_affine(1, -ka2), otypes=[object])(mm)
          for k, mm in x.op.s.items()}
    t2 = {k: np.vectorize(lambda e: e.substitute_affine(-1, ka2), otypes=[object])(mm)
          for k, mm in x.op.s.items()}
    labs = pt.labels()
    dim = x.dim * v.dim
    entries = {}
    for i in labs:
        for j in labs:
            acc = None
            for a in labs:
                e1 = t1.get((i, a))
                if e1 is None:
                    continue
                for b in labs:
                    e2 = t2.get((-j, -b))
                    sv = v.op.s.get((a, b))
                    if e2 is None or sv is None:
                        continue
                    th = theta(pt.family, j, b)
                    mat = np.kron(e1 @ e2, sv)
                    if th != 1:
                        mat = np.vectorize(lambda e: RatFunc.of(th) * e, otypes=[object])(mat)
                    acc = mat if acc is None else acc + mat
            if acc is not None and any(bool(e) for e in acc.flat):
                entries[(i, j)] = acc
    op = _operator_matrix_from_entries(labs, pt.family, dim, entries)
    return TwistedModule(pt, op, provenance=f"tensor({x.provenance}, {v.provenance})")


# ---------------------------------------------------------------------------
# verification of twisted modules
# ---------------------------------------------------------------------------


def check_twisted_symmetry(m: TwistedModule) -> Report:
    """theta_ij s_{-j,-i}(u) = (+-) s_ij(k-u) +- (s_ij(u) - s_ij(k-u))/(2u-k)
    + (Tr G(u) s_ij(k-u) - delta_ij sum_k s_kk(u)) / (2u-2k), exactly."""
    rep = Report("symmetry-s=s")
    pt = m.pair
    ka = pt.kappa
    trg = g_matrix(pt).trace()
    inv1 = RatFunc(P_ONE, poly(-ka, 2))
    inv2 = RatFunc(P_ONE, poly(-2 * ka, 2))
    labs = pt.labels()
    trace_sum = None
    for k in labs:
        e = m.op.entry(k, k)
        trace_sum = e if trace_sum is None else trace_sum + e
    refl = {}
    for key, e in m.op.s.items():
        refl[key] = np.vectorize(lambda x: x.reflect(ka), otypes=[object])(e)

    def refl_entry(i, j):
        got = refl.get((i, j))
        return got if got is not None else _rf_zeros(m.dim)

    def smul(c, mat):
        return np.vectorize(lambda x, c=c: c * x, otypes=[object])(mat)

    for i in labs:
        for j in labs:
            th = theta(pt.family, i, j)
            lhs = smul(RatFunc.of(th), m.op.entry(-j, -i))
            rhs = smul(RatFunc.of(pt.sign_ci_diii), refl_entry(i, j))
            rhs = rhs + smul(
                RatFunc.of(pt.sign_pm) * inv1, m.op.entry(i, j) - refl_entry(i, j)
            )
            rhs = rhs + smul(trg * inv2, refl_entry(i, j))
            if i == j:
                rhs = rhs - smul(inv2, trace_sum)
            if any(bool(x) for x in (lhs - rhs).flat):
                rep.fail(((i, j), "symmetry relation violated"))
    return rep


def verify_twisted(m: TwistedModule) -> Report:
    """Reflection commutators, symmetry relation and the unitary scalar w(u)."""
    rep = Report(f"twisted module {m.provenance}")
    cs = m.op.cleared()
    rep.merge(check_twisted_commutators(cs, m.pair.kappa))
    rep.merge(check_twisted_symmetry(m))
    w, wrep = scalar_product_with_reflected(cs)
    rep.merge(wrep)
    rep.details["w"] = w
    return rep


def unitary_scalar(m: TwistedModule):
    """w(u) with S(u)S(-u) = w(u) I, or None if not scalar."""
    w, _ = scalar_product_with_reflected(m.op.cleared())
    return w


def check_embedding_brackets(m: TwistedModule) -> Report:
    """The degree-1 coefficients Fhat_ij = s^(1)_ij - gbar_ij must satisfy

    [Fhat_ij, s_kl(v)] = (g_ii+g_jj)(d_kj s_il - d_il s_kj
                          - d_{k,-i} theta_ij s_{-j,l} + d_{l,-j} theta_ij s_{k,-i}).
    """
    rep = Report("embedding-brackets")
    pt = m.pair
    labs = pt.labels()
    g = pt.g_diagonal()
    gm = g_matrix(pt)

    def smul(c, mat):
        return np.vectorize(lambda x, c=c: c * x, otypes=[object])(mat)

    fhat = {}
    for i in labs:
        for j in labs:
            e = m.op.s.get((i, j))
            if e is None:
                fhat[(i, j)] = _rf_zeros(m.dim)
                continue
            coeff = np.vectorize(
                lambda x: RatFunc.of(x.series_at_infinity(1).coeffs[1]), otypes=[object]
            )(e)
            if i == j and not pt.first_kind:
                gbar = Fraction(g[i] - 1) / pt.c
                coeff = coeff - smul(RatFunc.of(gbar), _rf_const_matrix(_eye(m.dim)))
            fhat[(i, j)] = coeff

    for i in labs:
        for j in labs:
            gij = g[i] + g[j]
            fm = fhat[(i, j)]
            th = theta(pt.family, i, j)
            for k in labs:
                for l in labs:
                    skl = m.op.entry(k, l)
                    lhs = fm @ skl - skl @ fm
                    rhs = _rf_zeros(m.dim)
                    if k == j:
                        rhs = rhs + m.op.entry(i, l)
                    if i == l:
                        rhs = rhs - m.op.entry(k, j)
                    if k == -i:
                        rhs = rhs - smul(RatFunc.of(th), m.op.entry(-j, l))
                    if l == -j:
                        rhs = rhs + smul(RatFunc.of(th), m.op.entry(k, -i))
                    rhs = smul(RatFunc.of(gij), rhs)
                    if any(bool(x) for x in (lhs - rhs).flat):
                        rep.fail(((i, j, k, l), "embedding bracket violated"))
    return rep


# ---------------------------------------------------------------------------
# highest weights, restrictions
# ---------------------------------------------------------------------------


@dataclass
class HighestWeightData:
    v0_dim: int
    candidates: list  # [(vector, {i: RatFunc})]

    @property
    def weights(self):
        if len(self.candidates) != 1:
            raise ValueError(f"expected a unique highest weight vector, got {len(self.candidates)}")
        return self.candidates[0][1]

    @property
    def vector(self):
        return self.candidates[0][0]


def highest_weight_extract(m: TwistedModule) -> HighestWeightData:
    """Joint kernel of the raising part plus simultaneous diagonalization.

    Returns the basis-free data: the dimension of V0 = {v : s_ij(u) v = 0,
    i < j} and each common rational eigenvector of the diagonal operators
    restricted to V0, with its weight functions (mu_i(u))_{i in I_N}.
    """
    cs = m.op.cleared()
    labs = m.pair.labels()
    raising = []
    for i in labs:
        for j in labs:
            if i < j and (i, j) in cs.num:
                raising.extend(a.tolist() for a in cs.num[(i, j)])
    basis = linalg.intersect_kernels(raising, m.dim)
    if not basis:
        return HighestWeightData(0, [])
    spaces = [basis]
    diag_mats = []
    for i in m.pair.i_range:
        arrs = cs.num.get((i, i))
        if arrs:
            diag_mats.extend(a.tolist() for a in arrs)
    for mat in diag_mats:
        new_spaces = []
        for sp in spaces:
            if len(sp) == 1:
                new_spaces.append(sp)
                continue
            red = linalg.restrict_operator(mat, sp)
            if red is None:
                continue
            evs = linalg.char_poly_rational_roots(red)
            for lam in evs:
                shifted = [[red[r][c] - (lam if r == c else 0) for c in range(len(red))]
                           for r in range(len(red))]
                for kv in linalg.kernel_basis(shifted):
                    vec = [sum((kv[t] * sp[t][r] for t in range(len(sp))), Fraction(0))
                           for r in range(m.dim)]
                    new_spaces.append([vec])
        spaces = new_spaces if new_spaces else spaces
    den = cs.den
    cands = []
    seen = set()
    for sp in spaces:
        v = sp[0]
        piv = next((r for r in range(m.dim) if v[r]), None)
        if piv is None:
            continue
        v = [x / v[piv] for x in v]
        key = tuple(v)
        if key in seen:
            continue
        seen.add(key)
        weights = {}
        ok = True
        for i in m.pair.i_range:
            arrs = cs.num.get((i, i), [])
            img = [
                Poly([(sum((a[r][c] * v[c] for c in range(m.dim)), Fraction(0)))
                      for a in (arr.tolist() for arr in arrs)])
                for r in range(m.dim)
            ]
            mu = RatFunc(img[piv], den)
            for r in range(m.dim):
                if RatFunc(img[r], den) != mu * v[r]:
                    ok = False
                    break
            if not ok:
                break
            weights[i] = mu
        if ok:
            cands.append((v, weights))
    return HighestWeightData(len(basis), cands)


_VPLUS_PAIRS = ("CI", "DIII", "B0", "C0", "D0")


def restrict_v_plus(m: TwistedModule):
    """The rank-reduction module on V+ = {w : s_kn(u) w = 0, k < n}.

    Operators h(u) (s_ij(u+1/2) + delta_ij s_nn(u+1/2)/(2u)) restricted to
    V+, with h = 1 for CI/DIII and h = (2u-2k'-1)/(2u-2k') for BCD0.
    Returns (TwistedModule, Report); the report includes its verification.
    """
    pt = m.pair
    if pt.tag not in _VPLUS_PAIRS:
        raise ValueError(f"V+ restriction is defined for {_VPLUS_PAIRS}")
    n = pt.n
    newN = pt.N - 2
    try:
        new_pt = pair(pt.tag, newN)
    except ValueError as e:
        raise ValueError(f"restriction target is out of range: {e}")
    cs = m.op.cleared()
    rows = []
    for k in [l for l in pt.labels() if l < n]:
        arrs = cs.num.get((k, n))
        if arrs:
            rows.extend(a.tolist() for a in arrs)
    basis = linalg.intersect_kernels(rows, m.dim)
    rep = Report(f"v-plus restriction of {m.provenance}")
    if not basis:
        rep.fail(("V+", "V+ is zero"))
        return None, rep
    half = Fraction(1, 2)
    kp = pt.kappa - 1
    if pt.tag in ("CI", "DIII"):
        h = RatFunc.of(1)
    else:
        h = RatFunc(poly(-2 * kp - 1, 2), poly(-2 * kp, 2))
    labs_new = new_pt.labels()
    entries = {}
    r = len(basis)
    for i in labs_new:
        for j in labs_new:
            sij = m.op.s.get((i, j))
            snn = m.op.s.get((n, n)) if i == j else None
            if sij is None and snn is None:
                continue
            mat = _rf_zeros(m.dim)
            if sij is not None:
                mat = mat + np.vectorize(lambda x: x.substitute_affine(1, half), otypes=[object])(sij)
            if snn is not None:
                inv2u = RatFunc(P_ONE, poly(0, 2))
                mat = mat + np.vectorize(
                    lambda x: inv2u * x.substitute_affine(1, half), otypes=[object]
                )(snn)
            mat = np.vectorize(lambda x: h * x, otypes=[object])(mat)
            # restrict to the basis of V+
            cols = []
            bad = False
            for b in basis:
                img = [sum((mat[rr, cc] * b[cc] for cc in range(m.dim)), RatFunc.of(0))
                       for rr in range(m.dim)]
                sol = _solve_ratfunc_in_span(basis, img)
                if sol is None:
                    bad = True
                    break
                cols.append(sol)
            if bad:
                rep.fail(((i, j), "operator does not preserve V+"))
                continue
            red = np.empty((r, r), dtype=object)
            for cc in range(r):
                for rr in range(r):
                    red[rr, cc] = cols[cc][rr]
            if any(bool(x) for x in red.flat):
                entries[(i, j)] = red
    if not rep.passed:
        return None, rep
    op = _operator_matrix_from_entries(labs_new, new_pt.family, r, entries)
    out = TwistedModule(new_pt, op, provenance=f"v_plus({m.provenance})")
    rep.merge(verify_twisted(out))
    return out, rep


def _solve_ratfunc_in_span(basis, img):
    """Write a RatFunc vector in the rational span of constant basis vectors."""
    dim = len(img)
    r = len(basis)
    # pick rows of the coordinate matrix giving an invertible r x r system
    mat = [[basis[k][i] for k in range(r)] for i in range(dim)]
    rankrows = []
    cur = []
    for i in range(dim):
        cand = cur + [mat[i]]
        if linalg.rank(cand) > len(cur):
            cur = cand
            rankrows.append(i)
        if len(cur) == r:
            break
    if len(cur) < r:
        return None
    sub = [[frac(mat[i][k]) for k in range(r)] for i in rankrows]
    rhs = [img[i] for i in rankrows]
    # solve the small system over RatFunc by Gaussian elimination
    aug = [[RatFunc.of(sub[i][k]) for k in range(r)] + [rhs[i]] for i in range(r)]
    for c in range(r):
        prow = next(i for i in range(c, r) if aug[i][c])
        aug[c], aug[prow] = aug[prow], aug[c]
        inv = RatFunc.of(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(r):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    sol = [aug[i][-1] for i in range(r)]
    # verify the full (possibly overdetermined) system
    for i in range(dim):
        acc = RatFunc.of(0)
        for k in range(r):
            acc = acc + RatFunc.of(basis[k][i]) * sol[k]
        if acc != img[i]:
            return None
    return sol


@dataclass
class ReflectionAlgebraModule:
    """The B(n, ell)-type module carried by V^J."""

    n: int
    ell: int
    op: OperatorMatrix

    @property
    def dim(self):
        return self.op.dim


def restrict_v_j(m: TwistedModule):
    """The reflection-algebra module on V^J, with b_ij(u) = [+-] s_ij(u).

    V^J is the joint kernel of all s_{-i,j}(u) and s_{0j}(u), 1 <= i,j <= n.
    Returns (ReflectionAlgebraModule, Report); the report checks the
    reflection-algebra commutators and the scalarity of B(u)B(-u) on V^J.
    """
    pt = m.pair
    n = pt.n
    cs = m.op.cleared()
    rows = []
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            arrs = cs.num.get((-i, j))
            if arrs:
                rows.extend(a.tolist() for a in arrs)
        if pt.N % 2 == 1:
            arrs = cs.num.get((0, j))
            if arrs:
                rows.extend(a.tolist() for a in arrs)
    basis = linalg.intersect_kernels(rows, m.dim)
    rep = Report(f"v-j restriction of {m.provenance}")
    if not basis:
        rep.fail(("V^J", "V^J is zero"))
        return None, rep
    sb = pt.sign_bracket
    r = len(basis)
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sij = m.op.s.get((i, j))
            if sij is None:
                continue
            cols = []
            bad = False
            for b in basis:
                img = [sum((sij[rr, cc] * b[cc] for cc in range(m.dim)), RatFunc.of(0))
                       for rr in range(m.dim)]
                sol = _solve_ratfunc_in_span(basis, img)
                if sol is None:
                    bad = True
                    break
                cols.append(sol)
            if bad:
                rep.fail(((i, j), "operator does not preserve V^J"))
                continue
            red = np.empty((r, r), dtype=object)
            for cc in range(r):
                for rr in range(r):
                    red[rr, cc] = sb * cols[cc][rr]
            if any(bool(x) for x in red.flat):
                entries[(i, j)] = red
    if not rep.passed:
        return None, rep
    op = _operator_matrix_from_entries(list(range(1, n + 1)), ORTHOGONAL, r, entries)
    bm = ReflectionAlgebraModule(n, pt.ell, op)
    rep.merge(check_mr_commutators(op.cleared()))
    w, wrep = scalar_product_with_reflected(op.cleared())
    rep.merge(wrep)
    rep.details["BB_scalar"] = w
    return bm, rep
