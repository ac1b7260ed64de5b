"""Concrete modules over twisted Yangians: construction and verification.

A module stores the matrix by which its S(u) (T(u), B(u)) acts as one
`OperatorMatrix`: a monic denominator den(u), a positive integer scale and,
for each pair of signed indices (i, j) with s_ij(u) != 0, the d x d integer
coefficient matrices of the numerator over scale * den, with gcd(den, every
numerator entry) = 1.  Substitutions u -> a u + b, tensor products, bridges
and restrictions act on these integer arrays, and every defining identity is
checked exactly on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import P_ONE, Poly, RatFunc, frac, poly
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
from .tensors import ORTHOGONAL, SYMPLECTIC, IndexSet, kappa, theta
from .verify import (
    OperatorMatrix,
    _convolve,
    _kron,
    _r_kappa,
    _symmetry_report,
    check_mr_commutators,
    check_olshanskii_commutators,
    check_rtt_commutators,
    check_twisted_commutators,
    scalar_product_with_reflected,
)
from . import linalg


@dataclass
class TwistedModule:
    pair: PairType
    op: OperatorMatrix
    provenance: str = ""

    @property
    def dim(self):
        return self.op.dim


@dataclass
class XModule:
    N: int
    family: str
    op: OperatorMatrix
    provenance: str = ""

    def __post_init__(self):
        if self.family == SYMPLECTIC and self.N % 2 == 1:
            raise ValueError("symplectic requires even N")
        if self.family == ORTHOGONAL and self.N < 3:
            raise ValueError("orthogonal requires N >= 3")

    @property
    def dim(self):
        return self.op.dim

    @property
    def kappa(self) -> Fraction:
        return kappa(self.N, self.family)


@dataclass
class OlshanskiiModule:
    sign: int  # +1 for Y+(2) (orthogonal transpose), -1 for Y-(2)
    op: OperatorMatrix
    provenance: str = ""

    @property
    def dim(self):
        return self.op.dim


# ---------------------------------------------------------------------------
# evaluation modules
# ---------------------------------------------------------------------------


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
    terms = {}
    for i in pt.labels():
        for j in pt.labels():
            ts = [(RatFunc.of(g[i]), _eye(d))] if i == j else []
            if (i, j) in fp:
                ts.append((inv, fp[(i, j)]))
            if ts:
                terms[(i, j)] = ts
    op = OperatorMatrix.from_terms(pt.labels(), pt.family, d, terms)
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

    terms = {}
    labs = pt.labels()
    for i in labs:
        for j in labs:
            fp2 = _zeros(d)
            for a in labs:
                fp2 = fp2 + fpm(i, a) @ fpm(a, j)
            ts = [(u_over * inv1, fpm(i, j)),
                  (u_over * inv1 * inv1 * frac(1, 2), fp2 - 2 * fpm(i, j))]
            if i == j:
                ts += [(-u_over * inv1 * inv1 * omega_u, om), (RatFunc.of(1), _eye(d))]
            terms[(i, j)] = ts
    op = OperatorMatrix.from_terms(labs, pt.family, d, terms)
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

    inv = RatFunc(P_ONE, poly(-1, 1))
    inv_u = RatFunc(P_ONE, poly(0, 1))
    inv_uu1 = RatFunc(P_ONE, poly(0, -1, 1))  # 1/(u(u-1))
    terms = {}
    for i in labs:
        for j in labs:
            fp2 = _zeros(d)
            for a in labs:
                fp2 = fp2 + fpm(i, a) @ fpm(a, j)
            if variant == "D0":
                quad = fp2 - 2 * fpm(i, j) - (2 * cas if i == j else _zeros(d))
                ts = [(inv, fpm(i, j)), (inv * inv * frac(1, 2), quad)]
                gi = 1
            else:
                quad = fp2 - (2 * cas if i == j else _zeros(d))
                ts = [(inv_u, fpm(i, j)), (inv_uu1 * frac(g[i], 2), quad)]
                gi = g[i]
            if i == j:
                ts.append((RatFunc.of(gi), _eye(d)))
            terms[(i, j)] = ts
    op = OperatorMatrix.from_terms(labs, pt.family, d, terms)
    return TwistedModule(
        pt, op, provenance=f"eval_so4({variant}, mu=({frac(mu1)},{frac(mu2)}))"
    )


def onedim_module(pt: PairType, a=None) -> TwistedModule:
    """One-dimensional module S(u) -> G(u), or G + a/u I for CI/DIII."""
    if a is not None and pt.tag not in ("CI", "DIII"):
        raise ValueError("the parameter a exists for CI and DIII only")
    gm = g_matrix(pt)
    terms = {}
    for l in pt.labels():
        v = gm[((l,), (l,))]
        if a is not None:
            v = v + RatFunc(Poly.constant(frac(a)), poly(0, 1))
        terms[(l, l)] = [(v, _eye(1))]
    op = OperatorMatrix.from_terms(pt.labels(), pt.family, 1, terms)
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
    inv = RatFunc(P_ONE, poly(Fraction(sign, 2), 1))  # 1/(u +- 1/2)
    labs = [-1, 1]
    terms = {}
    for i in labs:
        for j in labs:
            ts = [(RatFunc.of(1), _eye(d))] if i == j else []
            if (i, j) in F:
                ts.append((inv, F[(i, j)]))
            if ts:
                terms[(i, j)] = ts
    fam = ORTHOGONAL if sign == 1 else SYMPLECTIC
    op = OperatorMatrix.from_terms(labs, fam, d, terms)
    return OlshanskiiModule(sign, op, provenance=f"olshanskii_eval(sign={sign:+d})")


def verify_olshanskii(m: OlshanskiiModule) -> Report:
    """Defining commutator relations and the symmetry relation of Y+-(2):
    theta_ij s_{-j,-i}(u) = s_ij(-u) +- (s_ij(u) - s_ij(-u))/(2u)."""
    rep = Report(f"olshanskii {m.provenance}")
    rep.merge(check_olshanskii_commutators(m.op))
    rep.merge(_symmetry_report("olshanskii-symmetry", m.op, 0, 1, m.sign))
    return rep


def sklyanin_det2(m: OlshanskiiModule):
    """sdet S(u) from both closed expressions; returns (RatFunc|None, Report)."""
    rep = Report("sklyanin-det")
    pm = m.sign
    pref = RatFunc(poly(1, 2), poly(pm, 2))  # (2u+1)/(2u +- 1)
    s1 = m.op.substitute(1, -1)  # S(u-1)
    s2 = m.op.substitute(-1, 0)  # S(-u)
    # both lines over the denominator den1(u) den2(u)
    line1 = (_convolve(s1.block(-1, -1), s2.block(-1, -1))
             - pm * _convolve(s1.block(-1, 1), s2.block(1, -1)))
    line2 = (_convolve(s2.block(1, 1), s1.block(1, 1))
             - pm * _convolve(s2.block(1, -1), s1.block(-1, 1)))
    if not np.array_equal(line1, line2):
        rep.fail(("sdet", "the two expressions for sdet differ"))
        return None, rep
    c = line1[:, 0, 0]
    if not np.array_equal(line1, np.multiply.outer(c, np.eye(m.dim, dtype=object))):
        rep.fail(("sdet", "sdet is not a scalar operator"))
        return None, rep
    return pref * RatFunc(Poly._of(c, s1.scale * s2.scale), s1.den * s2.den), rep


# ---------------------------------------------------------------------------
# bridges from Y+-(2)
# ---------------------------------------------------------------------------

K2x2 = {(-1, -1): -1, (1, 1): 1}  # E_11 - E_{-1,-1}


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
    s = m.op.substitute(half, -half)
    blocks = {(i, j): (K2x2[(j, j)] if variant == "CI" else 1) * c
              for (i, j), c in s.blocks.items()}
    op = OperatorMatrix([-1, 1], SYMPLECTIC, m.dim, s.den, blocks, s.scale)
    return TwistedModule(pt, op, provenance=f"bridge_sp2({variant}) of {m.provenance}")


def _aux_product(*factors):
    """Product of aux matrices with operator-valued entries {(row, col):
    coefficient array}, over the nonzero entries only."""
    out = factors[0]
    for f in factors[1:]:
        acc = {}
        for (r, k), a in out.items():
            for (k2, c), b in f.items():
                if k == k2:
                    p = _convolve(a, b)
                    acc[(r, c)] = p if (r, c) not in acc else acc[(r, c)] + p
        out = acc
    return out


def bridge_so3(m: OlshanskiiModule) -> TwistedModule:
    """X(so_3, so_3)^tw module from a Y-(2) module via

        S(u) -> (1/2) R(-1) S_1(2u-1) R(-4u+1)^{t-} S_2(2u)

    restricted to the symmetric square of C^2 with the rational basis

        b_{-1} = e_{-1} x e_{-1},  b_0 = -(e_{-1} x e_1 + e_1 x e_{-1}) / 2,
        b_1 = -e_1 x e_1 / 2.

    The bilinear form this basis induces from the one on C^2 (x) C^2 is -1/2
    times the standard form of so_3 on C^3, and a form that is a scalar
    multiple of the standard one has the same transpose, so Q = P^t, R(u)
    and G = I of B0 are unchanged.  The input is rational whenever the
    Y-(2) module is (`sp2_on_so3` is written in this basis).
    """
    if m.sign != -1:
        raise ValueError("the so_3 bridge takes a Y-(2) module")
    d = m.dim
    aux = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    eye = np.eye(d, dtype=object)
    # R(-1) = I + P (its factor 1/2 goes into the scale) and
    # (4u - 1) R(-4u+1)^{t-} = (4u - 1) I + Q_-, as multiples of the identity on V
    proj, rt = {}, {}
    for a, b in aux:
        for key in (((a, b), (a, b)), ((a, b), (b, a))):
            proj[key] = proj.get(key, 0) + eye[None]
        rt[((a, b), (a, b))] = np.stack([-eye, 4 * eye])
    for a in (-1, 1):
        for c in (-1, 1):
            key = ((a, -a), (c, -c))
            rt[key] = rt.get(key, 0) + np.stack([theta(SYMPLECTIC, a, c) * eye, 0 * eye])
    s1, s2 = m.op.substitute(2, -1), m.op.substitute(2, 0)
    M = _aux_product(
        proj,
        {((i, b), (j, b)): c for (i, j), c in s1.blocks.items() for b in (-1, 1)},
        rt,
        {((a, i), (a, j)): c for (i, j), c in s2.blocks.items() for a in (-1, 1)},
    )
    zero = 0 * next(iter(M.values()))
    # the columns of 2 b_j: a second factor 2 of the scale
    cols = {-1: [(2, (-1, -1))], 0: [(-1, (-1, 1)), (-1, (1, -1))], 1: [(-1, (1, 1))]}
    blocks = {}
    for j, col in cols.items():
        img = {r: sum((M.get((r, c), zero) * x for x, c in col), zero) for r in aux}
        if not np.array_equal(img[(-1, 1)], img[(1, -1)]):
            raise AssertionError("image of the so_3 bridge left the symmetric square")
        blocks[(-1, j)], blocks[(0, j)], blocks[(1, j)] = (
            img[(-1, -1)], -2 * img[(-1, 1)], -2 * img[(1, 1)])
    den = s1.den * poly(-1, 4) * s2.den
    pt = pair("B0", 3)
    op = OperatorMatrix(pt.labels(), pt.family, d, den, blocks, 4 * s1.scale * s2.scale)
    return TwistedModule(pt, op, provenance=f"bridge_so3 of {m.provenance}")


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
    sp, sm = mp.op.substitute(1, -half), mm.op.substitute(1, -half)
    basis = {-2: (-1, -1), -1: (-1, 1), 1: (1, -1), 2: (1, 1)}
    sgn = {-2: 1, -1: 1, 1: 1, 2: -1}
    blocks = {}
    for i, (a, b) in basis.items():
        for j, (c, dd) in basis.items():
            e1, e2 = sp.blocks.get((a, c)), sm.blocks.get((b, dd))
            if e1 is None or e2 is None:
                continue
            w = sgn[i] * sgn[j] * (K2x2[(c, c)] if use_k else 1)
            blocks[(i, j)] = w * _convolve(e1, e2, _kron)
    op = OperatorMatrix(pt.labels(), pt.family, mp.dim * mm.dim, sp.den * sm.den, blocks,
                        sp.scale * sm.scale)
    return TwistedModule(
        pt, op, provenance=f"bridge_so4({variant}) of {mp.provenance} x {mm.provenance}"
    )


# ---------------------------------------------------------------------------
# X(g_N)-modules and tensor products
# ---------------------------------------------------------------------------


def vector_eval_x(N: int, family: str, a) -> XModule:
    """The X(g_N)-module on C^N with T(u) = R(u - a) (unnormalized), laid out
    as t_ij[k, l] = R[(i, k), (j, l)].  Its RTT relation is the Yang-Baxter
    equation of R, so it is not re-checked here; `verify_x` decides it."""
    a = frac(a)
    ka = kappa(N, family)
    labs = IndexSet.for_N(N).labels()
    r = _r_kappa(labs, family, ka)
    blocks = {(i, j): r[:, p, q] for p, i in enumerate(labs) for q, j in enumerate(labs)}
    op = OperatorMatrix(labs, family, N, poly(0, -ka, 1), blocks, ka.denominator)
    return XModule(N, family, op.substitute(1, -a), f"vector_eval_x(N={N}, {family}, a={a})")


def verify_x(m: XModule) -> Report:
    rep = Report(f"x-module {m.provenance}")
    rep.merge(check_rtt_commutators(m.op, m.kappa))
    return rep


def tensor_twisted(x: XModule, v: TwistedModule) -> TwistedModule:
    """The module W (x) V with s_ij acting through the coproduct

        Delta(s_ij(u)) = sum_{a,b} theta_jb t_ia(u-k/2) t_{-j,-b}(-u+k/2) (x) s_ab(u).
    """
    pt = v.pair
    if x.N != pt.N or x.family != pt.family:
        raise ValueError("tensor factors live over different g_N")
    ka2 = pt.kappa / 2
    t1, t2 = x.op.substitute(1, -ka2), x.op.substitute(-1, ka2)
    labs = pt.labels()
    blocks = {}
    for i in labs:
        for j in labs:
            acc = None
            for a in labs:
                e1 = t1.blocks.get((i, a))
                if e1 is None:
                    continue
                for b in labs:
                    e2 = t2.blocks.get((-j, -b))
                    sv = v.op.blocks.get((a, b))
                    if e2 is None or sv is None:
                        continue
                    mat = theta(pt.family, j, b) * _convolve(_convolve(e1, e2), sv, _kron)
                    acc = mat if acc is None else acc + mat
            if acc is not None:
                blocks[(i, j)] = acc
    op = OperatorMatrix(labs, pt.family, x.dim * v.dim, t1.den * t2.den * v.op.den, blocks,
                        t1.scale * t2.scale * v.op.scale)
    return TwistedModule(pt, op, provenance=f"tensor({x.provenance}, {v.provenance})")


# ---------------------------------------------------------------------------
# verification of twisted modules
# ---------------------------------------------------------------------------


def check_twisted_symmetry(m: TwistedModule) -> Report:
    """theta_ij s_{-j,-i}(u) = (+-) s_ij(k-u) +- (s_ij(u) - s_ij(k-u))/(2u-k)
    + (Tr G(u) s_ij(k-u) - delta_ij sum_k s_kk(u)) / (2u-2k), exactly."""
    pt = m.pair
    return _symmetry_report("symmetry-s=s", m.op, pt.kappa, pt.sign_ci_diii, pt.sign_pm,
                            g_matrix(pt).trace())


def verify_twisted(m: TwistedModule) -> Report:
    """Reflection commutators, symmetry relation and the unitary scalar w(u)."""
    rep = Report(f"twisted module {m.provenance}")
    rep.merge(check_twisted_commutators(m.op, m.pair.kappa))
    rep.merge(check_twisted_symmetry(m))
    w, wrep = scalar_product_with_reflected(m.op)
    rep.merge(wrep)
    rep.details["w"] = w
    return rep


def unitary_scalar(m: TwistedModule):
    """w(u) with S(u)S(-u) = w(u) I, or None if not scalar."""
    w, _ = scalar_product_with_reflected(m.op)
    return w


def check_embedding_brackets(m: TwistedModule) -> Report:
    """The degree-1 coefficients Fhat_ij = s^(1)_ij - gbar_ij must satisfy

    [Fhat_ij, s_kl(v)] = (g_ii+g_jj)(d_kj s_il - d_il s_kj
                          - d_{k,-i} theta_ij s_{-j,l} + d_{l,-j} theta_ij s_{k,-i}).

    With den = u^m + den_{m-1} u^{m-1} + ..., s^(1) = (num_{m-1} - den_{m-1}
    num_m) / scale; the bracket is checked on the numerators over scale * den.
    """
    rep = Report("embedding-brackets")
    pt = m.pair
    op = m.op
    labs = pt.labels()
    g = pt.g_diagonal()
    top = op.den.degree
    if op.slots > top + 1:
        raise ValueError("not a power series in 1/u: numerator degree exceeds denominator")
    eye = _eye(m.dim)

    def slot(c, p):
        return c[p] if 0 <= p < len(c) else 0 * eye

    fhat = {}
    for i in labs:
        for j in labs:
            c = op.block(i, j)
            f = (slot(c, top - 1) - op.den.coeff(top - 1) * slot(c, top)) / op.scale
            if i == j and not pt.first_kind:
                f = f - Fraction(g[i] - 1) / pt.c * eye
            fhat[(i, j)] = f

    for i in labs:
        for j in labs:
            gij = g[i] + g[j]
            fm = fhat[(i, j)]
            th = theta(pt.family, i, j)
            for k in labs:
                for l in labs:
                    skl = op.block(k, l)
                    lhs = fm @ skl - skl @ fm
                    rhs = 0 * skl
                    if k == j:
                        rhs = rhs + op.block(i, l)
                    if i == l:
                        rhs = rhs - op.block(k, j)
                    if k == -i:
                        rhs = rhs - th * op.block(-j, l)
                    if l == -j:
                        rhs = rhs + th * op.block(k, -i)
                    if not np.array_equal(lhs, gij * rhs):
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


def _joint_kernel(op: OperatorMatrix, keys):
    """Basis of the common kernel of every coefficient of s_k(u), k in keys."""
    rows = [a.tolist() for k in keys if k in op.blocks for a in op.blocks[k]]
    return linalg.intersect_kernels(rows, op.dim)


def _read_weights(op: OperatorMatrix, vectors, labels):
    """Each vector v, scaled to 1 at its first nonzero entry, that is a common
    eigenvector of s_ii(u), i in labels, with its eigenvalues {i: mu_i(u)}."""
    cands, seen = [], set()
    for v in vectors:
        piv = next((r for r, x in enumerate(v) if x), None)
        if piv is None:
            continue
        v = [x / v[piv] for x in v]
        if tuple(v) in seen:
            continue
        seen.add(tuple(v))
        vec = np.array(v, dtype=object)
        weights = {}
        for i in labels:
            img = op.block(i, i) @ vec  # [p, r]: s_ii(u) v = sum_p img[p] u^p / den
            if not np.array_equal(img, np.multiply.outer(img[:, piv], vec)):
                break
            weights[i] = RatFunc(Poly._of(img[:, piv], op.scale), op.den)
        else:
            cands.append((v, weights))
    return cands


def extract_x_weights(m: XModule) -> HighestWeightData:
    """Highest weight data of an X(g_N)-module: the joint kernel of the
    t_ij(u), i < j, and the eigenvalue functions lambda_i(u) for every label."""
    labs = m.op.labels
    basis = _joint_kernel(m.op, [(i, j) for i in labs for j in labs if i < j])
    return HighestWeightData(len(basis), _read_weights(m.op, basis, labs))


def highest_weight_extract(m: TwistedModule) -> HighestWeightData:
    """Joint kernel of the raising part plus simultaneous diagonalization.

    Returns the basis-free data: the dimension of V0 = {v : s_ij(u) v = 0,
    i < j} and each common rational eigenvector of the diagonal operators
    restricted to V0, with its weight functions (mu_i(u))_{i in I_N}.
    """
    labs = m.pair.labels()
    basis = _joint_kernel(m.op, [(i, j) for i in labs for j in labs if i < j])
    if not basis:
        return HighestWeightData(0, [])
    spaces = [basis]
    diag_mats = [a.tolist() for i in m.pair.i_range if (i, i) in m.op.blocks
                 for a in m.op.blocks[(i, i)]]
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
    cands = _read_weights(m.op, [sp[0] for sp in spaces], m.pair.i_range)
    return HighestWeightData(len(basis), cands)


def _restrict(labels, family, den, blocks, scale, basis, rep, space):
    """The operators blocks/(scale den) on the span of the constant vectors `basis`.

    With B = [basis] and a rational left inverse L (L B = I), a block c maps
    the span into itself iff c_p B = B L c_p B for every slot p, and then acts
    there by L c_p B.  Returns None after one failure per block that does not.
    """
    B = np.array(basis, dtype=object).T
    L = np.array(linalg.left_inverse(basis), dtype=object)
    out = {}
    for key, c in blocks.items():
        cb = c @ B
        out[key] = L @ cb
        if not np.array_equal(B @ out[key], cb):
            rep.fail((key, f"operator does not preserve {space}"))
    if not rep.passed:
        return None
    return OperatorMatrix(labels, family, len(basis), den, out, scale)


_VPLUS_PAIRS = ("CI", "DIII", "B0", "C0", "D0")


def _lincomb(terms):
    """sum_t p_t(u) c_t(u) for scalar polynomials p_t and coefficient arrays
    c_t (coefficients along axis 0)."""
    parts = [_convolve(np.array(p.coeffs, dtype=object), c, np.multiply)
             for p, c in terms if p]
    out = np.zeros_like(max(parts, key=len))
    for x in parts:
        out[: len(x)] += x
    return out


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
    try:
        new_pt = pair(pt.tag, pt.N - 2)
    except ValueError as e:
        raise ValueError(f"restriction target is out of range: {e}")
    basis = _joint_kernel(m.op, [(k, n) for k in pt.labels() if k < n])
    rep = Report(f"v-plus restriction of {m.provenance}")
    if not basis:
        rep.fail(("V+", "V+ is zero"))
        return None, rep
    kp = pt.kappa - 1
    if pt.tag in ("CI", "DIII"):
        h_num, h_den = P_ONE, P_ONE
    else:
        h_num, h_den = poly(-2 * kp - 1, 2), poly(-2 * kp, 2)
    # h(u) (2u s_ij(u+1/2) + delta_ij s_nn(u+1/2)) over h_den(u) 2u den(u+1/2)
    s = m.op.substitute(1, Fraction(1, 2))
    blocks = {}
    for i in new_pt.labels():
        for j in new_pt.labels():
            terms = [(h_num * poly(0, 2), s.blocks.get((i, j))),
                     (h_num, s.blocks.get((n, n)) if i == j else None)]
            terms = [(p, c) for p, c in terms if c is not None]
            if terms:
                blocks[(i, j)] = _lincomb(terms)
    op = _restrict(new_pt.labels(), new_pt.family, h_den * poly(0, 2) * s.den, blocks,
                   s.scale, basis, rep, "V+")
    if op is None:
        return None, rep
    out = TwistedModule(new_pt, op, provenance=f"v_plus({m.provenance})")
    rep.merge(verify_twisted(out))
    return out, rep


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
    keys = []
    for j in range(1, n + 1):
        keys += [(-i, j) for i in range(1, n + 1)] + ([(0, j)] if pt.N % 2 == 1 else [])
    basis = _joint_kernel(m.op, keys)
    rep = Report(f"v-j restriction of {m.provenance}")
    if not basis:
        rep.fail(("V^J", "V^J is zero"))
        return None, rep
    labs = list(range(1, n + 1))
    blocks = {(i, j): pt.sign_bracket * m.op.blocks[(i, j)]
              for i in labs for j in labs if (i, j) in m.op.blocks}
    op = _restrict(labs, ORTHOGONAL, m.op.den, blocks, m.op.scale, basis, rep, "V^J")
    if op is None:
        return None, rep
    bm = ReflectionAlgebraModule(n, pt.ell, op)
    rep.merge(check_mr_commutators(op))
    w, wrep = scalar_product_with_reflected(op)
    rep.merge(wrep)
    rep.details["BB_scalar"] = w
    return bm, rep
