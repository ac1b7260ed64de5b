"""Exact verification of operator-valued matrix relations.

Every relation the package checks has one shape:

    A(u-v) X1(u) B(u+v) X2(v) = X2(v) B(u+v) X1(u) A(u-v)

on C^N (x) C^N (x) V, where A and B (B may be absent) act on the two
auxiliary legs and X(u) = sum_ij E_ij (x) x_ij(u) acts on one auxiliary leg
and on V; X1 sits on leg 1, X2 on leg 2.  The RTT, twisted-reflection,
Olshanskii and reflection-algebra commutators of a module are this relation
with X the module's S- or T-matrix; the reflection equations take X = K on
V = C (dimension 1), and the Yang-Baxter equation takes A = X = R with
V = C^N (the YBE after the substitution u -> u+v).

`check_relation` decides such a relation exactly.  Each factor enters as the
integer numerator coefficients that `OperatorMatrix` stores: every factor
occurs once on each side (X once as X1 and once as X2), so a scalar factor
multiplies both sides alike.  Both sides are then polynomials in
(u, v) of bidegree at most (D, D), D = deg A + deg X + deg B, and such a
polynomial vanishes identically iff it vanishes on the integer grid
{-floor(D/2) .. ceil(D/2)}^2 of (D+1)^2 points, where the engine evaluates
them: X once on the G = D + 1 grid values, A and B once on the 2G - 1
differences and sums, and both sides in batches of grid points by stacked
products, each batched temporary capped at `_BATCH_ENTRIES` entries.  The
witnesses name the first failing point in the order u0 outer, v0 inner,
whatever the batch size.

Every grid evaluator states an a-priori bound on the absolute value of every
entry and every partial sum it forms (for `check_relation`, the product of
the factors' row-sum norms over the grid), and `_arithmetic` picks its
arithmetic from that bound alone: float64 below 2^53, int64 below 2^63 and
Python integers otherwise.  Float64 is exact there, not approximate: every
operand, product and partial sum is an integer of absolute value below 2^53,
and such an integer is a float64, so every rounding step of a product or a
sum (fused or not, in any order BLAS chooses) returns it unchanged.  Values
are compared with `!=` and converted back by `int`, both exact.

The product identity X(u) X(-u) = w(u) I (unitarity of K and R, the unitary
scalar of a module) is decided on the D + 1 integer points -D/2 .. D/2,
D = 2 (slots - 1) >= deg num(u) num(-u), by `scalar_product_with_reflected`,
with all D + 1 products in one stacked product.
The symmetry relations, linear in X, are decided by `_symmetry_report` on
the D + 1 integer points of the same kind, D the degree bound of the relation
with its denominators cleared.  A K-matrix enters both as the one-dimensional
module S(u) -> K(u).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .exact import P_ONE, Poly, RatFunc
from .tensors import theta


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass
class Report:
    name: str
    passed: bool = True
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, witness):
        self.passed = False
        self.witnesses.append(witness)

    def merge(self, other: "Report"):
        self.passed = self.passed and other.passed
        self.witnesses.extend((other.name, w) for w in other.witnesses)
        self.details[other.name] = {"passed": other.passed, **other.details}
        return self

    def as_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": [repr(w) for w in self.witnesses[:12]],
            "details": {
                k: (v if not isinstance(v, Report) else v.as_dict())
                for k, v in self.details.items()
            },
        }

    def __str__(self):
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        if not self.passed and self.witnesses:
            head += f"  ({len(self.witnesses)} witness(es); first: {self.witnesses[0]})"
        return head


def _zeros(*shape):
    return np.zeros(shape, dtype=object)


def _convolve(a, b, op=np.matmul):
    """Coefficients of (sum_p a[p] u^p)(sum_q b[q] u^q), with op (np.matmul,
    np.multiply or `_kron`) multiplying a[p] by every b[q] at once."""
    out = None
    for p, x in enumerate(a):
        t = op(x, b)
        if out is None:
            out = _zeros(len(a) + len(b) - 1, *t.shape[1:])
        out[p: p + len(b)] += t
    return out


def _kron(x, b):
    """The Kronecker products of the matrix x with every matrix b[q], stacked."""
    (m, k), (q, r, s) = x.shape, b.shape
    return (x[None, :, None, :, None] * b[:, None, :, None, :]).reshape(q, m * r, k * s)


def _division_maps(g: Poly, n):
    """(Q, R): column p holds the coefficients of u^p // g and of u^p % g."""
    Q, R = _zeros(max(n - g.degree, 1), n), _zeros(g.degree, n)
    for p in range(n):
        q, r = Poly([0] * p + [1]).divmod(g)
        Q[: len(q.coeffs), p] = q.coeffs
        R[: len(r.coeffs), p] = r.coeffs
    return Q, R


def _common_factor(den: Poly, F, width) -> Poly:
    """gcd(den, every column of F read as the coefficients of a polynomial),
    monic.  Columns are checked by their remainders `width` at a time, so a
    den coprime to the first numerators costs one gcd or two."""
    g, rem = den.monic(), None
    for start in range(0, F.shape[1], width):
        chunk = F[:, start: start + width]
        while g.degree > 0:
            if rem is None:
                rem = _division_maps(g, len(F))[1]
            r = rem @ chunk
            bad = next((c for c in range(r.shape[1]) if any(r[:, c])), None)
            if bad is None:
                break
            g, rem = g.gcd(Poly(chunk[:, bad])), None
        if g.degree <= 0:
            return P_ONE
    return g


class OperatorMatrix:
    """The operator-valued matrix s_ij(u) = (sum_p blocks[(i, j)][p] u^p) / (scale den(u)),
    i, j in `labels`, each blocks[(i, j)][p] a dim x dim rational or integer
    array, scale a positive integer.

    This is the one storage of the S-, T- and B-matrices of modules.  The
    constructor makes it canonical: den is monic, gcd(den, every numerator
    entry) = 1, every numerator entry is a Python int over the least such
    scale, every block has one slot past the top nonzero slot of all blocks,
    and no stored block is all zero.  Hence den is the lcm of the
    denominators of the reduced entries, and two operator matrices are equal
    iff their dens, scales and blocks are.
    """

    def __init__(self, labels, family, dim, den: Poly, blocks: dict, scale=1):
        self.labels = list(labels)
        self.family = family
        self.dim = dim
        keys = [k for k, b in blocks.items() if any(b.flat)]
        slots, dd = max((len(blocks[k]) for k in keys), default=1), dim * dim
        F = _zeros(slots, len(keys) * dd)
        for t, k in enumerate(keys):
            F[: len(blocks[k]), t * dd: (t + 1) * dd] = blocks[k].reshape(len(blocks[k]), dd)
        g = _common_factor(den, F, dd)
        if g.degree > 0:
            den, F = den // g, _division_maps(g, slots)[0] @ F
        if den.lead != 1:  # lead p/q: q F over p scale and the monic den
            p, q = den.lead.numerator, den.lead.denominator
            den, F, scale = den.monic(), F * (q if p > 0 else -q), scale * abs(p)
        flat = F.ravel().tolist()  # to Python ints over the least scale
        L = lcm(*(x.denominator for x in flat if x))
        flat = [x.numerator * (L // x.denominator) if x else 0 for x in flat]
        c = gcd(L * scale, *flat)
        F = np.array([x // c for x in flat], dtype=object).reshape(F.shape)
        top = max((p for p in range(len(F)) if any(F[p])), default=0)
        self.den, self.scale = den, L * scale // c
        self.blocks = {k: F[: top + 1, t * dd: (t + 1) * dd].reshape(top + 1, dim, dim)
                       for t, k in enumerate(keys)}

    @classmethod
    def from_terms(cls, labels, family, dim, terms):
        """s_ij(u) = sum_t c_t(u) M_t from {(i, j): [(RatFunc c_t, constant d x d M_t)]}."""
        den = P_ONE
        for ts in terms.values():
            for c, _ in ts:
                den = den.lcm(c.den)
        blocks = {}
        for key, ts in terms.items():
            nums = [(c.num * (den // c.den)).coeffs for c, _ in ts]
            b = _zeros(max(map(len, nums)), dim, dim)
            for p, (_, M) in zip(nums, ts):
                for k, x in enumerate(p):
                    b[k] += x * M
            blocks[key] = b
        return cls(labels, family, dim, den, blocks)

    @classmethod
    def from_entries(cls, labels, family, dim, entries):
        """Clear the denominators of {(i, j): d x d array of RatFunc}."""
        dens = {x.den for m in entries.values() for x in m.flat}
        den = P_ONE
        for q in dens:
            den = den.lcm(q)
        factor = {q: den // q for q in dens}
        blocks = {}
        for key, m in entries.items():
            nums = {rc: (x.num * factor[x.den]).coeffs for rc, x in np.ndenumerate(m) if x}
            b = _zeros(max(map(len, nums.values()), default=0), dim, dim)
            for (r, c), p in nums.items():
                b[: len(p), r, c] = p
            blocks[key] = b
        return cls(labels, family, dim, den, blocks)

    @property
    def slots(self):
        return max((len(b) for b in self.blocks.values()), default=1)

    def block(self, i, j):
        """The numerator coefficients of s_ij, zero when the block is not stored."""
        got = self.blocks.get((i, j))
        return got if got is not None else _zeros(self.slots, self.dim, self.dim)

    def entry(self, i, j):
        """s_ij(u) as a d x d array of reduced RatFunc (a derived view)."""
        out = np.full((self.dim, self.dim), RatFunc.of(0), dtype=object)
        b = self.blocks.get((i, j))
        for r in range(self.dim if b is not None else 0):
            for c in range(self.dim):
                if any(b[:, r, c]):
                    out[r, c] = RatFunc(Poly._of(b[:, r, c], self.scale), self.den)
        return out

    def substitute(self, a, b) -> "OperatorMatrix":
        """s_ij(a u + b), a != 0: one integer linear map on the coefficient
        axis, a and b over one denominator e and the blocks times e^(n-1)."""
        a, b, n = Fraction(a), Fraction(b), self.slots
        e = lcm(a.denominator, b.denominator)
        ae, be = int(a * e), int(b * e)
        M = _zeros(n, n)
        for p in range(n):
            for q in range(p + 1):
                M[q, p] = comb(p, q) * ae**q * be ** (p - q) * e ** (n - 1 - p)
        blocks = {k: (M @ c.reshape(n, -1)).reshape(c.shape) for k, c in self.blocks.items()}
        return OperatorMatrix(self.labels, self.family, self.dim,
                              self.den.compose_affine(a, b), blocks, self.scale * e ** (n - 1))

    def coeffs(self):
        """The integer numerators as one array c[p, i, j, r, s] (label positions i, j)."""
        pos = {l: k for k, l in enumerate(self.labels)}
        n, d = len(self.labels), self.dim
        out = _zeros(self.slots, n, n, d, d)
        for (i, j), c in self.blocks.items():
            out[:, pos[i], pos[j]] = c
        return out


# ---------------------------------------------------------------------------
# the identity engine
# ---------------------------------------------------------------------------


def _arithmetic(bound):
    """(dtype, label) of the grid arithmetic when every entry and partial sum
    is an integer of absolute value at most `bound`: float64 (exact, and
    computed by BLAS) below 2^53, int64 below 2^63, Python integers otherwise."""
    if bound < 2**53:
        return np.float64, "float64"
    if bound < 2**63:
        return np.int64, "int64"
    return object, "int"


def _norm(c, w) -> int:
    """Row-sum norm bound of the matrix polynomial c on |argument| <= w; it
    also bounds every partial sum of its Horner evaluation."""
    tot = sum(np.abs(c[p]) * w**p for p in range(len(c)))
    return max(int(tot.sum(axis=1).max()), 1)


def _horner(c, ws):
    """The matrix polynomial c at every argument in ws, stacked on axis 0, by
    Horner's rule in the dtype of c."""
    w = np.array(ws).astype(c.dtype).reshape((-1,) + (1,) * (c.ndim - 1))
    acc = np.broadcast_to(c[-1], w.shape[:1] + c.shape[1:])
    for p in range(len(c) - 2, -1, -1):
        acc = acc * w + c[p]
    return acc


# Every batched temporary of `check_relation` has at most this many entries,
# unless one grid point alone has more.  On the small modules measured, 2^14
# saved no time over 2^13 and raised the peak memory by about 1 MB.
_BATCH_ENTRIES = 2**13


def check_relation(name, labels, A, X, B=None, entry_labels=None) -> Report:
    """A(u-v) X1(u) B(u+v) X2(v) = X2(v) B(u+v) X1(u) A(u-v), exactly.

    A, X and B are coefficient arrays c[p, i, j, r, s] of polynomials in
    their argument, i, j positions in `labels`: for X the (r, s) entry of
    x_ij, for the two-leg factors A, B the ((i, r), (j, s)) entry on
    C^N (x) C^N.  Entries are integers (a factor's scale, on both sides,
    changes no verdict).

    X is evaluated once on the G grid values, A once on the 2G - 1
    differences u0 - v0 and B once on the 2G - 1 sums u0 + v0.  Both sides
    are then formed for `batch_points` grid points at a time by stacked
    products, with that number chosen so that no batched temporary exceeds
    `_BATCH_ENTRIES` entries (one point per batch when a point alone does).
    A witness is (key, (u0, v0)) with the first grid point, u0 outer and v0
    inner, where the entry fails: the key is (i, j, k, l) for the block of
    E_ij (x) E_kl, or, when `entry_labels` names the basis of V, the entry
    (row, col) of C^N (x) C^N (x) V with rows labeled (i, k) + entry_labels[r].
    """
    rep = Report(name)
    N = len(labels)
    d = X.shape[-1]
    x = X.transpose(0, 1, 3, 2, 4).reshape(-1, N * d, N * d)  # rows (i, r)
    a, b = (None if F is None else
            F.transpose(0, 1, 3, 2, 4).reshape(-1, N * N, N * N)  # rows (i, k)
            for F in (A, B))
    D = len(x) + len(a) - 2 + (0 if b is None else len(b) - 1)
    lo, hi = -(D // 2), (D + 1) // 2
    G = hi - lo + 1
    bound = 2 * _norm(x, hi) ** 2 * _norm(a, D) * (1 if b is None else _norm(b, 2 * hi))
    dtype, label = _arithmetic(bound)
    n = N * N * d
    step = min(G * G, max(1, _BATCH_ENTRIES // (n * n)))
    rep.details.update(degree_bound=D, grid_points=G * G, operator_dim=n,
                       arithmetic=label, bound_bits=bound.bit_length(), batch_points=step)
    xs = _horner(x.astype(dtype), range(lo, hi + 1))
    az = _horner(a.astype(dtype), range(lo - hi, hi - lo + 1))  # at u0 - v0
    bz = None if b is None else _horner(b.astype(dtype), range(2 * lo, 2 * hi + 1))

    def two_leg(F, M):
        return (F @ M.reshape(-1, N * N, d * n)).reshape(-1, n, n)

    def leg1(Xm, M):
        M = M.reshape(-1, N, N, d, n).transpose(0, 2, 1, 3, 4).reshape(-1, N, N * d, n)
        return (Xm[:, None] @ M).reshape(-1, N, N, d, n).transpose(0, 2, 1, 3, 4).reshape(-1, n, n)

    def leg2(Xm, M):
        return (Xm[:, None] @ M.reshape(-1, N, N * d, n)).reshape(-1, n, n)

    points = [(u0, v0) for u0 in range(lo, hi + 1) for v0 in range(lo, hi + 1)]
    iu, iv = np.divmod(np.arange(G * G), G)
    diag_n, diag_d = np.arange(N), np.arange(d)
    shape = (N, N, N, N) if entry_labels is None else (N, N, d, N, N, d)
    seen = np.zeros(shape, dtype=bool)
    found = []
    # the left side is built from X2 leftwards, the right side from A
    # leftwards; each factor acts by a contraction on its own legs
    for start in range(0, G * G, step):
        u, v = iu[start: start + step], iv[start: start + step]
        Xu, Xv, Am = xs[u], xs[v], az[u - v + G - 1]
        lhs = np.zeros((len(u), N, N, d, N, N, d), dtype)  # I_N (x) X(v0)
        lhs[:, diag_n, :, :, diag_n] = Xv.reshape(-1, N, d, N, d)
        rhs = np.zeros((len(u), N, N, d, N, N, d), dtype)  # A (x) I_d
        rhs[:, :, :, diag_d, :, :, diag_d] = Am.reshape(-1, N, N, N, N)
        rhs = leg1(Xu, rhs.reshape(-1, n, n))
        lhs = lhs.reshape(-1, n, n)
        if bz is not None:
            Bm = bz[u + v]
            lhs, rhs = two_leg(Bm, lhs), two_leg(Bm, rhs)
        lhs = two_leg(Am, leg1(Xu, lhs))
        rhs = leg2(Xv, rhs)
        bad = (lhs != rhs).reshape(-1, N, N, d, N, N, d)
        if entry_labels is None:
            bad = bad.any(axis=(3, 6))
        new = bad.any(axis=0) & ~seen
        if not new.any():
            continue
        seen |= new
        first = bad.argmax(axis=0)
        for idx in zip(*np.nonzero(new)):
            found.append((_witness_key(labels, entry_labels, idx), points[start + first[idx]]))
    for w in sorted(found, key=lambda w: w[0]):
        rep.fail(w)
    return rep


def _witness_key(labels, entry_labels, idx):
    if entry_labels is None:
        i, k, j, l = (labels[t] for t in idx)
        return (i, j, k, l)
    a, b, r, a2, b2, s = idx
    return ((labels[a], labels[b]) + entry_labels[r],
            (labels[a2], labels[b2]) + entry_labels[s])


# ---------------------------------------------------------------------------
# module relations: thin callers of the engine
# ---------------------------------------------------------------------------


def _two_leg_basis(labels, family):
    """I, P and Q on C^N (x) C^N in the layout [i, j, k, l] = entry ((i, k), (j, l))."""
    pos = {l: k for k, l in enumerate(labels)}
    N = len(labels)
    I, P, Q = (np.zeros((N,) * 4, dtype=object) for _ in range(3))
    for i in labels:
        for j in labels:
            I[pos[i], pos[i], pos[j], pos[j]] = 1
            P[pos[i], pos[j], pos[j], pos[i]] = 1
            if -i in pos and -j in pos:
                Q[pos[i], pos[j], pos[-i], pos[-j]] = theta(family, i, j)
    return I, P, Q


def _r_kappa(labels, family, kappa):
    """q u (u - kappa) R(u), R(u) = 1 - P/u + Q/(u - kappa), kappa = p/q."""
    I, P, Q = _two_leg_basis(labels, family)
    ka = Fraction(kappa)
    p, q = ka.numerator, ka.denominator
    return np.stack([p * P, -p * I - q * P + q * Q, q * I])


def _r_gl(op: OperatorMatrix):
    """u R(u), R(u) = 1 - P/u."""
    I, P, _ = _two_leg_basis(op.labels, op.family)
    return np.stack([-P, I])


def check_twisted_commutators(op: OperatorMatrix, kappa) -> Report:
    r = _r_kappa(op.labels, op.family, kappa)
    return check_relation("reflection-commutators", op.labels, r, op.coeffs(), r)


def check_rtt_commutators(op: OperatorMatrix, kappa) -> Report:
    r = _r_kappa(op.labels, op.family, kappa)
    return check_relation("rtt-commutators", op.labels, r, op.coeffs())


def check_olshanskii_commutators(op: OperatorMatrix) -> Report:
    # B = u R^t(-u) = u + Q, with the transpose t of the module's family
    I, _, Q = _two_leg_basis(op.labels, op.family)
    return check_relation("olshanskii-commutators", op.labels, _r_gl(op),
                          op.coeffs(), np.stack([Q, I]))


def check_mr_commutators(op: OperatorMatrix) -> Report:
    r = _r_gl(op)
    return check_relation("reflection-algebra-commutators", op.labels, r, op.coeffs(), r)


# ---------------------------------------------------------------------------
# the symmetry relation, linear in S
# ---------------------------------------------------------------------------


def _symmetry_report(name, op: OperatorMatrix, kappa, sign_refl, sign_pm, trace_g=None):
    """theta_ij s_{-j,-i}(u) = sign_refl s_ij(k-u) + sign_pm (s_ij(u) - s_ij(k-u))/(2u-k)
    [+ (Tr G(u) s_ij(k-u) - delta_ij sum_k s_kk(u))/(2u-2k) when trace_g = Tr G],
    decided by evaluation; one witness ((i, j), ...) per failing block (i, j).

    With S = x/(scale den), x integer, the relation times den(u) den(k-u)
    (2u-k) [(2u-2k) den Tr G(u)] reads sum_t p_t(u) C_t(u) = 0, each C_t one
    of x(u), its flip theta_ij x_{-j,-i}(u), its trace part delta_ij
    sum_k x_kk(u) and x(k-u), each p_t a scalar polynomial.  That matrix
    polynomial has degree at most D = max_t deg p_t + slots - 1, so it
    vanishes iff it vanishes on D + 1 integer points u0.  The numerators are
    evaluated on all of them by one product with the Vandermonde matrix, and
    at k - u0, k = P/Q, by the homogeneous form Q^(slots-1) x((P - u0 Q)/Q);
    the scalar factors of each point are brought to one integer scale.  A
    bound on every value and partial sum picks the arithmetic (`_arithmetic`):
    float64 below 2^53, where every operation on these integers is exact in
    any order and with FMA, int64 below 2^63 and Python integers otherwise.
    """
    rep = Report(name)
    ka = Fraction(kappa)
    P, Q = ka.numerator, ka.denominator
    x = op.coeffs()
    labs, den, n = op.labels, op.den, len(x)
    N, d = len(labs), op.dim
    tn, td = (Poly(), P_ONE) if trace_g is None else (trace_g.num, trace_g.den)
    deg_b = 0 if trace_g is None else td.degree + 1
    D = den.degree + 1 + max(deg_b, tn.degree) + n - 1
    grid = range(-(D // 2), (D + 1) // 2 + 1)
    # per point: integers (g0, g1, g2, g3) proportional to the factors of
    # flip(x(u0)), x(u0), trace(x(u0)) and Q^(n-1) x(k-u0)
    gs = []
    for u0 in grid:
        a, dn, dr = 2 * u0 - ka, den.eval(u0), den.eval(ka - u0)
        t = td.eval(u0)
        b = 1 if trace_g is None else (2 * u0 - 2 * ka) * t
        f = (dr * a * b, -sign_pm * dr * b, dr * a * t,
             dn * (sign_pm * b - sign_refl * a * b - tn.eval(u0) * a) / Q ** (n - 1))
        scale = lcm(*(v.denominator for v in f))
        gs.append([int(v * scale) for v in f])
    vand = [[u0**p for p in range(n)] for u0 in grid]
    refl = [[(P - u0 * Q) ** p * Q ** (n - 1 - p) for p in range(n)] for u0 in grid]
    # every entry and partial sum of a point's values, max|g| ((N + 2) |x(u0)|
    # + |Q^(n-1) x(k-u0)|) included, is at most this bound
    top = [max(int(np.abs(c).max()), 1) for c in x]
    bound = max(max(map(abs, g)) * (N + 3) * sum(max(abs(v), abs(r)) * c
                                                 for v, r, c in zip(vs, rs, top))
                for g, vs, rs in zip(gs, vand, refl))
    dtype, label = _arithmetic(bound)
    rep.details.update(degree_bound=D, grid_points=len(grid), operator_dim=N * d,
                       arithmetic=label, bound_bits=bound.bit_length())
    xf = x.reshape(n, -1).astype(dtype)
    ev, evr = ((np.array(m, dtype=object).astype(dtype) @ xf).reshape(-1, N, N, d, d)
               for m in (vand, refl))
    g = np.array(gs, dtype=object).astype(dtype).reshape(-1, 4, 1, 1, 1, 1)
    pos = {l: k for k, l in enumerate(labs)}
    neg = [pos[-l] for l in labs]
    th = np.array([[theta(op.family, i, j) for j in labs] for i in labs], dtype=dtype)
    flipped = ev[:, neg][:, :, neg].transpose(0, 2, 1, 3, 4) * th[None, :, :, None, None]
    val = g[:, 0] * flipped + g[:, 1] * ev + g[:, 3] * evr
    if trace_g is not None:
        diag = np.arange(N)
        val[:, diag, diag] += g[:, 2, 0] * ev[:, diag, diag].sum(axis=1)[:, None]
    bad = (val != 0).any(axis=(0, 3, 4))
    for i, j in zip(*np.nonzero(bad)):
        rep.fail(((labs[i], labs[j]), "symmetry relation violated"))
    return rep


# ---------------------------------------------------------------------------
# the product identity S(u) S(-u) = w(u) I
# ---------------------------------------------------------------------------


def _interpolate(lo, ys) -> Poly:
    """The polynomial of degree < len(ys) with value ys[k] at u = lo + k, in
    Newton's forward-difference form."""
    out, basis = Poly(), P_ONE
    for k in range(len(ys)):
        out = out + basis * ys[0]
        ys = [y1 - y0 for y0, y1 in zip(ys, ys[1:])]
        basis = basis * Poly([Fraction(-lo - k, k + 1), Fraction(1, k + 1)])
    return out


def scalar_product_with_reflected(op: OperatorMatrix):
    """(w, report) with S(u) S(-u) = w(u) Id, exactly; w is None when a
    diagonal block of S(u) S(-u) is not a scalar, and otherwise the scalar of
    the first label.

    With S = num/(L den), num integer and L = scale, num(u) num(-u) is a
    matrix polynomial of degree at most D = 2 (slots - 1), so it is decided
    by its values on the D + 1 integer points -D/2 .. D/2.  The squared
    row-sum norm of num on the grid bounds every entry and partial sum of the
    products and picks the arithmetic (`_arithmetic`): float64 below 2^53,
    where every operation on these integers is exact in any order and with
    FMA, int64 below 2^63 and Python integers otherwise.  Every off-diagonal
    block must vanish and every diagonal block be c(u0) Id with one c for all
    labels; w(u) = c(u) / (L^2 den(u) den(-u)), c interpolated from its grid
    values.  A witness is ((i, j), u0, what) for block (i, j) at its first
    failing grid point u0, what one of "nonzero", "not scalar", "scalar
    differs".
    """
    rep = Report("unitary-scalar")
    labels, N = op.labels, len(op.labels)
    m, scale = op.dim, op.scale
    x = op.coeffs().transpose(0, 1, 3, 2, 4).reshape(-1, N * m, N * m)  # rows (i, r)
    D = 2 * (len(x) - 1)
    grid = range(-(D // 2), D // 2 + 1)
    bound = _norm(x, D // 2) ** 2
    dtype, label = _arithmetic(bound)
    x = x.astype(dtype)
    rep.details.update(degree_bound=D, grid_points=len(grid), operator_dim=N * m,
                       arithmetic=label, bound_bits=bound.bit_length())
    xs = _horner(x, grid)
    Z = (xs @ xs[::-1]).reshape(-1, N, m, N, m).transpose(0, 1, 3, 2, 4)  # blocks (i, j)
    diag = np.arange(N)
    Zd = Z[:, diag, diag]
    not_scalar = (Zd != Zd[:, :, :1, :1] * np.eye(m, dtype=dtype)).any(axis=(2, 3))
    c = Z[:, 0, 0, 0, 0]
    what = (Z != 0).any(axis=(3, 4)).astype(int)  # 1: "nonzero"
    what[:, diag, diag] = np.where(not_scalar, 2, np.where(Zd[:, :, 0, 0] != c[:, None], 3, 0))
    first = (what != 0).argmax(axis=0)
    names = (None, "nonzero", "not scalar", "scalar differs")
    for i, j in zip(*np.nonzero((what != 0).any(axis=0))):
        k = first[i, j]
        rep.fail(((labels[i], labels[j]), grid[k], names[what[k, i, j]]))
    if not_scalar.any():
        return None, rep
    w = _interpolate(grid.start, [int(y) for y in c]) * Fraction(1, scale * scale)
    return RatFunc(w, op.den * op.den.compose_affine(-1, 0)), rep
