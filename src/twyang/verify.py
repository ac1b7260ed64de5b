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

`check_relation` decides such a relation exactly.  Each factor enters with
its denominators cleared and its coefficients scaled to integers: every
factor occurs once on each side (X once as X1 and once as X2), so a scalar
factor multiplies both sides alike.  Both sides are then polynomials in
(u, v) of bidegree at most (D, D), D = deg A + deg X + deg B, and such a
polynomial vanishes identically iff it vanishes on the integer grid
{-floor(D/2) .. ceil(D/2)}^2 of (D+1)^2 points, where the engine evaluates
them.  The arithmetic is int64 when an a-priori bound on every entry of
every partial product (the product of the factors' row-sum norms over the
grid) stays below 2^63, and Python integers otherwise; there are no floats.
Coefficients in Q(sqrt 2) go through the injective ring map
a + b sqrt2 -> [[a, 2b], [b, a]], which doubles the dimension of V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .exact import P_ONE, Poly, RatFunc, Sqrt2
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
    return np.full(shape, Fraction(0), dtype=object)


def _convolve(a, b, op=np.matmul):
    """Coefficients of (sum_p a[p] u^p)(sum_q b[q] u^q), with op (matmul, kron
    or multiply) multiplying two coefficients."""
    out = None
    for p, x in enumerate(a):
        for q, y in enumerate(b):
            t = op(x, y)
            if out is None:
                out = _zeros(len(a) + len(b) - 1, *np.shape(t))
            out[p + q] += t
    return out


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
    """The operator-valued matrix s_ij(u) = (sum_p blocks[(i, j)][p] u^p) / den(u),
    i, j in `labels`, each blocks[(i, j)][p] a dim x dim rational array.

    This is the one storage of the S-, T- and B-matrices of modules.  The
    constructor makes it canonical: den is monic, gcd(den, every numerator
    entry) = 1, every block has one slot past the top nonzero slot of all
    blocks, and no stored block is all zero.  Hence den is the lcm of the
    denominators of the reduced entries, and two operator matrices are equal
    iff their dens and blocks are.
    """

    def __init__(self, labels, family, dim, den: Poly, blocks: dict):
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
        if den.lead != 1:
            den, F = den.monic(), F * (1 / den.lead)
        top = max((p for p in range(len(F)) if any(F[p])), default=0)
        self.den = den
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
                    out[r, c] = RatFunc(Poly(b[:, r, c]), self.den)
        return out

    def substitute(self, a, b) -> "OperatorMatrix":
        """s_ij(a u + b), a != 0: one linear map on the coefficient axis."""
        a, b, n = Fraction(a), Fraction(b), self.slots
        M = _zeros(n, n)
        for p in range(n):
            for q in range(p + 1):
                M[q, p] = comb(p, q) * a**q * b ** (p - q)
        blocks = {k: (M @ c.reshape(n, -1)).reshape(c.shape) for k, c in self.blocks.items()}
        return OperatorMatrix(self.labels, self.family, self.dim,
                              self.den.compose_affine(a, b), blocks)

    def coeffs(self):
        """The numerators as one array c[p, i, j, r, s] (label positions i, j)."""
        pos = {l: k for k, l in enumerate(self.labels)}
        n, d = len(self.labels), self.dim
        out = _zeros(self.slots, n, n, d, d)
        for (i, j), c in self.blocks.items():
            out[:, pos[i], pos[j]] = c
        return out


# ---------------------------------------------------------------------------
# the identity engine
# ---------------------------------------------------------------------------


def _rational_blocks(c):
    """Entries of Q(sqrt 2) as 2x2 rational blocks [[a, 2b], [b, a]] on the
    last two axes; rational arrays come back unchanged."""
    if not any(isinstance(x, Sqrt2) for x in c.flat):
        return c
    a = np.vectorize(lambda x: Sqrt2.of(x).a, otypes=[object])(c)
    b = np.vectorize(lambda x: Sqrt2.of(x).b, otypes=[object])(c)
    *lead, d, _ = c.shape
    out = np.empty((*lead, d, 2, d, 2), dtype=object)
    out[..., :, 0, :, 0] = a
    out[..., :, 0, :, 1] = 2 * b
    out[..., :, 1, :, 0] = b
    out[..., :, 1, :, 1] = a
    return out.reshape(*lead, 2 * d, 2 * d)


def _integral(c):
    """c scaled by the lcm of its denominators, as Python ints, with trailing
    zero coefficients (axis 0) dropped."""
    flat = c.ravel().tolist()
    scale = lcm(*(x.denominator for x in flat if x))
    out = np.array([x.numerator * (scale // x.denominator) if x else 0 for x in flat],
                   dtype=object).reshape(c.shape)
    top = max((p for p in range(len(out)) if any(out[p].flat)), default=0)
    return out[: top + 1]


def _norm(c, w) -> int:
    """Row-sum norm bound of the matrix polynomial c on |argument| <= w; it
    also bounds every partial sum of its Horner evaluation."""
    tot = sum(np.abs(c[p]) * w**p for p in range(len(c)))
    return max(int(tot.sum(axis=1).max()), 1)


def _at(c, w):
    acc = c[-1]
    for p in range(len(c) - 2, -1, -1):
        acc = acc * w + c[p]
    return acc


def check_relation(name, labels, A, X, B=None, entry_labels=None) -> Report:
    """A(u-v) X1(u) B(u+v) X2(v) = X2(v) B(u+v) X1(u) A(u-v), exactly.

    A, X and B are coefficient arrays c[p, i, j, r, s] of polynomials in
    their argument, i, j positions in `labels`: for X the (r, s) entry of
    x_ij, for the two-leg factors A, B the ((i, r), (j, s)) entry on
    C^N (x) C^N.  Entries are rational (Q(sqrt 2) for X).  A witness is
    (key, (u0, v0)) with the first grid point where the entry fails: the
    key is (i, j, k, l) for the block of E_ij (x) E_kl, or, when
    `entry_labels` names the basis of V, the entry (row, col) of
    C^N (x) C^N (x) V with rows labeled (i, k) + entry_labels[r].
    """
    rep = Report(name)
    N = len(labels)
    x = _integral(_rational_blocks(X))
    d = x.shape[-1]
    x = x.transpose(0, 1, 3, 2, 4).reshape(-1, N * d, N * d)  # rows (i, r)
    a, b = (None if F is None else
            _integral(F).transpose(0, 1, 3, 2, 4).reshape(-1, N * N, N * N)  # rows (i, k)
            for F in (A, B))
    D = len(x) + len(a) - 2 + (0 if b is None else len(b) - 1)
    lo, hi = -(D // 2), (D + 1) // 2
    grid = range(lo, hi + 1)
    bound = 2 * _norm(x, hi) ** 2 * _norm(a, D) * (1 if b is None else _norm(b, 2 * hi))
    dtype = np.int64 if bound < 2**63 else object
    x, a = x.astype(dtype), a.astype(dtype)
    if b is not None:
        b = b.astype(dtype)
    n = N * N * d
    rep.details.update(degree_bound=D, grid_points=len(grid) ** 2, operator_dim=n,
                       arithmetic="int64" if dtype is np.int64 else "int")

    def two_leg(F, M):
        return (F @ M.reshape(N * N, d * n)).reshape(n, n)

    def leg1(Xm, M):
        M = M.reshape(N, N, d, n).transpose(1, 0, 2, 3).reshape(N, N * d, n)
        return (Xm @ M).reshape(N, N, d, n).transpose(1, 0, 2, 3).reshape(n, n)

    def leg2(Xm, M):
        return (Xm @ M.reshape(N, N * d, n)).reshape(n, n)

    xs = {w: _at(x, w) for w in grid}
    eye_n, eye_d = np.eye(N, dtype=dtype), np.eye(d, dtype=dtype)
    shape = (N, N, N, N) if entry_labels is None else (N, N, d, N, N, d)
    seen = np.zeros(shape, dtype=bool)
    found = []
    # the left side is built from X2 leftwards, the right side from A
    # leftwards; each factor acts by a contraction on its own legs
    for u0 in grid:
        for v0 in grid:
            Am = _at(a, u0 - v0)
            lhs = np.kron(eye_n, xs[v0])
            rhs = leg1(xs[u0], np.kron(Am, eye_d))
            if b is not None:
                Bm = _at(b, u0 + v0)
                lhs = two_leg(Bm, lhs)
                rhs = two_leg(Bm, rhs)
            lhs = two_leg(Am, leg1(xs[u0], lhs))
            rhs = leg2(xs[v0], rhs)
            bad = (lhs != rhs).reshape(N, N, d, N, N, d)
            if entry_labels is None:
                bad = bad.any(axis=(2, 5))
            new = bad & ~seen
            if not new.any():
                continue
            seen |= new
            for idx in zip(*np.nonzero(new)):
                found.append((_witness_key(labels, entry_labels, idx), (u0, v0)))
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


def _r_kappa(op: OperatorMatrix, kappa):
    """u (u - kappa) R(u), R(u) = 1 - P/u + Q/(u - kappa)."""
    I, P, Q = _two_leg_basis(op.labels, op.family)
    ka = Fraction(kappa)
    return np.stack([ka * P, -ka * I - P + Q, I])


def _r_gl(op: OperatorMatrix):
    """u R(u), R(u) = 1 - P/u."""
    I, P, _ = _two_leg_basis(op.labels, op.family)
    return np.stack([-P, I])


def check_twisted_commutators(op: OperatorMatrix, kappa) -> Report:
    r = _r_kappa(op, kappa)
    return check_relation("reflection-commutators", op.labels, r, op.coeffs(), r)


def check_rtt_commutators(op: OperatorMatrix, kappa) -> Report:
    return check_relation("rtt-commutators", op.labels, _r_kappa(op, kappa), op.coeffs())


def check_olshanskii_commutators(op: OperatorMatrix) -> Report:
    # B = u R^t(-u) = u + Q, with the transpose t of the module's family
    I, _, Q = _two_leg_basis(op.labels, op.family)
    return check_relation("olshanskii-commutators", op.labels, _r_gl(op),
                          op.coeffs(), np.stack([Q, I]))


def check_mr_commutators(op: OperatorMatrix) -> Report:
    r = _r_gl(op)
    return check_relation("reflection-algebra-commutators", op.labels, r, op.coeffs(), r)


# ---------------------------------------------------------------------------
# unitary scalar S(u) S(-u) = w(u) I
# ---------------------------------------------------------------------------


def scalar_product_with_reflected(op: OperatorMatrix):
    """Returns (w, report): w with S(u) S(-u) = w(u) * Id if scalar, else None."""
    rep = Report("unitary-scalar")
    den2 = op.den * op.den.compose_affine(-1, 0)
    eye = np.eye(op.dim, dtype=object)
    w_num = None
    for i in op.labels:
        for j in op.labels:
            acc = None
            for a in op.labels:
                A, B = op.blocks.get((i, a)), op.blocks.get((a, j))
                if A is None or B is None:
                    continue
                m = _convolve(A, np.array([(-1) ** q * b for q, b in enumerate(B)]))
                acc = m if acc is None else acc + m
            if i != j:
                if acc is not None and any(acc.flat):
                    rep.fail(((i, j), "off-diagonal entry of S(u)S(-u) is nonzero"))
                continue
            # diagonal: must be a scalar matrix, equal for every i
            coeffs = [Fraction(0)] if acc is None else list(acc[:, 0, 0])
            for k in range(0 if acc is None else len(acc)):
                if not np.array_equal(acc[k], coeffs[k] * eye):
                    rep.fail(((i, i), f"coefficient of u^{k} is not scalar"))
                    return None, rep
            w = RatFunc(Poly(coeffs), den2)
            if w_num is None:
                w_num = w
            elif w_num != w:
                rep.fail(((i, i), "diagonal scalar differs between labels"))
    return w_num, rep
