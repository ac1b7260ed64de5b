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
from math import lcm

import numpy as np

from .exact import P_ONE, Poly, RatFunc, Sqrt2
from .tensors import theta


def _is_zero_mat(m) -> bool:
    return not any(bool(x) for x in m.flat)


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


class ClearedS:
    """Cleared S-matrix: s_ij(u) = (sum_p num[(i, j)][p] u^p) / den(u)."""

    def __init__(self, labels, family, dim, den: Poly, num: dict):
        self.labels = list(labels)
        self.family = family
        self.dim = dim
        self.den = den
        # strip zero coefficient matrices but keep alignment
        self.num = {k: [a for a in v] for k, v in num.items() if any(not _is_zero_mat(a) for a in v)}

    @classmethod
    def of(cls, labels, family, dim, s):
        """Clear the denominators of s_ij(u), given as d x d arrays of RatFunc."""
        dens = {x.den for m in s.values() for x in m.flat}
        den = P_ONE
        for q in dens:
            den = den.lcm(q)
        factor = {q: den // q for q in dens}
        polys = {k: [[x.num * factor[x.den] for x in row] for row in m] for k, m in s.items()}
        slots = 1 + max((p.degree for rows in polys.values() for row in rows for p in row),
                        default=0)
        num = {}
        for key, rows in polys.items():
            arrays = np.full((slots, dim, dim), Fraction(0), dtype=object)
            for r, row in enumerate(rows):
                for c, p in enumerate(row):
                    for k, co in enumerate(p.coeffs):
                        if co:
                            arrays[k, r, c] = co
            num[key] = list(arrays)
        return cls(labels, family, dim, den, num)

    def coeffs(self):
        """The numerators as one array c[p, i, j, r, s] (label positions i, j)."""
        pos = {l: k for k, l in enumerate(self.labels)}
        n, d = len(self.labels), self.dim
        slots = max((len(v) for v in self.num.values()), default=1)
        out = np.full((slots, n, n, d, d), Fraction(0), dtype=object)
        for (i, j), arrs in self.num.items():
            for p, a in enumerate(arrs):
                out[p, pos[i], pos[j]] = a
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


def _r_kappa(cs: ClearedS, kappa):
    """u (u - kappa) R(u), R(u) = 1 - P/u + Q/(u - kappa)."""
    I, P, Q = _two_leg_basis(cs.labels, cs.family)
    ka = Fraction(kappa)
    return np.stack([ka * P, -ka * I - P + Q, I])


def _r_gl(cs: ClearedS):
    """u R(u), R(u) = 1 - P/u."""
    I, P, _ = _two_leg_basis(cs.labels, cs.family)
    return np.stack([-P, I])


def check_twisted_commutators(cs: ClearedS, kappa) -> Report:
    r = _r_kappa(cs, kappa)
    return check_relation("reflection-commutators", cs.labels, r, cs.coeffs(), r)


def check_rtt_commutators(cs: ClearedS, kappa) -> Report:
    return check_relation("rtt-commutators", cs.labels, _r_kappa(cs, kappa), cs.coeffs())


def check_olshanskii_commutators(cs: ClearedS) -> Report:
    # B = u R^t(-u) = u + Q, with the transpose t of the module's family
    I, _, Q = _two_leg_basis(cs.labels, cs.family)
    return check_relation("olshanskii-commutators", cs.labels, _r_gl(cs),
                          cs.coeffs(), np.stack([Q, I]))


def check_mr_commutators(cs: ClearedS) -> Report:
    r = _r_gl(cs)
    return check_relation("reflection-algebra-commutators", cs.labels, r, cs.coeffs(), r)


# ---------------------------------------------------------------------------
# unitary scalar S(u) S(-u) = w(u) I
# ---------------------------------------------------------------------------


def scalar_product_with_reflected(cs: ClearedS):
    """Returns (w, report): w with S(u) S(-u) = w(u) * Id if scalar, else None."""
    rep = Report("unitary-scalar")
    den2 = cs.den * cs.den.compose_affine(-1, 0)
    dim = cs.dim
    w_num = None
    for i in cs.labels:
        for j in cs.labels:
            acc = {}
            for a in cs.labels:
                A = cs.num.get((i, a))
                B = cs.num.get((a, j))
                if not A or not B:
                    continue
                for p, ap in enumerate(A):
                    for q, bq in enumerate(B):
                        m = ap @ ((-1) ** q * bq)
                        acc[p + q] = m if p + q not in acc else acc[p + q] + m
            if i != j:
                if any(not _is_zero_mat(m) for m in acc.values()):
                    rep.fail(((i, j), "off-diagonal entry of S(u)S(-u) is nonzero"))
                continue
            # diagonal: must be a scalar matrix, equal for every i
            coeffs = []
            top = max(acc) if acc else 0
            for k in range(top + 1):
                m = acc.get(k)
                if m is None:
                    coeffs.append(Fraction(0))
                    continue
                c = m[0, 0]
                scal = True
                for r in range(dim):
                    for s in range(dim):
                        if (r == s and m[r, s] != c) or (r != s and m[r, s]):
                            scal = False
                            break
                    if not scal:
                        break
                if not scal:
                    rep.fail(((i, i), f"coefficient of u^{k} is not scalar"))
                    return None, rep
                coeffs.append(c)
            w = RatFunc(Poly(coeffs), den2)
            if w_num is None:
                w_num = w
            elif w_num != w:
                rep.fail(((i, i), "diagonal scalar differs between labels"))
    return w_num, rep
