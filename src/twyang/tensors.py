"""Signed indices, theta, kappa, and the labeled matrices R and K are built from.

Rows and columns are labeled by the signed index set {-n..n} (0 present iff
N is odd); multi-leg matrices carry tuples of signed indices.  Storage is a
mapping {(row_label, col_label): value} with zeros omitted, so the entry
ring is anything with +, * and truthiness (Fraction, RatFunc...).  It has
no products: identities are checked on `verify.OperatorMatrix` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class IndexSet:
    n: int
    includes_zero: bool

    @staticmethod
    def for_N(N: int) -> "IndexSet":
        if N < 1:
            raise ValueError("N must be positive")
        return IndexSet(N // 2, N % 2 == 1)

    @property
    def N(self) -> int:
        return 2 * self.n + (1 if self.includes_zero else 0)

    def labels(self):
        neg = list(range(-self.n, 0))
        pos = list(range(1, self.n + 1))
        return neg + ([0] if self.includes_zero else []) + pos


ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"


def sign(i: int) -> int:
    return (i > 0) - (i < 0)


def theta(family: str, i: int, j: int) -> int:
    """theta_ij: 1 in the orthogonal case, sign(i)sign(j) in the symplectic one."""
    if family == ORTHOGONAL:
        return 1
    if family == SYMPLECTIC:
        if i == 0 or j == 0:
            return 1
        return sign(i) * sign(j)
    raise ValueError(f"unknown family {family!r}")


def kappa(N: int, family: str) -> Fraction:
    """kappa = N/2 - 1 for so_N and N/2 + 1 for sp_N."""
    return Fraction(N, 2) + (1 if family == SYMPLECTIC else -1)


def _as_label(x):
    return x if isinstance(x, tuple) else (x,)


class LabeledMatrix:
    """Square matrix with rows/columns addressed by (tuples of) signed indices."""

    __slots__ = ("labels", "data")

    def __init__(self, labels, data=None):
        self.labels = tuple(_as_label(l) for l in labels)
        self.data = {}
        if data:
            for (r, c), v in data.items():
                if v:
                    self.data[(_as_label(r), _as_label(c))] = v

    # -- constructors ---------------------------------------------------
    @staticmethod
    def identity(labels, one=Fraction(1)):
        m = LabeledMatrix(labels)
        for l in m.labels:
            m.data[(l, l)] = one
        return m

    # -- basic structure -------------------------------------------------
    @property
    def legs(self):
        return len(self.labels[0]) if self.labels else 0

    def __getitem__(self, rc):
        r, c = rc
        return self.data.get((_as_label(r), _as_label(c)), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, LabeledMatrix):
            return NotImplemented
        return self.labels == other.labels and self.data == other.data

    def map_values(self, f):
        out = LabeledMatrix(self.labels)
        for k, v in self.data.items():
            w = f(v)
            if w:
                out.data[k] = w
        return out

    # -- sums, transposes, traces -----------------------------------------
    def __add__(self, other):
        if self.labels != other.labels:
            raise ValueError("label mismatch")
        out = LabeledMatrix(self.labels, self.data)
        for k, v in other.data.items():
            s = out.data.get(k)
            s = v if s is None else s + v
            if s:
                out.data[k] = s
            else:
                out.data.pop(k, None)
        return out

    def partial_transpose(self, leg, family):
        """Transpose one leg of a two-leg matrix (leg in {1, 2})."""
        if self.legs != 2:
            raise ValueError("partial transpose requires exactly two legs")
        if leg not in (1, 2):
            raise ValueError("leg must be 1 or 2")
        i = leg - 1
        out = LabeledMatrix(self.labels)
        for (r, c), v in self.data.items():
            nr, nc = list(r), list(c)
            nr[i], nc[i] = -c[i], -r[i]
            th = theta(family, c[i], r[i])
            w = th * v if th != 1 else v
            if w:
                out.data[(tuple(nr), tuple(nc))] = w
        return out

    def trace(self):
        s = None
        for l in self.labels:
            v = self.data.get((l, l))
            if v is not None:
                s = v if s is None else s + v
        return s if s is not None else Fraction(0)

    def __repr__(self):
        ent = ", ".join(f"{r}->{c}: {v}" for (r, c), v in sorted(self.data.items()))
        return f"LabeledMatrix[{self.legs} leg(s), {len(self.labels)} labels]({ent})"


def op_P(N: int) -> LabeledMatrix:
    """Permutation operator P = sum E_ij (x) E_ji on C^N (x) C^N."""
    idx = IndexSet.for_N(N)
    labels = [(i, k) for i in idx.labels() for k in idx.labels()]
    m = LabeledMatrix(labels)
    for i in idx.labels():
        for k in idx.labels():
            m.data[((i, k), (k, i))] = Fraction(1)
    return m


def op_Q(N: int, family: str) -> LabeledMatrix:
    """Q = sum theta_ij E_ij (x) E_{-i,-j}; equals P^{t1} = P^{t2}."""
    if family == SYMPLECTIC and N % 2 == 1:
        raise ValueError("the symplectic family requires even N")
    idx = IndexSet.for_N(N)
    labels = [(i, k) for i in idx.labels() for k in idx.labels()]
    m = LabeledMatrix(labels)
    for i in idx.labels():
        for j in idx.labels():
            m.data[((i, -i), (j, -j))] = Fraction(theta(family, i, j))
    return m
