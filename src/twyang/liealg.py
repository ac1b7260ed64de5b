"""Concrete finite-dimensional modules for the low-rank fixed subalgebras.

Action matrices are numpy object arrays over exact rationals.  The basis
elements are the F_ij = E_ij - theta_ij E_{-j,-i}; each constructor returns
the full dictionary {(i,j): matrix} so that the bracket relations

    [F_ij, F_kl] = d_jk F_il - d_il F_kj + theta_ij d_{j,-l} F_{k,-i}
                 - theta_ij d_{i,-k} F_{-j,l},     F_ij + theta_ij F_{-j,-i} = 0

hold as exact matrix identities.

Weight conventions follow the source material for twisted Yangians: the
highest weight vector is annihilated by every F_ij with i < j, and because
the positive system contains -eps_i, a module is finite-dimensional exactly
when the relevant chain parameters are *nonpositive* (integers for sp_2,
half-integers for so_3, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import frac
from .tensors import theta


def _zeros(d):
    m = np.empty((d, d), dtype=object)
    m[:] = Fraction(0)
    return m


def _eye(d):
    m = _zeros(d)
    for i in range(d):
        m[i, i] = Fraction(1)
    return m


def obj_matrix(rows):
    d = len(rows)
    m = np.empty((d, len(rows[0])), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            m[i, j] = frac(x) if isinstance(x, (int, str)) else x
    return m


def _chain(mu: Fraction, step: int, comm: int):
    """Lowest-weight chain for an sl2-type triple (E raises, F lowers).

    H v_t = (mu + step*t) v_t,  E v_t = v_{t+1},  F v_t = c_t v_{t-1},
    with [E, F] = comm * H and F v_0 = 0.  Finite-dimensional iff
    d = 1 - 2 mu / step is a positive integer.
    """
    mu = frac(mu)
    d2 = 1 - 2 * mu / step
    if d2.denominator != 1 or d2 <= 0:
        raise ValueError(f"weight {mu} does not give a finite-dimensional module")
    d = int(d2)
    H = _zeros(d)
    E = _zeros(d)
    F = _zeros(d)
    for t in range(d):
        H[t, t] = mu + step * t
    for t in range(d - 1):
        E[t + 1, t] = Fraction(1)
    for t in range(1, d):
        F[t - 1, t] = -comm * (t * mu + Fraction(step * t * (t - 1), 2))
    return d, H, E, F


@dataclass
class LieModule:
    """Module data: algebra tag, dimension, F-action matrices, Cartan values."""

    algebra: str
    dim: int
    F: dict  # (i,j) -> d x d numpy object matrix
    weights: dict  # i -> Fraction, value of F_ii on the module's top vector
    family: str  # orthogonal / symplectic theta convention of the ambient g_N

    def fmat(self, i, j):
        m = self.F.get((i, j))
        return m if m is not None else _zeros(self.dim)

    def fprime(self, g_diag):
        """F'_{ij} = (g_ii + g_jj) F_ij for a diagonal G."""
        out = {}
        for (i, j), m in self.F.items():
            c = g_diag[i] + g_diag[j]
            if c:
                out[(i, j)] = m * Fraction(c)
        return out

    def check_brackets(self):
        """Bracket and antisymmetry relations over the represented generators."""
        keys = sorted(self.F)
        for i, j in keys:
            th = theta(self.family, i, j)
            if not np.array_equal(self.fmat(i, j) + th * self.fmat(-j, -i), _zeros(self.dim)):
                return False
            for k, l in keys:
                lhs = self.fmat(i, j) @ self.fmat(k, l) - self.fmat(k, l) @ self.fmat(i, j)
                rhs = _zeros(self.dim)
                if j == k:
                    rhs = rhs + self.fmat(i, l)
                if i == l:
                    rhs = rhs - self.fmat(k, j)
                if j == -l:
                    rhs = rhs + th * self.fmat(k, -i)
                if i == -k:
                    rhs = rhs - th * self.fmat(-j, l)
                if not np.array_equal(lhs, rhs):
                    return False
        return True


def sp2_module(mu) -> LieModule:
    """sp_2 module with F_11-value mu on the vector killed by F_{-1,1}.

    Finite-dimensional iff mu is a nonpositive integer; dim = 1 - mu.
    """
    d, H, E, F = _chain(mu, 2, 4)  # [F_{1,-1}, F_{-1,1}] = 4 F_11
    Fm = {
        (1, 1): H,
        (-1, -1): -H,
        (1, -1): E,
        (-1, 1): F,
    }
    return LieModule("sp2", d, Fm, {1: frac(mu)}, "symplectic")


def gl1_module(mu) -> LieModule:
    """One-dimensional gl_1 module (the CI fixed subalgebra); any rational mu."""
    one = obj_matrix([[frac(mu)]])
    Fm = {(1, 1): one, (-1, -1): -one}
    return LieModule("gl1", 1, Fm, {1: frac(mu)}, "symplectic")


def so3_module(mu) -> LieModule:
    """so_3 module with F_11-value mu on the vector killed by F_01.

    Finite-dimensional iff 2*mu is a nonpositive integer; dim = 1 - 2 mu.
    """
    d, H, E, F = _chain(mu, 1, 1)  # [F_10, F_01] = F_11
    Fm = {
        (1, 1): H,
        (-1, -1): -H,
        (1, 0): E,
        (0, -1): -E,
        (0, 1): F,
        (-1, 0): -F,
    }
    return LieModule("so3", d, Fm, {0: Fraction(0), 1: frac(mu)}, "orthogonal")


def so4_module(mu1, mu2) -> LieModule:
    """so_4 module with (F_11, F_22)-values (mu1, mu2) on its top vector.

    Built from two commuting sp_2-type triples; finite-dimensional iff
    mu1 - mu2 and -(mu1 + mu2) are nonnegative integers.
    """
    mu1, mu2 = frac(mu1), frac(mu2)
    da, Ha, Ea, Fa = _chain(mu1 + mu2, 2, 4)  # circle copy: F_11 + F_22 grading
    db, Hb, Eb, Fb = _chain(mu2 - mu1, 2, 4)  # bullet copy: F_22 - F_11 grading
    Ia, Ib = _eye(da), _eye(db)
    Ho, Eo, Fo = np.kron(Ha, Ib), np.kron(Ea, Ib), np.kron(Fa, Ib)
    Hu, Eu, Fu = np.kron(Ia, Hb), np.kron(Ia, Eb), np.kron(Ia, Fb)
    half = Fraction(1, 2)
    F11 = (Ho - Hu) * half
    F22 = (Ho + Hu) * half
    F12 = -half * Fu  # F_12 = -F*_{-1,1}/2
    F21 = -half * Eu
    Fm21 = half * Fo  # F_{-2,1} = Fcirc_{-1,1}/2
    F1m2 = half * Eo
    Fm = {
        (1, 1): F11,
        (2, 2): F22,
        (-1, -1): -F11,
        (-2, -2): -F22,
        (1, 2): F12,
        (2, 1): F21,
        (-2, -1): -F12,
        (-1, -2): -F21,
        (-2, 1): Fm21,
        (-1, 2): -Fm21,
        (1, -2): F1m2,
        (2, -1): -F1m2,
    }
    return LieModule("so4", da * db, Fm, {1: mu1, 2: mu2}, "orthogonal")


def gl2_module(mu1, mu2) -> LieModule:
    """gl_2 module with (F_11, F_22)-values (mu1, mu2) on its top vector.

    Finite-dimensional iff mu1 - mu2 is a nonnegative integer (mu1 + mu2 is
    a free central value); dim = mu1 - mu2 + 1.
    """
    mu1, mu2 = frac(mu1), frac(mu2)
    d, Hb, Eb, Fb = _chain(mu2 - mu1, 2, 4)
    c = mu1 + mu2
    I = _eye(d)
    half = Fraction(1, 2)
    F11 = (c * I - Hb) * half
    F22 = (c * I + Hb) * half
    F12 = -half * Fb
    F21 = -half * Eb
    Fm = {
        (1, 1): F11,
        (2, 2): F22,
        (-1, -1): -F11,
        (-2, -2): -F22,
        (1, 2): F12,
        (2, 1): F21,
        (-2, -1): -F12,
        (-1, -2): -F21,
    }
    return LieModule("gl2", d, Fm, {1: mu1, 2: mu2}, "orthogonal")


def so2_char(c) -> LieModule:
    """One-dimensional so_2 module, F_11 acting by the scalar c."""
    m = obj_matrix([[frac(c)]])
    return LieModule("so2", 1, {(1, 1): m, (-1, -1): -m}, {1: frac(c)}, "orthogonal")


def sp2_on_so3(mu) -> LieModule:
    """The sp_2-action on the so_3 module V(mu) transported through the
    isomorphism sp_2 -> so_3:

        F_11 -> 2 F_11,  F_{-1,1} -> -4 F_{-1,0},  F_{1,-1} -> -2 F_{0,-1},

    so [F_{1,-1}, F_{-1,1}] = 8 [F_{0,-1}, F_{-1,0}] = 4 (2 F_11).  This is the
    orthonormal-basis action (factors 2 sqrt2) after a diagonal rescaling of
    the weight basis by powers of sqrt2, so its entries are rational."""
    base = so3_module(mu)
    F11 = 2 * base.fmat(1, 1)
    F = {
        (1, 1): F11,
        (-1, -1): -F11,
        (-1, 1): -4 * base.fmat(-1, 0),
        (1, -1): -2 * base.fmat(0, -1),
    }
    return LieModule("sp2-on-so3", base.dim, F, {1: 2 * frac(mu)}, "symplectic")


# ---------------------------------------------------------------------------
# Casimir operators
# ---------------------------------------------------------------------------


def casimir_so3(m: LieModule):
    """Omega = F_11^2 - F_11 + 2 F_10 F_01."""
    F11, F10, F01 = m.fmat(1, 1), m.fmat(1, 0), m.fmat(0, 1)
    return F11 @ F11 - F11 + 2 * (F10 @ F01)


def casimir_so4(m: LieModule):
    """Omega = F_11^2 + F_22^2 - 2F_22 + 2 F_21 F_12 + 2 F_{2,-1} F_{-1,2}."""
    F11, F22 = m.fmat(1, 1), m.fmat(2, 2)
    return (
        F11 @ F11
        + F22 @ F22
        - 2 * F22
        + 2 * (m.fmat(2, 1) @ m.fmat(1, 2))
        + 2 * (m.fmat(2, -1) @ m.fmat(-1, 2))
    )


def casimir_z_gl2(m: LieModule):
    """z = F_11^2 + F_22^2 + F_12 F_21 + F_21 F_12."""
    F11, F22, F12, F21 = m.fmat(1, 1), m.fmat(2, 2), m.fmat(1, 2), m.fmat(2, 1)
    return F11 @ F11 + F22 @ F22 + F12 @ F21 + F21 @ F12
