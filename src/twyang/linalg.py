"""Exact linear algebra over the rationals (and Q(sqrt2)) via row reduction.

Matrices are lists of lists; vectors are lists.  No pivoting heuristics are
needed since the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def kernel_basis(rows):
    """Basis of the right kernel of the matrix (list of column vectors)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly.

    Returns (particular_solution_or_None, kernel_basis).  A None particular
    solution marks an inconsistent system; it is not an error.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None, kernel_basis(rows)
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][-1]
    return x, kernel_basis(rows)


def rank(rows):
    return len(rref(rows)[1])


def intersect_kernels(list_of_matrices, dim):
    """Joint right kernel of a family of matrices acting on a dim-space."""
    stacked = []
    for m in list_of_matrices:
        stacked.extend(list(r) for r in m)
    if not stacked:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    # kernel_basis returns column vectors of the stacked map
    return kernel_basis(stacked)


def left_inverse(basis):
    """A rational r x dim matrix L with L B = I for the independent column
    vectors B = [basis]: the inverse of r independent rows of B, zero elsewhere."""
    r = len(basis)
    rows = rref(basis)[1]  # pivot columns of B^T: rows of B that are independent
    aug = [[basis[k][i] for k in range(r)] + [Fraction(int(t == s)) for t in range(r)]
           for s, i in enumerate(rows)]
    inv = [row[r:] for row in rref(aug)[0]]
    L = [[Fraction(0)] * len(basis[0]) for _ in range(r)]
    for c, i in enumerate(rows):
        for k in range(r):
            L[k][i] = inv[k][c]
    return L


def restrict_operator(op_rows, basis):
    """Matrix of an operator on the span of `basis`, or None if not invariant.

    basis: list of column vectors b_k.  Solves op @ B = B @ X column by
    column; returns X (len(basis) x len(basis)) or None.
    """
    if not basis:
        return []
    dim = len(basis[0])
    bcols = [[basis[k][i] for k in range(len(basis))] for i in range(dim)]  # dim x r
    xcols = []
    for b in basis:
        img = [sum((op_rows[i][j] * b[j] for j in range(dim)), Fraction(0)) for i in range(dim)]
        sol, _ = solve(bcols, img)
        if sol is None:
            return None
        # verify exactly (solve() already guarantees consistency, keep cheap check)
        xcols.append(sol)
    r = len(basis)
    return [[xcols[c][i] for c in range(r)] for i in range(r)]


def char_poly_rational_roots(rows):
    """Rational eigenvalues of a small exact matrix, via the characteristic
    polynomial and rational-root enumeration."""
    from .exact import Poly

    n = len(rows)
    # Leverrier-Faddeev: exact characteristic polynomial coefficients
    a = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    coeffs = [Fraction(1)]  # leading
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = _matmul(a, m)
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] = m[i][i] + c
    p = Poly(list(reversed(coeffs)))
    return rational_roots(p)


def _matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if not x:
                continue
            row = b[t]
            oi = out[i]
            for j in range(m):
                if row[j]:
                    oi[j] = oi[j] + x * row[j]
    return out


def rational_roots(p):
    """All rational roots of a polynomial with rational coefficients."""
    if not p:
        return []
    # clear denominators to integer coefficients
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ic = [int(c * den) for c in p.coeffs]
    while ic and ic[0] == 0:
        ic = ic[1:]
        # u = 0 root handled explicitly
    roots = set()
    if p.eval(Fraction(0)) == 0:
        roots.add(Fraction(0))
    if not ic:
        return sorted(roots)
    a0, an = abs(ic[0]), abs(ic[-1])
    for pnum in _divisors(a0):
        for qden in _divisors(an):
            for cand in (Fraction(pnum, qden), Fraction(-pnum, qden)):
                if p.eval(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
