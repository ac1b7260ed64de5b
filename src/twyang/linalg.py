"""Exact linear algebra over the rationals via row reduction.

Matrices are lists of lists; vectors are lists.  No pivoting heuristics are
needed since the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


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
        inv = Fraction(1) / m[r][c]  # exact for an int pivot too
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
    """All rational roots of a polynomial with rational coefficients, sorted,
    each once (none for a constant or zero polynomial).

    Let f = a u^n + ... + f_0, a > 0, be the primitive integer squarefree
    part of p.  Its rational roots are c/a, where c is an integer root of the
    monic h(v) = a^(n-1) f(v/a), and |c| <= B = 1 + max|h_i| (Cauchy's bound).
    Take the first prime q for which every root of h mod q is simple
    (h'(r) != 0 mod q); every prime not dividing the discriminant of h, which
    is nonzero as h is squarefree, qualifies.  An integer root c of h reduces
    to a simple root of h mod q, so the Hensel lift of c mod q to a root
    mod q^k is unique and equals c mod q^k; with q^k > 2B its symmetric
    residue is c itself.  Lifting every root mod q and checking each residue
    exactly therefore finds all roots and nothing else (p-adic root finding:
    Loos, SIAM J. Comput. 12, 1983).  The cost grows with the degree and the
    number of digits of the coefficients, not with their size.
    """
    from .exact import Poly

    if p.degree < 1:
        return []
    f = (p // p.gcd(Poly([k * c for k, c in enumerate(p.coeffs)][1:]))).monic()
    den = lcm(*[c.denominator for c in f.coeffs])
    f = [int(c * den) for c in f.coeffs]  # primitive: den is the lcm
    n, a = len(f) - 1, f[-1]
    h = [c * a ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    dh = [i * c for i, c in enumerate(h)][1:]
    bound = 1 + max(abs(c) for c in h[:-1])
    for q in _primes():
        residues = [r for r in range(q) if not _horner(h, r, q)]
        if all(_horner(dh, r, q) for r in residues):
            break
    roots = []
    for r in residues:
        m = q
        while m <= 2 * bound:  # Newton: a root mod m is one mod m^2
            m *= m
            r = (r - _horner(h, r, m) * pow(_horner(dh, r, m), -1, m)) % m
        c = r - m if 2 * r > m else r
        if abs(c) <= bound and _horner(h, c) == 0:
            roots.append(Fraction(c, a))
    return sorted(roots)


def _horner(h, x, m=0):
    """h(x) mod m for integers (h(x) itself for m = 0)."""
    acc = 0
    for c in reversed(h):
        acc = (acc * x + c) % m if m else acc * x + c
    return acc


def _primes():
    """2, 3, 5, 7, ... (each tested against the primes found so far)."""
    found, q = [], 2
    while True:
        if all(q % p for p in found if p * p <= q):
            found.append(q)
            yield q
        q += 1
