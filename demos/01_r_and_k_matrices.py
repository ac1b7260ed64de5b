#!/usr/bin/env python3
"""R-matrices, K-matrices and their exact identities.

Builds the rational R-matrix R(u) = I - P/u + Q/(u - kappa), checks the
Yang-Baxter equation and unitarity exactly (as polynomial identities in two
variables, no sampling), and runs the K-matrix suite for a few symmetric
pairs, including a second-kind (u-dependent) one.
"""

from fractions import Fraction

from twyang import (
    check_p_identity,
    check_yang_baxter,
    g_matrix,
    k_one_param,
    op_P,
    op_Q,
    p_scalar,
    pair,
    r_matrix,
    verify_k_matrix,
    verify_r_matrix,
)

# The structural operators.  P = sum E_ik (x) E_ki is the permutation matrix
# of (i, k) -> (k, i), so P^2 = I, and P Q is Q with row (i, k) read at row
# (k, i); for the symplectic Q that is -Q.
P = op_P(4)
Q = op_Q(4, "symplectic")
swap = {c: r for (r, c), v in P.data.items() if v == 1}
print("P^2 = I:", len(swap) == len(P.data) == len(P.labels)
      and all(swap[swap[r]] == r for r in swap))
print("P Q = -Q (symplectic):",
      all(Q[((k, i), c)] == -v for ((i, k), c), v in Q.data.items()))

# Yang-Baxter for the orthogonal so_5 R-matrix (kappa = 3/2).
print()
print(verify_r_matrix(5, "orthogonal"))

# K-matrix suite for a trivial pair, a CI pair and the second-kind BI(a).
for pt in [pair("C0", 4), pair("CI", 4), pair("BIa", 5, 3, 2)]:
    rep = verify_k_matrix(pt)
    print(rep)
    print(f"  p(u) = {p_scalar(g_matrix(pt), pt)}")
    assert check_p_identity(g_matrix(pt), pt).passed

# The one-parameter family G + a/u I of type CI/DIII.
rep = verify_k_matrix(pair("DIII", 4), a=Fraction(3, 7))
print(rep)
