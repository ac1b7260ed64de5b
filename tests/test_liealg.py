from fractions import Fraction

import numpy as np
import pytest

from twyang.liealg import (
    casimir_so3,
    casimir_so4,
    casimir_z_gl2,
    gl1_module,
    gl2_module,
    so2_char,
    so3_module,
    so4_module,
    sp2_module,
    sp2_on_so3,
)
from twyang.linalg import intersect_kernels


def test_sp2_trivial():
    m = sp2_module(0)
    assert m.dim == 1
    assert all(not x for x in m.fmat(1, -1).flat)


def test_sp2_bracket_table():
    # d = 2 module: [F_{1,-1}, F_{-1,1}] = 4 F_11 exactly
    m = sp2_module(-1)
    assert m.dim == 2
    lhs = m.fmat(1, -1) @ m.fmat(-1, 1) - m.fmat(-1, 1) @ m.fmat(1, -1)
    assert np.array_equal(lhs, 4 * m.fmat(1, 1))
    assert m.check_brackets()


def test_sp2_rejects_bad_weights():
    with pytest.raises(ValueError):
        sp2_module(1)  # chains terminate only for nonpositive integers
    with pytest.raises(ValueError):
        sp2_module(Fraction(-1, 2))


def test_so3_admissible_lattice():
    for mu, d in [(0, 1), (Fraction(-1, 2), 2), (-1, 3), (Fraction(-3, 2), 4)]:
        m = so3_module(mu)
        assert m.dim == d and m.check_brackets()
    with pytest.raises(ValueError):
        so3_module(Fraction(1, 2))


def test_so4_dimensions_and_brackets():
    for (mu1, mu2), d in [((0, 0), 1), ((0, -1), 4), ((-1, -1), 3),
                          ((Fraction(-1, 2), Fraction(-3, 2)), 6)]:
        m = so4_module(mu1, mu2)
        assert m.dim == d and m.check_brackets()
    with pytest.raises(ValueError):
        so4_module(0, 1)


def test_gl2_center_is_free():
    m = gl2_module(Fraction(5, 7), Fraction(5, 7) - 2)
    assert m.dim == 3 and m.check_brackets()


def test_antisymmetry_f_plus_theta_f():
    m = so4_module(0, -1)
    for (i, j), mat in m.F.items():
        assert np.array_equal(mat, -m.fmat(-j, -i))  # theta = 1 orthogonal


def test_highest_weight_vector_eigenvalues():
    m = so4_module(Fraction(-1, 2), Fraction(-3, 2))
    ups = [m.F[(i, j)].tolist() for (i, j) in m.F if i < j]
    ker = intersect_kernels(ups, m.dim)
    assert len(ker) == 1
    v = ker[0]
    idx = next(i for i, x in enumerate(v) if x)
    for lab, expect in [(1, Fraction(-1, 2)), (2, Fraction(-3, 2))]:
        fm = m.fmat(lab, lab).tolist()
        ev = [sum(fm[r][c] * v[c] for c in range(m.dim)) for r in range(m.dim)]
        assert ev[idx] / v[idx] == expect


def test_casimir_scalars():
    # so3: Omega acts as mu^2 - mu
    for mu in [0, -1, Fraction(-3, 2)]:
        m = so3_module(mu)
        om = casimir_so3(m)
        val = Fraction(mu) ** 2 - Fraction(mu)
        assert all(om[i, i] == val for i in range(m.dim))
        assert all(om[i, j] == 0 for i in range(m.dim) for j in range(m.dim) if i != j)
    # so4: Omega acts as mu1^2 + mu2^2 - 2 mu2
    m = so4_module(0, -1)
    om = casimir_so4(m)
    assert all(om[i, i] == Fraction(3) for i in range(m.dim))
    # gl2: z acts as mu1^2 + mu2^2 + mu1 - mu2
    m = gl2_module(1, 0)
    z = casimir_z_gl2(m)
    assert all(z[i, i] == Fraction(2) for i in range(m.dim))


def test_sp2_on_so3_brackets():
    # transported action satisfies [F_{1,-1}, F_{-1,1}] = 4 F_11 over Q
    m = sp2_on_so3(-1)
    lhs = m.F[(1, -1)] @ m.F[(-1, 1)] - m.F[(-1, 1)] @ m.F[(1, -1)]
    assert np.array_equal(lhs, 4 * m.F[(1, 1)])
    assert all(type(x) is Fraction for f in m.F.values() for x in f.flat)
    assert m.check_brackets()


def test_gl1_and_so2_characters():
    assert gl1_module(Fraction(3, 7)).dim == 1
    assert so2_char(Fraction(-2, 5)).F[(1, 1)][0, 0] == Fraction(-2, 5)
