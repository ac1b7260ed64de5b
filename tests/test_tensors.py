import random
from fractions import Fraction

import numpy as np
import pytest

from twyang.rkmat import r_matrix
from twyang.tensors import (
    ORTHOGONAL,
    SYMPLECTIC,
    IndexSet,
    LabeledMatrix,
    op_P,
    op_Q,
    theta,
)
from twyang.verify import _two_leg_basis


def labels_of(N):
    return IndexSet.for_N(N).labels()


def as_matrix(T):
    """A two-leg array in the layout [i, j, k, l] = entry ((i, k), (j, l)) as
    an N^2 x N^2 matrix with rows (i, k) and columns (j, l)."""
    N = len(T)
    return T.transpose(0, 2, 1, 3).reshape(N * N, N * N)


def unit(N, r, c):
    """The N x N matrix unit E_rc, r and c signed labels."""
    pos = {l: k for k, l in enumerate(labels_of(N))}
    E = np.zeros((N, N), dtype=int)
    E[pos[r], pos[c]] = 1
    return E


def place(m, legs, labels):
    """The dense matrix of the two-leg m acting on `legs` (1-based) of
    (C^N)^(x3), the identity on the third leg; rows and columns (a, b, c)."""
    pos = {l: k for k, l in enumerate(labels)}
    N = len(labels)
    (other,) = {1, 2, 3} - set(legs)
    out = np.zeros((N,) * 6, dtype=object)
    for (r, c), v in m.data.items():
        for t in range(N):
            idx = [0] * 6
            for leg, x, y in zip(legs, r, c):
                idx[leg - 1], idx[leg + 2] = pos[x], pos[y]
            idx[other - 1] = idx[other + 2] = t
            out[tuple(idx)] = v
    return out.reshape(N**3, N**3)


def test_index_set_enumeration_order():
    assert labels_of(5) == [-2, -1, 0, 1, 2]
    assert labels_of(4) == [-2, -1, 1, 2]
    assert IndexSet.for_N(5).includes_zero and not IndexSet.for_N(4).includes_zero


def test_theta_conventions():
    assert theta(ORTHOGONAL, -2, 1) == 1
    assert theta(SYMPLECTIC, -2, 1) == -1
    assert theta(SYMPLECTIC, -2, -1) == 1
    assert theta(ORTHOGONAL, 0, 1) == 1  # zero index only in the odd orthogonal case


def test_kron_identity():
    # the two-leg I of the engine is kron(I, I) in the [i, j, k, l] layout
    for N in (2, 3):
        I, _, _ = _two_leg_basis(labels_of(N), ORTHOGONAL)
        assert np.array_equal(as_matrix(I), np.kron(np.eye(N, dtype=int), np.eye(N, dtype=int)))


def test_kron_unit_matrices():
    # E_11 (x) E_22 has its one entry at row (1, 2), column (1, 2)
    labs = labels_of(4)
    pos = {l: k for k, l in enumerate(labs)}
    k = np.kron(unit(4, 1, 1), unit(4, 2, 2)).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
    assert list(zip(*np.nonzero(k))) == [(pos[1], pos[1], pos[2], pos[2])]


def test_kron_gives_swap_matrix():
    # P = sum E_ij x E_ji acts as the swap on basis vectors (enumeration oracle)
    labs = labels_of(2)
    _, P, _ = _two_leg_basis(labs, ORTHOGONAL)
    P = as_matrix(P)
    acc = sum(np.kron(unit(2, i, j), unit(2, j, i)) for i in labs for j in labs)
    assert np.array_equal(P, acc)
    for a in range(2):
        for b in range(2):
            e = np.zeros(4, dtype=int)
            e[2 * a + b] = 1  # e_a x e_b
            assert (P @ e)[2 * b + a] == 1 and (P @ e).sum() == 1


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_p_q_relations(N):
    labs = labels_of(N)
    pos = {l: k for k, l in enumerate(labs)}
    fams = [ORTHOGONAL] if N % 2 else [ORTHOGONAL, SYMPLECTIC]
    for fam in fams:
        I, P, Q = _two_leg_basis(labs, fam)
        # op_P and op_Q are the engine's P and Q, entry by entry
        for T, m in ((P, op_P(N)), (Q, op_Q(N, fam))):
            for i in labs:
                for j in labs:
                    for k in labs:
                        for l in labs:
                            assert m[((i, k), (j, l))] == T[pos[i], pos[j], pos[k], pos[l]]
        I, P, Q = as_matrix(I), as_matrix(P), as_matrix(Q)
        assert np.array_equal(P @ P, I)
        assert np.array_equal(Q @ Q, N * Q)
        sign = 1 if fam == ORTHOGONAL else -1
        assert np.array_equal(P @ Q, sign * Q)
        assert np.array_equal(Q @ P, sign * Q)


def test_q_rejects_odd_symplectic():
    with pytest.raises(ValueError):
        op_Q(3, SYMPLECTIC)


def test_r13_by_swap_conjugation():
    # the dense placement: R13(u0) = S23 R12(u0) S23 with S23 the swap of legs 2, 3
    labs = labels_of(2)
    R = r_matrix(2, "gl")
    s23 = place(op_P(2), (2, 3), labs)
    for u0 in (Fraction(3), Fraction(-5, 2)):
        at = R.map_values(lambda e: e.eval(u0))
        assert np.array_equal(s23 @ place(at, (1, 2), labs) @ s23, place(at, (1, 3), labs))


def test_partial_transpose_p_gives_q():
    for N, fam in [(3, ORTHOGONAL), (2, SYMPLECTIC), (4, SYMPLECTIC), (4, ORTHOGONAL)]:
        P = op_P(N)
        Q = op_Q(N, fam)
        assert P.partial_transpose(1, fam) == Q
        assert P.partial_transpose(2, fam) == Q


def test_partial_transpose_identity():
    labs = labels_of(2)
    II = LabeledMatrix.identity([(i, k) for i in labs for k in labs])
    assert II.partial_transpose(1, ORTHOGONAL) == II


def test_r_matrix_partial_transposes_agree():
    R = r_matrix(3, ORTHOGONAL)
    assert R.partial_transpose(1, ORTHOGONAL) == R.partial_transpose(2, ORTHOGONAL)
    Rgl = r_matrix(3, "gl")
    assert Rgl.partial_transpose(1, ORTHOGONAL) == Rgl.partial_transpose(2, ORTHOGONAL)


def test_partial_transposes_agree_on_q_span():
    # sums c_ij theta_ij E_ij x E_{-i,-j} with c_ij = c_{-j,-i} have t1 = t2
    # (the R-matrix Q-terms all have constant c)
    rng = random.Random(13)
    for fam in (ORTHOGONAL, SYMPLECTIC):
        labs = labels_of(4)
        cs = {}
        for i in labs:
            for j in labs:
                if (i, j) not in cs:
                    c = Fraction(rng.randint(-3, 3))
                    cs[(i, j)] = cs[(-j, -i)] = c
        m = LabeledMatrix([(i, k) for i in labs for k in labs])
        for i in labs:
            for j in labs:
                if cs[(i, j)]:
                    m.data[((i, -i), (j, -j))] = cs[(i, j)] * theta(fam, i, j)
        assert m.partial_transpose(1, fam) == m.partial_transpose(2, fam)
