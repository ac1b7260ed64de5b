"""The one module storage: every kind of module holds its operator matrix in
the canonical cleared form, and the per-entry JSON format round-trips it."""

import json
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from twyang import serialize
from twyang.exact import P_ONE, Poly, RatFunc, poly
from twyang.liealg import so2_char, sp2_module, sp2_on_so3
from twyang.reps import (
    bridge_so3,
    bridge_so4,
    bridge_sp2,
    eval_so3,
    eval_so4,
    eval_sp2,
    olshanskii_eval,
    onedim_module,
    restrict_v_j,
    restrict_v_plus,
    tensor_twisted,
    vector_eval_x,
)
from twyang.rkmat import pair
from twyang.tensors import IndexSet, theta
from twyang.verify import OperatorMatrix


def _tensor():
    return tensor_twisted(vector_eval_x(4, "symplectic", Fraction(1, 3)),
                          onedim_module(pair("C0", 4)))


def _loaded():
    data = json.loads(json.dumps(serialize.module_json(eval_so4("D0", 0, -1))))
    return serialize.module_load(data)


KINDS = {
    "eval-C0": lambda: eval_sp2("C0", -2),
    "eval-CI": lambda: eval_sp2("CI", Fraction(1, 2)),
    "eval-B0": lambda: eval_so3(-1),
    "eval-D0": lambda: eval_so4("D0", 0, -1),
    "eval-DIII": lambda: eval_so4("DIII", 1, 0),
    "onedim": lambda: onedim_module(pair("BIa", 5, 3, 2)),
    "onedim-a": lambda: onedim_module(pair("DIII", 4), a=Fraction(3, 7)),
    "bridge-sp2": lambda: bridge_sp2("CI", olshanskii_eval(1, so2_char(Fraction(1, 2)))),
    "bridge-so3": lambda: bridge_so3(olshanskii_eval(-1, sp2_on_so3(-1))),
    "bridge-so4": lambda: bridge_so4("D0", olshanskii_eval(-1, sp2_module(-1)),
                                     olshanskii_eval(-1, sp2_module(0))),
    "olshanskii": lambda: olshanskii_eval(-1, sp2_on_so3(Fraction(-1, 2))),
    "vector": lambda: vector_eval_x(3, "orthogonal", Fraction(1, 2)),
    "tensor": _tensor,
    "v-plus": lambda: restrict_v_plus(_tensor())[0],
    "v-j": lambda: restrict_v_j(eval_so4("DIII", 1, 0))[0],
    "loaded": _loaded,
}
# module_json writes twisted and X-modules; Olshanskii modules of Y+-(2) and
# the V^J reflection-algebra module have no file kind
JSON_KINDS = [k for k in KINDS if k not in ("olshanskii", "v-j")]


def _same_storage(a, b):
    return (a.den == b.den and a.scale == b.scale and a.blocks.keys() == b.blocks.keys()
            and all(np.array_equal(a.blocks[k], b.blocks[k]) for k in a.blocks))


@pytest.mark.parametrize("build", KINDS.values(), ids=KINDS.keys())
def test_storage_is_canonical(build):
    op = build().op
    assert op.den.lead == 1
    assert type(op.scale) is int and op.scale >= 1
    assert all(type(x) is int for b in op.blocks.values() for x in b.flat)
    assert gcd(op.scale, *(x for b in op.blocks.values() for x in b.flat)) == 1
    g = op.den
    for b in op.blocks.values():
        assert any(b.flat)
        assert len(b) == op.slots
        for r in range(op.dim):
            for c in range(op.dim):
                g = g.gcd(Poly(b[:, r, c]))
    assert g.degree == 0
    assert any(any(b[-1].flat) for b in op.blocks.values())
    assert _same_storage(op.substitute(2, 1).substitute(Fraction(1, 2), Fraction(-1, 2)), op)


def _vector_eval_x_oracle(N, family, a):
    """T(u) = R(u - a) on C^N entry by entry: t_ij = delta_ij - E_ji/(u - a)
    + theta_ij E_{-i,-j}/(u - a - kappa), through `from_terms`."""
    a = Fraction(a)
    kappa = Fraction(N, 2) + (1 if family == "symplectic" else -1)
    labs = IndexSet.for_N(N).labels()
    pos = {l: k for k, l in enumerate(labs)}
    inv1 = RatFunc(P_ONE, poly(-a, 1))
    inv2 = RatFunc(P_ONE, poly(-a - kappa, 1))

    def unit(r, c):
        m = np.zeros((N, N), dtype=object)
        m[pos[r], pos[c]] = Fraction(1)
        return m

    terms = {}
    for i in labs:
        for j in labs:
            terms[(i, j)] = ([(RatFunc.of(1), np.eye(N, dtype=object))] if i == j else []) + [
                (-inv1, unit(j, i)), (theta(family, i, j) * inv2, unit(-i, -j))]
    return OperatorMatrix.from_terms(labs, family, N, terms)


@pytest.mark.parametrize("family,N", [("symplectic", 2), ("symplectic", 4), ("symplectic", 6),
                                      ("orthogonal", 3), ("orthogonal", 4),
                                      ("orthogonal", 5), ("orthogonal", 6)])
def test_vector_module_matches_entrywise_oracle(family, N):
    for a in (0, Fraction(1, 2), -3):
        assert _same_storage(vector_eval_x(N, family, a).op, _vector_eval_x_oracle(N, family, a))


@pytest.mark.parametrize("kind", JSON_KINDS)
def test_module_json_is_a_fixed_point(kind):
    m = KINDS[kind]()
    data = serialize.module_json(m)
    m2 = serialize.module_load(json.loads(json.dumps(data)))
    assert serialize.module_json(m2) == data
    assert m2.op.den == m.op.den and m2.op.blocks.keys() == m.op.blocks.keys()
    for k, b in m.op.blocks.items():
        assert (m2.op.blocks[k] == b).all()
