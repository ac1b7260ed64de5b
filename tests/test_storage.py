"""The one module storage: every kind of module holds its operator matrix in
the canonical cleared form, and the per-entry JSON format round-trips it."""

import json
from fractions import Fraction

import pytest

from twyang import serialize
from twyang.exact import Poly
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


@pytest.mark.parametrize("build", KINDS.values(), ids=KINDS.keys())
def test_storage_is_canonical(build):
    op = build().op
    assert op.den.lead == 1
    g = op.den
    for b in op.blocks.values():
        assert any(b.flat)
        assert len(b) == op.slots
        for r in range(op.dim):
            for c in range(op.dim):
                g = g.gcd(Poly(b[:, r, c]))
    assert g.degree == 0
    assert any(any(b[-1].flat) for b in op.blocks.values())


@pytest.mark.parametrize("kind", JSON_KINDS)
def test_module_json_is_a_fixed_point(kind):
    m = KINDS[kind]()
    data = serialize.module_json(m)
    m2 = serialize.module_load(json.loads(json.dumps(data)))
    assert serialize.module_json(m2) == data
    assert m2.op.den == m.op.den and m2.op.blocks.keys() == m.op.blocks.keys()
    for k, b in m.op.blocks.items():
        assert (m2.op.blocks[k] == b).all()
