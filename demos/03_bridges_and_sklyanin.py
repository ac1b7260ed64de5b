#!/usr/bin/env python3
"""Rank-one bridges: modules of Y+-(2) carried over to the B-C-D world.

The isomorphisms with the rank-one twisted Yangians turn every Y+-(2)
evaluation module into a module of X(sp_2, *)^tw, X(so_3, so_3)^tw or
X(so_4, *)^tw.  This demo checks the so_3 bridge (whose construction runs
through Q(sqrt2) and lands back in Q) against the direct evaluation module,
and evaluates the Sklyanin determinant by its two closed formulas.
"""

from fractions import Fraction

import numpy as np

from twyang import (
    bridge_so3,
    bridge_so4,
    eval_so3,
    eval_so4,
    olshanskii_eval,
    sklyanin_det2,
    so2_char,
    sp2_module,
    sp2_on_so3,
    verify_olshanskii,
)

mu = Fraction(-3, 2)
om = olshanskii_eval(-1, sp2_on_so3(mu))
print("Y-(2) module on the so_3 space, dim", om.dim)
print(verify_olshanskii(om))

sdet, rep = sklyanin_det2(om)
print("sdet S(u) =", sdet)
print(rep)

b = bridge_so3(om)
e = eval_so3(mu)
same = all(
    np.array_equal(b.op.entry(*k), e.op.entry(*k))
    for k in set(b.op.blocks) | set(e.op.blocks)
)
print("bridge equals the so_3 evaluation module entrywise:", same)

# so_4 factorizes as two commuting rank-one pieces
mu1, mu2 = 1, 0
b = bridge_so4(
    "DIII",
    olshanskii_eval(1, so2_char(mu1 + mu2)),
    olshanskii_eval(-1, sp2_module(mu2 - mu1)),
)
e = eval_so4("DIII", mu1, mu2)
same = all(
    np.array_equal(b.op.entry(*k), e.op.entry(*k))
    for k in set(b.op.blocks) | set(e.op.blocks)
)
print("so_4 DIII bridge equals the evaluation module entrywise:", same)
