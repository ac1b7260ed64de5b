"""Lossless JSON serialization: rationals as decimal strings like "3/2".

Schemas
-------
module:      {"kind": "twisted"|"x", "pair": {...} | {"N":..,"family":..},
              "dim": d, "entries": {"i,j": [[{"num": [...], "den": [...]}]]}}
weights:     {"pair": {...}, "mu": {"i": {"num": [...], "den": [...]}}}
certificate: {"pair": {...}, "P": [[...]], "gamma": "..."|null}
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .classify import Certificate, WeightTuple
from .exact import Poly, RatFunc, Sqrt2
from .rkmat import PairType
from .reps import OperatorMatrix, TwistedModule, XModule, _rf_zeros
from .tensors import ORTHOGONAL


def _frac_str(x) -> str:
    if isinstance(x, Sqrt2):
        raise ValueError("modules over Q(sqrt2) are not serializable")
    return str(Fraction(x))


def _poly_json(p: Poly):
    return [_frac_str(c) for c in p.coeffs]


def _poly_load(lst) -> Poly:
    return Poly([Fraction(c) for c in lst])


def _rf_json(f: RatFunc):
    return {"num": _poly_json(f.num), "den": _poly_json(f.den)}


def _rf_load(d) -> RatFunc:
    den = _poly_load(d["den"])
    if not den:
        raise ValueError("rational function with zero denominator")
    return RatFunc(_poly_load(d["num"]), den)


def pair_json(pt: PairType):
    out = {"tag": pt.tag, "N": pt.N}
    if pt.p is not None:
        out["p"], out["q"] = pt.p, pt.q
    return out


def pair_load(d) -> PairType:
    return PairType(d["tag"], d["N"], d.get("p"), d.get("q"))


def module_json(m) -> dict:
    if isinstance(m, TwistedModule):
        head = {"kind": "twisted", "pair": pair_json(m.pair)}
        op = m.op
    elif isinstance(m, XModule):
        head = {"kind": "x", "N": m.N, "family": m.family}
        op = m.op
    else:
        raise TypeError(f"cannot serialize {type(m).__name__}")
    entries = {}
    for (i, j), mat in sorted(op.s.items()):
        entries[f"{i},{j}"] = [
            [_rf_json(mat[r, c]) for c in range(op.dim)] for r in range(op.dim)
        ]
    head.update({"dim": op.dim, "provenance": m.provenance, "entries": entries})
    return head


def module_load(d):
    from .reps import TwistedModule, XModule

    dim = d["dim"]
    entries = {}
    for key, rows in d["entries"].items():
        i, j = (int(x) for x in key.split(","))
        mat = _rf_zeros(dim)
        for r in range(dim):
            for c in range(dim):
                mat[r, c] = _rf_load(rows[r][c])
        entries[(i, j)] = mat
    if d["kind"] == "twisted":
        pt = pair_load(d["pair"])
        op = OperatorMatrix(pt.labels(), pt.family, dim, entries)
        return TwistedModule(pt, op, provenance=d.get("provenance", ""))
    if d["kind"] == "x":
        from .tensors import IndexSet

        fam = d["family"]
        labs = IndexSet.for_N(d["N"]).labels()
        op = OperatorMatrix(labs, fam, dim, entries)
        return XModule(d["N"], fam, op, provenance=d.get("provenance", ""))
    raise ValueError(f"unknown module kind {d['kind']!r}")


def weights_json(wt: WeightTuple) -> dict:
    return {
        "pair": pair_json(wt.pair),
        "mu": {str(i): _rf_json(wt.mu[i]) for i in wt.pair.i_range},
    }


def weights_load(d) -> WeightTuple:
    pt = pair_load(d["pair"])
    mu = {int(i): _rf_load(v) for i, v in d["mu"].items()}
    return WeightTuple(pt, mu)


def certificate_json(c: Certificate) -> dict:
    return {
        "pair": pair_json(c.pair),
        "P": [_poly_json(p) for p in c.P],
        "gamma": None if c.gamma is None else _frac_str(c.gamma),
    }


def certificate_load(d) -> Certificate:
    return Certificate(
        pair_load(d["pair"]),
        [_poly_load(p) for p in d["P"]],
        None if d.get("gamma") is None else Fraction(d["gamma"]),
    )


def dump(obj, path) -> None:
    if isinstance(obj, (TwistedModule, XModule)):
        data = module_json(obj)
    elif isinstance(obj, WeightTuple):
        data = weights_json(obj)
    elif isinstance(obj, Certificate):
        data = certificate_json(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    if "entries" in data:
        return module_load(data)
    if "mu" in data:
        return weights_load(data)
    if "P" in data:
        return certificate_load(data)
    raise ValueError("unrecognized file schema")
