"""Command-line front end.

    twyang verify rmatrix --family gN --N 4
    twyang verify kmatrix --pair BIa --N 5 --p 3 --q 2
    twyang verify module --in module.json
    twyang classify --in weights.json [--deg-max 16]
    twyang build eval --pair B0 --mu -1 --out m.json
    twyang build onedim --pair CI --N 4 [-a 3/7] --out m.json
    twyang build vector --N 4 --family sp [--a 0] --out x.json
    twyang build tensor --x x.json --v m.json --out t.json
    twyang build restrict --op vplus --in m.json --out r.json

Exit codes: 0 pass, 1 identity failure, 2 config error, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize
from .classify import WeightTuple, classify
from .exact import frac
from .liealg import so2_char, sp2_module, sp2_on_so3
from .reps import (
    TwistedModule,
    XModule,
    bridge_so3,
    bridge_so4,
    bridge_sp2,
    eval_so3,
    eval_so4,
    eval_sp2,
    highest_weight_extract,
    olshanskii_eval,
    onedim_module,
    restrict_v_j,
    restrict_v_plus,
    tensor_twisted,
    vector_eval_x,
    verify_twisted,
    verify_x,
)
from .rkmat import PairType, Report, pair, verify_k_matrix, verify_r_matrix

PASS, FAIL, CONFIG, INCONCLUSIVE_EXIT = 0, 1, 2, 3

_FAMILIES = {"glN": "gl", "gl": "gl", "gN": None, "so": "orthogonal", "sp": "symplectic"}


def _print_report(rep: Report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep.as_dict(), indent=1, default=str))
    else:
        print(rep)
        for name, sub in rep.details.items():
            if isinstance(sub, dict) and "passed" in sub:
                print(f"  [{'PASS' if sub['passed'] else 'FAIL'}] {name}")
            elif sub is not None:
                print(f"  {name} = {sub}")


def _need(args, *names) -> None:
    """A config error (ValueError) naming the first of the options `names`
    (argparse dests) that the command line left out."""
    for name in names:
        if getattr(args, name) is None:
            flag = "--in" if name == "infile" else f"--{name}"
            what = getattr(args, "target", None) or args.kind
            raise ValueError(f"{flag} is required for {args.command} {what}")


def _pair_from_args(args) -> PairType:
    _need(args, "pair", "N")
    return pair(args.pair, args.N, getattr(args, "p", None), getattr(args, "q", None))


def cmd_verify(args) -> int:
    if args.target == "rmatrix":
        _need(args, "N")
        fam = args.family
        if fam in ("gN", None):
            fam = "orthogonal" if args.N % 2 == 1 else args.gN_family or "orthogonal"
        else:
            fam = _FAMILIES.get(fam, fam)
        rep = verify_r_matrix(args.N, fam)
    elif args.target == "kmatrix":
        pt = _pair_from_args(args)
        rep = verify_k_matrix(pt, a=None if args.a is None else frac(args.a))
    elif args.target == "module":
        _need(args, "infile")
        m = serialize.load(args.infile)
        if not isinstance(m, (TwistedModule, XModule)):
            print("input is not a module file", file=sys.stderr)
            return CONFIG
        rep = verify_twisted(m) if isinstance(m, TwistedModule) else verify_x(m)
        if isinstance(m, TwistedModule) and rep.details.get("w") is not None:
            print(f"w(u) = {rep.details['w']}")
    else:
        print(f"unknown verify target {args.target}", file=sys.stderr)
        return CONFIG
    _print_report(rep, args.json)
    return PASS if rep.passed else FAIL


def cmd_classify(args) -> int:
    wt = serialize.load(args.infile)
    if not isinstance(wt, WeightTuple):
        print("input is not a weight file", file=sys.stderr)
        return CONFIG
    verdict = classify(wt, deg_max=args.deg_max)
    print(json.dumps(verdict.as_dict(), indent=1))
    if verdict.finite_dim == "inconclusive":
        return INCONCLUSIVE_EXIT
    return PASS


def _build_eval(args) -> TwistedModule:
    if args.pair in ("C0", "CI") and args.N in (None, 2):
        _need(args, "mu")
        return eval_sp2(args.pair, frac(args.mu))
    if args.pair == "B0" and args.N in (None, 3):
        _need(args, "mu")
        return eval_so3(frac(args.mu))
    if args.pair in ("D0", "DIII") and args.N in (None, 4):
        _need(args, "mu1", "mu2")
        return eval_so4(args.pair, frac(args.mu1), frac(args.mu2))
    raise ValueError("evaluation modules exist for C0/CI (N=2), B0 (N=3), D0/DIII (N=4)")


def cmd_build(args) -> int:
    if args.kind == "eval":
        m = _build_eval(args)
    elif args.kind == "onedim":
        pt = _pair_from_args(args)
        m = onedim_module(pt, a=None if args.a is None else frac(args.a))
    elif args.kind == "vector":
        _need(args, "N", "family")
        fam = _FAMILIES.get(args.family, args.family)
        m = vector_eval_x(args.N, fam, frac(args.a or 0))
    elif args.kind == "tensor":
        _need(args, "x", "v")
        x = serialize.load(args.x)
        v = serialize.load(args.v)
        if not isinstance(x, XModule) or not isinstance(v, TwistedModule):
            print("tensor needs an X-module (--x) and a twisted module (--v)", file=sys.stderr)
            return CONFIG
        m = tensor_twisted(x, v)
    elif args.kind == "bridge":
        variant = args.variant
        if variant == "so3":
            _need(args, "mu")
            m = bridge_so3(olshanskii_eval(-1, sp2_on_so3(frac(args.mu))))
        elif variant in ("C0", "CI"):
            _need(args, "mu")
            lie = sp2_module(frac(args.mu)) if variant == "C0" else so2_char(frac(args.mu))
            m = bridge_sp2(variant, olshanskii_eval(-1 if variant == "C0" else 1, lie))
        elif variant in ("D0", "DIII"):
            _need(args, "mu1", "mu2")
            mu1, mu2 = frac(args.mu1), frac(args.mu2)
            if variant == "DIII":
                m = bridge_so4("DIII", olshanskii_eval(1, so2_char(mu1 + mu2)),
                               olshanskii_eval(-1, sp2_module(mu2 - mu1)))
            else:
                m = bridge_so4("D0", olshanskii_eval(-1, sp2_module(mu1 + mu2)),
                               olshanskii_eval(-1, sp2_module(mu2 - mu1)))
        else:
            print(f"unknown bridge variant {variant}", file=sys.stderr)
            return CONFIG
    elif args.kind == "restrict":
        _need(args, "infile")
        src = serialize.load(args.infile)
        if not isinstance(src, TwistedModule):
            print("restrictions act on twisted module files", file=sys.stderr)
            return CONFIG
        if args.op == "vplus":
            m, rep = restrict_v_plus(src)
        elif args.op == "vj":
            bm, rep = restrict_v_j(src)
            if not rep.passed:
                _print_report(rep, args.json)
                return FAIL
            print(json.dumps({"dim_VJ": bm.dim, "passed": True,
                              "BB_scalar": str(rep.details.get("BB_scalar"))}, indent=1))
            return PASS
        else:
            print(f"unknown restriction {args.op}", file=sys.stderr)
            return CONFIG
        if m is None or not rep.passed:
            _print_report(rep, args.json)
            return FAIL
    else:
        print(f"unknown build kind {args.kind}", file=sys.stderr)
        return CONFIG
    if isinstance(m, TwistedModule):
        rep = verify_twisted(m)
        if not rep.passed:
            _print_report(rep, args.json)
            return FAIL
    if args.out:
        serialize.dump(m, args.out)
        print(f"wrote {args.out} (dim {m.dim})")
    else:
        print(json.dumps(serialize.module_json(m), indent=1))
    return PASS


def cmd_weights(args) -> int:
    m = serialize.load(args.infile)
    if not isinstance(m, TwistedModule):
        print("weights are extracted from twisted modules", file=sys.stderr)
        return CONFIG
    hw = highest_weight_extract(m)
    if not hw.candidates:
        print(json.dumps({"v0_dim": hw.v0_dim, "weights": None}, indent=1))
        return FAIL
    v, w = hw.candidates[0]
    wt = WeightTuple(m.pair, w)
    if args.out:
        serialize.dump(wt, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(serialize.weights_json(wt), indent=1))
    return PASS


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twyang", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run exact identity suites")
    v.add_argument("target", choices=["rmatrix", "kmatrix", "module"])
    v.add_argument("--family", default=None, help="glN | gN | so | sp")
    v.add_argument("--gN-family", default=None, choices=["orthogonal", "symplectic"])
    v.add_argument("--N", type=int, default=None)
    v.add_argument("--pair", default=None)
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--q", type=int, default=None)
    v.add_argument("-a", default=None, help="one-parameter K-matrix value")
    v.add_argument("--in", dest="infile", default=None)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="classify a weight tuple")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--deg-max", type=int, default=16,
                   help="cap on the forced degree of each Drinfeld polynomial "
                   "(a larger one is reported inconclusive); must be >= 0")
    c.set_defaults(func=cmd_classify)

    b = sub.add_parser("build", help="build and serialize modules")
    b.add_argument("kind", choices=["eval", "onedim", "vector", "tensor", "bridge", "restrict"])
    b.add_argument("--variant", default=None,
                   help="bridge variant: so3 | C0 | CI | D0 | DIII")
    b.add_argument("--pair", default=None)
    b.add_argument("--N", type=int, default=None)
    b.add_argument("--p", type=int, default=None)
    b.add_argument("--q", type=int, default=None)
    b.add_argument("--mu", default=None)
    b.add_argument("--mu1", default=None)
    b.add_argument("--mu2", default=None)
    b.add_argument("-a", "--a", dest="a", default=None)
    b.add_argument("--family", default=None)
    b.add_argument("--x", default=None)
    b.add_argument("--v", default=None)
    b.add_argument("--op", default=None, choices=["vplus", "vj"])
    b.add_argument("--in", dest="infile", default=None)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_build)

    w = sub.add_parser("weights", help="extract the highest weight of a module file")
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_weights)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of `main` in a process."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return CONFIG


if __name__ == "__main__":
    sys.exit(main())
