"""The benchmark's four seeded workloads.

A workload is a list of chains of ``Item``s, built from a seed before any
timing.  Each item is one in-process call, either ``twyang.cli.main(argv)`` or a public
library function for inputs the CLI cannot express, and carries its known
answer.  Negative controls also carry the rule that makes their answer known.

``twyang`` receives only the generated inputs (argument lists and files);
the seed never reaches it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE = 0, 1, 3

RULES = {
    "ybe-kappa-shift": (
        "1 - P/u + Q/(u - k') satisfies the Yang-Baxter equation only for "
        "k' = N/2 -+ 1, so a shifted k' must fail with a witness"),
    "k-diagonal-perturbation": (
        "for a constant K the u^-1 term of the reflection equation is "
        "(K2^2 - K1^2)P plus four rank-one Q terms; G + c E_aa with "
        "c not in {0, -2 g_aa} has K^2 non-scalar, a rank 2(N-1) > 4 term for N >= 4"),
    "module-constant-perturbation": (
        "the symmetry relation is linear in S; adding a constant d != 0 to one "
        "entry of s_ij with i != -j shifts its (i,j) equation by +-d at u -> oo"),
    "tilde-product": (
        "D0 N=4 with mu_1 = (u+b)/u, mu_2 = 1: u(1-u) tmu_1(u) tmu_1(1-u) is "
        "-b(b+2) at u = 0, where u(1-u) tmu_2(u) tmu_2(1-u) vanishes, so the "
        "weight is trivial for b not in {0, -2}"),
    "irrational-gamma": (
        "CI N=2 with mu_1 = (u^2+2)/u^2: the ratio's numerator has no rational "
        "root, so no rational gamma exists and the honest verdict is inconclusive"),
}


@dataclass
class Item:
    label: str
    call: Callable[[], Any]          # the timed call; returns the raw outcome
    check: Callable[[Any], bool]     # known answer
    decided: Callable[[Any], bool]   # False for an honest "inconclusive"
    rule: str = ""                   # key into RULES for negative controls


# ---------------------------------------------------------------------------
# item constructors
# ---------------------------------------------------------------------------


def _run_cli(tw, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = tw.cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code if isinstance(e.code, int) else 2
    return code, buf.getvalue()


def _subset(expect, got) -> bool:
    if isinstance(expect, dict):
        return isinstance(got, dict) and all(
            k in got and _subset(v, got[k]) for k, v in expect.items())
    return expect == got


def cli_item(tw, label, argv, code=EXIT_PASS, verdict=None, rule=""):
    """A CLI call whose known answer is its exit code and, for `classify`,
    the printed verdict (a subset of its JSON)."""

    def check(out):
        got_code, text = out
        if got_code != code:
            return False
        if verdict is None:
            return True
        try:
            return _subset(verdict, json.loads(text))
        except ValueError:
            return False

    return Item(label, lambda: _run_cli(tw, argv), check,
                lambda out: out[0] != EXIT_INCONCLUSIVE, rule)


def failing_report_item(label, call, rule):
    """A library identity check whose known answer is FAIL with a witness."""
    return Item(label, call, lambda rep: not rep.passed and bool(rep.witnesses),
                lambda rep: True, rule)


def _q(rng, lo, hi, dens=(1, 2, 3)):
    """A random nonzero rational p/q with lo <= p <= hi."""
    while True:
        x = Fraction(rng.randint(lo, hi), rng.choice(dens))
        if x:
            return x


def _arg(flag, x):
    # "--mu=-1/2": argparse would read a bare "-1/2" as an option
    return f"{flag}={x}"


def _pair_args(pt):
    out = ["--pair", pt.tag, "--N", str(pt.N)]
    if pt.p is not None:
        out += ["--p", str(pt.p), "--q", str(pt.q)]
    return out


# ---------------------------------------------------------------------------
# identities: R-matrix and K-matrix identity suites, one-parameter family,
# failing controls
# ---------------------------------------------------------------------------


def identities(tw, rng, work):
    items = []
    for fam, Ns in (("glN", range(2, 7)), ("so", range(3, 7)), ("sp", (2, 4, 6))):
        for N in Ns:
            items.append(cli_item(tw, f"verify rmatrix {fam} N={N}",
                                  ["verify", "rmatrix", "--family", fam, "--N", str(N)]))
    for pt in tw.rkmat.all_supported_pairs(6):
        items.append(cli_item(tw, f"verify kmatrix {pt}",
                              ["verify", "kmatrix", *_pair_args(pt)]))
    for tag, N in (("CI", 2), ("CI", 4), ("CI", 6), ("DIII", 4), ("DIII", 6)):
        for _ in range(2):
            a = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            items.append(cli_item(tw, f"verify kmatrix {tag} N={N} a={a}",
                                  ["verify", "kmatrix", "--pair", tag, "--N", str(N),
                                   _arg("-a", a)]))
    # R-matrix with kappa shifted (criterion 9 uses +1 on so_3)
    exact, tensors, rkmat = tw.exact, tw.tensors, tw.rkmat
    for fam, N in ((tensors.ORTHOGONAL, 3), (tensors.SYMPLECTIC, 4)):
        shift = rng.choice((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3, 2)))
        kappa = Fraction(N, 2) + (1 if fam == tensors.SYMPLECTIC else -1) + shift
        one_leg = tensors.IndexSet.for_N(N).labels()
        labels = [(i, k) for i in one_leg for k in one_leg]
        R = tensors.LabeledMatrix.identity(labels, exact.RatFunc.of(1))
        inv_u = exact.RatFunc(exact.P_ONE, exact.poly(0, 1))
        inv_uk = exact.RatFunc(exact.P_ONE, exact.poly(-kappa, 1))
        R = R + tensors.op_P(N).map_values(lambda v: -v * inv_u)
        R = R + tensors.op_Q(N, fam).map_values(lambda v, w=inv_uk: v * w)
        items.append(failing_report_item(
            f"YBE {fam} N={N} kappa'={kappa}",
            lambda R=R: tw.rkmat.check_yang_baxter(R), "ybe-kappa-shift"))
    # constant K-matrix with one diagonal entry perturbed
    for tag in ("D0", "CI"):
        pt = rkmat.pair(tag, 4)
        K = rkmat.g_matrix(pt)
        a = rng.choice(pt.labels())
        g = pt.g_diagonal()[a]
        c = _q(rng, -5, 5)
        while c == -2 * g:
            c = _q(rng, -5, 5)
        K.data[((a,), (a,))] = K.data[((a,), (a,))] + exact.RatFunc.of(c)
        R = rkmat.r_matrix_for_pair(pt)
        items.append(failing_report_item(
            f"RE {pt} K_{a}{a} += {c}",
            lambda R=R, K=K: tw.rkmat.check_reflection(R, K), "k-diagonal-perturbation"))
    return [[item] for item in items]


# ---------------------------------------------------------------------------
# modules: build -> verify module -> weights -> classify on the criterion-4 grid
# ---------------------------------------------------------------------------


def _prod_roots(exact, groups):
    """Monic polynomial whose roots are those of all the groups, or 1."""
    roots = [r for group in groups for r in group]
    return exact.Poly.from_roots(roots) if roots else exact.P_ONE


def _cert(exact, P, gamma=None):
    return {"finite_dim": "yes",
            "certificate": {"P": [str(p) for p in P],
                            "gamma": None if gamma is None else str(gamma)}}


def _module_grid(tw, rng):
    """(label, build argv, expected classify verdict) for each module.

    The expected certificates are closed forms: root pairs r, c - r around
    each reflection center c.  They were derived for this grid and match
    ``classify`` exactly."""
    ex = tw.exact
    F = Fraction
    grid = []
    for k in range(4):  # C0 sp_2, mu = -k, dim k+1
        P1 = _prod_roots(ex, [(-2 * j, 4 + 2 * j) for j in range(k)])
        grid.append((f"C0 mu={-k}", ["eval", "--pair", "C0", _arg("--mu", -k)], _cert(ex, [P1])))
    for _ in range(4):  # CI gl_1, dim 1, seeded mu
        mu = _q(rng, -9, 9, (1, 2, 3, 7))
        grid.append((f"CI mu={mu}", ["eval", "--pair", "CI", _arg("--mu", mu)],
                     _cert(ex, [ex.P_ONE], 2 * mu + 2)))
    for k in range(2):  # B0 so_3, mu = -k/2, dim k+1
        P1 = _prod_roots(ex, [(F(1, 4) - F(j, 2), F(5, 4) + F(j, 2)) for j in range(k)])
        grid.append((f"B0 mu={F(-k, 2)}", ["eval", "--pair", "B0", _arg("--mu", F(-k, 2))],
                     _cert(ex, [P1])))
    for k in range(3):  # D0 so_4, mu1 = mu2 = -k/2
        P1 = _prod_roots(ex, [(F(-j), F(2 + j)) for j in range(k)])
        mu = F(-k, 2)
        grid.append((f"D0 mu=({mu},{mu})",
                     ["eval", "--pair", "D0", _arg("--mu1", mu), _arg("--mu2", mu)],
                     _cert(ex, [P1, ex.P_ONE])))
    for mu1, mu2 in ((F(0), F(0)), (F(1), F(0)), (F(1, 2), F(-1, 2)), (F(-1), F(-2))):
        P2 = _prod_roots(ex, [(F(-j), F(2 + j)) for j in range(int(mu1 - mu2))])
        grid.append((f"DIII mu=({mu1},{mu2})",
                     ["eval", "--pair", "DIII", _arg("--mu1", mu1), _arg("--mu2", mu2)],
                     _cert(ex, [ex.P_ONE, P2], mu1 + mu2 + 1)))
    rk = tw.rkmat
    for pt in (rk.pair("B0", 3), rk.pair("C0", 2), rk.pair("D0", 4), rk.pair("CI", 2),
               rk.pair("DIII", 4), rk.pair("BIa", 5, 3, 2), rk.pair("BIb", 3, 2, 1),
               rk.pair("CII", 4, 2, 2), rk.pair("DIa", 4, 2, 2)):
        argv = ["onedim", *_pair_args(pt)]
        if pt.tag in ("CI", "DIII"):  # V(a): P = 1, gamma = a + kappa
            a = _q(rng, -9, 9, (1, 2, 3, 7))
            argv.append(_arg("--a", a))
            expect = _cert(ex, [ex.P_ONE] * pt.n, a + pt.kappa)
        elif pt.tag in ("B0", "C0", "D0"):
            expect = _cert(ex, [ex.P_ONE] * pt.n)
        else:
            expect = {"finite_dim": "necessary-conditions-only",
                      "necessary_conditions_pass": True}
        grid.append((f"onedim {pt}", argv, expect))
    return grid


def _perturbed_module(tw, rng, module, path):
    """Write `module` with a constant added to one entry of some s_ij, i != -j."""
    data = tw.serialize.module_json(module)
    keys = sorted(k for k in data["entries"]
                  if int(k.split(",")[0]) != -int(k.split(",")[1]))
    key = rng.choice(keys)
    dim = data["dim"]
    r, c = rng.randrange(dim), rng.randrange(dim)
    cell = data["entries"][key][r][c]
    d = _q(rng, -7, 7)
    num = [Fraction(x) for x in cell["num"]]
    den = [Fraction(x) for x in cell["den"]]
    num += [Fraction(0)] * (len(den) - len(num))
    for k, x in enumerate(den):
        num[k] += d * x
    cell["num"] = [str(x) for x in num]
    with open(path, "w") as fh:
        json.dump(data, fh)
    return f"s_{key}[{r},{c}] += {d}"


def modules(tw, rng, work):
    chains = []
    for k, (label, build, verdict) in enumerate(_module_grid(tw, rng)):
        m = os.path.join(work, f"m{k}.json")
        w = os.path.join(work, f"w{k}.json")
        chains.append([
            cli_item(tw, f"build {label}", ["build", *build, "--out", m]),
            cli_item(tw, f"verify module {label}", ["verify", "module", "--in", m]),
            cli_item(tw, f"weights {label}", ["weights", "--in", m, "--out", w]),
            cli_item(tw, f"classify {label}", ["classify", "--in", w], verdict=verdict),
        ])
    reps = tw.reps
    for k, module in enumerate((reps.eval_sp2("C0", -1), reps.eval_so3(Fraction(-1, 2)),
                                reps.eval_so4("DIII", Fraction(1, 2), Fraction(-1, 2)))):
        path = os.path.join(work, f"p{k}.json")
        what = _perturbed_module(tw, rng, module, path)
        chains.append([cli_item(tw, f"verify module {module.provenance} {what}",
                                ["verify", "module", "--in", path], code=EXIT_FAIL,
                                rule="module-constant-perturbation")])
    return chains


# ---------------------------------------------------------------------------
# tensor: vector (x) one-dimensional, then the V+ / V^J restrictions
# ---------------------------------------------------------------------------

# (pair tag, N, family, restrictions, known certificate roots).  N = 3 is the
# largest N whose chain can run several times in one run: the N = 3 tensor
# build takes about 5 s, the N = 4 one (C0) 15-22 s and N = 6 minutes.  The
# certificate of vector(a=0) (x) V(a) has P_i with the listed roots and, for
# CI/DIII, gamma = a + kappa as for V(a) alone.  CI N=2 repeats with four
# seeded a: with 29 items the median falls on the four unseeded CI vector
# builds and the tail item on V+, rather than between two kinds of item.
_H = Fraction(1, 2)
TENSOR_CASES = (
    *[("CI", 2, "sp", (), [(1, 3)])] * 4,
    ("B0", 3, "so", ("vj",), [(_H / 2, 5 * _H / 2, 3 * _H / 2, 3 * _H / 2)]),
)
# V+ needs N >= 4 (it drops to N - 2), so it runs on the one-dimensional
# C0 N=4 module rather than on an N = 4 tensor.
RESTRICT_PAIR = ("C0", 4)


def tensor(tw, rng, work):
    chains = []
    for k, (tag, N, fam, ops, roots) in enumerate(TENSOR_CASES):
        x, v, t, w = (os.path.join(work, f"{s}{k}.json") for s in "xvtw")
        onedim = ["build", "onedim", "--pair", tag, "--N", str(N), "--out", v]
        name, gamma = f"{tag} N={N}", None
        if tag in ("CI", "DIII"):  # gamma = a + kappa above the roots of P_1
            a = Fraction(rng.randint(3, 14), 2)
            onedim.append(_arg("--a", a))
            name, gamma = f"{name} a={a}", a + tw.rkmat.pair(tag, N).kappa
        P = [_prod_roots(tw.exact, [r]) for r in roots]
        chain = [
            cli_item(tw, f"build vector {fam} N={N}",
                     ["build", "vector", "--N", str(N), "--family", fam, "--out", x]),
            cli_item(tw, f"build onedim {name}", onedim),
            cli_item(tw, f"build tensor {name}",
                     ["build", "tensor", "--x", x, "--v", v, "--out", t]),
            cli_item(tw, f"weights tensor {name}", ["weights", "--in", t, "--out", w]),
            cli_item(tw, f"classify tensor {name}", ["classify", "--in", w],
                     verdict=_cert(tw.exact, P, gamma)),
        ]
        for op in ops:
            argv = ["build", "restrict", "--op", op, "--in", t]
            if op == "vplus":
                argv += ["--out", os.path.join(work, f"r{k}.json")]
            chain.append(cli_item(tw, f"restrict {op} {name}", argv))
        chains.append(chain)
    tag, N = RESTRICT_PAIR
    v = os.path.join(work, "restrict.json")
    chains.append([
        cli_item(tw, f"build onedim {tag} N={N}",
                 ["build", "onedim", "--pair", tag, "--N", str(N), "--out", v]),
        cli_item(tw, f"restrict vplus {tag} N={N}",
                 ["build", "restrict", "--op", "vplus", "--in", v,
                  "--out", os.path.join(work, "vplus.json")]),
        cli_item(tw, f"restrict vj {tag} N={N}", ["build", "restrict", "--op", "vj", "--in", v]),
    ])
    return chains


# ---------------------------------------------------------------------------
# classify: certificate round trips, trivial weights, one honest inconclusive
# ---------------------------------------------------------------------------

ROUND_TRIP_PAIRS = (("C0", 2), ("C0", 4), ("C0", 6), ("B0", 3), ("B0", 5), ("D0", 4),
                    ("D0", 6), ("CI", 2), ("CI", 4), ("CI", 6), ("DIII", 4), ("DIII", 6))


LARGE_HEIGHT = (("CI", 2, [Fraction(997), Fraction(-983)], Fraction(1)),
                ("DIII", 4, [Fraction(991), Fraction(-977)], Fraction(1, 2)))


def _center(cl, pt, i):
    """Reflection center c_i of P_i: P_i(u) = P_i(-u + c_i)."""
    return cl.p1_symmetry_center(pt) if i == 1 else Fraction(pt.n - i + 2)


def _round_trip(tw, pt, qroots, gamma):
    """Certificate and weight tuple built from the Q_i (criterion 8)."""
    cl, ex = tw.classify_mod, tw.exact
    n = pt.n
    Q = [_prod_roots(ex, [r]) for r in qroots]
    P = []
    for i in range(1, n + 1):
        c = _center(cl, pt, i)
        P.append(Q[i - 1] * Q[i - 1].compose_affine(-1, c) * Fraction((-1) ** Q[i - 1].degree))
    cert = cl.Certificate(pt, P, gamma)
    return cert, cl.construct_from_cert(cert, Q)


def _seeded_round_trip(tw, rng, pt, deg2, gamma_side):
    """(label, weight tuple, expected verdict) of a round trip with seeded
    roots: Q_1 of degree 1, Q_2 of degree `deg2`, the rest constant."""
    cl = tw.classify_mod
    ci_diii = pt.tag in ("CI", "DIII")
    degs = [1] + [deg2] + [0] * (pt.n - 2) if pt.n > 1 else [1]
    while True:
        qroots = [[Fraction(rng.randint(-6, 6), 2) for _ in range(d)] for d in degs]
        if not ci_diii:
            gamma = None
            break
        # generic roots: a repeated root of the P_i, or a root of Q_1 at
        # kappa, kappa/2 or 3 kappa/2, merges candidates and would change
        # the amount of search from seed to seed
        roots = [x for i, q in enumerate(qroots, start=1) for r in q
                 for x in (r, _center(cl, pt, i) - r)]
        ka = pt.kappa
        if (len(set(roots)) == len(roots)
                and not {ka, ka / 2, 3 * ka / 2} & set(qroots[0])):
            B = max(abs(r) for r in roots) + 2 * ka + 2
            gamma = gamma_side * (B + Fraction(rng.randint(1, 6), 2))
            break
    cert, wt = _round_trip(tw, pt, qroots, gamma)
    return (f"round trip {pt} Q={qroots} gamma={gamma}", wt,
            _cert(tw.exact, cert.P, gamma))


def classify(tw, rng, work):
    cl, ex, rk = tw.classify_mod, tw.exact, tw.rkmat
    inputs = []  # (label, weight tuple, expected verdict)
    # Round trips with a fixed degree profile per pair, so that every seed
    # asks for the same amount of search.  For CI/DIII, classify tries the gamma
    # candidates (the ratio's rational roots, all within B of 0) in
    # increasing order, and each wrong one costs a search up to deg_max.
    # Placing gamma below every candidate gives the fast path, above every
    # candidate the exhaustive one; both are kept, in fixed proportions.
    # Every case comes several times with different roots, fast-path cases
    # four times and exhaustive ones twice: the median item is a fast one
    # and the tail item an exhaustive one, and the more of each kind a seed
    # draws, the less those two depend on one draw.
    for deg2, gamma_side in ((0, -1), (1, 1), (0, 1)):
        for tag, N in ROUND_TRIP_PAIRS:
            ci_diii = tag in ("CI", "DIII")
            if gamma_side == 1 and deg2 == 0 and not ci_diii:
                continue
            for _ in range(2 if ci_diii and gamma_side == 1 else 4):
                inputs.append(_seeded_round_trip(tw, rng, rk.pair(tag, N), deg2, gamma_side))
    # CI/DIII certificates whose roots have large height: the constant term
    # of the ratio's numerator is about 1e12, where rational_roots' trial
    # division shows (1e14 already takes over a second).  They are fixed,
    # not seeded: with a seeded Q_1 and gamma one such item cost 0.2-1.6 s
    # from seed to seed.
    for tag, N, q1, gamma in LARGE_HEIGHT:
        pt = rk.pair(tag, N)
        cert, wt = _round_trip(tw, pt, [q1] + [[]] * (pt.n - 1), gamma)
        inputs.append((f"large height {pt} Q_1={q1} gamma={gamma}", wt,
                       _cert(ex, cert.P, gamma)))
    # trivial weights (known answer "no")
    pt = rk.pair("D0", 4)
    for _ in range(3):
        b = _q(rng, -9, 9)
        while b == -2:
            b = _q(rng, -9, 9)
        wt = cl.WeightTuple(pt, {1: ex.rf((b, 1), (0, 1)), 2: ex.RatFunc.of(1)})
        inputs.append((f"tilde violation D0 N=4 b={b}", wt,
                       {"nontrivial": False, "finite_dim": "no"}))
    items = []
    for k, (label, wt, verdict) in enumerate(inputs):
        path = os.path.join(work, f"c{k}.json")
        tw.serialize.dump(wt, path)
        rule = "tilde-product" if verdict["finite_dim"] == "no" else ""
        items.append(cli_item(tw, f"classify {label}", ["classify", "--in", path],
                              verdict=verdict, rule=rule))
    wt = cl.WeightTuple(rk.pair("CI", 2), {1: ex.rf((2, 0, 1), (0, 0, 1))})
    path = os.path.join(work, "irrational.json")
    tw.serialize.dump(wt, path)
    items.append(cli_item(tw, "classify CI N=2 (u^2+2)/u^2", ["classify", "--in", path],
                          code=EXIT_INCONCLUSIVE, verdict={"finite_dim": "inconclusive"},
                          rule="irrational-gamma"))
    return [[item] for item in items]


WORKLOADS = {"identities": identities, "modules": modules, "tensor": tensor,
             "classify": classify}


class Twyang:
    """The twyang modules a workload touches, looked up through sys.modules
    (``twyang.classify`` is the function, the module is ``classify_mod``)."""

    def __init__(self):
        for name in ("exact", "tensors", "rkmat", "reps", "serialize", "cli"):
            setattr(self, name, importlib.import_module(f"twyang.{name}"))
        self.classify_mod = sys.modules["twyang.classify"]


def build(name: str, seed: int, work: str) -> list[Item]:
    """The items of workload `name` for `seed`, in pass order; writes its
    input files to `work`.

    A workload is a list of chains (steps that must run in order, such as
    build -> verify -> weights -> classify).  The pass interleaves the chains
    at random, keeping each chain's order, so that items of one kind are
    spread over the pass instead of all meeting the same stretch of a
    shared machine's load."""
    chains = WORKLOADS[name](Twyang(), random.Random(f"{name}:{seed}"), work)
    slots = [k for k, chain in enumerate(chains) for _ in chain]
    random.Random(f"order:{name}:{seed}").shuffle(slots)
    pending = [iter(chain) for chain in chains]
    return [next(pending[k]) for k in slots]
