"""Span recorder for the benchmark's traced run.

Every public function and method of each ``twyang`` module (a *layer*) is
wrapped from outside the package; ``src/`` is not touched.  A call records a
span (name, start, end, parent) when it crosses from one layer into another,
or when its function is one of the ``NAMED`` spans the benchmark reports on.
Calls that stay inside a layer only bump counters, which keeps the overhead
of hot arithmetic (``Poly.__mul__`` inside ``RatFunc.__mul__``) small while
still charging every second to exactly one layer.

Spans live in flat arrays in memory and are written out once, at the end.
A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = ("exact", "linalg", "tensors", "rkmat", "liealg", "reps", "verify",
          "classify", "serialize", "cli")
BENCH = "bench"

# Functions whose spans are always recorded, also for calls from the same layer.
NAMED = {
    "rkmat.check_yang_baxter", "rkmat.check_reflection", "rkmat.check_symmetry",
    "verify.check_twisted_commutators", "verify.check_rtt_commutators",
    "verify.scalar_product_with_reflected",
    "reps.vector_eval_x", "reps.tensor_twisted", "reps.restrict_v_plus",
    "reps.restrict_v_j", "reps.highest_weight_extract", "reps.check_twisted_symmetry",
    "reps.verify_twisted",
    "classify.solve_P", "linalg.rational_roots",
}

# Operator methods wrapped next to the public ones; __init__ only for the
# value types of ``exact``.
_DUNDER = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
           "__neg__", "__matmul__", "__eq__"}

_RKMAT_CHECKS = {"check_yang_baxter", "check_reflection", "check_twisted_reflection",
                 "check_unitarity", "check_r_unitarity", "check_p_identity",
                 "check_symmetry"}
_VERIFY_CHECKS = {"check_twisted_commutators", "check_rtt_commutators",
                  "check_olshanskii_commutators", "check_mr_commutators"}

# Plain call counters: wrapped function -> counter name.
_CALL_COUNTERS = {
    "exact.Poly.__mul__": "exact.poly_mul.calls",
    "exact.Poly.divmod": "exact.poly_divmod.calls",
    "exact.RatFunc.__init__": "exact.ratfunc_new.calls",
    "exact.BiPoly.__mul__": "exact.bipoly_mul.calls",
    "tensors.LabeledMatrix.kron": "tensors.kron.calls",
    "linalg.rref": "linalg.rref.calls",
    "linalg.rational_roots": "linalg.rational_roots.calls",
    "classify.solve_P": "classify.solve_P.calls",
}


class Recorder:
    """Spans in flat arrays plus counters; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_idx = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack: list[list] = []  # [span index, layer, child seconds]
        self.self_s: Counter = Counter()
        self.fn_s: Counter = Counter()
        self._active: Counter = Counter()
        self.counters: Counter = Counter()
        self.solve_p_depth = 0

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str, layer: str) -> None:
        idx = len(self.starts)
        self.name_idx.append(self._nid(name))
        self.parents.append(self.stack[-1][0] if self.stack else -1)
        self.ends.append(0.0)
        self._active[name] += 1
        self.stack.append([idx, layer, 0.0])
        self.starts.append(time.perf_counter())

    def exit(self, name: str) -> None:
        t1 = time.perf_counter()
        idx, layer, child = self.stack.pop()
        self.ends[idx] = t1
        dur = t1 - self.starts[idx]
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        self._active[name] -= 1
        if not self._active[name]:  # outermost span of this name only
            self.fn_s[name] += dur

    # -- analysis ---------------------------------------------------------
    def share_under(self, child: str, ancestor: str) -> float:
        """Seconds of `child` spans below an `ancestor` span, over the
        seconds of the outermost `ancestor` spans."""
        cid, aid = self._name_id.get(child), self._name_id.get(ancestor)
        total = self.fn_s.get(ancestor, 0.0)
        if cid is None or aid is None or total <= 0:
            return 0.0
        inside = 0.0
        for k, nid in enumerate(self.name_idx):
            if nid != cid:
                continue
            p = self.parents[k]
            while p >= 0 and self.name_idx[p] != aid:
                p = self.parents[p]
            if p >= 0:
                inside += self.ends[k] - self.starts[k]
        return inside / total

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[self.names[self.name_idx[k]], round(self.starts[k] - t0, 9),
                  round(self.ends[k] - t0, 9), self.parents[k]]
                 for k in range(len(self.starts))]
        with gzip.open(path, "wt") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                       "spans": spans, "counters": dict(self.counters)}, fh)


def _after_hook(key: str, rec: Recorder):
    """Counters that depend on arguments or results, by wrapped function."""
    layer, _, fname = key.partition(".")
    c = rec.counters
    if layer == "rkmat" and fname in _RKMAT_CHECKS:
        def hook(args, kwargs, result):
            c["rkmat.identities"] += 1
            c["rkmat.failed"] += not result.passed
        return hook
    if layer == "verify" and fname in _VERIFY_CHECKS:
        def hook(args, kwargs, result):
            c["verify.quadruples"] += len(args[0].labels) ** 4
            c["verify.failed"] += not result.passed
        return hook
    if key == "verify.scalar_product_with_reflected":
        def hook(args, kwargs, result):
            c["verify.failed"] += not result[1].passed
        return hook
    if key == "classify.solve_P":
        def hook(args, kwargs, result):
            c["classify.solve_P.found"] += result.status == "found"
        return hook
    if key == "classify.classify":
        def hook(args, kwargs, result):
            c["classify.inconclusive"] += result.finite_dim == "inconclusive"
        return hook
    if key == "serialize.dump":
        def hook(args, kwargs, result):
            c["serialize.bytes"] += os.path.getsize(args[1])
        return hook
    return None


def _before_hook(key: str, rec: Recorder):
    c = rec.counters
    if key == "serialize.load":
        def hook(args, kwargs):
            c["serialize.bytes"] += os.path.getsize(args[0])
        return hook
    if key == "linalg.solve":
        def hook(args, kwargs):
            if rec.solve_p_depth:
                c["classify.solve_P.linear_solves"] += 1
        return hook
    return None


def _make_wrapper(fn, key: str, layer: str, rec: Recorder):
    named = key in NAMED
    counter = _CALL_COUNTERS.get(key)
    before = _before_hook(key, rec)
    after = _after_hook(key, rec)
    is_solve_p = key == "classify.solve_P"
    counters = rec.counters

    def wrapper(*args, **kwargs):
        if counter is not None:
            counters[counter] += 1
        if before is not None:
            before(args, kwargs)
        if not named and rec.stack and rec.stack[-1][1] == layer:
            result = fn(*args, **kwargs)
        else:
            rec.enter(key, layer)
            if is_solve_p:
                rec.solve_p_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_solve_p:
                    rec.solve_p_depth -= 1
                rec.exit(key)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", key)
    wrapper.__qualname__ = getattr(fn, "__qualname__", key)
    return wrapper


class Patch:
    """Installs wrappers into every namespace that holds a wrapped function,
    and restores the originals on ``remove``."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple] = []

    def install(self) -> None:
        mods = {name: sys.modules[f"twyang.{name}"] for name in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = _make_wrapper(obj, f"{layer}.{attr}", layer, self.rec)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        # Rebind the wrapped functions wherever they were imported by name:
        # other layers, the package namespace and the benchmark itself.
        namespaces = [sys.modules["twyang"]] + list(mods.values())
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                if attr.startswith("_"):
                    continue
                new = staticmethod(_make_wrapper(raw.__func__, key, layer, self.rec))
            elif inspect.isfunction(raw):
                wanted = (not attr.startswith("_") or attr in _DUNDER
                          or (attr == "__init__" and layer == "exact"))
                if not wanted:
                    continue
                new = _make_wrapper(raw, key, layer, self.rec)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def remove(self) -> None:
        for ns, attr, obj in reversed(self._undo):
            setattr(ns, attr, obj)
        self._undo.clear()


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer metric values of one traced pass (without the
    trace.* rows, which need the untraced pass too)."""
    c = rec.counters
    fn = rec.fn_s
    solves = c["classify.solve_P.linear_solves"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (rec.self_s[layer], "s")
    for key in sorted(NAMED):
        out[f"{key}.s"] = (fn[key], "s")
    for name in ("rkmat.identities", "rkmat.failed", "verify.quadruples", "verify.failed",
                 "classify.inconclusive", "classify.solve_P.linear_solves",
                 *sorted(_CALL_COUNTERS.values())):
        out[name] = (c[name], "count")
    out["serialize.bytes"] = (c["serialize.bytes"], "bytes")
    out["classify.solve_P.found_ratio"] = (
        c["classify.solve_P.found"] / solves if solves else 0.0, "ratio")
    out["reps.verify_twisted.commutator_share"] = (
        rec.share_under("verify.check_twisted_commutators", "reps.verify_twisted"), "ratio")
    out["reps.vector_eval_x.rtt_share"] = (
        rec.share_under("verify.check_rtt_commutators", "reps.vector_eval_x"), "ratio")
    return out
