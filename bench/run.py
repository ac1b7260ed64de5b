"""twyang benchmark: one seeded workload per process, closed loop, one client.

    python3 bench/run.py --workload identities --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it cycles through the workload's items for ``--seconds``
(every item runs at least once) and prints the end-to-end metrics, each
item's time being its mean over the run.  With ``--trace 1`` it runs one
untraced pass and one traced pass and prints the per-layer metrics; the
spans go to ``bench/out/``.  Every item is checked against its known answer.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 if any item or self-check
failed, 2 if the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
RUN_LIMIT_S = 150  # an item still running then counts as hung
# A visit repeats an item back to back until it has run this long, so that
# the short items, which set verdict_p50_s, get many samples in a run.
VISIT_S = 0.05


class Hung(BaseException):
    """Raised into an item that outlived the run's time limit."""


def _on_alarm(signum, frame):
    raise Hung()


def tail(values):
    """The value at the highest percentile with at least 10 values beyond it,
    as (value, percentile, count); the maximum when there are fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def run_item(item, deadline, rec=None):
    """One closed-loop call; returns (seconds, ok, decided)."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        print(f"  not run, out of time: {item.label}", file=sys.stderr)
        return 0.0, False, False
    signal.setitimer(signal.ITIMER_REAL, remaining)
    t0 = time.perf_counter()
    try:
        if rec is not None:
            rec.enter("bench.item", "bench")
            try:
                out = item.call()
            finally:
                rec.exit("bench.item")
        else:
            out = item.call()
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        ok, decided = item.check(out), item.decided(out)
    except Hung:
        dt, ok, decided = time.perf_counter() - t0, False, False
    except Exception as e:  # an item that raises is a failed item
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt, ok, decided = time.perf_counter() - t0, False, False
        print(f"  raised: {item.label}: {type(e).__name__}: {e}", file=sys.stderr)
    if not ok:
        print(f"  MISMATCH: {item.label}", file=sys.stderr)
    return dt, ok, decided


def run_pass(items, deadline, rec=None):
    """One pass over the items; returns (wall seconds, [(seconds, ok, decided)])."""
    t_first = time.perf_counter()
    results = [run_item(item, deadline, rec) for item in items]
    return time.perf_counter() - t_first, results


def setup_once(workload, seed, work):
    """Import twyang and build the workload's inputs; returns (items, seconds)."""
    t0 = time.perf_counter()
    import twyang  # noqa: F401

    import workloads

    items = workloads.build(workload, seed, work)
    return items, time.perf_counter() - t0


def measure_setup(workload, seed):
    """Median set-up time over fresh interpreters, so the import is cold
    for the interpreter but not for the file cache."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"set-up failed: {out.stderr.strip()}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def emit(correct, attempted, failed, metrics, notes=()):
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def end_to_end(args, items, deadline):
    setup_s = measure_setup(args.workload, args.seed)
    # Cycle through the items, in pass order, until --seconds have gone by
    # and every item has been visited at least once.  On a shared host the
    # speed wanders by +-20% within seconds, so a per-item mean over the
    # whole window is steadier than any single sample or a best-of-few;
    # cycling instead of whole passes leaves no idle tail when a pass does
    # not fit.
    samples = [[] for _ in items]
    decided = [True for _ in items]
    results = []
    t_start = time.perf_counter()
    k = 0
    while k < len(items) or time.perf_counter() - t_start < args.seconds:
        i, spent = k % len(items), 0.0
        while spent < VISIT_S:
            res = run_item(items[i], deadline)
            samples[i].append(res[0])
            decided[i] &= res[2]
            results.append(res)
            spent += res[0]
            if not res[1]:
                break
        k += 1
    per_item = [statistics.fmean(xs) for xs in samples]
    failed = sum(not ok for _, ok, _ in results)
    t_val, t_pct, t_n = tail(per_item)
    metrics = {
        "wall_s": (sum(per_item), "s"),
        "verdict_p50_s": (statistics.median(per_item), "s"),
        "verdict_tail_s": (t_val, "s"),
        "decided_share": (sum(decided) / len(items), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"workload {args.workload} seed {args.seed}: {k / len(items):.2f} passes of "
             f"{len(items)} items in {time.perf_counter() - t_start:.1f} s, "
             f"{len(results)} verdicts, {failed} failed",
             f"failed_share {failed / len(results):.6g}",
             f"verdict_tail_s is p{t_pct:.1f} of {t_n} items"]
    rules = Counter(item.rule for item in items if item.rule)
    notes += [f"negative controls per pass: {n} x {rule}" for rule, n in sorted(rules.items())]
    return failed == 0, len(results), failed, metrics, notes


def traced(args, items, deadline):
    import tracer

    wall_u, res_u = run_pass(items, deadline)
    rec = tracer.Recorder()
    patch = tracer.Patch(rec)
    patch.install()
    try:
        wall_t, res_t = run_pass(items, deadline, rec)
    finally:
        patch.remove()
    results = res_u + res_t
    failed = sum(not ok for _, ok, _ in results)
    metrics = tracer.layer_metrics(rec)
    attributed = sum(rec.self_s[layer] for layer in tracer.LAYERS)
    # harness time: the item spans' own time plus the gaps between items
    unattributed = rec.self_s[tracer.BENCH] + wall_t - sum(dt for dt, _, _ in res_t)
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.wall_s"] = (wall_t, "s")
    # self-check: layer self times + harness time must add up to the wall time
    balance = abs(attributed + unattributed - wall_t)
    balanced = balance <= 1e-3 * wall_t + 1e-4
    path = os.path.join(BENCH_DIR, "out", f"spans-{args.workload}-{args.seed}.json.gz")
    rec.dump(path)
    notes = [f"workload {args.workload} seed {args.seed}: traced pass {wall_t:.3f} s, "
             f"untraced {wall_u:.3f} s, {len(rec.starts)} spans -> {os.path.relpath(path, ROOT)}",
             f"self times + unattributed = wall within {balance:.2e} s: "
             f"{'ok' if balanced else 'FAILED'}"]
    share = metrics["reps.verify_twisted.commutator_share"][0]
    if rec.fn_s["reps.verify_twisted"]:
        notes.append(f"commutator checks are {100 * share:.1f}% of verify_twisted")
    share = metrics["reps.vector_eval_x.rtt_share"][0]
    if rec.fn_s["reps.vector_eval_x"]:
        notes.append(f"the RTT self-check is {100 * share:.1f}% of vector_eval_x")
    return failed == 0 and balanced, len(results), failed, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twyang", "__init__.py")):
        print(f"error: no twyang sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=os.path.join(BENCH_DIR, "out"))
    try:
        if args.setup_only:
            _, seconds = setup_once(args.workload, args.seed, work)
            print(seconds)
            return 0
        t_start = time.perf_counter()
        items, _ = setup_once(args.workload, args.seed, work)
        signal.signal(signal.SIGALRM, _on_alarm)
        deadline = t_start + RUN_LIMIT_S
        run = traced if args.trace else end_to_end
        correct, attempted, failed, metrics, notes = run(args, items, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(correct, attempted, failed, metrics, notes)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
