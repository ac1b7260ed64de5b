"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload modules --seeds 1-10 [--trace 0|1]

For every metric it prints the median, the quartiles and the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  It also checks that each run printed exactly the
metrics BENCHMARK.json names, with their units.  With ``--trace 1`` it
instead checks that two traced runs of the same seed give identical counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace):
    out = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"seed {seed}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got.items()) ^ set(expected.items()))}")
    if out.returncode != 0 or not result["correct"]:
        print(out.stderr, file=sys.stderr)
        raise SystemExit(f"seed {seed}: exit {out.returncode}, correct={result['correct']}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    if args.trace:
        counts = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                            if v["unit"] in ("count", "bytes")}
        for seed in args.seeds:
            a, b = (counts(run(bench, args.workload, seed, 1)) for _ in range(2))
            diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
            print(f"seed {seed}: {len(a)} counts, {'identical' if not diff else diff}")
            if diff:
                return 1
        return 0

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        res = run(bench, args.workload, seed, 0)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                           for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / q2
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"{name:16s} median {q2:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.4f}  bound {bounds[name]}  ({share:.2f} of bound)")
    print(f"largest spread, setup_s aside: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
