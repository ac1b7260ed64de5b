"""The benchmark's contract with the library: one pass of every workload of
`bench/workloads.py` (seed 1) builds, runs and meets each item's known
answer, untraced and under `bench/tracer.py`, so an API change that would
stop the benchmark fails here first."""

import importlib
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ["identities", "modules", "tensor", "classify"]
# per-layer times that must be nonzero on a workload's traced pass: the
# symmetry relation's cost is reported under these names
SPANNED = {"identities": ["rkmat.check_symmetry.s"],
           "modules": ["reps.check_twisted_symmetry.s"]}


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


@pytest.fixture(scope="module")
def tracer():
    return _bench_module("tracer")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_pass_meets_known_answers(workloads, name, tmp_path):
    items = workloads.build(name, 1, str(tmp_path))
    assert items
    wrong = [item.label for item in items if not item.check(item.call())]
    assert not wrong, wrong


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_workload_pass_reports_every_layer_metric(workloads, tracer, name, tmp_path):
    items = workloads.build(name, 1, str(tmp_path))
    rec = tracer.Recorder()
    patch = tracer.Patch(rec)
    patch.install()
    try:
        wrong = [item.label for item in items if not item.check(item.call())]
    finally:
        patch.remove()
    assert not wrong, wrong
    # the trace.* rows compare the traced pass with an untraced one, so
    # bench/run.py adds them, not layer_metrics
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared if not m["name"].startswith("trace.")}
    metrics = tracer.layer_metrics(rec)
    assert wanted <= set(metrics)
    for key in SPANNED.get(name, []):
        assert metrics[key][0] > 0, key
