"""The benchmark's contract with the library: one pass of every workload of
`bench/workloads.py` (seed 1) builds, runs and meets each item's known
answer, so an API change that would stop the benchmark fails here first."""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", ["identities", "modules", "tensor", "classify"])
def test_workload_pass_meets_known_answers(workloads, name, tmp_path):
    items = workloads.build(name, 1, str(tmp_path))
    assert items
    wrong = [item.label for item in items if not item.check(item.call())]
    assert not wrong, wrong
