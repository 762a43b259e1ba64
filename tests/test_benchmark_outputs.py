"""The benchmark's expected-results check, run on the `matrix` and `pairs`
workloads at seed 0.

`perfbench/workloads.py` generates each workload's instances (boolean and z2;
from_B3, z3 and z4), runs its `gsl verify` invocations, and compares every
report's status and counts and every output digest with
`perfbench/expected.json`.  A change to any report body the benchmark checks
fails here first.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", ["matrix", "pairs"])
def test_seed0_outputs_match_expected(name, tmp_path, monkeypatch):
    monkeypatch.delenv("GSL_CAP", raising=False)
    workload = workloads.WORKLOADS[name]
    expected = workloads.load_expected(str(PERFBENCH / "expected.json"), workload)
    workloads.generate(workload, 0, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    tally = workloads.Tally()
    workloads.check(workload, workloads.observe(workload), expected, 0, None, tally)
    assert tally.attempted == sum(1 + len(row["reports"]) for row in expected)
    assert tally.failed == 0, tally.problems
