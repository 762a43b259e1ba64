"""The benchmark's expected-results check, run on the `matrix` and `pairs`
workloads at seed 0, and its trace seam.

`perfbench/workloads.py` generates each workload's instances (boolean and z2;
from_B3, z3 and z4), runs its `gsl verify` invocations, and compares every
report's status and counts and every output digest with
`perfbench/expected.json`.  A change to any report body the benchmark checks
fails here first.  `perfbench/spans.py` times and counts the calls into
named `gsl` functions; a rename it does not follow fails here first.
"""

import importlib.util
import pathlib
import sys

import pytest

from test_pair_tables import CHAIN, PAIRS_LIFTS, PAIRS_RESTRICTS
from gsl import core
from gsl.config import RunConfig

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as the module perfbench_<name>, unedited."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


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


def test_every_traced_name_resolves():
    missing = [
        (layer, name)
        for layer, owner, names, _ in spans.LAYERS
        for name in names
        if name not in vars(owner)
    ]
    assert not missing


def test_trace_counts_the_pairs_workload_transfer_calls():
    """The tracer, installed around run_all over the `pairs` instances, sees
    every transfer-map call the suites make."""
    from gsl import verify

    tracer = spans.Tracer()
    tracer.install()
    try:
        for structure in (
            core.gamma_from_semiring(core.boolean_power_semiring(3)), core.zn_gamma(3), core.zn_gamma(4)
        ):
            verify.run_all(structure, RunConfig(chain=CHAIN))
    finally:
        tracer.uninstall()
    calls = tracer.recorder.calls
    assert (calls["transfer.lift"], calls["transfer.restrict"]) == (PAIRS_LIFTS, PAIRS_RESTRICTS)


# LevelCuts.subset calls of one pass of each workload's invocations, by the
# function that makes them: only the violators th3.17 and th3.18 name in
# their notes.  The transfer maps take the bits of crisp masks and th3.19
# compares cut tuples, so no suite builds a `FuzzySubset` per family member
SUBSET_CALLERS = {
    "matrix": {},
    "pairs": {"_semifield_biconditional": 2, "verify_theorem_3_18": 2},
}


@pytest.mark.parametrize("name", ["matrix", "pairs"])
def test_fuzzy_subsets_are_built_only_as_operands(name, tmp_path, monkeypatch):
    from collections import Counter

    from gsl.fuzzy import LevelCuts

    monkeypatch.delenv("GSL_CAP", raising=False)
    workload = workloads.WORKLOADS[name]
    workloads.generate(workload, 0, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    callers, real_subset = Counter(), LevelCuts.subset

    def counting(view, cuts):
        callers[sys._getframe(1).f_code.co_qualname.split(".<locals>")[0]] += 1
        return real_subset(view, cuts)

    monkeypatch.setattr(LevelCuts, "subset", counting)
    workloads.observe(workload)
    assert callers == SUBSET_CALLERS[name]
