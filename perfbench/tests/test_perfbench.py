"""Tests of the benchmark itself: relabelling, tracing and the expected-results check.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import gsl  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gsl import core, gsr  # noqa: E402

PAIRS = workloads.WORKLOADS["pairs"]
TABLE_PATH = os.path.join(BENCH, "expected.json")

# the pairs workload without from_B3, so each pass takes milliseconds
SMALL = workloads.Workload(
    "small",
    {k: v for k, v in PAIRS.instances.items() if k != "from_B3.gsr"},
    PAIRS.invocations[1:],
)
SMALL_ROWS = workloads.load_expected(TABLE_PATH, PAIRS)[1:]


def _observe(workload, seed, tmp_path):
    workdir = tmp_path / f"seed{seed}"
    workdir.mkdir()
    workloads.generate(workload, seed, str(workdir))
    with workloads._cwd(str(workdir)):
        return workloads.observe(workload), workdir


def _check(outcomes, rows, seed, reference=None):
    tally = workloads.Tally()
    workloads.check(SMALL, outcomes, rows, seed, reference, tally)
    return tally


def test_table_matches_workloads():
    for w in workloads.WORKLOADS.values():
        assert len(workloads.load_expected(TABLE_PATH, w)) == len(w.invocations)
    with pytest.raises(ValueError):
        workloads.load_expected(TABLE_PATH, dataclasses.replace(SMALL, name="pairs"))


def test_seed_zero_is_identity(tmp_path):
    _, workdir = _observe(SMALL, 0, tmp_path)
    assert (workdir / "z4.gsr").read_text() == gsr.format_gamma(core.zn_gamma(4))


@pytest.mark.parametrize("seed", [1, 2, 7, 12345])
def test_relabelling_preserves_every_count(seed, tmp_path):
    outcomes, workdir = _observe(SMALL, seed, tmp_path)
    assert (workdir / "z4.gsr").read_text() != gsr.format_gamma(core.zn_gamma(4))
    tally = _check(outcomes, SMALL_ROWS, seed)
    assert (tally.failed, tally.problems) == (0, [])
    assert tally.attempted == sum(1 + len(r["reports"]) for r in SMALL_ROWS)


@pytest.mark.parametrize("seed", [0, 3])
def test_relabelled_from_b3_is_a_gamma_semiring(seed):
    base = gsr.parse_gsr_text(workloads.EXTRA_FILES["B3.gsr"])
    g = workloads.relabel(core.gamma_from_semiring(base), seed)
    assert core.validate_gamma_semiring(g).ok
    assert g.name == "from_B3"


def test_tracing_leaves_outputs_unchanged(tmp_path):
    plain, workdir = _observe(SMALL, 5, tmp_path)
    tracer = spans.Tracer()
    original_le = gsl.fuzzy.FuzzySubset.__le__
    original_sum = gsl.fuzzy.fuzzy_sum
    tracer.install()
    try:
        # names bound with `from .x import y` are rebound too
        assert gsl.verify.fuzzy_sum is not original_sum
        assert gsl.fuzzy.FuzzySubset.__le__ is not original_le
        with workloads._cwd(str(workdir)):
            traced = workloads.observe(SMALL)
    finally:
        tracer.uninstall()
    assert gsl.verify.fuzzy_sum is original_sum
    assert gsl.fuzzy.FuzzySubset.__le__ is original_le
    assert [o.digest for o in traced] == [o.digest for o in plain]
    tally = _check(traced, SMALL_ROWS, 5, reference=plain)
    assert (tally.failed, tally.problems) == (0, [])

    rec = tracer.recorder
    assert rec.calls["cli"] == len(SMALL.invocations)
    assert rec.calls["gsr.parse"] == len(SMALL.invocations)
    assert rec.calls["fuzzy.lattice"] > 0 and rec.counts["fuzzy.enum_ideals"] > 0
    assert rec.stack == []
    metrics = spans.layer_metrics(rec, 0)
    assert set(metrics) | {"trace.overhead_ratio"} == set(spans.UNITS)
    assert all(t >= 0 for t in rec.self_s.values())


def test_wrong_expected_row_shows_in_failed_ratio(tmp_path):
    outcomes, _ = _observe(SMALL, 0, tmp_path)
    rows = copy.deepcopy(SMALL_ROWS)
    assert _check(outcomes, rows, 0).failed == 0

    report = next(r for r in rows[1]["reports"] if r["suite"] == "th3.8[two]")
    report["counts"]["pairs_checked"] += 1
    tally = _check(outcomes, rows, 3)
    assert tally.failed == 1
    assert tally.failed / tally.attempted == 1 / sum(1 + len(r["reports"]) for r in rows)
    assert "th3.8[two]" in tally.problems[0]

    rows = copy.deepcopy(SMALL_ROWS)
    rows[0]["digest_seed0"] = "0" * 16
    assert _check(outcomes, rows, 0).failed == 1
    assert _check(outcomes, rows, 1).failed == 0  # digests are only pinned at seed 0


def test_timed_passes_end_within_the_window():
    assert worker._another([], 0.0, 3, 10.0)
    assert worker._another([6.0, 6.0], 12.0, 3, 10.0)  # the minimum comes first
    assert worker._another([2.0, 2.0, 2.0], 6.0, 3, 10.0)  # 6 + 2 <= 10
    assert not worker._another([3.0, 3.0, 3.0], 9.0, 3, 10.0)  # 9 + 3 > 10
