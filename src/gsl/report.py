"""Structured verification reports.

A report's body (suite, instance, chain, status, counterexample, counts,
notes) is fully deterministic for a given instance and configuration; the
elapsed time is kept in a separate field so renderers can segregate timing
from the comparison body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .fuzzy import GradeChain, format_grade

__all__ = [
    "PASS",
    "FAIL",
    "UNMET",
    "VerificationReport",
    "chain_scope_note",
    "combine_status",
    "first_failing_pair",
]

PASS = "pass"
FAIL = "fail"
UNMET = "precondition-unmet"

_STATUSES = (PASS, FAIL, UNMET)


def chain_scope_note(chain: GradeChain) -> str:
    return (
        f"grades restricted to the chain {{{', '.join(format_grade(g) for g in chain)}}}; "
        "the chain is min/max-closed, so every operation checked stays in-chain"
    )


def combine_status(statuses) -> str:
    """fail dominates; otherwise unmet only when nothing passed."""
    statuses = list(statuses)
    if FAIL in statuses:
        return FAIL
    if statuses and all(s == UNMET for s in statuses):
        return UNMET
    return PASS


def first_failing_pair(n: int, check: Callable[[int, int], object]) -> Optional[tuple[int, int, object]]:
    """The first (i, j, failure), in row-major order over range(n) x range(n),
    for which check(i, j) returns a truthy failure; None when every pair passes.

    Suites report this first pair as their counterexample, so the scan order
    is part of the report body."""
    for i in range(n):
        for j in range(n):
            failure = check(i, j)
            if failure:
                return i, j, failure
    return None


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    instance: str
    chain: Optional[GradeChain]
    status: str
    counterexample: Optional[dict]
    counts: Mapping[str, int]
    elapsed_ms: float
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == FAIL and self.counterexample is None:
            raise ValueError("fail reports must carry a counterexample")
        if self.status == PASS and not any(v > 0 for v in self.counts.values()):
            raise ValueError("pass reports must have checked something")

    def body(self) -> dict:
        """Deterministic report body (no timing)."""
        return {
            "suite": self.suite,
            "instance": self.instance,
            "chain": None if self.chain is None else [format_grade(g) for g in self.chain],
            "status": self.status,
            "counterexample": self.counterexample,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "notes": list(self.notes),
        }

    def text_lines(self) -> list[str]:
        lines = [
            f"suite: {self.suite}",
            f"instance: {self.instance}",
        ]
        if self.chain is not None:
            lines.append(f"chain: {self.chain}")
        lines.append(f"status: {self.status}")
        counts = " ".join(f"{k}={self.counts[k]}" for k in sorted(self.counts))
        lines.append(f"counts: {counts}" if counts else "counts: -")
        if self.counterexample is not None:
            lines.append(f"counterexample: {self.counterexample}")
        for note in self.notes:
            lines.append(f"  - {note}")
        return lines
