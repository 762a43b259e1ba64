"""Structured verification reports.

A report's body (suite, instance, chain, status, counterexample, counts,
notes) is fully deterministic for a given instance and configuration; the
elapsed time is kept in a separate field so renderers can segregate timing
from the comparison body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .fuzzy import GradeChain, format_grade

__all__ = [
    "PASS",
    "FAIL",
    "UNMET",
    "VerificationReport",
    "chain_scope_note",
    "first_failure",
    "first_cell",
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


def first_failure(check: Callable[..., object], *columns: Iterable) -> object:
    """The first truthy check(*row), over the rows of the zipped columns in
    order; None when every row passes.

    A check returns the failure it finds (the counterexample payload, or the
    failing candidate itself) and something falsy on a pass.  Suites report
    this first failure as their counterexample, so the scan order is part of
    the report body."""
    return next(filter(None, map(check, *columns)), None)


def first_cell(failing: np.ndarray) -> Optional[tuple[int, int]]:
    """The first true cell of an (N, M) table in row-major order, the order
    a scan of the pairs (i, j), i the outer loop, meets it in."""
    hits = np.flatnonzero(failing)
    return divmod(int(hits[0]), failing.shape[1]) if hits.size else None


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
