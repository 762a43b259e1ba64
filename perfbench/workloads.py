"""The three benchmark workloads: instance generation, invocations, and the
expected-results check.

Every instance is generated with `gsl gen`.  A seed relabels the non-zero
element ids of S and G with a seeded permutation (index 0 keeps the additive
zero, as `.gsr` requires; seed 0 is the identity), so the verifier sees a
different but isomorphic table on every seed.  Statuses and `counts` are
label-invariant and are checked against `expected.json` on every seed; at
seed 0 the digest of each invocation's output is checked as well.

Importing this module needs `gsl` on the path (see worker.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field

from gsl import cli, gsr
from gsl.core import GammaSemiring

CHAIN = "0,1/2,1"

# ({0,1}^3, bitwise or, bitwise and); `gsl gen from-semiring` turns it into from_B3
_B3 = [
    "[semiring]",
    "name = B3",
    "carrier = " + " ".join(str(i) for i in range(8)),
    "[add]",
    *(" ".join(str(a | b) for b in range(8)) for a in range(8)),
    "[mul]",
    *(" ".join(str(a & b) for b in range(8)) for a in range(8)),
]
EXTRA_FILES = {"B3.gsr": "\n".join(_B3) + "\n"}


@dataclass(frozen=True)
class Workload:
    name: str
    # file name -> `gsl` argv that writes it (the `-o <file>` is appended)
    instances: dict[str, tuple[str, ...]]
    invocations: tuple[tuple[str, ...], ...]


def _verify(f: str) -> tuple[str, ...]:
    return ("verify", f, "--suite", "all", "--chain", CHAIN, "--n", "2", "--report", "json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "matrix",
            {"boolean.gsr": ("gen", "boolean"), "z2.gsr": ("gen", "zn", "--n", "2")},
            (_verify("boolean.gsr"), _verify("z2.gsr")),
        ),
        Workload(
            "pairs",
            {
                "from_B3.gsr": ("gen", "from-semiring", "--input", "B3.gsr"),
                "z3.gsr": ("gen", "zn", "--n", "3"),
                "z4.gsr": ("gen", "zn", "--n", "4"),
            },
            (_verify("from_B3.gsr"), _verify("z3.gsr"), _verify("z4.gsr")),
        ),
        Workload(
            "validate",
            {"z24.gsr": ("gen", "zn", "--n", "24"), "z32.gsr": ("gen", "zn", "--n", "32")},
            (
                ("validate", "z24.gsr"),
                ("validate", "z32.gsr"),
                ("operators", "z32.gsr", "--side", "left"),
                ("operators", "z32.gsr", "--side", "right"),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# instance generation


def _permutation(size: int, rng: random.Random | None) -> list[int]:
    rest = list(range(1, size))
    if rng is not None:
        rng.shuffle(rest)
    return [0] + rest


def relabel(g: GammaSemiring, seed: int) -> GammaSemiring:
    """The isomorphic copy in which element i of S is renamed ps[i] and
    element c of G is renamed pg[c]; ids and index 0 stay where they are."""
    rng = random.Random(seed) if seed else None
    ps = _permutation(len(g.S), rng)
    pg = _permutation(len(g.G), rng)
    s, gg = len(g.S), len(g.G)
    add_s = [[0] * s for _ in range(s)]
    for a in range(s):
        for b in range(s):
            add_s[ps[a]][ps[b]] = ps[g.addS[a][b]]
    add_g = [[0] * gg for _ in range(gg)]
    for a in range(gg):
        for b in range(gg):
            add_g[pg[a]][pg[b]] = pg[g.addG[a][b]]
    prod = [[[0] * s for _ in range(gg)] for _ in range(s)]
    for a in range(s):
        for c in range(gg):
            row = g.prod[a][c]
            for b in range(s):
                prod[ps[a]][pg[c]][ps[b]] = ps[row[b]]
    return GammaSemiring(g.name, g.S, g.G, add_s, add_g, prod)


def generate(workload: Workload, seed: int, workdir: str) -> None:
    """Write the workload's instances into workdir (which must exist)."""
    for name, text in EXTRA_FILES.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with _cwd(workdir):
        for name, argv in workload.instances.items():
            rc = cli.main([*argv, "-o", name])
            if rc != 0:
                raise RuntimeError(f"gsl {' '.join(argv)} exited {rc}")
            with open(name, encoding="utf-8") as fh:
                g = gsr.parse_gsr_text(fh.read())
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(gsr.format_gamma(relabel(g, seed)))


@contextlib.contextmanager
def _cwd(path: str):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


# ---------------------------------------------------------------------------
# running and checking


@dataclass(frozen=True)
class Outcome:
    """One invocation's result, reduced to what the check compares."""

    exit: int | None  # None when cli.main raised
    error: str | None
    summary: dict  # label-invariant: compared on every seed
    digest: str  # timing-free output digest: compared at seed 0 and across passes
    reports: tuple[dict, ...]  # (suite, status, counts) of each verify report


def run_invocation(argv) -> Outcome:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except Exception as exc:  # a raising invocation is a failed operation, not a crash
        return Outcome(None, f"{type(exc).__name__}: {exc}", {}, "", ())
    return _reduce(argv[0], rc, buf.getvalue())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _reduce(command: str, rc: int, out: str) -> Outcome:
    if command == "verify":
        try:
            payload = json.loads(out)
        except ValueError:
            return Outcome(rc, "verify output is not JSON", {}, _digest(out), ())
        payload.pop("timings_ms", None)
        payload.pop("file", None)
        reports = tuple(
            {"suite": r["suite"], "status": r["status"], "counts": r["counts"]}
            for r in payload["reports"]
        )
        return Outcome(rc, None, {}, _digest(json.dumps(payload, sort_keys=True)), reports)
    lines = [ln for ln in out.splitlines() if not ln.startswith("time:")]
    summary = {"lines": lines}
    if command == "operators":
        # the unity's index and provenance depend on the labelling; its presence does not
        summary = {
            "lines": [ln for ln in lines if not ln.startswith("unity =")],
            "unity": any(ln.startswith("unity = f") for ln in lines),
        }
    return Outcome(rc, None, summary, _digest("\n".join(lines)), ())


def observe(workload: Workload) -> list[Outcome]:
    """Run every invocation once, in order, from the current directory."""
    return [run_invocation(argv) for argv in workload.invocations]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def check(
    workload: Workload,
    outcomes: list[Outcome],
    expected: list[dict],
    seed: int,
    reference: list[Outcome] | None,
    tally: Tally,
) -> None:
    """Count each invocation and each suite report it yields as one operation.

    An invocation fails if it raises, exits with another code than expected,
    its summary differs from the table, or its digest differs from the
    table (seed 0) or from the run's reference pass.  A report fails if its
    status is `fail` or its suite, status or counts differ from the table.
    """
    for k, (argv, out, exp) in enumerate(zip(workload.invocations, outcomes, expected)):
        label = f"{workload.name}[{k}] {' '.join(argv)}"
        tally.attempted += 1
        if out.error is not None:
            tally.fail(f"{label}: {out.error}")
        elif out.exit != exp["exit"]:
            tally.fail(f"{label}: exit {out.exit}, expected {exp['exit']}")
        elif out.summary != exp["summary"]:
            tally.fail(f"{label}: summary {out.summary} != {exp['summary']}")
        elif seed == 0 and out.digest != exp["digest_seed0"]:
            tally.fail(f"{label}: digest {out.digest} != {exp['digest_seed0']}")
        elif reference is not None and out.digest != reference[k].digest:
            tally.fail(f"{label}: digest {out.digest} differs from the reference pass")
        rows = exp["reports"]
        for j, row in enumerate(rows):
            tally.attempted += 1
            got = out.reports[j] if j < len(out.reports) else None
            if got is None or got["status"] == "fail" or got != row:
                tally.fail(f"{label} report {j}: {got} != {row}")
        for got in out.reports[len(rows):]:
            tally.attempted += 1
            tally.fail(f"{label}: unexpected report {got}")


def expected_rows(outcomes: list[Outcome], workload: Workload) -> list[dict]:
    """Table rows for `expected.json`, from a seed-0 observation."""
    return [
        {
            "argv": list(argv),
            "exit": out.exit,
            "summary": out.summary,
            "reports": list(out.reports),
            "digest_seed0": out.digest,
        }
        for argv, out in zip(workload.invocations, outcomes)
    ]


def load_expected(path: str, workload: Workload) -> list[dict]:
    """The workload's rows of the table, which must list its invocations in order."""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)[workload.name]
    if [row["argv"] for row in rows] != [list(argv) for argv in workload.invocations]:
        raise ValueError(f"{path}: rows for {workload.name} do not match its invocations")
    return rows


if __name__ == "__main__":
    # Print the expected-results table at seed 0:
    #   PYTHONPATH=src python3 perfbench/workloads.py <scratch dir> > perfbench/expected.json
    import tempfile

    base = sys.argv[1] if len(sys.argv) > 1 else None
    table = {}
    for w in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            generate(w, 0, tmp)
            with _cwd(tmp):
                table[w.name] = expected_rows(observe(w), w)
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
