"""Span recorder for the traced run: times the calls into each `gsl` module's
public functions, from outside the program.

Layers are named after the modules.  Each layer lists the functions whose
calls it times; `install` wraps them and rebinds every name in every `gsl`
module that refers to them, because `gsl.verify`, `gsl.matrix`, `gsl.cli`
and `gsl.gsr` import them with `from .x import y`.  A layer's time is its
self time: span duration minus the time covered by child spans.  Counts
marked computed are derived from arguments and results (table sizes, chain
lengths), not read from a counter inside the program.

Importing this module needs `gsl` on the path (see worker.py).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from gsl import cli, core, fuzzy, gsr, matrix, operators, transfer, verify
from gsl.fuzzy import EnumerationCapExceeded, carrier_of
from gsl.operators import ClosureBudgetExceeded, ClosureCapExceeded


def _size(structure) -> int:
    return carrier_of(structure).size


def _cells(args, result, counts):
    x = args[0]
    if isinstance(x, core.GammaSemiring):
        counts["core.validate_cells"] += len(x.S) ** 3 * len(x.G) ** 2
    else:
        counts["core.validate_cells"] += len(x.carrier) ** 3


def _closure(args, result, counts):
    counts["operators.closure_elements"] += len(result)


def _enum(args, result, counts):
    counts["fuzzy.enum_candidates"] += len(args[1]) ** (_size(args[0]) - 1)
    counts["fuzzy.enum_ideals"] += len(result)


def _crisp(args, result, counts):
    counts["fuzzy.crisp_subsets"] += 2 ** (_size(args[0]) - 1)
    counts["fuzzy.crisp_ideals"] += len(result)


# (layer, owner, function names, count hook or None); a layer may span owners
LAYERS = (
    ("gsr.parse", gsr, ("parse_gsr",), None),
    ("core.validate", core, ("validate_gamma_semiring", "validate_semiring"), _cells),
    ("operators.closure", operators, ("build_operator_semiring",), _closure),
    ("fuzzy.enum", fuzzy, ("enumerate_fuzzy_ideals",), _enum),
    ("fuzzy.crisp", fuzzy, ("enumerate_crisp_ideals",), _crisp),
    ("fuzzy.lattice", fuzzy, ("fuzzy_sum", "fuzzy_intersection"), None),
    ("fuzzy.lattice", fuzzy.FuzzySubset, ("__le__",), None),
    (
        "fuzzy.predicate",
        fuzzy,
        ("is_fuzzy_ideal_gamma", "is_fuzzy_ideal_semiring", "is_crisp_ideal_gamma", "is_crisp_ideal_semiring"),
        None,
    ),
    ("transfer.lift", transfer, ("lift_plusprime", "lift_starprime"), None),
    ("transfer.restrict", transfer, ("restrict_plus", "restrict_star"), None),
    ("matrix.build", matrix, ("build_matrix_gamma",), None),
    ("matrix.iso", matrix, ("check_operator_matrix_iso",), None),
    (
        "verify.suite",
        verify,
        (
            "run_all",
            "verify_prop_3_4",
            "verify_theorem_3_8",
            "verify_lemmas_3_11_3_12",
            "verify_theorem_3_15",
            "verify_theorem_3_17",
            "verify_theorem_3_18",
            "verify_semifield_transfer",
        ),
        None,
    ),
    ("verify.suite", matrix, ("verify_theorem_3_19",), None),
    ("report.render", cli, ("_render_reports",), None),
    ("cli", cli, ("main",), None),
)

# layer -> (exception it raises when a cap stops it, counter)
_CAPS = {
    "fuzzy.enum": (EnumerationCapExceeded, "fuzzy.cap_hits"),
    "fuzzy.crisp": (EnumerationCapExceeded, "fuzzy.cap_hits"),
    "operators.closure": ((ClosureCapExceeded, ClosureBudgetExceeded), "operators.cap_hits"),
}


class Recorder:
    """Per-layer self time, call counts and computed counts for one pass."""

    def __init__(self):
        self.stack: list[list] = []  # [function, seconds covered by child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, layer: str, fn, hook):
        rec = self
        cap_error, cap_counter = _CAPS.get(layer, ((), None))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if rec.stack and rec.stack[-1][0] is fn:  # direct recursion: one span
                return fn(*args, **kwargs)
            frame = [fn, 0.0]
            rec.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except cap_error:
                rec.counts[cap_counter] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                rec.stack.pop()
                rec.self_s[layer] += dt - frame[1]
                rec.calls[layer] += 1
                if rec.stack:
                    rec.stack[-1][1] += dt
            if hook is not None:
                hook(args, result, rec.counts)
            return result

        return span


class Tracer:
    """Installs and removes the span wrappers; `install` and `uninstall`
    must alternate."""

    def __init__(self):
        self.recorder = Recorder()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "gsl" or name.startswith("gsl.")]
        for layer, owner, names, hook in LAYERS:
            for name in names:
                orig = vars(owner)[name]
                wrapped = self.recorder.wrap(layer, orig, hook)
                if isinstance(owner, type):
                    self._rebind(owner, name, wrapped)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, attr, wrapped)

    def _rebind(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)


def layer_metrics(rec: Recorder, pairs_checked: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in ms)."""
    ms = {layer: s * 1000.0 for layer, s in rec.self_s.items()}
    c = rec.counts
    candidates = c["fuzzy.enum_candidates"]
    return {
        "gsr.parse_ms": ms.get("gsr.parse", 0.0),
        "gsr.parse_calls": rec.calls["gsr.parse"],
        "core.validate_ms": ms.get("core.validate", 0.0),
        "core.validate_calls": rec.calls["core.validate"],
        "core.validate_cells": c["core.validate_cells"],
        "operators.closure_ms": ms.get("operators.closure", 0.0),
        "operators.closure_calls": rec.calls["operators.closure"],
        "operators.closure_elements": c["operators.closure_elements"],
        "operators.cap_hits": c["operators.cap_hits"],
        "fuzzy.enum_ms": ms.get("fuzzy.enum", 0.0),
        "fuzzy.enum_calls": rec.calls["fuzzy.enum"],
        "fuzzy.enum_candidates": candidates,
        "fuzzy.enum_ideals": c["fuzzy.enum_ideals"],
        "fuzzy.enum_yield": c["fuzzy.enum_ideals"] / candidates if candidates else 0.0,
        "fuzzy.cap_hits": c["fuzzy.cap_hits"],
        "fuzzy.crisp_ms": ms.get("fuzzy.crisp", 0.0),
        "fuzzy.crisp_subsets": c["fuzzy.crisp_subsets"],
        "fuzzy.crisp_ideals": c["fuzzy.crisp_ideals"],
        "fuzzy.lattice_ms": ms.get("fuzzy.lattice", 0.0),
        "fuzzy.lattice_calls": rec.calls["fuzzy.lattice"],
        "fuzzy.predicate_ms": ms.get("fuzzy.predicate", 0.0),
        "fuzzy.predicate_calls": rec.calls["fuzzy.predicate"],
        "transfer.lift_ms": ms.get("transfer.lift", 0.0),
        "transfer.lift_calls": rec.calls["transfer.lift"],
        "transfer.restrict_ms": ms.get("transfer.restrict", 0.0),
        "transfer.restrict_calls": rec.calls["transfer.restrict"],
        "matrix.build_ms": ms.get("matrix.build", 0.0),
        "matrix.build_calls": rec.calls["matrix.build"],
        "matrix.iso_self_ms": ms.get("matrix.iso", 0.0),
        "verify.self_ms": ms.get("verify.suite", 0.0),
        "verify.pairs_checked": pairs_checked,
        "report.render_ms": ms.get("report.render", 0.0),
        "cli.self_ms": ms.get("cli", 0.0),
    }


# metric -> unit; "(computed)" marks counts derived from sizes, not counted calls
UNITS = {name: ("ms" if name.endswith("_ms") else "count") for name in layer_metrics(Recorder(), 0)}
UNITS["fuzzy.enum_yield"] = "ratio"
UNITS["trace.overhead_ratio"] = "ratio"
COMPUTED = {
    "core.validate_cells",
    "fuzzy.enum_candidates",
    "fuzzy.enum_yield",
    "fuzzy.crisp_subsets",
}
