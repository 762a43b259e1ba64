"""Command-line front end.

Subcommands: gen, validate, operators, ideals, transfer, matrix, verify.
Exit codes: 0 success (precondition-unmet suites do not fail a run),
1 verification failure (or axiom violations from `validate`),
2 usage, I/O, or parse errors.

Report bodies are deterministic; timing is printed on separate `time:` lines
(text) or under the top-level "timings_ms" key (json) so two runs over the
same file can be compared byte for byte after dropping the timing fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from typing import Optional

from . import core, gsr
from .config import RunConfig
from .fuzzy import (
    GradeChain,
    enumerate_crisp_ideals,
    enumerate_fuzzy_ideals,
    format_grade,
)
from .matrix import build_matrix_gamma
from .operators import build_operator_semiring, find_unity
from .report import FAIL, VerificationReport
from .transfer import lift_plusprime, lift_starprime, restrict_plus, restrict_star
from . import verify as verify_mod

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsl",
        description="Finite gamma-semirings: construction, operator semirings, "
        "fuzzy ideals, and exhaustive verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a stock instance as a .gsr file")
    p.add_argument(
        "kind",
        choices=["boolean", "zn", "boolean-semiring", "zn-semiring", "from-semiring"],
    )
    p.add_argument("--n", type=int, default=None, help="modulus for zn kinds (>= 2)")
    p.add_argument("--input", default=None, help="semiring .gsr file for from-semiring")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check a .gsr file against all axioms")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("operators", help="build an operator semiring")
    p.add_argument("file")
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--dump", action="store_true", help="print the full tables")
    p.set_defaults(func=_cmd_operators)

    p = sub.add_parser("ideals", help="enumerate crisp or fuzzy ideals")
    p.add_argument("file")
    p.add_argument("--fuzzy", action="store_true")
    p.add_argument("--chain", default="0,1/2,1", help="grade chain, e.g. 0,1/2,1")
    p.add_argument("--kind", choices=["left", "right", "two"], default="two")
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("transfer", help="move a fuzzy subset between S and an operator semiring")
    p.add_argument("file")
    p.add_argument("--subset", required=True, help=".fz file with the input subset")
    p.add_argument("--map", choices=["plus", "plusprime", "star", "starprime"], required=True)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("matrix", help="build the n x n matrix instance")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--emit", default=None, help="write the matrix instance to this .gsr file")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("file")
    p.add_argument("--suite", choices=list(verify_mod.SUITE_CHOICES), default="all")
    p.add_argument("--chain", default="0,1/2,1")
    p.add_argument("--kind", choices=["two", "right"], default=None,
                   help="restrict th3.8/th3.15 to one ideal kind")
    p.add_argument("--n", type=int, default=2, help="matrix dimension for the matrix suites")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process (parsing leaves it unchanged)."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except gsr.GsrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (core.StructuralError, core.CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    if args.kind == "boolean":
        structure = core.boolean_gamma()
    elif args.kind == "zn":
        if args.n is None:
            print("error: zn requires --n", file=sys.stderr)
            return 2
        structure = core.zn_gamma(args.n)
    elif args.kind == "boolean-semiring":
        structure = core.boolean_semiring()
    elif args.kind == "zn-semiring":
        if args.n is None:
            print("error: zn-semiring requires --n", file=sys.stderr)
            return 2
        structure = core.zn_semiring(args.n)
    else:  # from-semiring
        if args.input is None:
            print("error: from-semiring requires --input", file=sys.stderr)
            return 2
        base = gsr.parse_gsr(args.input)
        if not isinstance(base, core.Semiring):
            print("error: from-semiring input must be a [semiring] file", file=sys.stderr)
            return 2
        structure = core.gamma_from_semiring(base)
    _emit(gsr.format_structure(structure), args.output)
    return 0


def _cmd_validate(args) -> int:
    structure = gsr.parse_gsr(args.file, require_valid=False)
    outcome = core.validate(structure)
    if outcome.ok:
        print(f"{structure.name}: ok")
        return 0
    print(f"{structure.name}: {len(outcome.violations)} axiom violation(s)")
    for v in outcome.violations:
        print(f"  {v.axiom}: witness ({', '.join(v.witness)})")
    return 1


def _require_gamma(structure) -> core.GammaSemiring:
    if not isinstance(structure, core.GammaSemiring):
        raise gsr.GsrError("syntax", "this command needs a [gamma_semiring] file")
    return structure


def _cmd_operators(args) -> int:
    g = _require_gamma(gsr.parse_gsr(args.file))
    op = build_operator_semiring(g, args.side)
    print(f"elements = {len(op)}")
    unity = find_unity(g, op)
    if unity is None:
        print("unity = none")
    else:
        print(f"unity = f{unity} via {op.provenance_expr(unity)}")
    if args.dump:
        sys.stdout.write(gsr.format_semiring(op.semiring))
    return 0


def _cmd_ideals(args) -> int:
    structure = gsr.parse_gsr(args.file)
    if args.fuzzy:
        chain = GradeChain.parse(args.chain)
        config = RunConfig.from_env()
        ideals = enumerate_fuzzy_ideals(structure, chain, args.kind, cap=config.enum_cap)
        print(f"fuzzy {args.kind}-ideals over chain {chain}: {len(ideals)}")
        carrier_ids = ideals[0].carrier.ids if ideals else ()
        for k, mu in enumerate(ideals):
            cells = " ".join(
                f"{i}:{format_grade(v)}" for i, v in zip(carrier_ids, mu.grades)
            )
            print(f"mu[{k}]: {cells}")
    else:
        config = RunConfig.from_env()
        ideals = enumerate_crisp_ideals(structure, args.kind, cap=config.enum_cap)
        print(f"crisp {args.kind}-ideals: {len(ideals)}")
        for k, sub in enumerate(ideals):
            print(f"ideal[{k}]: {' '.join(sub.sorted_ids())}")
    return 0


def _cmd_transfer(args) -> int:
    g = _require_gamma(gsr.parse_gsr(args.file))
    side = "left" if args.map in ("plus", "plusprime") else "right"
    op = build_operator_semiring(g, side)
    if args.map in ("plus", "star"):
        mu = gsr.parse_fz(args.subset, op)
        image = restrict_plus(op, mu) if args.map == "plus" else restrict_star(op, mu)
    else:
        mu = gsr.parse_fz(args.subset, g)
        image = lift_plusprime(op, mu) if args.map == "plusprime" else lift_starprime(op, mu)
    sys.stdout.write(gsr.format_fz(image))
    return 0


def _cmd_matrix(args) -> int:
    g = _require_gamma(gsr.parse_gsr(args.file))
    config = RunConfig.from_env()
    mg = build_matrix_gamma(g, args.n, cap=config.matrix_cap)
    print(f"matrix instance: {mg.gamma.name}")
    print(f"S elements = {len(mg.gamma.S)}")
    print(f"G elements = {len(mg.gamma.G)}")
    print("validation: ok")
    if args.emit:
        _emit(gsr.format_gamma(mg.gamma), args.emit)
        print(f"written: {args.emit}")
    return 0


def _run_suites(structure, args, config: RunConfig) -> list[VerificationReport]:
    """The reports of one verify invocation.  A semiring file runs th3.17 on
    the semiring itself; on a gamma-semiring file th3.17 runs on L."""
    semiring = isinstance(structure, core.Semiring)
    if semiring and args.suite not in ("th3.17", "all"):
        raise gsr.GsrError("syntax", f"suite {args.suite} needs a [gamma_semiring] file")
    if semiring or args.suite == "all":
        return verify_mod.run_all(structure, config)
    kinds = [args.kind] if args.kind else verify_mod.KINDS
    return verify_mod.SUITES[args.suite](verify_mod.Workspace(structure, config), kinds)


def _render_reports(reports: list[VerificationReport], args, config: RunConfig) -> None:
    if args.report == "json":
        payload = {
            "command": "verify",
            "file": args.file,
            "config": {
                "chain": [format_grade(v) for v in config.chain],
                "n": config.n,
                "enum_cap": config.enum_cap,
                "closure_cap": config.closure_cap,
                "matrix_cap": config.matrix_cap,
                "surjectivity_cap": config.surjectivity_cap,
            },
            "reports": [r.body() for r in reports],
            "timings_ms": {r.suite: round(r.elapsed_ms, 3) for r in reports},
        }
        print(json.dumps(payload, indent=2))
        return
    print("# gsl verification report")
    print(f"# file: {args.file}")
    print(f"# chain: {config.chain}")
    print(
        f"# caps: enum={config.enum_cap} closure={config.closure_cap} "
        f"matrix={config.matrix_cap} surjectivity={config.surjectivity_cap}"
    )
    print(f"# n: {config.n}")
    for r in reports:
        print()
        for line in r.text_lines():
            print(line)
    print()
    for r in reports:
        print(f"time: {r.suite} {r.elapsed_ms:.1f} ms")


def _cmd_verify(args) -> int:
    structure = gsr.parse_gsr(args.file)
    config = replace(RunConfig.from_env(), chain=GradeChain.parse(args.chain), n=args.n)
    reports = _run_suites(structure, args, config)
    _render_reports(reports, args, config)
    return 1 if any(r.status == FAIL for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
