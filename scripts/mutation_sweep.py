#!/usr/bin/env python3
"""Sweep the single-cell product mutations of a stock instance through the
validator, replay each reported witness independently, and check that the
validator, on whichever path its size rule picks (dense, or greedy additive
generators with a dense fallback), reports what the dense scan reports.

Instances: boolean, z<n>, and the 16-element matrix instance boolean[2x2]
(61,440 mutants).  --sample N sweeps a fixed sample of N mutants (drawn
with seed 0), which is quick; the full sweep is run by hand.  boolean[2x2]
and z<n> from n = 9 on are validated on generators.

Example:
    python3 scripts/mutation_sweep.py boolean
    python3 scripts/mutation_sweep.py z4 --max-report 20
    python3 scripts/mutation_sweep.py 'boolean[2x2]' --sample 500
    python3 scripts/mutation_sweep.py z24 --sample 50
"""

import argparse
import random
import sys

from gsl import core
from gsl.matrix import build_matrix_gamma


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("instance", help="boolean, z<n> or boolean[2x2]")
    parser.add_argument("--max-report", type=int, default=10, help="rows to print")
    parser.add_argument("--sample", type=int, default=0, help="sweep this many mutants, drawn with seed 0 (0: all)")
    args = parser.parse_args()

    if args.instance == "boolean":
        g = core.boolean_gamma()
    elif args.instance == "boolean[2x2]":
        g = build_matrix_gamma(core.boolean_gamma(), 2).gamma
    elif args.instance.startswith("z") and args.instance[1:].isdigit():
        g = core.zn_gamma(int(args.instance[1:]))
    else:
        raise SystemExit(f"unknown instance {args.instance!r}")

    s, gg = len(g.S), len(g.G)
    addS, addG, product = g.tables
    # mutant k sets cell k // (s - 1), row-major, to the (k % (s - 1))-th
    # other value, so a sample is drawn without listing every mutant
    order = range(s * gg * s * (s - 1))
    if args.sample:
        order = random.Random(0).sample(order, min(args.sample, len(order)))
    total = valid = replay_ok = replay_total = agree = 0
    shown = 0
    for k in order:
        cell, v = divmod(k, s - 1)
        a, c, b = cell // (gg * s), cell // s % gg, cell % s
        v += int(v >= product[a, c, b])
        total += 1
        prod = product.copy()
        prod[a, c, b] = v
        mutant = core.GammaSemiring("mutant", g.S, g.G, addS, addG, prod)
        outcome = core.validate_gamma_semiring(mutant)
        agree += core._gamma_outcome(mutant) == outcome
        if outcome.ok:
            valid += 1
            status = "still-valid"
            first = "-"
        else:
            for viol in outcome.violations:
                replay_total += 1
                replay_ok += core.recheck_violation(mutant, viol)
            first = outcome.violations[0].axiom
            status = f"{len(outcome.violations)} violations"
        if shown < args.max_report:
            cell = f"{g.S[a]}@{g.G[c]}@{g.S[b]} -> {g.S[v]}"
            print(f"{cell:24s} {status:16s} first: {first}")
            shown += 1
    print()
    print(f"mutants: {total}, still valid: {valid}, invalid: {total - valid}")
    print(f"witness replay: {replay_ok}/{replay_total} confirmed")
    print(f"validator: {agree}/{total} outcomes equal the dense ones")
    return 0 if replay_ok == replay_total and agree == total else 1


if __name__ == "__main__":
    sys.exit(main())
