#!/usr/bin/env python3
"""Run every verification suite on the stock instances and print a summary.

Instances: boolean, z<n>, from_B<k>, and the n x n matrix instance of any
of these, <base>[nxn] (`build_matrix_gamma`), such as the 16-element,
non-commutative boolean[2x2].  The last line gives the total in-process
wall time of the runs and the peak resident set size of the process
(`ru_maxrss`).

Example:
    python3 scripts/run_suites.py --instances boolean,z2,z4 --chain 0,1/2,1
    python3 scripts/run_suites.py --instances from_B3,from_B4
    python3 scripts/run_suites.py --instances 'boolean[2x2]'
    python3 scripts/run_suites.py --json results.json
"""

import argparse
import json
import re
import resource
import sys
import time

from gsl import core, verify
from gsl.config import RunConfig
from gsl.fuzzy import GradeChain
from gsl.matrix import build_matrix_gamma
from gsl.report import FAIL


def build_instance(token: str):
    matrix = re.fullmatch(r"(.+)\[(\d+)x(\d+)\]", token)
    if matrix and matrix[2] == matrix[3]:
        base, n = build_instance(matrix[1]), int(matrix[2])
        return build_matrix_gamma(base, n, cap=max(len(base.S), len(base.G)) ** (n * n)).gamma
    if token == "boolean":
        return core.boolean_gamma()
    if token.startswith("z") and token[1:].isdigit():
        return core.zn_gamma(int(token[1:]))
    if token.startswith("from_B") and token[6:].isdigit():
        return core.gamma_from_semiring(core.boolean_power_semiring(int(token[6:])))
    raise SystemExit(f"unknown instance {token!r} (use boolean, z<n>, from_B<k> or <base>[nxn])")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", default="boolean,z2,z3,z4")
    parser.add_argument("--chain", default="0,1/2,1")
    parser.add_argument("--n", type=int, default=2, help="matrix dimension")
    parser.add_argument("--json", default=None, help="also dump all report bodies here")
    args = parser.parse_args()

    config = RunConfig.from_env(chain=GradeChain.parse(args.chain), n=args.n)
    failed = 0
    dump = []
    start = time.perf_counter()
    for token in args.instances.split(","):
        g = build_instance(token.strip())
        reports = verify.run_all(g, config)
        print(f"== {g.name}")
        for r in reports:
            marker = {"pass": "ok", "fail": "FAIL", "precondition-unmet": "gated"}[r.status]
            print(f"  {r.suite:22s} {marker:6s} {r.elapsed_ms:9.1f} ms")
            dump.append(r.body())
            failed += r.status == FAIL
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=2)
        print(f"wrote {len(dump)} report bodies to {args.json}")
    print(f"total failures: {failed}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"wall {time.perf_counter() - start:.2f} s, peak RSS {peak_mb:.1f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
