"""One workload in one single-threaded process: set up, warm up, measure.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR [--setup-only]

Imports `gsl` from the checkout's `src/`, generates the workload's instances
into DIR, prints `ready` on stdout, and (unless --setup-only) runs one
untimed warm-up pass followed by timed passes: at least MIN_PASSES, then
more while another one, as long as the mean so far, still ends within S
seconds.  With --trace 1 it times pairs of an untraced and a traced pass
instead, by the same rule.  Every pass is checked against `expected.json`.
The last stdout line is a JSON object with the raw samples; run.py turns
them into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_PASSES = 3  # timed passes per untraced run; a traced run times at least one of each kind


def _another(durations, done, minimum: int, seconds: float) -> bool:
    """Whether to time one more pass: `done` seconds have gone into `durations`."""
    if len(durations) < minimum:
        return True
    return done + sum(durations) / len(durations) <= seconds


def _import_gsl():
    sys.path[:0] = [SRC, HERE]
    import gsl

    if not os.path.abspath(gsl.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gsl imported from {gsl.__file__}, not from {SRC}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.environ.pop("GSL_CAP", None)
    _import_gsl()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected(os.path.join(HERE, "expected.json"), workload)
    os.makedirs(args.workdir, exist_ok=True)
    workloads.generate(workload, args.seed, args.workdir)
    os.chdir(args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tally = workloads.Tally()
    reference = workloads.observe(workload)  # warm-up pass, not timed
    workloads.check(workload, reference, expected, args.seed, None, tally)

    def timed_pass():
        t0 = time.perf_counter()
        outcomes = workloads.observe(workload)
        dt = time.perf_counter() - t0
        workloads.check(workload, outcomes, expected, args.seed, reference, tally)
        return dt, outcomes

    result = {"wall_s": [], "traced_s": [], "layers": []}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        start = time.perf_counter()
        rounds = []
        while _another(rounds, time.perf_counter() - start, 1, args.seconds):
            t0 = time.perf_counter()
            result["wall_s"].append(timed_pass()[0])
            tracer.recorder.reset()
            tracer.install()
            try:
                dt, outcomes = timed_pass()
            finally:
                tracer.uninstall()
            result["traced_s"].append(dt)
            pairs = sum(r["counts"].get("pairs_checked", 0) for o in outcomes for r in o.reports)
            result["layers"].append(spans.layer_metrics(tracer.recorder, pairs))
            rounds.append(time.perf_counter() - t0)
        result["units"] = spans.UNITS
        result["computed"] = sorted(spans.COMPUTED)
    else:
        start = time.perf_counter()
        while _another(result["wall_s"], time.perf_counter() - start, MIN_PASSES, args.seconds):
            result["wall_s"].append(timed_pass()[0])

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["problems"] = tally.problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
