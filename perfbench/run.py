"""gsl benchmark: run the `matrix`, `pairs` and `validate` workloads.

    python3 perfbench/run.py [--workload matrix|pairs|validate|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded process (worker.py) as a
closed loop: one caller runs `gsl.cli.main([...])` invocations back to back,
in-process, with `RunConfig` defaults and `GSL_CAP` removed.  Before it, the
workload is set up SETUPS more times in processes that stop after set-up,
and `setup_s` is the median over all of them.

With --trace 0 the metrics are setup_s, wall_s and peak_rss_mb; with
--trace 1 they are the per-layer metrics of spans.py plus
trace.overhead_ratio.  `wall_s` is the mean pass: the seconds the timed
passes took together, over their number.  Human-readable lines come first; the last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 only when every output matched `expected.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("matrix", "pairs", "validate")
SETUPS = 8  # set-up-only processes per run, in addition to the measured one
TIMEOUT_S = 170.0  # whole run, all processes


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GSL_CAP"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same string hashing, and so set order, in every run
    # Peak RSS on `matrix` read 106 MB in some runs and 136 MB in others: glibc
    # moves its mmap threshold as buffers are freed, and numpy asks for huge
    # pages that the kernel grants only when memory allows.  Pin both, so that
    # where a buffer lives does not depend on allocation history or the machine.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def _spawn(args, deadline: float) -> tuple[float, str]:
    """Run one worker; returns (seconds from spawn to `ready`, last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=_child_env(),
        text=True,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.communicate()[0]
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = os.path.join(HERE, ".work", f"{name}-{os.getpid()}")
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    try:
        for k in range(SETUPS):
            setups.append(_spawn([*common, "--workdir", f"{base}-s{k}", "--setup-only"], deadline)[0])
        setup_s, line = _spawn([*common, "--workdir", base], deadline)
        setups.append(setup_s)
    finally:
        for k in range(SETUPS):
            shutil.rmtree(f"{base}-s{k}", ignore_errors=True)
        shutil.rmtree(base, ignore_errors=True)
    try:
        raw = json.loads(line)
    except ValueError as exc:
        raise BenchError(f"worker {name}: no result line") from exc
    raw["setup_s"] = setups
    return raw


def metrics_of(raw: dict, trace: int) -> dict:
    if not trace:
        return {
            "setup_s": (statistics.median(raw["setup_s"]), "s"),
            "wall_s": (statistics.fmean(raw["wall_s"]), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
    units = raw["units"]
    layers = raw["layers"]
    out = {}
    for metric in layers[0]:
        values = [pass_[metric] for pass_ in layers]
        if units[metric] == "ms":
            out[metric] = (statistics.median(values), "ms")
        else:
            if len(set(values)) != 1:
                raise BenchError(f"{metric} differs between traced passes: {values}")
            out[metric] = (values[0], units[metric])
    out["trace.overhead_ratio"] = (
        statistics.fmean(raw["traced_s"]) / statistics.fmean(raw["wall_s"]),
        "ratio",
    )
    return out


def _report(name: str, raw: dict, metrics: dict, trace: int) -> None:
    computed = raw.get("computed", ())
    print(f"workload {name}:")
    notes = {
        "setup_s": f"median of {len(raw['setup_s'])} set-ups",
        "wall_s": f"mean of {len(raw['wall_s'])} passes (median {statistics.median(raw['wall_s']):.6g} s)",
    }
    if trace:
        notes["trace.overhead_ratio"] = (
            f"{len(raw['traced_s'])} traced vs {len(raw['wall_s'])} untraced passes"
        )
    for metric, (value, unit) in metrics.items():
        note = notes.get(metric, "computed" if metric in computed else "")
        print(f"  {metric:28s} {value:>16.6g} {unit:6s} {note}")
    ratio = raw["failed"] / raw["attempted"]
    print(f"  {'failed_ratio':28s} {ratio:>16.6g} {'':6s} {raw['failed']}/{raw['attempted']} operations")
    for problem in raw["problems"]:
        print(f"  failure: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    # a SIGTERM unwinds like an exception, so _spawn still kills and waits for its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIMEOUT_S * len(names)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            raw = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            m = metrics_of(raw, args.trace)
            _report(name, raw, m, args.trace)
            attempted += raw["attempted"]
            failed += raw["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
