"""Smoke tests for the scripts under scripts/: each runs to exit 0."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# environment variables set for a case, by (script, args); GSL_CAP is unset otherwise
ENV = {("run_suites.py", ("--instances", "from_B5")): {"GSL_CAP": str(10**40)}}


@pytest.mark.parametrize(
    "script,args",
    [
        ("run_suites.py", ("--instances", "z3,z4")),
        ("mutation_sweep.py", ("boolean", "--max-report", "0")),
        ("run_suites.py", ("--instances", "from_B3")),
        ("mutation_sweep.py", ("boolean[2x2]", "--sample", "100", "--max-report", "0")),
        ("run_suites.py", ("--instances", "boolean[2x2]")),
        ("mutation_sweep.py", ("z24", "--sample", "50", "--max-report", "0")),
        # the one 16-element Boolean power that runs by default: prop3.4 to th3.17 pass
        ("run_suites.py", ("--instances", "from_B4")),
        # the 32-element Boolean power with the cap lifted (ENV): prop3.4 to th3.17
        # pass, their pair checks on 32 crisp ideals for families of 243 members
        ("run_suites.py", ("--instances", "from_B5")),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env.pop("GSL_CAP", None)
    env.update(ENV.get((script, args), {}))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
