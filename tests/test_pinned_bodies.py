"""`gsl verify` report bodies compared with a recorded copy.

`data/verify_bodies.json` holds, for each case below, the exit code and the
`--report json` payload with the timings dropped and the file path replaced
by the instance name.  The first 42 cases were recorded before the suites
moved onto one shared per-run workspace; the gate cases (`zero_product` and
`one_element`, which lack a unity or have one element, and th3.19 past its
surjectivity cap) were recorded before the suites moved into one frame.  So a
change in any status, count, note or counterexample of any suite, gated or
not, shows up here, not only under `--suite all`.

Regenerate only at a commit whose bodies are known to be right:
    PYTHONPATH=src python3 tests/test_pinned_bodies.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from conftest import build_one_element, build_upper_triangular, build_zero_product
from gsl import cli, core, gsr

DATA = pathlib.Path(__file__).with_name("data") / "verify_bodies.json"

INSTANCES = {
    "boolean": core.boolean_gamma,
    "z2": lambda: core.zn_gamma(2),
    "z3": lambda: core.zn_gamma(3),
    "z4": lambda: core.zn_gamma(4),
    "upper_triangular": build_upper_triangular,
    "zero_product": build_zero_product,
    "one_element": build_one_element,
}
SINGLE_SUITES = ("prop3.4", "th3.8", "lemmas", "th3.15", "th3.17", "th3.18", "transfer-semifield", "matrix")


def _cases() -> list[tuple[str, tuple[str, ...]]]:
    cases = [
        (name, ("--suite", "all", "--chain", chain))
        for name in INSTANCES
        for chain in ("0,1", "0,1/2,1")
    ]
    cases += [
        (name, ("--suite", suite, "--kind", kind))
        for name in ("boolean", "z4")
        for suite in SINGLE_SUITES
        for kind in ("two", "right")
    ]
    # th3.19 on a chain whose matrix-side candidates exceed the surjectivity cap
    cases.append(("boolean", ("--suite", "matrix", "--chain", "0,1/4,1/2,1")))
    return cases


def _key(name: str, args: tuple[str, ...]) -> str:
    return " ".join((name, *args))


def _write_instances(directory: pathlib.Path) -> None:
    for name, build in INSTANCES.items():
        (directory / f"{name}.gsr").write_text(gsr.format_structure(build()), encoding="utf-8")


def _verify(directory: pathlib.Path, name: str, args: tuple[str, ...]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(directory / f"{name}.gsr"), *args, "--report", "json"])
    payload = json.loads(out.getvalue())
    payload.pop("timings_ms")
    payload["file"] = name
    return {"exit": code, "payload": payload}


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pinned")
    _write_instances(directory)
    return directory


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(_key(name, args) for name, args in _cases())


@pytest.mark.parametrize("name,args", _cases(), ids=[_key(n, a) for n, a in _cases()])
def test_verify_body_matches_pinned(instance_dir, pinned, name, args):
    assert _verify(instance_dir, name, args) == pinned[_key(name, args)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _write_instances(directory)
        bodies = {_key(name, args): _verify(directory, name, args) for name, args in _cases()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(bodies, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(bodies)} bodies to {DATA}", file=sys.stderr)
