"""prop3.4's pair clauses and th3.8's pair and lattice-closure checks against
the reference scan in `oracles.py`.

The suites read every pair's failures off family tables; the oracle scans
the pairs one at a time in row-major order with the `Fraction` lattice
operations.  Both see the same transfer maps, here broken by permuting or
merging their images within the family of fuzzy ideals, so the maps keep
landing on ideals and the pair checks are the ones that see the damage.
"""

import pytest

from oracles import naive_pair_clause_rows, naive_theorem_3_8_pairs
from gsl import core, verify
from gsl.config import RunConfig
from gsl.fuzzy import GradeChain, fuzzy_sum
from gsl.report import FAIL, PASS

CHAIN = GradeChain.parse("0,1/2,1")
PAIR_CLAUSES = ("iv", "v", "vi", "ix")
SCOPE = (
    "grades restricted to the chain {0/1, 1/2, 1/1}; the chain is min/max-closed, "
    "so every operation checked stays in-chain"
)
CLOSED = "enumerated ideals are closed under sum/intersection with top and bottom"

INSTANCES = {
    "z4": lambda: core.zn_gamma(4),
    "from_B3": lambda: core.gamma_from_semiring(core.boolean_power_semiring(3)),
}

# name -> (lift remap, restrict remap), each as {source index: target index}
# over the fuzzy ideals of S in enumeration order; an unlisted ideal maps to itself
PERTURBATIONS = {
    "none": ({}, {}),
    "swap-lift": ({2: 4, 4: 2}, {}),
    "rotate-restrict": ({}, {0: 1, 1: 2, 2: 0}),
    "merge-both": ({1: 2}, {2: 0}),
}


def _remap(ideals, moves):
    """{grades of ideal i: ideal j} for each move i -> j."""
    return {ideals[i].grades: ideals[j] for i, j in moves.items()}


def _workspace(instance):
    return verify.Workspace(INSTANCES[instance](), RunConfig(chain=CHAIN))


def _perturb(monkeypatch, ideals, lift_moves, restrict_moves):
    """Send the operand of every lift, and the image of every restriction,
    through the remaps, on both sides."""
    before, after = _remap(ideals, lift_moves), _remap(ideals, restrict_moves)
    for name in ("lift_plusprime", "lift_starprime"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda op, s, real=real: real(op, before.get(s.grades, s)))
    for name in ("restrict_plus", "restrict_star"):
        real = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda op, m, real=real: (lambda r: after.get(r.grades, r))(real(op, m))
        )


@pytest.mark.parametrize("perturbation", PERTURBATIONS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_prop34_pair_rows_and_body_match_the_reference_scan(monkeypatch, instance, perturbation):
    """Both sides' pair rows equal the oracle's, and so does the body built
    with the oracle's pair rows in place of the suite's."""
    ws = _workspace(instance)
    _perturb(monkeypatch, ws.fuzzy_ideals("S"), *PERTURBATIONS[perturbation])
    real_rows = verify._clause_rows
    compared = []

    def oracle_rows(ws, side, lift, restrict, lift_roundtrip_ok, restrict_roundtrip_ok, tag):
        rows = real_rows(ws, side, lift, restrict, lift_roundtrip_ok, restrict_roundtrip_ok, tag)
        oracle = naive_pair_clause_rows(
            ws.fuzzy_ideals("S"), ws.fuzzy_ideals(side), lift, restrict, tag
        )
        compared.append(([row for row in rows if row[0].rstrip("*") in PAIR_CLAUSES], oracle))
        pairs = iter(oracle)
        return [next(pairs) if row[0].rstrip("*") in PAIR_CLAUSES else row for row in rows]

    actual = verify.verify_prop_3_4(ws).body()
    monkeypatch.setattr(verify, "_clause_rows", oracle_rows)
    expected = verify.verify_prop_3_4(ws).body()
    assert actual == expected
    assert len(compared) == 2  # the L side and the R side
    for rows, oracle in compared:
        assert rows == oracle
    if perturbation != "none":
        assert any(status == FAIL for rows, _ in compared for _, status, _, _ in rows)


def _th38_body(ws, kind, counterexample):
    n = len(ws.fuzzy_ideals("S", kind))
    return {
        "suite": f"th3.8[{kind}]",
        "instance": ws.structure.name,
        "chain": ["0/1", "1/2", "1/1"],
        "status": FAIL if counterexample else PASS,
        "counterexample": counterexample,
        "counts": {"fuzzy_ideals_L": n, "fuzzy_ideals_S": n, "pairs_checked": n * n},
        "notes": [SCOPE] if counterexample else [SCOPE, CLOSED],
    }


# permutations of the fuzzy ideals of S, applied to the lift's operand
TH38_LIFTS = {"none": {}, "swap": {2: 4, 4: 2}, "rotate": {0: 1, 1: 2, 2: 0}}


@pytest.mark.parametrize("kind", ["two", "right"])
@pytest.mark.parametrize("perturbation", TH38_LIFTS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_th38_body_matches_the_reference_scan(monkeypatch, instance, perturbation, kind):
    """A permuted lift is still a bijection onto the ideals of L, so th3.8
    gets to its pair scan, and its counterexample is the oracle's."""
    ws = _workspace(instance)
    ideals = ws.fuzzy_ideals("S", kind)
    _perturb(monkeypatch, ideals, TH38_LIFTS[perturbation], {})
    left = ws.left
    expected = naive_theorem_3_8_pairs(ideals, lambda s: verify.lift_plusprime(left, s))
    assert (expected is None) == (perturbation == "none")
    assert verify.verify_theorem_3_8(ws, kind).body() == _th38_body(ws, kind, expected)


@pytest.mark.parametrize("kind", ["two", "right"])
@pytest.mark.parametrize("instance,swap", [("z4", (4, 5)), ("from_B3", (2, 7))])
def test_th38_reports_the_first_pair_not_the_first_check(monkeypatch, instance, swap, kind):
    """An earlier pair fails sum-homomorphism while a later pair fails
    inclusion-both-ways, which comes first in the check order: the earlier
    pair, with the check it fails, is the counterexample."""
    ws = _workspace(instance)
    ideals = ws.fuzzy_ideals("S", kind)
    i, j = swap
    _perturb(monkeypatch, ideals, {i: j, j: i}, {})
    left = ws.left
    lift = lambda s: verify.lift_plusprime(left, s)
    lifted = [lift(s) for s in ideals]
    pairs = [(a, b) for a in range(len(ideals)) for b in range(len(ideals))]
    sum_pairs = [
        (a, b) for a, b in pairs
        if lift(fuzzy_sum(ideals[a], ideals[b])) != fuzzy_sum(lifted[a], lifted[b])
    ]
    inclusion_pairs = [
        (a, b) for a, b in pairs if (ideals[a] <= ideals[b]) != (lifted[a] <= lifted[b])
    ]
    assert sum_pairs and inclusion_pairs and sum_pairs[0] < inclusion_pairs[0]
    first = sum_pairs[0]
    expected = naive_theorem_3_8_pairs(ideals, lift)
    assert expected == {
        "check": "sum-homomorphism",
        "sigma1": ideals[first[0]].to_mapping(),
        "sigma2": ideals[first[1]].to_mapping(),
    }
    assert verify.verify_theorem_3_8(ws, kind).body() == _th38_body(ws, kind, expected)


MAPS = ("lift_plusprime", "lift_starprime", "restrict_plus", "restrict_star")


def _record_calls(monkeypatch) -> list:
    """Record (map name, operand grades) for every transfer-map call the
    suites make."""
    calls = []
    for name in MAPS:
        real = getattr(verify, name)

        def recording(op, subset, name=name, real=real):
            calls.append((name, subset.grades))
            return real(op, subset)

        monkeypatch.setattr(verify, name, recording)
    return calls


@pytest.mark.parametrize("instance", INSTANCES)
def test_pair_checks_call_each_map_once_per_operand(monkeypatch, instance):
    """The tables are filled by calling each map on each distinct operand
    once, not once per pair."""
    ws = _workspace(instance)
    calls = _record_calls(monkeypatch)
    for suite in (verify.verify_prop_3_4, verify.verify_theorem_3_8):
        calls.clear()
        assert suite(ws).status == PASS
        assert calls and len(set(calls)) == len(calls)


def test_transfer_call_totals_of_the_pairs_workload(monkeypatch):
    """run_all over from_B3, z3 and z4 makes 183 lift and 111 restrict
    calls, the `transfer.lift_calls` and `transfer.restrict_calls` the
    benchmark's trace reports for its `pairs` workload."""
    calls = _record_calls(monkeypatch)
    for structure in (INSTANCES["from_B3"](), core.zn_gamma(3), INSTANCES["z4"]()):
        verify.run_all(structure, RunConfig(chain=CHAIN))
    names = [name for name, _ in calls]
    assert sum(name.startswith("lift") for name in names) == 183
    assert sum(name.startswith("restrict") for name in names) == 111
