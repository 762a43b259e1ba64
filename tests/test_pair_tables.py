"""prop3.4's pair clauses and th3.8's pair and lattice-closure checks against
the two references in `oracles.py`.

The transfer maps act cut by cut (`verify._MAPS`), and a family is every
descending multichain of its crisp ideals, so the suites decide a pair
check on the pairs of those crisp ideals, and scan the pairs in row blocks
only for the witness once a crisp pair fails.  One oracle scans the pairs
one at a time in row-major order with the `Fraction` lattice operations;
the other reads every pair off N x N family tables at once.  All see the
same transfer maps, here broken by moving the images of crisp ideals
within the crisp ideals (a swap, a rotation, a merge), so the maps keep
landing on ideals and the pair checks are the ones that see the damage.
A broken map on masks goes in through `oracles.install_map`, and the
oracles read the installed maps back as maps on fuzzy subsets, cut by cut
(`oracles.subset_map`).  A move that does not keep inclusions would give a
member cuts that do not descend, so moves on the three-grade chain are
monotone, and the others run on the chain {0, 1}.
"""

import pytest

import oracles
from oracles import (
    cuts_of,
    fuzzy_family,
    install_map,
    mask_map,
    members,
    naive_fuzzy_sum,
    naive_pair_clause_rows,
    naive_theorem_3_8_pairs,
    subset_map,
    table_pair_clause_rows,
    table_theorem_3_8_pairs,
)
from gsl import core, transfer, verify
from gsl.config import RunConfig
from gsl.fuzzy import GradeChain
from gsl.report import FAIL, PASS, chain_scope_note

CHAIN = GradeChain.parse("0,1/2,1")
CRISP = GradeChain.parse("0,1")
PAIR_CLAUSES = ("iv", "v", "vi", "ix")
CLOSED = "enumerated ideals are closed under sum/intersection with top and bottom"
# rows a block of the witness scan spans, in cells: one row, a few rows, and
# the default, which holds every family here in one block
SCAN_CELLS = (1, 100, verify._SCAN_CELLS)

INSTANCES = {
    "z4": lambda: core.zn_gamma(4),
    "from_B3": lambda: core.gamma_from_semiring(core.boolean_power_semiring(3)),
}

# name -> (chain, lift moves, restrict moves), each move {i: j} over the
# crisp ideals of S in enumeration order: the lift maps ideal i as it maps
# ideal j, and an image of the restriction that is ideal i becomes ideal j
PERTURBATIONS = {
    "none": (CHAIN, {}, {}),
    "swap-lift": (CRISP, {1: 2, 2: 1}, {}),
    "rotate-restrict": (CRISP, {}, {0: 1, 1: 2, 2: 0}),
    "merge-both": (CHAIN, {1: 0}, {1: 0}),
}


def _workspace(instance, chain=CHAIN):
    return verify.Workspace(INSTANCES[instance](), RunConfig(chain=chain))


def _masks_of(bits) -> list[int]:
    """The masks of the rows of a 0/1 bits array."""
    return [sum(1 << x for x, bit in enumerate(row) if bit) for row in bits.tolist()]


def _moved(moves, mask):
    return moves.get(mask, mask)


def _perturb(monkeypatch, ws, lift_moves, restrict_moves):
    """Send the operand mask of every lift, and the image mask of every
    restriction, through the moves, on both sides."""
    ideals = ws.crisp_ideals("S")
    before, after = ({ideals[i]: ideals[j] for i, j in moves.items()} for moves in (lift_moves, restrict_moves))
    for side in "LR":
        lift, restrict = verify._MAPS[side, "lift"], verify._MAPS[side, "restrict"]
        install_map(monkeypatch, side, "lift",
                    lambda op, mask, real=lift: mask_map("lift", op, real)(_moved(before, mask)))
        install_map(monkeypatch, side, "restrict",
                    lambda op, mask, real=restrict: _moved(after, mask_map("restrict", op, real)(mask)))


def _maps(ws, side):
    """The lift and the restriction between S and `side` as one-argument
    maps on fuzzy subsets, through the maps the suites call
    (`verify._MAPS`), for the oracles."""
    op = ws.left if side == "L" else ws.right
    return tuple(subset_map(ws.config.chain, d, op, verify._MAPS[side, d]) for d in ("lift", "restrict"))


def _record_paths(monkeypatch) -> list:
    """Record, in order, each pair check the suites run: "crisp" when the
    crisp cuts decided it, "scan" when the row-block scan did."""
    paths, inside = [], []
    real_pair, real_scan = verify._failing_pair, verify._scan

    def failing_pair(p, check):
        paths.append("crisp")
        inside.append(p)
        try:
            return real_pair(p, check)
        finally:
            inside.pop()

    def scan(p, check):
        if inside:  # the check _failing_pair is deciding
            paths[-1] = "scan"
        else:
            paths.append("scan")
        return real_scan(p, check)

    monkeypatch.setattr(verify, "_failing_pair", failing_pair)
    monkeypatch.setattr(verify, "_scan", scan)
    return paths


def _pair_rows(rows):
    return [row for row in rows if row[0].rstrip("*") in PAIR_CLAUSES]


@pytest.mark.parametrize("perturbation", PERTURBATIONS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_prop34_pair_rows_and_body_match_the_reference_scan(monkeypatch, instance, perturbation):
    """Both sides' pair rows equal both oracles', and the body built with
    the oracle's pair rows in place of the suite's is the suite's, with
    scan blocks of any size.  A pair clause reaches the row-block scan
    exactly when it fails on a crisp pair.  prop3.4 decides a side's rows
    once per run, so each run is a run of its own."""
    chain, lift_moves, restrict_moves = PERTURBATIONS[perturbation]
    ws = _workspace(instance, chain)
    _perturb(monkeypatch, ws, lift_moves, restrict_moves)
    real_rows = verify._clause_rows
    compared = []
    paths = _record_paths(monkeypatch)

    def oracle_rows(ws, side, lift_roundtrip_ok, restrict_roundtrip_ok):
        rows = real_rows(ws, side, lift_roundtrip_ok, restrict_roundtrip_ok)
        lift, restrict = _maps(ws, side)
        oracle = naive_pair_clause_rows(
            fuzzy_family(ws, "S"), fuzzy_family(ws, side), lift, restrict
        )
        compared.append((_pair_rows(rows), oracle, table_pair_clause_rows(ws, side, lift, restrict)))
        pairs = iter(oracle)
        return [next(pairs) if row[0].rstrip("*") in PAIR_CLAUSES else row for row in rows]

    actual, suite_paths = [], []
    for cells in SCAN_CELLS:  # a fresh workspace for each block size
        monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
        del paths[:]
        actual.append(verify.verify_prop_3_4(_workspace(instance, chain)).body())
        suite_paths.append(list(paths))
    monkeypatch.setattr(verify, "_clause_rows", oracle_rows)
    expected = verify.verify_prop_3_4(_workspace(instance, chain)).body()
    assert actual == [expected] * len(SCAN_CELLS)
    assert len(compared) == 2  # the L side and the R side
    for rows, oracle, table in compared:
        assert rows == oracle == table
    # per side: iv, v and vi on the lift, ix on the restriction
    scans = ["scan" if status == FAIL else "crisp" for rows, _, _ in compared for _, status, _, _ in rows]
    assert suite_paths == [scans] * len(SCAN_CELLS)
    assert (expected["status"] == FAIL) == (perturbation != "none")


@pytest.mark.parametrize("cells", [1, 100])
@pytest.mark.parametrize("perturbation", PERTURBATIONS)
def test_scan_blocks_keep_the_row_major_witness(monkeypatch, perturbation, cells):
    """With blocks of one row (1 cell) or a few rows (100 cells), the scan
    gives from_B3's pair rows as the table oracle does, reached through a
    failing crisp pair, and th3.8's counterexample too where the lift
    stays a bijection."""
    monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
    chain, lift_moves, restrict_moves = PERTURBATIONS[perturbation]
    ws = _workspace("from_B3", chain)
    _perturb(monkeypatch, ws, lift_moves, restrict_moves)
    lift, restrict = _maps(ws, "L")
    paths = _record_paths(monkeypatch)
    rows = _pair_rows(verify._clause_rows(ws, "L", True, True))
    assert rows == table_pair_clause_rows(ws, "L", lift, restrict)
    assert paths == ["scan" if status == FAIL else "crisp" for _, status, _, _ in rows]
    assert ("scan" in paths) == (perturbation != "none")
    if sorted(lift_moves) == sorted(lift_moves.values()):
        expected = table_theorem_3_8_pairs(ws, "two", lift)
        assert verify.verify_theorem_3_8(ws, "two").body() == _th38_body(ws, "two", expected)


def test_cut_wise_map_that_breaks_iv_fails_on_the_crisp_cuts(monkeypatch):
    """On from_B3 the lift that sends the full ideal where the true lift does
    and every other mask where the bottom ideal goes keeps inclusions and
    meets but not sums (two proper ideals can sum to the full one): iv fails
    on the crisp cuts, and the witness scan gives the oracles' witness."""
    ws = _workspace("from_B3")
    side, on_s = "L", ws.level_cuts("S")
    real = mask_map("lift", ws.left, verify._MAPS[side, "lift"])
    bottom = ws.crisp_ideals("S")[0]
    install_map(monkeypatch, side, "lift", lambda op, mask: real(on_s.full if mask == on_s.full else bottom))
    lift, restrict = _maps(ws, side)
    paths = _record_paths(monkeypatch)
    rows = _pair_rows(verify._clause_rows(ws, side, True, True))
    assert [status for _, status, _, _ in rows] == [FAIL, PASS, PASS, PASS]
    assert paths == ["scan", "crisp", "crisp", "crisp"]
    oracle = naive_pair_clause_rows(fuzzy_family(ws, "S"), fuzzy_family(ws, side), lift, restrict)
    assert rows == oracle == table_pair_clause_rows(ws, side, lift, restrict)


def _th38_body(ws, kind, counterexample):
    n, chain = len(fuzzy_family(ws, "S", kind)), ws.config.chain
    scope = chain_scope_note(chain)
    return {
        "suite": f"th3.8[{kind}]",
        "instance": ws.structure.name,
        "chain": [f"{g.numerator}/{g.denominator}" for g in chain],
        "status": FAIL if counterexample else PASS,
        "counterexample": counterexample,
        "counts": {"fuzzy_ideals_L": n, "fuzzy_ideals_S": n, "pairs_checked": n * n},
        "notes": [scope] if counterexample else [scope, CLOSED],
    }


# permutations of the crisp ideals of S, applied to the lift's operand on the
# chain {0, 1}: the lift stays a bijection onto the ideals of L, and on a
# longer chain a permutation that is no automorphism would not keep the cuts
# of a member descending
TH38_LIFTS = {"none": {}, "swap": {0: 1, 1: 0}, "rotate": {0: 1, 1: 2, 2: 0}}


@pytest.mark.parametrize("kind", ["two", "right"])
@pytest.mark.parametrize("perturbation", TH38_LIFTS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_th38_body_matches_the_reference_scan(monkeypatch, instance, perturbation, kind):
    """A permuted lift is still a bijection onto the ideals of L, so th3.8
    gets to its pair check; a crisp pair fails, and the scan's
    counterexample is the oracle's, with scan blocks of any size."""
    ws = _workspace(instance, CRISP)
    ideals = fuzzy_family(ws, "S", kind)
    _perturb(monkeypatch, ws, TH38_LIFTS[perturbation], {})
    lift, _ = _maps(ws, "L")
    expected = naive_theorem_3_8_pairs(ideals, lift)
    assert (expected is None) == (perturbation == "none")
    assert expected == table_theorem_3_8_pairs(ws, kind, lift)
    _assert_th38_body_with_any_scan_block(monkeypatch, lambda: _workspace(instance, CRISP), kind, expected)


def _assert_th38_body_with_any_scan_block(monkeypatch, workspace, kind, expected):
    """th3.8's body on a fresh workspace() is the one with the oracle's
    counterexample for every `SCAN_CELLS` block size, and its pair check
    reaches the scan exactly when it fails."""
    paths = _record_paths(monkeypatch)
    for cells in SCAN_CELLS:
        monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
        del paths[:]
        ws = workspace()
        assert verify.verify_theorem_3_8(ws, kind).body() == _th38_body(ws, kind, expected), cells
        assert paths == ["scan" if expected else "crisp"]


@pytest.mark.parametrize("kind", ["two", "right"])
@pytest.mark.parametrize("instance,swap", [("z6", (1, 3)), ("from_B3", (1, 2))])
def test_th38_reports_the_first_pair_not_the_first_check(monkeypatch, instance, swap, kind):
    """An earlier pair fails sum-homomorphism while a later pair fails
    inclusion-both-ways, which comes first in the check order: the earlier
    pair, with the check it fails, is the counterexample."""
    structure = core.zn_gamma(6) if instance == "z6" else INSTANCES[instance]()
    ws = verify.Workspace(structure, RunConfig(chain=CRISP))
    ideals = fuzzy_family(ws, "S", kind)
    i, j = swap
    _perturb(monkeypatch, ws, {i: j, j: i}, {})
    lift, _ = _maps(ws, "L")
    lifted = [lift(s) for s in ideals]
    pairs = [(a, b) for a in range(len(ideals)) for b in range(len(ideals))]
    sum_pairs = [
        (a, b) for a, b in pairs
        if lift(naive_fuzzy_sum(ideals[a], ideals[b])) != naive_fuzzy_sum(lifted[a], lifted[b])
    ]
    inclusion_pairs = [
        (a, b) for a, b in pairs if (ideals[a] <= ideals[b]) != (lifted[a] <= lifted[b])
    ]
    assert sum_pairs and inclusion_pairs and sum_pairs[0] < inclusion_pairs[0]
    first = sum_pairs[0]
    expected = naive_theorem_3_8_pairs(ideals, lift)
    assert expected == table_theorem_3_8_pairs(ws, kind, lift)
    assert expected == {
        "check": "sum-homomorphism",
        "sigma1": ideals[first[0]].to_mapping(),
        "sigma2": ideals[first[1]].to_mapping(),
    }
    _assert_th38_body_with_any_scan_block(
        monkeypatch, lambda: verify.Workspace(structure, RunConfig(chain=CRISP)), kind, expected)


def test_th38_intersection_failure_is_the_reference_witness(monkeypatch):
    """A permutation of from_B3's crisp ideals, on the chain {0, 1}, whose
    first failing pair keeps inclusions and sums but not intersections:
    th3.8 reaches the scan through a failing crisp pair, and its
    intersection-homomorphism witness is the oracles'."""
    ws = _workspace("from_B3", CRISP)
    _perturb(monkeypatch, ws, dict(enumerate((0, 3, 5, 7, 1, 2, 4, 6))), {})
    lift, _ = _maps(ws, "L")
    expected = naive_theorem_3_8_pairs(fuzzy_family(ws, "S"), lift)
    assert expected["check"] == "intersection-homomorphism"
    assert expected == table_theorem_3_8_pairs(ws, "two", lift)
    _assert_th38_body_with_any_scan_block(monkeypatch, lambda: _workspace("from_B3", CRISP), "two", expected)


def _record_calls(monkeypatch) -> list:
    """Record (side, direction, masks) for every transfer-map call the
    suites make, the masks of the bit rows the map is handed."""
    calls = []
    for key, real in verify._MAPS.items():

        def recording(over, bits, key=key, real=real):
            calls.append((*key, _masks_of(bits)))
            return real(over, bits)

        monkeypatch.setitem(verify._MAPS, key, recording)
    return calls


def _handed(calls, side, direction) -> list[int]:
    """Every mask the map of (side, direction) was handed, in order."""
    return [mask for s, d, masks in calls if (s, d) == (side, direction) for mask in masks]


@pytest.mark.parametrize("instance", INSTANCES)
def test_pair_checks_call_each_map_once_per_operand(monkeypatch, instance):
    """prop3.4, th3.8 of both kinds and the lemmas hand each map object each
    distinct mask once per run.  prop3.4 makes one call a map: the lift is
    handed the crisp ideals of S, the masks its family's cuts are, and the
    restriction those of the side; the sums, meets and images of ideals are
    ideals again, so nothing new reaches a map after that.  th3.8[two],
    th3.8[right] (the right ideals are the two-sided ones here) and the
    lemmas (each characteristic function is a constant member) make none.
    Each map ends up handed every mask of its source view."""
    ws = _workspace(instance)
    calls = _record_calls(monkeypatch)
    made = {}
    for name, suite in (
        ("prop3.4", verify.verify_prop_3_4),
        ("th3.8[two]", lambda ws: verify.verify_theorem_3_8(ws, "two")),
        ("th3.8[right]", lambda ws: verify.verify_theorem_3_8(ws, "right")),
        ("lemmas", verify.verify_lemmas_3_11_3_12),
    ):
        before = len(calls)
        assert suite(ws).status == PASS, name
        made[name] = len(calls) - before
    assert made == {"prop3.4": 4, "th3.8[two]": 0, "th3.8[right]": 0, "lemmas": 0}
    side, direction, masks = calls[0]
    assert (side, direction, sorted(masks)) == ("L", "lift", sorted(ws.crisp_ideals("S")))
    for side in "LR":
        for direction, source in (("lift", "S"), ("restrict", side)):
            handed = _handed(calls, side, direction)
            assert sorted(handed) == sorted(ws.level_cuts(source)._masks) == sorted(set(handed))


# the crisp right ideals of upper_triangular's S that are not two-sided:
# prop3.4 interns the five two-sided ones, and nothing else, in S's view
NEW_RIGHT_MASKS = 5


def test_th38_right_lifts_the_right_family_in_one_call(monkeypatch, upper_triangular):
    """On the non-commutative upper-triangular instance, th3.8[right] after
    prop3.4 lifts, in one call, the masks of S that prop3.4 did not see:
    the crisp right ideals that are not two-sided, each once."""
    ws = verify.Workspace(upper_triangular, RunConfig(chain=CHAIN))
    calls = _record_calls(monkeypatch)
    verify.verify_prop_3_4(ws)
    seen = set(ws.level_cuts("S")._masks)
    del calls[:]
    verify.verify_theorem_3_8(ws, "right")
    right = set(ws.crisp_ideals("S", "right"))
    assert right & seen and right - seen == right - set(ws.crisp_ideals("S"))
    [(side, direction, masks)] = calls
    assert (side, direction, sorted(masks)) == ("L", "lift", sorted(right - seen))
    assert len(masks) == NEW_RIGHT_MASKS


def test_a_wrapper_installed_after_the_workspace_sees_every_call(monkeypatch):
    """The workspace looks each map up in `verify._MAPS` at call time, so a
    wrapper installed after the workspace and its lift are built still sees
    every lift, the first on the crisp ideals of S.  Each map object gets an
    image array of its own: a wrapper installed after the arrays of the real
    maps have filled is handed every mask of its source view, each once, by
    a second prop3.4."""
    ws = _workspace("z4")
    ws.transfer("L", "lift")
    calls = _record_calls(monkeypatch)
    assert verify.verify_prop_3_4(ws).status == PASS
    first = next(masks for side, direction, masks in calls if (side, direction) == ("L", "lift"))
    assert sorted(first) == sorted(ws.crisp_ideals("S"))

    later = _record_calls(monkeypatch)
    assert verify.verify_prop_3_4(ws).status == PASS
    for side in "LR":
        for direction, source in (("lift", "S"), ("restrict", side)):
            handed = _handed(later, side, direction)
            assert sorted(handed) == sorted(ws.level_cuts(source)._masks) == sorted(set(handed))


# per-subset transfer-map calls (`gsl.transfer`) of run_all over the `pairs`
# workload's instances: the suites map crisp masks, not subsets
PAIRS_LIFTS, PAIRS_RESTRICTS = 0, 0


def test_transfer_call_totals_of_the_pairs_workload(monkeypatch):
    """run_all over from_B3, z3 and z4 calls no per-subset transfer map, so
    the benchmark's trace reports 0 `transfer.lift_calls` and
    `transfer.restrict_calls` for its `pairs` workload.  The four public
    maps call `transfer._lift` and `transfer._restrict`, so counting those
    counts every call, however the map was imported."""
    calls = []
    for name in ("_lift", "_restrict"):
        real = getattr(transfer, name)
        monkeypatch.setattr(
            transfer, name, lambda op, subset, name=name, real=real: calls.append(name) or real(op, subset)
        )
    for structure in (INSTANCES["from_B3"](), core.zn_gamma(3), INSTANCES["z4"]()):
        verify.run_all(structure, RunConfig(chain=CHAIN))
    assert (calls.count("_lift"), calls.count("_restrict")) == (PAIRS_LIFTS, PAIRS_RESTRICTS)


@pytest.mark.parametrize("masks,expected", [
    # {0}, {0,1}, {0,2} and the whole carrier: the sum {0,1,2,3} is missing
    ((0b1, 0b11, 0b101, 0xFF), {"check": "lattice-closure"}),
    # {0} and the whole carrier: closed, with the bottom and top members
    ((0b1, 0xFF), None),
    # {0} and {0,1}: closed, but the top member is missing
    ((0b1, 0b11), {"check": "lattice-closure"}),
], ids=["not-closed", "closed", "no-top"])
def test_th38_closure_is_decided_on_the_crisp_ideals(monkeypatch, masks, expected):
    """th3.8 with these crisp ideals of from_B3 installed as those of S on
    its view, and their lifts as those of L: each family is every
    multichain of its crisp ideals, a part of the real one, so th3.8 gets
    to its closure check and decides it on the crisp ideals alone, with no
    scan, as the table oracle decides it on the members of the part."""
    ws = _workspace("from_B3")
    on_s, on_l = ws.level_cuts("S"), ws.level_cuts("L")
    left = ws.left
    crisp_lift = mask_map("lift", left, verify._MAPS["L", "lift"])
    part = [mu for mu in fuzzy_family(ws, "S") if set(cuts_of(on_s, mu)) <= set(masks)]
    monkeypatch.setitem(on_s._crisp_ideals, on_s.canonical("two"), masks)
    monkeypatch.setitem(on_l._crisp_ideals, on_l.canonical("two"), tuple(map(crisp_lift, masks)))
    assert members(on_s, ws.fuzzy_family("S")) == [cuts_of(on_s, mu) for mu in part]
    monkeypatch.setattr(oracles, "fuzzy_family", lambda ws, side, kind="two": part)
    assert table_theorem_3_8_pairs(ws, "two", lambda s: transfer.lift_plusprime(left, s)) == expected
    paths = _record_paths(monkeypatch)
    body = verify.verify_theorem_3_8(ws, "two").body()
    assert body["counterexample"] == expected
    assert paths == ["crisp"]  # the pair checks pass on the crisp pairs
