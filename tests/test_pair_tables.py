"""prop3.4's pair clauses and th3.8's pair and lattice-closure checks against
the two references in `oracles.py`.

The suites decide a pair check on crisp cuts when the family and the map
allow it (`verify._Pairs.crisp`), and otherwise, or for the witness, scan
the pairs in row blocks.  One oracle scans the pairs one at a time in
row-major order with the `Fraction` lattice operations; the other reads
every pair off N x N family tables at once.  All see the same transfer
maps, here broken by permuting or merging their images within the family
of fuzzy ideals, so the maps keep landing on ideals and the pair checks are
the ones that see the damage.  The suites call the maps on rank arrays
(`verify._MAPS`); a broken map on subsets goes in through
`oracles.rank_map`, and the oracles read the installed maps back as maps
on subsets (`oracles.subset_map`).  Such maps do not act cut by cut, so the
suites fall back to the scan; a map that does act cut by cut and still
breaks a clause fails on the crisp cuts.
"""

import pytest

import oracles
from oracles import (
    cuts_of,
    family,
    fuzzy_family,
    members,
    install_map,
    naive_fuzzy_sum,
    naive_pair_clause_rows,
    naive_theorem_3_8_pairs,
    subset_map,
    table_pair_clause_rows,
    table_theorem_3_8_pairs,
)
from gsl import core, transfer, verify
from gsl.config import RunConfig
from gsl.fuzzy import CrispSubset, GradeChain, LevelCuts, characteristic
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
    for side, lift, restrict in (
        ("L", transfer.lift_plusprime, transfer.restrict_plus),
        ("R", transfer.lift_starprime, transfer.restrict_star),
    ):
        install_map(monkeypatch, CHAIN, side, "lift", lambda op, s, real=lift: real(op, before.get(s.grades, s)))
        install_map(
            monkeypatch, CHAIN, side, "restrict",
            lambda op, m, real=restrict: (lambda r: after.get(r.grades, r))(real(op, m)),
        )


def _maps(ws, side):
    """The lift and the restriction between S and `side` as one-argument
    maps, through the maps the suites call (`verify._MAPS`), for the
    oracles."""
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
    the oracle's pair rows in place of the suite's is the suite's.  The
    unbroken maps are decided on crisp cuts; a broken map is not cut-wise,
    so each clause it enters falls back to the scan.  prop3.4 decides a
    side's rows once per run, so the run with the oracle's rows is a run
    of its own."""
    ws = _workspace(instance)
    _perturb(monkeypatch, fuzzy_family(ws, "S"), *PERTURBATIONS[perturbation])
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

    actual = verify.verify_prop_3_4(ws).body()
    suite_paths = list(paths)
    monkeypatch.setattr(verify, "_clause_rows", oracle_rows)
    expected = verify.verify_prop_3_4(_workspace(instance)).body()
    assert actual == expected
    assert len(compared) == 2  # the L side and the R side
    for rows, oracle, table in compared:
        assert rows == oracle == table
    lift_moves, restrict_moves = PERTURBATIONS[perturbation]
    # per side: iv, v and vi on the lift, ix on the restriction
    assert suite_paths == 2 * [
        *3 * ["scan" if lift_moves else "crisp"], "scan" if restrict_moves else "crisp"
    ]
    if perturbation != "none":
        assert any(status == FAIL for rows, _, _ in compared for _, status, _, _ in rows)


@pytest.mark.parametrize("cells", [1, 100])
@pytest.mark.parametrize("perturbation", PERTURBATIONS)
def test_scan_blocks_keep_the_row_major_witness(monkeypatch, perturbation, cells):
    """With blocks of one row (1 cell) or a few rows (100 cells), the scan
    gives from_B3's pair rows as the table oracle does, and th3.8's
    counterexample too where the lift stays a bijection."""
    monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
    ws = _workspace("from_B3")
    lift_moves, restrict_moves = PERTURBATIONS[perturbation]
    _perturb(monkeypatch, fuzzy_family(ws, "S"), lift_moves, restrict_moves)
    lift, restrict = _maps(ws, "L")
    rows = _pair_rows(verify._clause_rows(ws, "L", True, True))
    assert rows == table_pair_clause_rows(ws, "L", lift, restrict)
    if sorted(lift_moves) == sorted(lift_moves.values()):
        expected = table_theorem_3_8_pairs(ws, "two", lift)
        assert verify.verify_theorem_3_8(ws, "two").body() == _th38_body(ws, "two", expected)


def _cut_wise(ws, side, crisp_map):
    """A lift from S to `side` that acts cut by cut: each cut I of the
    operand goes to crisp_map(I), a mask of the side."""
    on_s, on_op = LevelCuts(ws.structure, CHAIN), LevelCuts(ws.structure_on(side), CHAIN)
    return lambda sigma: on_op.subset(family(on_op, [tuple(map(crisp_map, cuts_of(on_s, sigma)))])[0])


def test_cut_wise_map_that_breaks_iv_fails_on_the_crisp_cuts(monkeypatch):
    """On from_B3 the lift that sends the full ideal where the true lift does
    and every other crisp ideal where the bottom goes keeps inclusions and
    meets but not sums (two proper ideals can sum to the full one).  It is
    cut-wise, so iv fails on the crisp cuts, and the witness scan gives the
    oracles' witness."""
    ws = _workspace("from_B3")
    left, side = ws.left, "L"
    on_s, on_op = LevelCuts(ws.structure, CHAIN), LevelCuts(ws.structure_on(side), CHAIN)
    full, real_lift = (1 << len(ws.structure.S)) - 1, transfer.lift_plusprime

    def true_image(mask):
        ideal = CrispSubset.of_indices(ws.structure, [x for x in range(mask.bit_length()) if mask >> x & 1])
        return cuts_of(on_op, real_lift(left, characteristic(ideal)))[0]

    bottom = min(cuts_of(on_s, mu)[0] for mu in fuzzy_family(ws, "S"))
    lift = _cut_wise(ws, side, lambda mask: true_image(full if mask == full else bottom))
    install_map(monkeypatch, CHAIN, side, "lift", lambda op, sigma: lift(sigma))
    restrict = lambda mu: transfer.restrict_plus(left, mu)

    checks = []
    real = verify._failing_pair

    def recording(p, check):
        checks.append(p.crisp is not None)
        return real(p, check)

    monkeypatch.setattr(verify, "_failing_pair", recording)
    rows = _pair_rows(verify._clause_rows(ws, side, True, True))
    assert checks == [True] * 4  # every pair clause had the crisp map
    assert [status for _, status, _, _ in rows] == [FAIL, PASS, PASS, PASS]
    oracle = naive_pair_clause_rows(fuzzy_family(ws, "S"), fuzzy_family(ws, side), lift, restrict)
    assert rows == oracle == table_pair_clause_rows(ws, side, lift, restrict)


def test_basis_needs_masks_closed_under_sum():
    """Over ({0,1}^3, or, and) on the chain {0, 1}: the ideals {0}, {0,1} and
    {0,2} are every one-cut multichain of themselves, but {0,1} + {0,2} is
    {0,1,2,3}, which they lack; adding it makes a basis."""
    from_b3 = INSTANCES["from_B3"]()
    cuts = LevelCuts(from_b3, GradeChain.parse("0,1"))
    bottom, one, two, three = 0b1, 0b11, 0b101, 0b1111
    assert cuts.basis(family(cuts, [(bottom,), (one,), (two,)])) is None
    ids = family(cuts, [(bottom,), (one,), (two,), (three,)])
    assert sorted(mask for (mask,) in members(cuts, cuts.basis(ids)[:, None])) == [bottom, one, two, three]
    # two cuts: every multichain of the masks, one missing, one not descending
    cuts = LevelCuts(from_b3, CHAIN)
    assert cuts.basis(family(cuts, [(bottom, bottom), (one, bottom), (one, one)])) is not None
    assert cuts.basis(family(cuts, [(bottom, bottom), (one, bottom)])) is None
    assert cuts.basis(family(cuts, [(bottom, bottom), (bottom, one), (one, one)])) is None


def test_family_not_closed_under_sum_falls_back(monkeypatch):
    """prop3.4's pair rows over the part of from_B3's family whose cuts are
    {0}, {0,1} or {0,2}: the sum of two members is no member, so no pair
    clause is decided on crisp cuts, and the rows are the oracles'."""
    ws = _workspace("from_B3")
    on_s, real_ideals = ws.level_cuts("S"), ws.fuzzy_family
    kept = [cuts for cuts in members(on_s, real_ideals("S")) if set(cuts) <= {0b1, 0b11, 0b101}]
    part_ids = family(on_s, kept)
    monkeypatch.setattr(
        ws, "fuzzy_family", lambda side, kind="two": part_ids if side == "S" else real_ideals(side, kind)
    )
    real_family = oracles.fuzzy_family
    part = [mu for mu in real_family(ws, "S") if cuts_of(on_s, mu) in kept]
    assert len(part) == 5
    monkeypatch.setattr(
        oracles, "fuzzy_family", lambda ws, side, kind="two": part if side == "S" else real_family(ws, side, kind)
    )
    paths = _record_paths(monkeypatch)
    lift, restrict = _maps(ws, "L")
    rows = _pair_rows(verify._clause_rows(ws, "L", True, True))
    assert paths == ["scan"] * 3 + ["crisp"]  # the family of L is whole
    assert rows == naive_pair_clause_rows(part, fuzzy_family(ws, "L"), lift, restrict)
    assert rows == table_pair_clause_rows(ws, "L", lift, restrict)


def _th38_body(ws, kind, counterexample):
    n = len(fuzzy_family(ws, "S", kind))
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
    ideals = fuzzy_family(ws, "S", kind)
    _perturb(monkeypatch, ideals, TH38_LIFTS[perturbation], {})
    lift, _ = _maps(ws, "L")
    expected = naive_theorem_3_8_pairs(ideals, lift)
    assert (expected is None) == (perturbation == "none")
    assert expected == table_theorem_3_8_pairs(ws, kind, lift)
    paths = _record_paths(monkeypatch)
    assert verify.verify_theorem_3_8(ws, kind).body() == _th38_body(ws, kind, expected)
    assert paths == ["crisp" if perturbation == "none" else "scan"]


@pytest.mark.parametrize("kind", ["two", "right"])
@pytest.mark.parametrize("instance,swap", [("z4", (4, 5)), ("from_B3", (2, 7))])
def test_th38_reports_the_first_pair_not_the_first_check(monkeypatch, instance, swap, kind):
    """An earlier pair fails sum-homomorphism while a later pair fails
    inclusion-both-ways, which comes first in the check order: the earlier
    pair, with the check it fails, is the counterexample."""
    ws = _workspace(instance)
    ideals = fuzzy_family(ws, "S", kind)
    i, j = swap
    _perturb(monkeypatch, ideals, {i: j, j: i}, {})
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
    assert verify.verify_theorem_3_8(ws, kind).body() == _th38_body(ws, kind, expected)


def _record_calls(monkeypatch) -> list:
    """Record (side, direction, operand ranks) for every transfer-map call
    the suites make."""
    calls = []
    for key, real in verify._MAPS.items():

        def recording(over, ranks, key=key, real=real):
            calls.append((*key, list(map(tuple, ranks.tolist()))))
            return real(over, ranks)

        monkeypatch.setitem(verify._MAPS, key, recording)
    return calls


def _ranks(ws, side, kind="two"):
    """The ranks of the fuzzy ideals of a family, in enumeration order."""
    view = ws.level_cuts(side)
    return list(map(tuple, view.rank_array(ws.fuzzy_family(side, kind)).tolist()))


@pytest.mark.parametrize("instance", INSTANCES)
def test_pair_checks_call_each_map_once_per_operand(monkeypatch, instance):
    """prop3.4, th3.8 of both kinds and the lemmas map whole families, and
    each map is called only on operands it has not mapped in the run, each
    once.  prop3.4 makes two calls a side, on the ideals of S and of the
    side: on these commutative instances with both unities the lifts of the
    ideals of S are the ideals of the side and the restrictions those of S,
    so the round trips are lookups.  th3.8[two] after prop3.4 makes none,
    since prop3.4 lifted every fuzzy ideal of S; nor does th3.8[right],
    since the right ideals are the two-sided ones here; nor do the lemmas,
    since each characteristic function (I, ..., I) is a fuzzy ideal."""
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
    assert all(len(set(operands)) == len(operands) for _, _, operands in calls)
    side, direction, operands = calls[0]
    assert (side, direction, sorted(operands)) == ("L", "lift", sorted(_ranks(ws, "S")))


def test_th38_right_lifts_the_right_family_in_one_call(monkeypatch, upper_triangular):
    """On the non-commutative upper-triangular instance, th3.8[right] after
    prop3.4 lifts, in one call, the fuzzy right ideals of S that prop3.4
    did not lift: the 27 that are not two-sided."""
    ws = verify.Workspace(upper_triangular, RunConfig(chain=CHAIN))
    calls = _record_calls(monkeypatch)
    verify.verify_prop_3_4(ws)
    del calls[:]
    verify.verify_theorem_3_8(ws, "right")
    two, right = _ranks(ws, "S"), _ranks(ws, "S", "right")
    assert set(two) & set(right) and set(right) - set(two)
    [(side, direction, operands)] = calls
    assert (side, direction, sorted(operands)) == ("L", "lift", sorted(set(right) - set(two)))
    assert len(operands) == 27


def test_a_wrapper_installed_after_the_workspace_sees_every_call(monkeypatch):
    """The workspace looks each map up in `verify._MAPS` at call time, so a
    wrapper installed after the workspace and its lift are built still sees
    every lift, the first on the fuzzy ideals of S.  Each map object gets a
    memo of its own: a wrapper installed after the memo of the real maps
    has filled sees the operands the suite maps anew, each once: the round
    trips of a second prop3.4, whose families' images the workspace keeps,
    restrict the ideals of L and lift those of S again."""
    ws = _workspace("z4")
    ws.transfer("L", "lift")
    calls = _record_calls(monkeypatch)
    assert verify.verify_prop_3_4(ws).status == PASS
    lifts = [operands for side, direction, operands in calls if (side, direction) == ("L", "lift")]
    assert sorted(lifts[0]) == sorted(_ranks(ws, "S"))

    later = _record_calls(monkeypatch)
    assert verify.verify_prop_3_4(ws).status == PASS
    for side in "LR":
        seen = {
            direction: [row for s, d, rows in later if (s, d) == (side, direction) for row in rows]
            for direction in ("lift", "restrict")
        }
        assert sorted(seen["lift"]) == sorted(_ranks(ws, "S"))
        assert sorted(seen["restrict"]) == sorted(_ranks(ws, side))


# per-subset transfer-map calls (`gsl.transfer`) of run_all over the `pairs`
# workload's instances: the suites map rank arrays, not subsets
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


@pytest.mark.parametrize("keep,expected", [
    # cuts among {0}, {0,1} and {0,2}: their sum {0,1,2,3} is missing
    (lambda cuts: set(cuts) <= {0b1, 0b11, 0b101}, {"check": "lattice-closure"}),
    # bottom and top only: closed, though not every multichain of the two
    (lambda cuts: cuts in {(0b1, 0b1), (0xFF, 0xFF)}, None),
], ids=["not-closed", "closed"])
def test_th38_closure_without_a_basis_is_scanned(monkeypatch, keep, expected):
    """th3.8 over a part of from_B3's ideals and their lifts as the ideals of
    L: the part has no basis, so its closure under sum and intersection is
    decided by the scan, as the table oracle decides it."""
    ws = _workspace("from_B3")
    on_s, on_l = ws.level_cuts("S"), ws.level_cuts("L")
    left = ws.left
    lift = lambda s: transfer.lift_plusprime(left, s)
    kept = [cuts for cuts in members(on_s, ws.fuzzy_family("S")) if keep(cuts)]
    lifted = sorted((lift(on_s.subset(row)) for row in family(on_s, kept)), key=lambda mu: mu.grades)
    families = {"S": family(on_s, kept), "L": family(on_l, [cuts_of(on_l, mu) for mu in lifted])}
    monkeypatch.setattr(ws, "fuzzy_family", lambda side, kind="two": families[side])
    part = [mu for mu in fuzzy_family(ws, "S") if cuts_of(on_s, mu) in kept]
    monkeypatch.setattr(oracles, "fuzzy_family", lambda ws, side, kind="two": part)
    assert on_s.basis(families["S"]) is None
    assert table_theorem_3_8_pairs(ws, "two", lift) == expected
    paths = _record_paths(monkeypatch)
    body = verify.verify_theorem_3_8(ws, "two").body()
    assert body["counterexample"] == expected
    assert paths == ["scan", "scan"]  # the pair checks, then the closure
