"""What a run derives is derived once and lives as long as the run: ideal
families shared by kinds with equal absorption images, R's derived objects
shared with L on a commutative base, where R is L, one image array per
transfer map, the semifield predicates and the crisp correspondences."""

import contextlib
import gc
import io
import json
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_boolean_by_chain, build_upper_triangular
from gsl import cli, core, fuzzy, matrix, operators, verify
from gsl.config import RunConfig
from gsl.fuzzy import GradeChain, LevelCuts
from gsl.matrix import build_matrix_gamma
from oracles import family, install_map, members
from gsl.report import FAIL, PASS

CHAIN = GradeChain.of(0, Fraction(1, 2), 1)
KINDS = ("two", "right", "left")

INSTANCES = {
    "boolean": core.boolean_gamma,
    "z4": lambda: core.zn_gamma(4),
    "from_B3": lambda: core.gamma_from_semiring(core.boolean_power_semiring(3)),
    "upper_triangular": build_upper_triangular,
    "boolean[2x2]": lambda: build_matrix_gamma(core.boolean_gamma(), 2).gamma,
}


def _workspace(structure):
    return verify.Workspace(structure, RunConfig(chain=CHAIN))


# ---------------------------------------------------------------------------
# lifetime


def test_a_run_frees_what_it_derived(monkeypatch):
    """After `run_all(from_B3)` returns, its workspace, level-cut views and
    operator semirings are freed as soon as the last reference goes, with
    the cycle collector off: no memo lives at module level or refers back to
    the run."""
    refs = []
    for owner in (verify.Workspace, LevelCuts):
        real = owner.__init__

        def recording(self, *args, real=real):
            real(self, *args)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(owner, "__init__", recording)
    real_build = verify.build_operator_semiring

    def build(*args, **kwargs):
        op = real_build(*args, **kwargs)
        refs.append(weakref.ref(op))
        return op

    monkeypatch.setattr(verify, "build_operator_semiring", build)
    gc.collect()
    gc.disable()
    try:
        reports = verify.run_all(INSTANCES["from_B3"](), RunConfig(chain=CHAIN))
        assert all(r.status != FAIL for r in reports)
        alive = Counter(type(ref()).__name__ for ref in refs if ref() is not None)
        assert alive == {}, alive
    finally:
        gc.enable()
    gc.collect()
    assert len(refs) == 4  # the workspace, its views of S and L, and L (R is L on this commutative base)
    assert all(ref() is None for ref in refs)


def test_repeated_cli_runs_keep_traced_memory_flat(tmp_path):
    """Thirty in-process `gsl verify` runs on z4: after the first ten, the
    traced memory of the process does not grow by what a run derives."""
    path = str(tmp_path / "z4.gsr")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "zn", "--n", "4", "-o", path]) == 0
    argv = ["verify", path, "--suite", "all", "--report", "json"]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    tracemalloc.start()
    try:
        sizes = []
        for _ in range(30):
            run()
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # a run's workspace on z4 holds about 33 kB, so keeping one a run would
    # add about 660 kB over the last 20 runs; the interpreter's and numpy's
    # own caches grow by about 20 kB over them
    assert sizes[-1] - sizes[9] < 200_000, sizes


# ---------------------------------------------------------------------------
# kinds share a family exactly when their absorption images are equal


@pytest.mark.parametrize("instance", ["upper_triangular", "boolean[2x2]"])
def test_kinds_with_different_images_keep_their_own_families(instance):
    """On these non-commutative instances the left, right and two-sided
    absorption images of S differ, so each kind has its own crisp and fuzzy
    family, its own pairs, and each is the family a view of its own
    enumerates for that kind."""
    structure = INSTANCES[instance]()
    ws = _workspace(structure)
    on_s = ws.level_cuts("S")
    assert [on_s.canonical(kind) for kind in KINDS] == list(KINDS)
    ranks = {}
    for kind in KINDS:
        alone = LevelCuts(structure, CHAIN)
        assert ws.crisp_ideals("S", kind) == alone.crisp_ideals(kind)
        ranks[kind] = on_s.rank_array(ws.fuzzy_family("S", kind))
        assert np.array_equal(ranks[kind], alone.rank_array(alone.fuzzy_ideals(kind)))
    assert len({ws.crisp_ideals("S", kind) for kind in KINDS}) == 3
    assert len({ranks[kind].tobytes() for kind in KINDS}) == 3
    assert len({id(ws.pairs("L", "lift", kind)) for kind in KINDS}) == 3


@pytest.mark.parametrize("instance", ["z4", "from_B3"])
def test_kinds_with_equal_images_share_one_family(monkeypatch, instance):
    """On a commutative instance every kind is "two": the families, the
    pairs and the crisp ideals of every kind are the same objects, and
    enumerating all of them on S, L and R closes two closure systems, since
    R's tables are L's and R shares L's families."""
    ws = _workspace(INSTANCES[instance]())
    calls = []
    real = fuzzy._crisp_ideal_masks
    monkeypatch.setattr(fuzzy, "_crisp_ideal_masks", lambda *args: calls.append(args) or real(*args))
    for side in "SLR":
        assert {ws.level_cuts(side).canonical(kind) for kind in KINDS} == {"two"}
        assert len({id(ws.fuzzy_family(side, kind)) for kind in KINDS}) == 1
        assert len({id(ws.crisp_ideals(side, kind)) for kind in KINDS}) == 1
    assert len({id(ws.pairs("L", "lift", kind)) for kind in KINDS}) == 1
    assert len(calls) == 2


class _CountedReads(dict):
    """A dict that counts the reads of its values."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("instance", ["upper_triangular", "z4"])
def test_canonical_compares_the_images_once_per_view(instance):
    """The first `canonical` call decides every kind from the view's
    absorption images; later calls, of any kind, read no image list."""
    view = LevelCuts(INSTANCES[instance](), CHAIN)
    images = view.__dict__["_images"] = _CountedReads(view._images)
    first = view.canonical("left")
    assert images.reads > 0
    images.reads = 0
    assert [view.canonical(kind) for kind in KINDS] == (list(KINDS) if instance == "upper_triangular" else ["two"] * 3)
    assert view.canonical("left") == first and images.reads == 0
    with pytest.raises(ValueError, match="kind must be one of"):
        view.canonical("middle")


# ---------------------------------------------------------------------------
# R shares L's derived objects exactly when the base is commutative, which is
# exactly when R's tables are L's

# the commutative instances, on which R is L
SHARED = {
    "boolean": core.boolean_gamma,
    "z2": lambda: core.zn_gamma(2),
    "z3": lambda: core.zn_gamma(3),
    "z4": INSTANCES["z4"],
    "from_B3": INSTANCES["from_B3"],
}


def _prop34_text(structure) -> str:
    return json.dumps(verify.verify_prop_3_4(_workspace(structure)).body(), sort_keys=True)


@pytest.mark.parametrize("instance", list(SHARED))
def test_r_resolves_to_l_and_sharing_leaves_prop34_unchanged(monkeypatch, instance):
    """On a commutative instance R's tables are L's, so "R" resolves to "L"
    and R's view, families and pairs are L's.  prop3.4's body is the one it
    gives with sharing turned off, by a copy of each default map installed
    for R, which R then calls on its own operands."""
    structure = SHARED[instance]()
    ws = _workspace(structure)
    assert ws.resolve("R") == "L"
    assert ws.level_cuts("R") is ws.level_cuts("L")
    assert ws.fuzzy_family("R") is ws.fuzzy_family("L")
    assert ws.pairs("R", "lift") is ws.pairs("L", "lift")
    shared = _prop34_text(structure)

    copies = []
    for direction in ("lift", "restrict"):
        real = verify._MAPS["R", direction]
        monkeypatch.setitem(verify._MAPS, ("R", direction), lambda op, r, real=real: copies.append(op) or real(op, r))
    alone = _prop34_text(structure)
    assert copies and all(op.side == "right" for op in copies)
    assert alone == shared


@pytest.mark.parametrize("instance,views,enumerations", [
    ("upper_triangular", 3, 7),
    ("boolean[2x2]", 3, 7),
], ids=["upper_triangular", "boolean[2x2]"])
def test_r_resolves_to_itself_when_its_tables_differ(monkeypatch, instance, views, enumerations):
    """On these non-commutative instances R is L with its product reversed,
    so its tables differ from L's, "R" stays "R", and a run builds a view
    of S, L and R and enumerates their families as it did before R could
    share L's."""
    ws = _workspace(INSTANCES[instance]())
    assert ws.resolve("R") == "R"
    assert ws.level_cuts("R") is not ws.level_cuts("L")
    built, closures = [], []
    real_init, real_masks = LevelCuts.__init__, fuzzy._crisp_ideal_masks
    monkeypatch.setattr(LevelCuts, "__init__", lambda view, *args: built.append(args) or real_init(view, *args))
    monkeypatch.setattr(fuzzy, "_crisp_ideal_masks", lambda *args: closures.append(args) or real_masks(*args))
    reports = verify.run_all(INSTANCES[instance](), RunConfig(chain=CHAIN))
    assert all(r.status != FAIL for r in reports)
    assert (len(built), len(closures)) == (views, enumerations)


# with the 2 x 2 matrix instance of z2
RUN_INSTANCES = {**INSTANCES, "z2[2x2]": lambda: build_matrix_gamma(core.zn_gamma(2), 2).gamma}


def _same_tables(left, right) -> bool:
    """Whether R has L's action rows, pair classes and semiring tables."""
    same = np.array_equal
    return (same(right.value_rows, left.value_rows) and same(right.pair_rows, left.pair_rows)
            and all(map(same, right.semiring.tables, left.semiring.tables)))


def test_r_resolves_to_l_exactly_when_its_tables_are_ls(enum_instances):
    """`resolve` reads commutativity alone; an explicitly built R has L's
    tables on exactly the instances where "R" resolves to "L"."""
    structures = [
        *enum_instances,
        *(core.zn_gamma(n) for n in range(5, 9)),
        *(core.gamma_from_semiring(core.boolean_power_semiring(k)) for k in range(1, 5)),
        build_boolean_by_chain(3),
        INSTANCES["boolean[2x2]"](),
        RUN_INSTANCES["z2[2x2]"](),
    ]
    resolved = Counter()
    for g in structures:
        left, right = (operators.build_operator_semiring(g, side) for side in ("left", "right"))
        side = verify.Workspace(g).resolve("R")
        assert (side == "L") == _same_tables(left, right), g.name
        resolved[side] += 1
    assert resolved["L"] and resolved["R"] == 3  # upper_triangular and the two matrix instances


@pytest.mark.parametrize("instance,builds", [
    ("z4", 0), ("from_B3", 0), ("upper_triangular", 1), ("boolean[2x2]", 1), ("z2[2x2]", 1),
])
def test_a_run_builds_r_of_the_base_only_when_it_is_not_l(monkeypatch, instance, builds):
    """`run_all` builds R of the base once where the product is not
    commutative, and never where it is; L is built once either way."""
    structure, calls = RUN_INSTANCES[instance](), []
    real = operators.build_operator_semiring

    def counting(g, side, **kwargs):
        calls.append((g, side))
        return real(g, side, **kwargs)

    for module in (verify, matrix):
        monkeypatch.setattr(module, "build_operator_semiring", counting)
    verify.run_all(structure, RunConfig(chain=CHAIN))
    sides = [side for g, side in calls if g is structure]
    assert (sides.count("left"), sides.count("right")) == (1, builds)


def _left_identities():
    """The gamma-semiring of ({0, 1, 2}, max, x*y = y for x != 0): every
    nonzero element is a left identity and none a right one, so the product
    is not commutative, L has a unity and R, with 3 elements to L's 2, has
    none."""
    join = tuple(tuple(max(i, j) for j in range(3)) for i in range(3))
    mul = tuple(tuple(j if i else 0 for j in range(3)) for i in range(3))
    return core.gamma_from_semiring(core.Semiring("left_identities", ("0", "1", "2"), join, mul))


def test_a_non_commutative_base_reads_r_for_its_unity_and_its_matrix_iso():
    """Where R is not L, the right unity is R's and matrix-iso[right] runs
    on R: at n = 1 the matrix instance is the base, so its operator
    semirings have L's 2 elements and R's 3."""
    g, config = _left_identities(), RunConfig(chain=CHAIN, n=1)
    ws = verify.Workspace(g, config)
    assert ws.resolve("R") == "R" and (ws.left_unity, ws.right_unity) == (True, False)
    reports = {r.suite: r for r in verify.run_all(g, config)}
    assert {"left unity: present", "right unity: absent"} <= set(reports["prop3.4"].notes)
    isos = [reports[f"matrix-iso[{side}]"] for side in ("left", "right")]
    assert [(r.status, r.counts["operator_elements"]) for r in isos] == [(PASS, 2), (PASS, 3)]


def test_a_closure_cap_names_l_in_every_gated_suite():
    """On a commutative base R is L, so a closure cap below |L| gates every
    suite that needs L or R with L's closure, prop3.4 included."""
    reports = verify.run_all(core.zn_gamma(3), RunConfig(closure_cap=2))
    gated = {r.suite: r.notes[0] for r in reports if "closure exceeds cap" in r.notes[0]}
    assert list(gated) == [
        "prop3.4", "th3.8[two]", "th3.8[right]", "lemmas", "th3.15[two]", "th3.15[right]", "th3.17",
        "transfer-semifield",
    ]
    assert set(gated.values()) == {"z3/left: closure exceeds cap 2 elements"}


def _clause_notes(body, starred: bool) -> list[str]:
    """prop3.4's "clause <id>: <status>" notes of R's rows (starred) or L's."""
    return [
        note for note in body["notes"]
        if note.startswith("clause ") and note.split(":")[0].endswith("*") == starred
    ]


@pytest.mark.parametrize("instance", ["z4", "from_B3"])
def test_a_map_installed_for_r_alone_changes_only_the_starred_rows(monkeypatch, instance):
    """A lift installed for R alone, one that sends every mask of S to the
    empty mask, and so every fuzzy subset to the empty one, breaks R's clauses only: the starred rows change,
    L's rows and the ideal counts do not, and the first failure is i*."""
    structure = INSTANCES[instance]()
    before = verify.verify_prop_3_4(_workspace(structure)).body()
    install_map(monkeypatch, "R", "lift", lambda op, mask: 0)
    ws = _workspace(structure)
    after = verify.verify_prop_3_4(ws).body()
    assert ws.resolve("R") == "L"
    assert before["status"] != FAIL and after["status"] == FAIL
    assert after["counterexample"]["clause"] == "i*"
    assert _clause_notes(after, False) == _clause_notes(before, False)
    assert _clause_notes(after, True) != _clause_notes(before, True)
    assert {k: v for k, v in after["counts"].items() if k != "checks"} == {
        k: v for k, v in before["counts"].items() if k != "checks"}


def _masks_of(bits) -> list[int]:
    """The masks of the rows of a 0/1 bits array."""
    return [sum(1 << x for x, bit in enumerate(row) if bit) for row in bits.tolist()]


@pytest.mark.parametrize("instance", ["boolean", "z4", "from_B3"])
def test_one_map_object_for_both_sides_sees_each_operand_once(monkeypatch, instance):
    """A recorder installed as one object for L and R, per direction, is
    handed by prop3.4 each mask of its source view once for both sides
    together: the lifts the masks of S, the restrictions those of L, which
    R shares; and the starred rows are L's.  R's maps then read L's image
    arrays: mapping those families again through R hands the recorder
    nothing."""
    ws = _workspace(SHARED[instance]())
    seen = {}
    for direction in ("lift", "restrict"):
        real = verify._MAPS["L", direction]

        def recording(over, bits, direction=direction, real=real):
            seen.setdefault(direction, []).extend(_masks_of(bits))
            return real(over, bits)

        monkeypatch.setitem(verify._MAPS, ("L", direction), recording)
        monkeypatch.setitem(verify._MAPS, ("R", direction), recording)
    notes = verify.verify_prop_3_4(ws).notes
    for direction, source in (("lift", "S"), ("restrict", "L")):
        assert sorted(seen[direction]) == sorted(ws.level_cuts(source)._masks)
    calls = {direction: len(masks) for direction, masks in seen.items()}
    ws.transfer("R", "lift")(ws.fuzzy_family("S"))
    ws.transfer("R", "restrict")(ws.fuzzy_family("R"))
    assert {direction: len(masks) for direction, masks in seen.items()} == calls
    clauses = [note for note in notes if note.startswith("clause ")]
    left, right = clauses[: len(clauses) // 2], clauses[len(clauses) // 2 :]
    assert right == [note.replace(":", "*:", 1) for note in left]


# ---------------------------------------------------------------------------
# one image array per transfer map


def _pool(structure, side, direction):
    """Operands for `transfer(side, direction)`, as the cut tuples of
    subsets of its source, from a workspace of their own: the fuzzy ideals
    of every kind there, the images of the other direction's map (which live
    there too), and the sums and meets of the two-sided family."""
    ws = _workspace(structure)
    source = "S" if direction == "lift" else side
    view = ws.level_cuts(source)
    other = ws.transfer(side, "restrict" if direction == "lift" else "lift")
    rows = [ws.fuzzy_family(source, kind) for kind in KINDS]
    rows.append(other(ws.fuzzy_family(side if direction == "lift" else "S")))
    family = ws.fuzzy_family(source)
    for table in (view.sum_table(family, family), view.meet_table(family, family)):
        rows.append(table.reshape(-1, table.shape[-1]))
    return members(view, np.concatenate(rows))


_POOLS = {}


def _cached_pool(instance, side, direction):
    key = instance, side, direction
    if key not in _POOLS:
        _POOLS[key] = INSTANCES[instance](), _pool(INSTANCES[instance](), side, direction)
    return _POOLS[key]


@pytest.mark.parametrize("instance", list(INSTANCES))
@pytest.mark.parametrize("side,direction", [(s, d) for s in "LR" for d in ("lift", "restrict")])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_memoised_map_equals_one_fresh_call(instance, side, direction, data):
    """Random batches of operands, repeats included, mapped one after
    another through a workspace's image array give what one call of a
    fresh workspace's map gives on all of them; and the map is handed each
    distinct mask once, however the batches overlap."""
    structure, pool = _cached_pool(instance, side, direction)
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=40)
    batches = data.draw(st.lists(picks, min_size=1, max_size=6))
    source = "S" if direction == "lift" else side
    target = side if direction == "lift" else "S"

    seen = []
    real = verify._MAPS[side, direction]

    def recording(over, bits):
        seen.extend(_masks_of(bits))
        return real(over, bits)

    ws = _workspace(structure)
    mapped = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(verify._MAPS, (side, direction), recording)
        transfer = ws.transfer(side, direction)
        for batch in batches:
            ids = family(ws.level_cuts(source), [pool[k] for k in batch])
            mapped.extend(members(ws.level_cuts(target), transfer(ids)))
    assert len(seen) == len(set(seen))

    fresh = _workspace(structure)
    every = [pool[k] for batch in batches for k in batch]
    once = fresh.transfer(side, direction)(family(fresh.level_cuts(source), every))
    assert mapped == members(fresh.level_cuts(target), once)


def test_each_map_is_handed_at_most_the_masks_of_its_source_view(monkeypatch):
    """prop3.4 and th3.8 on from_B5 over a 9-grade chain, the cap lifted:
    each side has 59,049 fuzzy ideals, yet each map object, counted once
    for L and R, is handed no more rows than its source view has masks,
    because a map acts cut by cut and is handed each mask once."""
    chain = GradeChain.parse(",".join(f"{k}/8" for k in range(9)))
    from_b5 = core.gamma_from_semiring(core.boolean_power_semiring(5))
    ws = verify.Workspace(from_b5, RunConfig(chain=chain, enum_cap=9**31))
    handed, wrappers = Counter(), {}
    for key, real in verify._MAPS.items():
        if real not in wrappers:

            def counting(over, bits, real=real):
                handed[real] += len(bits)
                return real(over, bits)

            wrappers[real] = counting
        monkeypatch.setitem(verify._MAPS, key, wrappers[real])
    assert verify.verify_prop_3_4(ws).status != FAIL
    for kind in ("two", "right"):
        assert verify.verify_theorem_3_8(ws, kind).status != FAIL
    assert len(ws.fuzzy_family("S")) == len(ws.fuzzy_family("L")) == 59049 and ws.resolve("R") == "L"
    lift, restrict = verify._lift, verify._restrict
    assert set(handed) == {lift, restrict}
    assert handed[lift] <= len(ws.level_cuts("S")._masks)
    assert handed[restrict] <= len(ws.level_cuts("L")._masks)


# ---------------------------------------------------------------------------
# predicates and correspondences, once per run


def _count_verify_calls(monkeypatch, owner, name, calls):
    """Count calls of owner.name made from `gsl.verify`, by function and
    argument identity."""
    real = getattr(owner, name)

    def counting(*args):
        if sys._getframe(1).f_globals.get("__name__") == "gsl.verify":
            calls[(name, *map(id, args))] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("instance", ["boolean", "z4", "from_B3", "upper_triangular"])
def test_one_run_decides_each_predicate_once(monkeypatch, instance):
    """th3.17, th3.18 and transfer-semifield share the run's predicates and
    fuzzy semifield conditions, and the lemmas and th3.15 share the
    operator semiring's image of each mask: each is computed once per
    structure (or mask) in a run."""
    calls = Counter()
    for name in ("is_commutative", "zdf_witness", "is_gamma_semifield", "mul_commutative", "is_semifield"):
        _count_verify_calls(monkeypatch, core, name, calls)
    _count_verify_calls(monkeypatch, verify, "_fuzzy_semifield_condition", calls)
    for name in ("_image_contained", "_pair_fixed"):
        real = getattr(operators.OperatorSemiring, name)
        monkeypatch.setattr(
            operators.OperatorSemiring, name,
            lambda op, mask, name=name, real=real: calls.update([(name, id(op), mask)]) or real(op, mask),
        )
    reports = verify.run_all(INSTANCES[instance](), RunConfig(chain=CHAIN))
    assert all(r.status != FAIL for r in reports)
    assert calls and max(calls.values()) == 1, calls
    names = {key[0] for key in calls}
    assert {"_image_contained", "_pair_fixed", "mul_commutative"} <= names
