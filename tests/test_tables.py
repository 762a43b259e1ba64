"""The structures' read-only `tables`, the one copy of their tables: one
array per table, copied in by the one constructor from nested sequences or
arrays, built once per structure, read back by the nested-tuple views, and
read by the validators' flat-take distributive masks."""

import itertools

import numpy as np
import pytest

from conftest import build_boolean_by_chain, replaced
from gsl import cli, core, verify
from gsl.matrix import build_matrix_gamma, matrix_semiring
from gsl.operators import SIDES, build_operator_semiring
from oracles import broadcast_distributive_masks

# the constructor arguments after the name: carriers, then tables by view name
CARRIERS = {core.GammaSemiring: ("S", "G"), core.Semiring: ("carrier",)}
TABLES = {core.GammaSemiring: ("addS", "addG", "prod"), core.Semiring: ("add", "mul")}


def _stock():
    gammas = [
        core.boolean_gamma(),
        core.zn_gamma(2),
        core.zn_gamma(3),
        core.zn_gamma(4),
        core.gamma_from_semiring(core.boolean_power_semiring(3)),
    ]
    semirings = [core.boolean_semiring(), core.zn_semiring(4), core.boolean_power_semiring(3)]
    ops = [build_operator_semiring(g, side).semiring for g in gammas for side in SIDES]
    matrices = [
        build_matrix_gamma(gammas[0], 2).gamma,
        build_matrix_gamma(gammas[1], 2).gamma,
        matrix_semiring(semirings[0], 2),
        matrix_semiring(ops[0], 2),
    ]
    return gammas + semirings + ops + matrices


STRUCTURES = _stock()


def _args(x, nested: bool) -> dict:
    """x's constructor arguments after the name, by name, with the tables as
    its nested-tuple views or as writable int64 arrays."""
    views = [getattr(x, k) for k in TABLES[type(x)]]
    tables = views if nested else [np.array(view) for view in views]
    return {**{k: getattr(x, k) for k in CARRIERS[type(x)]}, **dict(zip(TABLES[type(x)], tables))}


def _gamma(x) -> bool:
    return isinstance(x, core.GammaSemiring)


@pytest.fixture(params=STRUCTURES, ids=lambda x: x.name)
def structure(request):
    return request.param


def test_tables_are_read_only_arrays_of_the_tuple_fields(structure):
    tables, views = structure.tables, [getattr(structure, k) for k in TABLES[type(structure)]]
    carriers = [getattr(structure, k) for k in CARRIERS[type(structure)]]
    assert structure.tables is tables and len(tables) == len(views)
    for array, view in zip(tables, views):
        assert not array.flags.writeable
        assert array.dtype == core._index_dtype(*map(len, carriers))
        assert np.array_equal(array, np.asarray(view))
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    assert all(type(v) is int for row in views[0] for v in row)
    assert all(getattr(structure, k) is view for k, view in zip(TABLES[type(structure)], views))  # kept


def test_either_constructor_gives_the_same_structure(structure):
    by_tuples = type(structure)(structure.name, **_args(structure, nested=True))
    arrays = _args(structure, nested=False)
    by_arrays = type(structure)(structure.name, **arrays)
    # what a structure stores: its name, its ids and its tables, once
    assert vars(by_arrays).keys() == {"name", *CARRIERS[type(structure)], "tables"}
    assert by_tuples == by_arrays == structure
    assert hash(by_tuples) == hash(by_arrays) == hash(structure)
    for ours, theirs in zip(by_arrays.tables, by_tuples.tables):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    # the caller's arrays are copied, not frozen
    for name, table in zip(TABLES[type(structure)], by_arrays.tables):
        assert arrays[name].flags.writeable and not np.shares_memory(arrays[name], table)


def test_a_name_or_one_cell_apart_is_another_structure():
    g = core.boolean_gamma()
    prod = g.tables[2].copy()
    prod[1, 1, 1] = 0
    for other in (replaced(g, name="other"), replaced(g, prod=prod)):
        assert other != g


def _built(monkeypatch) -> list:
    """Every structure the constructors build from now on, in order."""
    built = []
    for cls in CARRIERS:
        def spy(self, *args, real=cls.__init__, **kwargs):
            real(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", spy)
    return built


def test_one_run_builds_each_structures_arrays_once(monkeypatch):
    g = core.boolean_gamma()  # its arrays are built by the generator
    built = _built(monkeypatch)
    verify.run_all(g)
    names = [x.name for x in built]
    assert "boolean" not in names
    # L and the matrix instance once, and not R, which is L on this
    # commutative base; matrix-iso builds one operator semiring of the
    # (non-commutative) matrix instance per side
    for name in ("boolean::L", "boolean[2x2]", "boolean[2x2]::L", "boolean[2x2]::R"):
        assert names.count(name) == 1, names
    assert "boolean::R" not in names


def test_a_run_and_a_matrix_pass_build_no_product_view(monkeypatch, tmp_path, capsys):
    """The suites read `tables`: neither `run_all(boolean)` nor the
    benchmark's `matrix` pass (`gsl verify --suite all` on boolean and z2,
    n = 2) builds a `prod` or `mul` view."""
    g = core.boolean_gamma()
    built = _built(monkeypatch)
    verify.run_all(g)
    for name, argv in (("boolean", ("gen", "boolean")), ("z2", ("gen", "zn", "--n", "2"))):
        path = str(tmp_path / f"{name}.gsr")
        assert cli.main([*argv, "-o", path]) == 0
        assert cli.main(["verify", path, "--suite", "all", "--chain", "0,1/2,1", "--n", "2", "--report", "json"]) == 0
    capsys.readouterr()
    assert len(built) > 10
    assert not [x.name for x in (g, *built) if {"prod", "mul"} & vars(x).keys()]


GB, BOOL_SR = core.boolean_gamma(), core.boolean_semiring()


@pytest.mark.parametrize(
    "x, field, value, text",
    [
        (GB, "addS", [[0, 1], [1, 1], [1, 1]], "add_S: expected 2 rows, got 3"),
        (GB, "addS", [[0, 1, 1], [1, 1, 1]], "add_S: row 0 has 3 entries, expected 2"),
        (GB, "addS", [[0, 1], [1, 7]], "add_S: entry 7 out of range [0, 2)"),
        (GB, "addS", [[0, -1], [1, 1]], "add_S: entry -1 out of range [0, 2)"),
        (GB, "addG", [[0, 1], [1, 2]], "add_G: entry 2 out of range [0, 2)"),
        (GB, "prod", np.zeros((3, 2, 2), dtype=int), "product: expected 2 planes, got 3"),
        (GB, "prod", np.zeros((2, 1, 2), dtype=int), "product: plane 0 has 1 rows, expected 2"),
        (GB, "prod", np.zeros((2, 2, 3), dtype=int), "product: ragged row in plane 0"),
        (GB, "prod", np.full((2, 2, 2), 5), "product: entry 5 out of range [0, 2)"),
        (GB, "S", ("0", "0"), "S: duplicate element ids"),
        (BOOL_SR, "add", [[0, 1]], "add: expected 2 rows, got 1"),
        (BOOL_SR, "mul", [[0, 0], [0, 3]], "mul: entry 3 out of range [0, 2)"),
        (BOOL_SR, "carrier", (), "carrier: empty carrier"),
    ],
)
def test_malformed_tables_raise_the_same_text_from_either_constructor(x, field, value, text):
    for nested in (True, False):
        if field in TABLES[type(x)]:
            value = np.asarray(value).tolist() if nested else np.array(value)
        with pytest.raises(core.StructuralError) as err:
            type(x)(x.name, **{**_args(x, nested), field: value})
        assert str(err.value) == text


def test_ragged_rows_raise_from_nested_input():
    with pytest.raises(core.StructuralError, match=r"^add_S: row 1 has 1 entries, expected 2$"):
        replaced(GB, addS=[[0, 1], [1]])


# ---------------------------------------------------------------------------
# the distributive masks as flat takes, against the broadcast gathers


def _mutants(x):
    """x, then every structure one cell of its product (or multiplication)
    table or of its addition table away from it, built from arrays."""
    yield x
    for field in ("prod", "addS") if _gamma(x) else ("mul", "add"):
        table = x.tables[TABLES[type(x)].index(field)]
        for cell in np.ndindex(table.shape):
            for value in range(table.shape[-1]):
                if value != table[cell]:
                    bad = table.copy()
                    bad[cell] = value
                    yield replaced(x, **{field: bad})


SMALL = [x for x in STRUCTURES if len(x.tables[0]) <= 4] + [build_boolean_by_chain(3)]


@pytest.mark.parametrize("x", SMALL, ids=lambda x: x.name)
def test_flat_take_masks_equal_the_broadcast_gathers(x, monkeypatch):
    """On the structure and on every single-cell mutation of it, with the
    flat takes and the law scans in one block, one first-axis slice a block,
    or a few: the same masks, the validator's first witness of each
    distributive law read off the broadcast mask, and every reported
    witness replays."""
    if _gamma(x):
        def masks_of(*tables):  # each law's mask on every first-axis row
            return {law: mask(core._ALL) for law, (mask, *_) in core._gamma_laws(*tables).items()}

        validate, axioms = core.validate_gamma_semiring, core._GAMMA_AXIOMS
    else:
        masks_of, validate, axioms = core._semiring_masks, core.validate_semiring, core._SEMIRING_AXIOMS
    failing = 0
    for cells, y in itertools.product((core._SUM_CELLS, 1, 40), _mutants(x)):
        monkeypatch.setattr(core, "_SUM_CELLS", cells)
        lookup = {"s": y.S, "g": y.G} if _gamma(y) else {"c": y.carrier}
        masks, reported = masks_of(*y.tables), {v.axiom: v for v in validate(y).violations}
        for law, mask in broadcast_distributive_masks(y).items():
            assert np.array_equal(masks[law], mask), law
            first = core._first_witness(mask)
            assert (law in reported) == (first is not None), law
            if first is not None:
                assert reported[law].witness == core._ids_for(first, axioms[law][0], lookup)
                failing += 1
        assert all(core.recheck_violation(y, v) for v in reported.values())
    assert failing > 0


def test_z3_matrix_instance_validates_in_bounded_memory():
    """The 81-element instance z3[2x2] is built by one product fold
    (`matrix._products`) and validated on greedy additive generators, the
    zero matrix and the four matrices with one entry 1 (each distributive
    law with one argument over them, associativity on generator tuples), so
    the build peaks at about 8 MB traced.  The bound
    stays at 257 MB, what the dense distributive sums needed when taken in
    blocks (`core._sums`; 586 MB in one take)."""
    import tracemalloc

    g = core.zn_gamma(3)
    tracemalloc.start()
    try:
        mg = build_matrix_gamma(g, 2, cap=81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mg.gamma.S) == 81
    assert peak <= 257 * 2**20, peak / 2**20
