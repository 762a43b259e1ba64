"""The structures' read-only `tables`: one array per table, built once, equal
to the tuple fields, the same from either constructor, and read by the
validators' flat-take distributive masks."""

import dataclasses
import itertools

import numpy as np
import pytest

from conftest import build_boolean_by_chain
from gsl import core, verify
from gsl.matrix import build_matrix_gamma, matrix_semiring
from gsl.operators import SIDES, build_operator_semiring
from oracles import broadcast_distributive_masks

TABLES = ("addS", "addG", "prod", "add", "mul")


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


def _fields(x) -> dict:
    """The constructor arguments after the name, by field name: the same
    names `from_arrays` takes."""
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)[1:]}


def _arrays(fields: dict) -> dict:
    return {k: np.asarray(v) if k in TABLES else v for k, v in fields.items()}


def _gamma(x) -> bool:
    return isinstance(x, core.GammaSemiring)


@pytest.fixture(params=STRUCTURES, ids=lambda x: x.name)
def structure(request):
    return request.param


def test_tables_are_read_only_arrays_of_the_tuple_fields(structure):
    tables = structure.tables
    tuples = [v for k, v in _fields(structure).items() if k in TABLES]
    carriers = [v for k, v in _fields(structure).items() if k not in TABLES]
    assert structure.tables is tables and len(tables) == len(tuples)
    for array, table in zip(tables, tuples):
        assert not array.flags.writeable
        assert array.dtype == core._index_dtype(*map(len, carriers))
        assert np.array_equal(array, np.asarray(table))
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_either_constructor_gives_the_same_structure(structure):
    fields = _fields(structure)
    by_tuples = type(structure)(structure.name, **fields)
    arrays = _arrays(fields)
    by_arrays = type(structure).from_arrays(structure.name, **arrays)
    assert by_tuples == by_arrays == structure
    assert hash(by_tuples) == hash(by_arrays) == hash(structure)
    assert _fields(by_arrays) == fields
    assert all(type(v) is int for v in by_arrays.tables[0].ravel().tolist())
    for ours, theirs in zip(by_arrays.tables, by_tuples.tables):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    # the caller's arrays are copied, not frozen
    assert all(arrays[k].flags.writeable for k in fields if k in TABLES)


def test_one_run_builds_each_structures_arrays_once(monkeypatch):
    g = core.boolean_gamma()  # its arrays are built by the generator's validation
    built = []
    real = core._store_tables

    def spy(structure, tables, *sizes):
        built.append(structure)
        return real(structure, tables, *sizes)

    monkeypatch.setattr(core, "_store_tables", spy)
    verify.run_all(g)
    names = [x.name for x in built]
    assert len({id(x) for x in built}) == len(built), names
    assert g not in built
    # L, R and the matrix instance once; matrix-iso builds one operator
    # semiring of the matrix instance per side
    assert {"boolean::L", "boolean::R", "boolean[2x2]"} <= set(names)
    assert names.count("boolean[2x2]::L") == names.count("boolean[2x2]::R") == 1


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
    fields = {**_fields(x), field: value}
    by_tuples = type(x)(x.name, **fields)
    validate = core.validate_gamma_semiring if _gamma(x) else core.validate_semiring
    for build in (
        lambda: by_tuples.tables,
        lambda: validate(by_tuples),
        lambda: type(x).from_arrays(x.name, **_arrays(fields)),
    ):
        with pytest.raises(core.StructuralError) as err:
            build()
        assert str(err.value) == text


# ---------------------------------------------------------------------------
# the distributive masks as flat takes, against the broadcast gathers


def _mutants(x):
    """x, then every structure one cell of its product (or multiplication)
    table or of its addition table away from it, built from arrays."""
    yield x
    fields = _arrays(_fields(x))
    for field in ("prod", "addS") if _gamma(x) else ("mul", "add"):
        table = fields[field]
        for cell in np.ndindex(table.shape):
            for value in range(table.shape[-1]):
                if value != table[cell]:
                    bad = table.copy()
                    bad[cell] = value
                    yield type(x).from_arrays(x.name, **{**fields, field: bad})


SMALL = [x for x in STRUCTURES if len(x.tables[0]) <= 4] + [build_boolean_by_chain(3)]


@pytest.mark.parametrize("x", SMALL, ids=lambda x: x.name)
def test_flat_take_masks_equal_the_broadcast_gathers(x, monkeypatch):
    """On the structure and on every single-cell mutation of it, with the
    flat takes in one block, one first-axis slice a block, or a few: the
    same masks, the validator's first witness of each distributive law read
    off the broadcast mask, and every reported witness replays."""
    if _gamma(x):
        masks_of, validate, axioms = core._gamma_masks, core.validate_gamma_semiring, core._GAMMA_AXIOMS
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
    (`matrix._products`) and validated on its single-entry generators (each
    distributive law with one argument over them, associativity on
    generator tuples), so the build peaks at about 69 MB traced.  The bound
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
