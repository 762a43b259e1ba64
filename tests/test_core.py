"""Validation, witnesses, and structural predicates against brute-force oracles."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from conftest import build_boolean_by_chain, build_one_element, build_upper_triangular, replaced
from gsl import core
from gsl.matrix import build_matrix_gamma, matrix_semiring
from gsl.operators import SIDES, build_operator_semiring
from oracles import (
    loop_gamma_semifield_witness,
    loop_mul_commutative,
    loop_semifield_inverse_view,
    loop_zdf_witness,
    naive_gamma_violations,
    naive_is_commutative,
    naive_is_gamma_semifield,
    naive_is_semifield,
    naive_is_zdf,
    naive_semiring_violations,
)


def _mutate_prod(g, a, c, b, value):
    prod = [list(map(list, plane)) for plane in g.prod]
    prod[a][c][b] = value
    return replaced(g, name=f"{g.name}~{a}{c}{b}->{value}", prod=prod)


def _mutate_mul(r, a, b, value):
    mul = [list(row) for row in r.mul]
    mul[a][b] = value
    return replaced(r, name=f"{r.name}~{a}{b}->{value}", mul=mul)


def _assert_witnesses_match_oracle(bad):
    outcome = core.validate_gamma_semiring(bad)
    expected = naive_gamma_violations(bad)
    assert outcome.ok == (not expected)
    got = {v.axiom: tuple(v.witness) for v in outcome.violations}
    want = {
        axiom: tuple(
            (bad.S, bad.G)["g" == kind][i]
            for kind, i in zip(core._GAMMA_AXIOMS[axiom][0], witness)
        )
        for axiom, witness in expected.items()
    }
    assert got == want


class TestValidateGamma:
    def test_stock_instances_are_valid(self, all_small_instances):
        for g in all_small_instances:
            outcome = core.validate_gamma_semiring(g)
            assert outcome.ok, (g.name, outcome.violations)

    def test_boolean_by_direct_evaluation(self, gb):
        assert naive_gamma_violations(gb) == {}
        assert core.validate_gamma_semiring(gb).ok

    def test_zero_law_violation_witness(self, gb):
        bad = _mutate_prod(gb, 0, 1, 1, 1)  # 0@1@1 = 1 breaks the left zero law
        outcome = core.validate_gamma_semiring(bad)
        assert not outcome.ok
        by_axiom = {v.axiom: v for v in outcome.violations}
        assert by_axiom["zero_s_left"].witness == ("1", "1")

    def test_patching_the_only_nonzero_product_cell_stays_valid(self, gb):
        # zeroing prod[1][1][1] makes the product constantly zero, which
        # still satisfies every law (unity loss is not an axiom violation)
        bad = _mutate_prod(gb, 1, 1, 1, 0)
        assert naive_gamma_violations(bad) == {}
        assert core.validate_gamma_semiring(bad).ok

    @pytest.mark.parametrize("cell", [(a, c, b) for a in range(2) for c in range(2) for b in range(2)])
    def test_single_cell_mutations_match_oracle(self, gb, cell):
        a, c, b = cell
        _assert_witnesses_match_oracle(_mutate_prod(gb, a, c, b, 1 - gb.prod[a][c][b]))

    def test_carrier_past_uint8(self):
        """|G| = 300 makes the masks index in uint16; a mutated cell at a
        G index past 255 gives the oracle's witnesses."""
        wide = build_boolean_by_chain(300)
        assert core._index_dtype(len(wide.S), len(wide.G)) == np.uint16
        assert core.validate_gamma_semiring(wide).ok
        _assert_witnesses_match_oracle(_mutate_prod(wide, 1, 280, 1, 0))

    def test_matrix_instance_witness_replay(self, gb):
        bad = _mutate_prod(build_matrix_gamma(gb, 2).gamma, 3, 5, 7, 9)
        outcome = core.validate_gamma_semiring(bad)
        assert not outcome.ok
        assert all(core.recheck_violation(bad, violation) for violation in outcome.violations)

    def test_witness_replay(self, gb, z4):
        replayed = 0
        for g in (gb, z4):
            n = len(g.S)
            for a in range(n):
                for c in range(len(g.G)):
                    for b in range(n):
                        for v in range(n):
                            if v == g.prod[a][c][b]:
                                continue
                            outcome = core.validate_gamma_semiring(_mutate_prod(g, a, c, b, v))
                            for violation in outcome.violations:
                                assert core.recheck_violation(
                                    _mutate_prod(g, a, c, b, v), violation
                                )
                                replayed += 1
        assert replayed > 0

    def test_structural_errors_are_distinct(self, gb):
        with pytest.raises(core.StructuralError):
            replaced(gb, addS=((0, 1), (1,)))  # ragged
        with pytest.raises(core.StructuralError):
            replaced(gb, addS=((0, 1), (1, 7)))  # out of range


def _single_entries(mg):
    """The matrices with at most one non-zero entry, as (S, G) indices:
    additive generators of the matrix carriers."""
    return tuple(
        [k for k, entries in enumerate(table) if sum(e != 0 for e in entries) <= 1]
        for table in (mg.s_entries, mg.g_entries)
    )


def _bilinear_not_associative():
    """S = {0,1}^2 under bitwise or, G = {0, 1} under max, and
    a@g@b = g * (or of m(i, j) over the bits i of a and j of b) with
    m(e1, e1) = e2, m(e2, e1) = e1 and 0 otherwise: every distributive and
    zero law holds, and associativity fails already on generators."""
    m = {(1, 1): 2, (2, 1): 1}

    def product(a, c, b):
        value = 0
        for i, j in itertools.product((1, 2), repeat=2):
            if c and a & i and b & j:
                value |= m.get((i, j), 0)
        return value

    prod = [[[product(a, c, b) for b in range(4)] for c in range(2)] for a in range(4)]
    return core.GammaSemiring(
        "bilinear", ("0", "1", "2", "3"), ("0", "1"),
        [[a | b for b in range(4)] for a in range(4)], [[0, 1], [1, 1]], prod,
    )


def _relabel_s(g, new):
    """g with element x of S renamed new[x] (index 0 stays the zero)."""
    old = {y: x for x, y in enumerate(new)}
    n = len(new)
    add = [[new[g.addS[old[a]][old[b]]] for b in range(n)] for a in range(n)]
    prod = [[[new[g.prod[old[a]][c][old[b]]] for b in range(n)] for c in range(len(g.G))] for a in range(n)]
    return replaced(g, name=f"{g.name}'", addS=add, prod=prod)


class TestGeneratorPath:
    """The distributive laws and associativity checked on additive
    generators give the dense validator's outcome, which stays the
    reference (`core._gamma_outcome` without generators)."""

    @staticmethod
    def _small_matrix_instances(bases):
        for base in bases:
            for n in (1, 2):
                if max(len(base.S), len(base.G)) ** (n * n) <= 16:
                    yield build_matrix_gamma(base, n)
        yield build_matrix_gamma(build_boolean_by_chain(3), 2, cap=81)

    def test_matrix_instances_match_dense_and_oracle(self, enum_instances):
        bases = [*enum_instances, build_one_element(), build_boolean_by_chain(3)]
        seen = []
        for mg in self._small_matrix_instances(bases):
            g = mg.gamma
            outcome = core._gamma_outcome(g, _single_entries(mg))
            assert outcome == core.validate_gamma_semiring(g) == core._gamma_outcome(g)
            assert outcome.ok and naive_gamma_violations(g) == {}, g.name
            seen.append((len(g.S), len(g.G)))
        assert (16, 16) in seen and (16, 81) in seen

    @pytest.mark.parametrize("cell", [(k % 16, k * 7 % 16, k * 11 % 16) for k in range(0, 4096, 193)])
    def test_single_cell_mutations_match_dense(self, gb, cell):
        """A fixed slice of single-cell mutations of boolean[2x2]: the
        validator, on generators, gives the dense outcome, and every
        witness replays."""
        mg = build_matrix_gamma(gb, 2)
        a, c, b = cell
        bad = _mutate_prod(mg.gamma, a, c, b, (mg.gamma.prod[a][c][b] + 5) % 16)
        outcome = core.validate_gamma_semiring(bad)
        assert outcome == core._gamma_outcome(bad) == core._gamma_outcome(bad, _single_entries(mg))
        assert not outcome.ok
        assert all(core.recheck_violation(bad, violation) for violation in outcome.violations)

    def test_seeded_product_and_addition_mutants_match_dense(self, gb):
        """A seeded slice of single-cell mutants of boolean[2x2], of its
        product and of the addition of S: the validator, on greedy
        generators of the mutant's addition, reports every violation and
        first witness the dense scan reports, also when + is no longer
        associative."""
        g = build_matrix_gamma(gb, 2).gamma
        rng = random.Random(19)
        broken_addition = compared = 0
        for _ in range(60):
            a, c, b, value = (rng.randrange(16) for _ in range(4))
            add = [list(row) for row in g.addS]
            add[a][b] = value
            for bad in (_mutate_prod(g, a, c, b, value), replaced(g, name="add~", addS=add)):
                dense = core._gamma_outcome(bad)
                assert core.validate_gamma_semiring(bad) == dense
                compared += 1
                broken_addition += any(v.axiom == "add_S_associative" for v in dense.violations)
        assert compared > 60 and broken_addition > 5

    def test_failure_on_generators_gives_the_dense_witness(self):
        g = _bilinear_not_associative()
        outcome = core._gamma_outcome(g, ([0, 1, 2], [0, 1]))
        assert outcome == core._gamma_outcome(g) == core.validate_gamma_semiring(g)
        assert [v.axiom for v in outcome.violations] == ["product_associative"]
        _assert_witnesses_match_oracle(g)
        assert core.recheck_violation(g, outcome.violations[0])

    def test_failure_on_generators_that_are_not_a_prefix(self):
        """S relabelled so that the generators are 0, 2 and 3: a witness on
        the generator tuples, read as carrier indices, would name the wrong
        elements; the reported one is the dense one."""
        g = _relabel_s(_bilinear_not_associative(), [0, 2, 3, 1])
        outcome = core._gamma_outcome(g, ([0, 2, 3], [0, 1]))
        assert outcome == core._gamma_outcome(g) == core.validate_gamma_semiring(g)
        assert [v.axiom for v in outcome.violations] == ["product_associative"]
        _assert_witnesses_match_oracle(g)


def _traced_peak(call):
    """call()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_cell_mutant(g, rng):
    """g with one product cell, drawn by `rng`, set to another element."""
    a, c, b = rng.randrange(len(g.S)), rng.randrange(len(g.G)), rng.randrange(len(g.S))
    prod = g.tables[2].copy()
    prod[a, c, b] = (prod[a, c, b] + rng.randrange(1, len(g.S))) % len(g.S)
    return core.GammaSemiring(f"{g.name}~{a},{c},{b}", g.S, g.G, *g.tables[:2], prod)


class TestSizeRule:
    """`validate_gamma_semiring` picks its path by size: dense up to
    `core._DENSE_CELLS` associativity cells, greedy generators above, and
    the dense fallback in blocks of at most `core._SUM_CELLS`
    cells."""

    @staticmethod
    def _instances():
        yield from (core.zn_gamma(n) for n in (2, 3, 4, 8, 12, 16, 24, 32))
        yield from (core.gamma_from_semiring(core.boolean_power_semiring(k)) for k in range(1, 6))

    def test_outcome_is_the_dense_one_on_each_path(self):
        """Z_n and from_B1 to from_B5, valid and with one product cell
        changed: the outcome equals the dense reference, on both sides of
        the size bound."""
        rng, paths = random.Random(24), set()
        for g in self._instances():
            paths.add(len(g.S) ** 3 * len(g.G) ** 2 <= core._DENSE_CELLS)
            bad = _one_cell_mutant(g, rng)
            assert core.validate_gamma_semiring(g) == core._gamma_outcome(g) == core.ValidationOutcome(True, ())
            outcome = core.validate_gamma_semiring(bad)
            assert outcome == core._gamma_outcome(bad) and not outcome.ok, bad.name
            assert all(core.recheck_violation(bad, violation) for violation in outcome.violations)
        assert paths == {True, False}

    def test_the_stock_workload_instances_keep_their_paths(self, gb, z2):
        """boolean, z2 to z4 and from_B3 validate densely, the 16-element
        matrix instances on the greedy generators {0, 1, 2, 4, 8}."""
        from_b3 = core.gamma_from_semiring(core.boolean_power_semiring(3))
        for g in (gb, z2, core.zn_gamma(3), core.zn_gamma(4), from_b3):
            assert len(g.S) ** 3 * len(g.G) ** 2 <= core._DENSE_CELLS, g.name
        for base in (gb, z2):
            g = build_matrix_gamma(base, 2).gamma
            assert len(g.S) ** 3 * len(g.G) ** 2 > core._DENSE_CELLS
            assert [core._greedy_generators(add) for add in g.tables[:2]] == [[0, 1, 2, 4, 8]] * 2

    def test_a_valid_z32_builds_no_dense_mask(self):
        """On generators Z_32 is validated in about 1 MiB traced; its dense
        associativity mask alone has 32^5 cells (32 MiB)."""
        g = core.zn_gamma(32)
        outcome, peak = _traced_peak(lambda: core.validate_gamma_semiring(g))
        assert outcome.ok and peak < 4 * 2**20, peak

    def test_the_dense_fallback_on_a_z32_mutant_is_bounded(self):
        """A one-cell product mutant of Z_32 fails on generators and is
        scanned densely in blocks: 12 MiB traced, not the 99 MiB of one
        dense mask set."""
        bad = _one_cell_mutant(core.zn_gamma(32), random.Random(32))
        outcome, peak = _traced_peak(lambda: core.validate_gamma_semiring(bad))
        assert not outcome.ok and peak < 33 * 2**20, peak

    def test_a_z3_2x2_mutant_is_scanned_in_bounded_memory(self):
        """z3[2x2] (81 elements, 81^5 associativity cells) with one product
        cell changed fails on generators; the dense scan, one block of
        (a, gamma) rows at a time, gives the dense outcome in about 44 MiB
        traced, and every witness replays."""
        bad = _one_cell_mutant(build_matrix_gamma(core.zn_gamma(3), 2, cap=81).gamma, random.Random(81))
        outcome, peak = _traced_peak(lambda: core.validate_gamma_semiring(bad))
        assert not outcome.ok and peak < 64 * 2**20, peak
        assert outcome == core._gamma_outcome(bad)
        assert all(core.recheck_violation(bad, violation) for violation in outcome.violations)

    @pytest.mark.parametrize("source", ["boolean[2x2]", "z24"])
    def test_blocked_scan_matches_one_block(self, gb, monkeypatch, source):
        """With a block budget of 64 cells (one row a block) the
        dense scan reports what it reports in one block a law: the
        boolean[2x2] mutant slice of `TestGeneratorPath` and seeded Z_24
        mutants."""
        if source == "z24":
            rng, g = random.Random(7), core.zn_gamma(24)
            mutants = [_one_cell_mutant(g, rng) for _ in range(4)]
        else:
            g = build_matrix_gamma(gb, 2).gamma
            cells = [(k % 16, k * 7 % 16, k * 11 % 16) for k in range(0, 4096, 193)]
            mutants = [_mutate_prod(g, a, c, b, (g.prod[a][c][b] + 5) % 16) for a, c, b in cells]
        monkeypatch.setattr(core, "_SUM_CELLS", 1 << 40)
        whole = [core._gamma_outcome(bad) for bad in mutants]
        monkeypatch.setattr(core, "_SUM_CELLS", 64)
        assert [core._gamma_outcome(bad) for bad in mutants] == whole
        assert [core.validate_gamma_semiring(bad) for bad in mutants] == whole
        assert not any(outcome.ok for outcome in whole)

    def test_the_additions_are_scanned_in_bounded_memory(self):
        """The additions' associativity is scanned a block of first
        arguments at a time (`core._monoid_witnesses`), so validating the
        300-element chain instance peaks at about 20 MiB traced; its whole
        |S|^3 addition mask peaked at 129 MiB."""
        wide = build_boolean_by_chain(300)
        outcome, peak = _traced_peak(lambda: core.validate_gamma_semiring(wide))
        assert outcome.ok and peak < 43 * 2**20, peak

    @pytest.mark.parametrize("cells", [1, 40, 1 << 22])
    def test_addition_laws_give_the_whole_masks_first_witnesses(self, monkeypatch, cells):
        """Seeded one-cell mutants of the additions of Z_6 and from_B3, and
        the valid tables: each law's first witness, at any block size, is
        the one of its whole mask."""
        monkeypatch.setattr(core, "_SUM_CELLS", cells)
        rng, failing = random.Random(6), 0
        for g in (core.zn_gamma(6), core.gamma_from_semiring(core.boolean_power_semiring(3))):
            for k in range(12):
                A = g.tables[0].copy()
                if k:
                    x, y = rng.randrange(len(A)), rng.randrange(len(A))
                    A[x, y] = (A[x, y] + rng.randrange(1, len(A))) % len(A)
                ar = np.arange(len(A))
                whole = {
                    "add_commutative": A != A.T,
                    "add_associative": A[A] != A[:, A],
                    "add_identity": (A[0] != ar) | (A[:, 0] != ar),
                }
                got = core._monoid_witnesses(A, "add")
                assert got == {law: core._first_witness(mask) for law, mask in whole.items()}
                failing += any(got.values())
        assert failing > 0


class TestValidateSemiring:
    def test_boolean_and_z4(self, bool_sr, z4_sr):
        assert core.validate_semiring(bool_sr).ok
        assert core.validate_semiring(z4_sr).ok
        assert naive_semiring_violations(bool_sr) == {}
        assert naive_semiring_violations(z4_sr) == {}

    def test_nondistributive_patch_fails_with_witness(self, z4_sr):
        bad = _mutate_mul(z4_sr, 2, 2, 1)
        outcome = core.validate_semiring(bad)
        expected = naive_semiring_violations(bad)
        assert not outcome.ok and expected
        got = {v.axiom: tuple(bad.carrier.index(e) for e in v.witness) for v in outcome.violations}
        assert got == expected

    def test_all_single_cell_mul_mutations_match_oracle(self, bool_sr):
        for a in range(2):
            for b in range(2):
                bad = _mutate_mul(bool_sr, a, b, 1 - bool_sr.mul[a][b])
                outcome = core.validate_semiring(bad)
                expected = naive_semiring_violations(bad)
                assert outcome.ok == (not expected)
                for violation in outcome.violations:
                    assert core.recheck_violation(bad, violation)


@pytest.fixture(scope="module")
def predicate_instances(enum_instances, gb, z2):
    """The enumerator fixtures (the non-commutative upper_triangular among
    them), from_B3 and the 16-element matrix instances."""
    from_b3 = core.gamma_from_semiring(core.boolean_power_semiring(3))
    return [*enum_instances, from_b3, build_matrix_gamma(gb, 2).gamma, build_matrix_gamma(z2, 2).gamma]


class TestPredicates:
    def test_commutativity_against_oracle(self, all_small_instances):
        for g in all_small_instances:
            assert core.is_commutative(g) == naive_is_commutative(g)

    def test_zdf_against_oracle(self, all_small_instances):
        for g in all_small_instances:
            assert (core.zdf_witness(g) is None) == naive_is_zdf(g)

    def test_gamma_predicates_give_the_scalar_loops_first_witnesses(self, predicate_instances):
        """is_commutative, zdf_witness and gamma_semifield_witness, array
        tests on `tables`, against the loops they were and the naive oracles."""
        seen = set()
        for g in predicate_instances:
            zdf, semifield = core.zdf_witness(g), core.gamma_semifield_witness(g)
            assert core.is_commutative(g) is naive_is_commutative(g), g.name
            assert zdf == loop_zdf_witness(g) and (zdf is None) == naive_is_zdf(g), g.name
            assert semifield == loop_gamma_semifield_witness(g), g.name
            seen |= {("commutative", core.is_commutative(g)), ("zdf", zdf is None), ("semifield", semifield is None)}
        assert len(seen) == 6  # each predicate seen both ways

    def test_semiring_predicates_match_the_scalar_loops(self, predicate_instances, bool_sr):
        semirings = [
            bool_sr, core.zn_semiring(2), core.zn_semiring(3), core.zn_semiring(4),
            core.boolean_power_semiring(3), matrix_semiring(bool_sr, 2),
            core.Semiring("squares", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 0))),
            *(build_operator_semiring(g, side).semiring for g in predicate_instances for side in SIDES),
        ]
        seen = set()
        for r in semirings:
            view = core.semifield_inverse_view(r)
            assert core.mul_commutative(r) is loop_mul_commutative(r), r.name
            assert view is loop_semifield_inverse_view(r), r.name
            seen |= {core.mul_commutative(r), view}
        assert seen == {True, False, None}

    def test_zdf_frozen_values(self, gb, z2, z4):
        assert core.zdf_witness(gb) is None
        assert core.zdf_witness(z2) is None
        a, c, b = core.zdf_witness(z4)
        assert z4.prod[a][c][b] == 0 and 0 not in (a, c, b)

    def test_gamma_semifield_against_oracle(self, all_small_instances):
        for g in all_small_instances:
            if core.is_commutative(g):
                assert core.is_gamma_semifield(g) == naive_is_gamma_semifield(g), g.name

    def test_gamma_semifield_frozen_values(self, gb, z2, z3, z4):
        assert core.is_gamma_semifield(gb)
        assert core.is_gamma_semifield(z2)
        assert core.is_gamma_semifield(z3)
        assert not core.is_gamma_semifield(z4)
        a, c = core.gamma_semifield_witness(z4)
        assert (a, c) != (0, 0)

    def test_gamma_semifield_needs_commutativity(self, gb):
        from gsl.matrix import build_matrix_gamma

        noncomm = build_matrix_gamma(gb, 2).gamma
        assert not core.is_commutative(noncomm)
        with pytest.raises(core.PreconditionUnmet):
            core.is_gamma_semifield(noncomm)

    def test_semifield_against_oracle(self, bool_sr, z4_sr):
        for r in (bool_sr, core.zn_semiring(2), core.zn_semiring(3), z4_sr):
            assert core.is_semifield(r) == naive_is_semifield(r), r.name

    def test_semifield_frozen_values(self, bool_sr, z4_sr):
        assert core.is_semifield(bool_sr)
        assert core.is_semifield(core.zn_semiring(2))
        assert not core.is_semifield(z4_sr)
        assert core.semifield_witness(z4_sr) == (0, 2)

    def test_one_element_structures_are_neither(self):
        one = core.Semiring("zero", ("0",), ((0,),), ((0,),))
        assert core.validate_semiring(one).ok
        assert not core.is_semifield(one)
        gone = core.GammaSemiring("gzero", ("0",), ("0",), ((0,),), ((0,),), (((0,),),))
        assert core.validate_gamma_semiring(gone).ok
        assert not core.is_gamma_semifield(gone)

    def test_inverse_view_cross_check(self, bool_sr, z4_sr):
        assert core.semifield_inverse_view(bool_sr) is True
        assert core.semifield_inverse_view(z4_sr) is False
        assert core.semifield_inverse_view(core.zn_semiring(3)) is True
        no_identity = core.Semiring(
            "squares", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 0))
        )
        assert core.validate_semiring(no_identity).ok
        assert core.semifield_inverse_view(no_identity) is None


class TestGenerators:
    def test_gen_instance_dispatch(self, bool_sr):
        """The stock constructors `gsl gen` dispatches to; the dispatch and
        its error texts are `cli._cmd_gen`'s (tests/test_cli.py)."""
        assert core.boolean_gamma().name == "boolean"
        assert core.zn_gamma(2).name == "z2"
        assert core.gamma_from_semiring(bool_sr).S == ("0", "1")
        with pytest.raises(ValueError):
            core.zn_gamma(1)
        with pytest.raises(ValueError):
            core.zn_semiring(1)

    def test_from_boolean_semiring_is_the_boolean_instance(self, gb, bool_sr):
        derived = core.gamma_from_semiring(bool_sr)
        assert derived.addS == gb.addS
        assert derived.prod == gb.prod

    def test_zn_gamma_product(self, z4):
        assert z4.prod[3][2][3] == (3 * 2 * 3) % 4
