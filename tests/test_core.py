"""Validation, witnesses, and structural predicates against brute-force oracles."""

import itertools
import random

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
    reference."""

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
            outcome = core.validate_gamma_semiring(g, generators=_single_entries(mg))
            assert outcome == core.validate_gamma_semiring(g)
            assert outcome.ok and naive_gamma_violations(g) == {}, g.name
            seen.append((len(g.S), len(g.G)))
        assert (16, 16) in seen and (16, 81) in seen

    @pytest.mark.parametrize("cell", [(k % 16, k * 7 % 16, k * 11 % 16) for k in range(0, 4096, 193)])
    def test_single_cell_mutations_match_dense(self, gb, cell):
        """A fixed slice of single-cell mutations of boolean[2x2]: same
        outcome as the dense validator, and every witness replays."""
        mg = build_matrix_gamma(gb, 2)
        a, c, b = cell
        bad = _mutate_prod(mg.gamma, a, c, b, (mg.gamma.prod[a][c][b] + 5) % 16)
        outcome = core.validate_gamma_semiring(bad, generators=_single_entries(mg))
        assert outcome == core.validate_gamma_semiring(bad)
        assert not outcome.ok
        assert all(core.recheck_violation(bad, violation) for violation in outcome.violations)

    def test_seeded_product_and_addition_mutants_match_dense(self, gb):
        """A seeded slice of single-cell mutants of boolean[2x2], of its
        product and of the addition of S: the generator path reports every
        violation and first witness the dense masks report, also when + is
        no longer associative (when the generators stop generating, both
        validators still agree that the mutant fails)."""
        mg = build_matrix_gamma(gb, 2)
        g, gens = mg.gamma, _single_entries(mg)
        rng = random.Random(19)
        broken_addition = compared = 0
        for _ in range(60):
            a, c, b, value = (rng.randrange(16) for _ in range(4))
            add = [list(row) for row in g.addS]
            add[a][b] = value
            for bad in (_mutate_prod(g, a, c, b, value), replaced(g, name="add~", addS=add)):
                dense = core.validate_gamma_semiring(bad)
                try:
                    outcome = core.validate_gamma_semiring(bad, generators=gens)
                except ValueError as err:
                    assert "generators reach" in str(err) and not dense.ok
                    continue
                assert outcome == dense
                compared += 1
                broken_addition += any(v.axiom == "add_S_associative" for v in dense.violations)
        assert compared > 60 and broken_addition > 5

    def test_failure_on_generators_gives_the_dense_witness(self):
        g = _bilinear_not_associative()
        outcome = core.validate_gamma_semiring(g, generators=([0, 1, 2], [0, 1]))
        assert outcome == core.validate_gamma_semiring(g)
        assert [v.axiom for v in outcome.violations] == ["product_associative"]
        _assert_witnesses_match_oracle(g)
        assert core.recheck_violation(g, outcome.violations[0])

    def test_failure_on_generators_that_are_not_a_prefix(self):
        """S relabelled so that the generators are 0, 2 and 3: a witness on
        the generator tuples, read as carrier indices, would name the wrong
        elements; the reported one is the dense one."""
        g = _relabel_s(_bilinear_not_associative(), [0, 2, 3, 1])
        outcome = core.validate_gamma_semiring(g, generators=([0, 2, 3], [0, 1]))
        assert outcome == core.validate_gamma_semiring(g)
        assert [v.axiom for v in outcome.violations] == ["product_associative"]
        _assert_witnesses_match_oracle(g)

    def test_sets_that_do_not_generate_raise(self, gb):
        mg = build_matrix_gamma(gb, 2)
        gen_s, gen_g = _single_entries(mg)
        with pytest.raises(ValueError, match="S generators reach 8 of 16"):
            core.validate_gamma_semiring(mg.gamma, generators=([0, 1, 2, 4], gen_g))
        with pytest.raises(ValueError, match="G generators reach 1 of 16"):
            core.validate_gamma_semiring(mg.gamma, generators=(gen_s, [0]))
        with pytest.raises(ValueError, match="indices below 16"):
            core.validate_gamma_semiring(mg.gamma, generators=(gen_s, [*gen_g, 16]))


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
