"""Fuzzy subsets, ideal predicates, lattice operations, enumerations."""

import itertools
import random
from fractions import Fraction

import pytest

from gsl import core
from gsl.fuzzy import (
    CrispSubset,
    EnumerationCapExceeded,
    FuzzySubset,
    GradeChain,
    LevelCuts,
    carrier_of,
    characteristic,
    enumerate_crisp_ideals,
    enumerate_fuzzy_ideals,
    fuzzy_intersection,
    fuzzy_sum,
    is_crisp_ideal_gamma,
    is_crisp_ideal_semiring,
    is_fuzzy_ideal_gamma,
    is_fuzzy_ideal_semiring,
    as_grade,
    parse_grade,
    format_grade,
)
from gsl.matrix import build_matrix_gamma, matrix_semiring
from gsl.operators import build_operator_semiring
from oracles import (
    brute_crisp_ideals_semiring,
    brute_fuzzy_ideal_grades,
    count_multichains,
    members,
    naive_absorption_images,
    naive_crisp_ideals_gamma,
    naive_fuzzy_sum,
    naive_is_crisp_ideal_gamma,
    naive_is_crisp_ideal_semiring,
    naive_is_fuzzy_ideal_gamma,
    naive_is_fuzzy_ideal_semiring,
    tuple_fuzzy_ideals,
)

HALF = Fraction(1, 2)
CHAIN = GradeChain.of(0, HALF, 1)
CHAINS = tuple(GradeChain.parse(c) for c in ("0,1", "0,1/2,1", "0,1/4,1/2,1"))


def _from_b3():
    """({0,1}^3, or, and) as a gamma-semiring: 8 elements, 8-element L and R."""
    return core.gamma_from_semiring(core.boolean_power_semiring(3))


def _members(mask):
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


class TestGrades:
    def test_parse_and_format(self):
        assert parse_grade("1/2") == HALF
        assert parse_grade("1") == 1
        assert format_grade(HALF) == "1/2"
        assert format_grade(Fraction(0)) == "0/1"
        with pytest.raises(ValueError):
            parse_grade("3/2")
        with pytest.raises(ValueError, match="grade 1/0 has a zero denominator"):
            parse_grade("1/0")

    def test_as_grade_passes_a_fraction_through(self):
        assert as_grade(HALF) is HALF
        assert type(as_grade(True)) is Fraction and as_grade("1/2") == HALF
        for bad in (Fraction(3, 2), Fraction(-1, 2), 2, -1):
            with pytest.raises(ValueError, match=f"grade {Fraction(bad)} outside"):
                as_grade(bad)

    def test_chain_requires_bounds(self):
        with pytest.raises(ValueError):
            GradeChain.of(HALF, 1)
        with pytest.raises(ValueError):
            GradeChain.of(0, HALF)
        assert len(GradeChain.parse("0,1/2,1")) == 3


class TestIdealPredicates:
    def test_boolean_frozen_examples(self, gb):
        assert is_fuzzy_ideal_gamma(gb, FuzzySubset.of_grades(gb, [1, HALF]), "two")
        assert not is_fuzzy_ideal_gamma(gb, FuzzySubset.of_grades(gb, [HALF, 1]), "two")
        assert is_fuzzy_ideal_gamma(gb, FuzzySubset.constant(gb, 1), "two")

    def test_boolean_semiring_frozen_examples(self, bool_sr):
        assert is_fuzzy_ideal_semiring(bool_sr, FuzzySubset.of_grades(bool_sr, [1, HALF]), "two")
        assert not is_fuzzy_ideal_semiring(bool_sr, FuzzySubset.of_grades(bool_sr, [HALF, 1]), "two")
        assert is_fuzzy_ideal_semiring(bool_sr, FuzzySubset.constant(bool_sr, 1), "two")

    def test_empty_subset_is_not_an_ideal(self, gb):
        assert not is_fuzzy_ideal_gamma(gb, FuzzySubset.constant(gb, 0), "two")

    def test_carrier_mismatch_rejected(self, gb, z4):
        with pytest.raises(ValueError):
            is_fuzzy_ideal_gamma(gb, FuzzySubset.constant(z4, 1), "two")

    def test_against_naive_predicate(self, all_small_instances, upper_triangular, bool_sr, z4_sr, gb):
        """The predicates and `fuzzy_sum`, decided on level cuts, against
        the loops of the oracles, for every kind: on gamma-semirings and
        semirings of 2 to 16 elements, commutative or not; on grades off the
        default chain, mu(0) < 1 among them, and on empty and constant
        subsets; on crisp subsets, those without 0 among them.  Carriers of
        up to 4 elements get every grade tuple and every subset, larger ones
        a seeded sample."""
        rng = random.Random(0)
        grades = tuple(map(Fraction, ("0", "1/3", "1/2", "2/3", "1")))
        gammas = [*all_small_instances, upper_triangular, build_matrix_gamma(gb, 2).gamma]
        semirings = [
            bool_sr, z4_sr, core.boolean_power_semiring(3), matrix_semiring(bool_sr, 2),
            build_operator_semiring(upper_triangular, "left").semiring,
        ]
        cases = [(g, is_fuzzy_ideal_gamma, naive_is_fuzzy_ideal_gamma, is_crisp_ideal_gamma,
                  naive_is_crisp_ideal_gamma) for g in gammas]
        cases += [(r, is_fuzzy_ideal_semiring, naive_is_fuzzy_ideal_semiring, is_crisp_ideal_semiring,
                   naive_is_crisp_ideal_semiring) for r in semirings]
        seen = set()
        for structure, fuzzy, naive_fuzzy, crisp, naive_crisp in cases:
            carrier = carrier_of(structure)
            n = carrier.size
            if n <= 4:
                tuples = list(itertools.product(grades, repeat=n))
                subsets = [frozenset(x for x in range(n) if mask >> x & 1) for mask in range(2**n)]
            else:
                tuples = [(g,) * n for g in grades] + [tuple(rng.choices(grades, k=n)) for _ in range(150)]
                subsets = [frozenset(x for x in range(n) if rng.random() < 0.5) for _ in range(100)]
                subsets += [frozenset(), frozenset(range(n)), frozenset(range(1, n))]
            for kind in ("left", "right", "two"):
                for grade_tuple in tuples:
                    got = fuzzy(structure, FuzzySubset(carrier, grade_tuple), kind)
                    assert got == naive_fuzzy(structure, grade_tuple, kind), (structure.name, kind, grade_tuple)
                    seen.add(("fuzzy", got, grade_tuple[0] < 1))
                for members in subsets:
                    got = crisp(structure, CrispSubset(carrier, members), kind)
                    assert got == naive_crisp(structure, members, kind), (structure.name, kind, sorted(members))
                    seen.add(("crisp", got, 0 in members))
            for _ in range(40):
                a, b = (FuzzySubset(carrier, tuple(rng.choices(grades, k=n))) for _ in range(2))
                assert fuzzy_sum(a, b) == naive_fuzzy_sum(a, b), (structure.name, a.grades, b.grades)
        # both answers are met, fuzzy ideals with mu(0) < 1 among them; no crisp ideal lacks 0
        assert seen == {
            ("fuzzy", True, True), ("fuzzy", True, False), ("fuzzy", False, True), ("fuzzy", False, False),
            ("crisp", True, True), ("crisp", False, True), ("crisp", False, False),
        }


class TestLatticeOps:
    def test_sum_frozen_z2(self, z2):
        mu1 = FuzzySubset.of_grades(z2, [1, HALF])
        mu2 = FuzzySubset.of_grades(z2, [1, 0])
        assert fuzzy_sum(mu1, mu2).grades == (1, HALF)
        for t in (Fraction(0), HALF, Fraction(1)):
            mu = FuzzySubset.of_grades(z2, [1, t])
            assert fuzzy_sum(mu, mu).grades == (1, t)

    def test_characteristic_of_zero_is_sum_identity(self, z4):
        lam0 = characteristic(CrispSubset.of_ids(z4, ["0"]))
        for grades in [(1, 0, HALF, 0), (1, 1, 1, 1), (1, HALF, HALF, HALF)]:
            mu = FuzzySubset.of_grades(z4, grades)
            assert fuzzy_sum(lam0, mu).grades == mu.grades

    def test_intersection(self, gb):
        mu1 = FuzzySubset.of_grades(gb, [1, HALF])
        mu2 = FuzzySubset.of_grades(gb, [1, 0])
        assert fuzzy_intersection([mu1, mu2]).grades == (1, 0)
        assert fuzzy_intersection([mu1, mu1]).grades == mu1.grades
        top = FuzzySubset.constant(gb, 1)
        assert fuzzy_intersection([top, mu1]).grades == mu1.grades

    def test_characteristic(self, z4):
        lam = characteristic(CrispSubset.of_ids(z4, ["0", "2"]))
        assert lam.grades == (1, 0, 1, 0)
        assert characteristic(CrispSubset.of_indices(z4, [])).grades == (0, 0, 0, 0)
        assert characteristic(CrispSubset.of_indices(z4, range(4))).grades == (1, 1, 1, 1)

    def test_sum_fills_no_sum_table(self, monkeypatch, z4):
        """fuzzy_sum takes the set sum of the operands' cuts level by level
        (`LevelCuts.sum_rows`), not the table of every pair of their cuts."""
        tables = []
        real = LevelCuts._table
        monkeypatch.setattr(LevelCuts, "_table", lambda view, op: tables.append(op) or real(view, op))
        mu1 = FuzzySubset.of_grades(z4, [1, Fraction(1, 3), HALF, 0])
        mu2 = FuzzySubset.of_grades(z4, [1, 0, Fraction(2, 3), HALF])
        assert fuzzy_sum(mu1, mu2).grades == (1, HALF, Fraction(2, 3), HALF)
        assert tables == []

    def test_sum_carrier_mismatch(self, gb, z4):
        with pytest.raises(ValueError):
            fuzzy_sum(FuzzySubset.constant(gb, 1), FuzzySubset.constant(z4, 1))


class TestEnumerations:
    def test_boolean_count_and_shape(self, gb):
        ideals = enumerate_fuzzy_ideals(gb, CHAIN, "two")
        assert [m.grades for m in ideals] == [(1, 0), (1, HALF), (1, 1)]

    def test_z4_count_and_structure(self, z4):
        ideals = enumerate_fuzzy_ideals(z4, CHAIN, "two")
        assert len(ideals) == 6
        for mu in ideals:
            assert mu.grades[0] == 1
            assert mu.grades[1] == mu.grades[3] <= mu.grades[2]

    def test_matches_brute_force_filter(self, enum_instances):
        """The wrapper and the view's family (`LevelCuts.fuzzy_ideals`)
        list the brute-force fuzzy ideals, in order."""
        for g in (*enum_instances, _from_b3()):
            view = LevelCuts(g, CHAIN)
            for kind in ("left", "right", "two"):
                want = brute_fuzzy_ideal_grades(g, CHAIN.grades, kind, is_gamma=True)
                got = [m.grades for m in enumerate_fuzzy_ideals(g, CHAIN, kind)]
                assert got == want, (g.name, kind)
                assert [view.subset(row).grades for row in view.fuzzy_ideals(kind)] == want, (g.name, kind)

    def test_array_enumerator_keeps_the_tuple_order(self, enum_instances):
        """`LevelCuts.fuzzy_ideals` extends its multichains as one id array
        and sorts the rows with `np.lexsort` on their ranks; its rows are, in
        order, the cut tuples of the reference that built tuples and sorted
        them with a Python key.  upper_triangular is the non-commutative
        case, where the three kinds differ."""
        for g in enum_instances:
            for chain in CHAINS:
                view = LevelCuts(g, chain)
                for kind in ("left", "right", "two"):
                    got = members(view, view.fuzzy_ideals(kind))
                    assert got == tuple_fuzzy_ideals(view, kind), (g.name, str(chain), kind)

    def test_array_enumerator_keeps_the_tuple_order_on_nine_grades(self):
        """As above on from_B4 (16 elements, 16 crisp ideals) over the
        9-grade chain: 9^4 = 6561 fuzzy ideals."""
        b4 = core.gamma_from_semiring(core.boolean_power_semiring(4))
        view = LevelCuts(b4, GradeChain.parse(",".join(f"{k}/8" for k in range(9))))
        for kind in ("left", "right", "two"):
            got = members(view, view.fuzzy_ideals(kind, cap=9**15))  # the cap counts candidates
            assert len(got) == 9**4 and got == tuple_fuzzy_ideals(view, kind), kind

    def test_semiring_enumeration_matches_brute_force(self, bool_sr, z4_sr, enum_instances):
        """As above on plain semirings, the L and R of every enumerator
        fixture and of from_B3 among them."""
        operators = [build_operator_semiring(g, side).semiring
                     for g in (*enum_instances, _from_b3()) for side in ("left", "right")]
        for r in (bool_sr, z4_sr, *operators):
            view = LevelCuts(r, CHAIN)
            for kind in ("left", "right", "two"):
                want = brute_fuzzy_ideal_grades(r, CHAIN.grades, kind, is_gamma=False)
                got = [m.grades for m in enumerate_fuzzy_ideals(r, CHAIN, kind)]
                assert got == want, (r.name, kind)
                assert [view.subset(row).grades for row in view.fuzzy_ideals(kind)] == want, (r.name, kind)

    def test_binary_chain_matches_crisp_ideals(self, all_small_instances):
        chain01 = GradeChain.of(0, 1)
        for g in all_small_instances:
            fuzzy = enumerate_fuzzy_ideals(g, chain01, "two")
            crisp = enumerate_crisp_ideals(g, "two")
            assert [m.grades for m in fuzzy] == [characteristic(i).grades for i in crisp]

    def test_crisp_ideals_frozen(self, gb, z4, bool_sr):
        assert [i.sorted_ids() for i in enumerate_crisp_ideals(z4, "two")] == [
            ("0",),
            ("0", "2"),
            ("0", "1", "2", "3"),
        ]
        assert [i.sorted_ids() for i in enumerate_crisp_ideals(gb, "two")] == [
            ("0",),
            ("0", "1"),
        ]
        assert [i.sorted_ids() for i in enumerate_crisp_ideals(bool_sr, "two")] == [
            ("0",),
            ("0", "1"),
        ]

    def test_crisp_ideals_match_oracle(self, enum_instances):
        """The wrapper and the view's masks (`LevelCuts.crisp_ideals`) list
        the subset filter's ideals, in order."""
        for g in (*enum_instances, _from_b3()):
            view = LevelCuts(g, CHAIN)
            for kind in ("left", "right", "two"):
                want = naive_crisp_ideals_gamma(g, kind)
                assert [i.members for i in enumerate_crisp_ideals(g, kind)] == want, (g.name, kind)
                assert list(map(_members, view.crisp_ideals(kind))) == want, (g.name, kind)

    @pytest.mark.parametrize("kind", ["left", "right"])
    def test_crisp_ideals_of_a_16_element_array_built_instance_match_oracle(self, gb, kind):
        """boolean[2x2] is built from arrays and its tables hold indices up
        to 15, so its masks are right only if they are built from Python
        ints: a shift by a numpy uint8 keeps the dtype, and 1 << np.uint8(9)
        is 0.  Non-commutative, so its left and right ideals differ."""
        g = build_matrix_gamma(gb, 2).gamma
        want = naive_crisp_ideals_gamma(g, kind)
        assert list(map(_members, LevelCuts(g, CHAIN).crisp_ideals(kind))) == want
        assert max(map(len, want)) == 16 and len(want) > 2

    def test_operator_semiring_crisp_ideals_match_subset_filter(self, enum_instances):
        for g in (*enum_instances, _from_b3()):
            for side in ("left", "right"):
                r = build_operator_semiring(g, side).semiring
                view = LevelCuts(r, CHAIN)
                for kind in ("left", "right", "two"):
                    want = brute_crisp_ideals_semiring(r, kind)
                    assert [i.members for i in enumerate_crisp_ideals(r, kind)] == want, (g.name, side, kind)
                    assert list(map(_members, view.crisp_ideals(kind))) == want, (g.name, side, kind)

    def test_four_grade_chain_matches_brute_force(self, all_small_instances):
        chain = GradeChain.parse("0,1/4,1/2,1")
        for g in all_small_instances:
            for kind in ("left", "right", "two"):
                got = [m.grades for m in enumerate_fuzzy_ideals(g, chain, kind)]
                want = brute_fuzzy_ideal_grades(g, chain.grades, kind, is_gamma=True)
                assert got == want, (g.name, kind)

    def test_count_is_multichains_of_crisp_ideals(self, enum_instances, gb):
        """|FI over an m-grade chain| = Z(crisp-ideal lattice, m), the
        members are distinct, and every level cut of every enumerated ideal
        is a crisp ideal: a fuzzy family is exactly the descending
        multichains of its crisp ideals, which the suites' crisp pair checks
        rest on.  On the enumerator fixtures, the L and R semirings of each,
        and boolean[2x2], whose longest chain here is past the default cap."""
        cases = [(g, naive_crisp_ideals_gamma) for g in (*enum_instances, build_matrix_gamma(gb, 2).gamma)]
        cases += [
            (build_operator_semiring(g, side).semiring, brute_crisp_ideals_semiring)
            for g in enum_instances for side in ("left", "right")
        ]
        for g, crisp_ideals in cases:
            for kind in ("left", "right", "two"):
                crisp = crisp_ideals(g, kind)
                for chain in CHAINS:
                    ideals = enumerate_fuzzy_ideals(g, chain, kind, cap=len(chain) ** len(carrier_of(g).ids))
                    assert len(ideals) == count_multichains(crisp, len(chain) - 1), (
                        g.name, kind, str(chain),
                    )
                    assert len({mu.grades for mu in ideals}) == len(ideals), (g.name, kind, str(chain))
                    for mu in ideals:
                        for c in chain.grades[1:]:
                            cut = frozenset(x for x, v in enumerate(mu.grades) if v >= c)
                            assert cut in crisp, (g.name, kind, mu.grades, c)

    def test_absorption_images_match_the_scalar_loop(self, enum_instances, gb):
        """The numpy-built masks are the scalar loop's on the enumerator
        fixtures, their L and R, boolean[2x2] and the 128-element B7
        semiring, whose masks are past one machine word."""
        structures = [*enum_instances, build_matrix_gamma(gb, 2).gamma, core.boolean_power_semiring(7)]
        structures += [build_operator_semiring(g, side) for g in enum_instances for side in ("left", "right")]
        for structure in structures:
            base = getattr(structure, "semiring", structure)
            for kind in ("left", "right", "two"):
                image = core._absorption_images(structure, kind)
                assert image == naive_absorption_images(base, kind), (base.name, kind)

    def test_cap_enforced(self, z4):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_fuzzy_ideals(z4, CHAIN, "two", cap=10)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_crisp_ideals(z4, "two", cap=8)

    def test_enumerated_set_is_lattice_closed(self, gb, z2, z4):
        for g in (gb, z2, z4):
            ideals = enumerate_fuzzy_ideals(g, CHAIN, "two")
            grades = {m.grades for m in ideals}
            chain_set = set(CHAIN.grades)
            for a in ideals:
                for b in ideals:
                    s = fuzzy_sum(a, b)
                    i = fuzzy_intersection([a, b])
                    assert s.grades in grades
                    assert i.grades in grades
                    assert set(s.grades) <= chain_set
                    assert set(i.grades) <= chain_set

    def test_characteristic_is_ideal_iff_crisp_ideal(self, all_small_instances):
        import itertools

        for g in all_small_instances:
            n = len(g.S)
            for bits in itertools.product((0, 1), repeat=n):
                members = frozenset(i for i, b in enumerate(bits) if b)
                sub = CrispSubset(carrier_of(g), members)
                lam = characteristic(sub)
                crisp = is_crisp_ideal_gamma(g, sub, "two") and members
                fuzzy = is_fuzzy_ideal_gamma(g, lam, "two")
                assert bool(crisp) == fuzzy
