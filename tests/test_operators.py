"""Operator semiring construction against the length-bounded closure oracle
and the per-cell closure it replaced, plus the pair-class correspondences."""

import tracemalloc

import numpy as np
import pytest

from gsl import core
from gsl.fuzzy import CrispSubset, carrier_of
from gsl.operators import ClosureCapExceeded, build_operator_semiring, find_unity
from gsl.matrix import build_matrix_gamma
from oracles import (
    naive_operator_actions,
    naive_operator_provenance,
    per_cell_operator_semiring,
    set_image_contained_set,
    set_pair_fixed_set,
)


def _elements(op) -> list[tuple[int, ...]]:
    """The value tuples of the elements, in element order."""
    return list(map(tuple, op.value_rows.tolist()))


def _action(g, x: int, alpha: int, side: str) -> tuple[int, ...]:
    """Left pair (x, alpha): a -> x@a.  Right pair (alpha, x): a -> a@x."""
    if side == "left":
        return tuple(g.prod[x][alpha][a] for a in range(len(g.S)))
    return tuple(g.prod[a][alpha][x] for a in range(len(g.S)))


class TestActionOfPair:
    def test_boolean_pairs(self, gb):
        """The element of a single pair (`pair_rows`) holds its action."""
        zero = (0, 0)
        ident = (0, 1)
        left, right = build_operator_semiring(gb, "left"), build_operator_semiring(gb, "right")
        assert _elements(left)[left.pair_rows[0, 1]] == zero
        assert _elements(left)[left.pair_rows[1, 1]] == ident
        assert _elements(left)[left.pair_rows[1, 0]] == zero
        assert _elements(right)[right.pair_rows[1, 1]] == ident

    def test_additivity_invariant(self, all_small_instances):
        for g in all_small_instances:
            for side in ("left", "right"):
                op = build_operator_semiring(g, side)
                for f in _elements(op):
                    for a in range(len(g.S)):
                        for b in range(len(g.S)):
                            assert f[g.addS[a][b]] == g.addS[f[a]][f[b]]
                        assert f[0] == 0


class TestBuild:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_closure_matches_length_bounded_oracle(self, all_small_instances, side):
        for g in all_small_instances:
            op = build_operator_semiring(g, side)
            oracle = naive_operator_actions(g, side)
            assert set(_elements(op)) == oracle, g.name

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_closure_matches_all_pairs_oracle(self, enum_instances, gb, z2, side):
        """Saturating one pair per distinct action gives the elements, tables
        and provenance that a search over every pair gives."""
        matrices = [build_matrix_gamma(g, 2).gamma for g in (gb, z2)]
        for g in (*enum_instances, *matrices):
            op = build_operator_semiring(g, side)
            elements, add, mul, provenance = naive_operator_provenance(g, side)
            assert _elements(op) == elements, g.name
            assert (op.semiring.add, op.semiring.mul, op.provenance) == (add, mul, provenance), g.name

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_closure_past_uint8_is_sorted_by_value(self, side):
        """|S| = 300: the actions a -> min(k, p(a)), p(a) the largest of
        0, 255, 299 up to a, first differ at a = 299, holding 255 and 299,
        whose two-byte codes sort the other way round.  The elements still
        come in value order, and match the search over every pair."""
        steps = (0, 255, 299)
        p = [max(k for k in steps if k <= a) for a in range(300)]
        g = core.GammaSemiring(
            "min_steps", tuple(map(str, range(300))), ("0", "1"),
            [[max(a, b) for b in range(300)] for a in range(300)], [[0, 1], [1, 1]],
            [[[min(p[a], p[b]) if c else 0 for b in range(300)] for c in range(2)] for a in range(300)],
        )
        op = build_operator_semiring(g, side)
        elements, add, mul, provenance = naive_operator_provenance(g, side)
        assert _elements(op) == elements
        assert (op.semiring.add, op.semiring.mul, op.provenance) == (add, mul, provenance)
        codes = [np.asarray(v, dtype=np.uint16).tobytes() for v in elements]
        assert len(elements) == 3 and codes != sorted(codes)
        for x in range(300):
            for c in range(2):
                assert elements[op.pair_rows[x][c]] == _action(g, x, c, side)

    def test_frozen_sizes(self, gb, z2, z4):
        assert len(build_operator_semiring(gb, "left")) == 2
        assert len(build_operator_semiring(z2, "left")) == 2
        assert len(build_operator_semiring(z4, "left")) == 4

    def test_zero_map_is_index_zero_and_valid_semiring(self, all_small_instances):
        for g in all_small_instances:
            for side in ("left", "right"):
                op = build_operator_semiring(g, side)
                assert _elements(op)[0] == (0,) * len(g.S)
                assert core.validate_semiring(op.semiring).ok

    def test_pair_product_law(self, all_small_instances):
        # composing the actions of [x,a] and [y,b] is the action of [x@y, b]
        for g in all_small_instances:
            op = build_operator_semiring(g, "left")
            for x in range(len(g.S)):
                for a in range(len(g.G)):
                    for y in range(len(g.S)):
                        for b in range(len(g.G)):
                            i = op.pair_rows[x][a]
                            j = op.pair_rows[y][b]
                            k = op.pair_rows[g.prod[x][a][y]][b]
                            assert op.semiring.mul[i][j] == k

    def test_right_pair_product_law(self, z4):
        # dual law: [a,x][b,y] acts as [a, x@y] with the middle product x b y
        op = build_operator_semiring(z4, "right")
        for a in range(4):
            for x in range(4):
                for b in range(4):
                    for y in range(4):
                        i = op.pair_rows[x][a]
                        j = op.pair_rows[y][b]
                        k = op.pair_rows[z4.prod[x][b][y]][a]
                        assert op.semiring.mul[i][j] == k

    def test_rebuild_is_identical(self, z4):
        a = build_operator_semiring(z4, "left")
        b = build_operator_semiring(z4, "left")
        assert np.array_equal(a.value_rows, b.value_rows)
        assert a.semiring == b.semiring
        assert a.provenance == b.provenance

    def test_left_right_match_on_symmetric_instances(self, gb, z2, z4):
        for g in (gb, z2, z4):
            left = build_operator_semiring(g, "left")
            right = build_operator_semiring(g, "right")
            assert _elements(left) == _elements(right)
            assert all(map(np.array_equal, left.semiring.tables, right.semiring.tables))

    def test_cap_raises(self, z4):
        with pytest.raises(ClosureCapExceeded):
            build_operator_semiring(z4, "left", cap=2)

    def test_z4_provenance_is_shortest_lex(self, z4):
        op = build_operator_semiring(z4, "left")
        # multiplication-by-k maps, canonically ordered as f0..f3
        assert _elements(op) == [
            (0, 0, 0, 0),
            (0, 1, 2, 3),
            (0, 2, 0, 2),
            (0, 3, 2, 1),
        ]
        assert op.provenance[0] == ((0, 0),)
        assert op.provenance[1] == ((1, 1),)
        assert op.provenance[2] == ((1, 2),)
        assert op.provenance[3] == ((1, 3),)


def _rank_one(k: int):
    """S = G = ({0,1}^k, or) and a@c@b = a if c and b share a bit, else 0:
    the left closure is every additive map of S, (2^k)^k of them, most of
    them sums of pairs that many other sums reach too."""
    n = 2**k
    ids = tuple(map(str, range(n)))
    add = [[a | b for b in range(n)] for a in range(n)]
    prod = [[[a if c & b else 0 for b in range(n)] for c in range(n)] for a in range(n)]
    return core.GammaSemiring("rank_one", ids, ids, add, add, prod)


class TestAgainstThePerCellClosure:
    """The closure found by sorted row keys and checked inside End(S, +)
    gives what the per-cell closure with its dense re-check gives."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_elements_tables_provenance_and_pair_index(self, all_small_instances, upper_triangular, gb, z3, side):
        from_b3 = core.gamma_from_semiring(core.boolean_power_semiring(3))
        matrices = [build_matrix_gamma(gb, 2).gamma, build_matrix_gamma(z3, 2, cap=81).gamma]
        for g in (*all_small_instances, core.zn_gamma(5), upper_triangular, from_b3, _rank_one(2), *matrices):
            op = build_operator_semiring(g, side)
            elements, add, mul, provenance, pair_index = per_cell_operator_semiring(g, side)
            assert np.array_equal(op.value_rows, elements), g.name
            assert (op.semiring.add, op.semiring.mul, op.provenance, tuple(map(tuple, op.pair_rows.tolist()))) == (
                add, mul, provenance, pair_index
            ), g.name
            assert _elements(op) == list(map(tuple, elements.tolist()))
            assert not op.value_rows.flags.writeable

    def test_actions_outside_end_s_raise(self):
        """On ({0,1}^2, or) with a@1@b = a when b is 3 and 0 otherwise, the
        left actions fix 0 but are not additive (1 + 2 = 3), so the build
        stops before it assembles a table."""
        add = [[a | b for b in range(4)] for a in range(4)]
        prod = [[[a if c and b == 3 else 0 for b in range(4)] for c in range(2)] for a in range(4)]
        g = core.GammaSemiring("not_additive", ("0", "1", "2", "3"), ("0", "1"), add, [[0, 1], [1, 1]], prod)
        with pytest.raises(AssertionError, match=r"not in End\(S, \+\)"):
            build_operator_semiring(g, "left")

    def test_rank_one_closure_builds_in_bounded_memory(self):
        """The 512-element closure is checked on E |S|^2 cells, not E^3 (a
        dense re-check took 13.8 s of a 14.5 s build), and the build peaks
        under 128 MB traced."""
        g = _rank_one(3)
        tracemalloc.start()
        try:
            op = build_operator_semiring(g, "left")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(op) == 512
        assert op.index_of(tuple(range(8))) is not None
        assert peak <= 128 * 2**20, peak / 2**20


class TestUnity:
    def test_unities_present(self, gb, z2, z4):
        for g in (gb, z2, z4):
            left = build_operator_semiring(g, "left")
            right = build_operator_semiring(g, "right")
            assert find_unity(g, left) is not None
            assert find_unity(g, right) is not None

    def test_boolean_unity_provenance(self, gb):
        op = build_operator_semiring(gb, "left")
        u = find_unity(gb, op)
        assert op.provenance_expr(u) == "[1,1]"

    def test_z4_unity_provenance(self, z4):
        op = build_operator_semiring(z4, "left")
        u = find_unity(z4, op)
        assert op.provenance_expr(u) == "[1,1]"

    def test_zero_product_has_no_unity(self, zero_product):
        op = build_operator_semiring(zero_product, "left")
        assert len(op) == 1
        assert find_unity(zero_product, op) is None


class TestCorrespondences:
    """The paper's crisp correspondences as mask maps on the operator
    semiring: P+ on the left and P* on the right are `pair_fixed`, Q+' and
    Q*' are `image_contained`."""

    def test_plus_set_boolean(self, gb):
        op = build_operator_semiring(gb, "left")
        assert _ids(gb, op.pair_fixed(0b1)) == ["0"]
        assert _ids(gb, op.pair_fixed(0b11)) == ["0", "1"]
        assert _ids(gb, op.pair_fixed(0)) == []

    def test_plusprime_set_z4(self, z4):
        op = build_operator_semiring(z4, "left")
        assert _ids(op, op.image_contained(0b101)) == ["f0", "f2"]
        assert _ids(op, op.image_contained(0b1111)) == ["f0", "f1", "f2", "f3"]
        assert _ids(op, op.image_contained(0b1)) == ["f0"]

    def test_star_side_duals_transpose(self, gb, z2, z4):
        for g in (gb, z2, z4):
            left = build_operator_semiring(g, "left")
            right = build_operator_semiring(g, "right")
            for q in range(1 << len(g.S)):
                assert left.image_contained(q) == right.image_contained(q)
            for p in range(1 << len(left)):
                assert left.pair_fixed(p) == right.pair_fixed(p)

    def test_star_set_full_and_zero(self, z4):
        right = build_operator_semiring(z4, "right")
        assert _ids(z4, right.pair_fixed((1 << len(right)) - 1)) == ["0", "1", "2", "3"]
        assert _ids(right, right.image_contained(0b1)) == ["f0"]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_masks_match_the_frozenset_oracle(self, enum_instances, side):
        """The mask maps `pair_fixed` and `image_contained` give what the
        frozenset versions give, errors included: on every subset of S and
        of the operator semiring, additively closed or not."""
        from_b3 = core.gamma_from_semiring(core.boolean_power_semiring(3))
        not_closed = 0
        for g in (*enum_instances, from_b3):
            op = build_operator_semiring(g, side)
            for structure, mask_map, oracle in (
                (g, op.image_contained, set_image_contained_set),
                (op.semiring, op.pair_fixed, set_pair_fixed_set),
            ):
                carrier = carrier_of(structure)
                n, add = carrier.size, carrier.add
                for mask in range(1 << n):
                    target = CrispSubset.of_mask(carrier, mask)
                    members = target.members
                    not_closed += any(add[x][y] not in members for x in members for y in members)
                    want = _outcome(oracle, op, target)
                    want_mask = want if isinstance(want, str) else sum(1 << x for x in want.members)
                    assert _outcome(lambda op, _: mask_map(mask), op, target) == want_mask, (g.name, mask)
        assert not_closed

    def test_closed_target_disagreement_raises(self, z4):
        """On an additively closed target the plain image and its closure
        must agree: with a wrong closure mask for f2 (times 2, image {0, 2}),
        the closed target {0, 2} raises, and the target {0, 1}, not closed,
        does not."""
        op = build_operator_semiring(z4, "left")
        f2 = op.index_of((0, 2, 0, 2))
        closure = list(op.closure_masks)
        closure[f2] = 0b1111
        object.__setattr__(op, "closure_masks", tuple(closure))  # the cached value
        text = f"element {f2}: image readings disagree on a closed target"
        with pytest.raises(RuntimeError, match=text):
            op.image_contained(0b101)
        assert op.image_contained(0b11) == 0b1


def _ids(structure, mask):
    """The element ids of a mask of the structure's carrier."""
    ids = carrier_of(structure).ids
    return [ids[x] for x in range(len(ids)) if mask >> x & 1]


def _outcome(correspondence, op, target):
    """What the correspondence gives, or the text of the RuntimeError it raises."""
    try:
        return correspondence(op, target)
    except RuntimeError as disagreement:
        return str(disagreement)
