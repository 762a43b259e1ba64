"""The level-cut engine against the `Fraction` reference path.

`LevelCuts` does sums, intersections and inclusions a family at a time, as
tables over every pair, and ideal tests on level cuts; `naive_fuzzy_sum`,
`fuzzy_intersection`, `FuzzySubset.__le__` and `naive_is_fuzzy_ideal_*` do
them grade by grade.  Both must agree on every pair of fuzzy ideals, on S, L and
R, on chain-valued subsets that are not ideals, and on a carrier wider than
a machine word; the ideal tests must also agree on the matrix instances
th3.19 lifts onto, and the ideal-ness table on every mask a view interns,
non-ideal images of broken transfer maps included."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_upper_triangular, build_zero_product
from oracles import (
    cuts_of,
    family,
    fuzzy_family,
    install_map,
    mask_map,
    is_constant,
    is_ideal,
    members,
    naive_is_fuzzy_ideal_gamma,
    naive_fuzzy_sum,
    naive_is_fuzzy_ideal_semiring,
    naive_matrix_lift,
)
from gsl import core, transfer, verify
from gsl.config import RunConfig
from gsl.fuzzy import (
    FuzzySubset,
    GradeChain,
    LevelCuts,
    fuzzy_intersection,
    enumerate_fuzzy_ideals,
)
from gsl.matrix import build_matrix_gamma
from gsl.verify import Workspace

CHAINS = (GradeChain.parse("0,1/2,1"), GradeChain.parse("0,1/4,1/2,1"))
KINDS = ("left", "right", "two")


def _instances():
    """Every gamma instance the enumerators are tested on, and from_B3."""
    return [
        core.boolean_gamma(),
        core.zn_gamma(2),
        core.zn_gamma(3),
        core.zn_gamma(4),
        build_zero_product(),
        core.gamma_from_semiring(core.boolean_semiring()),
        build_upper_triangular(),
        core.gamma_from_semiring(core.boolean_power_semiring(3)),
    ]


INSTANCES = _instances()


@lru_cache(maxsize=None)
def _workspace(instance: int, chain: int) -> Workspace:
    return Workspace(INSTANCES[instance], RunConfig(chain=CHAINS[chain]))


def _is_ideal(structure, mu, kind) -> bool:
    if isinstance(structure, core.GammaSemiring):
        return naive_is_fuzzy_ideal_gamma(structure, mu.grades, kind)
    return naive_is_fuzzy_ideal_semiring(structure, mu.grades, kind)


def _agree_on_pairs(cuts: LevelCuts, subsets) -> None:
    """The sum, meet and inclusion tables of the family against the
    `Fraction` operations, and equal cut tuples against equal subsets, on
    every pair of its members.  The mask tables are first built over the
    first half of the members, so the full family makes them grow."""
    tuples = [cuts_of(cuts, mu) for mu in subsets]
    half = family(cuts, tuples[: (len(tuples) + 1) // 2])
    for table in (cuts.sum_table, cuts.meet_table, cuts.le_table):
        table(half, half)
    ids = family(cuts, tuples)
    sums, meets = cuts.sum_table(ids, ids), cuts.meet_table(ids, ids)
    le = cuts.le_table(ids, ids)
    n = len(subsets)
    assert ids.shape == (n, len(cuts.chain) - 1) and members(cuts, ids) == tuples
    assert sums.shape == meets.shape == (n, n, len(cuts.chain) - 1) and le.shape == (n, n)
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            assert members(cuts, sums[i])[j] == cuts_of(cuts, naive_fuzzy_sum(a, b))
            assert members(cuts, meets[i])[j] == cuts_of(cuts, fuzzy_intersection([a, b]))
            assert le[i, j] == (a <= b)
            assert (tuples[i] == tuples[j]) == (a == b)


def _agree_on_one(cuts: LevelCuts, structure, mu, cm) -> None:
    """The subset, the ideal tests and the constancy test of one member, on
    its id row, against the `Fraction` path and the cut-tuple references."""
    row = family(cuts, [cm])
    assert cuts.subset(row[0]) == mu
    assert cuts.constant_rows(row)[0] == mu.is_constant() == is_constant(cuts, cm)
    for kind in KINDS:
        assert cuts.ideal_rows(row, kind)[0] == _is_ideal(structure, mu, kind) == is_ideal(cuts, cm, kind)


@pytest.mark.parametrize("chain", range(len(CHAINS)))
@pytest.mark.parametrize("side", ["S", "L", "R"])
@pytest.mark.parametrize("instance", range(len(INSTANCES)), ids=[g.name for g in INSTANCES])
def test_cuts_agree_on_every_pair_of_fuzzy_ideals(instance, side, chain):
    """Sum, meet, inclusion and equality on every pair of fuzzy ideals; the
    round trip and the ideal test of every kind on every fuzzy ideal of
    every kind (a one-sided ideal is not always an ideal of the other kinds)."""
    ws = _workspace(instance, chain)
    structure = ws.structure_on(side)
    cuts = LevelCuts(structure, ws.config.chain)
    _agree_on_pairs(cuts, fuzzy_family(ws, side, "two"))
    distinct = {mu.grades: mu for kind in KINDS for mu in fuzzy_family(ws, side, kind)}
    for mu in distinct.values():
        _agree_on_one(cuts, structure, mu, cuts_of(cuts, mu))


@st.composite
def _chain_valued_pairs(draw):
    instance = draw(st.integers(0, len(INSTANCES) - 1))
    chain = draw(st.integers(0, len(CHAINS) - 1))
    ws = _workspace(instance, chain)
    structure = ws.structure_on(draw(st.sampled_from("SLR")))
    grades = st.sampled_from(CHAINS[chain].grades)
    size = len(structure.S) if isinstance(structure, core.GammaSemiring) else len(structure.carrier)
    a, b = (
        FuzzySubset.of_grades(structure, draw(st.lists(grades, min_size=size, max_size=size)))
        for _ in range(2)
    )
    return structure, CHAINS[chain], a, b


@settings(max_examples=200, deadline=None)
@given(_chain_valued_pairs())
def test_cuts_agree_on_chain_valued_subsets(case):
    structure, chain, a, b = case
    cuts = LevelCuts(structure, chain)
    _agree_on_pairs(cuts, [a, b])
    ids = family(cuts, [cuts_of(cuts, a), cuts_of(cuts, b)])
    sum_cuts = members(cuts, cuts.sum_table(ids, ids)[0])[1]
    for mu, cm in ((a, cuts_of(cuts, a)), (b, cuts_of(cuts, b)), (naive_fuzzy_sum(a, b), sum_cuts)):
        _agree_on_one(cuts, structure, mu, cm)


WIDE = core.boolean_power_semiring(7)  # 128 elements: each cut mask spans two machine words


@st.composite
def _wide_subsets(draw):
    chain = draw(st.sampled_from(CHAINS))
    grades = st.lists(st.sampled_from(chain.grades), min_size=128, max_size=128)
    return chain, [FuzzySubset.of_grades(WIDE, draw(grades)) for _ in range(2)]


@settings(max_examples=15, deadline=None)
@given(_wide_subsets())
def test_tables_agree_past_one_machine_word(case):
    chain, subsets = case
    _agree_on_pairs(LevelCuts(WIDE, chain), subsets)


def test_rank_array_unpacks_each_mask_once(monkeypatch):
    """`rank_array` keeps the bits of the masks it has unpacked (with
    `core._to_bits`) and, on a later call, unpacks only the masks interned
    since; the ranks are the cut counts of the cut tuples, past one machine
    word too."""
    cuts, unpacked, real = LevelCuts(WIDE, CHAINS[1]), [], core._to_bits
    monkeypatch.setattr(core, "_to_bits", lambda masks, n: unpacked.append(masks) or real(masks, n))
    tuples = [(7, 3, 1), (7, 3, 3), (1 << 127 | 7, 7, 0), (7, 3, 1)]
    cuts.rank_array(family(cuts, tuples[:2]))
    ranks = cuts.rank_array(family(cuts, tuples[2:]))
    assert unpacked == [[7, 3, 1], [1 << 127 | 7, 0]]
    assert ranks.tolist() == [[sum(cut >> x & 1 for cut in cm) for x in range(128)] for cm in tuples[2:]]


MATRICES = [build_matrix_gamma(g, 2) for g in (core.boolean_gamma(), core.zn_gamma(2))]


@pytest.mark.parametrize("chain", range(len(CHAINS)))
@pytest.mark.parametrize("matrix", range(len(MATRICES)), ids=[mg.gamma.name for mg in MATRICES])
def test_cuts_agree_on_lifted_ideals(matrix, chain):
    """th3.19 tests each lifted fuzzy ideal for an ideal on its cuts."""
    mg = MATRICES[matrix]
    cuts = LevelCuts(mg.gamma, CHAINS[chain])
    for kind in KINDS:
        for mu in enumerate_fuzzy_ideals(mg.base, CHAINS[chain], kind):
            lifted = naive_matrix_lift(mg, mu)
            _agree_on_one(cuts, mg.gamma, lifted, cuts_of(cuts, lifted))


@st.composite
def _matrix_subsets(draw):
    """A chain-valued subset of a matrix instance: drawn cell by cell, or the
    lift of a subset of the base (an ideal exactly when that one is)."""
    mg = draw(st.sampled_from(MATRICES))
    chain = draw(st.sampled_from(CHAINS))
    grades = st.sampled_from(chain.grades)
    if draw(st.booleans()):
        mu = FuzzySubset.of_grades(mg.gamma, draw(st.lists(grades, min_size=16, max_size=16)))
    else:
        mu = naive_matrix_lift(
            mg, FuzzySubset.of_grades(mg.base, draw(st.lists(grades, min_size=2, max_size=2)))
        )
    return mg.gamma, chain, mu


@settings(max_examples=100, deadline=None)
@given(_matrix_subsets())
def test_cuts_agree_on_matrix_subsets(case):
    structure, chain, mu = case
    cuts = LevelCuts(structure, chain)
    _agree_on_one(cuts, structure, mu, cuts_of(cuts, mu))


def test_grade_off_the_chain_raises(gb):
    cuts = LevelCuts(gb, CHAINS[0])
    with pytest.raises(ValueError, match="grade 1/3 is not on the chain 0/1,1/2,1/1"):
        cuts_of(cuts, FuzzySubset.of_grades(gb, (1, Fraction(1, 3))))
    with pytest.raises(ValueError, match="does not live on"):
        cuts_of(cuts, FuzzySubset.of_grades(core.zn_gamma(3), (1, 0, 0)))


# the first fuzzy ideal of from_B3 (of its L) whose reversed lift (restriction)
# is no ideal: the first one that is not constant
FIRST_NON_IDEAL_LIFT, FIRST_NON_IDEAL_RESTRICTION = 0, 0


def _reversed(mu):
    """mu with its grades in reverse carrier order: a fuzzy ideal that is
    not constant becomes a non-ideal, since it no longer peaks at zero."""
    return FuzzySubset(mu.carrier, mu.grades[::-1])


def _reversed_mask(mask, size):
    """mask with its elements in reverse carrier order: cut by cut, what
    `_reversed` does to a fuzzy subset."""
    return sum(1 << (size - 1 - x) for x in range(size) if mask >> x & 1)


def test_ideal_table_agrees_with_the_naive_predicate_on_every_interned_mask(monkeypatch):
    """prop3.4's L clauses on from_B3 with a lift and a restriction that
    reverse the carrier order of every image mask, so every non-constant
    image is no ideal.  Clauses (i) and (vii) fail on the first row whose
    image the cut-tuple reference calls no ideal, with the reversed image
    of that member as witness, and afterwards the ideal-ness table of each
    view, read through `ideal_rows` on the members (I, ..., I), agrees with
    `naive_is_fuzzy_ideal_*` on the characteristic function of every mask
    the view has interned, for every kind."""
    chain = CHAINS[0]
    ws = Workspace(INSTANCES[-1], RunConfig(chain=chain))
    ideals_s, ideals_l = fuzzy_family(ws, "S"), fuzzy_family(ws, "L")
    for direction, size in (("lift", len(ws.left)), ("restrict", len(ws.structure.S))):
        real = mask_map(direction, ws.left, verify._MAPS["L", direction])
        install_map(monkeypatch, "L", direction, lambda op, mask, real=real, size=size: _reversed_mask(real(mask), size))
    rows = {cid: (status, witness) for cid, status, witness, _ in verify._clause_rows(ws, "L", True, True)}

    on_s, on_l = ws.level_cuts("S"), ws.level_cuts("L")
    lifted = members(on_l, ws.pairs("L", "lift").images)
    restricted = members(on_s, ws.pairs("L", "restrict").images)
    k = next(k for k, cuts in enumerate(lifted) if not is_ideal(on_l, cuts))
    image = _reversed(transfer.lift_plusprime(ws.left, ideals_s[k]))
    assert k == FIRST_NON_IDEAL_LIFT and rows["i"] == ("fail", {"clause": "i", "sigma": ideals_s[k].to_mapping(), "lifted": image.to_mapping()})
    k = next(k for k, cuts in enumerate(restricted) if not is_ideal(on_s, cuts))
    image = _reversed(transfer.restrict_plus(ws.left, ideals_l[k]))
    assert k == FIRST_NON_IDEAL_RESTRICTION and rows["vii"] == ("fail", {"clause": "vii", "mu": ideals_l[k].to_mapping(), "restricted": image.to_mapping()})

    for view, naive in ((on_s, naive_is_fuzzy_ideal_gamma), (on_l, naive_is_fuzzy_ideal_semiring)):
        ids = np.arange(len(view._masks))[:, None]
        masks = [mask for (mask,) in members(view, ids)]
        for kind in KINDS:
            got = view.ideal_rows(np.repeat(ids, len(chain) - 1, axis=1), kind).tolist()
            want = [naive(view.structure, [mask >> x & 1 for x in range(view.carrier.size)], kind) for mask in masks]
            assert got == want, (view.carrier.label, kind)
            assert not all(got)
