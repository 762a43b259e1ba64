"""Transfer maps: frozen examples, duals, the intersection identity, the
rank mins against the sort-position oracle, and the crisp maps the suites
call, cut by cut, against the public maps."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_upper_triangular
from gsl import core
from gsl.matrix import build_matrix_gamma
from gsl.config import RunConfig
from gsl.fuzzy import CrispSubset, FuzzySubset, GradeChain, LevelCuts, carrier_of, characteristic, fuzzy_intersection
from gsl.operators import build_operator_semiring
from gsl.transfer import lift_plusprime, lift_starprime, restrict_plus, restrict_star
from gsl.verify import Workspace
from oracles import cuts_of, family, members, naive_matrix_lift, sort_position_lift, sort_position_restrict

HALF = Fraction(1, 2)
CHAIN = GradeChain.of(0, HALF, 1)


class TestRestrict:
    def test_boolean_examples(self, gb):
        op = build_operator_semiring(gb, "left")
        for t in CHAIN.grades:
            mu = FuzzySubset.of_grades(op, [1, t])  # zero map -> 1, identity -> t
            assert restrict_plus(op, mu).grades == (1, t)
        constant = FuzzySubset.constant(op, 1)
        assert restrict_plus(op, constant).grades == (1, 1)
        lam_zero = characteristic(CrispSubset.of_indices(carrier_of(op), [0]))
        assert restrict_plus(op, lam_zero).grades == (1, 0)

    def test_carrier_mismatch(self, gb):
        op = build_operator_semiring(gb, "left")
        with pytest.raises(ValueError):
            restrict_plus(op, FuzzySubset.constant(gb, 1))


class TestLift:
    def test_boolean_example(self, gb):
        op = build_operator_semiring(gb, "left")
        sigma = FuzzySubset.of_grades(gb, [1, HALF])
        lifted = lift_plusprime(op, sigma)
        assert lifted.grades == (1, HALF)  # zero map -> sigma(0), identity -> min
        assert lift_plusprime(op, FuzzySubset.constant(gb, 1)).grades == (1, 1)

    def test_z4_characteristic_example(self, z4):
        op = build_operator_semiring(z4, "left")
        sigma = characteristic(CrispSubset.of_ids(z4, ["0", "2"]))
        lifted = lift_plusprime(op, sigma)
        assert lifted.grades == (1, 0, 1, 0)  # exactly the maps with even image


class TestDuals:
    def test_right_side_matches_on_commutative_instances(self, gb, z2, z4):
        for g in (gb, z2, z4):
            left = build_operator_semiring(g, "left")
            right = build_operator_semiring(g, "right")
            n = len(g.S)
            for tail in itertools.product(CHAIN.grades, repeat=n - 1):
                sigma = FuzzySubset.of_grades(g, (Fraction(1),) + tail)
                assert (
                    lift_plusprime(left, sigma).grades
                    == lift_starprime(right, sigma).grades
                )
            for tail in itertools.product((Fraction(0), Fraction(1)), repeat=len(left) - 1):
                mu_l = FuzzySubset.of_grades(left, (Fraction(1),) + tail)
                mu_r = FuzzySubset.of_grades(right, (Fraction(1),) + tail)
                assert (
                    restrict_plus(left, mu_l).grades == restrict_star(right, mu_r).grades
                )

    def test_side_checks(self, gb):
        left = build_operator_semiring(gb, "left")
        right = build_operator_semiring(gb, "right")
        sigma = FuzzySubset.constant(gb, 1)
        with pytest.raises(ValueError):
            lift_plusprime(right, sigma)
        with pytest.raises(ValueError):
            lift_starprime(left, sigma)
        with pytest.raises(ValueError):
            restrict_plus(right, FuzzySubset.constant(right, 1))
        with pytest.raises(ValueError):
            restrict_star(left, FuzzySubset.constant(left, 1))


class TestIntersectionIdentity:
    def test_restrict_commutes_with_intersections(self, gb, z2, z4):
        # holds for arbitrary fuzzy subsets, no ideal hypothesis
        for g in (gb, z2, z4):
            op = build_operator_semiring(g, "left")
            n = len(op)
            pool = list(itertools.product(CHAIN.grades, repeat=n))
            for fam_size in (2, 3):
                for fam in itertools.islice(itertools.combinations(pool, fam_size), 60):
                    mus = [FuzzySubset.of_grades(op, gr) for gr in fam]
                    lhs = fuzzy_intersection([restrict_plus(op, m) for m in mus])
                    rhs = restrict_plus(op, fuzzy_intersection(mus))
                    assert lhs.grades == rhs.grades


# the rank mins against the sort-position mins they replaced
_OPERATORS = {
    (name, side): build_operator_semiring(g, side)
    for name, g in (
        ("from_B3", core.gamma_from_semiring(core.boolean_power_semiring(3))),
        ("upper_triangular", build_upper_triangular()),
    )
    for side in ("left", "right")
}
# on no common chain, and equal grades drawn as distinct Fraction objects
_GRADES = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.builds(Fraction, st.integers(0, 4), st.just(4)),
    st.sampled_from(CHAIN.grades),
)


@st.composite
def _operands(draw):
    """An operator semiring, a direction and a fuzzy subset to map."""
    op = _OPERATORS[draw(st.sampled_from(sorted(_OPERATORS)))]
    up = draw(st.booleans())
    carrier = carrier_of(op.base) if up else carrier_of(op)
    grades = draw(st.lists(_GRADES, min_size=carrier.size, max_size=carrier.size))
    return op, up, FuzzySubset(carrier, tuple(grades))


_MAPS = {
    ("left", True): (lift_plusprime, sort_position_lift),
    ("right", True): (lift_starprime, sort_position_lift),
    ("left", False): (restrict_plus, sort_position_restrict),
    ("right", False): (restrict_star, sort_position_restrict),
}


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_rank_mins_match_sort_position_mins(case):
    op, up, subset = case
    ours, oracle = _MAPS[op.side, up]
    image = ours(op, subset)
    assert image == oracle(op, subset)
    # every grade of the image is one of the operand's own grade objects
    own = {id(g) for g in subset.grades}
    assert all(id(g) in own for g in image.grades)


def test_equal_grades_in_distinct_objects_share_a_rank():
    op = _OPERATORS["from_B3", "left"]
    halves = [Fraction(1, 2), Fraction(2, 4), Fraction(3, 6)]
    assert len({id(h) for h in halves}) == 3
    grades = [Fraction(1)] + [halves[x % 3] if x % 2 else Fraction(1, 3) for x in range(1, 8)]
    sigma = FuzzySubset.of_grades(op.base, grades)
    assert lift_plusprime(op, sigma) == sort_position_lift(op, sigma)


def test_public_maps_build_no_level_cuts(monkeypatch):
    """The four public maps rank their operand on its own grades directly,
    and build no `LevelCuts` view to do it."""
    built = []
    real = LevelCuts.__init__
    monkeypatch.setattr(LevelCuts, "__init__", lambda view, *args: built.append(args) or real(view, *args))
    grades = (Fraction(1), Fraction(1, 3), HALF, Fraction(0), Fraction(2, 3))
    for side, lift, restrict in (("left", lift_plusprime, restrict_plus), ("right", lift_starprime, restrict_star)):
        op = _OPERATORS["from_B3", side]
        sigma = FuzzySubset.of_grades(op.base, [grades[x % 5] for x in range(len(op.base.S))])
        mu = FuzzySubset.of_grades(op, [grades[x % 5] for x in range(len(op))])
        assert lift(op, sigma) == sort_position_lift(op, sigma)
        assert restrict(op, mu) == sort_position_restrict(op, mu)
    assert built == []


# the crisp maps the suites call, cut by cut, against the public maps on
# subsets: `Workspace.transfer` maps each mask once, and a subset's image is
# the gather of its cuts' images
_FAMILY_INSTANCES = {
    "boolean": core.boolean_gamma,
    "z2": lambda: core.zn_gamma(2),
    "z3": lambda: core.zn_gamma(3),
    "z4": lambda: core.zn_gamma(4),
    "from_B3": lambda: core.gamma_from_semiring(core.boolean_power_semiring(3)),
    "upper_triangular": build_upper_triangular,
    "boolean[2x2]": lambda: build_matrix_gamma(core.boolean_gamma(), 2).gamma,
}
# the instances whose 2 x 2 matrix instance fits the default matrix cap
_MATRIX_FITS = ("boolean", "z2")
_CHAINS = ("0,1", "0,1/2,1", "0,1/4,1/2,3/4,1")
_PUBLIC = {
    ("L", "lift"): lift_plusprime,
    ("L", "restrict"): restrict_plus,
    ("R", "lift"): lift_starprime,
    ("R", "restrict"): restrict_star,
}


def _same_on_every_member(ws, side, direction, kind, public):
    """`ws.transfer(side, direction)` on a whole fuzzy family gives, member
    by member, the cuts of public(subset) on the target's view."""
    source, target = ("S", side) if direction == "lift" else (side, "S")
    on_source, on_target = ws.level_cuts(source), ws.level_cuts(target)
    ideals = ws.fuzzy_family(source, kind)
    images = members(on_target, ws.transfer(side, direction)(ideals))
    expected = [cuts_of(on_target, public(on_source.subset(row))) for row in ideals]
    assert images == expected, (ws.structure.name, side, direction, kind, str(ws.config.chain))
    return len(ideals)


def _workspace(instance, chain):
    return Workspace(_FAMILY_INSTANCES[instance](), RunConfig(chain=GradeChain.parse(chain), enum_cap=10**12))


@pytest.mark.parametrize("chain", _CHAINS)
@pytest.mark.parametrize("instance", _FAMILY_INSTANCES)
def test_family_kernel_matches_the_public_maps(instance, chain):
    """On every member of every fuzzy family of S, L and R, of each kind,
    the workspace's maps, which map the masks of the member's cuts, give
    the cuts the public maps give on the member as a subset, for both sides
    and both directions."""
    ws = _workspace(instance, chain)
    checked = 0
    for (side, direction), public in _PUBLIC.items():
        op = ws.left if side == "L" else ws.right
        for kind in ("two", "right", "left"):
            checked += _same_on_every_member(ws, side, direction, kind, lambda mu: public(op, mu))
    assert checked


@pytest.mark.parametrize("chain", _CHAINS)
@pytest.mark.parametrize("instance", _FAMILY_INSTANCES)
def test_crisp_route_matches_the_public_maps_on_arbitrary_subsets(instance, chain):
    """A seeded sample of arbitrary fuzzy subsets over the chain, most of
    them no ideals, interned into a workspace whose maps have mapped its
    families already: the image of each, gathered from the crisp images of
    its cuts, has the cuts of the public map's image, for L and R in both
    directions, and for th3.19's lift where the matrix instance fits."""
    ws = _workspace(instance, chain)
    grades, rng = ws.config.chain.grades, random.Random(f"{instance} {chain}")
    maps = {key: (lambda mu, public=public, side=key[0]: public(ws.left if side == "L" else ws.right, mu))
            for key, public in _PUBLIC.items()}
    if instance in _MATRIX_FITS:
        maps["M", "lift"] = lambda mu: naive_matrix_lift(ws.matrix, mu)
    for (side, direction), public in maps.items():
        source, target = ("S", side) if direction == "lift" else (side, "S")
        on_source, on_target = ws.level_cuts(source), ws.level_cuts(target)
        image = ws.transfer(side, direction)
        image(ws.fuzzy_family(source))
        size = on_source.carrier.size
        subsets = [FuzzySubset(on_source.carrier, tuple(rng.choice(grades) for _ in range(size))) for _ in range(20)]
        images = members(on_target, image(family(on_source, [cuts_of(on_source, mu) for mu in subsets])))
        assert images == [cuts_of(on_target, public(mu)) for mu in subsets], (side, direction)


@pytest.mark.parametrize("chain", _CHAINS)
def test_matrix_kernel_matches_the_public_lift(chain):
    """th3.19's lift on crisp masks, cut by cut, is the loop lift, the
    least grade over the entries (`naive_matrix_lift`), on every member of
    the fuzzy families of boolean and z2, onto their 2 x 2 matrix
    instances."""
    for instance in _MATRIX_FITS:
        ws = _workspace(instance, chain)
        for kind in ("two", "right", "left"):
            assert _same_on_every_member(ws, "M", "lift", kind, lambda mu: naive_matrix_lift(ws.matrix, mu))
