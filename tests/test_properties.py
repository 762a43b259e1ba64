"""Algebraic-law property tests over randomly drawn subsets and mutations."""

import dataclasses
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gsl import core
from gsl.fuzzy import (
    FuzzySubset,
    GradeChain,
    carrier_of,
    format_grade,
    fuzzy_intersection,
    fuzzy_sum,
    parse_grade,
)
from gsl.operators import build_operator_semiring
from gsl.transfer import lift_plusprime, restrict_plus
from conftest import replaced
from oracles import naive_gamma_violations, scan_close

GB = core.boolean_gamma()
Z2 = core.zn_gamma(2)
Z3 = core.zn_gamma(3)
Z4 = core.zn_gamma(4)
INSTANCES = (GB, Z2, Z3, Z4)
CHAIN = GradeChain.of(0, Fraction(1, 4), Fraction(1, 2), 1)

instances = st.sampled_from(INSTANCES)
grades = st.sampled_from(CHAIN.grades)


@st.composite
def instance_with_subsets(draw, count=2):
    g = draw(instances)
    n = len(g.S)
    subs = tuple(
        FuzzySubset.of_grades(g, [draw(grades) for _ in range(n)]) for _ in range(count)
    )
    return g, subs


@given(instance_with_subsets())
def test_fuzzy_sum_commutative(data):
    _, (a, b) = data
    assert fuzzy_sum(a, b).grades == fuzzy_sum(b, a).grades


@given(instance_with_subsets(count=3))
def test_fuzzy_sum_associative(data):
    _, (a, b, c) = data
    assert fuzzy_sum(fuzzy_sum(a, b), c).grades == fuzzy_sum(a, fuzzy_sum(b, c)).grades


@given(instance_with_subsets(count=3))
def test_intersection_laws(data):
    _, (a, b, c) = data
    assert fuzzy_intersection([a, a]).grades == a.grades
    assert fuzzy_intersection([a, b]).grades == fuzzy_intersection([b, a]).grades
    assert (
        fuzzy_intersection([fuzzy_intersection([a, b]), c]).grades
        == fuzzy_intersection([a, b, c]).grades
    )


@given(instance_with_subsets())
def test_operations_stay_inside_the_chain(data):
    _, (a, b) = data
    chain_set = set(CHAIN.grades)
    assert set(fuzzy_sum(a, b).grades) <= chain_set
    assert set(fuzzy_intersection([a, b]).grades) <= chain_set


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_grade_parse_format_round_trip(num, den):
    num = min(num, den)
    text = format_grade(Fraction(num, den))
    assert format_grade(parse_grade(text)) == text


@given(instances, st.data())
def test_restrict_commutes_with_intersections(g, data):
    # no ideal hypothesis: arbitrary subsets of the operator carrier
    op = build_operator_semiring(g, "left")
    n = len(op)
    fam = [
        FuzzySubset.of_grades(op, [data.draw(grades) for _ in range(n)])
        for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
    ]
    lhs = fuzzy_intersection([restrict_plus(op, m) for m in fam])
    rhs = restrict_plus(op, fuzzy_intersection(fam))
    assert lhs.grades == rhs.grades


@given(instances, st.data())
def test_lift_monotone_on_arbitrary_subsets(g, data):
    op = build_operator_semiring(g, "left")
    n = len(g.S)
    lo = [data.draw(grades) for _ in range(n)]
    hi = [max(v, data.draw(grades)) for v in lo]
    a = FuzzySubset.of_grades(g, lo)
    b = FuzzySubset.of_grades(g, hi)
    assert lift_plusprime(op, a) <= lift_plusprime(op, b)


@settings(max_examples=60)
@given(instances, st.data())
def test_product_mutations_validate_like_the_oracle(g, data):
    s, gg = len(g.S), len(g.G)
    a = data.draw(st.integers(min_value=0, max_value=s - 1))
    c = data.draw(st.integers(min_value=0, max_value=gg - 1))
    b = data.draw(st.integers(min_value=0, max_value=s - 1))
    v = data.draw(st.integers(min_value=0, max_value=s - 1))
    prod = [list(map(list, plane)) for plane in g.prod]
    prod[a][c][b] = v
    mutant = replaced(g, name="mutant", prod=prod)

    outcome = core.validate_gamma_semiring(mutant)
    expected = naive_gamma_violations(mutant)
    assert outcome.ok == (not expected)
    assert {viol.axiom for viol in outcome.violations} == set(expected)
    for viol in outcome.violations:
        assert core.recheck_violation(mutant, viol)


@given(instances, st.data())
def test_carrier_views_are_interchangeable(g, data):
    # equal tables mean equal carriers regardless of label
    c1 = carrier_of(g)
    c2 = dataclasses.replace(c1, label="renamed")
    assert c1 == c2
    mu = FuzzySubset.of_grades(c2, [data.draw(grades) for _ in range(c1.size)])
    assert fuzzy_sum(mu, FuzzySubset.constant(c1, 0)).carrier == c1


@st.composite
def closure_inputs(draw):
    """A random addition table, absorption images, starting mask and element."""
    n = draw(st.integers(1, 9))
    cell = st.integers(0, n - 1)
    add = [[draw(cell) for _ in range(n)] for _ in range(n)]
    image = [draw(st.integers(0, 2**n - 1)) for _ in range(n)]
    return add, image, draw(st.integers(0, 2**n - 1)), draw(cell)


@settings(max_examples=300)
@given(closure_inputs())
def test_close_walks_members_to_the_scan_closure(data):
    """`core.close` adds each element against the members it has, not every
    position, and returns the mask the full scan returns, on any table."""
    add, image, ideal, x = data
    assert core.close(add, image, ideal, x) == scan_close(add, image, ideal, x)
