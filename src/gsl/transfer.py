"""Transfer maps between fuzzy subsets of a gamma-semiring and its operator
semirings.

For the left operator semiring L of base S:
  restrict:  mu+ (x)   = min over gamma of mu([x, gamma])
  lift:      sigma+'(f) = min over s in S of sigma(f(s))
The right-side maps use [gamma, x] pair classes and right actions; the
formulas are identical on action maps.  All four are defined on arbitrary
fuzzy subsets; ideal preservation is a property checked elsewhere.

Each min is taken by sort position: one call sorts the operand's element
indices by grade once, and the min over a set of indices is the grade at
the least position among them.  So a call makes one sort's worth of
`Fraction` comparisons, not one per value, and its image reuses the
operand's own grade objects.
"""

from __future__ import annotations

from .fuzzy import FuzzySubset, carrier_of
from .operators import OperatorSemiring

__all__ = ["restrict_plus", "lift_plusprime", "restrict_star", "lift_starprime"]


def _sort_positions(grades) -> tuple[list[int], list[int]]:
    """(order, position): the indices sorted by grade, and each index's place
    in that order.  The min of the grades over a set of indices is the grade
    of order[p], p the least position in the set."""
    order = sorted(range(len(grades)), key=grades.__getitem__)
    position = [0] * len(order)
    for p, x in enumerate(order):
        position[x] = p
    return order, position


def _restrict(op: OperatorSemiring, mu: FuzzySubset) -> FuzzySubset:
    if mu.carrier != carrier_of(op):
        raise ValueError("subset does not live on the operator semiring carrier")
    order, position = _sort_positions(mu.grades)
    grades = tuple(mu.grades[order[min(map(position.__getitem__, row))]] for row in op.pair_index)
    return FuzzySubset(carrier_of(op.base), grades)


def _lift(op: OperatorSemiring, sigma: FuzzySubset) -> FuzzySubset:
    if sigma.carrier != carrier_of(op.base):
        raise ValueError("subset does not live on the base carrier")
    order, position = _sort_positions(sigma.grades)
    grades = tuple(
        sigma.grades[order[min(map(position.__getitem__, f.values))]] for f in op.elements
    )
    return FuzzySubset(carrier_of(op), grades)


def restrict_plus(op: OperatorSemiring, mu: FuzzySubset) -> FuzzySubset:
    """mu over L down to S: x -> min over gamma of mu([x, gamma])."""
    if op.side != "left":
        raise ValueError("restrict_plus needs a left operator semiring")
    return _restrict(op, mu)


def lift_plusprime(op: OperatorSemiring, sigma: FuzzySubset) -> FuzzySubset:
    """sigma over S up to L: f -> min over s of sigma(f(s)).  Well defined
    because congruence classes are identified with their actions."""
    if op.side != "left":
        raise ValueError("lift_plusprime needs a left operator semiring")
    return _lift(op, sigma)


def restrict_star(op: OperatorSemiring, mu: FuzzySubset) -> FuzzySubset:
    """Right-side dual of restrict_plus, over [gamma, x] pair classes."""
    if op.side != "right":
        raise ValueError("restrict_star needs a right operator semiring")
    return _restrict(op, mu)


def lift_starprime(op: OperatorSemiring, sigma: FuzzySubset) -> FuzzySubset:
    """Right-side dual of lift_plusprime."""
    if op.side != "right":
        raise ValueError("lift_starprime needs a right operator semiring")
    return _lift(op, sigma)
