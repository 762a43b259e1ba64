"""Transfer maps between fuzzy subsets of a gamma-semiring and its operator
semirings.

For the left operator semiring L of base S:
  restrict:  mu+ (x)   = min over gamma of mu([x, gamma])
  lift:      sigma+'(f) = min over s in S of sigma(f(s))
The right-side maps use [gamma, x] pair classes and right actions; the
formulas are identical on action maps.  All four are defined on arbitrary
fuzzy subsets; ideal preservation is a property checked elsewhere.

Each min is taken on integer ranks.  A call finds the operand's distinct
grade objects by identity (usually as many as the chain has grades), puts
them over one common denominator, and sorts the distinct numerators: exact
integers, so equal grades held in distinct objects share a rank, grades
need not lie on any chain, and no `Fraction` is compared or hashed.  Each
element gets the rank of its grade, and every min of the image is taken at
once, as a numpy min over the ranks along the rows of the operator
semiring's action table (lift) or pair-class table (restrict).  The image
reuses the operand's own grade objects.
"""

from __future__ import annotations

import math

import numpy as np

from .fuzzy import FuzzySubset, carrier_of
from .operators import OperatorSemiring

__all__ = ["restrict_plus", "lift_plusprime", "restrict_star", "lift_starprime"]


def _row_mins(grades, rows: np.ndarray) -> tuple:
    """For each row of an index array, the least of the grades it indexes."""
    objects = {id(g): g for g in grades}  # the distinct grade objects
    # each object's grade as a numerator over one common denominator: exact
    # integers, so equal grades held in distinct objects get equal values
    scale = math.lcm(*(g.denominator for g in objects.values()))
    value = {i: g.numerator * (scale // g.denominator) for i, g in objects.items()}
    grade = {value[i]: g for i, g in objects.items()}
    ladder = sorted(grade)  # the distinct values, ascending
    rank = {i: ladder.index(v) for i, v in value.items()}
    ranks = np.array([rank[id(g)] for g in grades], dtype=np.intp)
    return tuple(map([grade[v] for v in ladder].__getitem__, ranks[rows].min(axis=1).tolist()))


def _restrict(op: OperatorSemiring, mu: FuzzySubset) -> FuzzySubset:
    if mu.carrier != carrier_of(op):
        raise ValueError("subset does not live on the operator semiring carrier")
    return FuzzySubset(carrier_of(op.base), _row_mins(mu.grades, op.pair_rows))


def _lift(op: OperatorSemiring, sigma: FuzzySubset) -> FuzzySubset:
    if sigma.carrier != carrier_of(op.base):
        raise ValueError("subset does not live on the base carrier")
    return FuzzySubset(carrier_of(op), _row_mins(sigma.grades, op.value_rows))


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
