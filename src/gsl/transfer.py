"""Transfer maps between fuzzy subsets of a gamma-semiring and its operator
semirings.

For the left operator semiring L of base S:
  restrict:  mu+ (x)   = min over gamma of mu([x, gamma])
  lift:      sigma+'(f) = min over s in S of sigma(f(s))
The right-side maps use [gamma, x] pair classes and right actions; the
formulas are identical on action maps.  All four are defined on arbitrary
fuzzy subsets; ideal preservation is a property checked elsewhere.

Each map is a min of grades along the rows of an index table: the operator
semiring's action table (lift) or pair-class table (restrict), and for
th3.19's lift a matrix instance's entries.  Ranks order the elements as
their grades do, so every map is one kernel, `min_ranks`, on integer ranks.
A min is at least c_k exactly when every grade it reads is, so cut k of an
image is the map of cut k alone: the suites call the kernel on the 0/1
bits of crisp masks and gather a family's images from the masks' images
(`verify._MAPS`, `verify.Workspace.transfer`).  The public maps here are
one-row calls of it, each grade ranked by its place among the operand's
own sorted distinct grades, with no level cuts built, and their images
reuse the operand's own grade objects.
"""

from __future__ import annotations

import numpy as np

from . import core
from .fuzzy import FuzzySubset, carrier_of
from .operators import OperatorSemiring

__all__ = ["min_ranks", "restrict_plus", "lift_plusprime", "restrict_star", "lift_starprime"]

# cells of the gather one block of `min_ranks` spans
_BLOCK_CELLS = 1 << 22


def min_ranks(ranks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For an (N, n) array of ranks, one subset of n elements per row (or
    of 0/1 bits, one mask per row), and an (n', k) index table into those
    elements: the (N, n') least ranks along each table row.  The subsets
    go through in `core._blocks`, so the gather spans at most _BLOCK_CELLS
    cells."""
    mins = np.empty((len(ranks), len(rows)), dtype=ranks.dtype)
    for block in core._blocks(len(ranks), rows.size, _BLOCK_CELLS):
        mins[block] = np.take(ranks[block], rows, axis=-1).min(axis=-1)
    return mins


def _grade_mins(mu: FuzzySubset, rows: np.ndarray) -> tuple:
    """For each row of an index table, the least of mu's grades it indexes:
    `min_ranks` on mu's one row of ranks, each grade's place among its own
    sorted distinct grades."""
    grades = sorted(set(mu.grades))
    rank = {g: r for r, g in enumerate(grades)}
    ranks = np.array([[rank[g] for g in mu.grades]], dtype=np.min_scalar_type(len(grades)))
    return tuple(map(grades.__getitem__, min_ranks(ranks, rows)[0].tolist()))


def _restrict(op: OperatorSemiring, mu: FuzzySubset) -> FuzzySubset:
    if mu.carrier != carrier_of(op):
        raise ValueError("subset does not live on the operator semiring carrier")
    return FuzzySubset(carrier_of(op.base), _grade_mins(mu, op.pair_rows))


def _lift(op: OperatorSemiring, sigma: FuzzySubset) -> FuzzySubset:
    if sigma.carrier != carrier_of(op.base):
        raise ValueError("subset does not live on the base carrier")
    return FuzzySubset(carrier_of(op), _grade_mins(sigma, op.value_rows))


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
