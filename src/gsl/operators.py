"""Left and right operator semirings of a finite gamma-semiring.

A formal sum of pairs acts on the carrier: a left sum of (x, gamma) pairs
sends a to the sum of the x@a products, a right sum of (gamma, x) pairs
sends a to the sum of a@x.  Two sums are identified exactly when their
actions agree on every carrier element, so the operator semiring is realized
directly as a set of action maps: addition is pointwise carrier addition,
multiplication is composition (left side f.g: a -> f(g(a)); right side in
diagram order a -> g(f(a))).

The element set is the additive closure of the single-pair actions,
computed by breadth-first worklist saturation.  Each element records one
shortest generating sum as provenance, ties broken lexicographically;
elements are canonically sorted by value tuple, so rebuilding an instance
is bit-for-bit deterministic and the zero map always sits at index 0.

The work is array work over action rows, each keyed by its bytes.  Many
pairs share one action (on a 16-element matrix instance, 256 pairs give 16
actions), so the saturation adds each distinct action once, paired with
the smallest pair that has it, and each layer is one gather of the addition
table over (frontier, action) rows, whose new rows are found by binary
search in the sorted keys of the actions known.  The provenance is the one
a saturation over every pair would record: inserting a smaller pair into a
sorted tuple gives an elementwise smaller sorted tuple, so the smallest
pair of an action always wins its layer.  The addition and composition
tables are (E, E, |S|) gathers looked up by row key the same way.
Elements are sorted by value tuple, not by key: the two orders differ
once values need more than one byte.  Every action is checked to be an
additive map of (S, +) fixing 0: the closure then lies in End(S, +), and
with tables looked up as pointwise sums and compositions it is a semiring,
so no semiring law needs a check on its E^3 cells.

The crisp correspondences are maps of int bitmasks on the instance, named
for what they keep, so one name serves either side.  What they depend on
belongs to the operator semiring alone, so the instance builds it once, as
masks: each element's image in S, that image closed under the addition of
S, and each base element's pair classes (each on first use).
`pair_fixed` keeps the base elements whose pair-class mask lies in the
target (the paper's P+ on the left, P* on the right), and
`image_contained` the elements whose image-closure mask does (Q+' and
Q*'); on an additively closed target the plain image must agree, else
RuntimeError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from . import core

__all__ = [
    "OperatorSemiring",
    "ClosureCapExceeded",
    "ClosureBudgetExceeded",
    "build_operator_semiring",
    "find_unity",
]

SIDES = ("left", "right")


class ClosureCapExceeded(core.CapExceeded):
    """Additive closure grew past the configured element cap; results discarded."""


# Nothing raises it since the time budget went; perfbench/spans.py still imports it.
class ClosureBudgetExceeded(RuntimeError):
    """Closure did not saturate within the configured time budget."""


def _check_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return side


@dataclass(frozen=True)
class OperatorSemiring:
    """Operator semiring of `base`, realized on canonical action maps.

    `value_rows` is the read-only (E, |S|) array the closure produced: row i
    holds the values of element i.  `provenance[i]` is one shortest formal
    sum generating element i: a sorted tuple of (x, gamma) index pairs on the
    left side, (gamma, x) on the right.  `pair_rows[x, gamma]`, a read-only
    (|S|, |G|) array, is the element of the single-pair action for either
    side (the transfer maps take their mins along value and pair rows).
    `semiring` is the same structure as a plain Semiring with carrier ids
    f0, f1, ... in canonical element order; its `tables` are the addition
    and composition tables.

    Derived once, on first use, as int bitmasks for `pair_fixed` and
    `image_contained`: `image_masks[i]`, the image of element i in S;
    `closure_masks[i]`, that image closed under the addition of S; and
    `pair_masks[x]`, the elements [x, gamma] over every gamma.  The two correspondences keep what they gave for each
    mask, so a run that asks for one mask's image from several suites and
    kinds computes it once.
    """

    side: str
    base: core.GammaSemiring
    value_rows: np.ndarray = field(repr=False, compare=False)
    provenance: tuple[tuple[tuple[int, int], ...], ...]
    pair_rows: np.ndarray = field(repr=False, compare=False)
    semiring: core.Semiring

    @cached_property
    def image_masks(self) -> tuple[int, ...]:
        return tuple(map(_mask, self.value_rows.tolist()))

    @cached_property
    def closure_masks(self) -> tuple[int, ...]:
        add, zero = self.base.tables[0].tolist(), [0] * len(self.base.S)
        return tuple(
            reduce(lambda closed, x: core.close(add, zero, closed, x), set(values), 0)
            for values in self.value_rows.tolist()
        )

    @cached_property
    def pair_masks(self) -> tuple[int, ...]:
        return tuple(map(_mask, self.pair_rows.tolist()))

    @cached_property
    def _corresponded(self) -> dict[tuple[str, int], int]:
        """What `pair_fixed` and `image_contained` gave, by (name, mask)."""
        return {}

    def _once(self, name: str, mask: int, compute) -> int:
        key = (name, mask)
        if key not in self._corresponded:
            self._corresponded[key] = compute(mask)
        return self._corresponded[key]

    def pair_fixed(self, mask: int) -> int:
        """For P inside this semiring, as a mask: the mask of the base
        elements x whose every pair class lies in P (P+ on the left, P* on
        the right).  Computed once per mask."""
        return self._once("pair_fixed", mask, self._pair_fixed)

    def image_contained(self, mask: int) -> int:
        """For Q inside S, as a mask: the mask of the elements whose image,
        closed under the addition of S, lies in Q (Q+' on the left, Q*' on
        the right).  On an additively closed Q the plain image must agree,
        else RuntimeError.  Computed once per mask."""
        return self._once("image_contained", mask, self._image_contained)

    def _pair_fixed(self, mask: int) -> int:
        return sum(1 << x for x, pairs in enumerate(self.pair_masks) if not pairs & ~mask)

    def _image_contained(self, mask: int) -> int:
        members = [x for x in range(len(self.base.S)) if mask >> x & 1]
        sums = self.base.tables[0][np.ix_(members, members)].ravel().tolist()
        closed = all(mask >> y & 1 for y in sums)
        inside = 0
        for i, (image, closure) in enumerate(zip(self.image_masks, self.closure_masks)):
            if closed and (not closure & ~mask) != (not image & ~mask):
                raise RuntimeError(f"element {i}: image readings disagree on a closed target")
            if not closure & ~mask:
                inside |= 1 << i
        return inside

    def __len__(self) -> int:
        return len(self.value_rows)

    def index_of(self, values: tuple[int, ...]) -> Optional[int]:
        rows = self.value_rows
        hit = np.flatnonzero((rows == values).all(axis=1)) if len(values) == rows.shape[1] else []
        return int(hit[0]) if len(hit) else None

    def provenance_expr(self, i: int) -> str:
        """The recorded formal sum of element i, e.g. '[1,1] + [1,1]'."""
        if self.side == "left":
            terms = [f"[{self.base.S[x]},{self.base.G[a]}]" for x, a in self.provenance[i]]
        else:
            terms = [f"[{self.base.G[a]},{self.base.S[x]}]" for a, x in self.provenance[i]]
        return " + ".join(terms)


def build_operator_semiring(
    g: core.GammaSemiring,
    side: str,
    cap: int = 1_000_000,
) -> OperatorSemiring:
    """Saturate the single-pair actions under pointwise addition and assemble
    the addition/composition tables.

    Reads `g.tables` and hands the tables it assembles, as arrays, to the
    `Semiring` constructor.  Raises ClosureCapExceeded when the closure
    would exceed `cap` elements.
    """
    _check_side(side)
    s, gg = len(g.S), len(g.G)
    addS, _, prod = g.tables

    # row p is the action of pair p, in ascending pair order: (x, gamma) =
    # divmod(p, |G|) on the left, (gamma, x) = divmod(p, |S|) on the right
    if side == "left":
        pair_rows, width = prod.reshape(s * gg, s), gg
    else:
        pair_rows, width = prod.transpose(1, 2, 0).reshape(gg * s, s), s
    # the distinct actions (generators), each with its smallest pair as its
    # provenance; `known` holds the sorted keys of every action found
    known, first, pair_action = np.unique(core._row_keys(pair_rows), return_index=True, return_inverse=True)
    generators = pair_rows[first]
    layers, provs = [generators], [first[:, None]]

    while True:
        if len(known) > cap:
            raise ClosureCapExceeded(f"{g.name}/{side}: closure exceeds cap {cap} elements")
        # frontier + generator; each new action keeps its least sorted sum of pairs
        sums = addS[layers[-1][:, None, :], generators[None, :, :]].reshape(-1, s)
        keys = core._row_keys(sums)
        new = np.flatnonzero(known.take(np.searchsorted(known, keys), mode="clip") != keys)
        if not new.size:
            break
        f, k = np.divmod(new, len(generators))
        candidates = np.sort(np.column_stack((provs[-1][f], first[k])), axis=1)
        reached, action = np.unique(keys[new], return_inverse=True)
        by_action = np.lexsort((*candidates.T[::-1], action))
        least = by_action[np.diff(action[by_action], prepend=-1) != 0]
        known = np.sort(np.concatenate((known, reached)))
        layers.append(sums[new[least]])
        provs.append(candidates[least])

    # ascending value tuples; byte order agrees only for one-byte values
    found = np.concatenate(layers)
    order = np.lexsort(found.T[::-1])
    elements = found[order]
    elements.setflags(write=False)
    n = len(elements)
    if elements[0].any():
        raise AssertionError("zero map missing from closure")
    # every action an additive map of the commutative monoid (S, +) fixing 0
    additive = elements[:, addS] == addS[elements[:, :, None], elements[:, None, :]]
    monoid = not any(core._monoid_witnesses(addS, "add").values())
    if not (monoid and additive.all()) or elements[:, 0].any():
        raise AssertionError("operator semiring failed validation: the actions are not in End(S, +)")

    sums = addS[elements[:, None, :], elements[None, :, :]]
    composed = elements[:, elements]  # [f, g]: a -> f(g(a))
    if side == "right":  # diagram order: a -> g(f(a))
        composed = composed.transpose(1, 0, 2)
    # `known` holds the keys of the elements, sorted, in the order `by_key`
    wanted = core._row_keys(np.stack((sums, composed)).reshape(-1, s))
    by_key, at = np.argsort(core._row_keys(elements)), np.searchsorted(known, wanted)
    if (known.take(at, mode="clip") != wanted).any():
        raise AssertionError("a sum or composition left the additive closure")
    tables = by_key[at].reshape(2, n, n)

    name = f"{g.name}::{'L' if side == 'left' else 'R'}"
    semiring = core.Semiring(name, tuple(f"f{i}" for i in range(n)), *tables)
    pair_idx = np.argsort(order)[pair_action].reshape(-1, width)  # the inverse permutation of `order`
    pair_idx = np.ascontiguousarray(pair_idx if side == "left" else pair_idx.T)
    pair_idx.setflags(write=False)
    by_layer = [row for layer in provs for row in layer.tolist()]
    return OperatorSemiring(
        side=side,
        base=g,
        value_rows=elements,
        provenance=tuple(tuple(divmod(p, width) for p in by_layer[i]) for i in order.tolist()),
        pair_rows=pair_idx,
        semiring=semiring,
    )


def find_unity(g: core.GammaSemiring, op: OperatorSemiring) -> Optional[int]:
    """Index of the identity action in the operator semiring, if present.

    On the left side this is a left unity of the base, on the right side a
    right unity; its provenance is the witnessing formal sum.
    """
    if op.base is not g and op.base != g:
        raise ValueError("operator semiring was not built from this instance")
    return op.index_of(tuple(range(len(g.S))))


def _mask(indices) -> int:
    return sum(1 << i for i in set(indices))
