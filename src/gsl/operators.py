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

Many pairs share one action (on a 16-element matrix instance, 256 pairs
give 16 actions), so the saturation adds each distinct action once, paired
with the smallest pair that has it.  The provenance is the one a
saturation over every pair would record: inserting a smaller pair into a
sorted tuple gives an elementwise smaller sorted tuple, so the smallest
pair of an action always wins its layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import core
from .fuzzy import CrispSubset, carrier_of

__all__ = [
    "ActionMap",
    "OperatorSemiring",
    "ClosureCapExceeded",
    "ClosureBudgetExceeded",
    "action_of_pair",
    "build_operator_semiring",
    "find_unity",
    "plus_set",
    "star_set",
    "plusprime_set",
    "starprime_set",
]

SIDES = ("left", "right")


class ClosureCapExceeded(core.CapExceeded):
    """Additive closure grew past the configured element cap; results discarded."""


# Nothing raises it since the time budget went; perfbench/spans.py still imports it.
class ClosureBudgetExceeded(RuntimeError):
    """Closure did not saturate within the configured time budget."""


@dataclass(frozen=True)
class ActionMap:
    """The action of one congruence class: position a holds the image of a."""

    values: tuple[int, ...]
    side: str

    def __call__(self, a: int) -> int:
        return self.values[a]


def _check_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return side


def action_of_pair(g: core.GammaSemiring, x: int, alpha: int, side: str) -> ActionMap:
    """Left pair (x, alpha): a -> x@a.  Right pair (alpha, x): a -> a@x."""
    _check_side(side)
    if side == "left":
        values = tuple(g.prod[x][alpha][a] for a in range(len(g.S)))
    else:
        values = tuple(g.prod[a][alpha][x] for a in range(len(g.S)))
    return ActionMap(values, side)


@dataclass(frozen=True)
class OperatorSemiring:
    """Operator semiring of `base`, realized on canonical action maps.

    `provenance[i]` is one shortest formal sum generating element i: a sorted
    tuple of (x, gamma) index pairs on the left side, (gamma, x) on the right.
    `pair_index[x][gamma]` locates the single-pair action for either side.
    `semiring` is the same structure as a plain Semiring with carrier ids
    f0, f1, ... in canonical element order.
    """

    side: str
    base: core.GammaSemiring
    elements: tuple[ActionMap, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    provenance: tuple[tuple[tuple[int, int], ...], ...]
    pair_index: tuple[tuple[int, ...], ...]
    semiring: core.Semiring
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {e.values: i for i, e in enumerate(self.elements)}
        )

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, values: tuple[int, ...]) -> Optional[int]:
        return self._index.get(tuple(values))

    def identity_index(self) -> Optional[int]:
        return self.index_of(tuple(range(len(self.base.S))))

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

    Raises ClosureCapExceeded when the closure would exceed `cap` elements.
    """
    _check_side(side)
    s, gg = len(g.S), len(g.G)
    addS = g.addS

    # the action of every pair, keyed (x, gamma) on the left and (gamma, x) on
    # the right, in ascending pair order
    if side == "left":
        pair_values = {(x, a): action_of_pair(g, x, a, side).values for x in range(s) for a in range(gg)}
    else:
        pair_values = {(a, x): action_of_pair(g, x, a, side).values for a in range(gg) for x in range(s)}
    generators: dict[tuple[int, ...], tuple[int, int]] = {}
    for p, v in pair_values.items():
        generators.setdefault(v, p)

    known = {v: (p,) for v, p in generators.items()}
    if len(known) > cap:
        raise ClosureCapExceeded(f"{g.name}/{side}: closure exceeds cap {cap} elements")
    frontier = dict(known)

    while frontier:
        layer: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
        for v, prov in frontier.items():
            for pv, p in generators.items():
                nv = tuple(addS[a][b] for a, b in zip(v, pv))
                if nv in known:
                    continue
                nprov = tuple(sorted(prov + (p,)))
                cur = layer.get(nv)
                if cur is None or nprov < cur:
                    layer[nv] = nprov
        if not layer:
            break
        if len(known) + len(layer) > cap:
            raise ClosureCapExceeded(
                f"{g.name}/{side}: closure exceeds cap {cap} elements"
            )
        known.update(layer)
        frontier = layer

    ordered = sorted(known)
    if ordered[0] != (0,) * s:
        raise AssertionError("zero map missing from closure")
    index = {v: i for i, v in enumerate(ordered)}
    n = len(ordered)

    add_table = []
    mul_table = []
    for u in ordered:
        add_row = []
        mul_row = []
        for w in ordered:
            sv = tuple(addS[a][b] for a, b in zip(u, w))
            add_row.append(index[sv])
            if side == "left":
                cv = tuple(u[w[a]] for a in range(s))
            else:
                cv = tuple(w[u[a]] for a in range(s))
            ci = index.get(cv)
            if ci is None:
                raise AssertionError("composition left the additive closure")
            mul_row.append(ci)
        add_table.append(tuple(add_row))
        mul_table.append(tuple(mul_row))

    tag = "L" if side == "left" else "R"
    semiring = core.Semiring(
        f"{g.name}::{tag}",
        tuple(f"f{i}" for i in range(n)),
        tuple(add_table),
        tuple(mul_table),
    )
    outcome = core.validate_semiring(semiring)
    if not outcome.ok:
        raise AssertionError(f"operator semiring failed validation: {outcome.violations[0]}")

    pair_idx = tuple(
        tuple(index[pair_values[(x, a) if side == "left" else (a, x)]] for a in range(gg))
        for x in range(s)
    )
    return OperatorSemiring(
        side=side,
        base=g,
        elements=tuple(ActionMap(v, side) for v in ordered),
        add=tuple(add_table),
        mul=tuple(mul_table),
        provenance=tuple(known[v] for v in ordered),
        pair_index=pair_idx,
        semiring=semiring,
    )


def find_unity(g: core.GammaSemiring, op: OperatorSemiring) -> Optional[int]:
    """Index of the identity action in the operator semiring, if present.

    On the left side this is a left unity of the base, on the right side a
    right unity; its provenance is the witnessing formal sum.
    """
    if op.base is not g and op.base != g:
        raise ValueError("operator semiring was not built from this instance")
    return op.identity_index()


def _pair_fixed_set(op: OperatorSemiring, subset: CrispSubset) -> CrispSubset:
    if subset.carrier != carrier_of(op):
        raise ValueError("subset does not live on the operator semiring carrier")
    s, gg = len(op.base.S), len(op.base.G)
    members = frozenset(
        a for a in range(s) if all(op.pair_index[a][c] in subset.members for c in range(gg))
    )
    return CrispSubset(carrier_of(op.base), members)


def plus_set(op: OperatorSemiring, subset: CrispSubset) -> CrispSubset:
    """For P inside L: the a in S with every pair class [a, gamma] in P."""
    if op.side != "left":
        raise ValueError("plus_set needs a left operator semiring")
    return _pair_fixed_set(op, subset)


def star_set(op: OperatorSemiring, subset: CrispSubset) -> CrispSubset:
    """For P inside R: the a in S with every pair class [gamma, a] in P."""
    if op.side != "right":
        raise ValueError("star_set needs a right operator semiring")
    return _pair_fixed_set(op, subset)


def _additive_closure(addS, seed: set[int]) -> set[int]:
    closed = set(seed)
    queue = list(seed)
    while queue:
        a = queue.pop()
        for b in list(closed):
            v = addS[a][b]
            if v not in closed:
                closed.add(v)
                queue.append(v)
    return closed


def _image_contained_set(op: OperatorSemiring, subset: CrispSubset) -> CrispSubset:
    if subset.carrier != carrier_of(op.base):
        raise ValueError("subset does not live on the base carrier")
    addS = op.base.addS
    q = subset.members
    q_closed = all(addS[x][y] in q for x in q for y in q)
    members = set()
    for i, f in enumerate(op.elements):
        image = set(f.values)
        inside = _additive_closure(addS, image) <= q
        # for additively closed targets the two readings coincide
        if q_closed and inside != (image <= q):
            raise RuntimeError(f"element {i}: image readings disagree on a closed target")
        if inside:
            members.add(i)
    return CrispSubset(carrier_of(op), frozenset(members))


def plusprime_set(op: OperatorSemiring, subset: CrispSubset) -> CrispSubset:
    """For Q inside S: the classes of L whose full sum-image lands in Q,
    i.e. the additive closure of {f(s) : s in S} is contained in Q."""
    if op.side != "left":
        raise ValueError("plusprime_set needs a left operator semiring")
    return _image_contained_set(op, subset)


def starprime_set(op: OperatorSemiring, subset: CrispSubset) -> CrispSubset:
    """Right-side dual of plusprime_set."""
    if op.side != "right":
        raise ValueError("starprime_set needs a right operator semiring")
    return _image_contained_set(op, subset)
