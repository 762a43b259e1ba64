"""Exact-rational fuzzy subsets, ideal predicates, and exhaustive enumeration.

Grades are ``fractions.Fraction`` values in [0, 1]; min/max/sup/inf over
finite carriers are exact, so lattice identities can be asserted with ``==``.
Fuzzy and crisp subsets carry a ``Carrier`` (element ids + addition table),
which is all the structure the lattice operations need; the ideal predicates
take the full algebraic structure explicitly.

Enumeration never tests candidate subsets.  Crisp ideals form a closure
system (they contain 0 and are closed under intersection), so they are
listed by closing outward from the bottom ideal over int bitmasks.  A fuzzy
ideal over a grade chain is then one descending multichain of crisp ideals,
its level cuts (the level-subset theorem), so fuzzy enumeration costs the
number of ideals rather than |chain|**(n-1).  Both lists are then sorted
into the order a scan over all candidates would give (ascending indicator
tuples for crisp ideals, lexicographic grade tuples for fuzzy ones), which
report bodies and first counterexamples depend on.  The scalar predicates
``is_*_ideal_*`` are kept as plain loops for callers and as the reference
the tests check the enumerators against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import core

__all__ = [
    "Grade",
    "as_grade",
    "parse_grade",
    "format_grade",
    "GradeChain",
    "Carrier",
    "carrier_of",
    "CrispSubset",
    "FuzzySubset",
    "characteristic",
    "fuzzy_intersection",
    "fuzzy_sum",
    "is_fuzzy_ideal_gamma",
    "is_fuzzy_ideal_semiring",
    "is_crisp_ideal_gamma",
    "is_crisp_ideal_semiring",
    "enumerate_fuzzy_ideals",
    "enumerate_crisp_ideals",
    "EnumerationCapExceeded",
]

Grade = Fraction

KINDS = ("left", "right", "two")


class EnumerationCapExceeded(core.CapExceeded):
    """The candidate space exceeds the configured enumeration cap."""


def as_grade(value) -> Fraction:
    g = Fraction(value)
    if not (0 <= g <= 1):
        raise ValueError(f"grade {g} outside [0, 1]")
    return g


def parse_grade(text: str) -> Fraction:
    """Parse 'p/q' or a bare integer; exact rationals only."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return as_grade(Fraction(int(num), int(den)))
    return as_grade(Fraction(int(text)))


def format_grade(g: Fraction) -> str:
    return f"{g.numerator}/{g.denominator}"


@dataclass(frozen=True)
class GradeChain:
    """Sorted distinct grades containing 0 and 1 (min/max-closed by being a chain)."""

    grades: tuple[Fraction, ...]

    def __post_init__(self):
        gs = tuple(as_grade(g) for g in self.grades)
        if len(set(gs)) != len(gs):
            raise ValueError("chain grades must be distinct")
        if tuple(sorted(gs)) != gs:
            raise ValueError("chain grades must be sorted ascending")
        if not gs or gs[0] != 0 or gs[-1] != 1:
            raise ValueError("chain must contain 0 and 1")
        object.__setattr__(self, "grades", gs)

    @classmethod
    def of(cls, *values) -> "GradeChain":
        return cls(tuple(sorted({as_grade(v) for v in values})))

    @classmethod
    def parse(cls, text: str) -> "GradeChain":
        return cls.of(*(parse_grade(part) for part in text.split(",") if part.strip()))

    def __len__(self) -> int:
        return len(self.grades)

    def __iter__(self):
        return iter(self.grades)

    def __contains__(self, g) -> bool:
        return g in self.grades

    def __str__(self) -> str:
        return ",".join(format_grade(g) for g in self.grades)


@dataclass(frozen=True)
class Carrier:
    """An additive carrier: ordered element ids plus the addition index table.

    The label is informational only and excluded from equality, so a fuzzy
    subset built from equal tables is interchangeable regardless of origin.
    """

    label: str = field(compare=False)
    ids: tuple[str, ...] = ()
    add: tuple[tuple[int, ...], ...] = ()

    @property
    def size(self) -> int:
        return len(self.ids)


def carrier_of(structure) -> Carrier:
    """The additive carrier a fuzzy subset of `structure` lives on.

    For a gamma-semiring this is S with addS; gamma-side subsets are not used.
    Operator semirings and matrix wrappers are unwrapped via their realized
    plain structures.
    """
    if isinstance(structure, Carrier):
        return structure
    if isinstance(structure, core.GammaSemiring):
        return Carrier(f"{structure.name}.S", structure.S, structure.addS)
    if isinstance(structure, core.Semiring):
        return Carrier(structure.name, structure.carrier, structure.add)
    sem = getattr(structure, "semiring", None)
    if isinstance(sem, core.Semiring):
        return carrier_of(sem)
    gamma = getattr(structure, "gamma", None)
    if isinstance(gamma, core.GammaSemiring):
        return carrier_of(gamma)
    raise TypeError(f"no carrier for {type(structure).__name__}")


@dataclass(frozen=True)
class CrispSubset:
    """Membership bitset over a carrier."""

    carrier: Carrier
    members: frozenset[int]

    def __post_init__(self):
        if any(not (0 <= i < self.carrier.size) for i in self.members):
            raise ValueError("member index out of carrier bounds")

    @classmethod
    def of_indices(cls, carrier, indices: Iterable[int]) -> "CrispSubset":
        return cls(carrier_of(carrier), frozenset(int(i) for i in indices))

    @classmethod
    def of_ids(cls, carrier, ids: Iterable[str]) -> "CrispSubset":
        c = carrier_of(carrier)
        return cls(c, frozenset(c.ids.index(i) for i in ids))

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(self.carrier.ids[i] for i in self.sorted_indices())

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class FuzzySubset:
    """Membership function: one grade per carrier element."""

    carrier: Carrier
    grades: tuple[Fraction, ...]

    def __post_init__(self):
        gs = tuple(as_grade(g) for g in self.grades)
        if len(gs) != self.carrier.size:
            raise ValueError(
                f"{len(gs)} grades for carrier of size {self.carrier.size}"
            )
        object.__setattr__(self, "grades", gs)

    @classmethod
    def constant(cls, carrier, value) -> "FuzzySubset":
        c = carrier_of(carrier)
        return cls(c, (as_grade(value),) * c.size)

    @classmethod
    def of_grades(cls, carrier, grades: Sequence) -> "FuzzySubset":
        return cls(carrier_of(carrier), tuple(as_grade(g) for g in grades))

    @classmethod
    def from_mapping(cls, carrier, mapping: dict, default=0) -> "FuzzySubset":
        c = carrier_of(carrier)
        by_index = {c.ids.index(k): as_grade(v) for k, v in mapping.items()}
        return cls(c, tuple(by_index.get(i, as_grade(default)) for i in range(c.size)))

    def __le__(self, other: "FuzzySubset") -> bool:
        _require_same_carrier(self, other)
        return all(a <= b for a, b in zip(self.grades, other.grades))

    def is_constant(self) -> bool:
        return len(set(self.grades)) <= 1

    def is_empty(self) -> bool:
        return all(g == 0 for g in self.grades)

    def to_mapping(self) -> dict[str, str]:
        return {i: format_grade(g) for i, g in zip(self.carrier.ids, self.grades)}


def _require_same_carrier(*subsets) -> Carrier:
    first = subsets[0].carrier
    for s in subsets[1:]:
        if s.carrier != first:
            raise ValueError(
                f"carrier mismatch: {first.label} (size {first.size}) vs "
                f"{s.carrier.label} (size {s.carrier.size})"
            )
    return first


def characteristic(subset: CrispSubset) -> FuzzySubset:
    """Grade 1 on the subset, 0 elsewhere."""
    c = subset.carrier
    return FuzzySubset(
        c, tuple(Fraction(1) if i in subset.members else Fraction(0) for i in range(c.size))
    )


def fuzzy_intersection(subsets: Sequence[FuzzySubset]) -> FuzzySubset:
    """Pointwise minimum of one or more same-carrier subsets."""
    if not subsets:
        raise ValueError("intersection of an empty family is undefined")
    c = _require_same_carrier(*subsets)
    return FuzzySubset(c, tuple(min(col) for col in zip(*(s.grades for s in subsets))))


def fuzzy_sum(mu1: FuzzySubset, mu2: FuzzySubset) -> FuzzySubset:
    """(mu1 (+) mu2)(x) = max over decompositions x = u + v of min(mu1(u), mu2(v)).

    Every x decomposes as x + 0, so the maximum is over a nonempty set.
    """
    c = _require_same_carrier(mu1, mu2)
    n = c.size
    best = [Fraction(0)] * n
    for u in range(n):
        gu = mu1.grades[u]
        for v in range(n):
            x = c.add[u][v]
            m = min(gu, mu2.grades[v])
            if m > best[x]:
                best[x] = m
    return FuzzySubset(c, tuple(best))


# ---------------------------------------------------------------------------
# ideal predicates (plain loops; used as the contract operations and as the
# reference path the enumerators are checked against)


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def is_fuzzy_ideal_gamma(g: core.GammaSemiring, mu: FuzzySubset, kind: str = "two") -> bool:
    """mu(x+y) >= min(mu x, mu y) plus the kind-appropriate absorption:
    left: mu(x@y) >= mu(y); right: mu(x@y) >= mu(x); two: both.

    Also requires mu nonempty (some grade positive).  The mu(0)=1 convention
    is enforced only at enumeration time, not here.
    """
    _check_kind(kind)
    if mu.carrier != carrier_of(g):
        raise ValueError("fuzzy subset does not live on this gamma-semiring's carrier")
    if mu.is_empty():
        return False
    gr = mu.grades
    s, gg = len(g.S), len(g.G)
    for x in range(s):
        for y in range(s):
            if gr[g.addS[x][y]] < min(gr[x], gr[y]):
                return False
    for x in range(s):
        for c in range(gg):
            row = g.prod[x][c]
            for y in range(s):
                v = gr[row[y]]
                if kind in ("left", "two") and v < gr[y]:
                    return False
                if kind in ("right", "two") and v < gr[x]:
                    return False
    return True


def is_fuzzy_ideal_semiring(r: core.Semiring, mu: FuzzySubset, kind: str = "two") -> bool:
    """Semiring analogue: mu(xy) >= mu(y) (left) / mu(x) (right)."""
    _check_kind(kind)
    if mu.carrier != carrier_of(r):
        raise ValueError("fuzzy subset does not live on this semiring's carrier")
    if mu.is_empty():
        return False
    gr = mu.grades
    n = len(r.carrier)
    for x in range(n):
        for y in range(n):
            if gr[r.add[x][y]] < min(gr[x], gr[y]):
                return False
            v = gr[r.mul[x][y]]
            if kind in ("left", "two") and v < gr[y]:
                return False
            if kind in ("right", "two") and v < gr[x]:
                return False
    return True


def is_crisp_ideal_gamma(g: core.GammaSemiring, subset: CrispSubset, kind: str = "two") -> bool:
    """Contains 0, closed under addition, absorbs the ternary product per kind."""
    _check_kind(kind)
    m = subset.members
    if 0 not in m:
        return False
    s, gg = len(g.S), len(g.G)
    for x in m:
        for y in m:
            if g.addS[x][y] not in m:
                return False
    for c in range(gg):
        for t in range(s):
            for x in m:
                if kind in ("left", "two") and g.prod[t][c][x] not in m:
                    return False
                if kind in ("right", "two") and g.prod[x][c][t] not in m:
                    return False
    return True


def is_crisp_ideal_semiring(r: core.Semiring, subset: CrispSubset, kind: str = "two") -> bool:
    _check_kind(kind)
    m = subset.members
    if 0 not in m:
        return False
    n = len(r.carrier)
    for x in m:
        for y in m:
            if r.add[x][y] not in m:
                return False
    for t in range(n):
        for x in m:
            if kind in ("left", "two") and r.mul[t][x] not in m:
                return False
            if kind in ("right", "two") and r.mul[x][t] not in m:
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration


def _absorption_images(structure, kind: str):
    """The addition table and, per element x, the bitmask of every product
    that an ideal of the kind containing x must also contain."""
    _check_kind(kind)
    if isinstance(structure, core.GammaSemiring):
        add, n = structure.addS, len(structure.S)
        products = (
            (structure.prod[x][c][y], x, y)
            for x in range(n)
            for c in range(len(structure.G))
            for y in range(n)
        )
    elif isinstance(structure, core.Semiring):
        add, n = structure.add, len(structure.carrier)
        products = ((structure.mul[x][y], x, y) for x in range(n) for y in range(n))
    else:
        sem = getattr(structure, "semiring", None)
        if sem is None:
            raise TypeError(f"cannot enumerate over {type(structure).__name__}")
        return _absorption_images(sem, kind)
    image = [0] * n
    for r, x, y in products:
        if kind in ("left", "two"):
            image[y] |= 1 << r
        if kind in ("right", "two"):
            image[x] |= 1 << r
    return add, image


def _close(add, image, ideal: int, x: int) -> int:
    """Smallest ideal (as a bitmask) containing the ideal `ideal` and x."""
    n = len(add)
    todo = [x]
    while todo:
        e = todo.pop()
        if ideal >> e & 1:
            continue
        ideal |= 1 << e
        new = image[e]
        for y in range(n):
            if ideal >> y & 1:
                new |= 1 << add[e][y] | 1 << add[y][e]
        new &= ~ideal
        todo.extend(y for y in range(n) if new >> y & 1)
    return ideal


def _crisp_ideal_masks(structure, kind: str) -> list[int]:
    """Every crisp ideal as a bitmask, sorted by the indicator tuple of
    positions 1..n-1.  Ideals are closed under intersection, so each one is
    reached from the bottom ideal close({0}) by adding elements one at a time."""
    add, image = _absorption_images(structure, kind)
    n = len(add)
    ideals = [_close(add, image, 0, 0)]
    seen = set(ideals)
    for ideal in ideals:  # grows while it is walked
        for x in range(n):
            if not ideal >> x & 1:
                bigger = _close(add, image, ideal, x)
                if bigger not in seen:
                    seen.add(bigger)
                    ideals.append(bigger)
    return sorted(ideals, key=lambda mask: [mask >> i & 1 for i in range(1, n)])


def enumerate_fuzzy_ideals(
    structure,
    chain: GradeChain,
    kind: str = "two",
    cap: int = 10**8,
) -> list[FuzzySubset]:
    """All fuzzy ideals with mu(0) = 1 and grades drawn from the chain,
    in lexicographic order of grade tuples.

    Level cuts: mu is determined by its cuts I_k = {x : mu(x) >= c_k},
    k = 1..m-1, which form a descending multichain I_1 >= ... >= I_{m-1} of
    crisp ideals of the same kind, and every such multichain is the cut
    family of exactly one mu, namely mu(x) = c_r with r the number of cuts
    containing x.  The multichains are built from the crisp ideals and the
    results sorted by rank tuple; grades ascend with rank, so this is the
    lexicographic order of grade tuples.

    Raises EnumerationCapExceeded when |chain|**(|carrier|-1) > cap: the cap
    still bounds the size of the candidate space, not the number of ideals.
    """
    carrier = carrier_of(structure)
    n = carrier.size
    m = len(chain)
    total = m ** (n - 1)
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} candidates (= {m}^{n - 1}) exceed cap {cap}"
        )
    ideals = _crisp_ideal_masks(structure, kind)
    cuts = [(i,) for i in ideals]
    for _ in range(m - 2):
        cuts = [c + (j,) for c in cuts for j in ideals if (j & ~c[-1]) == 0]
    ranks = sorted(tuple(sum(c >> x & 1 for c in cut) for x in range(n)) for cut in cuts)
    return [FuzzySubset(carrier, tuple(chain.grades[r] for r in rank)) for rank in ranks]


def enumerate_crisp_ideals(structure, kind: str = "two", cap: int = 10**8) -> list[CrispSubset]:
    """All crisp ideals (contain 0, additively closed, absorbing per kind),
    ordered by the indicator tuple of the non-zero positions.

    They are listed as a closure system, not by testing subsets, then sorted
    into the order of a subset scan over ascending indicator tuples.
    Raises EnumerationCapExceeded when 2**|carrier| > cap: the cap still
    bounds the number of subsets, not the number of ideals.
    """
    _check_kind(kind)
    carrier = carrier_of(structure)
    n = carrier.size
    if 2**n > cap:
        raise EnumerationCapExceeded(f"2^{n} subsets exceed cap {cap}")
    return [
        CrispSubset(carrier, frozenset(i for i in range(n) if mask >> i & 1))
        for mask in _crisp_ideal_masks(structure, kind)
    ]
