"""Exact-rational fuzzy subsets, ideal predicates, and exhaustive enumeration.

Grades are ``fractions.Fraction`` values in [0, 1]; min/max/sup/inf over
finite carriers are exact, so lattice identities can be asserted with ``==``.
Fuzzy and crisp subsets carry a ``Carrier`` (element ids + addition table),
which is all the structure the lattice operations need; the ideal predicates
take the full algebraic structure explicitly.

A structure's ideal families belong to its level-cut view, ``LevelCuts``,
which enumerates one family per distinct absorption images (kinds with
equal images share it) and never tests candidate subsets.  Crisp
ideals form a closure system (they contain 0 and are closed under
intersection), so they are listed by closing outward from the bottom ideal
over int bitmasks, with the absorption images the view keeps for its ideal
tests.  A fuzzy ideal over a grade chain is one descending multichain of
crisp ideals, its level cuts (the level-subset theorem), so the fuzzy
family is the multichains of those masks as one id array, and costs the
number of ideals rather than |chain|**(n-1).  Both lists are sorted into
the order a scan over all candidates would give (ascending indicator tuples
for crisp ideals, lexicographic grade tuples for fuzzy ones), which report
bodies and first counterexamples depend on.  ``enumerate_crisp_ideals`` and
``enumerate_fuzzy_ideals`` turn them into subsets.

The suites compute on level cuts too: ``LevelCuts`` holds a family of
chain-valued fuzzy subsets as one array of the ids of their cuts.  It does
sums, intersections and inclusions for every pair drawn from two families,
and ideal and constancy tests, as numpy lookups into tables over the
distinct cut masks, a family at a time.  ``LevelCuts.rank_array`` gives each
member of a family each element's rank, the number of cuts that contain
it, as one array: ranks order the elements as their grades do, so a
comparison of grades is decided on them.  ``LevelCuts.subset`` turns ranks
into grades only where a suite needs a ``FuzzySubset``, for a witness.

The public ``Fraction`` API decides on level cuts as well: the predicates
``is_*_ideal_*`` and ``fuzzy_sum`` read their operands as cuts on a view
over the operands' own grades (``_cut_rows``) and call ``ideal_rows`` and
``sum_rows``, so a fuzzy ideal and a fuzzy sum are defined once.
``fuzzy_intersection`` and ``FuzzySubset.__le__`` are pointwise one-liners.
``as_grade`` returns a ``Fraction`` it is given as it is, after an integer
range check, so a subset built from grades that already exist makes no new
``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

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
    "LevelCuts",
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
    """value as a grade in [0, 1].  A Fraction is checked on its integer
    numerator and (always positive) denominator and returned as is."""
    g = value if type(value) is Fraction else Fraction(value)
    if not 0 <= g.numerator <= g.denominator:
        raise ValueError(f"grade {g} outside [0, 1]")
    return g


def parse_grade(text: str) -> Fraction:
    """Parse 'p/q' or a bare integer; exact rationals only.  Raises
    ValueError on anything else, a zero denominator included."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"grade {text} has a zero denominator")
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
    def of_mask(cls, carrier, mask: int) -> "CrispSubset":
        return cls(carrier_of(carrier), frozenset(_bits(mask)))

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
        return cls(c, (value,) * c.size)

    @classmethod
    def of_grades(cls, carrier, grades: Sequence) -> "FuzzySubset":
        return cls(carrier_of(carrier), tuple(grades))

    @classmethod
    def from_mapping(cls, carrier, mapping: dict, default=0) -> "FuzzySubset":
        c, default = carrier_of(carrier), as_grade(default)
        by_index = {c.ids.index(k): v for k, v in mapping.items()}
        return cls(c, tuple(by_index.get(i, default) for i in range(c.size)))

    def __le__(self, other: "FuzzySubset") -> bool:
        _require_same_carrier(self, other)
        return all(a <= b for a, b in zip(self.grades, other.grades))

    def is_constant(self) -> bool:
        return all(g == self.grades[0] for g in self.grades)

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


_ZERO, _ONE = Fraction(0), Fraction(1)


def characteristic(subset: CrispSubset) -> FuzzySubset:
    """Grade 1 on the subset, 0 elsewhere."""
    c = subset.carrier
    return FuzzySubset(c, tuple(_ONE if i in subset.members else _ZERO for i in range(c.size)))


def fuzzy_intersection(subsets: Sequence[FuzzySubset]) -> FuzzySubset:
    """Pointwise minimum of one or more same-carrier subsets."""
    if not subsets:
        raise ValueError("intersection of an empty family is undefined")
    c = _require_same_carrier(*subsets)
    return FuzzySubset(c, tuple(min(col) for col in zip(*(s.grades for s in subsets))))


def fuzzy_sum(mu1: FuzzySubset, mu2: FuzzySubset) -> FuzzySubset:
    """(mu1 (+) mu2)(x) = max over decompositions x = u + v of min(mu1(u), mu2(v)):
    cut by cut, the set sum of the operands' cuts at each level
    (`LevelCuts.sum_rows`)."""
    view, rows = _cut_rows(_require_same_carrier(mu1, mu2), [mu1, mu2])
    return view.subset(view.sum_rows(rows[:1], rows[1:])[0])


# ---------------------------------------------------------------------------
# level cuts (what the suites compute on)


def _bits(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


class LevelCuts:
    """The fuzzy subsets of one structure with grades on one chain, each as
    its level cuts.

    Over the chain c_0 < ... < c_{m-1}, mu is exactly its m-1 cuts
    mu_k = {x : mu(x) >= c_k}, k = 1..m-1, each an int bitmask, and every
    lattice operation works cut by cut, because a min or a max over a finite
    set is attained:
    - sum: (mu (+) nu)_k is the set sum mu_k + nu_k, from the addition table;
    - intersection: (mu /\\ nu)_k = mu_k & nu_k;
    - inclusion: mu <= nu iff mu_k is a subset of nu_k for every k;
    - equality: equal cuts;
    - ideal: the first cut is non-empty and every cut is closed under
      addition and absorbs the products of its elements (as the crisp
      enumerator does), the definition `is_fuzzy_ideal_*` decides by.

    Each distinct mask gets an id (`mask_ids`), and a family of N subsets
    is only ever the (N, m-1) array of the ids of its members' cuts.  The
    set sum, intersection and inclusion of every pair of the D masks seen
    so far are dense D x D tables, and a mask's ideal-ness per kind, whether
    it is empty or full, and its bits are arrays over the ids, each entry
    computed once; so the family tables (`sum_table`, `meet_table`,
    `le_table`), `ideal_rows`, `constant_rows` and `rank_array` are numpy
    lookups indexed by families, and rows compare as opaque keys
    (`distinct_rows`, `rows_in`).  Ids, not masks, so carriers wider than a
    machine word work the same way.  The tables live as long as the
    instance, and the suites share one per structure for a whole run
    (`Workspace.level_cuts`).

    A family's ranks are one (N, n) array (`rank_array`), and a map on the
    bits of masks, such as a transfer map, maps each mask once
    (`crisp_images`).  `subset` turns one member into a `FuzzySubset`, for
    a witness.

    Because every operation goes cut by cut, and a fuzzy ideal family is by
    construction every descending multichain of its kind's crisp ideals
    (`fuzzy_ideals`), a statement about every pair of its members can be
    decided on the pairs of those crisp ideals instead (`verify._failing_pair`).

    The view owns the structure's ideal families: `crisp_ideals` gives the
    crisp ideals of a kind as masks, enumerated once per distinct absorption
    images, and `fuzzy_ideals` their descending multichains as a family, so
    no enumerated fuzzy ideal is cut again.  The left and right images are
    built once and the two-sided ones are their union; kinds with equal
    images share their crisp ideals and their ideal tests (`canonical`).
    """

    def __init__(self, structure, chain: GradeChain):
        self.structure = structure
        self.carrier = carrier_of(structure)
        self.chain = chain
        self.full = (1 << self.carrier.size) - 1  # the mask of every element
        self._masks: list[int] = []
        self._id: dict[int, int] = {}
        self._tables: dict[str, np.ndarray] = {}
        self._per_id: dict[object, np.ndarray] = {}
        self._crisp_ideals: dict[str, tuple[int, ...]] = {}

    def subset(self, row: np.ndarray) -> FuzzySubset:
        """The fuzzy subset whose cuts have these m-1 ids: x gets the grade
        c_r, r its rank (`rank_array`)."""
        ranks = self.rank_array(np.asarray(row)[None])[0].tolist()
        return FuzzySubset(self.carrier, tuple(map(self.chain.grades.__getitem__, ranks)))

    def ids(self, mask: int) -> list[str]:
        """The ids of the elements of a mask, in carrier order."""
        return [self.carrier.ids[x] for x in _bits(mask)]

    # -- family tables

    def _intern(self, mask: int) -> int:
        if mask not in self._id:
            self._id[mask] = len(self._masks)
            self._masks.append(mask)
        return self._id[mask]

    def mask_ids(self, masks: Iterable[int]) -> np.ndarray:
        """The ids of these masks, as an array; a mask not seen before gets
        the next id."""
        return np.array([self._intern(mask) for mask in masks], dtype=np.intp)

    def _by_id(self, key, compute: Callable[[list[int]], np.ndarray]) -> np.ndarray:
        """compute(masks) for every mask seen so far, indexed by id; when
        more masks have been seen since the last call, only theirs are
        computed."""
        done = self._per_id.get(key)
        if done is None or len(done) < len(self._masks):
            new = compute(self._masks[0 if done is None else len(done):])
            self._per_id[key] = done = new if done is None else np.concatenate([done, new])
        return done

    def _unpacked(self, masks: list[int]) -> np.ndarray:
        """The (len(masks), n) bits of the masks, element x in column x."""
        n, width = self.carrier.size, (self.carrier.size + 7) // 8
        packed = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), np.uint8)
        return np.unpackbits(packed.reshape(-1, width), axis=1, count=n, bitorder="little")

    def rank_array(self, family: np.ndarray) -> np.ndarray:
        """The (N, n) ranks of the members of an (N, m-1) id array, in the
        smallest unsigned dtype that holds m-1.  The rank r of x is the
        number of cuts containing x, so x has grade c_r, and ranks order the
        elements as their grades do, because the chain is strictly
        increasing."""
        bits = self._by_id("bits", self._unpacked)
        ranks = np.zeros((len(family), self.carrier.size), dtype=np.min_scalar_type(len(self.chain) - 1))
        for column in family.T:
            ranks += bits[column]
        return ranks

    def crisp_images(self, key, target: "LevelCuts", crisp_map: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """The ids on `target` of crisp_map's images of the masks seen so
        far, indexed by id and kept under `key`: crisp_map takes the (D, n)
        bits of D masks to the (D, n') bits of their images, and is handed
        only the masks seen since the last call."""

        def compute(masks: list[int]) -> np.ndarray:
            packed = np.packbits(crisp_map(self._unpacked(masks)), axis=1, bitorder="little")
            return target.mask_ids([int.from_bytes(row.tobytes(), "little") for row in packed])

        return self._by_id(key, compute)

    def _set_sum(self, u: int, v: int) -> int:
        add, total = self.carrier.add, 0
        vs = _bits(v)
        for x in _bits(u):
            row = add[x]
            for y in vs:
                total |= 1 << row[y]
        return total

    def _cell(self, op: str, u: int, v: int):
        if op == "sum":
            return self._intern(self._set_sum(u, v))
        if op == "meet":
            return self._intern(u & v)
        return not u & ~v  # "le": u is a subset of v

    def _table(self, op: str) -> np.ndarray:
        """op on every pair of the D masks seen so far, as a D x D table;
        when more masks have been seen since the last call, only the new
        rows and columns are computed."""
        table = self._tables.get(op)
        d, done = len(self._masks), 0 if table is None else len(table)
        if done < d:
            old, masks = table, self._masks[:d]  # sums and meets may intern new masks
            table = np.empty((d, d), dtype=bool if op == "le" else np.intp)
            if done:
                table[:done, :done] = old
            for i, u in enumerate(masks):
                start = done if i < done else 0
                table[i, start:] = [self._cell(op, u, v) for v in masks[start:]]
            self._tables[op] = table
        return table

    def _lookup(self, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._table(op)[a[:, None, :], b[None, :, :]]

    def sum_table(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(N, M, m-1) ids: the cuts of a_i (+) b_j, for families a and b."""
        return self._lookup("sum", a, b)

    def sum_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(N, m-1) ids: the cuts of a_i (+) b_i, for two families of N
        members, each cut the set sum of the two cuts at its level; no
        table is filled."""
        masks = self._masks
        sums = [self._set_sum(masks[u], masks[v]) for u, v in zip(a.ravel().tolist(), b.ravel().tolist())]
        return self.mask_ids(sums).reshape(a.shape)

    def meet_table(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(N, M, m-1) ids: the cuts of a_i /\\ b_j, for families a and b."""
        return self._lookup("meet", a, b)

    def le_table(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(N, M) booleans: a_i <= b_j, for families a and b."""
        return self._lookup("le", a, b).all(axis=2)

    @staticmethod
    def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For an (R, m-1) id array: the index of the first row of each
        distinct row, and for every row the place of its distinct row in
        that list."""
        return np.unique(core._row_keys(rows), return_index=True, return_inverse=True)[1:]

    @staticmethod
    def rows_in(rows: np.ndarray, family: np.ndarray) -> np.ndarray:
        """(R,) booleans: whether each row of an (R, m-1) id array is a row of
        the (non-empty) family, by binary search (np.isin imports numpy.ma)."""
        known, keys = np.sort(core._row_keys(family)), core._row_keys(rows)
        return known[np.searchsorted(known, keys).clip(max=len(known) - 1)] == keys

    def constant_rows(self, family: np.ndarray) -> np.ndarray:
        """(N,) booleans: whether each member is constant, every cut empty
        or full."""
        whole = self._by_id("whole", lambda masks: np.array([m in (0, self.full) for m in masks], bool))
        return whole[family].all(axis=1)

    # -- ideal families and ideal tests

    @cached_property
    def _images(self) -> dict[str, list[int]]:
        """The absorption images of each kind: the left and the right ones,
        built once, and the two-sided one, their union (as
        `core._absorption_images` builds it)."""
        left, right = (core._absorption_images(self.structure, kind) for kind in ("left", "right"))
        return {"left": left, "right": right, "two": [a | b for a, b in zip(left, right)]}

    @cached_property
    def _canonical(self) -> dict[str, str]:
        images = self._images
        return {kind: next(k for k in ("two", "left", "right") if images[k] == images[kind]) for kind in KINDS}

    def canonical(self, kind: str) -> str:
        """The first of "two", "left" and "right" whose absorption images
        equal those of `kind`, decided for every kind on the first call.  An
        ideal family depends on the images alone, so kinds with equal images
        (all three, on a commutative structure) share one family, keyed by
        this kind."""
        return self._canonical[_check_kind(kind)]

    def _crisp(self, kind: str) -> tuple[int, ...]:
        kind = self.canonical(kind)
        if kind not in self._crisp_ideals:
            self._crisp_ideals[kind] = tuple(_crisp_ideal_masks(self.carrier.add, self._images[kind]))
        return self._crisp_ideals[kind]

    def crisp_ideals(self, kind: str = "two", cap: int = 10**8) -> tuple[int, ...]:
        """Every crisp ideal of the kind as a mask, in the order of a subset
        scan (ascending indicator tuples of the non-zero positions),
        enumerated once per distinct absorption images (`canonical`).
        Raises EnumerationCapExceeded when 2**|carrier| > cap: the cap
        bounds subsets, not ideals."""
        _check_kind(kind)
        n = self.carrier.size
        if 2**n > cap:
            raise EnumerationCapExceeded(f"2^{n} subsets exceed cap {cap}")
        return self._crisp(kind)

    def fuzzy_ideals(self, kind: str = "two", cap: int = 10**8) -> np.ndarray:
        """Every fuzzy ideal of the kind with mu(0) = 1 and grades on the
        chain, as a read-only family in lexicographic order of grade tuples:
        the descending multichains I_1 >= ... >= I_{m-1} of `crisp_ideals`,
        each the cuts of exactly one fuzzy ideal (the level-subset theorem),
        extended a cut at a time by the ideals inside the last one, then
        sorted by rank (grades ascend with rank; no two rows tie, as ranks
        fix the cuts).  Raises EnumerationCapExceeded when
        |chain|**(|carrier|-1) > cap: the cap bounds candidates, not ideals."""
        n, m = self.carrier.size, len(self.chain)
        total = m ** (n - 1)
        if total > cap:
            raise EnumerationCapExceeded(f"{total} candidates (= {m}^{n - 1}) exceed cap {cap}")
        ideals = self.mask_ids(self._crisp(kind))
        inside = self._table("le")[ideals[None, :], ideals[:, None]]  # inside[i, j]: ideal j is in ideal i
        chains = np.arange(len(ideals))[:, None]  # places in `ideals`
        for _ in range(m - 2):
            prefix, last = np.nonzero(inside[chains[:, -1]])
            chains = np.column_stack([chains[prefix], last])
        family = ideals[chains]
        family = family[np.lexsort(self.rank_array(family).T[::-1])]
        family.setflags(write=False)
        return family

    def ideal_rows(self, family: np.ndarray, kind: str = "two") -> np.ndarray:
        """(N,) booleans: whether each member of an (N, k) id array is a
        fuzzy ideal of the kind (`is_fuzzy_ideal_*`): a non-empty first cut,
        and every cut closed under addition and absorbing its products, each
        mask tested once per distinct absorption images (`canonical`).  A
        crisp ideal is the one-cut case."""
        kind = self.canonical(kind)
        image = self._images[kind]
        closed = self._by_id(("closed", kind), lambda masks: np.array([
            not self._set_sum(m, m) & ~m and not any(image[x] & ~m for x in _bits(m)) for m in masks
        ], dtype=bool))
        return closed[family].all(axis=1) & (family[:, 0] != self._id.get(0, -1))


# ---------------------------------------------------------------------------
# ideal predicates, on the level cuts of one subset


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def _cut_rows(structure, subsets: Sequence[FuzzySubset]) -> tuple[LevelCuts, np.ndarray]:
    """A level-cut view of the structure on the subsets' own grades, 0 and
    1, and the (N, m-1) ids of the subsets' cuts on it, cut k the elements
    of grade c_k or more.  The chain keeps the subsets' grade objects."""
    chain = GradeChain.of(*(g for mu in subsets for g in mu.grades), 0, 1)
    view = LevelCuts(structure, chain)
    cuts = [sum(1 << x for x, g in enumerate(mu.grades) if g >= c) for mu in subsets for c in chain.grades[1:]]
    return view, view.mask_ids(cuts).reshape(len(subsets), len(chain) - 1)


def _is_ideal(structure, mu: FuzzySubset, kind: str) -> bool:
    view, rows = _cut_rows(structure, [mu])
    return bool(view.ideal_rows(rows, kind)[0])


def is_fuzzy_ideal_gamma(g: core.GammaSemiring, mu: FuzzySubset, kind: str = "two") -> bool:
    """mu(x+y) >= min(mu x, mu y) plus the kind-appropriate absorption:
    left: mu(x@y) >= mu(y); right: mu(x@y) >= mu(x); two: both.  Decided on
    mu's level cuts (`LevelCuts.ideal_rows`).

    Also requires mu nonempty (some grade positive).  The mu(0)=1 convention
    is enforced only at enumeration time, not here.
    """
    _check_kind(kind)
    if mu.carrier != carrier_of(g):
        raise ValueError("fuzzy subset does not live on this gamma-semiring's carrier")
    return _is_ideal(g, mu, kind)


def is_fuzzy_ideal_semiring(r: core.Semiring, mu: FuzzySubset, kind: str = "two") -> bool:
    """Semiring analogue: mu(xy) >= mu(y) (left) / mu(x) (right)."""
    _check_kind(kind)
    if mu.carrier != carrier_of(r):
        raise ValueError("fuzzy subset does not live on this semiring's carrier")
    return _is_ideal(r, mu, kind)


def is_crisp_ideal_gamma(g: core.GammaSemiring, subset: CrispSubset, kind: str = "two") -> bool:
    """Contains 0, closed under addition, absorbs the ternary product per
    kind: contains 0 and its characteristic function is a fuzzy ideal."""
    _check_kind(kind)
    return 0 in subset.members and _is_ideal(g, characteristic(subset), kind)


def is_crisp_ideal_semiring(r: core.Semiring, subset: CrispSubset, kind: str = "two") -> bool:
    """Semiring analogue of is_crisp_ideal_gamma."""
    _check_kind(kind)
    return 0 in subset.members and _is_ideal(r, characteristic(subset), kind)


# ---------------------------------------------------------------------------
# enumeration


def _crisp_ideal_masks(add, image: list[int]) -> list[int]:
    """Every ideal for an addition table and absorption images, as a bitmask,
    sorted by the indicator tuple of positions 1..n-1.  Ideals are closed
    under intersection, so each is reached from the bottom ideal close({0})
    by adding elements one at a time."""
    n = len(add)
    ideals = [core.close(add, image, 0, 0)]
    seen = set(ideals)
    for ideal in ideals:  # grows while it is walked
        for x in range(n):
            if not ideal >> x & 1:
                bigger = core.close(add, image, ideal, x)
                if bigger not in seen:
                    seen.add(bigger)
                    ideals.append(bigger)
    return sorted(ideals, key=lambda mask: [mask >> i & 1 for i in range(1, n)])


def enumerate_fuzzy_ideals(
    structure, chain: GradeChain, kind: str = "two", cap: int = 10**8
) -> list[FuzzySubset]:
    """All fuzzy ideals with mu(0) = 1 and grades drawn from the chain,
    in lexicographic order of grade tuples: `LevelCuts.fuzzy_ideals`, each
    member as its fuzzy subset."""
    view = LevelCuts(structure, chain)
    ranks = view.rank_array(view.fuzzy_ideals(kind, cap)).tolist()
    return [FuzzySubset(view.carrier, tuple(map(chain.grades.__getitem__, row))) for row in ranks]


def enumerate_crisp_ideals(structure, kind: str = "two", cap: int = 10**8) -> list[CrispSubset]:
    """All crisp ideals (contain 0, additively closed, absorbing per kind),
    ordered by the indicator tuple of the non-zero positions:
    `LevelCuts.crisp_ideals`, each mask as its crisp subset."""
    view = LevelCuts(structure, GradeChain.of(0, 1))
    return [CrispSubset.of_mask(view.carrier, mask) for mask in view.crisp_ideals(kind, cap)]
