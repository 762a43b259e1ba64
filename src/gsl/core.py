"""Finite gamma-semirings and plain semirings over dense Cayley tables.

A gamma-semiring couples two additive commutative monoids, a carrier S and
a parameter monoid Gamma, through a ternary product S x Gamma x S -> S that
distributes over both additions and satisfies the mixed associativity law
a@(b#c) = (a@b)#c.  Carriers are ordered tuples of element ids with the
additive zero pinned at index 0; every operation table stores carrier
indices, so all laws are decidable by direct enumeration.

A structure stores its tables once, as `tables`: one read-only array per
table in the narrowest index dtype, copied from the nested sequences or
arrays the constructor is given after one vectorised check of shapes and
bounds.  Every array layer, the predicates included, reads them; `==` and
`hash` read their bytes.  The table names (``addS``, ``prod``, ``mul``, ...)
are nested-tuple views built on first read, for the plain-loop readers:
the witness replay below and the additive carrier of a fuzzy subset.

Axiom validation runs vectorised scans over the full quantifier space,
in blocks of bounded size, and reports, for each violated law, the
lexicographically first witness tuple.  On large structures the
gamma-semiring validator checks the distributive laws and associativity on
greedy additive generators instead, with the same outcome (see the comment
above the validators for the size rule and why it is sound).
``recheck_violation`` re-evaluates a witness with plain table arithmetic,
independently of the vectorised path.

Crisp subsets are int bitmasks, and every layer asks its crisp questions of
one kernel here: ``close`` (the least ideal holding an ideal and one more
element), ``_set_sum``, ``_is_closed`` (closed under addition and a kind's
``_absorption_images``) and the mask <-> bit-row codec ``_to_bits``/``_to_masks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = [
    "StructuralError",
    "PreconditionUnmet",
    "CapExceeded",
    "Violation",
    "ValidationOutcome",
    "GammaSemiring",
    "Semiring",
    "validate_gamma_semiring",
    "validate_semiring",
    "validate",
    "recheck_violation",
    "is_commutative",
    "zdf_witness",
    "is_gamma_semifield",
    "gamma_semifield_witness",
    "mul_commutative",
    "is_semifield",
    "semifield_witness",
    "semifield_inverse_view",
    "boolean_gamma",
    "zn_gamma",
    "gamma_from_semiring",
    "boolean_semiring",
    "boolean_power_semiring",
    "zn_semiring",
]


class StructuralError(ValueError):
    """Tables are malformed: ragged rows, wrong dimensions, or bad indices."""


class PreconditionUnmet(Exception):
    """A predicate was applied outside its stated hypotheses."""


class CapExceeded(RuntimeError):
    """A resource cap stopped a computation.  `counts` holds the sizes a
    precondition-unmet report records for it."""

    def __init__(self, message: str, **counts: int):
        super().__init__(message)
        self.counts = counts


def _tuples(rows: list) -> tuple:
    """Nested lists of ints (from `tolist()`, two or more levels) as nested tuples."""
    return tuple(map(_tuples, rows)) if isinstance(rows[0][0], list) else tuple(map(tuple, rows))


def _view(i: int) -> cached_property:
    """Table i of `tables` as nested tuples of Python ints, built on first read."""
    return cached_property(lambda self: _tuples(self.tables[i].tolist()))


class _Structure:
    """A structure is its name, its carriers of element ids and `tables`,
    one read-only array per table; `==` and `hash` read those, the tables as
    bytes (canonical, since the dtype depends only on the carrier sizes)."""

    def _store(self, name: str, carriers, tables, axes, check) -> None:
        """Keep the name, the carriers as ids and the tables (nested
        sequences or arrays, table k over the carriers `axes[k]`) as
        read-only copies in the index dtype of the carriers, after one
        vectorised check of the ids, the shapes and the bounds; when it
        fails, check(*carriers, *tables) raises the StructuralError that
        names the first fault."""
        carriers = [tuple(map(str, c)) for c in carriers]
        shapes = [tuple(len(carriers[i]) for i in axis) for axis in axes]
        try:
            arrays = [np.asarray(t) for t in tables]
        except ValueError:  # ragged rows
            arrays = None
        if arrays is None or not all(c and len(set(c)) == len(c) for c in carriers) or not all(
            a.shape == shape and a.dtype.kind in "biu" and 0 <= a.min() and a.max() < shape[-1]
            for a, shape in zip(arrays, shapes)
        ):
            check(*carriers, *tables)
        stored = tuple(a.astype(_index_dtype(*map(len, carriers))) for a in arrays)
        for a in stored:
            a.setflags(write=False)
        for f, value in zip(fields(self), (name, *carriers, stored)):
            object.__setattr__(self, f.name, value)

    def _key(self) -> tuple:
        name, *ids, tables = (getattr(self, f.name) for f in fields(self))
        return (name, *ids, *(t.tobytes() for t in tables))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, init=False, eq=False)
class GammaSemiring(_Structure):
    """Finite gamma-semiring: carriers S and G plus addition/product tables.

    The constructor takes the tables as nested sequences or arrays:
    ``addS`` and ``addG``, |S|x|S| and |G|x|G| index tables, and ``prod``,
    indexed ``prod[a][g][b]``, the S-index of the ternary product.  Index 0
    of each carrier is its additive zero.  It raises StructuralError on
    malformed tables and keeps copies as `tables`; ``addS``, ``addG`` and
    ``prod`` read them back as nested tuples.  Instances are immutable and
    safe to share across workers once validated.
    """

    name: str
    S: tuple[str, ...]
    G: tuple[str, ...]
    tables: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, name: str, S, G, addS, addG, prod):
        self._store(name, (S, G), (addS, addG, prod), ((0, 0), (1, 1), (0, 1, 0)), check_gamma_structure)

    addS, addG, prod = _view(0), _view(1), _view(2)


@dataclass(frozen=True, init=False, eq=False)
class Semiring(_Structure):
    """Finite semiring: additive commutative monoid, multiplicative semigroup,
    two-sided distributivity, and a multiplicatively absorbing zero at index 0.
    Built and stored as a GammaSemiring is: ``add`` and ``mul`` read `tables`
    back as nested tuples."""

    name: str
    carrier: tuple[str, ...]
    tables: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, name: str, carrier, add, mul):
        self._store(name, (carrier,), (add, mul), ((0, 0), (0, 0)), check_semiring_structure)

    add, mul = _view(0), _view(1)

    def index(self, elem_id: str) -> int:
        return self.carrier.index(elem_id)


@dataclass(frozen=True)
class Violation:
    """One violated law together with its lexicographically first witness.

    Witness entries are element ids, ordered as documented for the axiom
    (see the scalar checkers in ``_GAMMA_AXIOMS`` / ``_SEMIRING_AXIOMS``).
    """

    axiom: str
    witness: tuple[str, ...]


@dataclass(frozen=True)
class ValidationOutcome:
    ok: bool
    violations: tuple[Violation, ...]


# ---------------------------------------------------------------------------
# structural checks


def _check_square(table, size, entry_bound, what: str) -> None:
    if len(table) != size:
        raise StructuralError(f"{what}: expected {size} rows, got {len(table)}")
    for i, row in enumerate(table):
        if len(row) != size:
            raise StructuralError(f"{what}: row {i} has {len(row)} entries, expected {size}")
        for v in row:
            if not (0 <= v < entry_bound):
                raise StructuralError(f"{what}: entry {v} out of range [0, {entry_bound})")


def _check_ids(ids: tuple[str, ...], what: str) -> None:
    if not ids:
        raise StructuralError(f"{what}: empty carrier")
    if len(set(ids)) != len(ids):
        raise StructuralError(f"{what}: duplicate element ids")


def check_gamma_structure(S, G, addS, addG, prod) -> None:
    """Raise StructuralError unless the ids are distinct and non-empty and
    all tables are rectangular with valid indices."""
    _check_ids(S, "S")
    _check_ids(G, "G")
    s, gg = len(S), len(G)
    _check_square(addS, s, s, "add_S")
    _check_square(addG, gg, gg, "add_G")
    if len(prod) != s:
        raise StructuralError(f"product: expected {s} planes, got {len(prod)}")
    for a, plane in enumerate(prod):
        if len(plane) != gg:
            raise StructuralError(f"product: plane {a} has {len(plane)} rows, expected {gg}")
        for row in plane:
            if len(row) != s:
                raise StructuralError(f"product: ragged row in plane {a}")
            for v in row:
                if not (0 <= v < s):
                    raise StructuralError(f"product: entry {v} out of range [0, {s})")


def check_semiring_structure(carrier, add, mul) -> None:
    _check_ids(carrier, "carrier")
    n = len(carrier)
    _check_square(add, n, n, "add")
    _check_square(mul, n, n, "mul")


# ---------------------------------------------------------------------------
# axiom validation
#
# Each axiom has a vectorised mask builder (first witness = the first true
# cell in row-major order, argmax, which is the lexicographically smallest
# index tuple, the first row of argwhere, without listing the others) and a
# scalar checker used for independent witness replay.  The masks index the
# structure's `tables`, in the smallest unsigned dtype that holds every
# carrier index (uint8 up to 256 elements), so each gathered array costs one
# byte a cell, not eight; the (|S||G|)^2|S| associativity mask dominates.
# The distributive and associativity masks are built and scanned in blocks
# of rows (`_blocks`: of a, and of (a, gamma) for associativity), in order,
# so each keeps its first witness and no scan holds more than a block.  A distributive mask reads the
# addition table at two product arrays as one flat take at x*|S| + y, which
# is about four times faster than a gather with two broadcast index arrays.
#
# Above `_DENSE_CELLS` associativity cells, `validate_gamma_semiring`
# checks on greedy additive generators of S and G (`_greedy_generators`:
# sets whose closure under binary addition is the whole carrier).  Each
# distributive law is then checked with one argument over generators (b in
# (a+b)@c = a@c + b@c, c in a@(b+c), delta in a(gamma+delta)b): by
# induction on how an element is built from generators that is sound once
# + is associative on S and on G, which the same pass checks densely, since
# the law for b1 and b2 with every a gives (a+(b1+b2))@c = ((a+b1)+b2)@c =
# (a@c + b1@c) + b2@c = a@c + (b1+b2)@c.  Associativity is then checked on
# generator 5-tuples: with the distributive laws both sides of a@(b#c) =
# (a@b)#c are additive in each argument, so the values of one argument on
# which it holds (the others fixed) are closed under addition.  When any
# law fails, on generators or not, these four are scanned densely, since the
# first witness need not be a generator tuple: the outcome is the dense
# one, and the dense scan (`_gamma_outcome` without generators) stays the
# reference the tests check the generator path against.

# scalar checkers; 's'/'g' in the signature strings below record which
# carrier each witness position refers to.

_GAMMA_AXIOMS: dict[str, tuple[str, object]] = {
    "add_S_commutative": ("ss", lambda g, w: g.addS[w[0]][w[1]] == g.addS[w[1]][w[0]]),
    "add_S_associative": (
        "sss",
        lambda g, w: g.addS[g.addS[w[0]][w[1]]][w[2]] == g.addS[w[0]][g.addS[w[1]][w[2]]],
    ),
    "add_S_identity": ("s", lambda g, w: g.addS[0][w[0]] == w[0] and g.addS[w[0]][0] == w[0]),
    "add_G_commutative": ("gg", lambda g, w: g.addG[w[0]][w[1]] == g.addG[w[1]][w[0]]),
    "add_G_associative": (
        "ggg",
        lambda g, w: g.addG[g.addG[w[0]][w[1]]][w[2]] == g.addG[w[0]][g.addG[w[1]][w[2]]],
    ),
    "add_G_identity": ("g", lambda g, w: g.addG[0][w[0]] == w[0] and g.addG[w[0]][0] == w[0]),
    # (a+b)@c = a@c + b@c, witness (a, b, gamma, c)
    "product_left_distributive": (
        "ssgs",
        lambda g, w: g.prod[g.addS[w[0]][w[1]]][w[2]][w[3]]
        == g.addS[g.prod[w[0]][w[2]][w[3]]][g.prod[w[1]][w[2]][w[3]]],
    ),
    # a@(b+c) = a@b + a@c, witness (a, gamma, b, c)
    "product_right_distributive": (
        "sgss",
        lambda g, w: g.prod[w[0]][w[1]][g.addS[w[2]][w[3]]]
        == g.addS[g.prod[w[0]][w[1]][w[2]]][g.prod[w[0]][w[1]][w[3]]],
    ),
    # a(@+#)b = a@b + a#b, witness (a, gamma, delta, b)
    "product_gamma_distributive": (
        "sggs",
        lambda g, w: g.prod[w[0]][g.addG[w[1]][w[2]]][w[3]]
        == g.addS[g.prod[w[0]][w[1]][w[3]]][g.prod[w[0]][w[2]][w[3]]],
    ),
    # a@(b#c) = (a@b)#c, witness (a, gamma, b, delta, c)
    "product_associative": (
        "sgsgs",
        lambda g, w: g.prod[w[0]][w[1]][g.prod[w[2]][w[3]][w[4]]]
        == g.prod[g.prod[w[0]][w[1]][w[2]]][w[3]][w[4]],
    ),
    "zero_s_left": ("gs", lambda g, w: g.prod[0][w[0]][w[1]] == 0),
    "zero_s_right": ("sg", lambda g, w: g.prod[w[0]][w[1]][0] == 0),
    "zero_gamma": ("ss", lambda g, w: g.prod[w[0]][0][w[1]] == 0),
}

_SEMIRING_AXIOMS: dict[str, tuple[str, object]] = {
    "add_commutative": ("cc", lambda r, w: r.add[w[0]][w[1]] == r.add[w[1]][w[0]]),
    "add_associative": (
        "ccc",
        lambda r, w: r.add[r.add[w[0]][w[1]]][w[2]] == r.add[w[0]][r.add[w[1]][w[2]]],
    ),
    "add_identity": ("c", lambda r, w: r.add[0][w[0]] == w[0] and r.add[w[0]][0] == w[0]),
    "mul_associative": (
        "ccc",
        lambda r, w: r.mul[r.mul[w[0]][w[1]]][w[2]] == r.mul[w[0]][r.mul[w[1]][w[2]]],
    ),
    # a(b+c) = ab + ac
    "mul_left_distributive": (
        "ccc",
        lambda r, w: r.mul[w[0]][r.add[w[1]][w[2]]]
        == r.add[r.mul[w[0]][w[1]]][r.mul[w[0]][w[2]]],
    ),
    # (a+b)c = ac + bc
    "mul_right_distributive": (
        "ccc",
        lambda r, w: r.mul[r.add[w[0]][w[1]]][w[2]]
        == r.add[r.mul[w[0]][w[2]]][r.mul[w[1]][w[2]]],
    ),
    "zero_mul_left": ("c", lambda r, w: r.mul[0][w[0]] == 0),
    "zero_mul_right": ("c", lambda r, w: r.mul[w[0]][0] == 0),
}


def _index_dtype(*sizes: int) -> np.dtype:
    """The smallest unsigned dtype that holds every index into the carriers."""
    return np.min_scalar_type(max(sizes) - 1)


def _first_witness(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """The first true cell of a boolean array in row-major order, the order
    nested loops over its axes, the first outermost, meet it in; None when
    no cell is true."""
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape))


def _ids_for(witness: tuple[int, ...], sig: str, lookup: dict) -> tuple[str, ...]:
    return tuple(lookup[kind][idx] for kind, idx in zip(sig, witness))


def _outcome(witnesses: dict, axioms: dict, lookup: dict) -> ValidationOutcome:
    """Each violated axiom, in table order, with its first witness as ids."""
    found = ((axiom, sig, witnesses.get(axiom)) for axiom, (sig, _) in axioms.items())
    violations = tuple(Violation(a, _ids_for(w, sig, lookup)) for a, sig, w in found if w is not None)
    return ValidationOutcome(not violations, violations)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of an array (its last axis) as one opaque key, so
    np.unique and np.sort compare whole rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0]


def _greedy_generators(add: np.ndarray) -> list[int]:
    """Additive generators of the carrier of `add`: 0, then the smallest element
    their closure (`close` with no images) does not reach, while any (on
    ({0,1}^k, or), 0 and the atoms)."""
    rows, gens, reached = add.tolist(), [], 0
    for x in range(len(rows)):
        if not reached >> x & 1:
            gens.append(x)
            reached = close(rows, [0] * len(rows), reached, x)
    return gens


# the dense argument of a mask builder: every element of its carrier
_ALL = slice(None)

# cells of one block of `_sums` and of a law's mask: np.take widens the
# offsets to intp, so a block holds about 10 bytes a cell besides the result
_SUM_CELLS = 1 << 22

# the most dense associativity cells, |S|^3|G|^2, validate_gamma_semiring
# scans densely: measured, the dense scan is faster up to Z_7 (16,807
# cells), even on Z_8 and from_B3 (32,768), slower from Z_9 (59,049) on
_DENSE_CELLS = 1 << 15


def _blocks(rows: int, row_cells: int, cells: int):
    """Slices of whole first-axis rows, in order, of at most `cells` cells
    at `row_cells` cells a row (one row at least)."""
    step = max(1, cells // max(1, row_cells))
    return (slice(start, start + step) for start in range(0, rows, step))


def _sums(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A[x, y] for index arrays that broadcast, as flat takes from the raveled
    table at x*|A| + y (x widened first so the offsets fit), in `_blocks`.
    The offsets are in range, so "clip" never clips; it spares a copy."""
    n, flat = len(A), A.ravel()
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=A.dtype)
    offset = np.min_scalar_type(n * n - 1)
    for rows in _blocks(len(out), out.size // len(out), _SUM_CELLS):
        xs, ys = (v[rows] if len(v) > 1 else v for v in (x, y))
        np.take(flat, xs.astype(offset) * n + ys, out=out[rows], mode="clip")
    return out


def _first_in_blocks(mask, lead: tuple[int, ...], row_cells: int) -> Optional[tuple[int, ...]]:
    """The first witness of the mask whose axes `lead`, flattened to rows,
    give `mask(r)` on the rows r: built and scanned in `_blocks`, in order,
    so no more than a block is held."""
    for r in _blocks(math.prod(lead), row_cells, _SUM_CELLS):
        witness = _first_witness(mask(r))
        if witness is not None:
            return (*map(int, np.unravel_index(witness[0] + r.start, lead)), *witness[1:])
    return None


def _monoid_witnesses(A: np.ndarray, name: str) -> dict:
    """The first witness of the commutative, associative and identity laws
    of the addition `A`, None where one holds; each mask is built and
    scanned in `_blocks` of its first axis (`_first_in_blocks`), so no
    |A|^3 associativity mask is held whole."""
    n, ar = len(A), np.arange(len(A))
    laws = {
        "commutative": (lambda r: A[r] != A.T[r], n),
        "associative": (lambda r: A[A[r]] != A[r][:, A], n * n),  # cell (x, y, z)
        "identity": (lambda r: (A[0, r] != ar[r]) | (A[r, 0] != ar[r]), 1),
    }
    return {f"{name}_{law}": _first_in_blocks(mask, (n,), cells) for law, (mask, cells) in laws.items()}


def _gamma_laws(A: np.ndarray, B: np.ndarray, P: np.ndarray, s=_ALL, g=_ALL) -> dict:
    """The distributive laws, with their generator argument over `s` in S or
    `g` in G, and associativity over s, g, s, g, s: per law (mask, lead,
    cells), mask(r) its violation mask on the rows r of its leading axes
    `lead` flattened, each of at most `cells` cells (witness positions are
    in the sets)."""
    left = P[s][:, g]  # (a, gamma, x) over s, g, S: a@gamma@x
    ns, ng, _ = left.shape
    rows = left.reshape(ns * ng, -1)

    def associativity(r):  # cell ((a, gamma), b, delta, c) over (s, g), s, g, s
        return rows[r][:, left[:, :, s]] != P[:, g][:, :, s][rows[r][:, s]]

    distributive = {
        "product_left_distributive": lambda r: P[A[r, s]] != _sums(A, P[r, None], P[s][None]),
        "product_right_distributive": lambda r: P[r][:, :, A[:, s]] != _sums(A, P[r, :, :, None], P[r][:, :, None, s]),
        "product_gamma_distributive": lambda r: P[r][:, B[:, g]] != _sums(A, P[r, :, None, :], P[r][:, g][:, None]),
    }
    laws = {law: (mask, (len(A),), len(A) ** 2 * len(B)) for law, mask in distributive.items()}
    return {**laws, "product_associative": (associativity, (ns, ng), ns * ng * ns)}


def _gamma_outcome(g: GammaSemiring, generators=None) -> ValidationOutcome:
    """Every gamma-semiring law checked on `g.tables`, densely (the
    reference) or on `generators` (indices into S, into G) that generate S
    and G under addition, the four laws of `_gamma_laws` then densely only
    when a law fails (else they hold and have no witness)."""
    A, B, P = g.tables
    masks = {"zero_s_left": P[0] != 0, "zero_s_right": P[:, :, 0] != 0, "zero_gamma": P[:, 0, :] != 0}
    witnesses = {**_monoid_witnesses(A, "add_S"), **_monoid_witnesses(B, "add_G")}
    witnesses.update((law, _first_witness(mask)) for law, mask in masks.items())
    dense = generators is None or any(witnesses.values())
    if dense or any(_first_in_blocks(*scan) for scan in _gamma_laws(A, B, P, *generators).values()):
        witnesses.update((law, _first_in_blocks(*scan)) for law, scan in _gamma_laws(A, B, P).items())
    return _outcome(witnesses, _GAMMA_AXIOMS, {"s": g.S, "g": g.G})


def validate_gamma_semiring(g: GammaSemiring) -> ValidationOutcome:
    """Check every gamma-semiring law on `g.tables`; report each violated
    one with its lexicographically first witness.  Up to `_DENSE_CELLS`
    associativity cells the scan is dense, above it runs on greedy additive
    generators of S and G, with the same outcome."""
    A, B, _ = g.tables
    dense = len(A) ** 3 * len(B) ** 2 <= _DENSE_CELLS
    return _gamma_outcome(g, None if dense else (_greedy_generators(A), _greedy_generators(B)))


def _semiring_masks(A: np.ndarray, M: np.ndarray) -> dict[str, np.ndarray]:
    """The violation mask of every semiring law but those of the addition
    (`_monoid_witnesses`)."""
    return {
        "mul_associative": M[M] != M[:, M],
        "mul_left_distributive": M[:, A] != _sums(A, M[:, :, None], M[:, None, :]),
        "mul_right_distributive": M[A] != _sums(A, M[:, None, :], M[None, :, :]),
        "zero_mul_left": M[0] != 0,
        "zero_mul_right": M[:, 0] != 0,
    }


def validate_semiring(r: Semiring) -> ValidationOutcome:
    """Semiring analogue of validate_gamma_semiring, always dense."""
    witnesses = _monoid_witnesses(r.tables[0], "add")
    witnesses.update((law, _first_witness(mask)) for law, mask in _semiring_masks(*r.tables).items())
    return _outcome(witnesses, _SEMIRING_AXIOMS, {"c": r.carrier})


def validate(structure) -> ValidationOutcome:
    """validate_gamma_semiring or validate_semiring, by the structure's type."""
    if isinstance(structure, GammaSemiring):
        return validate_gamma_semiring(structure)
    return validate_semiring(structure)


def recheck_violation(structure, violation: Violation) -> bool:
    """True iff the witness really violates its axiom, by direct table
    arithmetic.  This path shares no scan code with the validators."""
    if isinstance(structure, GammaSemiring):
        sig, check = _GAMMA_AXIOMS[violation.axiom]
        lookup = {"s": structure.S, "g": structure.G}
    elif isinstance(structure, Semiring):
        sig, check = _SEMIRING_AXIOMS[violation.axiom]
        lookup = {"c": structure.carrier}
    else:
        raise TypeError(f"unsupported structure {type(structure).__name__}")
    idx = tuple(lookup[kind].index(e) for kind, e in zip(sig, violation.witness))
    return not check(structure, idx)


# ---------------------------------------------------------------------------
# predicates


def is_commutative(g: GammaSemiring) -> bool:
    """a@b == b@a for every a, b in S and @ in G."""
    P = g.tables[2]
    return bool((P == P.transpose(2, 1, 0)).all())


def _shifted(witness: Optional[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
    """A witness of a mask over the nonzero indices, as indices of the carriers."""
    return witness and tuple(v + 1 for v in witness)


def zdf_witness(g: GammaSemiring) -> Optional[tuple[int, int, int]]:
    """First (a, gamma, b), all nonzero, with a@b == 0; None if zero-divisor
    free (a@b == 0 only if a, @ or b is the relevant zero)."""
    return _shifted(_first_witness(g.tables[2][1:, 1:, 1:] == 0))


def gamma_semifield_witness(g: GammaSemiring) -> Optional[tuple[int, int]]:
    """First (a, gamma), both nonzero, admitting no (b, beta) with
    ((a@b)#d) == d for every d; None when every pair has one."""
    P = g.tables[2]
    # unit[t]: some beta makes t@beta@(.) the identity of S
    unit = (P == np.arange(len(P))).all(axis=2).any(axis=1)
    return _shifted(_first_witness(~unit[P[1:, 1:]].any(axis=2)))


def is_gamma_semifield(g: GammaSemiring) -> bool:
    """Commutative gamma-semiring in which every nonzero (a, gamma) pair is
    invertible in the sense that some (b, beta) makes a@b#(.) the identity.

    Requires a commutative product (PreconditionUnmet otherwise).  The
    one-element carrier is classified as not a gamma-semifield: the nonzero
    quantifier is vacuous and the exclusive reading is used.
    """
    if not is_commutative(g):
        raise PreconditionUnmet(f"{g.name}: product is not commutative")
    if len(g.S) == 1:
        return False
    return gamma_semifield_witness(g) is None


def mul_commutative(r: Semiring) -> bool:
    M = r.tables[1]
    return bool((M == M.T).all())


def close(add, image, ideal: int, x: int) -> int:
    """The smallest ideal, as a bitmask, containing the ideal `ideal` (a
    bitmask closed under addition and the images) and element x: closed
    under the addition table `add`, and containing image[e], a bitmask, with
    every member e.  All-zero images give the additive closure.  `add`
    holds Python ints (a tuple view or `tolist()`): a shift by a numpy
    scalar keeps its dtype, so 1 << np.uint8(9) is 0."""
    members = [y for y in range(ideal.bit_length()) if ideal >> y & 1]
    todo = [x]
    while todo:
        e = todo.pop()
        if ideal >> e & 1:
            continue
        ideal |= 1 << e
        members.append(e)
        row, new = add[e], image[e]
        for y in members:
            new |= 1 << row[y] | 1 << add[y][e]
        new &= ~ideal
        while new:  # queue the new elements, lowest first
            low = new & -new
            todo.append(low.bit_length() - 1)
            new ^= low
    return ideal


def _bits(mask: int) -> list[int]:
    """The elements of a mask, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _set_sum(add, u: int, v: int) -> int:
    """The set sum {x + y : x in u, y in v} of two masks; `add` holds
    Python ints, as for `close`."""
    total, vs = 0, _bits(v)
    for x in _bits(u):
        row = add[x]
        for y in vs:
            total |= 1 << row[y]
    return total


def _is_closed(add, image, mask: int) -> bool:
    """Whether the mask is closed under addition and contains image[x], a
    mask, for each member x: with the absorption images of a kind, whether
    it is an ideal of the kind once it holds 0."""
    return not _set_sum(add, mask, mask) & ~mask and not any(image[x] & ~mask for x in _bits(mask))


def _to_bits(masks: list[int], n: int) -> np.ndarray:
    """The (len(masks), n) 0/1 bits of masks, element x in column x."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1, count=n, bitorder="little")


def _to_masks(bits: np.ndarray) -> list[int]:
    """The masks of the rows of a 0/1 array, inverse to `_to_bits`."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(bits, axis=1, bitorder="little")]


def _absorption_images(structure, kind: str) -> list[int]:
    """Per element x, the bitmask of every product that an ideal of the kind
    ("left", "right" or "two") containing x must also contain."""
    if isinstance(structure, GammaSemiring):
        n = len(structure.S)
        products = structure.tables[2]  # axes (x, gamma, y)
    elif isinstance(structure, Semiring):
        n = len(structure.carrier)
        products = structure.tables[1][:, None, :]  # axes (x, -, y)
    else:
        sem = getattr(structure, "semiring", None)
        if sem is None:
            raise TypeError(f"cannot enumerate over {type(structure).__name__}")
        return _absorption_images(sem, kind)
    # hit[x, r]: r is a product the kind makes an ideal containing x contain
    hit = np.zeros((n, n), dtype=bool)
    x = np.arange(n)
    if kind in ("left", "two"):
        hit[x[None, None, :], products] = True
    if kind in ("right", "two"):
        hit[x[:, None, None], products] = True
    return _to_masks(hit)


def semifield_witness(r: Semiring) -> Optional[tuple[int, ...]]:
    """A nonzero proper crisp ideal (sorted indices), or None if none exists.
    Returns the principal ideal of the smallest generator that yields one."""
    n, add = len(r.carrier), r.tables[0].tolist()
    images = _absorption_images(r, "two")
    bottom = close(add, images, 0, 0)
    for x in range(1, n):
        ideal = close(add, images, bottom, x)
        if ideal != (1 << n) - 1:
            return tuple(_bits(ideal))
    return None


def is_semifield(r: Semiring) -> bool:
    """Commutative semiring with no nonzero proper crisp ideals.

    The one-element zero semiring is classified as not a semifield
    (exclusive reading of the vacuous nonzero quantifier).
    """
    if not mul_commutative(r):
        raise PreconditionUnmet(f"{r.name}: multiplication is not commutative")
    if len(r.carrier) == 1:
        return False
    return semifield_witness(r) is None


def semifield_inverse_view(r: Semiring) -> Optional[bool]:
    """Cross-check predicate: every nonzero element has a multiplicative
    inverse relative to a detected identity.  None when no identity exists
    (or the carrier is trivial), in which case the view is undecided."""
    M = r.tables[1]
    if len(M) == 1:
        return None
    ar = np.arange(len(M))
    identity = np.flatnonzero((M == ar).all(axis=1) & (M.T == ar).all(axis=1))
    if not identity.size:
        return None
    return bool((M[1:] == identity[0]).any(axis=1).all())


# ---------------------------------------------------------------------------
# generators


def _checked(structure):
    """Return a generated structure, or raise StructuralError on its first
    axiom violation (an explicit check, so ``python -O`` keeps it)."""
    outcome = validate(structure)
    if not outcome.ok:
        raise StructuralError(f"{structure.name}: {outcome.violations[0]}")
    return structure


def boolean_gamma() -> GammaSemiring:
    """S = G = {0, 1}, both additions max, product min(a, gamma, b)."""
    add = ((0, 1), (1, 1))
    prod = tuple(
        tuple(tuple(min(a, c, b) for b in range(2)) for c in range(2)) for a in range(2)
    )
    g = GammaSemiring("boolean", ("0", "1"), ("0", "1"), add, add, prod)
    return _checked(g)


def zn_gamma(n: int) -> GammaSemiring:
    """S = G = Z_n with addition mod n and product a*gamma*b mod n."""
    if n < 2:
        raise ValueError(f"zn requires n >= 2, got {n}")
    ids = tuple(str(i) for i in range(n))
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    prod = tuple(
        tuple(tuple((a * c * b) % n for b in range(n)) for c in range(n)) for a in range(n)
    )
    g = GammaSemiring(f"z{n}", ids, ids, add, add, prod)
    return _checked(g)


def gamma_from_semiring(r: Semiring) -> GammaSemiring:
    """Gamma = S = r.carrier with a@b = a*@*b (two multiplications in r)."""
    outcome = validate_semiring(r)
    if not outcome.ok:
        raise ValueError(f"{r.name}: not a valid semiring: {outcome.violations[0]}")
    add, mul = r.tables
    return _checked(GammaSemiring(f"from_{r.name}", r.carrier, r.carrier, add, add, mul[mul]))


def boolean_semiring() -> Semiring:
    r = Semiring("boolean_semiring", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)))
    return _checked(r)


def boolean_power_semiring(k: int) -> Semiring:
    """({0,1}^k, bitwise or, bitwise and); element i is the bit pattern i."""
    if k < 1:
        raise ValueError(f"boolean power requires k >= 1, got {k}")
    n = 2**k
    ids = tuple(str(i) for i in range(n))
    add = tuple(tuple(i | j for j in range(n)) for i in range(n))
    mul = tuple(tuple(i & j for j in range(n)) for i in range(n))
    return _checked(Semiring(f"B{k}", ids, add, mul))


def zn_semiring(n: int) -> Semiring:
    if n < 2:
        raise ValueError(f"zn requires n >= 2, got {n}")
    ids = tuple(str(i) for i in range(n))
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    r = Semiring(f"z{n}_semiring", ids, add, mul)
    return _checked(r)
