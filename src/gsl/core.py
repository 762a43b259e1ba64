"""Finite gamma-semirings and plain semirings over dense Cayley tables.

A gamma-semiring couples two additive commutative monoids, a carrier S and
a parameter monoid Gamma, through a ternary product S x Gamma x S -> S that
distributes over both additions and satisfies the mixed associativity law
a@(b#c) = (a@b)#c.  Carriers are ordered tuples of element ids with the
additive zero pinned at index 0; every operation table stores carrier
indices, so all laws are decidable by direct enumeration.

Axiom validation runs vectorised scans over the full quantifier space and
reports, for each violated law, the lexicographically first witness tuple.
``recheck_violation`` re-evaluates a witness with plain table arithmetic,
independently of the vectorised path.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "recheck_violation",
    "is_commutative",
    "is_zdf",
    "zdf_witness",
    "is_gamma_semifield",
    "gamma_semifield_witness",
    "mul_commutative",
    "is_semifield",
    "semifield_witness",
    "semifield_inverse_view",
    "gen_instance",
    "boolean_gamma",
    "zn_gamma",
    "gamma_from_semiring",
    "boolean_semiring",
    "zn_semiring",
    "gen_semiring",
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


def _freeze2(table) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in table)


def _freeze3(table) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(tuple(tuple(int(v) for v in row) for row in plane) for plane in table)


@dataclass(frozen=True)
class GammaSemiring:
    """Finite gamma-semiring: carriers S and G plus addition/product tables.

    ``addS`` and ``addG`` are |S|x|S| and |G|x|G| index tables; ``prod`` is
    indexed ``prod[a][g][b]`` and yields the S-index of the ternary product.
    Index 0 of each carrier is its additive zero.  Instances are immutable
    and safe to share across workers once validated.
    """

    name: str
    S: tuple[str, ...]
    G: tuple[str, ...]
    addS: tuple[tuple[int, ...], ...]
    addG: tuple[tuple[int, ...], ...]
    prod: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "S", tuple(str(x) for x in self.S))
        object.__setattr__(self, "G", tuple(str(x) for x in self.G))
        object.__setattr__(self, "addS", _freeze2(self.addS))
        object.__setattr__(self, "addG", _freeze2(self.addG))
        object.__setattr__(self, "prod", _freeze3(self.prod))


@dataclass(frozen=True)
class Semiring:
    """Finite semiring: additive commutative monoid, multiplicative semigroup,
    two-sided distributivity, and a multiplicatively absorbing zero at index 0."""

    name: str
    carrier: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "carrier", tuple(str(x) for x in self.carrier))
        object.__setattr__(self, "add", _freeze2(self.add))
        object.__setattr__(self, "mul", _freeze2(self.mul))

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


def check_gamma_structure(g: GammaSemiring) -> None:
    """Raise StructuralError unless all tables are rectangular with valid indices."""
    _check_ids(g.S, "S")
    _check_ids(g.G, "G")
    s, gg = len(g.S), len(g.G)
    _check_square(g.addS, s, s, "add_S")
    _check_square(g.addG, gg, gg, "add_G")
    if len(g.prod) != s:
        raise StructuralError(f"product: expected {s} planes, got {len(g.prod)}")
    for a, plane in enumerate(g.prod):
        if len(plane) != gg:
            raise StructuralError(f"product: plane {a} has {len(plane)} rows, expected {gg}")
        for row in plane:
            if len(row) != s:
                raise StructuralError(f"product: ragged row in plane {a}")
            for v in row:
                if not (0 <= v < s):
                    raise StructuralError(f"product: entry {v} out of range [0, {s})")


def check_semiring_structure(r: Semiring) -> None:
    _check_ids(r.carrier, "carrier")
    n = len(r.carrier)
    _check_square(r.add, n, n, "add")
    _check_square(r.mul, n, n, "mul")


# ---------------------------------------------------------------------------
# axiom validation
#
# Each axiom has a vectorised mask builder (first witness = argwhere()[0],
# which is the lexicographically smallest index tuple) and a scalar checker
# used for independent witness replay.

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


def _first_witness(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    bad = np.argwhere(mask)
    if bad.size == 0:
        return None
    return tuple(int(v) for v in bad[0])


def _ids_for(witness: tuple[int, ...], sig: str, lookup: dict) -> tuple[str, ...]:
    return tuple(lookup[kind][idx] for kind, idx in zip(sig, witness))


def validate_gamma_semiring(g: GammaSemiring) -> ValidationOutcome:
    """Check every gamma-semiring law; report each violated one with its
    lexicographically first witness.  Raises StructuralError on malformed tables."""
    check_gamma_structure(g)
    A = np.asarray(g.addS, dtype=np.intp)
    B = np.asarray(g.addG, dtype=np.intp)
    P = np.asarray(g.prod, dtype=np.intp)
    s = len(g.S)
    gg = len(g.G)
    ar_s = np.arange(s, dtype=np.intp)
    ar_g = np.arange(gg, dtype=np.intp)

    masks: dict[str, np.ndarray] = {
        "add_S_commutative": A != A.T,
        "add_S_associative": A[A] != A[:, A],
        "add_S_identity": (A[0] != ar_s) | (A[:, 0] != ar_s),
        "add_G_commutative": B != B.T,
        "add_G_associative": B[B] != B[:, B],
        "add_G_identity": (B[0] != ar_g) | (B[:, 0] != ar_g),
        "product_left_distributive": P[A] != A[P[:, None, :, :], P[None, :, :, :]],
        "product_right_distributive": P[:, :, A] != A[P[:, :, :, None], P[:, :, None, :]],
        "product_gamma_distributive": P[:, B, :] != A[P[:, :, None, :], P[:, None, :, :]],
        "product_associative": P[:, :, P] != P[P],
        "zero_s_left": P[0] != 0,
        "zero_s_right": P[:, :, 0] != 0,
        "zero_gamma": P[:, 0, :] != 0,
    }

    violations = []
    for axiom, (sig, _) in _GAMMA_AXIOMS.items():
        w = _first_witness(masks[axiom])
        if w is not None:
            violations.append(Violation(axiom, _ids_for(w, sig, {"s": g.S, "g": g.G})))
    return ValidationOutcome(not violations, tuple(violations))


def validate_semiring(r: Semiring) -> ValidationOutcome:
    """Semiring analogue of validate_gamma_semiring."""
    check_semiring_structure(r)
    A = np.asarray(r.add, dtype=np.intp)
    M = np.asarray(r.mul, dtype=np.intp)
    n = len(r.carrier)
    ar = np.arange(n, dtype=np.intp)

    masks = {
        "add_commutative": A != A.T,
        "add_associative": A[A] != A[:, A],
        "add_identity": (A[0] != ar) | (A[:, 0] != ar),
        "mul_associative": M[M] != M[:, M],
        "mul_left_distributive": M[:, A] != A[M[:, :, None], M[:, None, :]],
        "mul_right_distributive": M[A] != A[M[:, None, :], M[None, :, :]],
        "zero_mul_left": M[0] != 0,
        "zero_mul_right": M[:, 0] != 0,
    }

    violations = []
    for axiom, (sig, _) in _SEMIRING_AXIOMS.items():
        w = _first_witness(masks[axiom])
        if w is not None:
            violations.append(Violation(axiom, _ids_for(w, sig, {"c": r.carrier})))
    return ValidationOutcome(not violations, tuple(violations))


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
    s, gg = len(g.S), len(g.G)
    return all(
        g.prod[a][c][b] == g.prod[b][c][a]
        for a in range(s)
        for c in range(gg)
        for b in range(s)
    )


def zdf_witness(g: GammaSemiring) -> Optional[tuple[int, int, int]]:
    """First (a, gamma, b), all nonzero, with a@b == 0; None if zero-divisor free."""
    s, gg = len(g.S), len(g.G)
    for a in range(1, s):
        for c in range(1, gg):
            for b in range(1, s):
                if g.prod[a][c][b] == 0:
                    return (a, c, b)
    return None


def is_zdf(g: GammaSemiring) -> bool:
    """Zero-divisor free: a@b == 0 only if a, @ or b is the relevant zero."""
    return zdf_witness(g) is None


def gamma_semifield_witness(g: GammaSemiring) -> Optional[tuple[int, int]]:
    """First (a, gamma), both nonzero, admitting no (b, beta) with
    ((a@b)#d) == d for every d; None when every pair has one."""
    s, gg = len(g.S), len(g.G)
    for a in range(1, s):
        for c in range(1, gg):
            found = False
            for b in range(s):
                t = g.prod[a][c][b]
                for beta in range(gg):
                    if all(g.prod[t][beta][d] == d for d in range(s)):
                        found = True
                        break
                if found:
                    break
            if not found:
                return (a, c)
    return None


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
    return all(row[j] == r.mul[j][i] for i, row in enumerate(r.mul) for j in range(len(row)))


def _principal_ideal(r: Semiring, x: int) -> frozenset[int]:
    """Smallest two-sided crisp ideal containing x (worklist saturation)."""
    n = len(r.carrier)
    members = {0, x}
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for a in snapshot:
            for b in snapshot:
                v = r.add[a][b]
                if v not in members:
                    members.add(v)
                    changed = True
            for t in range(n):
                for v in (r.mul[t][a], r.mul[a][t]):
                    if v not in members:
                        members.add(v)
                        changed = True
    return frozenset(members)


def semifield_witness(r: Semiring) -> Optional[tuple[int, ...]]:
    """A nonzero proper crisp ideal (sorted indices), or None if none exists.
    Returns the principal ideal of the smallest generator that yields one."""
    n = len(r.carrier)
    for x in range(1, n):
        ideal = _principal_ideal(r, x)
        if len(ideal) < n:
            return tuple(sorted(ideal))
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
    n = len(r.carrier)
    if n == 1:
        return None
    identity = None
    for e in range(n):
        if all(r.mul[e][x] == x and r.mul[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        return None
    return all(any(r.mul[x][y] == identity for y in range(n)) for x in range(1, n))


# ---------------------------------------------------------------------------
# generators


def _checked(structure):
    """Return a generated structure, or raise StructuralError on its first
    axiom violation (an explicit check, so ``python -O`` keeps it)."""
    if isinstance(structure, GammaSemiring):
        outcome = validate_gamma_semiring(structure)
    else:
        outcome = validate_semiring(structure)
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
    n = len(r.carrier)
    prod = tuple(
        tuple(tuple(r.mul[r.mul[a][c]][b] for b in range(n)) for c in range(n))
        for a in range(n)
    )
    g = GammaSemiring(f"from_{r.name}", r.carrier, r.carrier, r.add, r.add, prod)
    return _checked(g)


def gen_instance(kind: str, n: Optional[int] = None, base: Optional[Semiring] = None) -> GammaSemiring:
    """Build one of the stock gamma-semiring instances.

    kind: 'boolean' | 'zn' (needs n >= 2) | 'from_semiring' (needs base).
    """
    if kind == "boolean":
        return boolean_gamma()
    if kind == "zn":
        if n is None:
            raise ValueError("kind 'zn' requires n")
        return zn_gamma(n)
    if kind == "from_semiring":
        if base is None:
            raise ValueError("kind 'from_semiring' requires a base semiring")
        return gamma_from_semiring(base)
    raise ValueError(f"unknown instance kind {kind!r}")


def boolean_semiring() -> Semiring:
    r = Semiring("boolean_semiring", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)))
    return _checked(r)


def zn_semiring(n: int) -> Semiring:
    if n < 2:
        raise ValueError(f"zn requires n >= 2, got {n}")
    ids = tuple(str(i) for i in range(n))
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    r = Semiring(f"z{n}_semiring", ids, add, mul)
    return _checked(r)


def gen_semiring(kind: str, n: Optional[int] = None) -> Semiring:
    if kind == "boolean":
        return boolean_semiring()
    if kind == "zn":
        if n is None:
            raise ValueError("kind 'zn' requires n")
        return zn_semiring(n)
    raise ValueError(f"unknown semiring kind {kind!r}")
