"""Independent brute-force oracles.

Everything here is written as plain nested loops over the raw tables, sharing
no scan code with the library: the vectorised validators, the worklist
closure, the table-lookup matrix builds and the level-cut enumerators are
all checked against these.  `cuts_of`, the grades-to-cuts reading, was
`LevelCuts.of`; next to it, `bits_map` and `mask_map` turn a transfer map
on crisp masks into the map on 0/1 bit rows the suites call, and back, so
tests can install a perturbed map, and `subset_map` applies such a map to a
fuzzy subset cut by cut.  The predicate section keeps the scalar loops
of the structural predicates, which now read the structures' arrays, as the
reference for their first witnesses.  The cut-tuple section keeps the multichain
enumerator, the per-member ideal and constancy tests and the id-array
readers `LevelCuts` had while a fuzzy family was a list of cut tuples.
The fuzzy semifield condition on `Fraction`
grades and the last four sections are earlier library paths kept as
references: the pair checks on all-at-once N x N family
tables (on level-cut views of their own), the sort-position transfer maps,
the frozenset crisp correspondences, and the array paths that the
structures' `tables` replaced (distributive masks as broadcast gathers,
the ideal closure that scans every position, the row-major pair scan),
the operator closure with one dict lookup a cell and a dense re-check,
and the matrix products with one gather per entry and term.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# axiom oracles


def naive_gamma_violations(g) -> dict[str, tuple[int, ...]]:
    """First witness (index tuple, loop order = documented witness order)
    for every violated gamma-semiring law."""
    s, gg = len(g.S), len(g.G)
    A, B, P = g.addS, g.addG, g.prod
    out: dict[str, tuple[int, ...]] = {}

    def record(axiom, witness):
        if axiom not in out:
            out[axiom] = witness

    for a in range(s):
        for b in range(s):
            if A[a][b] != A[b][a]:
                record("add_S_commutative", (a, b))
            for c in range(s):
                if A[A[a][b]][c] != A[a][A[b][c]]:
                    record("add_S_associative", (a, b, c))
    for a in range(s):
        if A[0][a] != a or A[a][0] != a:
            record("add_S_identity", (a,))
    for a in range(gg):
        for b in range(gg):
            if B[a][b] != B[b][a]:
                record("add_G_commutative", (a, b))
            for c in range(gg):
                if B[B[a][b]][c] != B[a][B[b][c]]:
                    record("add_G_associative", (a, b, c))
    for a in range(gg):
        if B[0][a] != a or B[a][0] != a:
            record("add_G_identity", (a,))

    for a in range(s):
        for b in range(s):
            for c in range(gg):
                for d in range(s):
                    if P[A[a][b]][c][d] != A[P[a][c][d]][P[b][c][d]]:
                        record("product_left_distributive", (a, b, c, d))
    for a in range(s):
        for c in range(gg):
            for b in range(s):
                for d in range(s):
                    if P[a][c][A[b][d]] != A[P[a][c][b]][P[a][c][d]]:
                        record("product_right_distributive", (a, c, b, d))
    for a in range(s):
        for c in range(gg):
            for d in range(gg):
                for b in range(s):
                    if P[a][B[c][d]][b] != A[P[a][c][b]][P[a][d][b]]:
                        record("product_gamma_distributive", (a, c, d, b))
    for a in range(s):
        for c in range(gg):
            for b in range(s):
                for d in range(gg):
                    for e in range(s):
                        if P[a][c][P[b][d][e]] != P[P[a][c][b]][d][e]:
                            record("product_associative", (a, c, b, d, e))
    for c in range(gg):
        for x in range(s):
            if P[0][c][x] != 0:
                record("zero_s_left", (c, x))
    for x in range(s):
        for c in range(gg):
            if P[x][c][0] != 0:
                record("zero_s_right", (x, c))
    for x in range(s):
        for y in range(s):
            if P[x][0][y] != 0:
                record("zero_gamma", (x, y))
    return out


def naive_semiring_violations(r) -> dict[str, tuple[int, ...]]:
    n = len(r.carrier)
    A, M = r.add, r.mul
    out: dict[str, tuple[int, ...]] = {}

    def record(axiom, witness):
        if axiom not in out:
            out[axiom] = witness

    for a in range(n):
        for b in range(n):
            if A[a][b] != A[b][a]:
                record("add_commutative", (a, b))
            for c in range(n):
                if A[A[a][b]][c] != A[a][A[b][c]]:
                    record("add_associative", (a, b, c))
                if M[M[a][b]][c] != M[a][M[b][c]]:
                    record("mul_associative", (a, b, c))
                if M[a][A[b][c]] != A[M[a][b]][M[a][c]]:
                    record("mul_left_distributive", (a, b, c))
                if M[A[a][b]][c] != A[M[a][c]][M[b][c]]:
                    record("mul_right_distributive", (a, b, c))
    for a in range(n):
        if A[0][a] != a or A[a][0] != a:
            record("add_identity", (a,))
        if M[0][a] != 0:
            record("zero_mul_left", (a,))
        if M[a][0] != 0:
            record("zero_mul_right", (a,))
    return out


# ---------------------------------------------------------------------------
# predicate oracles


def naive_is_commutative(g) -> bool:
    return all(
        g.prod[a][c][b] == g.prod[b][c][a]
        for a in range(len(g.S))
        for c in range(len(g.G))
        for b in range(len(g.S))
    )


def naive_is_zdf(g) -> bool:
    for a in range(len(g.S)):
        for c in range(len(g.G)):
            for b in range(len(g.S)):
                if g.prod[a][c][b] == 0 and a != 0 and c != 0 and b != 0:
                    return False
    return True


def naive_is_gamma_semifield(g) -> bool:
    s, gg = len(g.S), len(g.G)
    if s == 1:
        return False
    for a in range(1, s):
        for c in range(1, gg):
            if not any(
                all(g.prod[g.prod[a][c][b]][beta][d] == d for d in range(s))
                for b in range(s)
                for beta in range(gg)
            ):
                return False
    return True


# The scalar loops the library's predicates were before they became array
# tests on `tables`, the reference for their first witnesses.
# `naive_is_commutative` above is the loop `core.is_commutative` was.


def loop_zdf_witness(g):
    """First (a, gamma, b), all nonzero, with a@b == 0; None if zero-divisor free."""
    s, gg = len(g.S), len(g.G)
    for a in range(1, s):
        for c in range(1, gg):
            for b in range(1, s):
                if g.prod[a][c][b] == 0:
                    return (a, c, b)
    return None


def loop_gamma_semifield_witness(g):
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


def loop_mul_commutative(r) -> bool:
    return all(row[j] == r.mul[j][i] for i, row in enumerate(r.mul) for j in range(len(row)))


def loop_semifield_inverse_view(r):
    """Every nonzero element has a multiplicative inverse relative to the
    first two-sided identity; None when there is none or n = 1."""
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


def naive_is_semifield(r) -> bool:
    """Subset-enumeration version: no nonzero proper two-sided crisp ideal."""
    n = len(r.carrier)
    if n == 1:
        return False
    for bits in itertools.product((0, 1), repeat=n - 1):
        members = {0} | {i + 1 for i, b in enumerate(bits) if b}
        if len(members) in (1, n):
            continue
        closed = all(r.add[x][y] in members for x in members for y in members)
        absorbing = all(
            r.mul[t][x] in members and r.mul[x][t] in members
            for t in range(n)
            for x in members
        )
        if closed and absorbing:
            return False
    return True


# ---------------------------------------------------------------------------
# operator-closure oracle: actions of all formal sums up to a length bound


def naive_operator_actions(g, side: str, max_len: int | None = None) -> set[tuple[int, ...]]:
    s, gg = len(g.S), len(g.G)
    if max_len is None:
        max_len = s * gg
    if side == "left":
        singles = {
            tuple(g.prod[x][c][a] for a in range(s))
            for x in range(s)
            for c in range(gg)
        }
    else:
        singles = {
            tuple(g.prod[a][c][x] for a in range(s))
            for c in range(gg)
            for x in range(s)
        }
    seen = set(singles)
    layer = set(singles)
    for _ in range(max_len - 1):
        nxt = {
            tuple(g.addS[u][v] for u, v in zip(f, h))
            for f in layer
            for h in singles
        }
        fresh = nxt - seen
        if not fresh:
            break
        seen |= fresh
        layer = fresh
    return seen


def naive_operator_provenance(g, side: str):
    """The operator semiring as a breadth-first search over every pair.

    Layer k holds the actions first reached by a sum of k pairs; each keeps
    the smallest sorted sum that reaches it from a layer k-1 element.
    Returns (elements, add, mul, provenance): the sorted action tuples, the
    pointwise-sum and composition tables over them (left f.g: a -> f(g(a)),
    right a -> g(f(a))), and the provenance of each element."""
    s, gg = len(g.S), len(g.G)
    if side == "left":
        actions = {
            (x, c): tuple(g.prod[x][c][a] for a in range(s)) for x in range(s) for c in range(gg)
        }
    else:
        actions = {
            (c, x): tuple(g.prod[a][c][x] for a in range(s)) for c in range(gg) for x in range(s)
        }
    provenance: dict[tuple[int, ...], tuple] = {}
    for pair, values in actions.items():
        if values not in provenance:
            provenance[values] = (pair,)
    frontier = dict(provenance)
    while frontier:
        layer: dict[tuple[int, ...], tuple] = {}
        for values, terms in frontier.items():
            for pair, pair_values in actions.items():
                reached = tuple(g.addS[u][v] for u, v in zip(values, pair_values))
                if reached in provenance:
                    continue
                candidate = tuple(sorted(terms + (pair,)))
                if reached not in layer or candidate < layer[reached]:
                    layer[reached] = candidate
        provenance.update(layer)
        frontier = layer

    elements = sorted(provenance)
    index = {f: i for i, f in enumerate(elements)}
    add = tuple(
        tuple(index[tuple(g.addS[u][v] for u, v in zip(f, h))] for h in elements)
        for f in elements
    )
    if side == "left":
        mul = tuple(tuple(index[tuple(f[h[a]] for a in range(s))] for h in elements) for f in elements)
    else:
        mul = tuple(tuple(index[tuple(h[f[a]] for a in range(s))] for h in elements) for f in elements)
    return elements, add, mul, tuple(provenance[f] for f in elements)


# ---------------------------------------------------------------------------
# matrix-table oracles: the scalar sum-of-products definitions


def _tuples(radix: int, length: int) -> list[tuple[int, ...]]:
    """Every entry tuple in mixed-radix order, the first entry most significant."""
    return list(itertools.product(range(radix), repeat=length))


def _index(entries, radix: int) -> int:
    k = 0
    for e in entries:
        k = k * radix + e
    return k


def naive_matrix_gamma_tables(base, n: int):
    """(addS, addG, prod) of the n x n matrix instance over `base`: entrywise
    sums, and entry (i, j) of A D B the sum over k, then l, of a_ik d_kl b_lj."""
    s, gg = len(base.S), len(base.G)
    ss, gs = _tuples(s, n * n), _tuples(gg, n * n)

    def entrywise(add, radix, tuples):
        return tuple(
            tuple(_index([add[a][b] for a, b in zip(A, B)], radix) for B in tuples) for A in tuples
        )

    def triple(A, D, B):
        out = []
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    for l in range(n):
                        term = base.prod[A[i * n + k]][D[k * n + l]][B[l * n + j]]
                        acc = base.addS[acc][term]
                out.append(acc)
        return _index(out, s)

    prod = tuple(tuple(tuple(triple(A, D, B) for B in ss) for D in gs) for A in ss)
    return entrywise(base.addS, s, ss), entrywise(base.addG, gg, gs), prod


def naive_matrix_semiring_tables(r, n: int):
    """(add, mul) of the n x n matrices over the semiring r: entrywise sums,
    and entry (i, j) of A B the sum over t of a_it b_tj."""
    radix = len(r.carrier)
    tuples = _tuples(radix, n * n)
    add = tuple(
        tuple(_index([r.add[a][b] for a, b in zip(A, B)], radix) for B in tuples) for A in tuples
    )

    def mat_mul(A, B):
        out = []
        for i in range(n):
            for j in range(n):
                acc = 0
                for t in range(n):
                    acc = r.add[acc][r.mul[A[i * n + t]][B[t * n + j]]]
                out.append(acc)
        return _index(out, radix)

    return add, tuple(tuple(mat_mul(A, B) for B in tuples) for A in tuples)


# ---------------------------------------------------------------------------
# fuzzy-ideal oracles


def naive_is_fuzzy_ideal_gamma(g, grades, kind) -> bool:
    s, gg = len(g.S), len(g.G)
    if all(v == 0 for v in grades):
        return False
    for x in range(s):
        for y in range(s):
            if grades[g.addS[x][y]] < min(grades[x], grades[y]):
                return False
            for c in range(gg):
                v = grades[g.prod[x][c][y]]
                if kind in ("left", "two") and v < grades[y]:
                    return False
                if kind in ("right", "two") and v < grades[x]:
                    return False
    return True


def naive_is_fuzzy_ideal_semiring(r, grades, kind) -> bool:
    n = len(r.carrier)
    if all(v == 0 for v in grades):
        return False
    for x in range(n):
        for y in range(n):
            if grades[r.add[x][y]] < min(grades[x], grades[y]):
                return False
            v = grades[r.mul[x][y]]
            if kind in ("left", "two") and v < grades[y]:
                return False
            if kind in ("right", "two") and v < grades[x]:
                return False
    return True


def naive_is_crisp_ideal_gamma(g, members, kind) -> bool:
    """Contains 0, closed under addS, absorbs the ternary product per kind."""
    s, gg = len(g.S), len(g.G)
    if 0 not in members:
        return False
    for x in members:
        for y in members:
            if g.addS[x][y] not in members:
                return False
    for c in range(gg):
        for t in range(s):
            for x in members:
                if kind in ("left", "two") and g.prod[t][c][x] not in members:
                    return False
                if kind in ("right", "two") and g.prod[x][c][t] not in members:
                    return False
    return True


def naive_is_crisp_ideal_semiring(r, members, kind) -> bool:
    n = len(r.carrier)
    if 0 not in members:
        return False
    for x in members:
        for y in members:
            if r.add[x][y] not in members:
                return False
    for t in range(n):
        for x in members:
            if kind in ("left", "two") and r.mul[t][x] not in members:
                return False
            if kind in ("right", "two") and r.mul[x][t] not in members:
                return False
    return True


def naive_fuzzy_sum(mu1, mu2):
    """(mu1 (+) mu2)(x) = max over x = u + v of min(mu1(u), mu2(v)), one
    pair (u, v) at a time over the addition table."""
    from gsl.fuzzy import FuzzySubset

    if mu1.carrier != mu2.carrier:
        raise ValueError("carrier mismatch")
    c = mu1.carrier
    best = [Fraction(0)] * c.size
    for u in range(c.size):
        gu, row = mu1.grades[u], c.add[u]
        for v in range(c.size):
            m = min(gu, mu2.grades[v])
            if m > best[row[v]]:
                best[row[v]] = m
    return FuzzySubset(c, tuple(best))


def naive_matrix_lift(mg, mu):
    """th3.19's lift of mu over the base to the matrix instance: each matrix
    gets the least grade of its n^2 entries, decoded one digit at a time."""
    from gsl.fuzzy import FuzzySubset, carrier_of

    radix, nn = len(mg.base.S), mg.n * mg.n
    grades = []
    for k in range(len(mg.gamma.S)):
        entries = [k // radix ** (nn - 1 - p) % radix for p in range(nn)]
        grades.append(min(mu.grades[e] for e in entries))
    return FuzzySubset(carrier_of(mg.gamma), tuple(grades))


def brute_fuzzy_ideal_grades(structure, chain_grades, kind, is_gamma: bool) -> list[tuple]:
    """Exhaustive filter over all grade tuples with grade(0) = 1."""
    if is_gamma:
        n = len(structure.S)
        pred = naive_is_fuzzy_ideal_gamma
    else:
        n = len(structure.carrier)
        pred = naive_is_fuzzy_ideal_semiring
    out = []
    for tail in itertools.product(sorted(chain_grades), repeat=n - 1):
        grades = (Fraction(1),) + tail
        if pred(structure, grades, kind):
            out.append(grades)
    return out


def naive_absorption_images(structure, kind) -> list[int]:
    """Per element x, the bitmask of every product an ideal of the kind
    containing x must contain: left x@y (or xy) for every x puts the product
    in y's mask, right in x's, two in both."""
    if hasattr(structure, "prod"):
        n = len(structure.S)
        products = [
            (structure.prod[x][c][y], x, y) for x in range(n) for c in range(len(structure.G)) for y in range(n)
        ]
    else:
        n = len(structure.carrier)
        products = [(structure.mul[x][y], x, y) for x in range(n) for y in range(n)]
    image = [0] * n
    for r, x, y in products:
        if kind in ("left", "two"):
            image[y] |= 1 << r
        if kind in ("right", "two"):
            image[x] |= 1 << r
    return image


def naive_crisp_ideals_gamma(g, kind) -> list[frozenset[int]]:
    """Every subset containing 0 that the loop predicate accepts, in
    ascending order of the indicator tuple of positions 1..n-1."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(g.S) - 1):
        members = frozenset({0} | {i + 1 for i, b in enumerate(bits) if b})
        if naive_is_crisp_ideal_gamma(g, members, kind):
            out.append(members)
    return out


def brute_crisp_ideals_semiring(r, kind) -> list[frozenset[int]]:
    """Every subset containing 0 that the loop predicate accepts, in
    ascending order of the indicator tuple of positions 1..n-1."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(r.carrier) - 1):
        members = frozenset({0} | {i + 1 for i, b in enumerate(bits) if b})
        if naive_is_crisp_ideal_semiring(r, members, kind):
            out.append(members)
    return out


def count_multichains(ideals, length: int) -> int:
    """Number of descending multichains I_1 >= ... >= I_length in the family
    (the zeta polynomial of the inclusion order, evaluated at length + 1)."""
    ending_at = {i: 1 for i in ideals}
    for _ in range(length - 1):
        ending_at = {i: sum(c for j, c in ending_at.items() if i <= j) for i in ideals}
    return sum(ending_at.values())


# ---------------------------------------------------------------------------
# grades to cuts: a fuzzy subset's level cuts on a view's chain, and the
# transfer maps on crisp masks as the maps on bit rows the suites call


def cuts_of(view, mu):
    """The cuts of mu on a `LevelCuts` view's chain, read off its grades.
    Raises ValueError for a grade off the chain."""
    from gsl.fuzzy import format_grade

    if mu.carrier != view.carrier:
        raise ValueError(f"fuzzy subset does not live on {view.carrier.label}")
    rank = {(g.numerator, g.denominator): r for r, g in enumerate(view.chain.grades)}
    at_rank = [0] * len(view.chain)  # at_rank[r]: the elements of grade c_r
    try:
        for x, g in enumerate(mu.grades):
            at_rank[rank[g.numerator, g.denominator]] |= 1 << x
    except KeyError as off:
        raise ValueError(
            f"grade {format_grade(Fraction(*off.args[0]))} is not on the chain {view.chain}"
        ) from None
    cuts, cut = [], 0
    for r in range(len(at_rank) - 1, 0, -1):
        cut |= at_rank[r]
        cuts.append(cut)
    return tuple(cuts[::-1])


def _carriers(over, direction):
    """The carriers a transfer map in this direction maps from and to, for
    what it maps over (an operator semiring or a matrix instance)."""
    from gsl.fuzzy import carrier_of

    base, side = carrier_of(over.base), carrier_of(over)
    return (base, side) if direction == "lift" else (side, base)


def _chain_ranks(chain, grades) -> list[int]:
    """Each grade's place on the chain.  Raises ValueError for a grade off
    the chain."""
    from gsl.fuzzy import format_grade

    place = {g: r for r, g in enumerate(chain.grades)}
    for g in grades:
        if g not in place:
            raise ValueError(f"grade {format_grade(g)} is not on the chain {chain}")
    return [place[g] for g in grades]


def _mask_of(bits) -> int:
    """The mask of a row of 0/1 bits, element x in column x."""
    return sum(1 << x for x, bit in enumerate(bits) if bit)


def bits_map(direction, per_mask):
    """A map on masks, per_mask(over, mask) -> mask, as a map on the (D, n)
    0/1 bits of D masks, the form `verify._MAPS` holds."""

    def apply(over, bits):
        _, target = _carriers(over, direction)
        images = [per_mask(over, _mask_of(row)) for row in bits.tolist()]
        return np.array([[image >> y & 1 for y in range(target.size)] for image in images],
                        dtype=np.uint8).reshape(len(images), target.size)

    return apply


def install_map(monkeypatch, side, direction, per_mask):
    """Make per_mask(over, mask), a map on crisp masks, the transfer map the
    suites call for (side, direction) (`verify._MAPS`)."""
    from gsl import verify

    monkeypatch.setitem(verify._MAPS, (side, direction), bits_map(direction, per_mask))


def mask_map(direction, over, crisp_map):
    """A map on bits (`verify._MAPS`) as a map on one mask: the inverse of
    `bits_map`."""
    source, _ = _carriers(over, direction)

    def apply(mask):
        bits = np.array([[mask >> x & 1 for x in range(source.size)]], dtype=np.uint8)
        return _mask_of(crisp_map(over, bits)[0].tolist())

    return apply


def subset_map(chain, direction, over, crisp_map):
    """A map on crisp masks (`verify._MAPS`) as a map on one fuzzy subset
    over the chain, cut by cut: cut k of the image is the map of cut k of
    mu, and y gets the grade c_r, r the number of image cuts that hold it.
    Raises ValueError when the image cuts do not descend, so that they are
    no fuzzy subset's."""
    from gsl.fuzzy import FuzzySubset

    _, target = _carriers(over, direction)
    on_mask = mask_map(direction, over, crisp_map)

    def apply(mu):
        ranks = _chain_ranks(chain, mu.grades)
        cuts = [on_mask(_mask_of([r >= k for r in ranks])) for k in range(1, len(chain))]
        if any(lower & ~upper for upper, lower in zip(cuts, cuts[1:])):
            raise ValueError("the image cuts do not descend")
        return FuzzySubset(target, tuple(chain.grades[sum(cut >> y & 1 for cut in cuts)] for y in range(target.size)))

    return apply


# ---------------------------------------------------------------------------
# cut tuples: a fuzzy subset as the tuple of its level-cut masks, the form
# the suites held fuzzy families in before a family became one id array


def family(view, members) -> np.ndarray:
    """The (N, m-1) id array of cut tuples on a `LevelCuts` view, each
    distinct mask interned in order of first appearance."""
    masks = [mask for cuts in members for mask in cuts]
    return view.mask_ids(masks).reshape(len(members), len(view.chain) - 1)


def members(view, family) -> list[tuple[int, ...]]:
    """The cut tuples of the rows of an id array, read off the view's
    interned masks."""
    return list(map(tuple, np.array(view._masks, dtype=object)[family].tolist()))


def tuple_fuzzy_ideals(view, kind: str = "two") -> list[tuple[int, ...]]:
    """`LevelCuts.fuzzy_ideals` as cut tuples, the way it once listed them:
    every descending multichain of the view's crisp ideals, one cut at a
    time, sorted by a Python key per multichain, its rank tuple (a sum of
    indicator tuples)."""
    n, ideals = view.carrier.size, view.crisp_ideals(kind)
    cuts = [(i,) for i in ideals]
    for _ in range(len(view.chain) - 2):
        cuts = [c + (j,) for c in cuts for j in ideals if not j & ~c[-1]]
    indicator = {i: tuple(i >> x & 1 for x in range(n)) for i in ideals}
    return sorted(cuts, key=lambda cut: tuple(map(sum, zip(*map(indicator.__getitem__, cut)))))


def is_ideal(view, cuts, kind: str = "two") -> bool:
    """Whether the subset with these cuts is a fuzzy ideal, one cut at a
    time: the first cut is non-empty and every non-empty cut is a crisp
    ideal (`naive_is_crisp_ideal_*`, plain loops over the tables)."""
    from gsl import core

    gamma = isinstance(view.structure, core.GammaSemiring)
    crisp = naive_is_crisp_ideal_gamma if gamma else naive_is_crisp_ideal_semiring
    return cuts[0] != 0 and all(
        not cut or crisp(view.structure, {x for x in range(cut.bit_length()) if cut >> x & 1}, kind)
        for cut in cuts
    )


def is_constant(view, cuts) -> bool:
    """Whether the subset with these cuts is constant: every cut is empty or
    full."""
    return all(cut in (0, view.full) for cut in cuts)


# ---------------------------------------------------------------------------
# fuzzy families as `FuzzySubset`s, and the semifield condition on grades


def fuzzy_family(ws, side: str, kind: str = "two") -> list:
    """The fuzzy ideals of a workspace's family as `FuzzySubset`s, in the
    order of `ws.fuzzy_family(side, kind)`, from the public enumerator on a
    level-cut view of its own."""
    from gsl.fuzzy import enumerate_fuzzy_ideals

    return enumerate_fuzzy_ideals(ws.structure_on(side), ws.config.chain, kind)


def fraction_semifield_condition(ideals):
    """`verify._fuzzy_semifield_condition` on `FuzzySubset` grades: every
    non-constant member is constant on the nonzero elements, with a value
    below its value at 0.  Returns (holds, first violator)."""
    for mu in ideals:
        nonzero = mu.grades[1:]
        if not mu.is_constant() and (min(nonzero) != max(nonzero) or nonzero[0] >= mu.grades[0]):
            return False, mu
    return True, None


# ---------------------------------------------------------------------------
# pair-scan oracles: prop3.4's and th3.8's pair checks one pair at a time,
# in row-major order, with the `Fraction` lattice operations


def _first_pair(n: int, failed):
    """The first (i, j, failed(i, j)) with a truthy failed(i, j), row-major."""
    for i in range(n):
        for j in range(n):
            found = failed(i, j)
            if found:
                return i, j, found
    return None


def _meet(a, b):
    from gsl.fuzzy import fuzzy_intersection

    return fuzzy_intersection([a, b])


def naive_pair_clause_rows(ideals_s, ideals_op, lift, restrict) -> list[tuple]:
    """prop3.4's pair clauses iv, v, vi and ix, as the (clause, status,
    witness, checked) rows `verify._clause_rows` gives for them."""
    lifted = [lift(s) for s in ideals_s]
    restricted = [restrict(m) for m in ideals_op]
    s, op = ideals_s, ideals_op
    clauses = (
        ("iv", s, "sigma", lambda i, j: lift(naive_fuzzy_sum(s[i], s[j])) != naive_fuzzy_sum(lifted[i], lifted[j])),
        ("v", s, "sigma", lambda i, j: lift(_meet(s[i], s[j])) != _meet(lifted[i], lifted[j])),
        ("vi", s, "sigma", lambda i, j: s[i] <= s[j] and not lifted[i] <= lifted[j]),
        ("ix", op, "mu", lambda i, j: op[i] <= op[j] and not restricted[i] <= restricted[j]),
    )
    rows = []
    for cid, ideals, label, failed in clauses:
        pair = _first_pair(len(ideals), failed)
        checked = len(ideals) ** 2
        if pair is None:
            rows.append((cid, "pass", None, checked))
            continue
        i, j, _ = pair
        witness = {"clause": cid, label + "1": ideals[i].to_mapping(), label + "2": ideals[j].to_mapping()}
        rows.append((cid, "fail", witness, checked))
    return rows


def naive_theorem_3_8_pairs(ideals, lift):
    """th3.8's counterexample once its lift is a bijection onto the ideals of
    L: the first pair, row-major, failing inclusion-both-ways,
    sum-homomorphism or intersection-homomorphism (the first of these it
    fails), else lattice-closure when the ideals are not closed under sum
    and intersection or lack the top or bottom, else None."""
    from gsl.fuzzy import CrispSubset, FuzzySubset, characteristic

    lifted = [lift(s) for s in ideals]

    def failed(i, j):
        a, b, la, lb = ideals[i], ideals[j], lifted[i], lifted[j]
        if (a <= b) != (la <= lb):
            return "inclusion-both-ways"
        if lift(naive_fuzzy_sum(a, b)) != naive_fuzzy_sum(la, lb):
            return "sum-homomorphism"
        if lift(_meet(a, b)) != _meet(la, lb):
            return "intersection-homomorphism"
        return None

    pair = _first_pair(len(ideals), failed)
    if pair is not None:
        i, j, check = pair
        return {"check": check, "sigma1": ideals[i].to_mapping(), "sigma2": ideals[j].to_mapping()}
    family = set(ideals)
    carrier = ideals[0].carrier
    closed = all(naive_fuzzy_sum(a, b) in family and _meet(a, b) in family for a in ideals for b in ideals)
    top = FuzzySubset.constant(carrier, 1)
    bottom = characteristic(CrispSubset.of_indices(carrier, [0]))
    if not (closed and top in family and bottom in family):
        return {"check": "lattice-closure"}
    return None


# ---------------------------------------------------------------------------
# pair-table oracles: prop3.4's and th3.8's pair checks read off N x N family
# tables all at once, on level cuts of their own (the suites decide on crisp
# cuts and scan row blocks only for witnesses)


def _map_on_cuts(f, source, target):
    """f on cut tuples, called once per distinct operand."""
    memo = {}

    def apply(cuts):
        if cuts not in memo:
            memo[cuts] = cuts_of(target, f(source.subset(family(source, [cuts])[0])))
        return memo[cuts]

    return apply


def _table_images(apply, source, target, table):
    """The target ids of the image of each cell of an (N, M, m-1) id table."""
    rows = table.reshape(-1, table.shape[-1])
    first, inverse = source.distinct_rows(rows)
    images = family(target, [apply(cuts) for cuts in members(source, rows[first])])
    return images[inverse].reshape(table.shape)


def _first_true(table):
    hits = np.argwhere(table)
    return tuple(hits[0].tolist()) if len(hits) else None


def table_pair_clause_rows(ws, side, lift, restrict) -> list[tuple]:
    """prop3.4's pair clauses iv, v, vi and ix as the (clause, status,
    witness, checked) rows `verify._clause_rows` gives for them, each read
    off one N x N table of every pair of the workspace's ideals."""
    from gsl.fuzzy import LevelCuts

    chain = ws.config.chain
    on_s, on_op = LevelCuts(ws.structure, chain), LevelCuts(ws.structure_on(side), chain)
    ideals_s, ideals_op = fuzzy_family(ws, "S"), fuzzy_family(ws, side)
    cuts_s, cuts_op = [cuts_of(on_s, s) for s in ideals_s], [cuts_of(on_op, m) for m in ideals_op]
    lift_cuts, restrict_cuts = _map_on_cuts(lift, on_s, on_op), _map_on_cuts(restrict, on_op, on_s)
    fs, fo = family(on_s, cuts_s), family(on_op, cuts_op)
    fl = family(on_op, [lift_cuts(c) for c in cuts_s])
    fr = family(on_s, [restrict_cuts(c) for c in cuts_op])

    def apart(table):
        images = _table_images(lift_cuts, on_s, on_op, getattr(on_s, table)(fs, fs))
        return (images != getattr(on_op, table)(fl, fl)).any(axis=2)

    clauses = (
        ("iv", ideals_s, "sigma", apart("sum_table")),
        ("v", ideals_s, "sigma", apart("meet_table")),
        ("vi", ideals_s, "sigma", on_s.le_table(fs, fs) & ~on_op.le_table(fl, fl)),
        ("ix", ideals_op, "mu", on_op.le_table(fo, fo) & ~on_s.le_table(fr, fr)),
    )
    rows = []
    for cid, ideals, label, failing in clauses:
        pair, checked = _first_true(failing), len(ideals) ** 2
        if pair is None:
            rows.append((cid, "pass", None, checked))
            continue
        i, j = pair
        witness = {"clause": cid, label + "1": ideals[i].to_mapping(), label + "2": ideals[j].to_mapping()}
        rows.append((cid, "fail", witness, checked))
    return rows


def table_theorem_3_8_pairs(ws, kind, lift):
    """`naive_theorem_3_8_pairs` for the workspace's ideals of the kind,
    read off N x N tables of every pair at once."""
    from gsl.fuzzy import CrispSubset, FuzzySubset, LevelCuts, carrier_of, characteristic

    chain = ws.config.chain
    on_s, on_l = LevelCuts(ws.structure, chain), LevelCuts(ws.structure_on("L"), chain)
    ideals = fuzzy_family(ws, "S", kind)
    cuts = [cuts_of(on_s, s) for s in ideals]
    lift_cuts = _map_on_cuts(lift, on_s, on_l)
    fa, fl = family(on_s, cuts), family(on_l, [lift_cuts(c) for c in cuts])
    sums, meets = on_s.sum_table(fa, fa), on_s.meet_table(fa, fa)
    checks = {
        "inclusion-both-ways": on_s.le_table(fa, fa) != on_l.le_table(fl, fl),
        "sum-homomorphism":
            (_table_images(lift_cuts, on_s, on_l, sums) != on_l.sum_table(fl, fl)).any(axis=2),
        "intersection-homomorphism":
            (_table_images(lift_cuts, on_s, on_l, meets) != on_l.meet_table(fl, fl)).any(axis=2),
    }
    pair = _first_true(np.logical_or.reduce(list(checks.values())))
    if pair is not None:
        failed = next(name for name, failing in checks.items() if failing[pair])
        return {"check": failed, "sigma1": ideals[pair[0]].to_mapping(), "sigma2": ideals[pair[1]].to_mapping()}
    known = set(cuts)
    both = np.concatenate([sums, meets]).reshape(-1, sums.shape[-1])
    closed = all(c in known for c in members(on_s, both))
    carrier = carrier_of(ws.structure)
    top = cuts_of(on_s, FuzzySubset.constant(carrier, 1))
    bottom = cuts_of(on_s, characteristic(CrispSubset.of_indices(carrier, [0])))
    if not (closed and top in known and bottom in known):
        return {"check": "lattice-closure"}
    return None


# ---------------------------------------------------------------------------
# transfer-map oracles: each min by sort position over all the operand's
# elements, as the maps took them before they worked on ranks


def _sort_positions(grades) -> tuple[list[int], list[int]]:
    """(order, position): the indices sorted by grade, and each index's place
    in that order."""
    order = sorted(range(len(grades)), key=grades.__getitem__)
    position = [0] * len(order)
    for p, x in enumerate(order):
        position[x] = p
    return order, position


def sort_position_restrict(op, mu):
    """mu over the operator semiring down to its base: x -> the least grade
    over the pair classes of x."""
    from gsl.fuzzy import FuzzySubset, carrier_of

    order, position = _sort_positions(mu.grades)
    grades = tuple(mu.grades[order[min(map(position.__getitem__, row))]] for row in op.pair_rows.tolist())
    return FuzzySubset(carrier_of(op.base), grades)


def sort_position_lift(op, sigma):
    """sigma over the base up to the operator semiring: f -> the least grade
    over the image of f."""
    from gsl.fuzzy import FuzzySubset, carrier_of

    order, position = _sort_positions(sigma.grades)
    grades = tuple(
        sigma.grades[order[min(map(position.__getitem__, values))]] for values in op.value_rows.tolist()
    )
    return FuzzySubset(carrier_of(op), grades)


# ---------------------------------------------------------------------------
# crisp-correspondence oracles: frozenset versions, re-closing each image
# under addition on every call


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


def set_pair_fixed_set(op, subset):
    """For P inside the operator semiring: the a in S whose every pair class
    lies in P (P+ on the left, P* on the right: `pair_fixed`)."""
    from gsl.fuzzy import CrispSubset, carrier_of

    s, gg = len(op.base.S), len(op.base.G)
    members = frozenset(
        a for a in range(s) if all(int(op.pair_rows[a, c]) in subset.members for c in range(gg))
    )
    return CrispSubset(carrier_of(op.base), members)


def set_image_contained_set(op, subset):
    """For Q inside S: the elements whose image, closed under addition, lies
    in Q (Q+' on the left, Q*' on the right: `image_contained`).
    Raises RuntimeError where Q is additively closed and the closed and the
    plain image disagree."""
    from gsl.fuzzy import CrispSubset, carrier_of

    addS = op.base.addS
    q = subset.members
    q_closed = all(addS[x][y] in q for x in q for y in q)
    members = set()
    for i, values in enumerate(op.value_rows.tolist()):
        image = set(values)
        inside = _additive_closure(addS, image) <= q
        if q_closed and inside != (image <= q):
            raise RuntimeError(f"element {i}: image readings disagree on a closed target")
        if inside:
            members.add(i)
    return CrispSubset(carrier_of(op), frozenset(members))


# ---------------------------------------------------------------------------
# earlier array paths: the distributive masks as gathers with two broadcast
# index arrays, the bitmask closure that scans all n positions for every
# element it adds, matrix-iso's one-pair-at-a-time scan, the operator
# closure that looks up every cell in a dict and re-checks its result
# densely, and the matrix products as one gather per entry and term


def broadcast_distributive_masks(structure) -> dict[str, np.ndarray]:
    """The distributive-law masks of a gamma-semiring or a semiring, each
    sum of two products gathered as A[X, Y] from the structure's tables."""
    from gsl import core

    if isinstance(structure, core.GammaSemiring):
        A, B, P = structure.tables
        return {
            "product_left_distributive": P[A] != A[P[:, None, :, :], P[None, :, :, :]],
            "product_right_distributive": P[:, :, A] != A[P[:, :, :, None], P[:, :, None, :]],
            "product_gamma_distributive": P[:, B, :] != A[P[:, :, None, :], P[:, None, :, :]],
        }
    A, M = structure.tables
    return {
        "mul_left_distributive": M[:, A] != A[M[:, :, None], M[:, None, :]],
        "mul_right_distributive": M[A] != A[M[:, None, :], M[None, :, :]],
    }


def scan_close(add, image, ideal: int, x: int) -> int:
    """`core.close` as it scanned every carrier position for the members of
    the ideal each time it added an element."""
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


def first_failing_pair(n: int, check):
    """The first truthy check(i, j) over the pairs of range(n) x range(n),
    in row-major order; None when every pair passes."""
    return next(filter(None, itertools.starmap(check, itertools.product(range(n), repeat=2))), None)


def _byte_keys(rows: np.ndarray) -> list[bytes]:
    data, width = np.ascontiguousarray(rows).tobytes(), rows.shape[1] * rows.itemsize
    return [data[i : i + width] for i in range(0, len(data), width)]


def per_cell_operator_semiring(g, side: str):
    """`operators.build_operator_semiring` as it saturated one dict lookup a
    cell and re-checked the result with the dense `core.validate_semiring`
    (E^3 cells a mask).  Returns (elements, add, mul, provenance,
    pair_index): the sorted value rows as an array, the tables and the
    provenance as nested tuples, pair_index as [x][gamma] on either side."""
    from gsl import core

    s, gg = len(g.S), len(g.G)
    addS, _, prod = g.tables
    if side == "left":
        pair_rows, width = prod.reshape(s * gg, s), gg
    else:
        pair_rows, width = prod.transpose(1, 2, 0).reshape(gg * s, s), s
    pair_keys = _byte_keys(pair_rows)
    first: dict[bytes, int] = {}
    for p, key in enumerate(pair_keys):
        first.setdefault(key, p)
    generators = pair_rows[list(first.values())]
    gen_pairs = [divmod(p, width) for p in first.values()]
    known = {key: (pair,) for key, pair in zip(first, gen_pairs)}
    layers, frontier, frontier_prov = [generators], generators, list(known.values())
    while True:
        sums = addS[frontier[:, None, :], generators[None, :, :]].reshape(-1, s)
        layer: dict = {}
        for cell, key in enumerate(_byte_keys(sums)):
            if key in known:
                continue
            f, k = divmod(cell, len(generators))
            nprov = tuple(sorted(frontier_prov[f] + (gen_pairs[k],)))
            cur = layer.get(key)
            if cur is None or nprov < cur[0]:
                layer[key] = (nprov, cell)
        if not layer:
            break
        known.update((key, prov) for key, (prov, _) in layer.items())
        frontier = sums[[cell for _, cell in layer.values()]]
        frontier_prov = [prov for prov, _ in layer.values()]
        layers.append(frontier)

    found = np.concatenate(layers)
    elements = found[np.lexsort(found.T[::-1])]
    keys = _byte_keys(elements)
    index = {key: i for i, key in enumerate(keys)}
    n = len(elements)
    sums = addS[elements[:, None, :], elements[None, :, :]]
    if side == "left":
        composed = elements[np.arange(n)[:, None, None], elements[None, :, :]]
    else:
        composed = elements[np.arange(n)[None, :, None], elements[:, None, :]]
    add = np.reshape([index[key] for key in _byte_keys(sums.reshape(-1, s))], (n, n))
    mul = np.reshape([index[key] for key in _byte_keys(composed.reshape(-1, s))], (n, n))
    semiring = core.Semiring("reference", tuple(f"f{i}" for i in range(n)), add, mul)
    outcome = core.validate_semiring(semiring)
    if not outcome.ok:
        raise AssertionError(f"operator semiring failed validation: {outcome.violations[0]}")
    pair_idx = np.reshape([index[key] for key in pair_keys], (-1, width))
    pair_index = tuple(map(tuple, (pair_idx if side == "left" else pair_idx.T).tolist()))
    return elements, semiring.add, semiring.mul, tuple(known[key] for key in keys), pair_index


def loop_matrix_gamma_product(base, n: int) -> np.ndarray:
    """The product table of the n x n matrix instance over `base` as it was
    built: one gather per entry (i, j) and term (k, l), n^4 in all."""
    s, gg = len(base.S), len(base.G)
    add_s, _, p = base.tables
    es, eg = _entry_array(s, n), _entry_array(gg, n)
    a_col, d_col, b_col = es[:, None, None, :], eg[None, :, None, :], es[None, None, :, :]
    prod = np.zeros((len(es), len(eg), len(es)), dtype=np.intp)
    for i, j in itertools.product(range(n), repeat=2):
        acc = np.zeros_like(prod)
        for k, l in itertools.product(range(n), repeat=2):
            acc = add_s[acc, p[a_col[..., i * n + k], d_col[..., k * n + l], b_col[..., l * n + j]]]
        prod = prod * s + acc
    return prod


def loop_matrix_semiring_mul(r, n: int) -> np.ndarray:
    """The multiplication table of the n x n matrices over the semiring r,
    one gather per entry and term."""
    radix = len(r.carrier)
    add, m = r.tables
    entries = _entry_array(radix, n)
    a_col, b_col = entries[:, None, :], entries[None, :, :]
    mul = np.zeros((len(entries), len(entries)), dtype=np.intp)
    for i, j in itertools.product(range(n), repeat=2):
        acc = np.zeros_like(mul)
        for t in range(n):
            acc = add[acc, m[a_col[..., i * n + t], b_col[..., t * n + j]]]
        mul = mul * radix + acc
    return mul


def loop_generator_images(mg, op_base, side: str) -> np.ndarray:
    """`matrix._generator_images` as one gather per entry and term."""
    n = mg.n
    pair, add = op_base.pair_rows, op_base.semiring.tables[0]
    xs, ds = mg.s_entries[:, None, :], mg.g_entries[None, :, :]
    entries = []
    for r, c in itertools.product(range(n), repeat=2):
        acc = 0
        for t in range(n):
            if side == "left":
                acc = add[acc, pair[xs[..., r * n + t], ds[..., t * n + c]]]
            else:
                acc = add[acc, pair[xs[..., t * n + c], ds[..., r * n + t]]]
        entries.append(acc)
    return np.stack(entries, axis=-1)


def loop_matrix_actions(mg, op_base, images: np.ndarray, side: str) -> np.ndarray:
    """`matrix._matrix_actions` as one gather per entry and term."""
    n, radix = mg.n, len(mg.base.S)
    values, add = op_base.value_rows, mg.base.tables[0]
    fs, args = images[:, None, :], mg.s_entries[None, :, :]
    code = np.zeros((len(images), len(mg.s_entries)), dtype=np.intp)
    for i, j in itertools.product(range(n), repeat=2):
        acc = 0
        for k in range(n):
            if side == "left":
                acc = add[acc, values[fs[..., i * n + k], args[..., k * n + j]]]
            else:
                acc = add[acc, values[fs[..., k * n + j], args[..., i * n + k]]]
        code = code * radix + acc
    return code


def _entry_array(radix: int, n: int) -> np.ndarray:
    """Row k holds the n^2 entries of matrix k, the first most significant."""
    return np.array(_tuples(radix, n * n), dtype=np.intp).reshape(-1, n * n)
