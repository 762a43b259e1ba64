"""Matrix gamma-semirings, the operator-matrix isomorphisms, and th3.19's lift.

For a base gamma-semiring with carriers S and G, the n x n matrix instance
has carrier all n^2-tuples over S (row-major, ids m0, m1, ... in mixed-radix
order, so the zero matrix is m0), parameter carrier all n^2-tuples over G,
entrywise additions, and product A D B with entry (i,j) the double sum of
a_ik d_kl b_lj.

The operator semiring of the matrix instance is isomorphic to the matrix
semiring over the base's operator semiring; `check_operator_matrix_iso`
builds the canonical generator mapping (left generator (X, D) goes to the
matrix whose (u,k) entry is the sum over t of the pair class [x_ut, g_tk],
dually on the right) and verifies it is a semiring isomorphism.

The tables are numpy lookups into the base's `tables`: every matrix
carrier element is decoded once into its entries (an array kept on the
instance), and every matrix product, of the instance, of `matrix_semiring`
and of matrix-iso, is one table over every pair (or triple) of matrices
(`_products`) that sums each entry in the (k, l) order of the scalar
definition, so the tables equal it cell for cell; they reach the
constructors as arrays.  `core.validate_gamma_semiring` checks a large
instance on greedy additive generators (on `boolean[2x2]` the zero matrix
and the four single-entry matrices: 20,480 cells a distributive law, not
65,536, and 3,125 for associativity, not 1,048,576); the 16-element matrix
semirings are validated densely, which is faster at that size.
matrix-iso reads the base operator semiring and the matrix semiring over
it from the workspace (`Workspace.matrix_semiring`), L's for both checks
on a commutative base, where R is L.  It compares the images of every sum
and product with one table comparison, computes the images of all |S||G|
generators as one table, reads the action of each distinct image off the
table of every operator matrix times every carrier matrix
(`_matrix_actions`), and reads each first failing cell in row-major order.
th3.19 lifts the workspace's fuzzy ideals of the base cut by cut, through
the workspace's "M" lift (the mins of `transfer.min_ranks` over the
entries, on the bits of each mask), and tests the lifts for ideals as one
array operation on the id arrays of the workspace's level-cut view of the
matrix instance, which also enumerates the matrix-side ideals;
injectivity and inclusions are decided on the crisp ideals of the base,
and surjectivity by counting the matrix ideals, as th3.8 decides them
(`Workspace.pairs`, `verify._failing_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import core
from .operators import OperatorSemiring, build_operator_semiring
from .report import VerificationReport, chain_scope_note

if TYPE_CHECKING:  # the suites below take the run's Workspace, which builds on this module
    from .verify import Workspace

__all__ = [
    "MatrixCapExceeded",
    "MatrixGammaSemiring",
    "build_matrix_gamma",
    "matrix_semiring",
    "check_operator_matrix_iso",
    "verify_theorem_3_19",
]


class MatrixCapExceeded(core.CapExceeded):
    """The matrix carrier would exceed the configured size cap."""


def _encode(entries, radix: int) -> int:
    k = 0
    for e in entries:
        k = k * radix + e
    return k


def _weights(radix: int, length: int) -> np.ndarray:
    """Place values of the entries, the first entry the most significant."""
    return radix ** np.arange(length - 1, -1, -1, dtype=np.intp)


def _entries(size: int, radix: int, length: int) -> np.ndarray:
    """Row k is the entry tuple of element k."""
    return np.arange(size, dtype=np.intp)[:, None] // _weights(radix, length) % radix


def _entrywise(add: np.ndarray, entries: np.ndarray, radix: int) -> np.ndarray:
    """The encoded entrywise-sum table of the elements with these entries."""
    sums = add[entries[:, None, :], entries[None, :, :]]
    return sums @ _weights(radix, entries.shape[1])


def _products(add: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """The codes (radix len(add)) of every product F1 ... Fm of n x n
    matrices whose entries index the axes of `table`, one axis a factor in
    code order: entry (i, j) sums `table[f1, ..., fm]` over (k1, ...,
    k(m-1)), folded from 0 with `add` in lexicographic order as the scalar
    definition does.  It depends only on row i of F1, the middle factors and
    column j of Fm, so the fold runs once on every such combination (by
    mixed-radix code, r1^n r2^(n^2) ... rm^n cells for `table.shape` r).
    F1's code is its n row codes and Fm's its n^2 entries, so on axes split
    that way entry (i, j) is the fold itself, broadcast, and the product
    codes are the n^2 entries added at their place values."""
    m, nn = table.ndim, n * n
    every = [  # every row, middle matrix and column, each factor on its own axis
        _entries(r**k, r, k).reshape(*[1] * f, -1, *[1] * (m - 1 - f), k)
        for f, (r, k) in enumerate(zip(table.shape, (n, *[nn] * (m - 2), n)))
    ]
    folded = add.dtype.type(0)
    for ks in product(range(n), repeat=m - 1):
        columns = (ks[0], *(a * n + b for a, b in zip(ks, ks[1:])), ks[-1])
        folded = add[folded, table[tuple(e[..., c] for e, c in zip(every, columns))]]
    # axes: row 0 .. row n-1 of F1, the middle factors, entries (0, 0) .. (n-1, n-1) of Fm
    middle, last = folded.shape[1:-1], table.shape[-1]
    folded = folded.astype(np.intp).reshape(-1, *middle, *[last] * n)
    codes = np.zeros((*[len(folded)] * n, *middle, *[last] * nn), dtype=np.intp)
    for i, j in product(range(n), repeat=2):
        entry = folded * len(add) ** (nn - 1 - (i * n + j))
        column = [last if p % n == j else 1 for p in range(nn)]
        codes += entry.reshape(*[1] * i, -1, *[1] * (n - 1 - i), *middle, *column)
    return codes.reshape(table.shape[0] ** nn, *middle, last**nn)


@dataclass(frozen=True)
class MatrixGammaSemiring:
    """The realized matrix instance and its elements' entries.

    Row k of `s_entries` and of `g_entries` (read-only (size, n^2) arrays)
    holds the decoded entries of element k of S and of G, computed once
    when the instance is built."""

    base: core.GammaSemiring
    n: int
    gamma: core.GammaSemiring
    s_entries: np.ndarray = field(repr=False, compare=False)
    g_entries: np.ndarray = field(repr=False, compare=False)


def build_matrix_gamma(base: core.GammaSemiring, n: int, cap: int = 16) -> MatrixGammaSemiring:
    """Materialize the n x n matrix instance and validate it.

    Raises MatrixCapExceeded when either matrix carrier would exceed `cap`;
    its text and counts name the size of the larger carrier.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s, gg = len(base.S), len(base.G)
    size_s = s ** (n * n)
    size_g = gg ** (n * n)
    largest = max(size_s, size_g)
    if largest > cap:
        raise MatrixCapExceeded(
            f"matrix carrier would have {largest} elements, cap is {cap}", matrix_carrier=largest
        )

    nn = n * n
    add_s, add_g, p = base.tables
    es, eg = _entries(size_s, s, nn), _entries(size_g, gg, nn)
    # axes (A, D, B): entry (i, j) of A D B is the sum over k, l of a_ik d_kl b_lj
    prod = _products(add_s, p, n)

    gamma = core.GammaSemiring(
        f"{base.name}[{n}x{n}]",
        tuple(f"m{k}" for k in range(size_s)),
        tuple(f"m{k}" for k in range(size_g)),
        _entrywise(add_s, es, s),
        _entrywise(add_g, eg, gg),
        prod,
    )
    outcome = core.validate_gamma_semiring(gamma)
    if not outcome.ok:
        raise AssertionError(f"matrix instance failed validation: {outcome.violations[0]}")
    es.setflags(write=False)
    eg.setflags(write=False)
    return MatrixGammaSemiring(base, n, gamma, es, eg)


def matrix_semiring(r: core.Semiring, n: int, name: Optional[str] = None) -> core.Semiring:
    """n x n matrices over a semiring, with the usual sum-of-products multiplication."""
    radix = len(r.carrier)
    size = radix ** (n * n)
    add, m = r.tables
    entries = _entries(size, radix, n * n)
    sr = core.Semiring(
        name or f"{r.name}[{n}x{n}]",
        tuple(f"m{k}" for k in range(size)),
        _entrywise(add, entries, radix),
        _products(add, m, n),
    )
    outcome = core.validate_semiring(sr)
    if not outcome.ok:
        raise AssertionError(f"matrix semiring failed validation: {outcome.violations[0]}")
    return sr


# ---------------------------------------------------------------------------
# verification suites


def _generator_images(mg: MatrixGammaSemiring, op_base: OperatorSemiring, side: str) -> np.ndarray:
    """(|S|, |G|, n^2): the image of matrix generator (X, D), (D, X) on the
    right, as an n x n matrix over the base operator semiring (entry indices
    into op_base, row-major).  On the left entry (r, c) is the sum over t of
    the pair class [x_rt, d_tc], on the right of [d_rt, x_tc]."""
    pair, add, nn = op_base.pair_rows, op_base.semiring.tables[0], mg.n * mg.n
    codes = _products(add, pair, mg.n) if side == "left" else _products(add, pair.T, mg.n).T
    return _entries(len(add) ** nn, len(add), nn)[codes]


def _matrix_actions(
    mg: MatrixGammaSemiring, op_base: OperatorSemiring, images: np.ndarray, side: str
) -> np.ndarray:
    """(K, |S|): row k applies the k-th of the (K, n^2) matrices of base
    operator elements to every matrix carrier element, folding each entry
    in the order of the scalar matrix product."""
    values, add = op_base.value_rows, mg.base.tables[0]
    table = _products(add, values, mg.n) if side == "left" else _products(add, values.T, mg.n).T
    return table[images @ _weights(len(values), mg.n * mg.n)]


def check_operator_matrix_iso(ws: Workspace, side: str) -> VerificationReport:
    """Verify that the operator semiring of the workspace's matrix instance is
    isomorphic to the matrix semiring over the base operator semiring, through
    the canonical generator mapping extended additively along provenance."""
    config = ws.config
    n = config.n

    def check(counts, notes):
        mg = ws.matrix
        op_matrix = build_operator_semiring(mg.gamma, side, cap=config.closure_cap)
        op_base = ws.left if side == "left" or ws.resolve("R") == "L" else ws.right
        mat_over_op = ws.matrix_semiring("L" if side == "left" else "R")

        size = len(op_matrix)
        counts["matrix_carrier"] = len(mg.gamma.S)
        counts["operator_elements"] = size
        counts["matrix_semiring_elements"] = len(mat_over_op.carrier)
        counts["pairs_checked"] = size * size

        # additive extension of the generator mapping along provenance
        gen_images = _generator_images(mg, op_base, side)
        by_pair, add_op = gen_images.tolist(), op_base.semiring.tables[0].tolist()
        images: list[int] = []
        radix = len(op_base.semiring.carrier)
        for prov in op_matrix.provenance:
            acc = (0,) * (n * n)
            for pair in prov:
                x, d = pair if side == "left" else pair[::-1]
                acc = tuple(add_op[a][b] for a, b in zip(acc, by_pair[x][d]))
            images.append(_encode(acc, radix))

        if len(set(images)) != size or size != len(mat_over_op.carrier):
            return {
                "check": "bijective",
                "operator_elements": size,
                "matrix_semiring_elements": len(mat_over_op.carrier),
                "distinct_images": len(set(images)),
            }
        if images[0] != 0:
            return {"check": "zero", "image_of_zero": mat_over_op.carrier[images[0]]}

        # every pair at once, in row-major order; a pair that fails both
        # sum and product is reported as failing addition
        image = np.array(images)
        row, col = image[:, None], image[None, :]
        (add, mul), (mat_add, mat_mul) = op_matrix.semiring.tables, mat_over_op.tables
        add_bad = image[add] != mat_add[row, col]
        cell = core._first_witness(add_bad | (image[mul] != mat_mul[row, col]))
        if cell:
            failed = "addition" if add_bad[cell] else "multiplication"
            return {"check": failed, "elements": [f"f{cell[0]}", f"f{cell[1]}"]}

        # generator actions must agree with the realized matrix product: each
        # distinct image is applied once, and the first failing (generator,
        # argument) cell is read in row-major order, generators (X, D) first
        S, G = mg.gamma.S, mg.gamma.G
        codes = gen_images.reshape(-1, n * n) @ _weights(radix, n * n)
        _, first, image_of = np.unique(codes, return_index=True, return_inverse=True)
        acted = _matrix_actions(mg, op_base, gen_images.reshape(-1, n * n)[first], side)
        prod = mg.gamma.tables[2]
        direct = prod if side == "left" else prod.transpose(2, 1, 0)
        wrong = np.flatnonzero(acted[image_of.reshape(-1)].reshape(direct.shape) != direct)
        if not wrong.size:
            counts["generators_checked"] = len(S) * len(G)
            notes.append("generator actions agree with the realized matrix product")
            return None
        x, d, a = (int(i) for i in np.unravel_index(wrong[0], direct.shape))
        counts["generators_checked"] = x * len(G) + d + 1
        generator = [S[x], G[d]] if side == "left" else [G[d], S[x]]
        return {"check": "generator-action", "generator": generator, "argument": S[a]}

    return ws.run_suite(f"matrix-iso[{side}]", check)


def verify_theorem_3_19(ws: Workspace) -> VerificationReport:
    """The entrywise-min lift is an inclusion-preserving bijection between the
    fuzzy ideals of the base and of the matrix instance, at chain scale.

    Surjectivity is a count of the matrix ideals, which the matrix
    instance's view enumerates; when their candidate count exceeds the
    surjectivity cap the check downgrades to 'injective +
    inclusion-preserving verified, surjectivity skipped' and says so.
    """
    config = ws.config
    n, chain = config.n, config.chain

    def check(counts, notes):
        from .verify import _failing_pair, _order_differs, _unmatched  # verify imports this module

        mg = ws.matrix
        counts["n"] = n
        ws.require_unities()
        notes.append(chain_scope_note(chain))

        on_s, on_matrix, p = ws.level_cuts("S"), ws.level_cuts("M"), ws.pairs("M", "lift")
        ideals, lifted = p.family, p.images
        counts["fuzzy_ideals_base"] = len(ideals)
        not_ideal = ~on_matrix.ideal_rows(lifted)
        if not_ideal.any():
            return {"check": "lift-is-ideal", "mu": on_s.subset(ideals[not_ideal.argmax()]).to_mapping()}
        if not p.injective:
            return {"check": "injective"}
        counts["pairs_checked"] = len(ideals) ** 2
        pair = _failing_pair(p, _order_differs)
        if pair:
            mu1, mu2 = (on_s.subset(ideals[k]).to_mapping() for k in pair)
            return {"check": "inclusion-preserving", "mu1": mu1, "mu2": mu2}

        matrix_candidates = len(chain) ** (len(mg.gamma.S) - 1)
        if matrix_candidates > config.surjectivity_cap:
            notes.append(
                f"surjectivity skipped (cap): {matrix_candidates} candidates exceed "
                f"{config.surjectivity_cap}; injectivity and inclusion-preservation verified"
            )
            return None
        # surjectivity_cap is the gate: this cap is the candidate count itself
        matrix_ideals = on_matrix.fuzzy_ideals("two", cap=matrix_candidates)
        counts["fuzzy_ideals_matrix"] = len(matrix_ideals)
        notes.append(
            f"cardinalities: {len(ideals)} base ideals vs "
            f"{len(matrix_ideals)} matrix ideals"
        )
        # exact: each lift reads mu(0) = 1 at the zero matrix, so the lifts are
        # distinct matrix ideals, and all of them exactly when as many
        if len(matrix_ideals) != len(ideals):
            return {"check": "surjective", "unmatched": _unmatched(on_matrix, matrix_ideals, lifted)}
        return None

    return ws.run_suite("th3.19", check, chain)
