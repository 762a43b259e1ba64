"""Matrix gamma-semirings, the operator-matrix isomorphisms, and fuzzy lifts.

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

The tables are built by numpy lookups, not per-element loops: every matrix
carrier element is decoded once into its entry tuple (kept on the
instance), and the entrywise sums and the matrix products index the base
tables with those entries, folding each entry in the same (k, l) order as
the scalar definition, so the tables equal it cell for cell.  matrix-iso
applies each distinct generator image once, and th3.19 tests the lifted
subsets for ideals, and both sides for inclusions, on level cuts
(`LevelCuts`; the base side's are the workspace's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import core
from .fuzzy import FuzzySubset, GradeChain, LevelCuts, carrier_of, enumerate_fuzzy_ideals
from .operators import OperatorSemiring, build_operator_semiring
from .report import (
    VerificationReport, chain_scope_note, first_cell, first_failing_pair, first_failure
)

if TYPE_CHECKING:  # the suites below take the run's Workspace, which builds on this module
    from .verify import Workspace

__all__ = [
    "MatrixCapExceeded",
    "MatrixGammaSemiring",
    "build_matrix_gamma",
    "matrix_semiring",
    "lift_fuzzy_to_matrix",
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


@dataclass(frozen=True)
class MatrixGammaSemiring:
    """The realized matrix instance plus the entry-tuple codecs.

    `s_entries[k]` and `g_entries[k]` are the decoded entry tuples of
    element k of S and of G, computed once when the instance is built."""

    base: core.GammaSemiring
    n: int
    gamma: core.GammaSemiring
    s_entries: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    g_entries: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    def decode_s(self, k: int) -> tuple[int, ...]:
        return self.s_entries[k]

    def encode_s(self, entries) -> int:
        return _encode(entries, len(self.base.S))

    def decode_g(self, k: int) -> tuple[int, ...]:
        return self.g_entries[k]

    def encode_g(self, entries) -> int:
        return _encode(entries, len(self.base.G))


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
    add_s, add_g, p = (np.asarray(t, dtype=np.intp) for t in (base.addS, base.addG, base.prod))
    es, eg = _entries(size_s, s, nn), _entries(size_g, gg, nn)
    # entry (i, j) of A D B is the sum over k, l of a_ik d_kl b_lj, folded
    # in that order; axes of `prod` are (A, D, B)
    a_col, d_col, b_col = es[:, None, None, :], eg[None, :, None, :], es[None, None, :, :]
    prod = np.zeros((size_s, size_g, size_s), dtype=np.intp)
    for i, j in product(range(n), repeat=2):
        acc = np.zeros_like(prod)
        for k, l in product(range(n), repeat=2):
            term = p[a_col[..., i * n + k], d_col[..., k * n + l], b_col[..., l * n + j]]
            acc = add_s[acc, term]
        prod = prod * s + acc

    gamma = core.GammaSemiring(
        f"{base.name}[{n}x{n}]",
        tuple(f"m{k}" for k in range(size_s)),
        tuple(f"m{k}" for k in range(size_g)),
        _entrywise(add_s, es, s).tolist(),
        _entrywise(add_g, eg, gg).tolist(),
        prod.tolist(),
    )
    outcome = core.validate_gamma_semiring(gamma)
    if not outcome.ok:
        raise AssertionError(f"matrix instance failed validation: {outcome.violations[0]}")
    return MatrixGammaSemiring(
        base, n, gamma, tuple(map(tuple, es.tolist())), tuple(map(tuple, eg.tolist()))
    )


def matrix_semiring(r: core.Semiring, n: int, name: Optional[str] = None) -> core.Semiring:
    """n x n matrices over a semiring, with the usual sum-of-products multiplication."""
    radix = len(r.carrier)
    size = radix ** (n * n)
    add, m = np.asarray(r.add, dtype=np.intp), np.asarray(r.mul, dtype=np.intp)
    entries = _entries(size, radix, n * n)
    # entry (i, j) of A B is the sum over t of a_it b_tj, folded in that order
    a_col, b_col = entries[:, None, :], entries[None, :, :]
    mul = np.zeros((size, size), dtype=np.intp)
    for i, j in product(range(n), repeat=2):
        acc = np.zeros_like(mul)
        for t in range(n):
            acc = add[acc, m[a_col[..., i * n + t], b_col[..., t * n + j]]]
        mul = mul * radix + acc
    sr = core.Semiring(
        name or f"{r.name}[{n}x{n}]",
        tuple(f"m{k}" for k in range(size)),
        _entrywise(add, entries, radix).tolist(),
        mul.tolist(),
    )
    outcome = core.validate_semiring(sr)
    if not outcome.ok:
        raise AssertionError(f"matrix semiring failed validation: {outcome.violations[0]}")
    return sr


def lift_fuzzy_to_matrix(mg: MatrixGammaSemiring, mu: FuzzySubset) -> FuzzySubset:
    """mu_n(A) = min over the n^2 entries of mu(entry)."""
    if mu.carrier != carrier_of(mg.base):
        raise ValueError("subset does not live on the base carrier")
    grades = tuple(
        min(mu.grades[e] for e in mg.decode_s(k)) for k in range(len(mg.gamma.S))
    )
    return FuzzySubset(carrier_of(mg.gamma), grades)


# ---------------------------------------------------------------------------
# verification suites


def _generator_image(
    mg: MatrixGammaSemiring,
    op_base: OperatorSemiring,
    pair: tuple[int, int],
    side: str,
) -> tuple[int, ...]:
    """Image of one matrix-level generator pair as an n x n matrix over the
    base operator semiring (entry indices into op_base)."""
    n = mg.n
    if side == "left":
        x_idx, d_idx = pair
        X = mg.decode_s(x_idx)
        D = mg.decode_g(d_idx)
        out = []
        for u in range(n):
            for k in range(n):
                acc = 0
                for t in range(n):
                    acc = op_base.add[acc][op_base.pair_index[X[u * n + t]][D[t * n + k]]]
                out.append(acc)
        return tuple(out)
    d_idx, x_idx = pair
    D = mg.decode_g(d_idx)
    X = mg.decode_s(x_idx)
    out = []
    for j in range(n):
        for v in range(n):
            acc = 0
            for t in range(n):
                acc = op_base.add[acc][op_base.pair_index[X[t * n + v]][D[j * n + t]]]
            out.append(acc)
    return tuple(out)


def _matrix_action(
    mg: MatrixGammaSemiring,
    op_base: OperatorSemiring,
    image: tuple[int, ...],
    a_idx: int,
    side: str,
) -> int:
    """Apply a matrix of base operator elements to a matrix carrier element."""
    n = mg.n
    A = mg.decode_s(a_idx)
    addS = mg.base.addS
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                if side == "left":
                    f = op_base.elements[image[i * n + k]]
                    term = f.values[A[k * n + j]]
                else:
                    f = op_base.elements[image[k * n + j]]
                    term = f.values[A[i * n + k]]
                acc = addS[acc][term]
            out.append(acc)
    return mg.encode_s(tuple(out))


def check_operator_matrix_iso(ws: Workspace, side: str) -> VerificationReport:
    """Verify that the operator semiring of the workspace's matrix instance is
    isomorphic to the matrix semiring over the base operator semiring, through
    the canonical generator mapping extended additively along provenance."""
    config = ws.config
    n = config.n

    def check(counts, notes):
        mg = ws.matrix
        op_matrix = build_operator_semiring(mg.gamma, side, cap=config.closure_cap)
        op_base = ws.left if side == "left" else ws.right
        mat_over_op = matrix_semiring(op_base.semiring, n)

        size = len(op_matrix)
        counts["matrix_carrier"] = len(mg.gamma.S)
        counts["operator_elements"] = size
        counts["matrix_semiring_elements"] = len(mat_over_op.carrier)
        counts["pairs_checked"] = size * size

        # additive extension of the generator mapping along provenance
        images: list[int] = []
        radix = len(op_base.semiring.carrier)
        for prov in op_matrix.provenance:
            acc = (0,) * (n * n)
            for pair in prov:
                gen = _generator_image(mg, op_base, pair, side)
                acc = tuple(op_base.add[a][b] for a, b in zip(acc, gen))
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

        def pair_failure(i, j):
            if images[op_matrix.add[i][j]] != mat_over_op.add[images[i]][images[j]]:
                failed = "addition"
            elif images[op_matrix.mul[i][j]] != mat_over_op.mul[images[i]][images[j]]:
                failed = "multiplication"
            else:
                return None
            return {"check": failed, "elements": [f"f{i}", f"f{j}"]}

        failure = first_failing_pair(size, pair_failure)
        if failure:
            return failure

        # generator actions must agree with the realized matrix product; many
        # generators share an image, and each image is applied once
        S, G, prod = mg.gamma.S, mg.gamma.G, mg.gamma.prod
        actions: dict[tuple[int, ...], list[int]] = {}

        def generator_failure(x, d):
            """The first argument on which generator (x, d), or (d, x) on the
            right, acts unlike the realized product."""
            counts["generators_checked"] += 1
            if side == "left":
                pair, generator = (x, d), [S[x], G[d]]
            else:
                pair, generator = (d, x), [G[d], S[x]]
            image = _generator_image(mg, op_base, pair, side)
            if image not in actions:
                actions[image] = [_matrix_action(mg, op_base, image, a, side) for a in range(len(S))]
            for a, acted in enumerate(actions[image]):
                direct = prod[x][d][a] if side == "left" else prod[a][d][x]
                if acted != direct:
                    return {"check": "generator-action", "generator": generator, "argument": S[a]}
            return None

        counts["generators_checked"] = 0
        failure = first_failure(
            lambda xd: generator_failure(*xd), product(range(len(S)), range(len(G)))
        )
        if not failure:
            notes.append("generator actions agree with the realized matrix product")
        return failure

    return ws.run_suite(f"matrix-iso[{side}]", check)


def verify_theorem_3_19(ws: Workspace) -> VerificationReport:
    """The entrywise-min lift is an inclusion-preserving bijection between the
    fuzzy ideals of the base and of the matrix instance, at chain scale.

    Surjectivity needs a full enumeration over the matrix carrier; when the
    candidate count exceeds the surjectivity cap the check downgrades to
    'injective + inclusion-preserving verified, surjectivity skipped' and
    says so explicitly.
    """
    config = ws.config
    n, chain = config.n, config.chain

    def check(counts, notes):
        mg = ws.matrix
        counts["n"] = n
        ws.require_unities()
        notes.append(chain_scope_note(chain))

        ideals = ws.fuzzy_ideals("S")
        lifted = [lift_fuzzy_to_matrix(mg, mu) for mu in ideals]
        counts["fuzzy_ideals_base"] = len(ideals)

        # cuts on the grades the lifts have, so a lift with grades off the
        # run's chain is tested, not refused
        on_matrix = LevelCuts(mg.gamma, GradeChain.of(0, 1, *{x for m in lifted for x in m.grades}))
        cuts = [on_matrix.of(m) for m in lifted]
        failure = first_failure(
            lambda mu, c: not on_matrix.is_ideal(c)
            and {"check": "lift-is-ideal", "mu": mu.to_mapping()},
            ideals, cuts,
        )
        if failure:
            return failure
        lifted_set = {m.grades for m in lifted}
        if len(lifted_set) != len(lifted):
            return {"check": "injective"}
        counts["pairs_checked"] = len(ideals) ** 2
        on_s, fm = ws.level_cuts("S"), on_matrix.family(cuts)
        fs = on_s.family(ws.fuzzy_cuts("S"))
        pair = first_cell(on_s.le_table(fs, fs) != on_matrix.le_table(fm, fm))
        if pair:
            mu1, mu2 = (ideals[k].to_mapping() for k in pair)
            return {"check": "inclusion-preserving", "mu1": mu1, "mu2": mu2}

        matrix_candidates = len(chain) ** (len(mg.gamma.S) - 1)
        if matrix_candidates > config.surjectivity_cap:
            notes.append(
                f"surjectivity skipped (cap): {matrix_candidates} candidates exceed "
                f"{config.surjectivity_cap}; injectivity and inclusion-preservation verified"
            )
            return None
        matrix_ideals = enumerate_fuzzy_ideals(
            mg.gamma, chain, "two", cap=max(config.enum_cap, matrix_candidates)
        )
        counts["fuzzy_ideals_matrix"] = len(matrix_ideals)
        notes.append(
            f"cardinalities: {len(ideals)} base ideals vs "
            f"{len(matrix_ideals)} matrix ideals"
        )
        if lifted_set != {m.grades for m in matrix_ideals}:
            extra = [m.to_mapping() for m in matrix_ideals if m.grades not in lifted_set]
            return {"check": "surjective", "unmatched": extra[:3]}
        return None

    return ws.run_suite("th3.19", check, chain)
