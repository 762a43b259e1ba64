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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Optional

from . import core
from .fuzzy import (
    FuzzySubset,
    carrier_of,
    enumerate_fuzzy_ideals,
    is_fuzzy_ideal_gamma,
)
from .operators import OperatorSemiring, build_operator_semiring
from .report import VerificationReport, chain_scope_note, first_failing_pair, first_failure

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


def _decode(k: int, radix: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        k, d = divmod(k, radix)
        out.append(d)
    return tuple(reversed(out))


@dataclass(frozen=True)
class MatrixGammaSemiring:
    """The realized matrix instance plus the entry-tuple codecs."""

    base: core.GammaSemiring
    n: int
    gamma: core.GammaSemiring

    def decode_s(self, k: int) -> tuple[int, ...]:
        return _decode(k, len(self.base.S), self.n * self.n)

    def encode_s(self, entries) -> int:
        return _encode(entries, len(self.base.S))

    def decode_g(self, k: int) -> tuple[int, ...]:
        return _decode(k, len(self.base.G), self.n * self.n)

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
    s_tuples = [_decode(k, s, nn) for k in range(size_s)]
    g_tuples = [_decode(k, gg, nn) for k in range(size_g)]

    add_s = tuple(
        tuple(
            _encode(tuple(base.addS[a][b] for a, b in zip(A, B)), s)
            for B in s_tuples
        )
        for A in s_tuples
    )
    add_g = tuple(
        tuple(
            _encode(tuple(base.addG[a][b] for a, b in zip(A, B)), gg)
            for B in g_tuples
        )
        for A in g_tuples
    )

    def triple(A, D, B):
        out = []
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    a = A[i * n + k]
                    for l in range(n):
                        term = base.prod[a][D[k * n + l]][B[l * n + j]]
                        acc = base.addS[acc][term]
                out.append(acc)
        return _encode(tuple(out), s)

    prod = tuple(
        tuple(tuple(triple(A, D, B) for B in s_tuples) for D in g_tuples)
        for A in s_tuples
    )

    gamma = core.GammaSemiring(
        f"{base.name}[{n}x{n}]",
        tuple(f"m{k}" for k in range(size_s)),
        tuple(f"m{k}" for k in range(size_g)),
        add_s,
        add_g,
        prod,
    )
    outcome = core.validate_gamma_semiring(gamma)
    if not outcome.ok:
        raise AssertionError(f"matrix instance failed validation: {outcome.violations[0]}")
    return MatrixGammaSemiring(base, n, gamma)


def matrix_semiring(r: core.Semiring, n: int, name: Optional[str] = None) -> core.Semiring:
    """n x n matrices over a semiring, with the usual sum-of-products multiplication."""
    size = len(r.carrier) ** (n * n)
    radix = len(r.carrier)
    nn = n * n
    tuples = [_decode(k, radix, nn) for k in range(size)]

    add = tuple(
        tuple(_encode(tuple(r.add[a][b] for a, b in zip(A, B)), radix) for B in tuples)
        for A in tuples
    )

    def mat_mul(A, B):
        out = []
        for i in range(n):
            for j in range(n):
                acc = 0
                for t in range(n):
                    acc = r.add[acc][r.mul[A[i * n + t]][B[t * n + j]]]
                out.append(acc)
        return _encode(tuple(out), radix)

    mul = tuple(tuple(mat_mul(A, B) for B in tuples) for A in tuples)
    sr = core.Semiring(
        name or f"{r.name}[{n}x{n}]",
        tuple(f"m{k}" for k in range(size)),
        add,
        mul,
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

        # generator actions must agree with the realized matrix product
        S, G, prod = mg.gamma.S, mg.gamma.G, mg.gamma.prod

        def generator_failure(x, d):
            """The first argument on which generator (x, d), or (d, x) on the
            right, acts unlike the realized product."""
            counts["generators_checked"] += 1
            if side == "left":
                pair, generator = (x, d), [S[x], G[d]]
            else:
                pair, generator = (d, x), [G[d], S[x]]
            image = _generator_image(mg, op_base, pair, side)
            for a in range(len(S)):
                direct = prod[x][d][a] if side == "left" else prod[a][d][x]
                if _matrix_action(mg, op_base, image, a, side) != direct:
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

        failure = first_failure(
            lambda mu, mn: not is_fuzzy_ideal_gamma(mg.gamma, mn, "two")
            and {"check": "lift-is-ideal", "mu": mu.to_mapping()},
            ideals, lifted,
        )
        if failure:
            return failure
        lifted_set = {m.grades for m in lifted}
        if len(lifted_set) != len(lifted):
            return {"check": "injective"}
        counts["pairs_checked"] = len(ideals) ** 2
        failure = first_failing_pair(
            len(ideals),
            lambda i, j: (ideals[i] <= ideals[j]) != (lifted[i] <= lifted[j]) and {
                "check": "inclusion-preserving",
                "mu1": ideals[i].to_mapping(),
                "mu2": ideals[j].to_mapping(),
            },
        )
        if failure:
            return failure

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
