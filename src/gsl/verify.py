"""Verification suites: each statement about fuzzy/crisp ideal transfer is run
as a falsifiable check over exhaustively enumerated objects.

Every suite takes the run's `Workspace`, which builds the operator
semirings, the matrix instance and the ideal families once and shares them
across suites, and returns a VerificationReport.  Biconditionals are checked
as two independent implications so a failure localizes; clause-level
preconditions (unity presence) are gated as precondition-unmet rather than
guessed around.  All enumeration happens at grade-chain scale, which is sound
for these statements because min/max over finite index sets never leaves the
chain; each report says so in its notes.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Callable, Optional, Sequence

from . import core
from .config import RunConfig
from .fuzzy import (
    CrispSubset,
    FuzzySubset,
    carrier_of,
    characteristic,
    enumerate_crisp_ideals,
    enumerate_fuzzy_ideals,
    fuzzy_intersection,
    fuzzy_sum,
    is_crisp_ideal_gamma,
    is_crisp_ideal_semiring,
    is_fuzzy_ideal_gamma,
    is_fuzzy_ideal_semiring,
)
from .matrix import (
    MatrixCapExceeded,
    MatrixGammaSemiring,
    build_matrix_gamma,
    check_operator_matrix_iso,
    verify_theorem_3_19,
)
from .operators import (
    OperatorSemiring,
    build_operator_semiring,
    find_unity,
    plus_set,
    plusprime_set,
)
from .report import (
    FAIL,
    PASS,
    UNMET,
    VerificationReport,
    chain_scope_note,
    combine_status,
    first_failing_pair,
)
from .transfer import lift_plusprime, lift_starprime, restrict_plus, restrict_star

__all__ = [
    "Workspace",
    "verify_prop_3_4",
    "verify_theorem_3_8",
    "verify_lemmas_3_11_3_12",
    "verify_theorem_3_15",
    "verify_theorem_3_17",
    "verify_theorem_3_18",
    "verify_semifield_transfer",
    "run_all",
    "KINDS",
    "SUITES",
    "SUITE_CHOICES",
]


class Workspace:
    """The derived structures of one run over one structure and config.

    Each is built on first use and then shared by every suite of the run:
    the left and right operator semirings L and R, their unity flags, the
    matrix instance, and the crisp and fuzzy ideal families.  A family is
    named by the structure it lives on, "S" (the structure itself), "L" or
    "R", and by its ideal kind.  Families are tuples, so no suite can change
    what the next suite sees.  A plain semiring has only "S".
    """

    def __init__(self, structure, config: Optional[RunConfig] = None):
        self.structure = structure
        self.config = config or RunConfig()
        self._families: dict[tuple[str, str, str], tuple] = {}

    @cached_property
    def left(self) -> OperatorSemiring:
        return build_operator_semiring(self.structure, "left", cap=self.config.closure_cap)

    @cached_property
    def right(self) -> OperatorSemiring:
        return build_operator_semiring(self.structure, "right", cap=self.config.closure_cap)

    @cached_property
    def left_unity(self) -> bool:
        return find_unity(self.structure, self.left) is not None

    @cached_property
    def right_unity(self) -> bool:
        return find_unity(self.structure, self.right) is not None

    @cached_property
    def _matrix(self) -> MatrixGammaSemiring | MatrixCapExceeded:
        try:
            return build_matrix_gamma(self.structure, self.config.n, cap=self.config.matrix_cap)
        except MatrixCapExceeded as exc:
            return exc

    @property
    def matrix(self) -> MatrixGammaSemiring:
        """The n x n matrix instance.  Raises MatrixCapExceeded on every
        access when its carriers would exceed the matrix cap."""
        if isinstance(self._matrix, MatrixCapExceeded):
            raise self._matrix.with_traceback(None)
        return self._matrix

    def structure_on(self, side: str):
        """The structure a family lives on: S itself, or the semiring of L or R."""
        if side == "S":
            return self.structure
        if side == "L":
            return self.left.semiring
        if side == "R":
            return self.right.semiring
        raise ValueError(f"side must be 'S', 'L' or 'R', got {side!r}")

    def fuzzy_ideals(self, side: str, kind: str = "two") -> tuple[FuzzySubset, ...]:
        """Fuzzy ideals over the config's chain, in enumeration order."""
        return self._family(
            ("fuzzy", side, kind),
            lambda: enumerate_fuzzy_ideals(
                self.structure_on(side), self.config.chain, kind, cap=self.config.enum_cap
            ),
        )

    def crisp_ideals(self, side: str, kind: str = "two") -> tuple[CrispSubset, ...]:
        """Crisp ideals, in enumeration order."""
        return self._family(
            ("crisp", side, kind),
            lambda: enumerate_crisp_ideals(self.structure_on(side), kind, cap=self.config.enum_cap),
        )

    def _family(self, key: tuple[str, str, str], enumerate_family: Callable[[], list]) -> tuple:
        if key not in self._families:
            self._families[key] = tuple(enumerate_family())
        return self._families[key]


def _grades(mu: FuzzySubset) -> dict:
    return mu.to_mapping()


def _ids(subset: CrispSubset) -> list[str]:
    return list(subset.sorted_ids())


# ---------------------------------------------------------------------------
# transfer-map clause engine (shared by the primal L side and the dual R side)


def _clause_rows(
    g: core.GammaSemiring,
    op: OperatorSemiring,
    ideals_s: Sequence[FuzzySubset],
    ideals_op: Sequence[FuzzySubset],
    lift: Callable[[FuzzySubset], FuzzySubset],
    restrict: Callable[[FuzzySubset], FuzzySubset],
    lift_roundtrip_ok: bool,
    restrict_roundtrip_ok: bool,
    tag: str,
) -> list[tuple[str, str, Optional[dict], int]]:
    """Evaluate the nine transfer clauses; returns (clause, status, witness, checked).

    Round-trip clauses (and the facts whose arguments rest on them: injectivity
    and non-constancy preservation) are gated on the unity whose absence would
    invalidate them: the lift round-trip needs the opposite-side unity, the
    restrict round-trip needs the own-side unity.
    """
    rows: list[tuple[str, str, Optional[dict], int]] = []
    sr = op.semiring
    lifted = [lift(s) for s in ideals_s]
    restricted = [restrict(m) for m in ideals_op]

    def emit(cid, status, witness=None, checked=0):
        rows.append((cid + tag, status, witness, checked))

    def gated(cid, ok):
        if not ok:
            emit(cid, UNMET)
            return True
        return False

    def pair_clause(cid, ideals, label, fails):
        hit = first_failing_pair(len(ideals), fails)
        witness = None
        if hit:
            i, j, _ = hit
            witness = {
                "clause": cid + tag,
                f"{label}1": _grades(ideals[i]),
                f"{label}2": _grades(ideals[j]),
            }
        emit(cid, FAIL if witness else PASS, witness, len(ideals) ** 2)

    # (i) ideal preservation under the lift
    witness = None
    for s, t in zip(ideals_s, lifted):
        if not is_fuzzy_ideal_semiring(sr, t, "two"):
            witness = {"clause": "i" + tag, "sigma": _grades(s), "lifted": _grades(t)}
            break
    emit("i", FAIL if witness else PASS, witness, len(ideals_s))

    # (i) non-constancy preservation
    if not gated("i-nonconstant", lift_roundtrip_ok):
        witness = None
        for s, t in zip(ideals_s, lifted):
            if not s.is_constant() and t.is_constant():
                witness = {"clause": "i-nonconstant" + tag, "sigma": _grades(s)}
                break
        emit("i-nonconstant", FAIL if witness else PASS, witness, len(ideals_s))

    # (ii) restrict(lift(sigma)) == sigma
    if not gated("ii", lift_roundtrip_ok):
        witness = None
        for s, t in zip(ideals_s, lifted):
            back = restrict(t)
            if back.grades != s.grades:
                witness = {
                    "clause": "ii" + tag,
                    "sigma": _grades(s),
                    "roundtrip": _grades(back),
                }
                break
        emit("ii", FAIL if witness else PASS, witness, len(ideals_s))

    # (iii) injectivity of the lift
    if not gated("iii", lift_roundtrip_ok):
        distinct = len({t.grades for t in lifted})
        witness = None
        if distinct != len(lifted):
            seen: dict[tuple, int] = {}
            for k, t in enumerate(lifted):
                if t.grades in seen:
                    witness = {
                        "clause": "iii" + tag,
                        "sigma1": _grades(ideals_s[seen[t.grades]]),
                        "sigma2": _grades(ideals_s[k]),
                    }
                    break
                seen[t.grades] = k
        emit("iii", FAIL if witness else PASS, witness, len(ideals_s))

    # (iv) lift of a sum is the sum of lifts
    pair_clause(
        "iv", ideals_s, "sigma",
        lambda i, j: lift(fuzzy_sum(ideals_s[i], ideals_s[j])).grades
        != fuzzy_sum(lifted[i], lifted[j]).grades,
    )

    # (v) lift of an intersection is the intersection of lifts
    pair_clause(
        "v", ideals_s, "sigma",
        lambda i, j: lift(fuzzy_intersection([ideals_s[i], ideals_s[j]])).grades
        != fuzzy_intersection([lifted[i], lifted[j]]).grades,
    )

    # (vi) lift is inclusion-preserving
    pair_clause(
        "vi", ideals_s, "sigma",
        lambda i, j: ideals_s[i] <= ideals_s[j] and not lifted[i] <= lifted[j],
    )

    # (vii) ideal preservation under the restriction
    witness = None
    for m, rm in zip(ideals_op, restricted):
        if not is_fuzzy_ideal_gamma(g, rm, "two"):
            witness = {"clause": "vii" + tag, "mu": _grades(m), "restricted": _grades(rm)}
            break
    emit("vii", FAIL if witness else PASS, witness, len(ideals_op))

    # (vii) non-constancy preservation
    if not gated("vii-nonconstant", restrict_roundtrip_ok):
        witness = None
        for m, rm in zip(ideals_op, restricted):
            if not m.is_constant() and rm.is_constant():
                witness = {"clause": "vii-nonconstant" + tag, "mu": _grades(m)}
                break
        emit("vii-nonconstant", FAIL if witness else PASS, witness, len(ideals_op))

    # (viii) lift(restrict(mu)) == mu
    if not gated("viii", restrict_roundtrip_ok):
        witness = None
        for m, rm in zip(ideals_op, restricted):
            back = lift(rm)
            if back.grades != m.grades:
                witness = {
                    "clause": "viii" + tag,
                    "mu": _grades(m),
                    "roundtrip": _grades(back),
                }
                break
        emit("viii", FAIL if witness else PASS, witness, len(ideals_op))

    # (ix) restriction is inclusion-preserving
    pair_clause(
        "ix", ideals_op, "mu",
        lambda i, j: ideals_op[i] <= ideals_op[j] and not restricted[i] <= restricted[j],
    )

    return rows


def verify_prop_3_4(ws: Workspace) -> VerificationReport:
    """Nine transfer-map clauses between the fuzzy ideals of the base and of
    its left operator semiring, plus the right-operator duals."""
    g, chain = ws.structure, ws.config.chain
    t0 = time.perf_counter()

    left, right = ws.left, ws.right
    ideals_s = ws.fuzzy_ideals("S")
    ideals_l = ws.fuzzy_ideals("L")
    ideals_r = ws.fuzzy_ideals("R")

    rows = _clause_rows(
        g, left, ideals_s, ideals_l,
        lift=lambda s: lift_plusprime(left, s),
        restrict=lambda m: restrict_plus(left, m),
        lift_roundtrip_ok=ws.right_unity,
        restrict_roundtrip_ok=ws.left_unity,
        tag="",
    )
    rows += _clause_rows(
        g, right, ideals_s, ideals_r,
        lift=lambda s: lift_starprime(right, s),
        restrict=lambda m: restrict_star(right, m),
        lift_roundtrip_ok=ws.left_unity,
        restrict_roundtrip_ok=ws.right_unity,
        tag="*",
    )

    status = combine_status(st for _, st, _, _ in rows)
    counterexample = next((w for _, st, w, _ in rows if st == FAIL), None)
    notes = [chain_scope_note(chain)]
    notes.append(f"left unity: {'present' if ws.left_unity else 'absent'}")
    notes.append(f"right unity: {'present' if ws.right_unity else 'absent'}")
    notes += [f"clause {cid}: {st}" for cid, st, _, _ in rows]
    counts = {
        "fuzzy_ideals_S": len(ideals_s),
        "fuzzy_ideals_L": len(ideals_l),
        "fuzzy_ideals_R": len(ideals_r),
        "checks": sum(c for _, _, _, c in rows),
    }
    return VerificationReport(
        "prop3.4", g.name, chain, status, counterexample, counts,
        (time.perf_counter() - t0) * 1000.0, tuple(notes),
    )


def verify_theorem_3_8(ws: Workspace, kind: str = "two") -> VerificationReport:
    """The lift is an inclusion-preserving lattice isomorphism between the
    fuzzy ideals (or fuzzy right ideals) of the base and of its left operator
    semiring, at chain scale."""
    if kind not in ("two", "right"):
        raise ValueError("kind must be 'two' or 'right'")
    g, chain = ws.structure, ws.config.chain
    t0 = time.perf_counter()
    suite = f"th3.8[{kind}]"
    notes = [chain_scope_note(chain)]

    if not (ws.left_unity and ws.right_unity):
        return VerificationReport(
            suite, g.name, chain, UNMET, None, {},
            (time.perf_counter() - t0) * 1000.0,
            tuple(notes + ["requires both unities; at least one is absent"]),
        )

    left = ws.left
    A = ws.fuzzy_ideals("S", kind)
    B = ws.fuzzy_ideals("L", kind)
    lifted = [lift_plusprime(left, s) for s in A]
    counts = {"fuzzy_ideals_S": len(A), "fuzzy_ideals_L": len(B)}
    status = PASS
    counterexample = None

    b_set = {m.grades for m in B}
    for s, t in zip(A, lifted):
        if t.grades not in b_set:
            status, counterexample = FAIL, {
                "check": "image-is-ideal",
                "sigma": _grades(s),
                "lifted": _grades(t),
            }
            break

    if status == PASS and len({t.grades for t in lifted}) != len(A):
        status, counterexample = FAIL, {"check": "injective"}
    if status == PASS and {t.grades for t in lifted} != b_set:
        missing = [m.to_mapping() for m in B if m.grades not in {t.grades for t in lifted}]
        status, counterexample = FAIL, {"check": "surjective", "unmatched": missing[:3]}

    if status == PASS:
        def pair_failure(i, j):
            a, b = A[i], A[j]
            if (a <= b) != (lifted[i] <= lifted[j]):
                return "inclusion-both-ways"
            if lift_plusprime(left, fuzzy_sum(a, b)).grades != fuzzy_sum(
                lifted[i], lifted[j]
            ).grades:
                return "sum-homomorphism"
            if lift_plusprime(left, fuzzy_intersection([a, b])).grades != fuzzy_intersection(
                [lifted[i], lifted[j]]
            ).grades:
                return "intersection-homomorphism"
            return None

        hit = first_failing_pair(len(A), pair_failure)
        if hit:
            i, j, check = hit
            status, counterexample = FAIL, {
                "check": check,
                "sigma1": _grades(A[i]),
                "sigma2": _grades(A[j]),
            }
        counts["pairs_checked"] = len(A) ** 2

    # chain-scale lattice sanity: closure under both operations, top and bottom
    if status == PASS:
        a_set = {x.grades for x in A}
        closed = all(
            fuzzy_sum(a, b).grades in a_set and fuzzy_intersection([a, b]).grades in a_set
            for a in A
            for b in A
        )
        carrier = carrier_of(g)
        top = FuzzySubset.constant(carrier, 1)
        bottom = characteristic(CrispSubset.of_indices(carrier, [0]))
        has_bounds = top.grades in a_set and bottom.grades in a_set
        if not (closed and has_bounds):
            status, counterexample = FAIL, {"check": "lattice-closure"}
        else:
            notes.append("enumerated ideals are closed under sum/intersection with top and bottom")

    return VerificationReport(
        suite, g.name, chain, status, counterexample, counts,
        (time.perf_counter() - t0) * 1000.0, tuple(notes),
    )


def verify_lemmas_3_11_3_12(ws: Workspace) -> VerificationReport:
    """Characteristic functions commute with the crisp correspondences:
    lifting the characteristic function of a crisp ideal I of S equals the
    characteristic function of its operator-side image, which is itself a
    crisp ideal; dually from L back to S."""
    g = ws.structure
    t0 = time.perf_counter()
    left = ws.left
    status = PASS
    counterexample = None
    checked = 0
    per_kind: dict[str, int] = {}

    for kind in ("two", "right", "left"):
        ideals_s = ws.crisp_ideals("S", kind)
        ideals_l = ws.crisp_ideals("L", kind)
        per_kind[f"ideals_S[{kind}]"] = len(ideals_s)
        per_kind[f"ideals_L[{kind}]"] = len(ideals_l)
        for ideal in ideals_s:
            image = plusprime_set(left, ideal)
            if lift_plusprime(left, characteristic(ideal)).grades != characteristic(image).grades:
                status, counterexample = FAIL, {
                    "check": "characteristic-lift",
                    "kind": kind,
                    "ideal": _ids(ideal),
                }
                break
            if not is_crisp_ideal_semiring(left.semiring, image, kind):
                status, counterexample = FAIL, {
                    "check": "image-is-ideal",
                    "kind": kind,
                    "ideal": _ids(ideal),
                    "image": _ids(image),
                }
                break
            checked += 1
        if status == FAIL:
            break
        for ideal in ideals_l:
            back = plus_set(left, ideal)
            if restrict_plus(left, characteristic(ideal)).grades != characteristic(back).grades:
                status, counterexample = FAIL, {
                    "check": "characteristic-restrict",
                    "kind": kind,
                    "ideal": _ids(ideal),
                }
                break
            if not is_crisp_ideal_gamma(g, back, kind):
                status, counterexample = FAIL, {
                    "check": "preimage-is-ideal",
                    "kind": kind,
                    "ideal": _ids(ideal),
                    "preimage": _ids(back),
                }
                break
            checked += 1
        if status == FAIL:
            break

    counts = {"identities_checked": checked, **per_kind}
    return VerificationReport(
        "lemmas", g.name, None, status, counterexample, counts,
        (time.perf_counter() - t0) * 1000.0, (),
    )


def verify_theorem_3_15(ws: Workspace, kind: str = "two") -> VerificationReport:
    """I -> I+' is an inclusion-preserving bijection between the crisp ideals
    (or right ideals) of the base and of its left operator semiring, with the
    pair-preimage map as inverse."""
    if kind not in ("two", "right"):
        raise ValueError("kind must be 'two' or 'right'")
    g = ws.structure
    t0 = time.perf_counter()
    suite = f"th3.15[{kind}]"

    if not (ws.left_unity and ws.right_unity):
        return VerificationReport(
            suite, g.name, None, UNMET, None, {},
            (time.perf_counter() - t0) * 1000.0,
            ("requires both unities; at least one is absent",),
        )

    left = ws.left
    A = ws.crisp_ideals("S", kind)
    B = ws.crisp_ideals("L", kind)
    images = [plusprime_set(left, ideal) for ideal in A]
    counts = {"ideals_S": len(A), "ideals_L": len(B)}
    status = PASS
    counterexample = None

    b_set = {b.members for b in B}
    for ideal, image in zip(A, images):
        if image.members not in b_set:
            status, counterexample = FAIL, {
                "check": "image-is-ideal",
                "ideal": _ids(ideal),
                "image": _ids(image),
            }
            break
        if plus_set(left, image).members != ideal.members:
            status, counterexample = FAIL, {
                "check": "left-inverse",
                "ideal": _ids(ideal),
                "image": _ids(image),
            }
            break

    if status == PASS and len({im.members for im in images}) != len(A):
        status, counterexample = FAIL, {"check": "injective"}
    if status == PASS and {im.members for im in images} != b_set:
        unmatched = [
            _ids(b) for b in B if b.members not in {im.members for im in images}
        ]
        status, counterexample = FAIL, {"check": "surjective", "unmatched": unmatched[:3]}
    if status == PASS:
        for ideal in B:
            if plusprime_set(left, plus_set(left, ideal)).members != ideal.members:
                status, counterexample = FAIL, {
                    "check": "right-inverse",
                    "ideal": _ids(ideal),
                }
                break
    if status == PASS:
        hit = first_failing_pair(
            len(A),
            lambda i, j: (A[i].members <= A[j].members) != (images[i].members <= images[j].members),
        )
        if hit:
            i, j, _ = hit
            status, counterexample = FAIL, {
                "check": "inclusion-both-ways",
                "ideal1": _ids(A[i]),
                "ideal2": _ids(A[j]),
            }
        counts["pairs_checked"] = len(A) ** 2

    return VerificationReport(
        suite, g.name, None, status, counterexample, counts,
        (time.perf_counter() - t0) * 1000.0, (),
    )


def _fuzzy_semifield_condition(
    ideals: Sequence[FuzzySubset],
) -> tuple[bool, Optional[FuzzySubset]]:
    """Every non-constant member is constant with a value below 1 on the
    nonzero elements.  Returns (holds, first violator)."""
    for mu in ideals:
        if mu.is_constant():
            continue
        nonzero = mu.grades[1:]
        if len(set(nonzero)) != 1 or nonzero[0] >= mu.grades[0]:
            return False, mu
    return True, None


def _semifield_biconditional(
    semifield: bool,
    ideals: Sequence[FuzzySubset],
    name: str,
    not_semifield_witness: Callable[[], dict],
    notes: list[str],
) -> tuple[str, Optional[dict], dict]:
    """Check `semifield <=> the fuzzy semifield condition on ideals` as two
    implications, appending one note per implication decided.

    `name` is the structural property ("semifield" or "gamma-semifield");
    `not_semifield_witness()` gives the payload showing the structure lacks
    it.  Returns (status, counterexample, counts)."""
    holds, violator = _fuzzy_semifield_condition(ideals)
    counts = {
        "fuzzy_ideals": len(ideals),
        "nonconstant_ideals": sum(1 for m in ideals if not m.is_constant()),
    }
    if semifield and not holds:
        notes.append("forward implication failed")
        return FAIL, {
            "direction": f"{name}-but-fuzzy-condition-fails",
            "violating_ideal": _grades(violator),
        }, counts
    notes.append("forward implication holds: "
                 + (f"{name} and fuzzy condition verified" if semifield else "vacuous"))
    if semifield:
        notes.append("reverse implication holds: vacuous")
        return PASS, None, counts
    if holds:
        notes.append("reverse implication failed")
        return FAIL, {
            "direction": f"fuzzy-condition-but-not-{name}",
            **not_semifield_witness(),
        }, counts
    notes.append(
        "reverse implication holds: non-semifield witnessed by fuzzy violator "
        f"{_grades(violator)}"
    )
    return PASS, None, counts


def _zdf_failure_note(g: core.GammaSemiring) -> str:
    w = core.zdf_witness(g)
    return (
        "precondition failed: not zero-divisor free, witness "
        f"{g.S[w[0]]}@{g.G[w[1]]}@{g.S[w[2]]} = {g.S[0]}"
    )


def verify_theorem_3_17(ws: Workspace, side: str = "S") -> VerificationReport:
    """A commutative semiring is a semifield exactly when every non-constant
    fuzzy ideal is constant below 1 on the nonzero elements (chain scale).

    Runs on the workspace's plain semiring (side "S") or on the semiring of
    its left operator semiring (side "L")."""
    r, chain = ws.structure_on(side), ws.config.chain
    t0 = time.perf_counter()
    notes = [chain_scope_note(chain)]

    if not core.mul_commutative(r):
        return VerificationReport(
            "th3.17", r.name, chain, UNMET, None, {},
            (time.perf_counter() - t0) * 1000.0,
            tuple(notes + ["multiplication is not commutative"]),
        )
    if len(r.carrier) == 1:
        return VerificationReport(
            "th3.17", r.name, chain, UNMET, None, {},
            (time.perf_counter() - t0) * 1000.0,
            tuple(notes + ["degenerate one-element semiring; nonzero quantifiers are vacuous"]),
        )

    semifield = core.is_semifield(r)
    inverse_view = core.semifield_inverse_view(r)
    if inverse_view is None:
        notes.append("inverse-based cross-check undecided (no multiplicative identity)")
    elif inverse_view == semifield:
        notes.append("inverse-based cross-check agrees with the ideal-simplicity predicate")
    else:
        notes.append(
            "PREDICATE DISAGREEMENT: ideal-simplicity says "
            f"{semifield}, inverse-based says {inverse_view}"
        )

    status, counterexample, counts = _semifield_biconditional(
        semifield, ws.fuzzy_ideals(side), "semifield",
        lambda: {
            "nonzero_proper_ideal": [r.carrier[i] for i in (core.semifield_witness(r) or ())],
        },
        notes,
    )
    return VerificationReport(
        "th3.17", r.name, chain, status, counterexample, counts,
        (time.perf_counter() - t0) * 1000.0, tuple(notes),
    )


def verify_theorem_3_18(ws: Workspace) -> VerificationReport:
    """Gamma-semiring analogue of the semifield characterization, for
    zero-divisor-free commutative instances."""
    g, chain = ws.structure, ws.config.chain
    t0 = time.perf_counter()
    notes = [chain_scope_note(chain)]

    commutative = core.is_commutative(g)
    zdf = core.is_zdf(g) if commutative else None
    if not commutative or not zdf or len(g.S) == 1:
        if not commutative:
            notes.append("precondition failed: product is not commutative")
        elif not zdf:
            notes.append(_zdf_failure_note(g))
        else:
            notes.append("degenerate one-element carrier; nonzero quantifiers are vacuous")
        # diagnostics still run so the report explains the instance
        if commutative and len(g.S) > 1:
            holds, violator = _fuzzy_semifield_condition(ws.fuzzy_ideals("S"))
            notes.append(f"diagnostic: gamma-semifield predicate = {core.is_gamma_semifield(g)}")
            if violator is not None:
                notes.append(
                    f"diagnostic: fuzzy condition violated by {_grades(violator)}"
                )
            else:
                notes.append("diagnostic: fuzzy condition holds on the enumerated ideals")
        return VerificationReport(
            "th3.18", g.name, chain, UNMET, None, {},
            (time.perf_counter() - t0) * 1000.0, tuple(notes),
        )

    def pair_without_inverse() -> dict:
        w = core.gamma_semifield_witness(g)
        return {"pair_without_inverse": None if w is None else [g.S[w[0]], g.G[w[1]]]}

    status, counterexample, counts = _semifield_biconditional(
        core.is_gamma_semifield(g), ws.fuzzy_ideals("S"), "gamma-semifield",
        pair_without_inverse, notes,
    )
    return VerificationReport(
        "th3.18", g.name, chain, status, counterexample, counts,
        (time.perf_counter() - t0) * 1000.0, tuple(notes),
    )


def verify_semifield_transfer(ws: Workspace) -> VerificationReport:
    """A zero-divisor-free commutative base is a gamma-semifield exactly when
    its left operator semiring is a semifield.  Also reruns both fuzzy
    characterizations and records their outcomes."""
    g, chain = ws.structure, ws.config.chain
    t0 = time.perf_counter()
    suite = "transfer-semifield"
    notes = [chain_scope_note(chain)]

    commutative = core.is_commutative(g)
    zdf = core.is_zdf(g) if commutative else None
    left = ws.left
    unities = ws.left_unity and ws.right_unity

    gate_notes = []
    if not commutative:
        gate_notes.append("precondition failed: product is not commutative")
    elif not zdf:
        gate_notes.append(_zdf_failure_note(g))
    if len(g.S) == 1:
        gate_notes.append("degenerate one-element carrier")
    if not unities:
        gate_notes.append("requires both unities; at least one is absent")
    if gate_notes:
        if commutative and len(g.S) > 1:
            gate_notes.append(
                f"diagnostic: gamma-semifield predicate = {core.is_gamma_semifield(g)}"
            )
            if core.mul_commutative(left.semiring):
                gate_notes.append(
                    f"diagnostic: operator-side semifield predicate = "
                    f"{core.is_semifield(left.semiring)}"
                )
        return VerificationReport(
            suite, g.name, chain, UNMET, None, {},
            (time.perf_counter() - t0) * 1000.0, tuple(notes + gate_notes),
        )

    gamma_side = core.is_gamma_semifield(g)
    if not core.mul_commutative(left.semiring):
        return VerificationReport(
            suite, g.name, chain, UNMET, None, {},
            (time.perf_counter() - t0) * 1000.0,
            tuple(notes + ["operator semiring multiplication is not commutative"]),
        )
    operator_side = core.is_semifield(left.semiring)
    counts = {"carrier_S": len(g.S), "carrier_L": len(left)}
    status = PASS
    counterexample = None

    if gamma_side != operator_side:
        status = FAIL
        counterexample = {
            "gamma_semifield": gamma_side,
            "operator_semifield": operator_side,
        }
    notes.append(f"gamma-semifield predicate: {gamma_side}")
    notes.append(f"operator-side semifield predicate: {operator_side}")

    ideals_s = ws.fuzzy_ideals("S")
    holds_s, _ = _fuzzy_semifield_condition(ideals_s)
    ideals_l = ws.fuzzy_ideals("L")
    holds_l, _ = _fuzzy_semifield_condition(ideals_l)
    counts["fuzzy_ideals_S"] = len(ideals_s)
    counts["fuzzy_ideals_L"] = len(ideals_l)
    notes.append(f"fuzzy characterization on the base: {holds_s}")
    notes.append(f"fuzzy characterization on the operator side: {holds_l}")
    if status == PASS and not (holds_s == holds_l == gamma_side):
        status = FAIL
        counterexample = {
            "gamma_semifield": gamma_side,
            "fuzzy_condition_base": holds_s,
            "fuzzy_condition_operator": holds_l,
        }

    return VerificationReport(
        suite, g.name, chain, status, counterexample, counts,
        (time.perf_counter() - t0) * 1000.0, tuple(notes),
    )


# ---------------------------------------------------------------------------
# orchestration

KINDS = ("two", "right")

# `gsl verify --suite` value -> the reports it produces for a gamma-semiring,
# given the ideal kinds to run th3.8 and th3.15 on.  Insertion order is the
# order `run_all` runs them in.  The lambdas look the suites up at call time,
# so a wrapper installed on a module-level suite name sees every call.
SUITES: dict[str, Callable[[Workspace, Sequence[str]], list[VerificationReport]]] = {
    "prop3.4": lambda ws, kinds: [verify_prop_3_4(ws)],
    "th3.8": lambda ws, kinds: [verify_theorem_3_8(ws, k) for k in kinds],
    "lemmas": lambda ws, kinds: [verify_lemmas_3_11_3_12(ws)],
    "th3.15": lambda ws, kinds: [verify_theorem_3_15(ws, k) for k in kinds],
    "th3.17": lambda ws, kinds: [verify_theorem_3_17(ws, "L")],
    "th3.18": lambda ws, kinds: [verify_theorem_3_18(ws)],
    "transfer-semifield": lambda ws, kinds: [verify_semifield_transfer(ws)],
    "matrix": lambda ws, kinds: [
        check_operator_matrix_iso(ws, "left"),
        check_operator_matrix_iso(ws, "right"),
        verify_theorem_3_19(ws),
    ],
}

SUITE_CHOICES = (*SUITES, "all")


def _matrix_unmet(ws: Workspace) -> list[VerificationReport]:
    """The matrix suites as precondition-unmet when the matrix carrier would
    exceed the cap; empty when it fits."""
    g, config = ws.structure, ws.config
    size = len(g.S) ** (config.n * config.n)
    size_g = len(g.G) ** (config.n * config.n)
    if max(size, size_g) <= config.matrix_cap:
        return []
    notes = (f"matrix carrier would have {size} elements, cap is {config.matrix_cap}",)
    return [
        VerificationReport(suite, g.name, chain, UNMET, None, {"matrix_carrier": size}, 0.0, notes)
        for suite, chain in (
            ("matrix-iso[left]", None),
            ("matrix-iso[right]", None),
            ("th3.19", config.chain),
        )
    ]


def run_all(structure, config: Optional[RunConfig] = None) -> list[VerificationReport]:
    """Every suite applicable to the structure, in a fixed order, over one
    shared workspace.

    For a plain semiring only the semifield characterization applies.  The
    matrix suites run at the configured dimension and report
    precondition-unmet when the matrix carrier would exceed the cap.
    """
    ws = Workspace(structure, config or RunConfig.from_env())
    if isinstance(structure, core.Semiring):
        return [verify_theorem_3_17(ws)]
    reports: list[VerificationReport] = []
    for name, suite in SUITES.items():
        gated = _matrix_unmet(ws) if name == "matrix" else []
        reports += gated or suite(ws, KINDS)
    return reports
