"""Verification suites: each statement about fuzzy/crisp ideal transfer is run
as a falsifiable check over exhaustively enumerated objects.

Every suite takes the run's `Workspace`, which builds the operator
semirings, the matrix instance and the ideal families once and shares them
across suites.  Every suite also runs in the workspace's one frame,
`Workspace.run_suite`, which times it, turns a gate or a cap hit into a
precondition-unmet report, and assembles the VerificationReport.
Biconditionals are checked as two independent implications so a failure
localizes; clause-level preconditions (unity presence) are gated as
precondition-unmet rather than guessed around.  All enumeration happens at
grade-chain scale, which is sound for these statements because min/max over
finite index sets never leaves the chain; each report says so in its notes.
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
    GradeChain,
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
    first_failing_pair,
    first_failure,
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

NO_UNITIES = "requires both unities; at least one is absent"


class Workspace:
    """The derived structures of one run over one structure and config.

    Each is built on first use and then shared by every suite of the run:
    the left and right operator semirings L and R, their unity flags, the
    matrix instance, and the crisp and fuzzy ideal families.  A family is
    named by the structure it lives on, "S" (the structure itself), "L" or
    "R", and by its ideal kind.  Families are tuples, so no suite can change
    what the next suite sees.  A plain semiring has only "S".

    A build that hits a cap is attempted once: its `core.CapExceeded` is
    kept and raised again on every access, so each suite that needs it is
    gated and none retries the build up to the cap.
    """

    def __init__(self, structure, config: Optional[RunConfig] = None):
        self.structure = structure
        self.config = config or RunConfig()
        self._built: dict[object, object] = {}

    def _once(self, key, build: Callable[[], object]):
        """What build() returns, built on the first use of `key`; a cap hit
        is kept and raised again."""
        if key not in self._built:
            try:
                self._built[key] = build()
            except core.CapExceeded as cap:
                self._built[key] = cap.with_traceback(None)
        built = self._built[key]
        if isinstance(built, core.CapExceeded):
            # a copy, so the kept error never holds the frames (and so this workspace) of a raise
            raise type(built)(*built.args, **built.counts)
        return built

    @property
    def left(self) -> OperatorSemiring:
        return self._once("left", lambda: build_operator_semiring(
            self.structure, "left", cap=self.config.closure_cap))

    @property
    def right(self) -> OperatorSemiring:
        return self._once("right", lambda: build_operator_semiring(
            self.structure, "right", cap=self.config.closure_cap))

    @cached_property
    def left_unity(self) -> bool:
        return find_unity(self.structure, self.left) is not None

    @cached_property
    def right_unity(self) -> bool:
        return find_unity(self.structure, self.right) is not None

    def require_unities(self) -> None:
        """The gate of every statement that needs both unities."""
        if not (self.left_unity and self.right_unity):
            raise core.PreconditionUnmet(NO_UNITIES)

    @property
    def matrix(self) -> MatrixGammaSemiring:
        """The n x n matrix instance.  Raises MatrixCapExceeded on every
        access when its carriers would exceed the matrix cap."""
        return self._once("matrix", lambda: build_matrix_gamma(
            self.structure, self.config.n, cap=self.config.matrix_cap))

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
        return self._once(
            ("fuzzy", side, kind),
            lambda: tuple(enumerate_fuzzy_ideals(
                self.structure_on(side), self.config.chain, kind, cap=self.config.enum_cap
            )),
        )

    def crisp_ideals(self, side: str, kind: str = "two") -> tuple[CrispSubset, ...]:
        """Crisp ideals, in enumeration order."""
        return self._once(
            ("crisp", side, kind),
            lambda: tuple(
                enumerate_crisp_ideals(self.structure_on(side), kind, cap=self.config.enum_cap)
            ),
        )

    def run_suite(
        self,
        suite: str,
        check: Callable[[dict, list], Optional[dict]],
        chain: Optional[GradeChain] = None,
        instance: Optional[str] = None,
    ) -> VerificationReport:
        """Run one suite's check in the frame every suite shares: time it
        and assemble its report.

        `check(counts, notes)` fills in the report's counts and notes and
        returns its counterexample, or None when the statement holds.  Two
        ways out make the suite precondition-unmet instead:
        - a gate raises `core.PreconditionUnmet`; its arguments are appended
          to the notes;
        - a cap is hit (any `core.CapExceeded`); the cap's text goes first,
          followed by the notes gathered so far, and the cap's counts are
          added to the counts.
        Either way the counts gathered so far are kept.  The instance is the
        workspace's structure unless named.
        """
        clock = time.perf_counter
        t0 = clock()
        counts: dict[str, int] = {}
        notes: list[str] = []
        try:
            counterexample = check(counts, notes)
            status = FAIL if counterexample else PASS
        except core.PreconditionUnmet as gate:
            status, counterexample = UNMET, None
            notes += gate.args
        except core.CapExceeded as cap:
            status, counterexample = UNMET, None
            notes.insert(0, str(cap))
            counts.update(cap.counts)
        return VerificationReport(
            suite, instance or self.structure.name, chain, status, counterexample, counts,
            (clock() - t0) * 1000.0, tuple(notes),
        )


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

    def clause(cid, checked, scan, ok=True):
        """One row: precondition-unmet when the unity it rests on is absent,
        otherwise the first failure scan() finds, as the clause's witness."""
        if not ok:
            rows.append((cid + tag, UNMET, None, 0))
            return
        failure = scan()
        if failure:
            rows.append((cid + tag, FAIL, {"clause": cid + tag, **failure}, checked))
        else:
            rows.append((cid + tag, PASS, None, checked))

    def each(cid, ideals, images, check, ok=True):
        """A clause checked on each ideal together with its image."""
        clause(cid, len(ideals), lambda: first_failure(check, ideals, images), ok)

    def pairwise(cid, ideals, label, fails):
        """A clause checked on every pair of ideals."""
        clause(cid, len(ideals) ** 2, lambda: first_failing_pair(
            len(ideals),
            lambda i, j: fails(i, j) and {
                f"{label}1": _grades(ideals[i]),
                f"{label}2": _grades(ideals[j]),
            },
        ))

    def lift_roundtrip(s, t):
        back = restrict(t)
        return back.grades != s.grades and {"sigma": _grades(s), "roundtrip": _grades(back)}

    first_lifted_at: dict[tuple, int] = {}

    def repeated_lift(k, t):
        """The first lift equal to an earlier one, with that earlier one."""
        first = first_lifted_at.setdefault(t.grades, k)
        return first != k and {"sigma1": _grades(ideals_s[first]), "sigma2": _grades(ideals_s[k])}

    def restrict_roundtrip(m, rm):
        back = lift(rm)
        return back.grades != m.grades and {"mu": _grades(m), "roundtrip": _grades(back)}

    # (i) ideal preservation under the lift
    each(
        "i", ideals_s, lifted,
        lambda s, t: not is_fuzzy_ideal_semiring(sr, t, "two")
        and {"sigma": _grades(s), "lifted": _grades(t)},
    )

    # (i) non-constancy preservation
    each(
        "i-nonconstant", ideals_s, lifted,
        lambda s, t: not s.is_constant() and t.is_constant() and {"sigma": _grades(s)},
        lift_roundtrip_ok,
    )

    # (ii) restrict(lift(sigma)) == sigma
    each("ii", ideals_s, lifted, lift_roundtrip, lift_roundtrip_ok)

    # (iii) injectivity of the lift
    each("iii", range(len(lifted)), lifted, repeated_lift, lift_roundtrip_ok)

    # (iv) lift of a sum is the sum of lifts
    pairwise(
        "iv", ideals_s, "sigma",
        lambda i, j: lift(fuzzy_sum(ideals_s[i], ideals_s[j])).grades
        != fuzzy_sum(lifted[i], lifted[j]).grades,
    )

    # (v) lift of an intersection is the intersection of lifts
    pairwise(
        "v", ideals_s, "sigma",
        lambda i, j: lift(fuzzy_intersection([ideals_s[i], ideals_s[j]])).grades
        != fuzzy_intersection([lifted[i], lifted[j]]).grades,
    )

    # (vi) lift is inclusion-preserving
    pairwise(
        "vi", ideals_s, "sigma",
        lambda i, j: ideals_s[i] <= ideals_s[j] and not lifted[i] <= lifted[j],
    )

    # (vii) ideal preservation under the restriction
    each(
        "vii", ideals_op, restricted,
        lambda m, rm: not is_fuzzy_ideal_gamma(g, rm, "two")
        and {"mu": _grades(m), "restricted": _grades(rm)},
    )

    # (vii) non-constancy preservation
    each(
        "vii-nonconstant", ideals_op, restricted,
        lambda m, rm: not m.is_constant() and rm.is_constant() and {"mu": _grades(m)},
        restrict_roundtrip_ok,
    )

    # (viii) lift(restrict(mu)) == mu
    each("viii", ideals_op, restricted, restrict_roundtrip, restrict_roundtrip_ok)

    # (ix) restriction is inclusion-preserving
    pairwise(
        "ix", ideals_op, "mu",
        lambda i, j: ideals_op[i] <= ideals_op[j] and not restricted[i] <= restricted[j],
    )

    return rows


def verify_prop_3_4(ws: Workspace) -> VerificationReport:
    """Nine transfer-map clauses between the fuzzy ideals of the base and of
    its left operator semiring, plus the right-operator duals."""
    g, chain = ws.structure, ws.config.chain

    def check(counts, notes):
        notes.append(chain_scope_note(chain))
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

        notes.append(f"left unity: {'present' if ws.left_unity else 'absent'}")
        notes.append(f"right unity: {'present' if ws.right_unity else 'absent'}")
        notes += [f"clause {cid}: {st}" for cid, st, _, _ in rows]
        counts["fuzzy_ideals_S"] = len(ideals_s)
        counts["fuzzy_ideals_L"] = len(ideals_l)
        counts["fuzzy_ideals_R"] = len(ideals_r)
        counts["checks"] = sum(c for _, _, _, c in rows)
        return next((w for _, st, w, _ in rows if st == FAIL), None)

    return ws.run_suite("prop3.4", check, chain)


def verify_theorem_3_8(ws: Workspace, kind: str = "two") -> VerificationReport:
    """The lift is an inclusion-preserving lattice isomorphism between the
    fuzzy ideals (or fuzzy right ideals) of the base and of its left operator
    semiring, at chain scale."""
    if kind not in ("two", "right"):
        raise ValueError("kind must be 'two' or 'right'")
    g, chain = ws.structure, ws.config.chain

    def check(counts, notes):
        notes.append(chain_scope_note(chain))
        ws.require_unities()
        left = ws.left
        A = ws.fuzzy_ideals("S", kind)
        B = ws.fuzzy_ideals("L", kind)
        lifted = [lift_plusprime(left, s) for s in A]
        counts["fuzzy_ideals_S"] = len(A)
        counts["fuzzy_ideals_L"] = len(B)

        b_set = {m.grades for m in B}
        image = first_failure(
            lambda s, t: t.grades not in b_set
            and {"check": "image-is-ideal", "sigma": _grades(s), "lifted": _grades(t)},
            A, lifted,
        )
        if image:
            return image
        lifted_set = {t.grades for t in lifted}
        if len(lifted_set) != len(A):
            return {"check": "injective"}
        if lifted_set != b_set:
            missing = [m.to_mapping() for m in B if m.grades not in lifted_set]
            return {"check": "surjective", "unmatched": missing[:3]}

        def pair_failure(i, j):
            a, b = A[i], A[j]
            if (a <= b) != (lifted[i] <= lifted[j]):
                failed = "inclusion-both-ways"
            elif lift_plusprime(left, fuzzy_sum(a, b)).grades != fuzzy_sum(
                lifted[i], lifted[j]
            ).grades:
                failed = "sum-homomorphism"
            elif lift_plusprime(left, fuzzy_intersection([a, b])).grades != fuzzy_intersection(
                [lifted[i], lifted[j]]
            ).grades:
                failed = "intersection-homomorphism"
            else:
                return None
            return {"check": failed, "sigma1": _grades(a), "sigma2": _grades(b)}

        counts["pairs_checked"] = len(A) ** 2
        pair = first_failing_pair(len(A), pair_failure)
        if pair:
            return pair

        # chain-scale lattice sanity: closure under both operations, top and bottom
        a_set = {x.grades for x in A}
        closed = all(
            fuzzy_sum(a, b).grades in a_set and fuzzy_intersection([a, b]).grades in a_set
            for a in A
            for b in A
        )
        carrier = carrier_of(g)
        top = FuzzySubset.constant(carrier, 1)
        bottom = characteristic(CrispSubset.of_indices(carrier, [0]))
        if not (closed and top.grades in a_set and bottom.grades in a_set):
            return {"check": "lattice-closure"}
        notes.append("enumerated ideals are closed under sum/intersection with top and bottom")
        return None

    return ws.run_suite(f"th3.8[{kind}]", check, chain)


def verify_lemmas_3_11_3_12(ws: Workspace) -> VerificationReport:
    """Characteristic functions commute with the crisp correspondences:
    lifting the characteristic function of a crisp ideal I of S equals the
    characteristic function of its operator-side image, which is itself a
    crisp ideal; dually from L back to S."""
    g = ws.structure

    def check(counts, notes):
        left = ws.left
        counts["identities_checked"] = 0
        for kind in ("two", "right", "left"):
            ideals_s = ws.crisp_ideals("S", kind)
            ideals_l = ws.crisp_ideals("L", kind)
            counts[f"ideals_S[{kind}]"] = len(ideals_s)
            counts[f"ideals_L[{kind}]"] = len(ideals_l)

            def image_failure(ideal):
                image = plusprime_set(left, ideal)
                if lift_plusprime(left, characteristic(ideal)).grades != characteristic(image).grades:
                    return {"check": "characteristic-lift", "kind": kind, "ideal": _ids(ideal)}
                if not is_crisp_ideal_semiring(left.semiring, image, kind):
                    return {
                        "check": "image-is-ideal",
                        "kind": kind,
                        "ideal": _ids(ideal),
                        "image": _ids(image),
                    }
                counts["identities_checked"] += 1
                return None

            def preimage_failure(ideal):
                back = plus_set(left, ideal)
                if restrict_plus(left, characteristic(ideal)).grades != characteristic(back).grades:
                    return {"check": "characteristic-restrict", "kind": kind, "ideal": _ids(ideal)}
                if not is_crisp_ideal_gamma(g, back, kind):
                    return {
                        "check": "preimage-is-ideal",
                        "kind": kind,
                        "ideal": _ids(ideal),
                        "preimage": _ids(back),
                    }
                counts["identities_checked"] += 1
                return None

            failure = first_failure(image_failure, ideals_s) or first_failure(preimage_failure, ideals_l)
            if failure:
                return failure
        return None

    return ws.run_suite("lemmas", check)


def verify_theorem_3_15(ws: Workspace, kind: str = "two") -> VerificationReport:
    """I -> I+' is an inclusion-preserving bijection between the crisp ideals
    (or right ideals) of the base and of its left operator semiring, with the
    pair-preimage map as inverse."""
    if kind not in ("two", "right"):
        raise ValueError("kind must be 'two' or 'right'")

    def check(counts, notes):
        ws.require_unities()
        left = ws.left
        A = ws.crisp_ideals("S", kind)
        B = ws.crisp_ideals("L", kind)
        images = [plusprime_set(left, ideal) for ideal in A]
        counts["ideals_S"] = len(A)
        counts["ideals_L"] = len(B)

        b_set = {b.members for b in B}

        def image_failure(ideal, image):
            if image.members not in b_set:
                failed = "image-is-ideal"
            elif plus_set(left, image).members != ideal.members:
                failed = "left-inverse"
            else:
                return None
            return {"check": failed, "ideal": _ids(ideal), "image": _ids(image)}

        failure = first_failure(image_failure, A, images)
        if failure:
            return failure
        image_set = {im.members for im in images}
        if len(image_set) != len(A):
            return {"check": "injective"}
        if image_set != b_set:
            unmatched = [_ids(b) for b in B if b.members not in image_set]
            return {"check": "surjective", "unmatched": unmatched[:3]}
        failure = first_failure(
            lambda ideal: plusprime_set(left, plus_set(left, ideal)).members != ideal.members
            and {"check": "right-inverse", "ideal": _ids(ideal)},
            B,
        )
        if failure:
            return failure
        counts["pairs_checked"] = len(A) ** 2
        return first_failing_pair(
            len(A),
            lambda i, j: (A[i].members <= A[j].members) != (images[i].members <= images[j].members)
            and {"check": "inclusion-both-ways", "ideal1": _ids(A[i]), "ideal2": _ids(A[j])},
        )

    return ws.run_suite(f"th3.15[{kind}]", check)


def _fuzzy_semifield_condition(
    ideals: Sequence[FuzzySubset],
) -> tuple[bool, Optional[FuzzySubset]]:
    """Every non-constant member is constant with a value below 1 on the
    nonzero elements.  Returns (holds, first violator)."""

    def violator(mu):
        nonzero = mu.grades[1:]
        if not mu.is_constant() and (len(set(nonzero)) != 1 or nonzero[0] >= mu.grades[0]):
            return mu
        return None

    first = first_failure(violator, ideals)
    return first is None, first


def _semifield_biconditional(
    semifield: bool,
    ideals: Sequence[FuzzySubset],
    name: str,
    not_semifield_witness: Callable[[], dict],
    counts: dict,
    notes: list[str],
) -> Optional[dict]:
    """Check `semifield <=> the fuzzy semifield condition on ideals` as two
    implications, recording the ideal counts and one note per implication
    decided.

    `name` is the structural property ("semifield" or "gamma-semifield");
    `not_semifield_witness()` gives the payload showing the structure lacks
    it.  Returns the counterexample, or None when both implications hold."""
    holds, violator = _fuzzy_semifield_condition(ideals)
    counts["fuzzy_ideals"] = len(ideals)
    counts["nonconstant_ideals"] = sum(1 for m in ideals if not m.is_constant())
    if semifield and not holds:
        notes.append("forward implication failed")
        return {
            "direction": f"{name}-but-fuzzy-condition-fails",
            "violating_ideal": _grades(violator),
        }
    notes.append("forward implication holds: "
                 + (f"{name} and fuzzy condition verified" if semifield else "vacuous"))
    if semifield:
        notes.append("reverse implication holds: vacuous")
        return None
    if holds:
        notes.append("reverse implication failed")
        return {
            "direction": f"fuzzy-condition-but-not-{name}",
            **not_semifield_witness(),
        }
    notes.append(
        "reverse implication holds: non-semifield witnessed by fuzzy violator "
        f"{_grades(violator)}"
    )
    return None


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
    chain = ws.config.chain
    # named as build_operator_semiring names L, which is built only inside the check
    instance = None if side == "S" else f"{ws.structure.name}::{side}"

    def check(counts, notes):
        notes.append(chain_scope_note(chain))
        r = ws.structure_on(side)
        if not core.mul_commutative(r):
            raise core.PreconditionUnmet("multiplication is not commutative")
        if len(r.carrier) == 1:
            raise core.PreconditionUnmet(
                "degenerate one-element semiring; nonzero quantifiers are vacuous"
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

        return _semifield_biconditional(
            semifield, ws.fuzzy_ideals(side), "semifield",
            lambda: {
                "nonzero_proper_ideal": [r.carrier[i] for i in (core.semifield_witness(r) or ())],
            },
            counts, notes,
        )

    return ws.run_suite("th3.17", check, chain, instance)


def verify_theorem_3_18(ws: Workspace) -> VerificationReport:
    """Gamma-semiring analogue of the semifield characterization, for
    zero-divisor-free commutative instances."""
    g, chain = ws.structure, ws.config.chain

    def check(counts, notes):
        notes.append(chain_scope_note(chain))
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
            raise core.PreconditionUnmet()  # the notes above say why

        def pair_without_inverse() -> dict:
            w = core.gamma_semifield_witness(g)
            return {"pair_without_inverse": None if w is None else [g.S[w[0]], g.G[w[1]]]}

        return _semifield_biconditional(
            core.is_gamma_semifield(g), ws.fuzzy_ideals("S"), "gamma-semifield",
            pair_without_inverse, counts, notes,
        )

    return ws.run_suite("th3.18", check, chain)


def verify_semifield_transfer(ws: Workspace) -> VerificationReport:
    """A zero-divisor-free commutative base is a gamma-semifield exactly when
    its left operator semiring is a semifield.  Also reruns both fuzzy
    characterizations and records their outcomes."""
    g, chain = ws.structure, ws.config.chain

    def check(counts, notes):
        notes.append(chain_scope_note(chain))
        commutative = core.is_commutative(g)
        zdf = core.is_zdf(g) if commutative else None
        left = ws.left

        gate_notes = []
        if not commutative:
            gate_notes.append("precondition failed: product is not commutative")
        elif not zdf:
            gate_notes.append(_zdf_failure_note(g))
        if len(g.S) == 1:
            gate_notes.append("degenerate one-element carrier")
        if not (ws.left_unity and ws.right_unity):
            gate_notes.append(NO_UNITIES)
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
            raise core.PreconditionUnmet(*gate_notes)

        gamma_side = core.is_gamma_semifield(g)
        if not core.mul_commutative(left.semiring):
            raise core.PreconditionUnmet("operator semiring multiplication is not commutative")
        operator_side = core.is_semifield(left.semiring)
        counts["carrier_S"] = len(g.S)
        counts["carrier_L"] = len(left)
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
        if gamma_side != operator_side:
            return {"gamma_semifield": gamma_side, "operator_semifield": operator_side}
        if not (holds_s == holds_l == gamma_side):
            return {
                "gamma_semifield": gamma_side,
                "fuzzy_condition_base": holds_s,
                "fuzzy_condition_operator": holds_l,
            }
        return None

    return ws.run_suite("transfer-semifield", check, chain)


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
    return [report for suite in SUITES.values() for report in suite(ws, KINDS)]
