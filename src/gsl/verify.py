"""Verification suites: each statement about fuzzy/crisp ideal transfer is run
as a falsifiable check over exhaustively enumerated objects.

Every suite takes the run's `Workspace`, which builds the operator
semirings, the matrix instance and the ideal families once and shares them
across suites.  What it derives is keyed by what it is computed from, not
by who asks: each family is enumerated once per structure and distinct
absorption images, by the level-cut view of its structure, so kinds with
equal images (all three, on a commutative structure) share one family; the
right operator semiring R shares L's view, families, images and clause
rows on a commutative base, where it is L, and is then not built; each
transfer map is handed each crisp mask once per run; and the semifield predicates
and fuzzy conditions are decided once.  Every suite also runs in the
workspace's one frame, `Workspace.run_suite`, which times it, turns a gate
or a cap hit into a precondition-unmet report, and assembles the
VerificationReport.
Biconditionals are checked as two independent implications so a failure
localizes; clause-level preconditions (unity presence) are gated as
precondition-unmet rather than guessed around.  All enumeration happens at
grade-chain scale, which is sound for these statements because min/max over
finite index sets never leaves the chain; each report says so in its notes.
The fuzzy suites compute on the workspace's level cuts of those ideals
over the config's chain (`LevelCuts`): a fuzzy family is one read-only
(N, m-1) array of its members' cut ids from enumeration to verdict, and
a witness's `Fraction` grades come from its one row.  Semifield
conditions are decided on ranks.  The transfer maps are mins over index
tables, so cut k of an image is the crisp image of cut k alone (`_MAPS`):
`Workspace.transfer` keeps one id -> id array per map of the crisp images
of the masks a view has interned, and maps a family, its round trips and
the lemmas' characteristic functions by gathers from it.  Each family's
images are kept with the family (`Workspace.pairs`), shared by prop3.4,
th3.8 and th3.19, with the ids of the D crisp ideals of its kind: a family
is by construction every descending multichain of those
(`LevelCuts.fuzzy_ideals`).  Since the map acts cut by cut, a pair check
holds on all N x N fuzzy pairs exactly when it holds on the D x D crisp
pairs (`_failing_pair`), so a pass costs O(N m + D^2), and th3.8's
injectivity and lattice closure are decided on the D crisp ideals too.
Once a crisp pair fails, a row-blocked scan of the N x N pairs finds the
witness, stopping at the first block with a failure: the first failing
pair in row-major order (in th3.8, with the first check that pair fails),
as a scan of every pair would give.  The scan maps the sums and meets of
the rows it reaches, not past them.  The crisp suites, the lemmas and
th3.15, compute on masks: crisp ideals, the operator semiring's mask maps
`image_contained` and `pair_fixed`, and the level-cut tables.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import core
from .config import RunConfig
from .fuzzy import GradeChain, LevelCuts
from .matrix import (
    MatrixGammaSemiring,
    build_matrix_gamma,
    check_operator_matrix_iso,
    matrix_semiring,
    verify_theorem_3_19,
)
from .operators import OperatorSemiring, build_operator_semiring, find_unity
from .report import (
    FAIL,
    PASS,
    UNMET,
    VerificationReport,
    chain_scope_note,
    first_cell,
    first_failure,
)
from .transfer import min_ranks

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
    matrix instance, the level-cut view of each structure (`level_cuts`),
    which enumerates its ideal families once per distinct absorption images,
    those families (crisp ideals as masks, fuzzy ideals as id arrays:
    `fuzzy_family` is the one fuzzy family the suites read), each fuzzy
    family with its images under a transfer map (`pairs`, from `transfer`)
    for the pair checks, the crisp image of each mask under each transfer
    map (kept by the source view), the semifield predicates and conditions (`fact`,
    `semifield_condition`), the matrix semiring over L or R
    (`matrix_semiring`), and the verdicts of th3.8 and th3.15 (`decided`)
    and prop3.4's clause rows.  A family is named by the structure it lives
    on, "S" (the structure itself), "L", "R" or "M" (the matrix instance),
    and by its ideal kind; kinds with equal absorption images on that
    structure name one family (`LevelCuts.canonical`), so they share its
    arrays, its images, its pair tables and the verdicts decided on them.
    Sides are keyed the same way: "R" resolves to "L" on a commutative
    base (`resolve`), so R is not built and shares L's view, families,
    pairs, images, unity and matrix semiring, while L and R hold the same
    map object (`_MAPS` has one per direction for both).
    Crisp families are tuples and fuzzy ones read-only arrays, so no suite
    can change what the next suite sees.  A plain semiring has only "S".
    Every memo of a run lives here or in an object the workspace owns (a
    view, an operator semiring), and none refers back to the workspace, so
    dropping it frees the run.

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

    def resolve(self, side: str) -> str:
        """The side whose derived objects `side` shares: "L" for "R" when
        the product is commutative, else the side itself.  There R is L:
        the right pair (@, x) acts as a -> a@x = x@a, as the left pair
        (x, @) does, and single-pair actions commute, by the validated law
        a@(b#c) = (a@b)#c: x@(y#a) = x@(a#y) = (x@a)#y = y#(x@a).  Actions
        are additive, so their sums commute too, and composition in R's
        diagram order is composition in L's: R's elements, pair classes and
        tables are L's."""
        return "L" if side == "R" and self.fact("is_commutative") else side

    @cached_property
    def left_unity(self) -> bool:
        return find_unity(self.structure, self.left) is not None

    @cached_property
    def right_unity(self) -> bool:
        if self.resolve("R") == "L":
            return self.left_unity
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
        """The structure a family lives on: S itself, the semiring of L or R,
        or the matrix instance."""
        if side == "S":
            return self.structure
        if side == "L":
            return self.left.semiring
        if side == "R":
            return self.right.semiring
        if side == "M":
            return self.matrix.gamma
        raise ValueError(f"side must be 'S', 'L', 'R' or 'M', got {side!r}")

    def matrix_semiring(self, side: str) -> core.Semiring:
        """The n x n matrix semiring over the semiring of L or R, one for
        the sides that share their tables (`resolve`)."""
        side = self.resolve(side)
        return self._once(("matrix semiring", side), lambda: matrix_semiring(
            self.structure_on(side), self.config.n))

    def level_cuts(self, side: str) -> LevelCuts:
        """The run's one level-cut view of a structure, over the config's
        chain, one for the sides that share their tables (`resolve`); it
        enumerates the structure's ideal families."""
        side = self.resolve(side)
        return self._once(("cuts", side), lambda: LevelCuts(self.structure_on(side), self.config.chain))

    def fuzzy_family(self, side: str, kind: str = "two") -> np.ndarray:
        """The fuzzy ideals over the config's chain, as the read-only
        (N, m-1) array of the ids of their cuts, in enumeration order
        (`LevelCuts.fuzzy_ideals`); one array for the kinds, and the sides,
        that share it."""
        side = self.resolve(side)
        kind = self.level_cuts(side).canonical(kind)
        return self._once(("family", side, kind), lambda: self.level_cuts(side).fuzzy_ideals(
            kind, self.config.enum_cap))

    def transfer(self, side: str, direction: str) -> Callable[[np.ndarray], np.ndarray]:
        """A transfer map between S and `side` ("L", "R", or "M" for th3.19's
        lift) on id arrays: direction "lift" takes the ids of subsets' cuts
        on S, in an array of any shape, to the ids of their images' cuts on
        the side, "restrict" takes them back.  The map is `_MAPS[side,
        direction]` at the call, and acts cut by cut: an image is a gather
        from the source view's array of crisp images (`crisp_images`), one
        per resolved side (`resolve`), direction and map object, so R shares
        L's while both hold the same map."""
        shared = self.resolve(side)  # here, so that `apply` holds no reference to the workspace
        source, target = self.level_cuts("S"), self.level_cuts(side)
        if direction == "restrict":
            source, target = target, source
        over = self.left if side == "L" else self.right if side == "R" else self.matrix

        def apply(ids: np.ndarray) -> np.ndarray:
            crisp_map = _MAPS[side, direction]
            key = ("image", shared, direction, crisp_map)
            return source.crisp_images(key, target, lambda bits: crisp_map(over, bits))[ids]

        return apply

    def pairs(self, side: str, direction: str, kind: str = "two") -> "_Pairs":
        """The fuzzy ideals of the kind that `transfer(side, direction)`
        takes as operands, with their images and the crisp ideals they are
        the multichains of, for the pair checks; one for the kinds that
        share a family, and for the sides that share their tables
        (`resolve`) and hold the same map."""
        source = "S" if direction == "lift" else side
        target = side if direction == "lift" else "S"
        view = self.level_cuts(source)
        kind = view.canonical(kind)
        key = ("pairs", self.resolve(side), direction, kind, _MAPS[side, direction])
        return self._once(key, lambda: _Pairs(
            view, self.level_cuts(target), self.fuzzy_family(source, kind),
            view.mask_ids(view._crisp(kind)), self.transfer(side, direction),
        ))

    def crisp_ideals(self, side: str, kind: str = "two") -> tuple[int, ...]:
        """Crisp ideals as masks, in enumeration order (`LevelCuts.crisp_ideals`);
        one tuple for the kinds, and the sides, that share it."""
        side = self.resolve(side)
        kind = self.level_cuts(side).canonical(kind)
        return self._once(("crisp", side, kind), lambda: self.level_cuts(side).crisp_ideals(
            kind, self.config.enum_cap))

    def fact(self, name: str, side: str = "S"):
        """`core.<name>` of the structure on a side ("S" or "L"): the
        predicates and witnesses that th3.17, th3.18 and transfer-semifield
        share, each computed once per run.  The function is looked up at
        the first call."""
        return self._once(("fact", name, side), lambda: getattr(core, name)(self.structure_on(side)))

    def decided(self, suite: str, kind: str, counts: dict, notes: list, decide) -> Optional[dict]:
        """decide(counts, notes), a suite's check between the ideals of the
        kind on S and on L, run once for the kinds that name the same
        families on both (`LevelCuts.canonical`): a later kind gets the first
        one's counterexample, counts and notes, or its cap."""

        def run():
            own = ({}, [])
            return decide(*own), *own

        key = ("verdict", suite, self.level_cuts("S").canonical(kind), self.level_cuts("L").canonical(kind))
        counterexample, more_counts, more_notes = self._once(key, run)
        counts.update(more_counts)
        notes += more_notes
        return counterexample

    def semifield_condition(self, side: str) -> tuple[bool, Optional[np.ndarray]]:
        """The fuzzy semifield condition on the side's fuzzy ideals
        (`_fuzzy_semifield_condition`), decided once per run."""
        return self._once(("semifield condition", side), lambda: _fuzzy_semifield_condition(
            self.level_cuts(side), self.fuzzy_family(side)))

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


# ---------------------------------------------------------------------------
# transfer-map clause engine (shared by the primal L side and the dual R side)


# The transfer maps on crisp masks, by (side, direction): each takes what it
# maps over (the operator semiring, or the matrix instance for "M") and the
# (D, n) 0/1 bits of D masks, and gives the (D, n') bits of their images, the
# least bit along each row of the operator's action table (lift), its
# pair-class table (restrict) or the matrix entries.  Each paper map is that
# min on grades, and a min is >= c_k exactly when every grade it reads is:
# cut k of a fuzzy subset's image is the map of its cut k alone.
# L and R hold one map object per direction, since the formulas are the same
# on either side.  The suites look a map up here at each call, so a map
# installed in this table gets an image array of its own
# (`Workspace.transfer`), and one installed for R alone keeps R from sharing
# L's images and clause rows.


def _lift(op: OperatorSemiring, ranks: np.ndarray) -> np.ndarray:
    return min_ranks(ranks, op.value_rows)


def _restrict(op: OperatorSemiring, ranks: np.ndarray) -> np.ndarray:
    return min_ranks(ranks, op.pair_rows)


_MAPS: dict[tuple[str, str], Callable[[object, np.ndarray], np.ndarray]] = {
    ("L", "lift"): _lift,
    ("L", "restrict"): _restrict,
    ("R", "lift"): _lift,
    ("R", "restrict"): _restrict,
    ("M", "lift"): lambda mg, ranks: min_ranks(ranks, mg.s_entries),
}


class _Pairs:
    """One family of N operands and its images under a transfer map, for
    the pair checks: the views they live on, their (N, m-1) id arrays, the
    family's D crisp ideals as the (D, 1) array `crisp` of one-cut members
    and their images, and `image`, the map on id arrays
    (`Workspace.transfer`) that gave the images, which maps the sums and
    meets of a pair scan.  The family is every descending multichain of its
    crisp ideals (`LevelCuts.fuzzy_ideals`)."""

    def __init__(self, source: LevelCuts, target: LevelCuts, family: np.ndarray, crisp: np.ndarray, image):
        self.source, self.target, self.image = source, target, image
        self.family, self.images = family, image(family)
        self.images.setflags(write=False)
        self.crisp = crisp[:, None]
        self.crisp_images = image(self.crisp)

    @property
    def injective(self) -> bool:
        """Whether the N images are distinct.  The family holds the constant
        member (I, ..., I) of each crisp ideal I and the map acts cut by
        cut, so they are exactly when the D crisp images are."""
        images = self.crisp_images.ravel().tolist()
        return len(set(images)) == len(images)


# A pair check: check(p, a, b, la, lb, image) is the (len(a), len(b)) table
# of the pairs it fails on, for two families a and b of source ids, their
# images la and lb, and image(table), the target ids of the image of each
# cell of an (..., m-1) table of source ids.  Given a family's (N, m-1)
# arrays, it checks fuzzy pairs; given its crisp masks as (D, 1) arrays,
# it checks crisp pairs.

_PairCheck = Callable[..., np.ndarray]


def _order_lost(p, a, b, la, lb, image):
    """a_i <= b_j but not la_i <= lb_j."""
    return p.source.le_table(a, b) & ~p.target.le_table(la, lb)


def _order_differs(p, a, b, la, lb, image):
    """a_i <= b_j and la_i <= lb_j differ."""
    return p.source.le_table(a, b) != p.target.le_table(la, lb)


def _unhomomorphic(table: str) -> _PairCheck:
    """The image of a_i op b_j differs from la_i op lb_j, for the op of a
    `LevelCuts` family table ("sum_table" or "meet_table")."""

    def check(p, a, b, la, lb, image):
        return (image(getattr(p.source, table)(a, b)) != getattr(p.target, table)(la, lb)).any(axis=2)

    return check


# cells of (N, M, m-1) tables one block of the witness scan spans
_SCAN_CELLS = 1 << 20


def _failing_pair(p: _Pairs, check: _PairCheck) -> Optional[tuple[int, int]]:
    """The first pair (i, j) of the family, in row-major order, that check
    fails on; None when every pair passes.

    Decided on the D x D pairs of the family's crisp ideals, exactly: every
    check goes level by level, so a failing fuzzy pair fails on the crisp
    pair of its cuts at some level, and with B the least crisp ideal, the
    members (I, B, ..., B) and (J, B, ..., B) are in the family for any
    crisp ideals I and J and fail when (I, J) does.  This needs no closure
    under sum.  Once a crisp pair fails, `_scan` finds the witness."""
    if not check(p, p.crisp, p.crisp, p.crisp_images, p.crisp_images, p.image).any():
        return None
    return _scan(p, check)


def _scan(p: _Pairs, check: _PairCheck) -> Optional[tuple[int, int]]:
    """`_failing_pair` over the N x N pairs, a block of rows at a time,
    stopping at the first block with a failure, so only the sums and meets
    of the rows scanned are mapped."""
    n, width = p.family.shape
    for rows in core._blocks(n, n * width, _SCAN_CELLS):
        cell = first_cell(check(p, p.family[rows], p.family, p.images[rows], p.images, p.image))
        if cell:
            return rows.start + cell[0], cell[1]
    return None


_ClauseRow = tuple[str, str, Optional[dict], int]


def _clause_rows(
    ws: Workspace,
    side: str,
    lift_roundtrip_ok: bool,
    restrict_roundtrip_ok: bool,
) -> list[_ClauseRow]:
    """The nine transfer clauses between S and `side`; rows (clause, status, witness, checked).

    Round-trip clauses (and the facts whose arguments rest on them: injectivity
    and non-constancy preservation) are gated on the unity whose absence would
    invalidate them: the lift round-trip needs the opposite-side unity, the
    restrict round-trip needs the own-side unity.

    Sums, intersections, inclusions, equalities, ideal and constancy tests
    are computed on the workspace's level cuts, over the config's chain; the
    transfer maps are mins, so their images stay on that chain.  The maps
    are the workspace's (`Workspace.transfer`), gathers from the crisp
    images of masks, each applied to a whole family at once: the ideals
    (`Workspace.pairs`), then their images for the round trips.  Each
    per-ideal clause is one array operation on the families' id arrays and
    witnesses its first failing row.  The pair clauses are decided by
    `_failing_pair` on the crisp ideals, and a failing one by the
    row-blocked `_scan`, which witnesses the first failing pair in
    row-major order.  A witness's grades are built from its row only.
    """
    rows: list[_ClauseRow] = []
    on_s, on_op = ws.level_cuts("S"), ws.level_cuts(side)
    lifts, restricts = ws.pairs(side, "lift"), ws.pairs(side, "restrict")
    ideals_s, lifted = lifts.family, lifts.images
    ideals_op, restricted = restricts.family, restricts.images
    # restrict(lift(sigma)) and lift(restrict(mu)), for the round trips
    lifted_back, restricted_back = restricts.image(lifted), lifts.image(restricted)
    first, where = LevelCuts.distinct_rows(lifted)
    earlier = first[where]  # the index of the first lift equal to each

    def clause(cid, checked, scan, ok=True):
        """One row: precondition-unmet when the unity it rests on is absent,
        otherwise the first failure scan() finds, as the clause's witness."""
        if not ok:
            rows.append((cid, UNMET, None, 0))
            return
        failure = scan()
        if failure:
            rows.append((cid, FAIL, {"clause": cid, **failure}, checked))
        else:
            rows.append((cid, PASS, None, checked))

    def each(cid, ideals, failing, witness, ok=True):
        """A clause checked on each ideal: failing() gives the (N,) rows it
        fails on, witness(k) the payload of the first, row k."""

        def scan():
            bad = failing()
            return bad.any() and witness(int(bad.argmax()))

        clause(cid, len(ideals), scan, ok)

    def pairwise(cid, label, p, check):
        """A clause checked on every pair of ideals, the operands of `p`."""

        def scan():
            pair = _failing_pair(p, check)
            return pair and {f"{label}{k}": mapping(p.source, p.family[i]) for k, i in enumerate(pair, 1)}

        clause(cid, len(p.family) ** 2, scan)

    def mapping(view, row):
        """The grades of the subset with these cut ids, for a witness."""
        return view.subset(row).to_mapping()

    # (i) ideal preservation under the lift
    each(
        "i", ideals_s, lambda: ~on_op.ideal_rows(lifted),
        lambda k: {"sigma": mapping(on_s, ideals_s[k]), "lifted": mapping(on_op, lifted[k])},
    )

    # (i) non-constancy preservation
    each(
        "i-nonconstant", ideals_s, lambda: ~on_s.constant_rows(ideals_s) & on_op.constant_rows(lifted),
        lambda k: {"sigma": mapping(on_s, ideals_s[k])}, lift_roundtrip_ok,
    )

    # (ii) restrict(lift(sigma)) == sigma
    each(
        "ii", ideals_s, lambda: (lifted_back != ideals_s).any(axis=1),
        lambda k: {"sigma": mapping(on_s, ideals_s[k]), "roundtrip": mapping(on_s, lifted_back[k])},
        lift_roundtrip_ok,
    )

    # (iii) injectivity of the lift: the first lift equal to an earlier one
    each(
        "iii", ideals_s, lambda: earlier != np.arange(len(earlier)),
        lambda k: {"sigma1": mapping(on_s, ideals_s[earlier[k]]), "sigma2": mapping(on_s, ideals_s[k])},
        lift_roundtrip_ok,
    )

    # (iv) lift of a sum is the sum of lifts
    pairwise("iv", "sigma", lifts, _unhomomorphic("sum_table"))

    # (v) lift of an intersection is the intersection of lifts
    pairwise("v", "sigma", lifts, _unhomomorphic("meet_table"))

    # (vi) lift is inclusion-preserving
    pairwise("vi", "sigma", lifts, _order_lost)

    # (vii) ideal preservation under the restriction
    each(
        "vii", ideals_op, lambda: ~on_s.ideal_rows(restricted),
        lambda k: {"mu": mapping(on_op, ideals_op[k]), "restricted": mapping(on_s, restricted[k])},
    )

    # (vii) non-constancy preservation
    each(
        "vii-nonconstant", ideals_op,
        lambda: ~on_op.constant_rows(ideals_op) & on_s.constant_rows(restricted),
        lambda k: {"mu": mapping(on_op, ideals_op[k])}, restrict_roundtrip_ok,
    )

    # (viii) lift(restrict(mu)) == mu
    each(
        "viii", ideals_op, lambda: (restricted_back != ideals_op).any(axis=1),
        lambda k: {"mu": mapping(on_op, ideals_op[k]), "roundtrip": mapping(on_op, restricted_back[k])},
        restrict_roundtrip_ok,
    )

    # (ix) restriction is inclusion-preserving
    pairwise("ix", "mu", restricts, _order_lost)

    return rows


def _starred(rows: Sequence[_ClauseRow]) -> list[_ClauseRow]:
    """Clause rows as the right-operator duals: `*` added to each clause
    id, and to the witness's "clause"."""
    return [(cid + "*", st, w and {**w, "clause": w["clause"] + "*"}, c) for cid, st, w, c in rows]


def verify_prop_3_4(ws: Workspace) -> VerificationReport:
    """Nine transfer-map clauses between the fuzzy ideals of the base and of
    its left operator semiring, plus the right-operator duals.

    The rows of a side are decided once per resolved side
    (`Workspace.resolve`), map objects and unity gates, so on a commutative
    base, where R is L and holds L's maps, the duals are L's rows, starred."""
    chain = ws.config.chain

    def clause_rows(side, lift_roundtrip_ok, restrict_roundtrip_ok):
        key = ("clauses", ws.resolve(side), _MAPS[side, "lift"], _MAPS[side, "restrict"],
               lift_roundtrip_ok, restrict_roundtrip_ok)
        return ws._once(key, lambda: _clause_rows(ws, side, lift_roundtrip_ok, restrict_roundtrip_ok))

    def check(counts, notes):
        notes.append(chain_scope_note(chain))
        rows = clause_rows("L", ws.right_unity, ws.left_unity)
        rows = rows + _starred(clause_rows("R", ws.left_unity, ws.right_unity))  # a new list: L's rows are kept

        notes.append(f"left unity: {'present' if ws.left_unity else 'absent'}")
        notes.append(f"right unity: {'present' if ws.right_unity else 'absent'}")
        notes += [f"clause {cid}: {st}" for cid, st, _, _ in rows]
        for side in "SLR":
            counts[f"fuzzy_ideals_{side}"] = len(ws.fuzzy_family(side))
        counts["checks"] = sum(c for _, _, _, c in rows)
        return next((w for _, st, w, _ in rows if st == FAIL), None)

    return ws.run_suite("prop3.4", check, chain)


def verify_theorem_3_8(ws: Workspace, kind: str = "two") -> VerificationReport:
    """The lift is an inclusion-preserving lattice isomorphism between the
    fuzzy ideals (or fuzzy right ideals) of the base and of its left operator
    semiring, at chain scale."""
    if kind not in ("two", "right"):
        raise ValueError("kind must be 'two' or 'right'")
    chain = ws.config.chain

    def check(counts, notes):
        notes.append(chain_scope_note(chain))
        ws.require_unities()
        return ws.decided("th3.8", kind, counts, notes, decide)

    def decide(counts, notes):
        on_s, on_l = ws.level_cuts("S"), ws.level_cuts("L")
        p = ws.pairs("L", "lift", kind)
        ideals_a, ideals_b, lifted = p.family, ws.fuzzy_family("L", kind), p.images
        counts["fuzzy_ideals_S"] = len(ideals_a)
        counts["fuzzy_ideals_L"] = len(ideals_b)

        # exact: a lift's cuts descend (a min over index rows) and hold the zero
        # operator, which reads sigma(0) = 1 alone, so it is in L's family exactly
        # when every cut is closed and absorbing (a non-empty absorbing cut holds 0)
        outside = ~on_l.ideal_rows(lifted, kind)
        if outside.any():
            k = int(outside.argmax())
            sigma, image = on_s.subset(ideals_a[k]).to_mapping(), on_l.subset(lifted[k]).to_mapping()
            return {"check": "image-is-ideal", "sigma": sigma, "lifted": image}
        if not p.injective:
            return {"check": "injective"}
        # the lifts are distinct ideals of L, so they are all of them unless one is missed
        missing = ideals_b[~LevelCuts.rows_in(ideals_b, lifted)]
        if len(missing):
            return {"check": "surjective", "unmatched": [on_l.subset(m).to_mapping() for m in missing[:3]]}

        # the first failing pair reports the first check it fails, in this order
        checks = {
            "inclusion-both-ways": _order_differs,
            "sum-homomorphism": _unhomomorphic("sum_table"),
            "intersection-homomorphism": _unhomomorphic("meet_table"),
        }
        counts["pairs_checked"] = len(ideals_a) ** 2
        pair = _failing_pair(
            p, lambda *args: np.logical_or.reduce([check(*args) for check in checks.values()])
        )
        if pair:
            i, j = pair
            rows = (p.family[i : i + 1], p.family[j : j + 1], p.images[i : i + 1], p.images[j : j + 1])
            failed = next(name for name, check in checks.items() if check(p, *rows, p.image)[0, 0])
            return {
                "check": failed, "sigma1": on_s.subset(ideals_a[i]).to_mapping(),
                "sigma2": on_s.subset(ideals_a[j]).to_mapping(),
            }

        # chain-scale lattice sanity: the family is every multichain of its
        # crisp ideals, so it is closed under sum and intersection exactly
        # when they are, and holds the top member (constant 1) and the bottom
        # one (1 on {0} only) exactly when the full mask and {0} are among them
        crisp = p.crisp
        reached = (on_s.sum_table(crisp, crisp), on_s.meet_table(crisp, crisp), on_s.mask_ids([on_s.full, 1]))
        if not set(crisp.ravel().tolist()).issuperset(np.concatenate([ids.ravel() for ids in reached]).tolist()):
            return {"check": "lattice-closure"}
        notes.append("enumerated ideals are closed under sum/intersection with top and bottom")
        return None

    return ws.run_suite(f"th3.8[{kind}]", check, chain)


def verify_lemmas_3_11_3_12(ws: Workspace) -> VerificationReport:
    """Characteristic functions commute with the crisp correspondences:
    lifting the characteristic function of a crisp ideal I of S equals the
    characteristic function of its operator-side image, which is itself a
    crisp ideal; dually from L back to S.

    The crisp ideals and their images are masks (`Workspace.crisp_ideals`,
    `OperatorSemiring.image_contained` and `pair_fixed`), and the
    characteristic function of I is the member (I, ..., I) over the
    config's chain, one interned id repeated.  The run's maps act cut by
    cut, so its image is the crisp image of I repeated, and each family's
    ideals are lifted, and restricted, at once as one-cut members
    (`Workspace.transfer`); the identities and ideal tests are array
    operations on ids.  Kinds whose families are the same on both sides
    (`LevelCuts.canonical`) are checked once."""

    def check(counts, notes):
        left = ws.left
        # (from, to, crisp correspondence, transfer map, its check, the ideal check, the image's name)
        directions = (
            ("S", "L", left.image_contained, ws.transfer("L", "lift"),
             "characteristic-lift", "image-is-ideal", "image"),
            ("L", "S", left.pair_fixed, ws.transfer("L", "restrict"),
             "characteristic-restrict", "preimage-is-ideal", "preimage"),
        )
        counts["identities_checked"] = 0
        passed = {}  # identities checked by each passing direction, by its families
        for kind in ("two", "right", "left"):
            for side in "SL":
                counts[f"ideals_{side}[{kind}]"] = len(ws.crisp_ideals(side, kind))
            for source, target, correspond, transfer, moved, not_ideal, label in directions:
                on_source, on_target = ws.level_cuts(source), ws.level_cuts(target)
                families = (source, on_source.canonical(kind), on_target.canonical(kind))
                if families in passed:
                    counts["identities_checked"] += passed[families]
                    continue
                ideals = ws.crisp_ideals(source, kind)
                mapped = transfer(on_source.mask_ids(ideals)[:, None])
                images = [correspond(ideal) for ideal in ideals]
                image_ids = on_target.mask_ids(images)[:, None]
                moves = (mapped != image_ids).any(axis=1)
                # an ideal is non-empty; a non-empty absorbing cut contains 0
                failed = moves | ~on_target.ideal_rows(image_ids, kind)
                k = passed[families] = int(failed.argmax()) if failed.any() else len(ideals)
                counts["identities_checked"] += k
                if k < len(ideals):
                    failure = {"check": moved, "kind": kind, "ideal": on_source.ids(ideals[k])}
                    if moves[k]:
                        return failure
                    return {**failure, "check": not_ideal, label: on_target.ids(images[k])}
        return None

    return ws.run_suite("lemmas", check)


def verify_theorem_3_15(ws: Workspace, kind: str = "two") -> VerificationReport:
    """I -> I+' is an inclusion-preserving bijection between the crisp ideals
    (or right ideals) of the base and of its left operator semiring, with the
    pair-preimage map as inverse.  The ideals and images are masks, and
    inclusion both ways is one comparison of `LevelCuts.le_table`s, each
    ideal I as the one-cut member (I,), its interned id."""
    if kind not in ("two", "right"):
        raise ValueError("kind must be 'two' or 'right'")

    def check(counts, notes):
        ws.require_unities()
        return ws.decided("th3.15", kind, counts, notes, decide)

    def decide(counts, notes):
        left = ws.left
        on_s, on_l = ws.level_cuts("S"), ws.level_cuts("L")
        A = ws.crisp_ideals("S", kind)
        B = ws.crisp_ideals("L", kind)
        images = [left.image_contained(ideal) for ideal in A]
        counts["ideals_S"] = len(A)
        counts["ideals_L"] = len(B)

        b_set = set(B)

        def image_failure(ideal, image):
            if image not in b_set:
                failed = "image-is-ideal"
            elif left.pair_fixed(image) != ideal:
                failed = "left-inverse"
            else:
                return None
            return {"check": failed, "ideal": on_s.ids(ideal), "image": on_l.ids(image)}

        failure = first_failure(image_failure, A, images)
        if failure:
            return failure
        image_set = set(images)
        if len(image_set) != len(A):
            return {"check": "injective"}
        if image_set != b_set:
            unmatched = [on_l.ids(b) for b in B if b not in image_set]
            return {"check": "surjective", "unmatched": unmatched[:3]}
        failure = first_failure(
            lambda ideal: left.image_contained(left.pair_fixed(ideal)) != ideal
            and {"check": "right-inverse", "ideal": on_l.ids(ideal)},
            B,
        )
        if failure:
            return failure
        counts["pairs_checked"] = len(A) ** 2
        a, b = on_s.mask_ids(A)[:, None], on_l.mask_ids(images)[:, None]
        pair = first_cell(on_s.le_table(a, a) != on_l.le_table(b, b))
        return pair and {
            "check": "inclusion-both-ways", "ideal1": on_s.ids(A[pair[0]]), "ideal2": on_s.ids(A[pair[1]]),
        }

    return ws.run_suite(f"th3.15[{kind}]", check)


def _fuzzy_semifield_condition(view: LevelCuts, ideals: np.ndarray) -> tuple[bool, Optional[np.ndarray]]:
    """Every non-constant member is constant on the nonzero elements, with a
    value below its value at 0.  Decided on the family's ranks
    (`LevelCuts.rank_array`), which order the elements as the grades do.
    Returns (holds, the first violator's row)."""
    ranks = view.rank_array(ideals)
    nonzero = ranks[:, 1:]
    constant = ranks.min(axis=1) == ranks.max(axis=1)
    failing = ~constant & ((nonzero.min(axis=1) != nonzero.max(axis=1)) | (nonzero[:, 0] >= ranks[:, 0]))
    first = ideals[failing.argmax()] if failing.any() else None
    return first is None, first


def _semifield_biconditional(
    semifield: bool,
    ws: Workspace,
    side: str,
    name: str,
    not_semifield_witness: Callable[[], dict],
    counts: dict,
    notes: list[str],
) -> Optional[dict]:
    """Check `semifield <=> the fuzzy semifield condition on the fuzzy
    ideals of the side` (`Workspace.semifield_condition`) as two
    implications, recording the ideal counts and one note per implication
    decided.

    `name` is the structural property ("semifield" or "gamma-semifield");
    `not_semifield_witness()` gives the payload showing the structure lacks
    it.  Returns the counterexample, or None when both implications hold."""
    holds, violator = ws.semifield_condition(side)
    view, ideals = ws.level_cuts(side), ws.fuzzy_family(side)
    counts["fuzzy_ideals"] = len(ideals)
    counts["nonconstant_ideals"] = int((~view.constant_rows(ideals)).sum())
    if semifield and not holds:
        notes.append("forward implication failed")
        return {
            "direction": f"{name}-but-fuzzy-condition-fails",
            "violating_ideal": view.subset(violator).to_mapping(),
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
        f"{view.subset(violator).to_mapping()}"
    )
    return None


def _zdf_failure_note(ws: Workspace) -> str:
    g, w = ws.structure, ws.fact("zdf_witness")
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
        if not ws.fact("mul_commutative", side):
            raise core.PreconditionUnmet("multiplication is not commutative")
        if len(r.carrier) == 1:
            raise core.PreconditionUnmet(
                "degenerate one-element semiring; nonzero quantifiers are vacuous"
            )

        semifield = ws.fact("is_semifield", side)
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
            semifield, ws, side, "semifield",
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
        commutative = ws.fact("is_commutative")
        zdf = ws.fact("zdf_witness") is None if commutative else None
        if not commutative or not zdf or len(g.S) == 1:
            if not commutative:
                notes.append("precondition failed: product is not commutative")
            elif not zdf:
                notes.append(_zdf_failure_note(ws))
            else:
                notes.append("degenerate one-element carrier; nonzero quantifiers are vacuous")
            # diagnostics still run so the report explains the instance
            if commutative and len(g.S) > 1:
                on_s, (holds, violator) = ws.level_cuts("S"), ws.semifield_condition("S")
                notes.append(f"diagnostic: gamma-semifield predicate = {ws.fact('is_gamma_semifield')}")
                if violator is not None:
                    notes.append(
                        f"diagnostic: fuzzy condition violated by {on_s.subset(violator).to_mapping()}"
                    )
                else:
                    notes.append("diagnostic: fuzzy condition holds on the enumerated ideals")
            raise core.PreconditionUnmet()  # the notes above say why

        def pair_without_inverse() -> dict:
            w = core.gamma_semifield_witness(g)
            return {"pair_without_inverse": None if w is None else [g.S[w[0]], g.G[w[1]]]}

        return _semifield_biconditional(
            ws.fact("is_gamma_semifield"), ws, "S", "gamma-semifield", pair_without_inverse, counts, notes,
        )

    return ws.run_suite("th3.18", check, chain)


def verify_semifield_transfer(ws: Workspace) -> VerificationReport:
    """A zero-divisor-free commutative base is a gamma-semifield exactly when
    its left operator semiring is a semifield.  Also reruns both fuzzy
    characterizations and records their outcomes."""
    g, chain = ws.structure, ws.config.chain

    def check(counts, notes):
        notes.append(chain_scope_note(chain))
        commutative = ws.fact("is_commutative")
        zdf = ws.fact("zdf_witness") is None if commutative else None
        left = ws.left

        gate_notes = []
        if not commutative:
            gate_notes.append("precondition failed: product is not commutative")
        elif not zdf:
            gate_notes.append(_zdf_failure_note(ws))
        if len(g.S) == 1:
            gate_notes.append("degenerate one-element carrier")
        if not (ws.left_unity and ws.right_unity):
            gate_notes.append(NO_UNITIES)
        if gate_notes:
            if commutative and len(g.S) > 1:
                gate_notes.append(
                    f"diagnostic: gamma-semifield predicate = {ws.fact('is_gamma_semifield')}"
                )
                if ws.fact("mul_commutative", "L"):
                    gate_notes.append(
                        f"diagnostic: operator-side semifield predicate = "
                        f"{ws.fact('is_semifield', 'L')}"
                    )
            raise core.PreconditionUnmet(*gate_notes)

        gamma_side = ws.fact("is_gamma_semifield")
        if not ws.fact("mul_commutative", "L"):
            raise core.PreconditionUnmet("operator semiring multiplication is not commutative")
        operator_side = ws.fact("is_semifield", "L")
        counts["carrier_S"] = len(g.S)
        counts["carrier_L"] = len(left)
        notes.append(f"gamma-semifield predicate: {gamma_side}")
        notes.append(f"operator-side semifield predicate: {operator_side}")

        holds_s, _ = ws.semifield_condition("S")
        holds_l, _ = ws.semifield_condition("L")
        counts["fuzzy_ideals_S"] = len(ws.fuzzy_family("S"))
        counts["fuzzy_ideals_L"] = len(ws.fuzzy_family("L"))
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
