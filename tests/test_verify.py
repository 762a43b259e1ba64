"""Verification suites: statuses, counts, gating, and report invariants."""

import dataclasses
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from gsl import core, fuzzy, matrix, operators, verify
from gsl.config import RunConfig
from gsl.fuzzy import FuzzySubset, GradeChain, LevelCuts
from gsl.matrix import MatrixCapExceeded
from gsl.report import FAIL, PASS, UNMET, VerificationReport, first_failure
from oracles import (
    cuts_of,
    family,
    first_failing_pair,
    fraction_semifield_condition,
    fuzzy_family,
    install_map,
    mask_map,
    subset_map,
    table_pair_clause_rows,
)

HALF = Fraction(1, 2)
CHAIN = GradeChain.of(0, HALF, 1)
CRISP = GradeChain.of(0, 1)


def ws(structure, **config):
    """A fresh workspace over CHAIN."""
    return verify.Workspace(structure, RunConfig(chain=CHAIN, **config))


class TestWorkspace:
    @pytest.mark.parametrize("suite, decides", [
        (verify.verify_theorem_3_8, "_failing_pair"), (verify.verify_theorem_3_15, "first_failure"),
    ])
    def test_right_reuses_the_two_verdict_when_the_families_agree(self, monkeypatch, gb, upper_triangular,
                                                                  suite, decides):
        """On a commutative instance "right" names the "two" families on S
        and on L, so the [right] report is the [two] one under its own name,
        and the check runs once; on upper_triangular the families differ
        and each kind is checked.  A cap gives both kinds the same body."""
        calls = []
        real = getattr(verify, decides)
        monkeypatch.setattr(verify, decides, lambda *args: calls.append(1) or real(*args))

        def bodies(g, **config):
            w = ws(g, **config)
            two, right = (suite(w, kind).body() for kind in ("two", "right"))
            return two, {**right, "suite": two["suite"]}

        two, right = bodies(gb)
        assert two == right and two["status"] == PASS
        once = len(calls)
        two, right = bodies(upper_triangular)
        assert len(calls) == 3 * once
        capped = bodies(gb, enum_cap=1, closure_cap=1)
        assert capped[0] == capped[1] and capped[0]["status"] == UNMET
        capped = bodies(gb, enum_cap=1)
        assert capped[0] == capped[1] and capped[0]["status"] == UNMET

    def test_families_are_shared_read_only_arrays(self, gb):
        """A fuzzy family is the same read-only id array on every call, so no
        suite can change what the next one reads; crisp families are
        tuples."""
        w = ws(gb)
        ideals = w.fuzzy_family("L", "right")
        assert isinstance(ideals, np.ndarray) and w.fuzzy_family("L", "right") is ideals
        assert ideals.shape == (3, len(CHAIN) - 1)
        with pytest.raises(ValueError, match="read-only"):
            ideals[0, 0] = ideals[-1, 0]
        assert isinstance(w.crisp_ideals("S"), tuple) and w.crisp_ideals("S") is w.crisp_ideals("S")
        with pytest.raises(ValueError):
            w.fuzzy_family("G")

    def test_matrix_cap_raises_on_every_access(self, z4):
        w = ws(z4)
        for _ in range(2):
            with pytest.raises(MatrixCapExceeded, match="cap is 16"):
                w.matrix

    def test_kept_cap_hit_leaves_no_reference_cycle(self, gb, z4):
        """A kept cap error holds no traceback into the workspace, so a
        gated run's workspace is freed as soon as it is dropped."""
        import gc
        import weakref

        gc.disable()
        try:
            for structure, caps in ((z4, {}), (gb, {"closure_cap": 1})):
                w = ws(structure, **caps)
                reports = verify.SUITES["matrix"](w, verify.KINDS)
                assert [r.status for r in reports] == [UNMET] * 3
                ref = weakref.ref(w)
                del w
                assert ref() is None
        finally:
            gc.enable()


class TestProp34:
    def test_gb_z2_z4_all_clauses_pass(self, gb, z2, z4):
        for g, n_ideals in ((gb, 3), (z2, 3), (z4, 6)):
            report = verify.verify_prop_3_4(ws(g))
            assert report.status == PASS, report.counterexample
            assert report.counts["fuzzy_ideals_S"] == n_ideals
            clause_notes = [n for n in report.notes if n.startswith("clause ")]
            assert len(clause_notes) == 22  # 11 primal + 11 dual
            assert all(n.endswith(PASS) for n in clause_notes)

    def test_unity_gating_on_zero_product(self, zero_product):
        report = verify.verify_prop_3_4(ws(zero_product))
        assert report.status != FAIL
        gated = {
            n.split(":")[0].removeprefix("clause ").strip()
            for n in report.notes
            if n.startswith("clause ") and n.endswith(UNMET)
        }
        assert {"ii", "iii", "i-nonconstant", "vii-nonconstant", "viii"} <= gated


class TestTheorem38:
    @pytest.mark.parametrize("kind", ["two", "right"])
    def test_bijection_counts(self, gb, z2, z4, kind):
        for g, count in ((gb, 3), (z2, 3), (z4, 6)):
            report = verify.verify_theorem_3_8(ws(g), kind)
            assert report.status == PASS, report.counterexample
            assert report.counts["fuzzy_ideals_S"] == count
            assert report.counts["fuzzy_ideals_L"] == count

    def test_unity_gate(self, zero_product):
        report = verify.verify_theorem_3_8(ws(zero_product), "two")
        assert report.status == UNMET


class TestLemmasAndTheorem315:
    def test_lemmas_pass(self, gb, z2, z4):
        for g in (gb, z2, z4):
            report = verify.verify_lemmas_3_11_3_12(ws(g))
            assert report.status == PASS, report.counterexample

    def test_z4_explicit_pairing(self, z4):
        from gsl.operators import build_operator_semiring

        left = build_operator_semiring(z4, "left")
        assert left.image_contained(0b101) == 0b101  # {0, 2}+' = {f0, f2}

    @pytest.mark.parametrize("kind", ["two", "right"])
    def test_315_counts(self, gb, z2, z4, kind):
        for g, count in ((gb, 2), (z2, 2), (z4, 3)):
            report = verify.verify_theorem_3_15(ws(g), kind)
            assert report.status == PASS, report.counterexample
            assert report.counts["ideals_S"] == count
            assert report.counts["ideals_L"] == count

    def test_315_unity_gate(self, zero_product):
        assert verify.verify_theorem_3_15(ws(zero_product), "two").status == UNMET


class TestTheorem317:
    def test_boolean_semifield_side(self, bool_sr):
        report = verify.verify_theorem_3_17(ws(bool_sr))
        assert report.status == PASS
        assert report.counts["fuzzy_ideals"] == 3
        assert any("cross-check agrees" in n for n in report.notes)

    def test_z4_nonsemifield_side(self, z4_sr):
        report = verify.verify_theorem_3_17(ws(z4_sr))
        assert report.status == PASS
        assert any("fuzzy violator" in n for n in report.notes)

    def test_z2_field(self):
        report = verify.verify_theorem_3_17(ws(core.zn_semiring(2)))
        assert report.status == PASS

    def test_lambda_even_is_the_named_violator(self, z4_sr):
        # the characteristic function of {0,2} is enumerated and violates
        # the constant-below-one condition
        view = LevelCuts(z4_sr, CHAIN)
        lam = next(row for row in view.fuzzy_ideals("two") if view.subset(row).grades == (1, 0, 1, 0))
        assert not view.constant_rows(lam[None])[0]
        holds, violator = verify._fuzzy_semifield_condition(view, lam[None])
        assert not holds and (violator == lam).all()
        # constancy compares every rank with the first: a constant subset
        # passes, one below 1 off zero passes, and a rank that differs only
        # at the last position is seen
        rows = family(view, [
            cuts_of(view, FuzzySubset.of_grades(z4_sr, grades))
            for grades in ([HALF] * 4, [1, HALF, HALF, HALF], [HALF, HALF, HALF, 0])
        ])
        assert view.constant_rows(rows).tolist() == [True, False, False]
        holds, violator = verify._fuzzy_semifield_condition(view, rows)
        assert not holds and (violator == rows[2]).all()

    def test_rank_condition_matches_the_fraction_oracle(self):
        """The condition on ranks gives the flag and the first violator the
        `Fraction` reference gives, on every family of S, L and R, two-sided
        and right, on 2-, 3- and 5-grade chains: 108 families."""
        instances = [core.boolean_gamma(), *(core.zn_gamma(n) for n in (2, 3, 4, 6))]
        instances.append(core.gamma_from_semiring(core.boolean_power_semiring(3)))
        outcomes = []
        for g in instances:
            for chain in ("0,1", "0,1/2,1", "0,1/4,1/2,3/4,1"):
                w = verify.Workspace(g, RunConfig(chain=GradeChain.parse(chain)))
                for side in "SLR":
                    view = w.level_cuts(side)
                    for kind in ("two", "right"):
                        holds, violator = verify._fuzzy_semifield_condition(view, w.fuzzy_family(side, kind))
                        want = fraction_semifield_condition(fuzzy_family(w, side, kind))
                        got = (holds, None if violator is None else view.subset(violator))
                        assert got == want, (g.name, chain, side, kind)
                        outcomes.append(holds)
        assert len(outcomes) == 108 and any(outcomes) and not all(outcomes)

    def test_noncommutative_gate(self, bool_sr):
        from gsl.matrix import matrix_semiring

        report = verify.verify_theorem_3_17(ws(matrix_semiring(bool_sr, 2)))
        assert report.status == UNMET

    def test_one_element_gate(self):
        one = core.Semiring("zero", ("0",), ((0,),), ((0,),))
        assert verify.verify_theorem_3_17(ws(one)).status == UNMET


class TestTheorem318:
    def test_gb_and_z2_pass(self, gb, z2):
        for g in (gb, z2):
            report = verify.verify_theorem_3_18(ws(g))
            assert report.status == PASS, report.counterexample

    def test_z4_gated_with_diagnostics(self, z4):
        report = verify.verify_theorem_3_18(ws(z4))
        assert report.status == UNMET
        assert any("not zero-divisor free" in n for n in report.notes)
        assert any("gamma-semifield predicate = False" in n for n in report.notes)
        assert any("fuzzy condition violated" in n for n in report.notes)


class TestSemifieldTransfer:
    def test_gb_z2_z3(self, gb, z2, z3):
        for g in (gb, z2, z3):
            report = verify.verify_semifield_transfer(ws(g))
            assert report.status == PASS, report.counterexample
            assert any("gamma-semifield predicate: True" in n for n in report.notes)
            assert any("operator-side semifield predicate: True" in n for n in report.notes)

    def test_z4_gated(self, z4):
        report = verify.verify_semifield_transfer(ws(z4))
        assert report.status == UNMET
        assert any("diagnostic: gamma-semifield predicate = False" in n for n in report.notes)
        assert any("operator-side semifield predicate = False" in n for n in report.notes)


def _count_calls(monkeypatch, fn) -> list:
    """Replace every `gsl` module's reference to fn by a wrapper that records
    each call's arguments in the returned list."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "gsl" or name.startswith("gsl."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestRunAll:
    def test_boolean_zero_fails(self, gb):
        reports = verify.run_all(gb, RunConfig(chain=CHAIN))
        assert len(reports) == 12
        assert all(r.status != FAIL for r in reports)
        assert [r.suite for r in reports] == [
            "prop3.4",
            "th3.8[two]",
            "th3.8[right]",
            "lemmas",
            "th3.15[two]",
            "th3.15[right]",
            "th3.17",
            "th3.18",
            "transfer-semifield",
            "matrix-iso[left]",
            "matrix-iso[right]",
            "th3.19",
        ]

    def test_z4_zero_fails_with_gated_suites(self, z4):
        reports = verify.run_all(z4, RunConfig(chain=CHAIN))
        statuses = {r.suite: r.status for r in reports}
        assert statuses["th3.18"] == UNMET
        assert statuses["transfer-semifield"] == UNMET
        assert statuses["th3.19"] == UNMET  # 256-element matrix exceeds the cap
        assert all(s != FAIL for s in statuses.values())

    def test_from_b4_statuses_counts_and_digest(self):
        """The largest families tier-1 sees: 81 fuzzy ideals on each side.
        The digest (sha256 of the bodies as sorted-key JSON) was recorded
        while prop3.4 and th3.8 still scanned their pairs one at a time."""
        g = core.gamma_from_semiring(core.boolean_power_semiring(4))
        bodies = [r.body() for r in verify.run_all(g, RunConfig(chain=CHAIN))]
        ideals = {"fuzzy_ideals_L": 81, "fuzzy_ideals_S": 81}
        crisp = {f"ideals_{side}[{kind}]": 16 for side in "LS" for kind in ("left", "right", "two")}
        matrix_cap = {"matrix_carrier": 65536}
        assert [(b["suite"], b["status"], b["counts"]) for b in bodies] == [
            ("prop3.4", PASS, {"checks": 53622, **ideals, "fuzzy_ideals_R": 81}),
            ("th3.8[two]", PASS, {**ideals, "pairs_checked": 6561}),
            ("th3.8[right]", PASS, {**ideals, "pairs_checked": 6561}),
            ("lemmas", PASS, {**crisp, "identities_checked": 96}),
            ("th3.15[two]", PASS, {"ideals_L": 16, "ideals_S": 16, "pairs_checked": 256}),
            ("th3.15[right]", PASS, {"ideals_L": 16, "ideals_S": 16, "pairs_checked": 256}),
            ("th3.17", PASS, {"fuzzy_ideals": 81, "nonconstant_ideals": 80}),
            ("th3.18", UNMET, {}),
            ("transfer-semifield", UNMET, {}),
            ("matrix-iso[left]", UNMET, matrix_cap),
            ("matrix-iso[right]", UNMET, matrix_cap),
            ("th3.19", UNMET, matrix_cap),
        ]
        digest = hashlib.sha256(json.dumps(bodies, sort_keys=True).encode()).hexdigest()
        assert digest == "057d5cc40456011dd468dc2c0e685f18cd6d64cb868c7efae4f0178f354dfc71"

    def test_from_b5_on_five_grades_statuses_counts_and_digest(self):
        """3125 fuzzy ideals on each side, 78 million clause checks: past
        the reach of any N x N table, so prop3.4 and th3.8 pass on crisp
        cuts.  The digest was recorded with the N x N tables, which took
        86 s and 2.4 GB for this run on a 2-vCPU machine."""
        g = core.gamma_from_semiring(core.boolean_power_semiring(5))
        config = RunConfig(chain=GradeChain.parse("0,1/4,1/2,3/4,1"), enum_cap=10**40)
        bodies = [r.body() for r in verify.run_all(g, config)]
        ideals = {"fuzzy_ideals_L": 3125, "fuzzy_ideals_S": 3125}
        crisp = {f"ideals_{side}[{kind}]": 32 for side in "LS" for kind in ("left", "right", "two")}
        matrix_cap = {"matrix_carrier": 1048576}
        assert [(b["suite"], b["status"], b["counts"]) for b in bodies] == [
            ("prop3.4", PASS, {"checks": 78168750, **ideals, "fuzzy_ideals_R": 3125}),
            ("th3.8[two]", PASS, {**ideals, "pairs_checked": 9765625}),
            ("th3.8[right]", PASS, {**ideals, "pairs_checked": 9765625}),
            ("lemmas", PASS, {**crisp, "identities_checked": 192}),
            ("th3.15[two]", PASS, {"ideals_L": 32, "ideals_S": 32, "pairs_checked": 1024}),
            ("th3.15[right]", PASS, {"ideals_L": 32, "ideals_S": 32, "pairs_checked": 1024}),
            ("th3.17", PASS, {"fuzzy_ideals": 3125, "nonconstant_ideals": 3124}),
            ("th3.18", UNMET, {}),
            ("transfer-semifield", UNMET, {}),
            ("matrix-iso[left]", UNMET, matrix_cap),
            ("matrix-iso[right]", UNMET, matrix_cap),
            ("th3.19", UNMET, matrix_cap),
        ]
        digest = hashlib.sha256(json.dumps(bodies, sort_keys=True).encode()).hexdigest()
        assert digest == "f22da1e514d91d8f0a5fc4d9a10c38caba8db2a5cff032811898029777d5f520"

    def test_semiring_input(self, bool_sr):
        reports = verify.run_all(bool_sr, RunConfig(chain=CHAIN))
        assert [r.suite for r in reports] == ["th3.17"]

    def test_one_run_builds_each_structure_once(self, monkeypatch, gb):
        """L of the base, the matrix instance and that instance's own left
        and right operator semirings are each built once per run; R of the
        commutative base is L and is not built."""
        closures = _count_calls(monkeypatch, operators.build_operator_semiring)
        matrices = _count_calls(monkeypatch, matrix.build_matrix_gamma)
        reports = verify.run_all(gb, RunConfig(chain=CHAIN))
        assert [r.status for r in reports if r.suite in ("matrix-iso[left]", "th3.19")] == [PASS, PASS]
        assert [(g.name, side) for g, side in closures] == [
            ("boolean", "left"), ("boolean[2x2]", "left"), ("boolean[2x2]", "right"),
        ]
        assert len(matrices) == 1

    @pytest.mark.parametrize("instance,views", [
        (core.boolean_gamma, 3),
        (lambda: core.zn_gamma(4), 2),
        (lambda: core.gamma_from_semiring(core.boolean_power_semiring(3)), 2),
    ], ids=["boolean", "z4", "from_B3"])
    def test_one_run_builds_one_level_cut_view_per_structure(self, monkeypatch, instance, views):
        """prop3.4, th3.8 and th3.19's base side share the workspace's views
        of S and L, which R shares too, since on these commutative instances
        R's tables are L's; th3.19's matrix side, where it runs (boolean),
        adds the workspace's view of the matrix instance, which cuts the
        lifts and enumerates the matrix instance's fuzzy ideals."""
        built = []
        real_init = LevelCuts.__init__

        def counting(cuts, structure, chain):
            built.append(structure)
            real_init(cuts, structure, chain)

        monkeypatch.setattr(LevelCuts, "__init__", counting)
        verify.run_all(instance(), RunConfig(chain=CHAIN))
        assert len(built) == views

    @pytest.mark.parametrize("instance,enumerations", [
        (core.boolean_gamma, 3),
        (lambda: core.zn_gamma(3), 2),
        (lambda: core.zn_gamma(4), 2),
        (lambda: core.gamma_from_semiring(core.boolean_power_semiring(3)), 2),
    ], ids=["boolean", "z3", "z4", "from_B3"])
    def test_one_run_enumerates_each_ideal_family_once(self, monkeypatch, instance, enumerations):
        """One closure-system enumeration per structure and distinct
        absorption images a run needs.  These instances are commutative, and
        so are L and R, so the left, right and two-sided ideals of each
        structure are one family, and R, whose tables are L's, shares L's:
        one enumeration each for S and L, and on boolean one for the matrix
        instance (th3.19).  The crisp suites build no `CrispSubset`."""
        closures = _count_calls(monkeypatch, fuzzy._crisp_ideal_masks)
        crisp = []
        monkeypatch.setattr(fuzzy.CrispSubset, "__post_init__", lambda subset: crisp.append(subset))
        reports = verify.run_all(instance(), RunConfig(chain=CHAIN))
        assert all(r.status != FAIL for r in reports)
        assert len(closures) == enumerations
        assert crisp == []

    def test_suites_make_no_fraction_lattice_calls(self, monkeypatch, gb, z2):
        """Inclusions, sums and meets are level-cut work in every suite,
        th3.19 included."""
        sums = _count_calls(monkeypatch, fuzzy.fuzzy_sum)
        meets = _count_calls(monkeypatch, fuzzy.fuzzy_intersection)
        inclusions = []
        real_le = FuzzySubset.__le__
        monkeypatch.setattr(
            FuzzySubset, "__le__", lambda a, b: inclusions.append((a, b)) or real_le(a, b)
        )
        for g in (gb, z2):
            reports = verify.run_all(g, RunConfig(chain=CHAIN))
            assert all(r.status == PASS for r in reports if r.suite == "th3.19")
        assert (sums, meets, inclusions) == ([], [], [])

    def test_enumeration_cap_hit_gates_one_suite_at_a_time(self, z4):
        """A cap hit turns the suite that hit it into precondition-unmet, with
        the cap's text first and what the suite had gathered after it; the
        run still returns every report."""
        reports = verify.run_all(z4, RunConfig(enum_cap=10))
        assert [r.suite for r in reports] == [r.suite for r in verify.run_all(z4, RunConfig())]
        assert all(r.status == UNMET and r.counterexample is None for r in reports)
        fuzzy_cap, crisp_cap = "27 candidates (= 3^3) exceed cap 10", "2^4 subsets exceed cap 10"
        first_notes = {r.suite: r.notes[0] for r in reports}
        for suite in ("prop3.4", "th3.8[two]", "th3.8[right]", "th3.17", "th3.18"):
            assert first_notes[suite] == fuzzy_cap
        for suite in ("lemmas", "th3.15[two]", "th3.15[right]"):
            assert first_notes[suite] == crisp_cap
        # transfer-semifield is gated on zero-divisor freeness before it enumerates
        transfer = next(r for r in reports if r.suite == "transfer-semifield")
        assert any("not zero-divisor free" in n for n in transfer.notes)
        th318 = next(r for r in reports if r.suite == "th3.18").body()
        assert th318["counts"] == {}
        assert th318["notes"] == [
            fuzzy_cap,
            TestForcedSemifieldPayloads.NOTE,
            "precondition failed: not zero-divisor free, witness 1@2@2 = 0",
        ]
        lemmas = next(r for r in reports if r.suite == "lemmas").body()
        assert lemmas["counts"] == {"identities_checked": 0}

    def test_closure_cap_hit_gates_every_suite_that_needs_l_or_r(self, gb):
        """A closure cap on L or R gates each suite that needs them, with the
        cap's text first; th3.18 needs neither and still passes."""
        reports = verify.run_all(gb, RunConfig(closure_cap=1))
        assert [r.suite for r in reports] == [r.suite for r in verify.run_all(gb, RunConfig())]
        for r in reports:
            if r.suite == "th3.18":
                assert r.status == PASS
            else:
                assert r.status == UNMET and r.counterexample is None, r.suite
                assert r.notes[0].endswith("closure exceeds cap 1 elements"), r.suite
        th317 = next(r for r in reports if r.suite == "th3.17")
        assert th317.instance == "boolean::L"

    def test_closure_cap_hit_is_built_once_per_side(self, monkeypatch, gb):
        """The workspace keeps a closure-cap hit, so no later suite retries
        the closure of the base up to the cap."""
        closures = _count_calls(monkeypatch, operators.build_operator_semiring)
        verify.run_all(gb, RunConfig(closure_cap=1))
        sides = [side for structure, side in closures if structure is gb]
        assert sides and len(sides) == len(set(sides))

    def test_matrix_cap_gives_one_body_from_either_entry(self, z4):
        """`--suite matrix` and `--suite all` gate a capped matrix instance
        with the same three bodies."""
        config = RunConfig(chain=CHAIN)
        alone = verify.SUITES["matrix"](verify.Workspace(z4, config), verify.KINDS)
        in_run = verify.run_all(z4, config)[-3:]
        assert [r.body() for r in alone] == [r.body() for r in in_run]
        assert alone[0].body() == {
            "suite": "matrix-iso[left]",
            "instance": "z4",
            "chain": None,
            "status": UNMET,
            "counterexample": None,
            "counts": {"matrix_carrier": 256},
            "notes": ["matrix carrier would have 256 elements, cap is 16"],
        }
        assert alone[2].chain == CHAIN

    def test_reports_deterministic(self, z4):
        a = verify.run_all(z4, RunConfig(chain=CHAIN))
        b = verify.run_all(z4, RunConfig(chain=CHAIN))
        assert [r.body() for r in a] == [r.body() for r in b]


class TestClauseEngineFailPaths:
    def test_broken_lift_produces_replayable_witnesses(self, monkeypatch, gb):
        """Feeding the clause engine a collapsing lift must surface failures
        with full grade payloads, not mask them."""
        from gsl.transfer import restrict_plus

        w = ws(gb)
        left = w.left
        collapse = lambda mask: _every_element(left)  # every fuzzy subset to the constant 1
        rows = _rows_matching_the_table_oracle(monkeypatch, w, collapse, _crisp(w, "restrict"), True, True)
        bottom, middle, top = {"0": "1/1", "1": "0/1"}, {"0": "1/1", "1": "1/2"}, {"0": "1/1", "1": "1/1"}
        bottom_l = {"f0": "1/1", "f1": "0/1"}
        assert rows == [
            ("i", PASS, None, 3),
            ("i-nonconstant", FAIL, {"clause": "i-nonconstant", "sigma": bottom}, 3),
            ("ii", FAIL, {"clause": "ii", "sigma": bottom, "roundtrip": top}, 3),
            ("iii", FAIL, {"clause": "iii", "sigma1": bottom, "sigma2": middle}, 3),
            ("iv", PASS, None, 9),
            ("v", PASS, None, 9),
            ("vi", PASS, None, 9),
            ("vii", PASS, None, 3),
            ("vii-nonconstant", PASS, None, 3),
            ("viii", FAIL, {"clause": "viii", "mu": bottom_l, "roundtrip": {"f0": "1/1", "f1": "1/1"}}, 3),
            ("ix", PASS, None, 9),
        ]
        witness = rows[2][2]
        # the witness re-checks: the recorded round-trip really differs
        sigma = FuzzySubset.from_mapping(gb, {k: v for k, v in witness["sigma"].items()})
        back = restrict_plus(left, FuzzySubset.constant(left, 1))
        assert back.to_mapping() == witness["roundtrip"] != witness["sigma"]

    def test_swapped_maps_fail_pair_clauses_with_first_witnesses(self, monkeypatch, gb):
        """Swapping the bottom and top crisp ideals before the lift and after
        the restriction, on the chain {0, 1}, breaks the pair clauses iv, v,
        vi and ix; the whole row list, first witnesses included, is pinned.
        (On a longer chain the swap would give members cuts that do not
        descend.)"""
        w = verify.Workspace(gb, RunConfig(chain=CRISP))
        lift, restrict = _crisp(w, "lift"), _crisp(w, "restrict")
        swap = {0b1: 0b11, 0b11: 0b1}
        rows = _rows_matching_the_table_oracle(
            monkeypatch,
            w,
            lambda mask: lift(swap.get(mask, mask)),
            lambda mask: swap.get(restrict(mask), restrict(mask)),
            True,
            True,
        )
        bottom, top = {"0": "1/1", "1": "0/1"}, {"0": "1/1", "1": "1/1"}
        bottom_l, top_l = {"f0": "1/1", "f1": "0/1"}, {"f0": "1/1", "f1": "1/1"}
        assert rows == [
            ("i", PASS, None, 2),
            ("i-nonconstant", FAIL, {"clause": "i-nonconstant", "sigma": bottom}, 2),
            ("ii", PASS, None, 2),
            ("iii", PASS, None, 2),
            ("iv", FAIL, {"clause": "iv", "sigma1": bottom, "sigma2": top}, 4),
            ("v", FAIL, {"clause": "v", "sigma1": bottom, "sigma2": top}, 4),
            ("vi", FAIL, {"clause": "vi", "sigma1": bottom, "sigma2": top}, 4),
            ("vii", PASS, None, 2),
            ("vii-nonconstant", FAIL, {"clause": "vii-nonconstant", "mu": bottom_l}, 2),
            ("viii", PASS, None, 2),
            ("ix", FAIL, {"clause": "ix", "mu1": bottom_l, "mu2": top_l}, 4),
        ]

    def test_reversed_maps_fail_ideal_clauses_and_gate_the_restrict_roundtrip(self, monkeypatch, gb):
        """Reversing the grades of every non-constant lift and restriction
        makes them non-ideals, so clauses i and vii fail with their first
        witnesses; a missing own-side unity gates vii-nonconstant and viii.
        Reversing the carrier order reverses each cut, so the maps act cut
        by cut."""
        w = ws(gb)
        left = w.left
        lift, restrict = _crisp(w, "lift"), _crisp(w, "restrict")
        rows = _rows_matching_the_table_oracle(
            monkeypatch,
            w,
            lambda mask: _reversed_mask(lift(mask), len(left)),
            lambda mask: _reversed_mask(restrict(mask), len(left.base.S)),
            True,
            False,
        )
        bottom, middle = {"0": "1/1", "1": "0/1"}, {"0": "1/1", "1": "1/2"}
        bottom_l = {"f0": "1/1", "f1": "0/1"}
        assert rows == [
            ("i", FAIL, {"clause": "i", "sigma": bottom, "lifted": {"f0": "0/1", "f1": "1/1"}}, 3),
            ("i-nonconstant", PASS, None, 3),
            ("ii", FAIL, {"clause": "ii", "sigma": bottom, "roundtrip": {"0": "0/1", "1": "0/1"}}, 3),
            ("iii", PASS, None, 3),
            ("iv", FAIL, {"clause": "iv", "sigma1": bottom, "sigma2": middle}, 9),
            ("v", PASS, None, 9),
            ("vi", PASS, None, 9),
            ("vii", FAIL, {"clause": "vii", "mu": bottom_l, "restricted": {"0": "0/1", "1": "1/1"}}, 3),
            ("vii-nonconstant", UNMET, None, 0),
            ("viii", UNMET, None, 0),
            ("ix", PASS, None, 9),
        ]


def _rows_matching_the_table_oracle(monkeypatch, w, lift, restrict, lift_roundtrip_ok, restrict_roundtrip_ok):
    """`verify._clause_rows` on the L side, with these maps on masks
    installed as the left lift and restriction, after checking that scan
    blocks of one row, a few rows or the default give the same rows, and
    its pair rows against the all-at-once table oracle, which applies the
    maps cut by cut."""
    install_map(monkeypatch, "L", "lift", lambda op, mask: lift(mask))
    install_map(monkeypatch, "L", "restrict", lambda op, mask: restrict(mask))
    by_block = []
    for cells in (1, 100, verify._SCAN_CELLS):
        monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
        by_block.append(verify._clause_rows(
            w, "L", lift_roundtrip_ok=lift_roundtrip_ok, restrict_roundtrip_ok=restrict_roundtrip_ok,
        ))
    rows = by_block[-1]
    assert by_block == [rows] * 3
    pair_rows = [row for row in rows if row[0] in ("iv", "v", "vi", "ix")]
    maps = (subset_map(w.config.chain, d, w.left, verify._MAPS["L", d]) for d in ("lift", "restrict"))
    assert pair_rows == table_pair_clause_rows(w, "L", *maps)
    return rows


def _crisp(w, direction, side="L"):
    """The true crisp lift or restriction between S and `side`, on one
    mask."""
    over = w.left if side == "L" else w.matrix
    return mask_map(direction, over, verify._MAPS[side, direction])


def _reversed_mask(mask, size):
    """mask with its elements in reverse carrier order: cut by cut, a fuzzy
    subset's grades reversed, so a non-constant fuzzy ideal becomes a
    non-ideal, since it no longer peaks at zero."""
    return sum(1 << (size - 1 - x) for x in range(size) if mask >> x & 1)


def _every_element(op):
    """The mask of every element of the operator semiring."""
    return (1 << len(op)) - 1


def _every_base_element(op):
    """The mask of every element of the base."""
    return (1 << len(op.base.S)) - 1


# operand masks: {0, 2} of S (or {f0, f2} of L) and {0}
EVEN, ZERO = 0b101, 0b1


class TestFailPathBodies:
    """Break the map one scan uses and pin the whole failing report body, so
    the first witness, the counts gathered up to it and the notes all show."""

    SCOPE = (
        "grades restricted to the chain {0/1, 1/2, 1/1}; the chain is min/max-closed, "
        "so every operation checked stays in-chain"
    )

    @staticmethod
    def _break_on(monkeypatch, name, mask, wrong):
        """Make the crisp correspondence `OperatorSemiring.name` return
        wrong(op) for the operand with this mask."""
        real = getattr(operators.OperatorSemiring, name)
        monkeypatch.setattr(
            operators.OperatorSemiring, name,
            lambda op, operand: wrong(op) if operand == mask else real(op, operand),
        )

    def test_th38_image_is_ideal(self, monkeypatch, gb):
        w = ws(gb)
        lift = _crisp(w, "lift")
        install_map(monkeypatch, "L", "lift", lambda op, mask: _reversed_mask(lift(mask), len(op)))
        assert verify.verify_theorem_3_8(w, "two").body() == {
            "suite": "th3.8[two]",
            "instance": "boolean",
            "chain": ["0/1", "1/2", "1/1"],
            "status": FAIL,
            "counterexample": {
                "check": "image-is-ideal",
                "sigma": {"0": "1/1", "1": "0/1"},
                "lifted": {"f0": "0/1", "f1": "1/1"},
            },
            "counts": {"fuzzy_ideals_L": 3, "fuzzy_ideals_S": 3},
            "notes": [self.SCOPE],
        }

    def test_th38_injective(self, monkeypatch, z4):
        """The lift of {0, 2} sent where {0} goes: a monotone crisp map, so
        every lift is a fuzzy ideal of L, but two of them coincide."""
        w = ws(z4)
        lift = _crisp(w, "lift")
        install_map(monkeypatch, "L", "lift", lambda op, mask: lift(ZERO if mask == EVEN else mask))
        assert verify.verify_theorem_3_8(w, "two").body() == {
            "suite": "th3.8[two]",
            "instance": "z4",
            "chain": ["0/1", "1/2", "1/1"],
            "status": FAIL,
            "counterexample": {"check": "injective"},
            "counts": {"fuzzy_ideals_L": 6, "fuzzy_ideals_S": 6},
            "notes": [self.SCOPE],
        }

    def test_th38_surjective(self, monkeypatch, z4):
        """The fuzzy ideals of L with a seventh member, grade 1 on f0 and f1
        and 1/2 elsewhere: the lifts are distinct ideals of L, but that
        member is no lift."""
        w = ws(z4)
        on_l, real = w.level_cuts("L"), w.fuzzy_family
        extra = family(on_l, [(on_l.full, 0b11)])
        monkeypatch.setattr(
            w, "fuzzy_family",
            lambda side, kind="two": np.concatenate([real(side, kind), extra]) if side == "L" else real(side, kind),
        )
        assert verify.verify_theorem_3_8(w, "two").body() == {
            "suite": "th3.8[two]",
            "instance": "z4",
            "chain": ["0/1", "1/2", "1/1"],
            "status": FAIL,
            "counterexample": {"check": "surjective", "unmatched": [{"f0": "1/1", "f1": "1/1", "f2": "1/2", "f3": "1/2"}]},
            "counts": {"fuzzy_ideals_L": 7, "fuzzy_ideals_S": 6},
            "notes": [self.SCOPE],
        }

    def test_lemmas_characteristic_lift(self, monkeypatch, z4):
        self._break_on(monkeypatch, "image_contained", EVEN, _every_element)
        assert verify.verify_lemmas_3_11_3_12(ws(z4)).body() == {
            "suite": "lemmas",
            "instance": "z4",
            "chain": None,
            "status": FAIL,
            "counterexample": {"check": "characteristic-lift", "kind": "two", "ideal": ["0", "2"]},
            "counts": {"ideals_L[two]": 3, "ideals_S[two]": 3, "identities_checked": 1},
            "notes": [],
        }

    def test_lemmas_characteristic_restrict(self, monkeypatch, z4):
        self._break_on(monkeypatch, "pair_fixed", EVEN, _every_base_element)
        assert verify.verify_lemmas_3_11_3_12(ws(z4)).body() == {
            "suite": "lemmas",
            "instance": "z4",
            "chain": None,
            "status": FAIL,
            "counterexample": {"check": "characteristic-restrict", "kind": "two", "ideal": ["f0", "f2"]},
            "counts": {"ideals_L[two]": 3, "ideals_S[two]": 3, "identities_checked": 4},
            "notes": [],
        }

    def test_lemmas_empty_image_is_not_an_ideal(self, monkeypatch, z4):
        """An empty image of {0}, with a lift that agrees with it (the mask
        {0} goes to the empty mask), fails as no ideal: an ideal contains 0,
        also when tested on masks."""
        w = ws(z4)
        lift = _crisp(w, "lift")
        self._break_on(monkeypatch, "image_contained", ZERO, lambda op: 0)
        install_map(monkeypatch, "L", "lift", lambda op, mask: 0 if mask == ZERO else lift(mask))
        assert verify.verify_lemmas_3_11_3_12(w).body() == {
            "suite": "lemmas",
            "instance": "z4",
            "chain": None,
            "status": FAIL,
            "counterexample": {"check": "image-is-ideal", "kind": "two", "ideal": ["0"], "image": []},
            "counts": {"ideals_L[two]": 3, "ideals_S[two]": 3, "identities_checked": 0},
            "notes": [],
        }

    def test_lemmas_empty_preimage_is_not_an_ideal(self, monkeypatch, z4):
        """Dually, an empty preimage of {f0}, with a restriction that agrees
        with it, fails as no ideal once every lift has passed."""
        w = ws(z4)
        restrict = _crisp(w, "restrict")
        self._break_on(monkeypatch, "pair_fixed", ZERO, lambda op: 0)
        install_map(monkeypatch, "L", "restrict", lambda op, mask: 0 if mask == ZERO else restrict(mask))
        assert verify.verify_lemmas_3_11_3_12(w).body() == {
            "suite": "lemmas",
            "instance": "z4",
            "chain": None,
            "status": FAIL,
            "counterexample": {"check": "preimage-is-ideal", "kind": "two", "ideal": ["f0"], "preimage": []},
            "counts": {"ideals_L[two]": 3, "ideals_S[two]": 3, "identities_checked": 3},
            "notes": [],
        }

    def _th315(self, counterexample):
        return {
            "suite": "th3.15[two]",
            "instance": "z4",
            "chain": None,
            "status": FAIL,
            "counterexample": counterexample,
            "counts": {"ideals_L": 3, "ideals_S": 3},
            "notes": [],
        }

    def test_th315_image_is_ideal(self, monkeypatch, z4):
        self._break_on(monkeypatch, "image_contained", EVEN, lambda op: 0b10)  # {f1}
        assert verify.verify_theorem_3_15(ws(z4), "two").body() == self._th315(
            {"check": "image-is-ideal", "ideal": ["0", "2"], "image": ["f1"]}
        )

    def test_th315_left_inverse(self, monkeypatch, z4):
        self._break_on(monkeypatch, "pair_fixed", EVEN, _every_base_element)
        assert verify.verify_theorem_3_15(ws(z4), "two").body() == self._th315(
            {"check": "left-inverse", "ideal": ["0", "2"], "image": ["f0", "f2"]}
        )

    def test_th315_right_inverse(self, monkeypatch, z4):
        """The image map is right for its first three calls (the images of
        the three ideals of S) and wrong afterwards, so only the right-inverse
        scan over the ideals of L sees it."""
        real = operators.OperatorSemiring.image_contained
        calls = []

        def late(op, mask):
            calls.append(mask)
            return real(op, mask) if len(calls) <= 3 else _every_element(op)

        monkeypatch.setattr(operators.OperatorSemiring, "image_contained", late)
        assert verify.verify_theorem_3_15(ws(z4), "two").body() == self._th315(
            {"check": "right-inverse", "ideal": ["f0"]}
        )

    @staticmethod
    def _th315_on_family(monkeypatch, z4, edit):
        """th3.15[two] on z4 with the crisp ideals of S given by edit."""
        w = ws(z4)
        real = w.crisp_ideals
        monkeypatch.setattr(
            w, "crisp_ideals",
            lambda side, kind="two": edit(real(side, kind)) if side == "S" else real(side, kind),
        )
        return verify.verify_theorem_3_15(w, "two").body()

    def test_th315_injective(self, monkeypatch, z4):
        """An ideal of S listed twice has the same image twice; each passes
        the per-ideal checks, so the count of images tells."""
        body = self._th315_on_family(monkeypatch, z4, lambda a: (a[0], *a))
        assert body == {**self._th315({"check": "injective"}), "counts": {"ideals_L": 3, "ideals_S": 4}}

    def test_th315_surjective(self, monkeypatch, z4):
        """Without the ideal {0, 2} of S, its image {f0, f2} is the ideal of
        L that nothing reaches."""
        body = self._th315_on_family(monkeypatch, z4, lambda a: (a[0], a[2]))
        assert body == {
            **self._th315({"check": "surjective", "unmatched": [["f0", "f2"]]}),
            "counts": {"ideals_L": 3, "ideals_S": 2},
        }

    @pytest.mark.parametrize("instance,swapped,witness,n", [
        (lambda: core.zn_gamma(4), (ZERO, EVEN), (["0"], ["0", "2"]), 3),
        (lambda: core.gamma_from_semiring(core.boolean_power_semiring(3)), (0b11, 0b101),
         (["0", "2"], ["0", "2", "4", "6"]), 8),
    ], ids=["z4", "from_B3"])
    def test_th315_inclusion_both_ways(self, monkeypatch, instance, swapped, witness, n):
        """The images of two ideals of S swapped, and their preimages with
        them: still a bijection with its inverse, but no longer inclusion-
        preserving.  On z4 ({0} and {0, 2}) the failing pairs are symmetric;
        on from_B3 ({0, 1} and {0, 2}, incomparable) ({0, 2}, {0, 2, 4, 6})
        fails and its transpose does not, so the witness is the first pair in
        row-major order, not in column-major order."""
        a, b = swapped
        swap = {a: b, b: a}
        image, preimage = operators.OperatorSemiring.image_contained, operators.OperatorSemiring.pair_fixed
        monkeypatch.setattr(
            operators.OperatorSemiring, "image_contained", lambda op, mask: image(op, swap.get(mask, mask))
        )
        monkeypatch.setattr(
            operators.OperatorSemiring, "pair_fixed",
            lambda op, mask: swap.get(preimage(op, mask), preimage(op, mask)),
        )
        g = instance()
        assert verify.verify_theorem_3_15(ws(g), "two").body() == {
            **self._th315({"check": "inclusion-both-ways", "ideal1": witness[0], "ideal2": witness[1]}),
            "instance": g.name,
            "counts": {"ideals_L": n, "ideals_S": n, "pairs_checked": n * n},
        }

    def test_matrix_iso_generator_action(self, monkeypatch, gb):
        """A generator that acts unlike the realized product fails matrix-iso,
        and the report does not also say the generator actions agree."""
        real = matrix._matrix_actions
        monkeypatch.setattr(
            matrix, "_matrix_actions",
            lambda mg, op, images, side: (real(mg, op, images, side) + 1) % len(mg.gamma.S),
        )
        assert matrix.check_operator_matrix_iso(verify.Workspace(gb), "left").body() == {
            "suite": "matrix-iso[left]",
            "instance": "boolean",
            "chain": None,
            "status": FAIL,
            "counterexample": {"check": "generator-action", "generator": ["m0", "m0"], "argument": "m0"},
            "counts": {
                "generators_checked": 1,
                "matrix_carrier": 16,
                "matrix_semiring_elements": 16,
                "operator_elements": 16,
                "pairs_checked": 256,
            },
            "notes": [],
        }

    def test_matrix_iso_generator_action_at_a_later_image(self, monkeypatch, gb):
        """`_matrix_actions` is wrong only on argument m7 of the image that
        first appears at generator (m4, m1), the 66th: the first failure and
        the count name that generator, and each distinct image is applied
        once."""
        real = matrix._matrix_actions
        calls = []

        def late(mg, op, images, side):
            calls.append([tuple(image) for image in images.tolist()])
            acted = real(mg, op, images, side)
            for k, image in enumerate(calls[-1]):
                if image == (0, 1, 0, 0):
                    acted[k, 7] = (acted[k, 7] + 1) % len(mg.gamma.S)
            return acted

        monkeypatch.setattr(matrix, "_matrix_actions", late)
        assert matrix.check_operator_matrix_iso(verify.Workspace(gb), "left").body() == {
            "suite": "matrix-iso[left]",
            "instance": "boolean",
            "chain": None,
            "status": FAIL,
            "counterexample": {"check": "generator-action", "generator": ["m4", "m1"], "argument": "m7"},
            "counts": {
                "generators_checked": 66,
                "matrix_carrier": 16,
                "matrix_semiring_elements": 16,
                "operator_elements": 16,
                "pairs_checked": 256,
            },
            "notes": [],
        }
        [images] = calls
        assert (0, 1, 0, 0) in images and len(images) == len(set(images))

    @pytest.mark.parametrize(
        "side, edits, check, elements",
        [
            ("left", [("add", 5, 9)], "addition", ["f5", "f9"]),
            ("left", [("mul", 5, 9)], "multiplication", ["f5", "f9"]),
            # a pair failing both is reported as failing addition
            ("right", [("add", 5, 9), ("mul", 5, 9)], "addition", ["f5", "f9"]),
            # the first failing pair in row-major order wins
            ("right", [("add", 5, 9), ("mul", 5, 3)], "multiplication", ["f5", "f3"]),
        ],
    )
    def test_matrix_iso_sum_and_product(self, monkeypatch, gb, side, edits, check, elements):
        """Shift cells of the addition or composition table of the matrix
        instance's operator semiring: matrix-iso names the first failing
        pair and the operation it fails."""
        real = matrix.build_operator_semiring

        def perturbed(g, side, cap):
            op = real(g, side, cap=cap)
            tables = dict(zip(("add", "mul"), (t.copy() for t in op.semiring.tables)))
            for table, i, j in edits:
                tables[table][i, j] = (tables[table][i, j] + 1) % len(op)
            return dataclasses.replace(op, semiring=core.Semiring(op.semiring.name, op.semiring.carrier, **tables))

        monkeypatch.setattr(matrix, "build_operator_semiring", perturbed)
        assert matrix.check_operator_matrix_iso(verify.Workspace(gb), side).body() == {
            "suite": f"matrix-iso[{side}]",
            "instance": "boolean",
            "chain": None,
            "status": FAIL,
            "counterexample": {"check": check, "elements": elements},
            "counts": {
                "matrix_carrier": 16,
                "matrix_semiring_elements": 16,
                "operator_elements": 16,
                "pairs_checked": 256,
            },
            "notes": [],
        }

    def test_th319_lift_is_ideal(self, monkeypatch, gb):
        w = ws(gb)
        lift = _crisp(w, "lift", "M")
        install_map(monkeypatch, "M", "lift", lambda mg, mask: _reversed_mask(lift(mask), len(mg.gamma.S)))
        assert matrix.verify_theorem_3_19(w).body() == {
            "suite": "th3.19",
            "instance": "boolean",
            "chain": ["0/1", "1/2", "1/1"],
            "status": FAIL,
            "counterexample": {"check": "lift-is-ideal", "mu": {"0": "1/1", "1": "0/1"}},
            "counts": {"fuzzy_ideals_base": 3, "n": 2},
            "notes": [self.SCOPE],
        }


    def _th319(self, counterexample, counts, notes=()):
        return {
            "suite": "th3.19",
            "instance": "boolean",
            "chain": ["0/1", "1/2", "1/1"],
            "status": FAIL,
            "counterexample": counterexample,
            "counts": {"fuzzy_ideals_base": 3, "n": 2, **counts},
            "notes": [self.SCOPE, *notes],
        }

    def test_th319_injective(self, monkeypatch, gb):
        """Every base ideal lifts to the constant-1 subset: each lift is an
        ideal, and two of them coincide.  The same body with scan blocks of
        one row, a few rows or the default, each on a fresh workspace."""
        install_map(monkeypatch, "M", "lift", lambda mg, mask: (1 << len(mg.gamma.S)) - 1)
        for cells in (1, 100, verify._SCAN_CELLS):
            monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
            assert matrix.verify_theorem_3_19(ws(gb)).body() == self._th319({"check": "injective"}, {}), cells

    def test_th319_inclusion_preserving(self, monkeypatch, gb):
        """On the chain {0, 1}, the crisp lift with the images of the two
        ideals of boolean swapped: the lifts are distinct ideals, but {0}
        goes above {0, 1}, so the first pair in row-major order, ({0}, S),
        fails.  The same body with scan blocks of one row, a few rows or the
        default, each on a fresh workspace."""
        lift = _crisp(verify.Workspace(gb, RunConfig(chain=CRISP)), "lift", "M")
        swap = {0b1: 0b11, 0b11: 0b1}
        install_map(monkeypatch, "M", "lift", lambda mg, mask: lift(swap.get(mask, mask)))
        bottom, top = {"0": "1/1", "1": "0/1"}, {"0": "1/1", "1": "1/1"}
        for cells in (1, 100, verify._SCAN_CELLS):
            monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
            assert matrix.verify_theorem_3_19(verify.Workspace(gb, RunConfig(chain=CRISP))).body() == {
                "suite": "th3.19",
                "instance": "boolean",
                "chain": ["0/1", "1/1"],
                "status": FAIL,
                "counterexample": {"check": "inclusion-preserving", "mu1": bottom, "mu2": top},
                "counts": {"fuzzy_ideals_base": 2, "n": 2, "pairs_checked": 4},
                "notes": [TestTheorem38PairBodies.SCOPE],
            }, cells

    def test_th319_surjective(self, monkeypatch, gb):
        """A matrix-side family with a fourth member, grade 1 on m0 and m1
        and 1/2 elsewhere: the lifts are distinct ideals ordered as the base
        ideals are, but that member is no lift."""
        w = ws(gb)
        view = w.level_cuts("M")
        real = view.fuzzy_ideals
        extra = family(view, [(view.full, 0b11)])
        monkeypatch.setattr(view, "fuzzy_ideals", lambda kind, cap: np.concatenate([real(kind, cap), extra]))
        unmatched = {f"m{k}": "1/2" for k in range(2, 16)}
        assert matrix.verify_theorem_3_19(w).body() == self._th319(
            {"check": "surjective", "unmatched": [{"m0": "1/1", "m1": "1/1", **unmatched}]},
            {"fuzzy_ideals_matrix": 4, "pairs_checked": 9},
            ["cardinalities: 3 base ideals vs 4 matrix ideals"],
        )


class TestTheorem38PairBodies:
    """Swap the lifts of two crisp ideals of Z_6 on the chain {0, 1}: the
    lift stays a bijection onto the ideals of L, so only th3.8's pair check
    sees it, a crisp pair fails, and the whole failing body the scan gives
    is pinned."""

    SCOPE = (
        "grades restricted to the chain {0/1, 1/1}; the chain is min/max-closed, "
        "so every operation checked stays in-chain"
    )
    IDEALS = (0b1, 0b1001, 0b10101, 0b111111)  # {0}, {0, 3}, {0, 2, 4}, Z_6, in enumeration order

    @staticmethod
    def _grades(mask):
        return {str(x): "1/1" if mask >> x & 1 else "0/1" for x in range(6)}

    # the failing pair each check is witnessed by, as places in IDEALS
    PAIRS = {"inclusion-both-ways": (0, 1), "sum-homomorphism": (1, 2)}

    @pytest.mark.parametrize("kind", ["two", "right"])
    @pytest.mark.parametrize("swapped,check", [((0, 1), "inclusion-both-ways"), ((1, 3), "sum-homomorphism")])
    def test_pair_failure_body(self, monkeypatch, kind, swapped, check):
        """The same body with scan blocks of one row, a few rows or the
        default, each on a fresh workspace."""
        a, b = (self.IDEALS[k] for k in swapped)
        swap, lift = {a: b, b: a}, _crisp(verify.Workspace(core.zn_gamma(6)), "lift")
        install_map(monkeypatch, "L", "lift", lambda op, mask: lift(swap.get(mask, mask)))
        sigma1, sigma2 = (self._grades(self.IDEALS[k]) for k in self.PAIRS[check])
        for cells in (1, 100, verify._SCAN_CELLS):
            monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
            w = verify.Workspace(core.zn_gamma(6), RunConfig(chain=CRISP))
            assert w.crisp_ideals("S", kind) == self.IDEALS
            assert verify.verify_theorem_3_8(w, kind).body() == {
                "suite": f"th3.8[{kind}]",
                "instance": "z6",
                "chain": ["0/1", "1/1"],
                "status": FAIL,
                "counterexample": {"check": check, "sigma1": sigma1, "sigma2": sigma2},
                "counts": {"fuzzy_ideals_L": 4, "fuzzy_ideals_S": 4, "pairs_checked": 16},
                "notes": [self.SCOPE],
            }, cells


def _chain_lattice_gamma():
    """Gamma-semiring of the chain 0 < 1 < 2 under (max, min): commutative
    and zero-divisor free, but {0, 1} is a proper nonzero ideal, so it is
    not a gamma-semifield."""
    join = tuple(tuple(max(i, j) for j in range(3)) for i in range(3))
    meet = tuple(tuple(min(i, j) for j in range(3)) for i in range(3))
    return core.gamma_from_semiring(core.Semiring("chain3", ("0", "1", "2"), join, meet))


class TestForcedSemifieldPayloads:
    """Force the fuzzy semifield condition against the structural predicate,
    so both failure payloads of th3.17 and th3.18 appear, and pin them."""

    NOTE = (
        "grades restricted to the chain {0/1, 1/2, 1/1}; the chain is min/max-closed, "
        "so every operation checked stays in-chain"
    )

    @staticmethod
    def _run(monkeypatch, structure, suite, condition):
        monkeypatch.setattr(verify, "_fuzzy_semifield_condition", condition)
        reports = verify.run_all(structure, RunConfig(chain=CHAIN))
        return next(r for r in reports if r.suite == suite).body()

    @staticmethod
    def _fails(view, ideals):
        return False, ideals[0]

    @staticmethod
    def _holds(view, ideals):
        return True, None

    def test_th317_forward(self, monkeypatch, bool_sr):
        body = self._run(monkeypatch, bool_sr, "th3.17", self._fails)
        assert body["status"] == FAIL
        assert body["counterexample"] == {
            "direction": "semifield-but-fuzzy-condition-fails",
            "violating_ideal": {"0": "1/1", "1": "0/1"},
        }
        assert body["counts"] == {"fuzzy_ideals": 3, "nonconstant_ideals": 2}
        assert body["notes"] == [
            self.NOTE,
            "inverse-based cross-check agrees with the ideal-simplicity predicate",
            "forward implication failed",
        ]

    def test_th317_reverse(self, monkeypatch, z4_sr):
        body = self._run(monkeypatch, z4_sr, "th3.17", self._holds)
        assert body["status"] == FAIL
        assert body["counterexample"] == {
            "direction": "fuzzy-condition-but-not-semifield",
            "nonzero_proper_ideal": ["0", "2"],
        }
        assert body["counts"] == {"fuzzy_ideals": 6, "nonconstant_ideals": 5}
        assert body["notes"] == [
            self.NOTE,
            "inverse-based cross-check agrees with the ideal-simplicity predicate",
            "forward implication holds: vacuous",
            "reverse implication failed",
        ]

    def test_th318_forward(self, monkeypatch, gb):
        body = self._run(monkeypatch, gb, "th3.18", self._fails)
        assert body["status"] == FAIL
        assert body["counterexample"] == {
            "direction": "gamma-semifield-but-fuzzy-condition-fails",
            "violating_ideal": {"0": "1/1", "1": "0/1"},
        }
        assert body["counts"] == {"fuzzy_ideals": 3, "nonconstant_ideals": 2}
        assert body["notes"] == [self.NOTE, "forward implication failed"]

    def test_th318_reverse(self, monkeypatch):
        g = _chain_lattice_gamma()
        assert core.is_commutative(g) and core.zdf_witness(g) is None and not core.is_gamma_semifield(g)
        body = self._run(monkeypatch, g, "th3.18", self._holds)
        assert body["status"] == FAIL
        assert body["counterexample"] == {
            "direction": "fuzzy-condition-but-not-gamma-semifield",
            "pair_without_inverse": ["1", "1"],
        }
        assert body["counts"] == {"fuzzy_ideals": 6, "nonconstant_ideals": 5}
        assert body["notes"] == [
            self.NOTE,
            "forward implication holds: vacuous",
            "reverse implication failed",
        ]


class TestReportType:
    def test_fail_requires_counterexample(self):
        with pytest.raises(ValueError):
            VerificationReport("x", "y", None, FAIL, None, {"n": 1}, 0.0)

    def test_pass_requires_counts(self):
        with pytest.raises(ValueError):
            VerificationReport("x", "y", None, PASS, None, {}, 0.0)

    def test_first_failure_stops_at_the_first_failing_row(self):
        seen = []

        def check(k, word):
            seen.append(k)
            return len(word) > 3 and word

        assert first_failure(check, range(5), ["a", "bb", "cccc", "dddd", "e"]) == "cccc"
        assert seen == [0, 1, 2]
        assert first_failure(check, [], []) is None

    def test_first_failing_pair_is_row_major(self):
        seen = []

        def check(i, j):
            seen.append((i, j))
            return i + j == 2 and (i, j)

        assert first_failing_pair(3, check) == (0, 2)
        assert seen == [(0, 0), (0, 1), (0, 2)]
        assert first_failing_pair(3, lambda i, j: None) is None

    def test_body_has_contract_fields(self, gb):
        report = verify.verify_theorem_3_8(ws(gb), "two")
        body = report.body()
        assert set(body) == {
            "suite",
            "instance",
            "chain",
            "status",
            "counterexample",
            "counts",
            "notes",
        }
        assert body["chain"] == ["0/1", "1/2", "1/1"]
