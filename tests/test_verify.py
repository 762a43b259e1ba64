"""Verification suites: statuses, counts, gating, and report invariants."""

import sys
from fractions import Fraction

import pytest

from gsl import core, matrix, operators, verify
from gsl.config import RunConfig
from gsl.fuzzy import GradeChain
from gsl.matrix import MatrixCapExceeded
from gsl.report import FAIL, PASS, UNMET, VerificationReport, first_failing_pair, first_failure

HALF = Fraction(1, 2)
CHAIN = GradeChain.of(0, HALF, 1)


def ws(structure, **config):
    """A fresh workspace over CHAIN."""
    return verify.Workspace(structure, RunConfig(chain=CHAIN, **config))


class TestWorkspace:
    def test_families_are_shared_tuples(self, gb):
        w = ws(gb)
        ideals = w.fuzzy_ideals("L", "right")
        assert isinstance(ideals, tuple) and w.fuzzy_ideals("L", "right") is ideals
        assert isinstance(w.crisp_ideals("S"), tuple) and w.crisp_ideals("S") is w.crisp_ideals("S")
        with pytest.raises(ValueError):
            w.fuzzy_ideals("G")

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
        from gsl.fuzzy import CrispSubset
        from gsl.operators import build_operator_semiring, plusprime_set

        left = build_operator_semiring(z4, "left")
        even = CrispSubset.of_ids(z4, ["0", "2"])
        assert plusprime_set(left, even).sorted_ids() == ("f0", "f2")

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
        from gsl.fuzzy import enumerate_fuzzy_ideals

        ideals = enumerate_fuzzy_ideals(z4_sr, CHAIN, "two")
        lam = next(m for m in ideals if m.grades == (1, 0, 1, 0))
        assert not lam.is_constant()
        holds, violator = verify._fuzzy_semifield_condition([lam])
        assert not holds and violator is lam

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

    def test_semiring_input(self, bool_sr):
        reports = verify.run_all(bool_sr, RunConfig(chain=CHAIN))
        assert [r.suite for r in reports] == ["th3.17"]

    def test_one_run_builds_each_structure_once(self, monkeypatch, gb):
        """L and R of the base, the matrix instance and that instance's own
        left and right operator semirings are each built once per run."""
        closures = _count_calls(monkeypatch, operators.build_operator_semiring)
        matrices = _count_calls(monkeypatch, matrix.build_matrix_gamma)
        reports = verify.run_all(gb, RunConfig(chain=CHAIN))
        assert [r.status for r in reports if r.suite in ("matrix-iso[left]", "th3.19")] == [PASS, PASS]
        assert len(closures) == 4
        assert len(matrices) == 1

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
    def test_broken_lift_produces_replayable_witnesses(self, gb):
        """Feeding the clause engine a collapsing lift must surface failures
        with full grade payloads, not mask them."""
        from gsl.fuzzy import FuzzySubset, enumerate_fuzzy_ideals
        from gsl.operators import build_operator_semiring
        from gsl.transfer import restrict_plus

        left = build_operator_semiring(gb, "left")
        ideals_s = enumerate_fuzzy_ideals(gb, CHAIN, "two")
        ideals_l = enumerate_fuzzy_ideals(left.semiring, CHAIN, "two")
        collapse = lambda sigma: FuzzySubset.constant(left, 1)
        rows = verify._clause_rows(
            gb,
            left,
            ideals_s,
            ideals_l,
            lift=collapse,
            restrict=lambda m: restrict_plus(left, m),
            lift_roundtrip_ok=True,
            restrict_roundtrip_ok=True,
            tag="",
        )
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
        back = restrict_plus(left, collapse(sigma))
        assert back.to_mapping() == witness["roundtrip"] != witness["sigma"]

    def test_swapped_maps_fail_pair_clauses_with_first_witnesses(self, gb):
        """Swapping the bottom and top ideals before the lift and after the
        restriction breaks the pair clauses iv, v, vi and ix; the whole row
        list, first witnesses included, is pinned."""
        from gsl.fuzzy import enumerate_fuzzy_ideals
        from gsl.operators import build_operator_semiring
        from gsl.transfer import lift_plusprime, restrict_plus

        left = build_operator_semiring(gb, "left")
        ideals_s = enumerate_fuzzy_ideals(gb, CHAIN, "two")
        ideals_l = enumerate_fuzzy_ideals(left.semiring, CHAIN, "two")
        first, last = ideals_s[0], ideals_s[-1]
        swap = {first.grades: last, last.grades: first}
        swapped = lambda mu: swap.get(mu.grades, mu)
        rows = verify._clause_rows(
            gb,
            left,
            ideals_s,
            ideals_l,
            lift=lambda s: lift_plusprime(left, swapped(s)),
            restrict=lambda m: swapped(restrict_plus(left, m)),
            lift_roundtrip_ok=True,
            restrict_roundtrip_ok=True,
            tag="",
        )
        bottom, middle = {"0": "1/1", "1": "0/1"}, {"0": "1/1", "1": "1/2"}
        bottom_l, middle_l = {"f0": "1/1", "f1": "0/1"}, {"f0": "1/1", "f1": "1/2"}
        assert rows == [
            ("i", PASS, None, 3),
            ("i-nonconstant", FAIL, {"clause": "i-nonconstant", "sigma": bottom}, 3),
            ("ii", PASS, None, 3),
            ("iii", PASS, None, 3),
            ("iv", FAIL, {"clause": "iv", "sigma1": bottom, "sigma2": middle}, 9),
            ("v", FAIL, {"clause": "v", "sigma1": bottom, "sigma2": middle}, 9),
            ("vi", FAIL, {"clause": "vi", "sigma1": bottom, "sigma2": middle}, 9),
            ("vii", PASS, None, 3),
            ("vii-nonconstant", FAIL, {"clause": "vii-nonconstant", "mu": bottom_l}, 3),
            ("viii", PASS, None, 3),
            ("ix", FAIL, {"clause": "ix", "mu1": bottom_l, "mu2": middle_l}, 9),
        ]

    def test_reversed_maps_fail_ideal_clauses_and_gate_the_restrict_roundtrip(self, gb):
        """Reversing the grades of every non-constant lift and restriction
        makes them non-ideals, so clauses i and vii fail with their first
        witnesses; a missing own-side unity gates vii-nonconstant and viii."""
        from gsl.fuzzy import enumerate_fuzzy_ideals
        from gsl.operators import build_operator_semiring
        from gsl.transfer import lift_plusprime, restrict_plus

        left = build_operator_semiring(gb, "left")
        ideals_s = enumerate_fuzzy_ideals(gb, CHAIN, "two")
        ideals_l = enumerate_fuzzy_ideals(left.semiring, CHAIN, "two")
        rows = verify._clause_rows(
            gb,
            left,
            ideals_s,
            ideals_l,
            lift=lambda s: _reversed(lift_plusprime(left, s)),
            restrict=lambda m: _reversed(restrict_plus(left, m)),
            lift_roundtrip_ok=True,
            restrict_roundtrip_ok=False,
            tag="",
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


def _reversed(mu):
    """mu with its grades in reverse carrier order; a non-constant fuzzy
    ideal becomes a non-ideal, since it no longer peaks at zero."""
    from gsl.fuzzy import FuzzySubset

    return mu if mu.is_constant() else FuzzySubset(mu.carrier, mu.grades[::-1])


def _full(structure):
    from gsl.fuzzy import CrispSubset, carrier_of

    carrier = carrier_of(structure)
    return CrispSubset(carrier, frozenset(range(carrier.size)))


class TestFailPathBodies:
    """Break the map one scan uses and pin the whole failing report body, so
    the first witness, the counts gathered up to it and the notes all show."""

    SCOPE = (
        "grades restricted to the chain {0/1, 1/2, 1/1}; the chain is min/max-closed, "
        "so every operation checked stays in-chain"
    )

    @staticmethod
    def _break_on(monkeypatch, module, name, ids, wrong):
        """Make module.name return wrong(op) for the subset with these ids."""
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda op, subset: wrong(op) if subset.sorted_ids() == ids else real(op, subset)
        )

    def test_th38_image_is_ideal(self, monkeypatch, gb):
        real = verify.lift_plusprime
        monkeypatch.setattr(verify, "lift_plusprime", lambda op, s: _reversed(real(op, s)))
        assert verify.verify_theorem_3_8(ws(gb), "two").body() == {
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

    def test_lemmas_characteristic_lift(self, monkeypatch, z4):
        self._break_on(monkeypatch, verify, "plusprime_set", ("0", "2"), _full)
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
        self._break_on(monkeypatch, verify, "plus_set", ("f0", "f2"), _full)
        assert verify.verify_lemmas_3_11_3_12(ws(z4)).body() == {
            "suite": "lemmas",
            "instance": "z4",
            "chain": None,
            "status": FAIL,
            "counterexample": {"check": "characteristic-restrict", "kind": "two", "ideal": ["f0", "f2"]},
            "counts": {"ideals_L[two]": 3, "ideals_S[two]": 3, "identities_checked": 4},
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
        from gsl.fuzzy import CrispSubset

        self._break_on(
            monkeypatch, verify, "plusprime_set", ("0", "2"), lambda op: CrispSubset.of_indices(op, [1])
        )
        assert verify.verify_theorem_3_15(ws(z4), "two").body() == self._th315(
            {"check": "image-is-ideal", "ideal": ["0", "2"], "image": ["f1"]}
        )

    def test_th315_left_inverse(self, monkeypatch, z4):
        self._break_on(monkeypatch, verify, "plus_set", ("f0", "f2"), _full)
        assert verify.verify_theorem_3_15(ws(z4), "two").body() == self._th315(
            {"check": "left-inverse", "ideal": ["0", "2"], "image": ["f0", "f2"]}
        )

    def test_th315_right_inverse(self, monkeypatch, z4):
        """The image map is right for its first three calls (the images of
        the three ideals of S) and wrong afterwards, so only the right-inverse
        scan over the ideals of L sees it."""
        real = verify.plusprime_set
        calls = []

        def late(op, subset):
            calls.append(subset)
            return real(op, subset) if len(calls) <= 3 else _full(op)

        monkeypatch.setattr(verify, "plusprime_set", late)
        assert verify.verify_theorem_3_15(ws(z4), "two").body() == self._th315(
            {"check": "right-inverse", "ideal": ["f0"]}
        )

    def test_matrix_iso_generator_action(self, monkeypatch, gb):
        """A generator that acts unlike the realized product fails matrix-iso,
        and the report does not also say the generator actions agree."""
        real = matrix._matrix_action
        monkeypatch.setattr(
            matrix, "_matrix_action",
            lambda mg, op, image, a, side: (real(mg, op, image, a, side) + 1) % len(mg.gamma.S),
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

    def test_th319_lift_is_ideal(self, monkeypatch, gb):
        real = matrix.lift_fuzzy_to_matrix
        monkeypatch.setattr(matrix, "lift_fuzzy_to_matrix", lambda mg, mu: _reversed(real(mg, mu)))
        assert matrix.verify_theorem_3_19(ws(gb)).body() == {
            "suite": "th3.19",
            "instance": "boolean",
            "chain": ["0/1", "1/2", "1/1"],
            "status": FAIL,
            "counterexample": {"check": "lift-is-ideal", "mu": {"0": "1/1", "1": "0/1"}},
            "counts": {"fuzzy_ideals_base": 3, "n": 2},
            "notes": [self.SCOPE],
        }


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
    def _fails(ideals):
        return False, ideals[0]

    @staticmethod
    def _holds(ideals):
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
        assert core.is_commutative(g) and core.is_zdf(g) and not core.is_gamma_semifield(g)
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
