"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from fractions import Fraction

from gsl import cli, core, verify
from gsl.config import RunConfig
from gsl.fuzzy import GradeChain, LevelCuts
from gsl.matrix import check_operator_matrix_iso, verify_theorem_3_19
from gsl.operators import build_operator_semiring, find_unity
from gsl.report import FAIL, PASS, UNMET
from conftest import replaced
from oracles import naive_operator_actions

HALF = Fraction(1, 2)
CHAIN = GradeChain.of(0, HALF, 1)
CHAIN01 = GradeChain.of(0, 1)

GB = core.boolean_gamma()
Z2 = core.zn_gamma(2)
Z4 = core.zn_gamma(4)


def ws(structure, chain=CHAIN, **config):
    """A fresh workspace, over CHAIN unless told otherwise."""
    return verify.Workspace(structure, RunConfig(chain=chain, **config))


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget_s
        print(
            f"acceptance {self.number}: {'PASS' if ok else 'FAIL'} - "
            f"{self.description} ({elapsed:.2f}s / budget {self.budget_s:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_axiom_suite():
    with _Criterion(1, "axiom validation and 100% witness replay on mutants", 1.0):
        for g in (GB, Z2, Z4):
            assert core.validate_gamma_semiring(g).ok
        replayed = 0
        still_valid = 0
        for a in range(2):
            for c in range(2):
                for b in range(2):
                    prod = [list(map(list, plane)) for plane in GB.prod]
                    prod[a][c][b] = 1 - prod[a][c][b]
                    mutant = replaced(GB, name="mutant", prod=prod)
                    outcome = core.validate_gamma_semiring(mutant)
                    if outcome.ok:
                        still_valid += 1
                        continue
                    for violation in outcome.violations:
                        assert core.recheck_violation(mutant, violation)
                        replayed += 1
        assert replayed > 0 and still_valid + replayed >= 8


def test_criterion_2_operator_construction():
    with _Criterion(2, "operator closures match the independent sum-length oracle", 1.0):
        expected = {("boolean", "left"): 2, ("z2", "left"): 2, ("z4", "left"): 4}
        for g in (GB, Z2, Z4):
            op = build_operator_semiring(g, "left")
            oracle = naive_operator_actions(g, "left", max_len=len(g.S) * len(g.G))
            assert len(op) == len(oracle) == expected[(g.name, "left")]
            assert set(map(tuple, op.value_rows.tolist())) == oracle
            assert core.validate_semiring(op.semiring).ok
            assert find_unity(g, op) is not None


def test_criterion_3_transfer_clauses():
    with _Criterion(3, "all transfer clauses plus right-operator duals", 10.0):
        for g in (GB, Z2, Z4):
            report = verify.verify_prop_3_4(ws(g))
            assert report.status == PASS, report.counterexample
            clause_notes = [n for n in report.notes if n.startswith("clause ")]
            assert len(clause_notes) == 22
            assert all(n.endswith(PASS) for n in clause_notes)
        # the unity gate itself: round-trip clauses sit out when unity is absent
        zero_prod = tuple(
            tuple(tuple(0 for _ in range(2)) for _ in range(2)) for _ in range(2)
        )
        unityless = core.GammaSemiring(
            "unityless", ("0", "1"), ("0", "1"), ((0, 1), (1, 1)), ((0, 1), (1, 1)), zero_prod
        )
        gated = verify.verify_prop_3_4(ws(unityless))
        assert gated.status != FAIL
        assert any(n == f"clause ii: {UNMET}" for n in gated.notes)
        assert any(n == f"clause viii: {UNMET}" for n in gated.notes)


def test_criterion_4_fuzzy_ideal_lattice_isomorphism():
    with _Criterion(4, "fuzzy ideal lattices match 3-3, 3-3, 6-6", 10.0):
        for g, count in ((GB, 3), (Z2, 3), (Z4, 6)):
            for kind in ("two", "right"):
                report = verify.verify_theorem_3_8(ws(g), kind)
                assert report.status == PASS, report.counterexample
                assert report.counts["fuzzy_ideals_S"] == count
                assert report.counts["fuzzy_ideals_L"] == count


def test_criterion_5_crisp_ideal_lattices():
    with _Criterion(5, "crisp lattices 3-3 on z4 with the explicit even pairing", 1.0):
        report = verify.verify_theorem_3_15(ws(Z4), "two")
        assert report.status == PASS, report.counterexample
        assert report.counts["ideals_S"] == 3 and report.counts["ideals_L"] == 3
        left = build_operator_semiring(Z4, "left")
        assert left.image_contained(0b101) == 0b101  # {0, 2}+' = {f0, f2}
        lemmas = verify.verify_lemmas_3_11_3_12(ws(Z4))
        assert lemmas.status == PASS, lemmas.counterexample


def test_criterion_6_semifield_characterizations():
    with _Criterion(6, "semifield biconditionals and the z4 gating", 5.0):
        r_bool = core.boolean_semiring()
        assert core.is_semifield(r_bool)
        assert verify.verify_theorem_3_17(ws(r_bool)).status == PASS

        r_z4 = core.zn_semiring(4)
        assert not core.is_semifield(r_z4)
        report = verify.verify_theorem_3_17(ws(r_z4))
        assert report.status == PASS, report.counterexample
        # the named witness: the characteristic function of {0,2} violates
        # the constant-below-one condition
        view = LevelCuts(r_z4, CHAIN)
        lam = next(row for row in view.fuzzy_ideals("two") if view.subset(row).grades == (1, 0, 1, 0))
        holds, violator = verify._fuzzy_semifield_condition(view, lam[None])
        assert not holds and (violator == lam).all()

        for g in (GB, Z2):
            assert verify.verify_theorem_3_18(ws(g)).status == PASS
        gated = verify.verify_theorem_3_18(ws(Z4))
        assert gated.status == UNMET
        assert any("not zero-divisor free" in n for n in gated.notes)


def test_criterion_7_semifield_transfer():
    with _Criterion(7, "gamma-semifield iff operator semiring is a semifield", 1.0):
        for g in (GB, Z2):
            left = build_operator_semiring(g, "left")
            assert core.is_gamma_semifield(g) == core.is_semifield(left.semiring) is True
            report = verify.verify_semifield_transfer(ws(g))
            assert report.status == PASS, report.counterexample


def test_criterion_8_matrix_suite():
    with _Criterion(8, "matrix build, operator-matrix isomorphisms, fuzzy lift bijection", 60.0):
        ternary_ws = ws(GB)
        assert len(ternary_ws.matrix.gamma.S) == 16
        for side in ("left", "right"):
            report = check_operator_matrix_iso(ternary_ws, side)
            assert report.status == PASS, report.counterexample

        binary = verify_theorem_3_19(ws(GB, CHAIN01))
        assert binary.status == PASS, binary.counterexample
        assert binary.counts["fuzzy_ideals_matrix"] == binary.counts["fuzzy_ideals_base"] == 2

        ternary = verify_theorem_3_19(ternary_ws)
        assert ternary.status == PASS, ternary.counterexample
        assert ternary.counts["fuzzy_ideals_base"] == 3
        assert ternary.counts["fuzzy_ideals_matrix"] == 3

        # downgrade path: with a lowered cap the ternary chain exceeds it,
        # surjectivity is skipped and the report says so
        capped = verify_theorem_3_19(ws(GB, surjectivity_cap=1000))
        assert capped.status == PASS
        assert "fuzzy_ideals_matrix" not in capped.counts
        assert any("surjectivity skipped (cap)" in n for n in capped.notes)


def test_criterion_9_determinism(tmp_path, capsys):
    with _Criterion(9, "byte-identical report bodies across consecutive runs", 120.0):
        path = str(tmp_path / "gb.gsr")
        assert cli.main(["gen", "boolean", "-o", path]) == 0

        def body():
            code = cli.main(["verify", path, "--suite", "all", "--report", "json"])
            out = capsys.readouterr().out
            assert code == 0
            payload = json.loads(out)
            payload.pop("timings_ms")
            return json.dumps(payload)

        capsys.readouterr()
        assert body() == body()
