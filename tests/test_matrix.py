"""Matrix instances, the operator-matrix isomorphisms, and th3.19's lift."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import build_boolean_by_chain, build_one_element
from gsl import core
from gsl.config import RunConfig
from gsl.fuzzy import FuzzySubset, GradeChain, enumerate_fuzzy_ideals, is_fuzzy_ideal_gamma
from gsl import matrix, verify
from gsl.matrix import (
    MatrixCapExceeded,
    build_matrix_gamma,
    check_operator_matrix_iso,
    matrix_semiring,
    verify_theorem_3_19,
)
from gsl.report import PASS, UNMET
from gsl.verify import Workspace, run_all
from gsl.operators import build_operator_semiring
from oracles import (
    loop_generator_images,
    loop_matrix_actions,
    loop_matrix_gamma_product,
    loop_matrix_semiring_mul,
    naive_matrix_gamma_tables,
    naive_matrix_semiring_tables,
    subset_map,
)

HALF = Fraction(1, 2)
CHAIN = GradeChain.of(0, HALF, 1)
CHAIN01 = GradeChain.of(0, 1)


def ws(structure, chain=CHAIN01, **config):
    """A fresh workspace, over CHAIN01 unless told otherwise."""
    return Workspace(structure, RunConfig(chain=chain, **config))


class TestBuild:
    def test_boolean_2x2(self, gb):
        mg = build_matrix_gamma(gb, 2)
        assert len(mg.gamma.S) == 16
        assert len(mg.gamma.G) == 16
        assert mg.gamma.S[0] == "m0"
        assert core.validate_gamma_semiring(mg.gamma).ok

    def test_z2_2x2(self, z2):
        mg = build_matrix_gamma(z2, 2)
        assert len(mg.gamma.S) == 16
        assert core.validate_gamma_semiring(mg.gamma).ok

    def test_n1_collapses_to_base(self, gb, z4):
        for g in (gb, z4):
            mg = build_matrix_gamma(g, 1, cap=16)
            assert mg.gamma.addS == g.addS
            assert mg.gamma.addG == g.addG
            assert mg.gamma.prod == g.prod

    def test_cap(self, z4):
        with pytest.raises(MatrixCapExceeded):
            build_matrix_gamma(z4, 2, cap=16)

    def test_cap_names_the_larger_carrier(self):
        """With |S| = 2 and |G| = 3 only the G carrier (81 elements) is over
        the cap, and the cap's text and count name that carrier."""
        g = build_boolean_by_chain(3)
        with pytest.raises(MatrixCapExceeded) as hit:
            build_matrix_gamma(g, 2, cap=16)
        assert str(hit.value) == "matrix carrier would have 81 elements, cap is 16"
        assert hit.value.counts == {"matrix_carrier": 81}
        reports = run_all(g, RunConfig(chain=CHAIN))
        assert [r.suite for r in reports[-3:]] == ["matrix-iso[left]", "matrix-iso[right]", "th3.19"]
        for r in reports[-3:]:
            assert r.status == UNMET
            assert r.notes == ("matrix carrier would have 81 elements, cap is 16",)
            assert r.counts == {"matrix_carrier": 81}

    def test_product_is_triple_matrix_product(self, gb):
        mg = build_matrix_gamma(gb, 2)
        # A = [[1,0],[0,0]], D = [[1,0],[0,0]], B = [[1,1],[0,0]]
        a = matrix._encode((1, 0, 0, 0), 2)
        d = matrix._encode((1, 0, 0, 0), 2)
        b = matrix._encode((1, 1, 0, 0), 2)
        assert mg.s_entries[mg.gamma.prod[a][d][b]].tolist() == [1, 1, 0, 0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_tables_match_scalar_definition(self, gb, z2, zero_product, n):
        for base in (gb, z2, zero_product, build_one_element()):
            mg = build_matrix_gamma(base, n)
            assert (mg.gamma.addS, mg.gamma.addG, mg.gamma.prod) == naive_matrix_gamma_tables(base, n)
            assert [matrix._encode(e, len(base.S)) for e in mg.s_entries.tolist()] == list(range(len(mg.gamma.S)))
            assert [matrix._encode(e, len(base.G)) for e in mg.g_entries.tolist()] == list(range(len(mg.gamma.G)))

    def test_tables_match_scalar_definition_when_s_and_g_differ(self):
        base = build_boolean_by_chain(3)
        mg = build_matrix_gamma(base, 2, cap=81)
        assert (len(mg.gamma.S), len(mg.gamma.G)) == (16, 81)
        assert (mg.gamma.addS, mg.gamma.addG, mg.gamma.prod) == naive_matrix_gamma_tables(base, 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matrix_semiring_tables_match_scalar_definition(self, bool_sr, n):
        for r in (bool_sr, core.zn_semiring(3)):
            m = matrix_semiring(r, n)
            assert (m.add, m.mul) == naive_matrix_semiring_tables(r, n)

    def test_matrix_semiring(self, bool_sr):
        m = matrix_semiring(bool_sr, 2)
        assert len(m.carrier) == 16
        assert core.validate_semiring(m).ok
        assert not core.mul_commutative(m)


class TestProducts:
    """Every matrix product, as one fold (`matrix._products`), equals the
    products it replaced, one gather per entry and term."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_products_match_the_per_entry_loops(self, gb, z2, z3, n):
        bases = [(gb, 16), (z2, 16), (build_boolean_by_chain(3), 81), (z3, 81)]
        for base, cap in bases:
            mg = build_matrix_gamma(base, n, cap=cap)
            assert np.array_equal(mg.gamma.tables[2], loop_matrix_gamma_product(base, n)), base.name
            for side in ("left", "right"):
                op_base = build_operator_semiring(base, side)
                m = matrix_semiring(op_base.semiring, n)
                assert np.array_equal(m.tables[1], loop_matrix_semiring_mul(op_base.semiring, n))
                images = matrix._generator_images(mg, op_base, side)
                assert np.array_equal(images, loop_generator_images(mg, op_base, side))
                flat = images.reshape(-1, n * n)
                want = loop_matrix_actions(mg, op_base, flat, side)
                assert np.array_equal(matrix._matrix_actions(mg, op_base, flat, side), want)


def _lift(mg, mu):
    """th3.19's lift (`verify._MAPS`, the min of the ranks over the entries)
    of one subset over CHAIN."""
    return subset_map(CHAIN, "lift", mg, verify._MAPS["M", "lift"])(mu)


class TestFuzzyLift:
    def test_entrywise_min(self, gb):
        mg = build_matrix_gamma(gb, 2)
        mu = FuzzySubset.of_grades(gb, [1, HALF])
        lifted = _lift(mg, mu)
        assert lifted.grades[0] == 1  # zero matrix
        for k in range(1, 16):
            assert lifted.grades[k] == HALF  # any matrix containing a 1

    def test_constant_lifts_to_constant(self, z2):
        mg = build_matrix_gamma(z2, 2)
        assert _lift(mg, FuzzySubset.constant(z2, 1)).is_constant()

    def test_characteristic_lifts_to_characteristic_of_matrices_over(self, gb):
        mg = build_matrix_gamma(gb, 2)
        lam = FuzzySubset.of_grades(gb, [1, 0])  # characteristic of {0}
        lifted = _lift(mg, lam)
        for k in range(16):
            inside = not mg.s_entries[k].any()
            assert lifted.grades[k] == (1 if inside else 0)

    def test_lift_preserves_ideals(self, gb, z2):
        for g in (gb, z2):
            mg = build_matrix_gamma(g, 2)
            for mu in enumerate_fuzzy_ideals(g, CHAIN, "two"):
                assert is_fuzzy_ideal_gamma(mg.gamma, _lift(mg, mu), "two")


class TestOperatorMatrixIso:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_boolean(self, gb, side):
        report = check_operator_matrix_iso(ws(gb), side)
        assert report.status == PASS
        assert report.counts["operator_elements"] == 16
        assert report.counts["matrix_semiring_elements"] == 16

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_z2(self, z2, side):
        report = check_operator_matrix_iso(ws(z2), side)
        assert report.status == PASS

    def test_zero_product_degenerate_pass(self, zero_product):
        report = check_operator_matrix_iso(ws(zero_product), "left")
        assert report.status == PASS
        assert report.counts["operator_elements"] == 1

    def test_cap_reports_unmet(self, z4):
        report = check_operator_matrix_iso(ws(z4), "left")
        assert report.status == UNMET


class TestTheorem319:
    def test_boolean_binary_chain(self, gb):
        report = verify_theorem_3_19(ws(gb))
        assert report.status == PASS
        assert report.counts["fuzzy_ideals_base"] == 2
        assert report.counts["fuzzy_ideals_matrix"] == 2

    def test_z2_binary_chain(self, z2):
        report = verify_theorem_3_19(ws(z2))
        assert report.status == PASS
        assert report.counts["fuzzy_ideals_base"] == 2

    def test_boolean_ternary_chain_full(self, gb):
        report = verify_theorem_3_19(ws(gb, CHAIN))
        assert report.status == PASS
        assert report.counts["fuzzy_ideals_base"] == 3
        assert report.counts["fuzzy_ideals_matrix"] == 3

    def test_downgrade_when_cap_exceeded(self, gb):
        report = verify_theorem_3_19(ws(gb, CHAIN, surjectivity_cap=1000))
        assert report.status == PASS
        assert "fuzzy_ideals_matrix" not in report.counts
        assert any("surjectivity skipped (cap)" in n for n in report.notes)

    def test_unity_gating(self, zero_product):
        report = verify_theorem_3_19(ws(zero_product))
        assert report.status == UNMET

    def test_matrix_cap_gating(self, z4):
        report = verify_theorem_3_19(ws(z4))
        assert report.status == UNMET
