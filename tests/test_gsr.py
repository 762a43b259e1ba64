"""File-format round trips and strict parse diagnostics."""

import pytest

from gsl import core, gsr
from gsl.fuzzy import FuzzySubset


class TestRoundTrip:
    def test_gamma_round_trips(self, gb, z2, z4, zero_product):
        for g in (gb, z2, z4, zero_product):
            parsed = gsr.parse_gsr_text(gsr.format_gamma(g))
            assert parsed == g

    def test_semiring_round_trips(self, bool_sr, z4_sr):
        for r in (bool_sr, z4_sr):
            parsed = gsr.parse_gsr_text(gsr.format_semiring(r))
            assert parsed == r

    def test_asymmetric_carriers(self):
        # |G| = 1 with a two-element S; product forced to zero by the zero laws
        g = core.GammaSemiring(
            "lopsided", ("0", "x"), ("0",), ((0, 1), (1, 1)), ((0,),), (((0, 0),), ((0, 0),))
        )
        assert core.validate_gamma_semiring(g).ok
        assert gsr.parse_gsr_text(gsr.format_gamma(g)) == g

    def test_comments_and_blank_lines_ignored(self, gb):
        text = "# header comment\n\n" + gsr.format_gamma(gb).replace(
            "[add_S]", "[add_S]  # table follows"
        )
        assert gsr.parse_gsr_text(text) == gb


class TestParseErrors:
    def _expect(self, text, code):
        with pytest.raises(gsr.GsrError) as err:
            gsr.parse_gsr_text(text)
        assert err.value.code == code

    def test_missing_product_section(self, gb):
        text = gsr.format_gamma(gb).split("[product]")[0]
        self._expect(text, "syntax")

    def test_duplicate_ids(self, gb):
        self._expect(gsr.format_gamma(gb).replace("S = 0 1", "S = 0 0"), "duplicate-id")

    def test_ragged_rows(self, gb):
        text = gsr.format_gamma(gb).replace("[add_S]\n0 1\n1 1", "[add_S]\n0 1\n1")
        self._expect(text, "ragged")

    def test_unknown_entry(self, gb):
        text = gsr.format_gamma(gb).replace("[add_S]\n0 1\n1 1", "[add_S]\n0 7\n1 1")
        self._expect(text, "bad-entry")

    def test_zero_must_sit_at_index_zero(self, gb):
        # swap the roles of 0 and 1 in add_S: index 0 no longer acts as zero
        text = gsr.format_gamma(gb).replace("[add_S]\n0 1\n1 1", "[add_S]\n0 0\n0 1")
        self._expect(text, "zero-position")

    def test_gamma_blocks_must_follow_carrier_order(self, gb):
        text = gsr.format_gamma(gb).replace("gamma = 0", "gamma = 1", 1)
        self._expect(text, "syntax")

    def test_reserved_characters_in_ids(self):
        self._expect("[semiring]\nname = x\ncarrier = a:b c\n[add]\n", "bad-entry")

    def test_line_numbers_reported(self, gb):
        text = gsr.format_gamma(gb).replace("[add_S]\n0 1\n1 1", "[add_S]\n0 1\n1 zzz")
        with pytest.raises(gsr.GsrError) as err:
            gsr.parse_gsr_text(text)
        assert err.value.line == 7

    def test_io_error(self, tmp_path):
        with pytest.raises(gsr.GsrError) as err:
            gsr.parse_gsr(str(tmp_path / "missing.gsr"))
        assert err.value.code == "io"

    def test_axiom_diagnostic_on_load(self, tmp_path, gb):
        # break distributivity-by-zero-law in the file, keep structure legal
        text = gsr.format_gamma(gb).replace("gamma = 1\n0 0\n0 1", "gamma = 1\n0 1\n0 1")
        path = tmp_path / "bad.gsr"
        path.write_text(text)
        with pytest.raises(gsr.GsrError) as err:
            gsr.parse_gsr(str(path))
        assert err.value.code == "axioms"
        assert gsr.parse_gsr(str(path), require_valid=False) is not None


class TestFz:
    def test_round_trip(self, z4):
        mu = FuzzySubset.from_mapping(z4, {"0": "1/1", "2": "1/2"})
        parsed = gsr.parse_fz_text(gsr.format_fz(mu), z4)
        assert parsed == mu

    def test_missing_elements_default_to_zero(self, z4):
        mu = gsr.parse_fz_text("0 : 1/1\n", z4)
        assert mu.grades == (1, 0, 0, 0)

    def test_errors(self, z4):
        with pytest.raises(gsr.GsrError):
            gsr.parse_fz_text("9 : 1/1\n", z4)
        with pytest.raises(gsr.GsrError):
            gsr.parse_fz_text("0 = 1/1\n", z4)
        with pytest.raises(gsr.GsrError):
            gsr.parse_fz_text("0 : 1/1\n0 : 0/1\n", z4)
        with pytest.raises(gsr.GsrError):
            gsr.parse_fz_text("0 : 5/2\n", z4)
        with pytest.raises(gsr.GsrError, match="bad grade '1/0'"):
            gsr.parse_fz_text("0 : 1/0\n", z4)
