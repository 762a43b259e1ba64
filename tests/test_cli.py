"""End-to-end CLI contract: subcommands, exit codes, output formats."""

import json

import pytest

from gsl import cli, core, gsr, verify
from gsl.config import RunConfig


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gb_file(tmp_path, capsys):
    path = str(tmp_path / "gb.gsr")
    code, _, _ = run(capsys, "gen", "boolean", "-o", path)
    assert code == 0
    return path


@pytest.fixture()
def z4_file(tmp_path, capsys):
    path = str(tmp_path / "z4.gsr")
    code, _, _ = run(capsys, "gen", "zn", "--n", "4", "-o", path)
    assert code == 0
    return path


class TestGen:
    def test_round_trip_through_file(self, gb_file):
        from gsl import core

        parsed = gsr.parse_gsr(gb_file)
        assert parsed == core.boolean_gamma()

    def test_gen_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "zn", "--n", "2")
        assert code == 0
        assert out.startswith("[gamma_semiring]")

    def test_gen_semiring_kinds(self, tmp_path, capsys):
        sr = str(tmp_path / "b.gsr")
        assert run(capsys, "gen", "boolean-semiring", "-o", sr)[0] == 0
        code, out, _ = run(capsys, "gen", "from-semiring", "--input", sr)
        assert code == 0
        assert "name = from_boolean_semiring" in out

    def test_gen_errors(self, capsys):
        assert run(capsys, "gen", "zn", "--n", "1")[0] == 2
        assert run(capsys, "gen", "zn")[0] == 2
        assert run(capsys, "gen", "unknown-kind")[0] == 2


class TestValidate:
    def test_ok(self, gb_file, capsys):
        code, out, _ = run(capsys, "validate", gb_file)
        assert code == 0 and "ok" in out

    def test_violations_exit_1(self, tmp_path, capsys, gb):
        text = gsr.format_gamma(gb).replace("gamma = 1\n0 0\n0 1", "gamma = 1\n0 1\n0 1")
        bad = tmp_path / "bad.gsr"
        bad.write_text(text)
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "zero_s_left" in out

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "validate", "missing.gsr")
        assert code == 2 and "io" in err


class TestFrontierFile:
    """from_B5 (32 elements, 2^25 associativity cells), emitted as a file:
    the CLI validates it on generators, and on a one-cell product mutant
    prints what the dense scan finds."""

    @pytest.fixture(scope="class")
    def from_b5(self):
        return core.gamma_from_semiring(core.boolean_power_semiring(5))

    def test_validate_and_verify(self, from_b5, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GSL_CAP", raising=False)
        path = tmp_path / "from_B5.gsr"
        path.write_text(gsr.format_gamma(from_b5))
        assert run(capsys, "validate", str(path)) == (0, "from_B5: ok\n", "")
        code, out, _ = run(capsys, "verify", str(path), "--suite", "th3.17", "--report", "json")
        in_process = [r.body() for r in verify.run_all(from_b5, RunConfig()) if r.suite == "th3.17"]
        assert code == 0 and json.loads(out)["reports"] == in_process

    def test_validate_a_mutant_prints_the_dense_violations(self, from_b5, tmp_path, capsys):
        add_s, add_g, prod = (t.copy() for t in from_b5.tables)
        prod[5, 9, 3] = (prod[5, 9, 3] + 1) % 32
        bad = core.GammaSemiring("from_B5~", from_b5.S, from_b5.G, add_s, add_g, prod)
        path = tmp_path / "bad.gsr"
        path.write_text(gsr.format_gamma(bad))
        dense = core._gamma_outcome(bad)
        expected = [f"from_B5~: {len(dense.violations)} axiom violation(s)"]
        expected += [f"  {v.axiom}: witness ({', '.join(v.witness)})" for v in dense.violations]
        assert not dense.ok
        assert run(capsys, "validate", str(path)) == (1, "\n".join(expected) + "\n", "")


class TestOperators:
    def test_summary_and_dump(self, z4_file, capsys):
        code, out, _ = run(capsys, "operators", z4_file, "--side", "left", "--dump")
        assert code == 0
        assert "elements = 4" in out
        assert "unity = f1 via [1,1]" in out
        assert "[semiring]" in out and "carrier = f0 f1 f2 f3" in out

    def test_right_side(self, gb_file, capsys):
        code, out, _ = run(capsys, "operators", gb_file, "--side", "right")
        assert code == 0 and "elements = 2" in out


class TestIdeals:
    def test_crisp(self, z4_file, capsys):
        code, out, _ = run(capsys, "ideals", z4_file)
        assert code == 0
        assert "crisp two-ideals: 3" in out
        assert "ideal[1]: 0 2" in out

    def test_fuzzy(self, z4_file, capsys):
        code, out, _ = run(capsys, "ideals", z4_file, "--fuzzy", "--chain", "0,1/2,1")
        assert code == 0
        assert "fuzzy two-ideals over chain 0/1,1/2,1/1: 6" in out


class TestTransfer:
    def test_plusprime(self, gb_file, tmp_path, capsys):
        fz = tmp_path / "sigma.fz"
        fz.write_text("0 : 1/1\n1 : 1/2\n")
        code, out, _ = run(capsys, "transfer", gb_file, "--subset", str(fz), "--map", "plusprime")
        assert code == 0
        assert out == "f0 : 1/1\nf1 : 1/2\n"

    def test_plus_reads_operator_side_subset(self, gb_file, tmp_path, capsys):
        fz = tmp_path / "mu.fz"
        fz.write_text("f0 : 1/1\nf1 : 1/2\n")
        code, out, _ = run(capsys, "transfer", gb_file, "--subset", str(fz), "--map", "plus")
        assert code == 0
        assert out == "0 : 1/1\n1 : 1/2\n"

    def test_star_duals(self, gb_file, tmp_path, capsys):
        fz = tmp_path / "sigma.fz"
        fz.write_text("0 : 1/1\n1 : 0/1\n")
        code, out, _ = run(capsys, "transfer", gb_file, "--subset", str(fz), "--map", "starprime")
        assert code == 0
        assert out == "f0 : 1/1\nf1 : 0/1\n"


class TestMatrix:
    def test_build_and_emit(self, gb_file, tmp_path, capsys):
        out_path = str(tmp_path / "gb2.gsr")
        code, out, _ = run(capsys, "matrix", gb_file, "--n", "2", "--emit", out_path)
        assert code == 0
        assert "S elements = 16" in out
        emitted = gsr.parse_gsr(out_path)
        assert len(emitted.S) == 16 and emitted.S[0] == "m0"

    def test_cap_exit_2(self, z4_file, capsys):
        code, _, err = run(capsys, "matrix", z4_file, "--n", "2")
        assert code == 2 and "cap" in err


class TestVerify:
    def test_full_pipeline_exit_0(self, gb_file, capsys):
        code, out, _ = run(capsys, "verify", gb_file, "--suite", "all")
        assert code == 0
        assert out.count("status: pass") == 12

    def test_single_suite(self, z4_file, capsys):
        code, out, _ = run(capsys, "verify", z4_file, "--suite", "th3.8", "--kind", "two")
        assert code == 0
        assert "suite: th3.8[two]" in out

    def test_precondition_unmet_is_exit_0(self, z4_file, capsys):
        code, out, _ = run(capsys, "verify", z4_file, "--suite", "th3.18")
        assert code == 0
        assert "status: precondition-unmet" in out

    def test_missing_file_exit_2(self, capsys):
        assert run(capsys, "verify", "missing.gsr")[0] == 2

    def test_cap_hit_gates_suites_and_exits_0(self, z4_file, capsys, monkeypatch):
        monkeypatch.setenv("GSL_CAP", "10")
        code, out, err = run(capsys, "verify", z4_file)
        assert code == 0 and err == ""
        assert out.count("suite: ") == 12
        assert out.count("status: precondition-unmet") == 12
        assert out.count("  - 27 candidates (= 3^3) exceed cap 10") == 5
        assert out.count("  - 2^4 subsets exceed cap 10") == 3

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_cap_env_is_named_and_exits_2(self, gb_file, capsys, monkeypatch, value):
        monkeypatch.setenv("GSL_CAP", value)
        code, out, err = run(capsys, "verify", gb_file)
        assert (code, out) == (2, "")
        assert err == f"error: GSL_CAP must be a positive integer, got '{value}'\n"

    def test_ideals_cap_hit_exits_2(self, z4_file, capsys, monkeypatch):
        monkeypatch.setenv("GSL_CAP", "10")
        code, _, err = run(capsys, "ideals", z4_file, "--fuzzy")
        assert code == 2 and "exceed cap 10" in err
        code, _, err = run(capsys, "ideals", z4_file)
        assert code == 2 and "exceed cap 10" in err

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "verify")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("command", [("verify",), ("ideals", "--fuzzy")])
    def test_zero_denominator_in_chain_exits_2(self, z4_file, capsys, command):
        code, out, err = run(capsys, command[0], z4_file, *command[1:], "--chain", "0,1/0,1")
        assert (code, out, err) == (2, "", "error: grade 1/0 has a zero denominator\n")

    def test_json_schema(self, z4_file, capsys):
        code, out, _ = run(capsys, "verify", z4_file, "--suite", "lemmas", "--report", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "file", "config", "reports", "timings_ms"}
        report = payload["reports"][0]
        assert set(report) == {
            "suite",
            "instance",
            "chain",
            "status",
            "counterexample",
            "counts",
            "notes",
        }
        assert payload["timings_ms"].keys() == {"lemmas"}

    def test_semiring_file_runs_317(self, tmp_path, capsys):
        path = str(tmp_path / "b.gsr")
        run(capsys, "gen", "boolean-semiring", "-o", path)
        code, out, _ = run(capsys, "verify", path, "--suite", "all")
        assert code == 0
        assert "suite: th3.17" in out
        code, _, _ = run(capsys, "verify", path, "--suite", "th3.8")
        assert code == 2

    def test_bodies_byte_identical_across_runs(self, z4_file, capsys):
        def body(raw):
            payload = json.loads(raw)
            payload.pop("timings_ms")
            return json.dumps(payload, sort_keys=False)

        _, out1, _ = run(capsys, "verify", z4_file, "--suite", "all", "--report", "json")
        _, out2, _ = run(capsys, "verify", z4_file, "--suite", "all", "--report", "json")
        assert body(out1) == body(out2)

    def test_text_timing_lines_segregated(self, z4_file, capsys):
        _, out, _ = run(capsys, "verify", z4_file, "--suite", "lemmas")
        lines = out.splitlines()
        timing = [l for l in lines if l.startswith("time:")]
        assert len(timing) == 1
        assert lines.index(timing[0]) > lines.index("status: pass")


class TestParserReuse:
    SEQUENCE = [
        ("verify", "{f}", "--suite", "th3.8", "--kind", "right"),
        ("verify", "{f}", "--suite", "th3.8"),
        ("gen", "boolean"),
        ("verify",),
        ("ideals", "{f}", "--fuzzy"),
    ]

    def _outputs(self, capsys, path):
        """Exit code, stdout without the timing lines, and stderr per call."""
        results = []
        for argv in self.SEQUENCE:
            code, out, err = run(capsys, *(a.format(f=path) for a in argv))
            results.append((code, [l for l in out.splitlines() if not l.startswith("time:")], err))
        return results

    def test_one_parser_serves_a_sequence_of_calls(self, z4_file, capsys, monkeypatch):
        """`main` builds its parser once per process, and no parse leaves
        state behind: each call prints what a freshly built parser gives."""
        shared = self._outputs(capsys, z4_file)
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert shared == self._outputs(capsys, z4_file)
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0]
        suites = [[l for l in out if l.startswith("suite: ")] for _, out, _ in shared[:2]]
        assert suites == [["suite: th3.8[right]"], ["suite: th3.8[two]", "suite: th3.8[right]"]]
