"""The command-line surface: output formats, exit codes, determinism."""

import gc
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from softbayes import core, netspec, updates
from softbayes.cli import (
    MAX_FILE_BYTES, build_parser, corpus_names, corpus_source, main,
)
from softbayes.errors import UnknownElement

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "softbayes" / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def disease_file():
    return str(CORPUS / "disease.netspec")


class TestEval:
    def test_pearl_posterior(self, capsys, disease_file):
        code, out, _ = run(capsys, "eval", disease_file, "pearl_posterior")
        assert code == 0
        # canonical reduced form of 148/4702 and 4554/4702
        assert out.strip() == "74/2351|d> + 2277/2351|~d>"

    def test_prior_echo(self, capsys, disease_file):
        code, out, _ = run(capsys, "eval", disease_file, "prior")
        assert code == 0
        assert out.strip() == "1/100|d> + 99/100|~d>"

    def test_halpern_jeffrey(self, capsys):
        code, out, _ = run(
            capsys, "eval", str(CORPUS / "halpern.netspec"), "jeffrey_posterior"
        )
        assert code == 0
        assert out.strip() == "1/10|r> + 7/20|b> + 7/20|g> + 1/5|y>"

    def test_decimal_rendering_added_to_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", str(CORPUS / "barber.netspec"), "jeffrey_burglar",
            "--decimal", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "693030323800000199/999998030100970100|b> + "
            "306967706300969901/999998030100970100|~b>"
        )
        assert lines[1] == "0.693|b> + 0.307|~b>"

    def test_explain_prints_intermediates(self, capsys, disease_file):
        code, out, _ = run(
            capsys, "eval", disease_file, "jeffrey_posterior", "--explain"
        )
        assert code == 0
        assert "# rule: jeffrey" in out
        assert "# inverted row t: 2/13|d> + 11/13|~d>" in out
        assert out.strip().endswith("3018/24479|d> + 21461/24479|~d>")

    def test_explain_pearl_shows_working(self, capsys, disease_file):
        code, out, _ = run(
            capsys, "eval", disease_file, "pearl_posterior", "--explain"
        )
        assert code == 0
        assert "# transformed predicate: {d: 37/50, ~d: 23/100}" in out
        assert "# validity: 2351/10000" in out

    def test_explain_on_plain_query_prints_value_only(self, capsys, disease_file):
        code, out, _ = run(capsys, "eval", disease_file, "predicted", "--explain")
        assert code == 0
        assert out.strip() == "117/2000|t> + 1883/2000|~t>"

    @pytest.fixture
    def alias_file(self, tmp_path):
        f = tmp_path / "alias.netspec"
        f.write_text(
            (CORPUS / "disease.netspec").read_text(encoding="utf-8")
            + "query a = jeffrey_posterior\nquery b = a\nquery c = prior\n",
            encoding="utf-8",
        )
        return str(f)

    @pytest.mark.parametrize("alias", ["a", "b"])
    def test_alias_explains_like_its_target(self, capsys, alias_file, alias):
        """A query that only names an update query, directly or through
        another alias, prints the same working as the update query."""
        target = run(capsys, "eval", alias_file, "jeffrey_posterior", "--explain")
        code, out, err = run(capsys, "eval", alias_file, alias, "--explain")
        assert (code, out, err) == target
        assert "# inverted row t: 2/13|d> + 11/13|~d>" in out

    def test_alias_of_state_explains_value_only(self, capsys, alias_file):
        code, out, _ = run(capsys, "eval", alias_file, "c", "--explain")
        assert code == 0
        assert out == "1/100|d> + 99/100|~d>\n"

    def test_working_is_computed_only_for_explain(self, capsys, monkeypatch):
        """Plain eval of each top-level update query in the corpus calls no
        report; --explain calls the one its rule names."""
        def refuse(*args):
            raise AssertionError("working computed without --explain")

        for op in netspec.OPERATIONS.values():
            if op.report:
                monkeypatch.setattr(updates, op.report, refuse)
        rules = set()
        for file in corpus_names():
            env = netspec.load(corpus_source(file))
            for name, query in env.queries.items():
                op = getattr(query.bound, "op", None)
                if op is None or netspec.OPERATIONS[op].report is None:
                    continue
                rules.add(op)
                code, out, err = run(capsys, "eval", str(CORPUS / file), name)
                assert (code, err) == (0, "") and out
                with pytest.raises(AssertionError, match="without --explain"):
                    main(["eval", str(CORPUS / file), name, "--explain"])
        assert rules == {"pearl", "jeffrey", "atc", "nec", "blend"}

    def test_show_zeros(self, capsys, tmp_path):
        f = tmp_path / "z.netspec"
        f.write_text(
            "space s = { a, b, c }\nstate st : s = { a: 1/2, c: 1/2 }\n",
            encoding="utf-8",
        )
        _, out, _ = run(capsys, "eval", str(f), "st")
        assert out.strip() == "1/2|a> + 1/2|c>"
        _, out, _ = run(capsys, "eval", str(f), "st", "--show-zeros")
        assert out.strip() == "1/2|a> + 0|b> + 1/2|c>"

    def test_unknown_query_exits_one(self, capsys, disease_file):
        code, _, err = run(capsys, "eval", disease_file, "nonsense")
        assert code == 1
        assert "nonsense" in err

    def test_space_name_is_called_a_space(self, capsys, disease_file):
        code, out, err = run(capsys, "eval", disease_file, "disease")
        assert (code, out) == (1, "")
        assert err == "error: 'disease' is a space, which has no value to evaluate\n"

    def test_ill_spaced_query_exits_two_with_position(self, capsys, tmp_path):
        """A query's space fault is a parse error of the whole file, so an
        eval of a name declared before the query fails too."""
        f = tmp_path / "z.netspec"
        text = corpus_source("disease.netspec") + "query z = pearl(predicted, sens, pos)\n"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(netspec.NetspecError):
            netspec.parse(text)
        for path, line in ((f, 28), (CORPUS / "malformed_query.netspec", 8)):
            code, out, err = run(capsys, "eval", str(path), "prior")
            assert (code, out) == (2, "")
            assert err == (
                f"{line}:11: error: query 'z' at z/pearl: "
                "prior on 'test' vs channel domain 'disease'\n"
            )

    def test_parse_error_exits_two_with_position(self, capsys):
        code, _, err = run(
            capsys, "eval", str(CORPUS / "malformed_weights.netspec"), "prior"
        )
        assert code == 2
        assert "3:1: error: weights sum to 5/6, expected 1" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "no_such_file.netspec", "prior")
        assert code == 2

    def test_directory_as_file_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", str(tmp_path), "prior")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_file_of_the_size_limit_is_read_and_one_byte_more_refused(
        self, capsys, tmp_path
    ):
        source = (CORPUS / "disease.netspec").read_bytes() + b"#"
        padded = source + b"x" * (MAX_FILE_BYTES - len(source))
        f = tmp_path / "padded.netspec"
        f.write_bytes(padded)
        code, out, _ = run(capsys, "eval", str(f), "prior")
        assert (code, out) == (0, "1/100|d> + 99/100|~d>\n")
        f.write_bytes(padded + b"x")
        code, out, err = run(capsys, "eval", str(f), "prior")
        assert (code, out) == (2, "")
        assert err == f"1:1: error: file is larger than {MAX_FILE_BYTES} bytes\n"
        if Path("/dev/zero").exists():  # endless, and reports no size
            assert run(capsys, "eval", "/dev/zero", "prior") == (2, "", err)

    def test_non_utf8_file_exits_two_with_position(self, capsys, tmp_path):
        f = tmp_path / "latin1.netspec"
        f.write_bytes("space s = { a, b }\n# café\n".encode("latin-1"))
        code, out, err = run(capsys, "eval", str(f), "s")
        assert code == 2
        assert out == ""
        assert err == "2:6: error: invalid UTF-8 byte 0xe9\n"

    def test_non_ascii_digits_exit_two_with_position(self, capsys, tmp_path):
        """Numbers take the digits 0-9 only: Arabic-Indic digits, which
        Unicode also counts as decimal, are characters no token begins with."""
        f = tmp_path / "digits.netspec"
        f.write_text(
            "space s = { a, b }\nstate p : s = { a: ١/٢, b: 1/2 }\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "eval", str(f), "p")
        assert code == 2
        assert out == ""
        assert err == (
            "2:20: error: unexpected character '١'\n"
            "2:21: error: unexpected character '/'\n"
            "2:22: error: unexpected character '٢'\n"
            "2:23: error: expected a rational number, got ','\n"
        )

    def test_nesting_past_the_cap_exits_two_with_position(self, capsys, tmp_path):
        f = tmp_path / "deep.netspec"
        calls = "transform(c, " * 2000 + "p" + ")" * 2000
        f.write_text(
            "space s = { a, b }\nstate p : s = { a: 1/2, b: 1/2 }\n"
            "channel c : s -> s = { a: { a: 1 }, b: { b: 1 } }\n"
            f"query q = {calls}\n"
        )
        code, out, err = run(capsys, "eval", str(f), "q")
        assert code == 2
        assert out == ""
        assert err == "4:1311: error: nested more than 100 levels deep\n"

    def test_reference_chain_of_600_links_exits_zero(self, capsys, tmp_path):
        f = tmp_path / "chain.netspec"
        f.write_text(
            "space s = { a, b }\nstate p : s = { a: 1/2, b: 1/2 }\n"
            "channel c : s -> s = { a: { a: 1 }, b: { b: 1 } }\n"
            "query q0 = transform(c, p)\n"
            + "".join(f"query q{i} = transform(c, q{i - 1})\n" for i in range(1, 600))
        )
        code, out, err = run(capsys, "eval", str(f), "q599")
        assert code == 0
        assert out == "1/2|a> + 1/2|b>\n"
        assert err == ""

    def test_error_in_a_query_used_twice_exits_one(self, capsys, tmp_path):
        f = tmp_path / "bad.netspec"
        f.write_text(
            "space s = { a, b }\nstate p : s = { a: 1/2, b: 1/2 }\n"
            "predicate z : s = { a: 0, b: 0 }\n"
            "query bad = condition(p, z)\n"
            "query uses = blend(1/2, bad, bad)\n"
        )
        code, out, err = run(capsys, "eval", str(f), "uses")
        assert (code, out) == (1, "")
        assert err == "error: cannot condition: predicate has validity 0\n"

    @pytest.mark.parametrize(
        "query, working",
        [
            ("atc(p, {x, y}, 1)", "# event prior mass: 1"),
            ("nec(p, {x, y}, 2)", "# equivalent predicate: {x: 1, y: 1}"),
        ],
    )
    def test_explain_whole_space_event(self, capsys, tmp_path, query, working):
        f = tmp_path / "whole.netspec"
        f.write_text(
            "space s = { x, y }\nstate p : s = { x: 1/3, y: 2/3 }\n"
            f"query q = {query}\n"
        )
        code, out, _ = run(capsys, "eval", str(f), "q", "--explain")
        assert code == 0
        assert out.splitlines()[2:] == [working, "1/3|x> + 2/3|y>"]

    def test_overlong_number_literal_exits_two_with_position(self, capsys, tmp_path):
        f = tmp_path / "huge.netspec"
        literal = "1" * 5000  # past Python's int/str digit limit
        f.write_text(f"space s = {{ a, b }}\nstate p : s = {{ a: {literal}, b: 0 }}\n")
        code, out, err = run(capsys, "eval", str(f), "p")
        assert (code, out, err) == (
            2, "", "2:20: error: number literal too long (5000 characters)\n"
        )

    @pytest.mark.parametrize(
        "declaration, expected",
        [
            ("state p : s = { a: 1/0, b: 1/2 }", "2:20: error: zero denominator"),
            ("channel p : s -> s = { a: { a: 1/0 }, b: { b: 1 } }",
             "2:32: error: zero denominator"),
            ("state q : s = { a: 1/2, b: 1/2 }\nquery p = nec(q, {a}, 1/0)",
             "3:23: error: zero denominator"),
            ("state q : s = { a: 1/2, b: 1/2 }\nquery p = blend(1/0, q, q)",
             "3:17: error: zero denominator"),
        ],
        ids=["state", "channel-row", "factor", "scalar"],
    )
    def test_rejected_literal_is_the_declarations_only_fault(
        self, capsys, tmp_path, declaration, expected
    ):
        """Nothing is built or checked from a literal the tokenizer rejected,
        so no second diagnostic follows from it."""
        f = tmp_path / "zero.netspec"
        f.write_text(f"space s = {{ a, b }}\n{declaration}\n")
        code, out, err = run(capsys, "eval", str(f), "p")
        assert (code, out, err) == (2, "", expected + "\n")


class TestNameBinding:
    """A bare name means what it meant where its query was declared, and
    ``eval NAME`` resolves NAME the same way a query does."""

    PRELUDE = "space s = { a, b }\n"

    def eval_lines(self, capsys, tmp_path, text, name):
        f = tmp_path / "names.netspec"
        f.write_text(self.PRELUDE + text)
        code, out, err = run(capsys, "eval", str(f), name)
        assert (code, err) == (0, "")
        return out

    def test_later_declaration_does_not_change_a_query(self, capsys, tmp_path):
        text = (
            "predicate x : s = { a: 1, b: 0 }\n"
            "query q = x\n"
            "state x : s = { a: 1/2, b: 1/2 }\n"
        )
        assert self.eval_lines(capsys, tmp_path, text, "q") == "{a: 1, b: 0}\n"

    def test_query_reference_survives_a_later_state(self, capsys, tmp_path):
        text = (
            "state prior : s = { a: 1/2, b: 1/2 }\n"
            "channel c : s -> s = { a: { a: 1 }, b: { a: 1 } }\n"
            "query x = transform(c, prior)\n"
            "query r = x\n"
            "state x : s = { a: 1/4, b: 3/4 }\n"
        )
        assert self.eval_lines(capsys, tmp_path, text, "r") == "1|a>\n"
        assert self.eval_lines(capsys, tmp_path, text, "x") == "1|a>\n"

    def test_eval_name_and_query_reference_agree(self, capsys, tmp_path):
        text = (
            "predicate x : s = { a: 1, b: 0 }\n"
            "channel x : s -> s = { a: { a: 1 }, b: { b: 1 } }\n"
            "query q = x\n"
        )
        direct = self.eval_lines(capsys, tmp_path, text, "x")
        assert direct == "a -> 1|a>\nb -> 1|b>\n"
        assert self.eval_lines(capsys, tmp_path, text, "q") == direct

    def test_function_may_not_reuse_a_channel_name(self, capsys, tmp_path):
        f = tmp_path / "names.netspec"
        f.write_text(
            self.PRELUDE
            + "channel f : s -> s = { a: { a: 1 }, b: { b: 1 } }\n"
            "function f : s -> s = { a -> a, b -> b }\n"
        )
        code, out, err = run(capsys, "eval", str(f), "f")
        assert (code, out) == (2, "")
        assert err == "3:10: error: duplicate function name 'f'\n"


class TestSweep:
    def test_header_and_rows(self, capsys, disease_file):
        code, out, _ = run(
            capsys, "sweep", disease_file,
            "--channel", "sens", "--prior", "prior", "--target", "d",
            "--steps", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,jeffrey,pearl"
        assert len(lines) == 12  # header + 11 rows

    def test_endpoints_coincide(self, capsys, disease_file):
        _, out, _ = run(
            capsys, "sweep", disease_file,
            "--channel", "sens", "--prior", "prior", "--target", "d",
            "--steps", "4",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows[0][1] == rows[0][2] == "2/1883"
        assert rows[-1][1] == rows[-1][2] == "2/13"

    def test_soft_positive_row_matches_known_posteriors(self, capsys, disease_file):
        _, out, _ = run(
            capsys, "sweep", disease_file,
            "--channel", "sens", "--prior", "prior", "--target", "d",
            "--steps", "10",
        )
        rows = {r.split(",")[0]: r.split(",") for r in out.strip().splitlines()[1:]}
        row = rows["4/5"]
        assert F(row[1]) == F(27162, 220311)
        assert F(row[2]) == F(148, 4702)

    def test_jeffrey_column_is_affine(self, capsys, disease_file):
        _, out, _ = run(
            capsys, "sweep", disease_file,
            "--channel", "sens", "--prior", "prior", "--target", "d",
            "--steps", "20",
        )
        values = [F(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        second_differences = {
            values[i + 2] - 2 * values[i + 1] + values[i]
            for i in range(len(values) - 2)
        }
        assert second_differences == {F(0)}

    def test_deterministic_output(self, capsys, disease_file):
        args = (
            "sweep", disease_file,
            "--channel", "sens", "--prior", "prior", "--target", "d",
            "--steps", "7",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_decimal_mode(self, capsys, disease_file):
        _, out, _ = run(
            capsys, "sweep", disease_file,
            "--channel", "sens", "--prior", "prior", "--target", "d",
            "--steps", "2", "--decimal", "4",
        )
        rows = out.strip().splitlines()
        assert rows[1] == "0.0000,0.0011,0.0011"

    def test_non_binary_evidence_space_rejected(self, capsys, tmp_path):
        f = tmp_path / "tri.netspec"
        f.write_text(
            "space a = { x, y }\nspace b = { u, v, w }\n"
            "state pr : a = { x: 1/2, y: 1/2 }\n"
            "channel c : a -> b = { x: { u: 1 }, y: { v: 1 } }\n",
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "sweep", str(f),
            "--channel", "c", "--prior", "pr", "--target", "x",
        )
        assert code == 1
        assert "binary evidence space" in err

    def test_sweep_through_lifted_function(self, capsys):
        _, out, _ = run(
            capsys, "sweep", str(CORPUS / "halpern.netspec"),
            "--channel", "coarse", "--prior", "prior", "--target", "r",
            "--steps", "10",
        )
        rows = {r.split(",")[0]: r.split(",") for r in out.strip().splitlines()[1:]}
        # evidence r on |gb>: at 7/10 this is the worked glimpse update
        assert F(rows["7/10"][1]) == F(1, 10)
        assert rows["0"][1] == rows["0"][2]

    def test_unknown_channel_or_target(self, capsys, disease_file):
        code, _, err = run(
            capsys, "sweep", disease_file,
            "--channel", "nope", "--prior", "prior", "--target", "d",
        )
        assert code == 1
        code, _, err = run(
            capsys, "sweep", disease_file,
            "--channel", "sens", "--prior", "prior", "--target", "zz",
        )
        assert code == 1

    GAPS = (
        "space x = { a, b }\n"
        "space y = { u, v }\n"
        "space z = { p, q }\n"
        "state pr : x = { a: 1/2, b: 1/2 }\n"
        "state elsewhere : z = { p: 1/2, q: 1/2 }\n"
        "channel misses_u : x -> y = { a: { v: 1 }, b: { v: 1 } }\n"
        "channel misses_v : x -> y = { a: { u: 1 }, b: { u: 1 } }\n"
    )

    @pytest.mark.parametrize(
        "channel, prior, decimal, expected_out, expected_err",
        [
            ("misses_u", "pr", [], "r,jeffrey,pearl\n0,1/2,1/2\n",
             "error: cannot invert: predicted state has weight 0 at u\n"),
            ("misses_u", "pr", ["--decimal", "3"],
             "r,jeffrey,pearl\n0.000,0.500,0.500\n",
             "error: cannot invert: predicted state has weight 0 at u\n"),
            ("misses_v", "pr", [], "r,jeffrey,pearl\n",
             "error: cannot invert: predicted state has weight 0 at v\n"),
            ("misses_v", "pr", ["--decimal", "3"], "r,jeffrey,pearl\n",
             "error: cannot invert: predicted state has weight 0 at v\n"),
            ("misses_u", "elsewhere", [], "r,jeffrey,pearl\n",
             "error: inversion: space 'z' is not space 'x'\n"),
            ("misses_u", "nope", [], "", "error: no state named 'nope'\n"),
        ],
        ids=[
            "gap-y1", "gap-y1-decimal", "gap-y2", "gap-y2-decimal", "mismatch",
            "unknown-prior",
        ],
    )
    def test_failure_prints_partial_csv_then_exits_one(
        self, capsys, tmp_path, channel, prior, decimal, expected_out, expected_err
    ):
        """A prediction gap fails at the first step whose evidence needs the
        missing element, after the rows before it are printed."""
        f = tmp_path / "gaps.netspec"
        f.write_text(self.GAPS)
        code, out, err = run(
            capsys, "sweep", str(f), "--channel", channel, "--prior", prior,
            "--target", "a" if prior == "pr" else "p", "--steps", "4", *decimal,
        )
        assert (code, out, err) == (1, expected_out, expected_err)


DISEASE = core.Space("disease", ("d", "~d"))


@pytest.mark.parametrize(
    "call",
    [
        lambda: core.point_mass(DISEASE, "zz"),
        lambda: core.point(DISEASE, "zz"),
        lambda: core.indicator(DISEASE, ["d", "zz", "yy"]),
        lambda: main([
            "sweep", str(CORPUS / "disease.netspec"), "--channel", "sens",
            "--prior", "prior", "--target", "zz",
        ]),
    ],
    ids=["point_mass", "point", "indicator", "sweep"],
)
def test_unknown_element_is_named_in_the_space_words(capsys, call):
    """Each names the first unknown element as ``Space.require`` words it."""
    try:
        code, err = call(), capsys.readouterr().err
    except UnknownElement as exc:
        code, err = 1, f"error: {exc}\n"
    assert (code, err) == (1, "error: 'zz' is not an element of space 'disease'\n")


class TestExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        lines = out.strip().splitlines()
        assert all("PASS" in line for line in lines[:-1])
        assert "FAIL" not in out
        assert lines[-1].endswith("passed")
        assert "dietrich.netspec final" in out
        assert "4/11|c> + 7/11|~c>" in out
        assert "1/10|c,e> + 1/40|c,~e> + 7/40|~c,e> + 7/10|~c,~e>" in out
        assert "4/5|c> + 1/5|~c>" in out


class TestCheck:
    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "check", "--seed", "3", "--instances", "25")
        assert code == 0
        assert "25 instances, seed 3: ok" in out

    def test_seed_changes_instances_not_verdict(self, capsys):
        code_a, out_a, _ = run(capsys, "check", "--seed", "1", "--instances", "10")
        code_b, out_b, _ = run(capsys, "check", "--seed", "2", "--instances", "10")
        assert code_a == code_b == 0

    def test_repeated_runs_keep_no_objects(self, capsys):
        """Checks in one process keep nothing from run to run: after a
        warm-up, 200 more leave the number of objects the collector tracks
        within a small constant.  A rising peak RSS over such a loop is the
        allocator holding freed memory, not a leak."""
        for seed in range(20):
            main(["check", "--seed", str(seed), "--instances", "5"])
        gc.collect()
        before = len(gc.get_objects())
        for seed in range(200):
            main(["check", "--seed", str(seed), "--instances", "5"])
        gc.collect()
        assert len(gc.get_objects()) - before < 50
        assert capsys.readouterr().out.count(": ok\n") == 220

    @pytest.mark.parametrize(
        "module, kernel, message",
        [
            ("updates", "dagger", "inverted row"),
            ("updates", "jeffrey_update", "Jeffrey update"),
            ("updates", "pearl_update", "Pearl update"),
            ("core", "condition", "conditioning"),
            ("core", "state_transform", "prediction"),
            ("core", "marginal", "product marginals"),
        ],
    )
    def test_wrong_kernel_is_reported(
        self, capsys, monkeypatch, module, kernel, message
    ):
        """A kernel that returns a valid but wrong value, a point mass, is
        caught, and only on the lines that compare it: every instance has
        full-support priors and rows, so no true inverted row, update,
        prediction or marginal is a point mass."""
        from softbayes import cli, core, updates

        def first(space):
            return core.point_mass(space, space.elements[0])

        def wrong_dagger(c, sigma):
            return core.Channel(
                c.codomain, c.domain, {y: first(c.domain) for y in c.codomain}
            )

        wrong = {
            "dagger": wrong_dagger,
            "jeffrey_update": lambda sigma, c, rho, **_: first(sigma.space),
            "pearl_update": lambda sigma, c, q: first(sigma.space),
            "condition": lambda sigma, p: first(sigma.space),
            "state_transform": lambda c, sigma: first(c.codomain),
            "marginal": lambda tau, which: first(
                tau.space.left if which == "first" else tau.space.right
            ),
        }[kernel]
        monkeypatch.setattr({"core": core, "updates": updates}[module], kernel, wrong)
        mismatches = cli.run_oracle_check(seed=5, instances=4)
        assert mismatches
        assert all(message in line and "differ" in line for line in mismatches)
        code, out, err = run(capsys, "check", "--seed", "5", "--instances", "4")
        assert code == 1
        assert out == "oracle check: 4 instances, seed 5: MISMATCH\n"
        assert err == "".join(f"{line}\n" for line in mismatches)


class TestUsage:
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("sweep", ["--steps", "0"], "positive integer"),
            ("sweep", ["--decimal", "-3"], "positive integer"),
            ("sweep", ["--decimal", "0"], "positive integer"),
            ("check", ["--instances", "0"], "positive integer"),
            ("check", ["--instances", "-5"], "positive integer"),
            ("sweep", ["--steps", "x"], "invalid integer: 'x'"),
        ],
        ids=[
            "steps-0", "decimal-negative", "decimal-0", "instances-0",
            "instances-negative", "steps-x",
        ],
    )
    def test_nonpositive_counts_rejected_before_output(
        self, capsys, disease_file, command, flags, message
    ):
        argv = {
            "sweep": ["sweep", disease_file, "--channel", "sens", "--prior",
                      "prior", "--target", "d"],
            "check": ["check"],
        }[command] + flags
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_eval_decimal_must_be_positive(self, capsys, disease_file):
        with pytest.raises(SystemExit) as exc:
            main(["eval", disease_file, "prior", "--decimal", "-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_flag_is_usage_error(self, capsys, disease_file):
        with pytest.raises(SystemExit) as exc:
            main(["eval", disease_file, "prior", "--bogus"])
        assert exc.value.code == 2

    def test_shared_parser_carries_nothing_between_calls(self, capsys, disease_file):
        """One parser serves every call in a process; its output matches a
        freshly built parser's, so no default leaks from one call to the next."""
        argvs = [
            ["eval"],
            ["eval", disease_file, "prior", "--decimal", "3"],
            ["eval", disease_file, "prior"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        shared = [outcome(argv) for argv in argvs]
        assert build_parser() is build_parser()
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0]
        assert shared[2][1] == "1/100|d> + 99/100|~d>\n"


GOLDEN = ROOT / "bench" / "golden" / "golden.json"
GOLDEN_OPS = {
    argv: out
    for group in json.loads(GOLDEN.read_text(encoding="utf-8")).values()
    for argv, out in group.items()
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_OPS))
def test_golden_output_is_byte_identical(capsys, monkeypatch, argv):
    """Every corpus-cli and sweep op of the benchmark prints its stored
    stdout exactly; the paths in the stored commands are relative to the
    repository root."""
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *argv.split(" "))
    assert code == 0
    assert out == GOLDEN_OPS[argv]
