"""End-to-end command runs of `main` in-process.

Each check pins stdout and the exit code; timing must only ever appear
on stderr.
"""

import pytest
from cli_run import run_cli

from monadlab.hierarchy import golden_path


@pytest.fixture()
def run():
    return run_cli


class TestWorkedExamples:
    # the three command lines the documentation leads with

    def test_mset_cartesian_apply(self, run):
        res = run("law", "apply", "mset-cartesian", "{{a:1,b:2}:2}")
        assert res.exit_code == 0
        assert res.stdout == "{{a:2}:1,{a:1,b:1}:4,{b:2}:4}\n"

    def test_faulty_law_check_fails_with_witness(self, run):
        res = run("law", "check", "faulty-list-exception", "--carrier", "1",
                  "--bound", "2")
        assert res.exit_code == 1
        assert "mult-s violated at [[err(b)],[]]: err(b) != err(a)" in res.stdout
        assert "elapsed" not in res.stdout
        assert "elapsed" in res.stderr

    def test_nogo_list_over_list(self, run):
        res = run("nogo", "boom:UA--", "boom:UA--")
        assert res.exit_code == 1
        assert res.stdout.splitlines()[0] == "NO (LackingAbides)"


class TestTermCommands:
    def test_theories_list_mentions_every_registered_id(self, run):
        res = run("theories", "list")
        assert res.exit_code == 0
        assert "boom:UACI" in res.stdout
        assert "convex" in res.stdout
        assert "semigroup" in res.stdout  # aliases ride along

    def test_normalize(self, run):
        res = run("normalize", "M", "mul(x2, mul(x1, e))")
        assert res.exit_code == 0
        assert res.stdout == "mul(x1,x2)\n"

    def test_normalize_needs_a_reifier(self, run):
        # the free band procedure only decides, it cannot pick representatives
        res = run("normalize", "AI+", "mul(x1,x2)")
        assert res.exit_code == 2

    def test_prove_eq_decided(self, run):
        good = run("prove-eq", "C+", "mul(x1,x2)", "mul(x2,x1)")
        assert good.exit_code == 0
        assert good.stdout == "EQUAL (decision procedure)\n"
        bad = run("prove-eq", "T+", "mul(x1,x2)", "mul(x2,x1)")
        assert bad.exit_code == 1
        assert bad.stdout == "NOT EQUAL (decision procedure)\n"

    def test_prove_eq_bounded_search(self, run):
        res = run("prove-eq", "--bounded", "convex", "mix(x1,x2)", "mix(x2,x1)")
        assert res.exit_code == 0
        assert res.stdout.startswith("EQUAL (bounded search")
        res = run("prove-eq", "--bounded", "convex", "mix(x1,x2)", "x1")
        assert res.exit_code == 1
        assert res.stdout.startswith("NOT PROVED (bounded search")


class TestLawCommands:
    def test_monad_laws_ok(self, run):
        res = run("monad-laws", "dist", "--carrier", "2", "--bound", "3")
        assert res.exit_code == 0
        assert res.stdout.endswith("OK\n")
        assert "assoc" in res.stdout

    def test_monad_laws_with_no_cases_fails(self, run):
        res = run("monad-laws", "nonempty-list", "--bound", "0")
        assert res.exit_code == 1
        assert "assoc: no cases checked" in res.stdout
        assert "OK" not in res.stdout

    def test_law_check_ok(self, run):
        res = run("law", "check", "choice:list:powerset", "--carrier", "2",
                  "--bound", "2")
        assert res.exit_code == 0
        assert res.stdout.endswith("OK\n")

    def test_law_apply_second_paper_value(self, run):
        res = run("law", "apply", "mset-cartesian", "{{a:1}:1,{b:1,c:1}:1}")
        assert res.exit_code == 0
        assert res.stdout == "{{a:1,b:1}:1,{a:1,c:1}:1}\n"

    def test_law_search_no_law(self, run):
        res = run("law", "search", "powerset", "powerset")
        assert res.exit_code == 0
        assert "NoLawInFragment" in res.stdout

    def test_law_search_candidates(self, run):
        res = run("law", "search", "lift", "lift")
        assert res.exit_code == 0
        assert "Candidates" in res.stdout
        assert "ok(bot) -> bot" in res.stdout

    def test_law_search_too_many_maps_is_inconclusive(self, run):
        # the 7^7 maps on 9 inputs do not fit in memory; at carrier 6 the
        # 6^6 maps on 8 inputs still run
        res = run("law", "search", "lift", "lift", "--carrier", "7")
        assert res.exit_code == 0
        assert res.stdout == (
            "lift over lift, carriers (7,), bound 2: Inconclusive (naturality "
            "needs 7411887 (map, input) pairs over 823543 maps between "
            "carriers, more than 1000000)\n"
        )
        assert "Candidates" in run(
            "law", "search", "lift", "lift", "--carrier", "6"
        ).stdout


class TestVerdictCommands:
    def test_nogo_yes_with_replayed_law(self, run):
        res = run("nogo", "T", "P")
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "YES (choice:tree:powerset)"
        assert "  citation: Manes & Mulry 2007, Thm 4.3.4" in lines
        assert "  law choice:tree:powerset replayed green" in lines

    def test_nogo_unknown(self, run):
        res = run("nogo", "T+", "C+")
        assert res.exit_code == 0
        assert res.stdout == "UNKNOWN\n"

    def test_nogo_side_note(self, run):
        res = run("nogo", "P", "P")
        assert res.exit_code == 1
        assert res.stdout.splitlines()[0] == "NO (IdemUnits, Plotkin1)"
        assert "Klin & Salamanca 2018" in res.stdout

    def test_plotkin_refute(self, run):
        res = run("plotkin-refute")
        assert res.exit_code == 0
        assert "1024 candidate images, 0 survive" in res.stdout


class TestBoomTable:
    def test_markdown_output(self, run):
        res = run("boom-table", "original")
        assert res.exit_code == 0
        assert "| T | N[1] | N[1] | Y[2] | Y[2] |" in res.stdout
        assert "[1]: LackingAbides" in res.stdout

    def test_csv_output(self, run):
        res = run("boom-table", "original", "--format", "csv")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[0] == "variant,original"

    def test_golden_agreement(self, run):
        res = run("boom-table", "original", "--golden",
                  str(golden_path("original")))
        assert res.exit_code == 0
        assert res.stdout == "golden agreement: 16 cells\n"

    def test_golden_mismatch_exits_1(self, run, tmp_path):
        text = golden_path("original").read_text()
        flipped = text.replace("T,N[1],N[1]", "T,Y[2],N[1]", 1)
        assert flipped != text
        bad = tmp_path / "golden.csv"
        bad.write_text(flipped)
        res = run("boom-table", "original", "--golden", str(bad))
        assert res.exit_code == 1
        assert "1 mismatching cell(s)" in res.stdout
        assert "(T, T)" in res.stdout

    def test_golden_wrong_variant_is_usage_error(self, run):
        res = run("boom-table", "extended", "--golden",
                  str(golden_path("original")))
        assert res.exit_code == 2
        assert "dimension mismatch" in res.output


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args,fragment",
        [
            (("normalize", "nosuch", "x1"), "unknown theory"),
            (("monad-laws", "powerest"), "did you mean powerset"),
            (("law", "check", "nosuch-law"), "unknown law"),
            (("law", "apply", "mset-cartesian", "{{a:1,"), "unexpected end"),
            (("normalize", "L+", "mul(x1)"), "expects 2 argument"),
            (("prove-eq", "M", "mul(x1", "x1"), "unclosed"),
            (("boom-table", "weekly"), "Invalid value"),
            # carriers are the letters a..j; a bound is a size, so >= 0
            (("monad-laws", "lift", "--carrier", "12"), "--carrier"),
            (("monad-laws", "list", "--carrier", "-1", "--bound", "-2"), "--carrier"),
            (("monad-laws", "list", "--bound", "-2"), "--bound"),
            (("law", "check", "mset-cartesian", "--carrier", "0"), "--carrier"),
            (("law", "search", "lift", "lift", "--carrier", "11"), "--carrier"),
            (("law", "search", "lift", "lift", "--bound", "-1"), "--bound"),
            # bounds too small for P3 to fail; an exception monad needs a label
            (("nogo", "reader:2", "jsl", "--vars", "1"), "--vars"),
            (("boom-table", "original", "--depth", "0"), "--depth"),
            (("monad-laws", "exception:{}"), "at least one label"),
            # depth 0 is syntactic equality, a negative depth is no search
            (("prove-eq", "M", "mul(x,y)", "mul(y,x)", "--bounded", "--depth", "-1"),
             "--depth"),
        ],
    )
    def test_exit_2_with_message(self, run, args, fragment):
        res = run(*args)
        assert res.exit_code == 2
        assert fragment in res.output

    def test_usage_error_writes_nothing_to_stdout(self, run):
        res = run("normalize", "nosuch", "x1")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "unknown theory" in res.stderr

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_golden_must_be_an_existing_file(self, run, tmp_path, kind):
        path = tmp_path / "golden.csv" if kind == "missing" else tmp_path
        res = run("boom-table", "original", "--golden", str(path))
        assert res.exit_code == 2
        assert "--golden" in res.stderr
        assert ("does not exist" if kind == "missing" else "is a directory") in res.stderr
        assert res.stdout == ""

    def test_extra_arguments_are_reported_with_the_command_usage(self, run):
        res = run("nogo", "T", "P", "extra")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("usage: monadlab nogo ")
        assert "unrecognized arguments: extra" in res.stderr


class TestHelp:
    @pytest.mark.parametrize("group,commands", [
        ((), ["theories", "normalize", "prove-eq", "monad-laws", "law", "nogo",
              "boom-table", "plotkin-refute"]),
        (("law",), ["apply", "check", "search"]),
        (("theories",), ["list"]),
    ])
    def test_help_lists_every_subcommand(self, run, group, commands):
        res = run(*group, "--help")
        assert res.exit_code == 0
        words = res.stdout.split()
        assert [c for c in commands if c not in words] == []

    def test_group_without_a_command_is_a_usage_error(self, run):
        res = run("law")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "search" in res.stderr
