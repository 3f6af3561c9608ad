"""End-to-end command runs of `main` in-process.

Each check pins stdout and the exit code; timing must only ever appear
on stderr.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from cli_run import run_cli

from monadlab import distlaws, monads, theories
from monadlab.cli import CLOSED_PIPE
from monadlab.hierarchy import golden_path
from monadlab.terms import MAX_NESTING

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the registry at import: every theory is decided by its procedure
THEORIES_LIST = (
    'abgroup              exact    abgroup                            \n'
    'boom:----            exact    T+                                 T+, magma\n'
    'boom:---I            exact    I+                                 I+\n'
    'boom:--C-            exact    C+                                 C+\n'
    'boom:--CI            exact    CI+                                CI+\n'
    'boom:-A--            exact    L+                                 L+, semigroup\n'
    'boom:-A-I            exact    AI+                                AI+, band\n'
    'boom:-AC-            exact    M+                                 M+, comm-semigroup\n'
    'boom:-ACI            exact    P+                                 P+, nonempty-jsl\n'
    'boom:U---            exact    T                                  T, tree, magma-unit\n'
    'boom:U--I            exact    I                                  I\n'
    'boom:U-C-            exact    C                                  C\n'
    'boom:U-CI            exact    CI                                 CI\n'
    'boom:UA--            exact    L                                  L, monoid\n'
    'boom:UA-I            exact    AI                                 AI, unital-band\n'
    'boom:UAC-            exact    M                                  M, comm-monoid\n'
    'boom:UACI            exact    P                                  P, jsl\n'
    'convex               exact    convex                             \n'
    'exception:{a,b}      exact    exception:{a,b}                    \n'
    'exception:{a}        exact    exception:{a}                      \n'
    'pointed              exact    pointed                            \n'
    'reader:2             exact    reader:2                           \n'
)


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

    def test_theories_list_bytes(self):
        # the module entry point, in a fresh interpreter
        res = subprocess.run([sys.executable, "-m", "monadlab", "theories", "list"],
                             env=dict(os.environ, PYTHONPATH=SRC),
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout == THEORIES_LIST

    def test_lookups_leave_the_registries_alone(self, run):
        def registries():
            return (theories.registry(), monads.monad_ids(), distlaws.law_ids(),
                    dict(theories._REGISTRY), dict(theories._ALIASES), dict(monads._MONADS),
                    dict(distlaws._LAWS), run("theories", "list").stdout)

        before = registries()
        theories.lookup_theory("exception:{p}")
        theories.lookup_theory("narytree-theory:5")
        monads.monad_for("narytree:7")
        monads.free_model_ops("narytree-theory:3", monads.monad_for("narytree:3"))
        distlaws.law_for("choice:bintree:dist")
        assert registries() == before
        assert before[-1] == THEORIES_LIST
        # every spelling of one member of a family gives one object
        assert monads.monad_for("narytree:02") is monads.monad_for("narytree:2")
        assert (theories.lookup_theory("exception:{b, a}")
                is theories.lookup_theory("exception:{a,b}"))

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
        assert res.stdout == "EQUAL (bounded search, depth 3, 1 steps)\n"
        res = run("prove-eq", "--bounded", "convex", "mix(x1,x2)", "x1")
        assert res.exit_code == 1
        assert res.stdout == "NOT PROVED (bounded search, depth 3)\n"

    def test_prove_eq_bounded_search_names_the_node_cap(self, run):
        # the search visits 50,000 terms before it reaches depth 8
        res = run("prove-eq", "abgroup", "mul(mul(x,y),mul(z,w))", "mul(w,inv(x))",
                  "--bounded", "--depth", "8")
        assert res.exit_code == 1
        assert res.stdout == ("NOT PROVED (bounded search stopped at the node cap of "
                              "50,000 terms, before depth 8)\n")


class TestLawCommands:
    @pytest.mark.parametrize("args", [
        ("exception-over:narytree:3", "--bound", "4"),
        ("exception-over:list", "--carrier", "2", "--bound", "5"),
    ])
    def test_law_check_lists_only_the_first_values_of_t_over_t(self, run, args):
        # T over T has more than the pool cap of values, but mult-t takes its
        # carrier from the first few and lists no more
        start = time.perf_counter()
        res = run("law", "check", *args)
        assert time.perf_counter() - start < 10
        assert res.exit_code == 0
        assert res.stdout.endswith("OK\n")

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
        # an input over six of ten letters has 10^6 restrictions of maps, one
        # edge each; the 7^7 maps at carrier 7 need only one edge per
        # restriction to each input's letters
        res = run("law", "search", "exception:{a}", "powerset", "--carrier", "10", "--bound", "6")
        assert res.exit_code == 0
        assert res.stdout == (
            "exception:{a} over powerset, carriers (10,), bound 6: Inconclusive "
            "(naturality needs more than 500,000 edges (the edge cap))\n"
        )
        assert run("law", "search", "lift", "lift", "--carrier", "7").stdout.startswith(
            "lift over lift, carriers (7,), bound 2: Candidates "
            "(1 fragment-consistent table(s), 9/9 inputs forced)\n"
        )


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

    def test_golden_not_utf8_is_usage_error(self, run, tmp_path):
        bad = tmp_path / "golden.csv"
        bad.write_bytes(b"\xff\xfe")
        res = run("boom-table", "original", "--golden", str(bad))
        assert res.exit_code == 2
        assert "not UTF-8" in res.stderr
        assert res.stdout == ""

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
            # no such option; an exception monad needs a label
            (("nogo", "reader:2", "jsl", "--vars", "1"), "--vars"),
            (("boom-table", "original", "--depth", "0"), "--depth"),
            (("monad-laws", "exception:{}"), "at least one label"),
            # depth 0 is syntactic equality, a negative depth is no search
            (("prove-eq", "M", "mul(x,y)", "mul(y,x)", "--bounded", "--depth", "-1"),
             "--depth"),
            # the decision procedure has no depth to bound
            (("prove-eq", "P", "mul(x,x)", "x", "--depth", "0"),
             "--depth applies only with --bounded"),
            # the free models that only Boom theory ids name: no empty value
            # in a nonempty container, no choice law over a tree with no
            # positions
            (("law", "apply", "exception-over:boom:-ACI", "{}"),
             "a nonempty set needs at least one element"),
            (("law", "apply", "exception-over:boom:-AC-", "{}"),
             "a nonempty multiset needs at least one element"),
            (("law", "apply", "choice:boom:U-C-:multiset", "<{a:1},{b:1}>"),
             "boom:U-C- is not a linear monad"),
            (("law", "apply", "choice:boom:---I:powerset", "<{a},{b}>"),
             "boom:---I is not a linear monad"),
        ],
    )
    def test_exit_2_with_message(self, run, args, fragment):
        res = run(*args)
        assert res.exit_code == 2
        assert fragment in res.output

    @pytest.mark.parametrize("args,pool", [
        (("monad-laws", "list", "--carrier", "10", "--bound", "7"), "list: the T pool"),
        (("law", "check", "choice:list:powerset", "--carrier", "2", "--bound", "9"),
         "choice:list:powerset: the SST pool"),
    ])
    def test_pools_past_the_cap_are_refused_before_any_check(self, run, args, pool):
        start = time.perf_counter()
        res = run(*args)
        assert time.perf_counter() - start < 10
        assert res.exit_code == 2
        assert res.stdout == ""
        assert pool in res.stderr
        assert f"more than {monads.MAX_POOL:,} (the pool cap)" in res.stderr

    @pytest.mark.parametrize("command", ["normalize", "prove-eq"])
    def test_terms_nest_at_most_max_nesting_deep(self, run, command):
        def nested(depth):
            return "mul(x," * depth + "x" + ")" * depth

        extra = ("x",) if command == "prove-eq" else ()
        res = run(command, "L", nested(MAX_NESTING), *extra)
        assert res.exit_code == (0 if command == "normalize" else 1)
        res = run(command, "L", nested(MAX_NESTING + 1), *extra)
        assert res.exit_code == 2
        assert f"nest deeper than {MAX_NESTING} levels" in res.stderr

    def test_wide_terms_normalize_past_the_nesting_cap(self, run):
        # a balanced product of 512 variables nests 9 deep, but its normal
        # form in the monoid theory is 511 right-nested products
        leaves = iter("xyz" * 171)

        def balanced(depth):
            if depth == 0:
                return next(leaves)
            return f"mul({balanced(depth - 1)},{balanced(depth - 1)})"

        term = balanced(9)
        assert len(term) == 3578
        res = run("normalize", "L", term)
        assert res.exit_code == 0
        assert res.stdout == "mul(x," + "mul(y,mul(z,mul(x," * 170 + "y" + ")" * 511 + "\n"
        res = run("prove-eq", "L", term, term)
        assert (res.exit_code, res.stdout) == (0, "EQUAL (decision procedure)\n")

    def test_parse_errors_quote_a_bounded_slice_of_their_input(self, run):
        # the monoid normal form of a balanced 512-leaf product nests 511
        # deep, past the nesting cap, so it does not parse back
        leaves = iter("xyz" * 171)

        def balanced(depth):
            if depth == 0:
                return next(leaves)
            return f"mul({balanced(depth - 1)},{balanced(depth - 1)})"

        term = balanced(9)
        nf = run("normalize", "L", term).stdout.strip()
        assert len(nf) > 3000
        res = run("prove-eq", "L", term, nf)
        assert res.exit_code == 2
        assert f"nest deeper than {MAX_NESTING} levels (at position 600 in ..." in res.stderr
        assert len(res.stderr.encode()) < 300

    @pytest.mark.parametrize("args", [
        ("normalize", "narytree-theory:100000", "x"),
        ("law", "search", "narytree:100000", "list"),
        ("monad-laws", "narytree:65"),
    ])
    def test_trees_wider_than_the_maximum_are_refused(self, run, args):
        res = run(*args)
        assert res.exit_code == 2
        assert f"wider than the maximum tree width {theories.MAX_TREE_WIDTH}" in res.stderr

    @pytest.mark.parametrize("args, message", [
        (("monad-laws", "narytree:" + "9" * 4000),
         f"{'narytree:' + '9' * 23!r}... is wider than the maximum tree width"),
        (("law", "search", "list", "narytree:" + "9" * 4000),
         f"{'narytree:' + '9' * 23!r}... is wider than the maximum tree width"),
        (("normalize", "narytree-theory:" + "9" * 4000, "x"),
         f"{'narytree-theory:' + '9' * 16!r}... is wider than the maximum tree width"),
        (("nogo", "narytree-theory:" + "9" * 4000, "L"),
         f"{'narytree-theory:' + '9' * 16!r}... is wider than the maximum tree width"),
        (("monad-laws", "exception:{" + "," * 4000 + "}"),
         f"exception monad {'exception:{' + ',' * 21!r}... needs at least one label"),
        # ids of 32 characters or fewer are quoted whole
        (("monad-laws", "narytree:65"), "'narytree:65' is wider than the maximum tree width 64"),
        (("monad-laws", "exception:{,}"),
         "exception monad 'exception:{,}' needs at least one label"),
    ])
    def test_family_ids_are_quoted_in_a_bounded_slice(self, run, args, message):
        res = run(*args)
        assert res.exit_code == 2
        assert message in res.stderr
        assert len(res.stderr.encode()) < 300

    def test_values_nest_at_most_max_nesting_deep(self, run):
        def tree(depth):  # a tree of sets, `depth` brackets deep
            return "<{a}," * (depth - 1) + "{b}" + ">" * (depth - 1)

        res = run("law", "apply", "choice:bintree:powerset", tree(MAX_NESTING))
        assert res.exit_code == 0
        assert res.stdout.startswith("{<a,<a,")
        res = run("law", "apply", "choice:bintree:powerset", tree(MAX_NESTING + 1))
        assert res.exit_code == 2
        assert f"nest deeper than {MAX_NESTING} levels" in res.stderr

    def test_value_errors_quote_a_bounded_slice_of_their_input(self, run):
        res = run("law", "apply", "mset-cartesian", "{{a:1}:1} " + "a," * 2000)
        assert res.exit_code == 2
        assert "trailing input 'a , a , a , a , a , a , a , a , '..." in res.stderr
        assert len(res.stderr.encode()) < 300

    def test_distribution_sums_are_quoted_in_a_bounded_slice(self, run):
        res = run("law", "apply", "exception-over:dist", "{a:" + "1" * 4000 + "}")
        assert res.exit_code == 2
        assert f"distribution weights sum to {'1' * 32}..., not 1" in res.stderr
        assert len(res.stderr.encode()) < 300

    @pytest.mark.parametrize("args, kind", [
        (("normalize", "T" * 100_000, "x"), "theory"),
        (("monad-laws", "T" * 100_000), "monad"),
        (("law", "check", "T" * 100_000), "law"),
    ])
    def test_unknown_names_are_quoted_in_a_bounded_slice(self, run, args, kind):
        res = run(*args)
        assert res.exit_code == 2
        assert f"unknown {kind} {'T' * 32!r}...\n" in res.stderr
        assert len(res.stderr.encode()) < 300

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


class TestClosedStdout:
    # a reader that closes stdout before the output is written
    # (`monadlab theories list | head -1`) ends the run without a traceback

    @pytest.mark.parametrize("args", [
        ("theories", "list"),
        ("boom-table", "full"),
        ("nogo", "T+", "C+"),
        ("law", "search", "list", "list"),
    ])
    def test_closed_stdout_exits_with_the_documented_status(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run([sys.executable, "-m", "monadlab", *args], stdout=write_end,
                                 stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
                                 text=True, timeout=60)
        finally:
            os.close(write_end)
        assert "Traceback" not in res.stderr
        assert res.returncode == CLOSED_PIPE == 141


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
