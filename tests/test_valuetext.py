"""Round trips and error reporting for the value text format."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monadlab.distlaws import law_for, law_ids
from monadlab.monads import monad_for
from monadlab.values import (
    format_value,
    letters,
    mk_err,
    mk_list,
    mk_nleaf,
    mk_nnode,
    mk_nunit,
    mk_ok,
)
from monadlab.valuetext import ValueSyntaxError, parse_layered

# every shipped monad with a printable form
_IDS = [
    "list",
    "nonempty-list",
    "multiset",
    "powerset",
    "bintree",
    "narytree:2",
    "narytree:3",
    "exception:{a}",
    "exception:{a,b}",
    "lift",
    "reader:2",
    "dist",
    "abgroup",
    # the free models of Boom theories that only their theory ids name
    "boom:U--I",
    "boom:U-C-",
    "boom:U-CI",
    "boom:---I",
    "boom:--C-",
    "boom:--CI",
    "boom:-AC-",
    "boom:-ACI",
]


class TestSingleLayerRoundTrip:
    @pytest.mark.parametrize("monad_id", _IDS)
    def test_enumerated_pool_round_trips(self, monad_id):
        m = monad_for(monad_id)
        for v in m.enumerate(("a", "b"), 3):
            assert parse_layered(format_value(v), (m,)) == v

    @pytest.mark.parametrize("monad_id", ["exception:{a,b}", "lift"])
    def test_explicit_ok_form_also_parses(self, monad_id):
        m = monad_for(monad_id)
        for v in m.enumerate(("a", "b"), 3):
            assert parse_layered(format_value(v, explicit_ok=True), (m,)) == v

    def test_monad_may_be_given_by_id_or_alias(self):
        assert parse_layered("[a,b,a]", ("list",)) == mk_list(["a", "b", "a"])
        assert parse_layered("{a,b}", ("set",)) == parse_layered("{b,a}", ("powerset",))

    @given(data=st.data())
    def test_whitespace_is_insignificant(self, data):
        m = monad_for(data.draw(st.sampled_from(_IDS)))
        v = data.draw(st.sampled_from(m.enumerate(("a", "b"), 3)))
        text = format_value(v)
        spaced = text.replace(",", " , ").replace("{", "{ ").replace("[", "[ ")
        assert parse_layered(spaced, (m,)) == v


class TestLayered:
    def test_multiset_of_multisets(self):
        v = parse_layered("{{a:1,b:2}:2}", ("multiset", "multiset"))
        assert v == ("mset", ((("mset", (("a", 1), ("b", 2))), 2),))

    def test_lists_of_lists_with_e_as_plain_label(self):
        # `e` is only reserved inside a tree layer
        v = parse_layered("[[a],[b,c,d],[e,f]]", ("list", "list"))
        assert v[2] == ("list", "b", "c", "d")
        assert v[3] == ("list", "e", "f")

    def test_set_of_lists(self):
        v = parse_layered("{[a,b],[b]}", ("powerset", "list"))
        assert v == ("set", ("list", "a", "b"), ("list", "b"))

    def test_exception_elements_allow_both_ok_forms(self):
        v = parse_layered("[err(a),ok(b),b]", ("list", "exception:{a,b}"))
        assert v == mk_list([mk_err("a"), mk_ok("b"), mk_ok("b")])

    def test_tree_layer_renormalizes_unit_children(self):
        a = parse_layered("<a,<b,e>>", ("narytree:2",))
        b = parse_layered("<a,b>", ("narytree:2",))
        assert a == b == mk_nnode([mk_nleaf("a"), mk_nleaf("b")])

    def test_e_is_a_label_in_a_tree_with_no_unit(self):
        # bintree has no unit leaf, so `e` is not reserved there
        v = parse_layered("<e,<a,e>>", ("bintree",))
        assert v == mk_nnode([mk_nleaf("e"), mk_nnode([mk_nleaf("a"), mk_nleaf("e")])])
        assert parse_layered("e", ("bintree",)) == mk_nleaf("e")
        assert parse_layered("e", ("narytree:2",)) == mk_nunit()

    @pytest.mark.parametrize("text,monad,want", [
        ("<b,a>", "boom:U-C-", "<a,b>"),
        ("<a,<b,c>>", "boom:--C-", "<<b,c>,a>"),  # a node before a leaf
        ("<a,a>", "boom:---I", "a"),
        ("<<a,b>,<a,b>>", "boom:U--I", "<a,b>"),
        ("<<b,a>,<a,b>>", "boom:--CI", "<a,b>"),
        ("<e,<b,a>>", "boom:U-CI", "<a,b>"),
    ])
    def test_tree_nodes_are_built_by_the_monad(self, text, monad, want):
        # a commutative or idempotent tree orders or collapses what it reads
        v = parse_layered(text, (monad,))
        assert format_value(v) == want
        assert parse_layered(want, (monad,)) == v

    def test_reader_of_lists(self):
        v = parse_layered("([a],[b,a])", ("reader:2", "list"))
        assert v == ("fun", ("list", "a"), ("list", "b", "a"))

    @pytest.mark.parametrize(
        "outer,inner",
        [
            ("list", "exception:{a}"),
            ("multiset", "multiset"),
            ("powerset", "list"),
            ("lift", "list"),
            ("narytree:2", "powerset"),
        ],
    )
    def test_two_layer_pools_round_trip(self, outer, inner):
        s, t = monad_for(outer), monad_for(inner)
        carrier = tuple(t.enumerate(("a", "b"), 2))[:4]
        for v in s.enumerate(carrier, 2):
            assert parse_layered(format_value(v), (s, t)) == v

    def test_lift_over_lift_needs_the_explicit_form(self):
        # a transparent ok would print ok(bot) as `bot`, which reads back
        # as the outer bottom; it is printed in the explicit form
        s = monad_for("lift")
        inner_bot = ("ok", ("bot",))
        assert format_value(inner_bot) == "ok(bot)"
        assert parse_layered("bot", (s, s)) == ("bot",)
        assert parse_layered("ok(bot)", (s, s)) == inner_bot
        for v in s.enumerate(s.enumerate(("a",), 2), 2):
            text = format_value(v, explicit_ok=True)
            assert parse_layered(text, (s, s)) == v

    def test_printed_law_outputs_read_back(self):
        # what `law apply` prints for the first 300 inputs of each law at
        # carrier 2, bound 2 reads back as the value it shows; ok(err(a))
        # under exception-over:exception:{a,b} once printed as err(a)
        outputs = 0
        for law_id in law_ids():
            law = law_for(law_id)
            s, t = law.s_monad, law.t_monad
            for v in itertools.islice(s.iter_values(t.enumerate(letters(2), 2), 2), 300):
                out = law.apply(v)
                assert parse_layered(format_value(out), (t, s)) == out, (law_id, v)
                outputs += 1
        assert outputs == 640


class TestErrors:
    @pytest.mark.parametrize(
        "text,monad,fragment",
        [
            ("[a,b] c", "list", "trailing input"),
            ("[a,", "list", "unexpected end"),
            ("[a,:]", "list", "expected a label"),
            ("{a,b}", "list", "expected '\\['"),
            ("[]", "nonempty-list", "at least one element"),
            ("{}", "boom:-ACI", "^a nonempty set needs at least one element$"),
            ("{}", "boom:-AC-", "^a nonempty multiset needs at least one element$"),
            ("{a:0}", "boom:-AC-", "^a nonempty multiset needs at least one element$"),
            ("{a:-1}", "multiset", "cannot be negative"),
            ("{a:x}", "multiset", "expected an integer"),
            ("{a:1/0}", "dist", "expected a weight"),
            ("{a:1/2}", "dist", "sum to 1/2"),
            ("{a:1/2,b:2/3}", "dist", "sum to 7/6"),
            ("<a,b,c>", "narytree:2", "width-2"),
            ("<a,b>", "narytree:3", "width-3"),
            ("<a,b,c>", "bintree", "^node of width 3 in a width-2 tree$"),
            ("<a>", "bintree", "^node of width 1 in a width-2 tree$"),
            ("err(c)", "exception:{a,b}", "unknown error label"),
            ("err(a", "exception:{a}", "expected '\\)'"),
            ("(a)", "reader:2", "expected ','"),
        ],
    )
    def test_bad_input_is_reported(self, text, monad, fragment):
        with pytest.raises(ValueSyntaxError, match=fragment):
            parse_layered(text, (monad,))

    def test_layer_count_must_match_nesting(self):
        with pytest.raises(ValueSyntaxError):
            parse_layered("{{a:1}:1}", ("multiset",))
        with pytest.raises(ValueSyntaxError, match="expected '\\{'"):
            parse_layered("{a:1}", ("multiset", "multiset"))

    @pytest.mark.parametrize("text,monad,fragment", [
        ("x" * 1000, "list", "expected '\\[', found 'x{32}'...$"),
        ("[" + "-" * 1000 + "]", "list", "expected a label, found '-{32}'...$"),
        ("{a:" + "x" * 1000 + "}", "multiset", "expected an integer, found 'x{32}'...$"),
        ("err(" + "c" * 1000 + ")", "exception:{a}", "unknown error label 'c{32}'...;"),
        ("[a] " + "b " * 1000, "list", "^trailing input '(b ){16}'...$"),
        # short input is quoted whole
        ("[a] b", "list", "^trailing input 'b'$"),
    ], ids=["token", "label", "number", "error-label", "trailing", "short"])
    def test_errors_quote_at_most_32_characters_of_input(self, text, monad, fragment):
        with pytest.raises(ValueSyntaxError, match=fragment):
            parse_layered(text, (monad,))

    def test_syntax_errors_are_value_errors(self):
        # callers catching ValueError keep working
        with pytest.raises(ValueError):
            parse_layered("[", ("list",))
