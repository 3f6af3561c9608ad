"""Distributive laws: pinned examples, Beck conditions, the broken control."""

import collections
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadlab.distlaws import (
    NoLawError,
    check_beck,
    check_times_over_plus_form,
    composite_monad,
    law_for,
    law_ids,
)
from monadlab.monads import PairUnsupportedError, check_monad_laws, monad_for
from monadlab.values import format_value, mk_grp, mk_list, mk_mset, mk_set


def _parse_free(*args):
    raise AssertionError("unused")


# ---------------------------------------------------------------------------
# registry


def test_law_ids_cover_families():
    ids = law_ids()
    assert "ring" in ids and "mset-cartesian" in ids
    assert "choice:tree:powerset" in ids
    assert "exception-over:list" in ids
    assert "faulty-list-exception" in ids


def test_law_for_unknown_suggests():
    with pytest.raises(NoLawError) as exc:
        law_for("mset-cartesean")
    assert "mset-cartesian" in str(exc.value)


def test_choice_alias_normalization():
    law = law_for("choice:tree:mset")
    assert law.s_monad.monad_id == "narytree:2"
    assert law.t_monad.monad_id == "multiset"
    # ids containing colons split where both sides name monads
    law = law_for("choice:narytree:3:dist")
    assert law.s_monad.monad_id == "narytree:3"
    assert law.t_monad.monad_id == "dist"


def test_named_laws_are_choice_laws():
    assert law_for("ring").s_monad.monad_id == "list"
    assert law_for("ring").t_monad.monad_id == "abgroup"
    assert law_for("mset-cartesian").t_monad.monad_id == "multiset"


@pytest.mark.parametrize(
    "law_id",
    [
        "choice:powerset:multiset",  # powerset is not linear
        "choice:list:exception:{a,b}",  # exceptions carry no weights
        "choice:list:nosuch",
    ],
)
def test_choice_needs_linear_over_weighted(law_id):
    with pytest.raises(NoLawError):
        law_for(law_id)


# ---------------------------------------------------------------------------
# pinned applications


def test_mset_cartesian_square_display():
    law = law_for("mset-cartesian")
    inner = mk_mset(entries=[("a", 1), ("b", 2)])
    v = mk_mset(entries=[(inner, 2)])
    assert format_value(law(v)) == "{{a:2}:1,{a:1,b:1}:4,{b:2}:4}"


def test_mset_cartesian_product_display():
    law = law_for("mset-cartesian")
    v = mk_mset(
        entries=[
            (mk_mset(entries=[("a", 1)]), 1),
            (mk_mset(entries=[("b", 1), ("c", 1)]), 1),
        ]
    )
    assert format_value(law(v)) == "{{a:1,b:1}:1,{a:1,c:1}:1}"


def test_ring_distributes_product_over_sum():
    law = law_for("ring")
    v = mk_list([mk_grp([("a", 1)]), mk_grp([("b", 1), ("c", 1)])])
    assert format_value(law(v)) == "{[a,b]:1,[a,c]:1}"


def test_ring_signs_and_annihilation():
    law = law_for("ring")
    diff = mk_grp([("a", 1), ("b", -1)])
    square = mk_list([diff, diff])
    assert law(square) == mk_grp(
        [
            (mk_list("aa"), 1),
            (mk_list("ab"), -1),
            (mk_list("ba"), -1),
            (mk_list("bb"), 1),
        ]
    )
    assert law(mk_list([diff, ("grp", ())])) == ("grp", ())
    # empty product is the unit polynomial
    assert law(("list",)) == mk_grp([(("list",), 1)])


MM_CASES = [
    # regrouping law: head of each later list glues onto the previous group
    ("mm-nel-1", [("a",), ("b", "c", "d"), ("e", "f")], "[[a,b],[c],[d,e],[f]]"),
    # heads
    ("mm-nel-2", [("a",), ("b", "c"), ("d", "e")], "[[a,b,d]]"),
    # lasts
    ("mm-nel-3", [("a",), ("b", "c"), ("d", "e")], "[[a,c,e]]"),
    # all three explode a single inner list into singletons
    ("mm-nel-1", [("a", "b", "c")], "[[a],[b],[c]]"),
    ("mm-nel-2", [("a", "b", "c")], "[[a],[b],[c]]"),
    ("mm-nel-3", [("a", "b", "c")], "[[a],[b],[c]]"),
]


@pytest.mark.parametrize("law_id,inners,expected", MM_CASES)
def test_nonempty_list_law_displays(law_id, inners, expected):
    law = law_for(law_id)
    v = mk_list(mk_list(i) for i in inners)
    assert format_value(law(v)) == expected


def test_choice_powerset_annihilates_on_empty():
    law = law_for("choice:list:powerset")
    v = mk_list([mk_set("a"), mk_set(())])
    assert law(v) == mk_set(())
    # one choice point per position otherwise
    v2 = mk_list([mk_set("ab"), mk_set("c")])
    assert format_value(law(v2)) == "{[a,c],[b,c]}"


def test_choice_tree_keeps_shape():
    law = law_for("choice:tree:powerset")
    shape = ("nnode", ("nleaf", mk_set("ab")), ("nleaf", mk_set("c")))
    out = law(shape)
    assert out == mk_set(
        [
            ("nnode", ("nleaf", "a"), ("nleaf", "c")),
            ("nnode", ("nleaf", "b"), ("nleaf", "c")),
        ]
    )
    unit_tree = ("nunit",)
    assert law(unit_tree) == mk_set([unit_tree])
    bin_shape = ("bnode", ("bleaf", mk_set("ab")), ("bleaf", mk_set("c")))
    assert format_value(law_for("choice:bintree:powerset")(bin_shape)) == "{<a,c>,<b,c>}"


def test_exception_over_list_examples():
    law = law_for("exception-over:list")
    assert law.s_monad.monad_id == "exception:{a,b}"
    # a payload list gets its elements ok-wrapped in place
    assert law(("ok", mk_list("ab"))) == mk_list([("ok", "a"), ("ok", "b")])
    # a bare error becomes the singleton list holding it
    assert law(("err", "b")) == mk_list([("err", "b")])
    assert law(("ok", ("list",))) == ("list",)


def test_faulty_law_pointwise():
    law = law_for("faulty-list-exception")
    assert law(("list",)) == ("ok", ("list",))
    assert law(mk_list([("err", "b")])) == ("err", "b")
    assert law(mk_list([("ok", "a"), ("err", "b")])) == ("err", "a")


# ---------------------------------------------------------------------------
# Beck conditions

BECK_GREEN = [
    "ring",
    "mset-cartesian",
    "mm-nel-1",
    "mm-nel-2",
    "mm-nel-3",
    "choice:tree:multiset",
    "choice:tree:powerset",
    "choice:list:multiset",
    "choice:list:powerset",
    "choice:multiset:multiset",
    "choice:multiset:powerset",
    "exception-over:list",
    "exception-over:multiset",
    "exception-over:powerset",
    "exception-over:bintree",
    "exception-over:narytree:3",
    "exception-over:reader:2",
    "exception-over:dist",
    "exception-over:abgroup",
    "exception-over:lift",
]


@pytest.mark.parametrize("law_id", BECK_GREEN)
def test_beck_conditions_hold(law_id):
    report = check_beck(law_for(law_id), carrier_size=2, bound=2)
    assert report.ok, report.describe()
    assert report.checked["mult-s"] > 0 and report.checked["mult-t"] > 0


@pytest.mark.parametrize(
    "s_id", ["list", "nonempty-list", "multiset", "bintree", "narytree:2"]
)
@pytest.mark.parametrize("t_id", ["multiset", "powerset", "abgroup", "dist"])
def test_choice_grid_passes_beck(s_id, t_id):
    report = check_beck(law_for(f"choice:{s_id}:{t_id}"), carrier_size=2, bound=2)
    assert report.ok, report.describe()


@pytest.mark.parametrize("law_id", ["mset-cartesian", "choice:list:powerset"])
def test_beck_conditions_hold_bound_three(law_id):
    report = check_beck(law_for(law_id), carrier_size=2, bound=3)
    assert report.ok, report.describe()


def test_faulty_law_fails_first_multiplication():
    report = check_beck(
        law_for("faulty-list-exception"),
        carrier_size=1,
        bound=2,
        nested_caps=(20, 20),
    )
    assert not report.ok
    bad = report.violated("mult-s")
    assert bad, "expected a mult-s counterexample"
    # flattening [[err(b)],[]] keeps b, the pointwise route forgets it
    witness = ("list", ("list", ("err", "b")), ("list",))
    assert witness in [w for _, w, _, _ in bad]
    # every pool was complete at this size: 183 doubly nested values
    assert report.pool_sizes["SST"] == 183
    assert not report.violated("unit-s") and not report.violated("unit-t")


def _counting(law):
    """The law with an apply that counts how often it sees each input."""
    seen = collections.Counter()

    def apply(v):
        seen[v] += 1
        return law.apply(v)

    return dataclasses.replace(law, apply=apply), seen


@pytest.mark.parametrize(
    "law_id", ["choice:tree:powerset", "mm-nel-1", "faulty-list-exception"]
)
def test_check_beck_applies_the_law_once_per_input_per_call(law_id):
    law, seen = _counting(law_for(law_id))
    report = check_beck(law, carrier_size=2, bound=2)
    assert seen and set(seen.values()) == {1}
    assert report.stats["lambda_computed"] == len(seen)
    assert report.stats["lambda_requested"] > len(seen)
    # nothing outlives the call: a second one applies every input again
    again = check_beck(law, carrier_size=2, bound=2)
    assert set(seen.values()) == {2}
    assert again.stats == report.stats


_ERR_B_LEFT = ("list", ("list",), ("list", ("err", "b")))
_ERR_B_RIGHT = ("list", ("list", ("err", "b")), ("list",))


@pytest.mark.parametrize(
    "carrier, bound, checked, pool_sizes, witnesses",
    [
        (
            1,
            2,
            {"unit-s": 3, "unit-t": 3, "natural": 13, "mult-s": 157, "mult-t": 31},
            {"T": 3, "S": 3, "ST": 13, "SST": 157, "TT": 5, "STT": 31},
            [_ERR_B_LEFT, _ERR_B_RIGHT],
        ),
        (
            2,
            3,
            {"unit-s": 4, "unit-t": 15, "natural": 170, "mult-s": 1885, "mult-t": 259},
            {"T": 4, "S": 15, "ST": 85, "SST": 1885, "TT": 6, "STT": 259},
            [
                _ERR_B_LEFT,
                _ERR_B_RIGHT,
                ("list", ("list",), ("list",), ("list", ("err", "b"))),
                ("list", ("list",), ("list", ("err", "b")), ("list",)),
                ("list", ("list", ("err", "b")), ("list",), ("list",)),
            ],
        ),
    ],
)
def test_faulty_law_report_is_pinned(carrier, bound, checked, pool_sizes, witnesses):
    # recorded from the check without memos: memoizing may change no count,
    # pool or violation, nor the order in which violations are found
    report = check_beck(
        law_for("faulty-list-exception"), carrier_size=carrier, bound=bound
    )
    assert report.checked == checked
    assert report.pool_sizes == pool_sizes
    assert report.violations == [
        ("mult-s", w, ("err", "b"), ("err", "a")) for w in witnesses
    ]


# ---------------------------------------------------------------------------
# times-over-plus shape


def test_times_over_plus_shape():
    assert check_times_over_plus_form(law_for("ring"))
    assert check_times_over_plus_form(law_for("mset-cartesian"))
    assert check_times_over_plus_form(law_for("choice:list:powerset"))
    assert check_times_over_plus_form(law_for("choice:tree:multiset"))


def test_times_over_plus_needs_pairs():
    with pytest.raises(PairUnsupportedError):
        check_times_over_plus_form(law_for("exception-over:list"))


# ---------------------------------------------------------------------------
# composite monads


@pytest.mark.parametrize("law_id", ["ring", "mset-cartesian", "mm-nel-1"])
def test_composite_monad_laws(law_id):
    comp = composite_monad(law_for(law_id), s_cap=10)
    report = check_monad_laws(comp, carrier_size=2, bound=2, nested_caps=(12, 6))
    assert report.ok, report.describe()


def test_composite_of_faulty_breaks():
    law = law_for("faulty-list-exception")
    comp = composite_monad(law, s_cap=200)
    # handcrafted associativity witness: resolving the inner layer first
    # leaves a lone err(b), resolving outer-first hits the two-element
    # fallback and forgets which error it was
    x1 = ("ok", mk_list([("err", "b")]))
    x2 = ("ok", ("list",))
    w = ("ok", mk_list([x1, x2]))
    assert comp.join(comp.join(w)) == ("err", "b")
    assert comp.join(comp.fmap(comp.join, w)) == ("err", "a")
    report = check_monad_laws(comp, carrier_size=1, bound=2, nested_caps=(40, 12))
    assert not report.ok
    assert any(law_name == "assoc" for law_name, *_ in report.violations)


# ---------------------------------------------------------------------------
# evaluation homomorphism properties

_ASSIGN = [{"a": 2, "b": 3}, {"a": 5, "b": -1}, {"a": 0, "b": 7}]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_law_respects_integer_evaluation(data):
    """Evaluating before or after distributing gives the same integer."""
    law = law_for("ring")
    grp = monad_for("abgroup")
    pool = grp.enumerate(("a", "b"), 2)
    k = data.draw(st.integers(min_value=0, max_value=3))
    factors = [data.draw(st.sampled_from(pool)) for _ in range(k)]
    env = data.draw(st.sampled_from(_ASSIGN))

    direct = 1
    for g in factors:
        direct *= sum(c * env[x] for x, c in g[1])
    out = law(mk_list(factors))
    expanded = sum(
        coeff * _prod(env[x] for x in word[1:]) for word, coeff in out[1]
    )
    assert direct == expanded


def _prod(it):
    p = 1
    for x in it:
        p *= x
    return p


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mset_cartesian_respects_integer_evaluation(data):
    law = law_for("mset-cartesian")
    mset = monad_for("multiset")
    pool = mset.enumerate(("a", "b"), 2)
    k = data.draw(st.integers(min_value=0, max_value=3))
    factors = [data.draw(st.sampled_from(pool)) for _ in range(k)]
    env = data.draw(st.sampled_from(_ASSIGN))

    direct = 1
    for b in factors:
        direct *= sum(n * env[x] for x, n in b[1])
    out = law(mk_mset(items=factors))
    expanded = sum(
        n * _prod(env[x] for x in mset.members(inner))
        for inner, n in out[1]
    )
    assert direct == expanded
