"""Container monads: canonical values, enumeration, laws, free models."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monadlab import monads
from monadlab.monads import (
    FinMonad,
    FreeModelReport,
    ListMonad,
    LawReport,
    NoMonadError,
    PairUnsupportedError,
    check_monad_laws,
    free_model_iso_check,
    monad_for,
)
from monadlab.terms import (
    App,
    Var,
    enumerate_terms,
    procedure_for,
    render,
    substitute,
    term_depth,
)
from monadlab.theories import lookup_theory
from monadlab.values import (
    canon_key,
    format_value,
    mk_dist,
    mk_grp,
    mk_list,
    mk_mset,
    mk_nleaf,
    mk_nnode,
    mk_nunit,
    mk_set,
)

ALL_IDS = list(monads.ALL_MONAD_IDS)


# ---------------------------------------------------------------------------
# values


def test_canon_key_orders_mixed_values():
    vals = [mk_set(("a", "b")), "a", mk_list(("a",)), "b"]
    ordered = sorted(vals, key=canon_key)
    assert ordered[:2] == ["a", "b"]  # labels before containers


def test_mset_value_order_label_asc_count_desc():
    # {a:2} < {a:1,b:1} < {b:2}: ties on label break by larger count first
    a2 = mk_mset(entries=[("a", 2)])
    a1b1 = mk_mset(items=("a", "b"))
    b2 = mk_mset(entries=[("b", 2)])
    assert sorted([b2, a1b1, a2], key=canon_key) == [a2, a1b1, b2]


_LABELS = st.sampled_from("abcd")


def _dist_of(entries):
    total = sum(w for _, w in entries)
    return mk_dist((x, Fraction(w, total)) for x, w in entries)


def _nested_values():
    """Labels, lists, binary and n-ary trees, sets, and weighted containers
    with int and Fraction weights, nested."""

    def extend(kids):
        weighted = st.lists(st.tuples(kids, st.integers(1, 3)), min_size=1, max_size=3)
        return st.one_of(
            st.lists(kids, max_size=3).map(mk_list),
            st.tuples(kids, kids).map(
                lambda p: ("nnode", ("nleaf", p[0]), ("nleaf", p[1]))
            ),
            st.lists(
                st.one_of(st.just(mk_nunit()), kids.map(mk_nleaf)), max_size=3
            ).map(mk_nnode),
            st.lists(kids, max_size=3).map(mk_set),
            weighted.map(lambda es: mk_mset(entries=es)),
            weighted.map(lambda es: mk_grp((x, -n) for x, n in es)),
            weighted.map(_dist_of),
        )

    return st.recursive(_LABELS, extend, max_leaves=8)


def _merged(entries, zero):
    """Entries merged by element and ordered as `sorted(..., key=canon_key)`."""
    totals: dict = {}
    for x, n in entries:
        totals[x] = totals.get(x, zero) + n
    order = sorted(totals, key=canon_key)
    return tuple((x, totals[x]) for x in order if totals[x] != 0)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(_LABELS, max_size=4),
        st.lists(_nested_values(), max_size=4),
        st.lists(st.one_of(_LABELS, st.tuples(_LABELS).map(mk_list)), max_size=4),
    ),
    st.lists(st.integers(-2, 3), min_size=4, max_size=4),
)
@example([], [1, 1, 1, 1])
@example(["b"], [2, 1, 1, 1])
@example(["c", "a", "b", "a"], [1, 2, 1, 3])
@example(["b", ("list", "a"), "a", ("set",)], [1, 1, 2, 1])
def test_constructors_order_entries_by_canon_key(elems, counts):
    distinct = dict.fromkeys(elems)
    assert mk_set(elems) == ("set",) + tuple(sorted(distinct, key=canon_key))
    positive = [(x, abs(n) + 1) for x, n in zip(elems, counts)]
    assert mk_mset(entries=positive) == ("mset", _merged(positive, 0))
    signed = list(zip(elems, counts))
    assert mk_grp(signed) == ("grp", _merged(signed, 0))
    if positive:
        total = sum(n for _, n in positive)
        shares = [(x, Fraction(n, total)) for x, n in positive]
        assert mk_dist(shares) == ("dist", _merged(shares, Fraction(0)))


def test_mk_dist_rejects_bad_weights():
    with pytest.raises(ValueError):
        mk_dist([("a", Fraction(1, 2))])
    with pytest.raises(ValueError):
        mk_dist([("a", Fraction(3, 2)), ("b", Fraction(-1, 2))])


def test_mk_grp_cancels_to_zero():
    assert mk_grp([("a", 1), ("a", -1)]) == ("grp", ())
    assert format_value(mk_grp([("a", 1), ("a", -1)])) == "{}"


# ---------------------------------------------------------------------------
# registry


def test_registry_has_thirteen_instances():
    assert len(ALL_IDS) == 13
    families = {monad_for(mid).family for mid in ALL_IDS}
    assert len(families) == 11


def test_monad_aliases_resolve():
    assert monad_for("reader").monad_id == "reader:2"
    assert monad_for("mset").monad_id == "multiset"
    assert monad_for("tree").monad_id == "narytree:2"


def test_dynamic_instances():
    m = monad_for("exception:{x,y}")
    assert m.labels == ("x", "y")
    assert monad_for("narytree:4").width == 4


def test_exception_id_spellings_agree():
    m = monad_for("exception:{b, a}")
    assert m is monad_for("exception:{a,b}")
    assert m.monad_id == lookup_theory("exception:{b, a}").theory_id
    for empty in ("exception:{}", "exception:{ , }"):
        with pytest.raises(NoMonadError):
            monad_for(empty)


def test_unknown_monad_suggests():
    with pytest.raises(NoMonadError) as exc:
        monad_for("pwoerset")
    assert "powerset" in str(exc.value)


# ---------------------------------------------------------------------------
# join on concrete displays


def test_list_join_display():
    m = monad_for("list")
    v = mk_list(
        [mk_list(("a", "b")), mk_list(("c", "d", "e")), mk_list(("f",))]
    )
    assert format_value(m.join(v)) == "[a,b,c,d,e,f]"


def test_powerset_join_display():
    m = monad_for("powerset")
    v = mk_set(
        [mk_set("abc"), mk_set("bc"), mk_set("cde")]
    )
    assert format_value(m.join(v)) == "{a,b,c,d,e}"


def test_multiset_join_display():
    m = monad_for("multiset")
    inner1 = mk_mset(entries=[("a", 1), ("b", 2)])
    inner2 = mk_mset(entries=[("b", 1)])
    v = mk_mset(entries=[(inner1, 1), (inner2, 3)])
    assert format_value(m.join(v)) == "{a:1,b:5}"


def test_dist_join_display():
    m = monad_for("dist")
    half = Fraction(1, 2)
    inner = mk_dist([("a", half), ("b", half)])
    v = mk_dist([(m.unit("a"), half), (inner, half)])
    assert format_value(m.join(v)) == "{a:3/4,b:1/4}"


def test_reader_join_picks_diagonal():
    m = monad_for("reader:2")
    v = ("fun", ("fun", "a", "b"), ("fun", "c", "d"))
    assert format_value(m.join(v)) == "(a,d)"


def test_bintree_join_grafts():
    m = monad_for("bintree")
    t = ("nnode", ("nleaf", "a"), ("nleaf", "b"))
    v = ("nnode", ("nleaf", t), ("nleaf", ("nleaf", "c")))
    assert format_value(m.join(v)) == "<<a,b>,c>"


def _has_unit(v) -> bool:
    return v == ("nunit",) or (v[0] == "nnode" and any(map(_has_unit, v[1:])))


@pytest.mark.parametrize("carrier", ["a", "ab", "abc"])
def test_bintree_is_narytree2_without_units(carrier):
    # the same trees in the same order: bintree is the width-2 tree monad
    # with no unit leaf
    bintree, tree = monad_for("bintree"), monad_for("narytree:2")
    assert isinstance(bintree, type(tree))
    for bound in range(5):
        expected = [v for v in tree.enumerate(carrier, bound) if not _has_unit(v)]
        assert bintree.enumerate(carrier, bound) == expected


def test_narytree_join_reprunes():
    m = monad_for("narytree:3")
    t = ("nnode", ("nleaf", "a"), ("nleaf", "b"), ("nunit",))
    v = ("nnode", ("nleaf", ("nunit",)), ("nleaf", ("nunit",)), ("nleaf", t))
    # both unit grafts prune away, leaving the third subtree itself
    assert m.join(v) == t


def test_exception_and_lift_join():
    m = monad_for("exception:{a,b}")
    assert m.join(("ok", ("err", "a"))) == ("err", "a")
    assert m.join(("err", "b")) == ("err", "b")
    lift = monad_for("lift")
    assert lift.join(("ok", ("ok", "x"))) == ("ok", "x")
    assert lift.join(("bot",)) == ("bot",)


def test_abgroup_join_cancels():
    m = monad_for("abgroup")
    x = mk_grp([("a", 1), ("b", 1)])
    y = mk_grp([("b", 2)])
    v = mk_grp([(x, 2), (y, -1)])
    assert format_value(m.join(v)) == "{a:2}"


def test_dist_join_exact_beyond_enumeration_bound():
    m = monad_for("dist")
    quarter = Fraction(1, 4)
    inner = mk_dist([("a", quarter), ("b", 3 * quarter)])
    v = mk_dist([(inner, quarter), (m.unit("b"), 3 * quarter)])
    joined = m.join(v)
    assert dict(joined[1])["a"] == Fraction(1, 16)  # denominator exceeds 4


# ---------------------------------------------------------------------------
# enumeration

# counts are closed-form: sums over the size grading documented per case
ENUM_COUNTS = [
    # geometric series 1+2+4+8
    ("list", 2, 3, 15),
    # as above minus the empty list
    ("nonempty-list", 2, 3, 14),
    # multichoose: C(s+2,2) for s=0..3 over 3 labels: 1+3+6+10
    ("multiset", 3, 3, 20),
    # all subsets of a 3-set: 1+3+3+1
    ("powerset", 3, 3, 8),
    # Catalan shapes times labelings: 2 + 4 + 2*8
    ("bintree", 2, 3, 22),
    # unit + leaves + (1,1) + ((1,2)+(2,1)): 1+2+4+16
    ("narytree:2", 2, 3, 23),
    # 1 + 2 + 3*4 + (2^3 + 6*12*2): 1+2+12+152
    ("narytree:3", 2, 3, 167),
    # two error constants + two wrapped labels
    ("exception:{a,b}", 2, 3, 4),
    # bottom + two wrapped labels
    ("lift", 2, 3, 3),
    # all output tables over a 2-point environment
    ("reader:2", 2, 3, 4),
    # point masses + 5 weight splits of {a,b} with denominator <= 4
    ("dist", 2, 3, 7),
    # 3 + 3*5 + 4 ordered triples summing to 1
    ("dist", 3, 3, 22),
    # 1 + 4 + (4+4) + (4+8): graded by total absolute coefficient
    ("abgroup", 2, 3, 25),
]


@pytest.mark.parametrize("mid,carrier,bound,count", ENUM_COUNTS)
def test_enumerate_counts(mid, carrier, bound, count):
    m = monad_for(mid)
    labels = tuple("abc"[:carrier])
    assert len(m.enumerate(labels, bound)) == count


@pytest.mark.parametrize("mid", ALL_IDS)
def test_enumerate_well_behaved(mid):
    m = monad_for(mid)
    labels = ("a", "b")
    smaller = m.enumerate(labels, 2)
    bigger = m.enumerate(labels, 3)
    assert bigger[: len(smaller)] == smaller  # prefix-stable in the bound
    assert len(set(bigger)) == len(bigger)
    sizes = [m.size(v) for v in bigger]
    assert sizes == sorted(sizes)
    assert all(s <= 3 for s in sizes)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_unit_is_enumerated(mid):
    m = monad_for(mid)
    pool = m.enumerate(("a", "b"), 1)
    assert m.unit("a") in pool


# ---------------------------------------------------------------------------
# bind and the direct paths


_SWAP = {"a": "b", "b": "a"}
_COLLAPSE = {"a": "a", "b": "a"}


def _flatten(m, w):
    """join by the loops the flattening monads had before `bind`; others'
    own join"""
    if m.family in ("list", "nonempty-list"):
        return ("list",) + tuple(x for inner in w[1:] for x in inner[1:])
    if m.family == "powerset":
        return mk_set(x for inner in w[1:] for x in inner[1:])
    build = {"multiset": lambda es: mk_mset(entries=es), "dist": mk_dist, "abgroup": mk_grp}
    if m.family in build:
        return build[m.family]([(x, n * k) for inner, n in w[1] for x, k in inner[1]])
    return m.join(w)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_bind_is_join_after_fmap(mid):
    m = monad_for(mid)
    # FinMonad's bind and join call each other: a monad must define one
    cls = type(m)
    assert cls.bind is not FinMonad.bind or cls.join is not FinMonad.join
    pool = m.enumerate(("a", "b"), 2)
    assert pool
    kleislis = {
        "unit": m.unit,
        "swap": lambda x: m.unit(_SWAP[x]),
        "collapse": lambda x: m.unit(_COLLAPSE[x]),
        # nested results, so that flattening merges and reorders entries
        "pool": lambda x: pool[-1] if x == "a" else pool[len(pool) // 2],
    }
    for name, f in kleislis.items():
        for v in pool:
            want = _flatten(m, m.fmap(f, v))
            assert m.bind(v, f) == m.join(m.fmap(f, v)) == want, (name, format_value(v))


@pytest.mark.parametrize("mid", [i for i in ALL_IDS if hasattr(monad_for(i), "choose")])
def test_choose_keeps_members_in_order(mid):
    m = monad_for(mid)
    for t in map(monad_for, ("powerset", "multiset")):
        for v in m.enumerate(("a", "b"), 3):
            # one element at each position: the only pick is v itself
            assert m.choose(m.fmap(t.unit, v), t) == t.unit(v)
            swapped = m.fmap(lambda x: t.unit(_SWAP[x]), v)
            assert m.choose(swapped, t) == t.unit(m.fmap(_SWAP.get, v))


_MIXED = [
    "b",
    mk_list(("a", "b")),
    "a",
    Fraction(1, 3),
    mk_set(("a",)),
    2,
    mk_mset(entries=[("a", 2)]),
    mk_list(("a",)),
    mk_dist([("b", Fraction(1))]),
]


def test_constructors_order_mixed_entries_by_canon_key():
    want = sorted(_MIXED, key=canon_key)
    for shift in range(len(_MIXED)):
        entries = _MIXED[shift:] + _MIXED[:shift]
        assert mk_set(reversed(entries))[1:] == tuple(want)
        assert [x for x, _ in mk_mset(entries)[1]] == want
        assert [x for x, _ in mk_grp((x, -1) for x in entries)[1]] == want
        n = len(entries)
        assert [x for x, _ in mk_dist((x, Fraction(1, n)) for x in entries)[1]] == want
    labels = ["c", "a", "b"]
    assert mk_set(labels) == ("set", "a", "b", "c")
    assert mk_mset(labels)[1] == (("a", 1), ("b", 1), ("c", 1))


# ---------------------------------------------------------------------------
# laws


@pytest.mark.parametrize("mid", ALL_IDS)
def test_monad_laws_hold(mid):
    report = check_monad_laws(monad_for(mid), carrier_size=2, bound=2)
    assert report.ok, report.describe()
    assert report.checked["assoc"] > 0


class _BrokenListMonad(ListMonad):
    """Concatenates and then drops the last element: breaks the unit laws."""

    def __init__(self):
        super().__init__()
        self.monad_id = "broken-list"

    def join(self, v):
        flat = super().join(v)
        return flat[:-1] if len(flat) > 1 else flat


def test_negative_control_broken_join():
    report = check_monad_laws(_BrokenListMonad(), carrier_size=2, bound=2)
    assert not report.ok
    laws = {law for law, *_ in report.violations}
    assert "unit-left" in laws and "unit-right" in laws
    assert "VIOLATION" in report.describe()


def test_law_report_describe_mentions_counts():
    report = check_monad_laws(monad_for("lift"), carrier_size=2, bound=2)
    assert isinstance(report, LawReport)
    assert "assoc=" in report.describe()


def test_zero_cases_is_not_ok():
    # nonempty lists have no value of size 0: every pool is empty
    report = check_monad_laws(monad_for("nonempty-list"), 2, 0)
    assert not report.violations
    assert not report.ok
    assert report.unchecked() == ["assoc", "unit-left", "unit-right"]
    assert "NO CASES" in report.describe()


# ---------------------------------------------------------------------------
# unit/fmap/join properties on sampled values

_PROP_IDS = ["list", "multiset", "powerset", "bintree", "narytree:3", "dist", "abgroup"]
_RENAMES = [
    {"a": "a", "b": "b"},
    {"a": "b", "b": "a"},
    {"a": "a", "b": "a"},
    {"a": "b", "b": "b"},
]


@pytest.mark.parametrize("mid", _PROP_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fmap_functorial_and_join_natural(mid, data):
    m = monad_for(mid)
    pool = m.enumerate(("a", "b"), 2)
    v = data.draw(st.sampled_from(pool))
    f = data.draw(st.sampled_from(_RENAMES))
    g = data.draw(st.sampled_from(_RENAMES))
    assert m.fmap(lambda x: x, v) == v
    assert m.fmap(lambda x: g[f[x]], v) == m.fmap(g.get, m.fmap(f.get, v))

    nested_pool = m.enumerate(pool[: min(6, len(pool))], 2)
    w = data.draw(st.sampled_from(nested_pool))
    lift_f = lambda inner: m.fmap(f.get, inner)  # noqa: E731
    assert m.fmap(f.get, m.join(w)) == m.join(m.fmap(lift_f, w))


# ---------------------------------------------------------------------------
# free models


CORE_PAIRS = [
    ("monoid", "list"),
    ("comm-monoid", "multiset"),
    ("jsl", "powerset"),
    ("pointed", "lift"),
]
MORE_PAIRS = [
    ("semigroup", "nonempty-list", 3, 2),
    ("magma", "bintree", 3, 2),
    ("magma-unit", "narytree:2", 3, 2),
    ("narytree-theory:3", "narytree:3", 3, 2),
    ("reader:2", "reader:2", 1, 2),
    ("abgroup", "abgroup", 2, 2),
    ("exception:{a,b}", "exception:{a,b}", 1, 1),
]


@pytest.mark.parametrize("theory_id,monad_id", CORE_PAIRS)
def test_free_model_iso_core_pairs(theory_id, monad_id):
    report = free_model_iso_check(theory_id, monad_id, depth=2)
    assert report.ok, report.problems
    assert report.value_count == report.class_count


@pytest.mark.parametrize("theory_id,monad_id,bound,depth", MORE_PAIRS)
def test_free_model_iso_more_pairs(theory_id, monad_id, bound, depth):
    report = free_model_iso_check(theory_id, monad_id, bound=bound, depth=depth)
    assert report.ok, report.problems


def test_dist_is_not_free_over_binary_mix():
    # the binary-mix theory only generates dyadic weights, so thirds in the
    # enumeration are unreachable; the report must say so honestly
    report = free_model_iso_check("convex", "dist", bound=2, depth=3)
    assert not report.ok
    assert any("unreachable" in p for p in report.problems)


def _brute_force_free_model(theory_id, monad_id, labels, bound, depth, subst_depth=2):
    """The free-model report computed term by term over the whole universe."""
    entry = lookup_theory(theory_id)
    monad = monad_for(monad_id)
    ops = monads.free_model_ops(entry.theory_id, monad.monad_id)
    report = FreeModelReport(entry.theory_id, monad.monad_id, labels, bound, depth)
    sig = entry.presentation.signature
    atoms = [Var(x) for x in labels] + [App(c, ()) for c in sig.constants]
    universe = list(enumerate_terms(sig, atoms, depth))
    report.term_count = len(universe)

    def evaluator(env):
        memo = {}

        def value(t):
            if t not in memo:
                if isinstance(t, Var):
                    memo[t] = env[t.name]
                else:
                    memo[t] = ops[t.op.name](*(value(s) for s in t.args))
            return memo[t]

        return value

    base = evaluator({x: monad.unit(x) for x in labels})
    proc = procedure_for(entry.theory_id)
    by_class = {}
    for t in universe:
        by_class.setdefault(proc.term_key(t), []).append(t)
    report.class_count = len(by_class)
    class_values = {}
    for key, members in by_class.items():
        vals = {base(t) for t in members}
        if len(vals) > 1:
            shown = render(members[0])
            report.problems.append(f"class of {shown} maps to {len(vals)} values")
        class_values[key] = vals.pop()
    seen = {}
    for key, val in class_values.items():
        if val in seen:
            report.problems.append(f"distinct classes share value {format_value(val)}")
        seen[val] = key
    report.value_count = len(seen)
    for b in range(bound + 1):
        enumerated = set(monad.enumerate(labels, b))
        reached = {v for v in seen if monad.size(v) <= b}
        for got, what in (
            (enumerated - reached, "enumerated values unreachable from terms"),
            (reached - enumerated, "term values missing from enumeration"),
        ):
            if got:
                first = format_value(sorted(got, key=canon_key)[0])
                report.problems.append(f"bound {b}: {len(got)} {what}, e.g. {first}")

    small = [t for t in universe if term_depth(t) <= subst_depth]
    images = small[: 3 * len(labels)]
    for shift in range(min(3, len(images))):
        sigma = {x: images[(i + shift) % len(images)] for i, x in enumerate(labels)}
        outer = evaluator({x: monad.unit(base(sigma[x])) for x in labels})
        mismatched = {}  # one report per distinct (direct, outer) pair
        for t in small:
            direct = base(substitute(t, sigma))
            if monad.join(outer(t)) != direct:
                mismatched.setdefault((direct, outer(t)), t)
        for t in mismatched.values():
            report.problems.append(f"substitution mismatch at {render(t)}")
    if not images:
        report.problems.append("no substitution cases checked")
    return report


@pytest.mark.parametrize(
    "theory_id,monad_id,labels,bound,depth",
    [(th, m, ("a", "b", "c"), 3, 2) for th, m in CORE_PAIRS]
    + [
        (th, m, ("a", "b") if th == "narytree-theory:3" else ("a", "b", "c"), b, d)
        for th, m, b, d in MORE_PAIRS
    ]
    + [("convex", "dist", ("a", "b", "c"), 2, 3)],
)
def test_free_model_closure_matches_brute_force(theory_id, monad_id, labels, bound, depth):
    got = free_model_iso_check(theory_id, monad_id, labels, bound, depth)
    assert got == _brute_force_free_model(theory_id, monad_id, labels, bound, depth)


def test_free_model_reports_with_equal_fields_are_equal():
    a = FreeModelReport("monoid", "list", ("a", "b"), 2, 3)
    b = FreeModelReport("monoid", "list", ("a", "b"), 2, 3)
    assert a is not b and a == b
    a.term_count = b.term_count = 7
    a.problems.append("odd")
    assert a != b
    b.problems.append("odd")
    assert a == b
    assert a != ("monoid", "list", ("a", "b"), 2, 3)


def test_free_model_reports_one_substitution_mismatch_per_value_pair(monkeypatch):
    # a product that drops its right argument once the left one has two
    # elements does not commute with join; each (direct, outer) value pair
    # is reported once
    def clipped_ops(theory_id, monad_id):
        clipped = lambda a, b: a if len(a) > 2 else a + b[1:]  # noqa: E731
        return {"mul": clipped, "e": lambda: ("list",)}

    monkeypatch.setattr(monads, "free_model_ops", clipped_ops)
    labels = ("a", "b")
    got = free_model_iso_check("monoid", "list", labels=labels, bound=1, depth=2)
    assert got == _brute_force_free_model("monoid", "list", labels, 1, 2)
    assert any(p.startswith("substitution mismatch") for p in got.problems)


@pytest.mark.parametrize("monad_id", ALL_IDS)
def test_free_model_ops_cover_the_signature(monad_id):
    m = monad_for(monad_id)
    sig = lookup_theory(m.theory_id).presentation.signature
    ops = monads.free_model_ops(m.theory_id, monad_id)
    assert sorted(ops) == sorted(op.name for op in sig.ops)
    for op in sig.ops:
        if op.arity == 2:
            assert ops[op.name](m.unit("a"), m.unit("b")) == m.pair("a", "b")


# the designated binary of each monad's theory at unit(a), unit(b)
_PAIRS = {
    "list": ("list", "a", "b"),
    "nonempty-list": ("list", "a", "b"),
    "multiset": ("mset", (("a", 1), ("b", 1))),
    "powerset": ("set", "a", "b"),
    "bintree": ("nnode", ("nleaf", "a"), ("nleaf", "b")),
    "narytree:2": ("nnode", ("nleaf", "a"), ("nleaf", "b")),
    "narytree:3": ("nnode", ("nleaf", "a"), ("nleaf", "b"), ("nunit",)),
    "reader:2": ("fun", "a", "b"),
    "dist": ("dist", (("a", Fraction(1, 2)), ("b", Fraction(1, 2)))),
    "abgroup": ("grp", (("a", 1), ("b", 1))),
}


@pytest.mark.parametrize("mid", ALL_IDS)
def test_pair_is_pinned(mid):
    m = monad_for(mid)
    has_binary = lookup_theory(m.theory_id).designated_binary is not None
    assert has_binary == (mid in _PAIRS)
    if has_binary:
        assert m.pair("a", "b") == _PAIRS[mid]
    else:
        with pytest.raises(PairUnsupportedError, match="no canonical two-element"):
            m.pair("a", "b")


def test_free_model_detects_wrong_ops():
    import monadlab.monads as M

    good = M.free_model_ops("boom:UA--", "list")
    assert good["mul"](mk_list("ab"), mk_list("c")) == mk_list("abc")
    with pytest.raises(NoMonadError):
        M.free_model_ops("boom:UA--", "powerset")
