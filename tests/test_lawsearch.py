"""Bounded search for distributive-law tables on small carriers."""

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from references import with_fraction_weights

from monadlab import lawsearch, monads
from monadlab.distlaws import DistLaw, check_beck, law_for
from monadlab.lawsearch import SearchOutcome, search_distlaw_bounded
from monadlab.monads import LiftMonad, NoMonadError, monad_for, monad_ids
from monadlab.values import letters, mk_set


def test_tables_list_inputs_in_the_order_of_their_fraction_text():
    # a table lists each level's inputs by `str` (for a tuple, `repr`) of
    # the input as it read while distribution weights were `Fraction`s
    dist, lift = monad_for("dist"), monad_for("lift")
    pool = dist.enumerate(letters(3), 3)
    values = [*pool, *lift.enumerate(pool, 2), *dist.enumerate(lift.enumerate(letters(2), 2), 2),
              *dist.enumerate(pool[:4], 2), *monad_for("multiset").enumerate(pool[:3], 2),
              mk_set(pool[:5]), ("list",), "a"]
    for v in values:
        assert lawsearch._listing_text(v) == repr(with_fraction_weights(v))
    table = search_distlaw_bounded("dist", "lift").table
    listed = [line.split(": ", 1)[1] for line in table.describe().split("\n")[:-1]]
    assert listed[:3] == ["{bot:1} -> bot", "{bot:1/2,ok(a):1/2} -> bot",
                          "{bot:1/3,ok(a):2/3} -> bot"]


def test_outcome_strings_are_stable():
    assert SearchOutcome.NO_LAW == "NoLawInFragment"
    assert SearchOutcome.CANDIDATES == "Candidates"
    assert SearchOutcome.INCONCLUSIVE == "Inconclusive"


def test_unknown_monad_is_rejected():
    with pytest.raises(NoMonadError):
        search_distlaw_bounded("powersett", "lift")


@pytest.mark.parametrize("s_id,t_id", [
    ("list", "powerset"), ("exception:{a}", "lift"), ("lift", "lift"),
    ("powerset", "powerset"), ("lift", "exception:{a}"),
])
def test_bound_zero_forces_only_fragment_inputs(s_id, t_id):
    # at bound 0 some unit inputs, such as [{}], lie outside the fragment
    r = search_distlaw_bounded(s_id, t_id, carrier_size=1, bound=0)
    assert r.forced <= r.variables
    s, t = monad_for(s_id), monad_for(t_id)
    if r.table is not None:
        for level, w in r.table.entries:
            assert w in s.enumerate(t.enumerate(r.table.carriers[level], 0), 0)


@pytest.mark.parametrize("s_id,t_id", [
    ("dist", "powerset"), ("bintree", "lift"), ("reader:2", "lift"),
])
def test_empty_fragment_is_inconclusive(s_id, t_id):
    # S has no value of size 0, so at bound 0 the fragment holds no input;
    # a table over it would be a green result that checked nothing
    r = search_distlaw_bounded(s_id, t_id, carrier_size=1, bound=0)
    assert (r.outcome, r.variables, r.forced, r.table) == (
        SearchOutcome.INCONCLUSIVE, 0, 0, None)
    assert r.describe() == (
        f"{s_id} over {t_id}, carriers (1,), bound 0: Inconclusive "
        "(the fragment holds no input at bound 0)"
    )


class TestPowersetOverPowerset:
    def test_refuted_in_fragment(self):
        r = search_distlaw_bounded("powerset", "powerset", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.NO_LAW
        assert r.table is None

    def test_fragment_shape(self):
        r = search_distlaw_bounded("powerset", "powerset", carrier_size=1, bound=2)
        # carrier chain grows by the size of the enumerated set layer,
        # capped at 4: 1 -> 2 -> 4 -> (4, stop)
        assert r.carrier_sizes == (1, 2, 4)
        assert r.variables == 82
        assert r.forced == 27

    def test_conflict_names_the_pinch(self):
        # the refutation pinches the doubleton-of-doubletons: its image under
        # the three collapsing renamings forces {a} as the only possible
        # output, yet no member survives all three constraints
        r = search_distlaw_bounded("powerset", "powerset", carrier_size=1, bound=2)
        assert "{{a,b},{c,d}}" in r.conflict
        assert "allowed members: []" in r.conflict
        assert "NoLawInFragment" in r.describe()
        assert "{{a,b},{c,d}}" in r.describe()


class TestLiftOverLift:
    def test_single_candidate_is_the_swap(self):
        r = search_distlaw_bounded("lift", "lift", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.CANDIDATES
        assert r.carrier_sizes == (1, 2, 3, 4)
        tab = r.table
        assert tab is not None
        labels = ("a", "b", "c", "d")
        for level, carrier in enumerate(r.carrier_sizes):
            assert tab.entries[(level, ("bot",))] == ("ok", ("bot",))
            assert tab.entries[(level, ("ok", ("bot",)))] == ("bot",)
            for x in labels[:carrier]:
                assert tab.entries[(level, ("ok", ("ok", x)))] == ("ok", ("ok", x))

    def test_units_force_everything(self):
        # both unit seedings plus naturality pin every table entry before
        # any search happens
        r = search_distlaw_bounded("lift", "lift", carrier_size=1, bound=2)
        assert r.forced == r.variables == 18

    def test_swap_satisfies_all_five_conditions(self):
        # promote the found table to an actual transformation and check it
        def swap(v):
            if v == ("bot",):
                return ("ok", ("bot",))
            if v[1] == ("bot",):
                return ("bot",)
            return v

        lift = monad_for("lift")
        # exchange the two partiality layers
        law = DistLaw(law_id="lift-swap", s_monad=lift, t_monad=lift, apply=swap)
        report = check_beck(law, carrier_size=2, bound=3)
        assert report.ok, report.describe()


class TestExplicitDomainPairs:
    def test_exception_over_lift_matches_registered_law(self):
        r = search_distlaw_bounded("exception:{a}", "lift", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.CANDIDATES
        assert r.forced == r.variables == 18
        law = law_for("exception-over:lift")
        tab = r.table
        for (level, w), v in tab.entries.items():
            assert law(w) == v

    def test_powerset_over_lift_finds_the_strict_law(self):
        # every member must be a success for the whole set to succeed
        r = search_distlaw_bounded("powerset", "lift", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.CANDIDATES
        tab = r.table
        assert tab is not None
        assert tab.entries[(0, mk_set([]))] == ("ok", mk_set([]))
        assert tab.entries[(0, mk_set([("bot",)]))] == ("bot",)
        assert tab.entries[(0, mk_set([("ok", "a")]))] == ("ok", mk_set(["a"]))
        assert tab.entries[(0, mk_set([("bot",), ("ok", "a")]))] == ("bot",)

    def test_lift_over_powerset_distributes_pointwise(self):
        r = search_distlaw_bounded("lift", "powerset", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.CANDIDATES
        tab = r.table
        assert tab.entries[(0, ("bot",))] == mk_set([("bot",)])
        assert tab.entries[(0, ("ok", mk_set([])))] == mk_set([])
        assert tab.entries[(0, ("ok", mk_set(["a"])))] == mk_set([("ok", "a")])

    @pytest.mark.parametrize("kind", ["emptied", "backtracking"])
    def test_refutations_raise_one_conflict(self, kind):
        # no registered pair reaches these two exits at small carriers, so
        # the edges are built by hand over the domain {x, y}
        ident = type("Edge", (), {"out": staticmethod(lambda v: v)})
        swap = type("Edge", (), {"out": staticmethod({"x": "y", "y": "x"}.get)})
        if kind == "emptied":
            # w's only edge needs its output to be z, which the domain lacks
            assigned, unknown = {(0, "u"): "z"}, [(0, "w")]
            edges = {(0, "w"): [(ident, 0, "u")]}
            want = "no value remains for input w at |X|=1 (complete domain emptied)"
        else:
            # u must equal w and also its swap, which arc consistency misses
            assigned, unknown = {}, [(0, "w"), (0, "u")]
            edges = {(0, "u"): [(ident, 0, "w"), (swap, 0, "w")]}
            want = "complete domains admit no assignment consistent with naturality"
        domains = {key: dict.fromkeys("xy") for key in unknown}
        with pytest.raises(lawsearch._Conflict) as exc:
            lawsearch._explicit_domains([("a",)], assigned, domains,
                                        lambda key: edges.get(key, []))
        assert str(exc.value) == want

    def test_backtracking_checks_edges_into_filled_inputs_and_self_edges(self):
        # e's one edge goes to k through the swap; k is filled after e, so
        # k's output must be checked against the edge that reaches it
        swap = type("Edge", (), {"out": staticmethod({"x": "y", "y": "x"}.get)})
        const = type("Edge", (), {"out": staticmethod(lambda v: "y")})
        edges = {(0, "e"): [(swap, 0, "k")]}

        def search(unknown):
            domains = {key: dict.fromkeys("xy") for key in unknown}
            return lawsearch._explicit_domains([("a",)], {}, domains,
                                               lambda key: edges.get(key, []))

        assert search([(0, "e"), (0, "k")]) == {(0, "e"): "x", (0, "k"): "y"}
        # a self-edge through a map that sends everything to y leaves y alone
        edges[(0, "e")].append((const, 0, "e"))
        assert search([(0, "e"), (0, "k")]) == {(0, "e"): "y", (0, "k"): "x"}

    def test_backtracking_path_is_not_bounded_by_the_recursion_limit(self):
        # multiset over lift at bound 8 backtracks over 1,274 unknown inputs.
        # Here each of 1,200 inputs must equal the one before it, all x
        ident = type("Edge", (), {"out": staticmethod(lambda v: v)})
        swap = type("Edge", (), {"out": staticmethod({"x": "y", "y": "x"}.get)})
        unknown = [(0, i) for i in range(1200)]
        edges = {(0, i): [(ident, 0, i - 1)] for i in range(1, 1200)}

        def search():
            domains = {key: dict.fromkeys("xy") for key in unknown}
            return lawsearch._explicit_domains([("a",)], {}, domains,
                                               lambda key: edges.get(key, []))

        assert search() == dict.fromkeys(unknown, "x")
        # the last must also be the swap of the first: the path runs to the
        # end twice, once from x and once from y, before it is refuted
        edges[(0, 1199)].append((swap, 0, 0))
        with pytest.raises(lawsearch._Conflict):
            search()


def test_conflicting_unit_conditions_are_no_law(monkeypatch):
    # no registered pair has a unit or naturality conflict at small carriers;
    # an S whose unit forgets its argument forces bot to both bot and ok(bot)
    class Forgetful(LiftMonad):
        monad_id = "forgetful"

        def unit(self, x):
            return ("bot",)

    real = lawsearch.monad_for
    monkeypatch.setattr(lawsearch, "monad_for",
                        lambda mid: Forgetful() if mid == "forgetful" else real(mid))
    r = search_distlaw_bounded("forgetful", "lift")
    assert r.outcome == SearchOutcome.NO_LAW
    assert r.conflict == "at |X|=1 the input bot is forced to both bot and ok(bot) (unit-s)"
    assert r.forced == 0 and r.stats["edges"] == 0


def test_repeated_runs_are_identical():
    a = search_distlaw_bounded("powerset", "powerset", carrier_size=1, bound=2)
    b = search_distlaw_bounded("powerset", "powerset", carrier_size=1, bound=2)
    assert (a.outcome, a.forced, a.variables, a.conflict) == (
        b.outcome,
        b.forced,
        b.variables,
        b.conflict,
    )
    a2 = search_distlaw_bounded("lift", "lift", carrier_size=1, bound=2)
    b2 = search_distlaw_bounded("lift", "lift", carrier_size=1, bound=2)
    assert a2.table.entries == b2.table.entries


@pytest.mark.parametrize("s_id,t_id", [("list", "list"), ("multiset", "multiset")])
def test_huge_result_space_is_counted_lazily(s_id, t_id):
    # both result spaces are far beyond the domain cap and do not fit in
    # memory, so the cap must be checked while counting
    r = search_distlaw_bounded(s_id, t_id)
    assert r.outcome == SearchOutcome.INCONCLUSIVE
    assert "more than 4096 values" in r.conflict


@pytest.mark.parametrize("t_id", monad_ids())
def test_result_space_is_no_smaller_than_its_elements(t_id):
    # the explicit-domain step stops listing S(C) past the domain cap: that
    # is sound because |T(Y)| >= |Y| for every T, through an injective unit
    # whose values T lists at any bound >= 1
    t = monad_for(t_id)
    for n in (1, 3, 5):
        carrier = letters(n)
        units = {t.unit(y) for y in carrier}
        assert len(units) == n
        for bound in (1, 2, 3):
            assert units <= set(t.iter_values(carrier, bound))


def test_result_space_cap_lists_at_most_one_value_past_it(monkeypatch):
    # S(C) for narytree:3 at |X|=4 holds 39,669 trees; the cap needs 4097
    s = monad_for("narytree:3")
    drawn: list = []
    real = s.iter_values

    def counted(carrier, bound):
        drawn.append(0)
        for v in real(carrier, bound):
            drawn[-1] += 1
            yield v

    monkeypatch.setattr(s, "iter_values", counted)
    r = search_distlaw_bounded("narytree:3", "exception:{a}")
    assert r.conflict == "result space at |X|=4 has more than 4096 values"
    assert max(drawn) == lawsearch._MAX_DOMAIN + 1


def _limit_address_space_to_1gb():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _search_in_1gb(*args: str) -> str:
    """The stdout of `monadlab law search ARGS` in a 1 GB address space."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run(
        [sys.executable, "-m", "monadlab", "law", "search", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space_to_1gb,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_oversized_fragment_is_refused_before_it_is_built():
    # list over list at bound 4 has about 341**4 inputs at |X|=4; they must
    # be counted past the pool cap, not built
    assert _search_in_1gb("list", "list", "--bound", "4") == (
        "list over list, carriers (1, 4), bound 4: Inconclusive "
        "(list values over 341 elements up to size 4: more than 1,000,000 (the pool cap))\n"
    )


def test_edges_past_the_cap_are_refused_before_they_are_built():
    # an input over six of ten letters has 10**6 restrictions, one edge each
    assert _search_in_1gb("exception:{a}", "powerset", "--carrier", "10", "--bound", "6") == (
        "exception:{a} over powerset, carriers (10,), bound 6: Inconclusive "
        "(naturality needs more than 500,000 edges (the edge cap))\n"
    )


@pytest.mark.parametrize("s_id, t_id, level", [
    ("narytree:3", "narytree:3", 1), ("narytree:3", "abgroup", 4), ("abgroup", "narytree:3", 1),
    ("dist", "narytree:3", 4), ("dist", "abgroup", 4),
])
def test_pairs_past_the_result_space_cap_build_few_edges(s_id, t_id, level):
    # the planned (map, input) pairs of these five passed a million, but
    # propagation builds about a thousand edges before the result space stops it
    r = search_distlaw_bounded(s_id, t_id)
    assert r.describe() == (
        f"{s_id} over {t_id}, carriers (1, 4), bound 2: Inconclusive "
        f"(result space at |X|={level} has more than 4096 values)"
    )
    assert 0 < r.stats["edges"] < 2000


def _entries_digest(table) -> str:
    lines = sorted(f"{level} {w!r} -> {v!r}" for (level, w), v in table.entries.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _tables(r) -> list:
    """The search's table as (entries, digest), in a list of none or one."""
    return [] if r.table is None else [(len(r.table.entries), _entries_digest(r.table))]


# one search per exit path, with its (outcome, carrier sizes, variables,
# forced, conflict) and its candidate tables as (entries, digest), recorded
# before naturality images were memoized per map
PINNED_SEARCHES = {
    # units and propagation force every entry
    ("lift", "lift", 1): (
        ("Candidates", (1, 2, 3, 4), 18, 18, None), [(18, "221576ec81469b43")],
    ),
    ("exception:{a}", "lift", 1): (
        ("Candidates", (1, 2, 3, 4), 18, 18, None), [(18, "a7619fb2e1dce94d")],
    ),
    # explicit domains: arc consistency, then backtracking over 10 inputs
    ("powerset", "exception:{a}", 1): (
        ("Candidates", (1, 2, 3, 4), 38, 28, None), [(38, "b2070a968f8fbed3")],
    ),
    # set-valued domains empty a member set
    ("powerset", "powerset", 1): (
        ("NoLawInFragment", (1, 2, 4), 82, 27,
         "at |X|=4 the input {{a,b},{c,d}} cannot reach member {a} of its "
         "forced image {{a}} under naturality; allowed members: []"),
        [],
    ),
    # 7**7 maps, but one edge per restriction to an input's letters: 51 edges
    ("lift", "lift", 7): (
        ("Candidates", (7,), 9, 9, None), [(9, "d3a4669d82fd57b2")],
    ),
    # the domain cap, checked after propagation
    ("list", "list", 1): (
        ("Inconclusive", (1, 3, 4), 659, 66,
         "result space at |X|=3 has more than 4096 values"),
        [],
    ),
    # the entries below were recorded before naturality edges were built
    # per input on first visit
    # explicit domains with unknown inputs left after propagation
    ("list", "lift", 1): (
        ("Candidates", (1, 2, 3, 4), 72, 48, None), [(72, "fecf88b1092f5d4b")],
    ),
    ("multiset", "exception:{a,b}", 1): (
        ("Candidates", (1, 3, 4), 59, 34, None), [(59, "bb728f37a5b8bab0")],
    ),
    # set-valued domains cannot cover a forced target
    ("reader:2", "powerset", 1): (
        ("NoLawInFragment", (1, 2, 4), 141, 31,
         "at |X|=4 the input ({a,b},{c,d}) cannot reach member (a,a) of its "
         "forced image {(a,a)} under naturality; allowed members: []"),
        [],
    ),
    # set-valued domains whose maximal assignment fails an edge
    ("bintree", "powerset", 1): (
        ("Inconclusive", (1, 2, 4), 158, 38,
         "maximal member sets are not exactly natural; smaller subsets not explored"),
        [],
    ),
    # the domain cap at the last level, after three levels fit
    ("narytree:3", "exception:{a}", 1): (
        ("Inconclusive", (1, 2, 3, 4), 180, 108,
         "result space at |X|=4 has more than 4096 values"),
        [],
    ),
}


@pytest.mark.parametrize("key", list(PINNED_SEARCHES), ids=lambda k: "|".join(map(str, k)))
def test_search_results_are_pinned(key):
    s_id, t_id, carrier = key
    r = search_distlaw_bounded(s_id, t_id, carrier_size=carrier, bound=2)
    summary = (r.outcome, r.carrier_sizes, r.variables, r.forced, r.conflict)
    assert (summary, _tables(r)) == PINNED_SEARCHES[key]


# every other reference pair that reaches domain reasoning at CLI defaults
# within half a second, as (carrier sizes, forced/variables, candidate
# tables), recorded before both kinds of domain were narrowed by one
# arc-consistency sweep; None marks the maximal member sets that fail an edge
DOMAIN_SEARCHES = {
    ("list", "powerset"): ((1, 2, 4), None, []),
    ("list", "exception:{a}"): ((1, 2, 3, 4), "48/72", [(72, "b3a48797dc4509bc")]),
    ("list", "exception:{a,b}"): ((1, 3, 4), "43/87", [(87, "c84d002e9f0094fb")]),
    ("nonempty-list", "powerset"): ((1, 2, 4), None, []),
    ("nonempty-list", "exception:{a}"): ((1, 2, 3, 4), "44/68", [(68, "220b6e1ddb48ab75")]),
    ("nonempty-list", "exception:{a,b}"): ((1, 3, 4), "40/84", [(84, "e01f8c1b5f7f9ff3")]),
    ("nonempty-list", "lift"): ((1, 2, 3, 4), "44/68", [(68, "0f6570942444327b")]),
    ("multiset", "powerset"): ((1, 2, 4), None, []),
    ("multiset", "exception:{a}"): ((1, 2, 3, 4), "38/52", [(52, "36bdcb19c9311d02")]),
    ("multiset", "lift"): ((1, 2, 3, 4), "38/52", [(52, "cc58868ac8b30136")]),
    ("powerset", "exception:{a,b}"): ((1, 3, 4), "26/45", [(45, "25eb8c85a93025c9")]),
    ("powerset", "lift"): ((1, 2, 3, 4), "28/38", [(38, "d2fb56e295f13e50")]),
    ("bintree", "exception:{a}"): ((1, 2, 3, 4), "44/68", [(68, "0094f728dfeca11f")]),
    ("bintree", "exception:{a,b}"): ((1, 3, 4), "40/84", [(84, "f832b2fc4394df0f")]),
    ("bintree", "lift"): ((1, 2, 3, 4), "44/68", [(68, "0dc1aa26cc1a7193")]),
    ("narytree:2", "powerset"): ((1, 2, 4), None, []),
    ("narytree:2", "exception:{a}"): ((1, 2, 3, 4), "48/72", [(72, "d851c012de4ce492")]),
    ("narytree:2", "exception:{a,b}"): ((1, 3, 4), "43/87", [(87, "405da2c10d042d99")]),
    ("narytree:2", "lift"): ((1, 2, 3, 4), "48/72", [(72, "1993119b55a49c1a")]),
    ("reader:2", "exception:{a}"): ((1, 2, 3, 4), "34/54", [(54, "753ba045db6e09a7")]),
    ("reader:2", "exception:{a,b}"): ((1, 3, 4), "32/70", [(70, "da8bee8ce90539bd")]),
    ("reader:2", "lift"): ((1, 2, 3, 4), "34/54", [(54, "09e4676fe3ba5687")]),
}


@pytest.mark.parametrize("pair", list(DOMAIN_SEARCHES), ids="|".join)
def test_domain_reasoning_results_are_pinned(pair):
    sizes, forced, tables = DOMAIN_SEARCHES[pair]
    r = search_distlaw_bounded(*pair)
    tail = (
        f"Candidates (1 fragment-consistent table(s), {forced} inputs forced)" if forced
        else "Inconclusive (maximal member sets are not exactly natural; "
        "smaller subsets not explored)"
    )
    assert r.describe() == f"{pair[0]} over {pair[1]}, carriers {sizes}, bound 2: {tail}"
    assert _tables(r) == tables


def _naturality_breaks(s_id, t_id, table) -> list:
    """The (input, map) pairs of a table's edges between chain carriers
    whose images disagree, found by trying every map."""
    s, t = monad_for(s_id), monad_for(t_id)
    breaks = []
    for (i, w), v in table.entries.items():
        for j, target in enumerate(table.carriers):
            for f in lawsearch._all_functions(table.carriers[i], target):
                w2 = s.fmap(lambda tv: t.fmap(f.get, tv), w)
                if (j, w2) in table.entries:
                    if t.fmap(lambda sv: s.fmap(f.get, sv), v) != table.entries[(j, w2)]:
                        breaks.append(((i, w), f))
    return breaks


@pytest.mark.parametrize(
    "pair",
    [(s, t) for (s, t, carrier), ((outcome, *_), _) in PINNED_SEARCHES.items()
     if outcome == "Candidates" and carrier == 1]
    + [pair for pair, (_, forced, _) in DOMAIN_SEARCHES.items() if forced],
    ids="|".join,
)
def test_candidate_tables_are_natural_under_every_map(pair):
    r = search_distlaw_bounded(*pair)
    assert r.table is not None
    assert _naturality_breaks(*pair, r.table) == []


@pytest.mark.parametrize("s_id, t_id", [
    ("list", "powerset"), ("abgroup", "exception:{a,b}"), ("dist", "multiset"),
    ("reader:2", "narytree:2"), ("multiset", "abgroup"), ("bintree", "lift"),
])
def test_maps_that_agree_on_the_letters_give_equal_images(s_id, t_id):
    # S(T f)(w) and T(S f)(v) read f only at the letters of w and v, which
    # is what lets a search keep one edge per restriction of a map
    s, t = monad_for(s_id), monad_for(t_id)
    src, dst = letters(3), letters(2)
    inputs = list(s.iter_values(t.enumerate(src, 2), 2))
    outputs = list(t.iter_values(s.enumerate(src, 2), 2))
    maps = lawsearch._all_functions(src, dst)
    for k in range(12):  # twelve (input, output) pairs spread over both pools
        w, v = inputs[k * len(inputs) // 12], outputs[k * len(outputs) // 12]
        held = {x for tv in s.members(w) for x in t.members(tv)}
        held |= {x for sv in t.members(v) for x in s.members(sv)}
        images: dict = {}
        for f in maps:
            image = (s.fmap(lambda tv: t.fmap(f.get, tv), w),
                     t.fmap(lambda sv: s.fmap(f.get, sv), v))
            images.setdefault(tuple(f[x] for x in sorted(held)), set()).add(image)
        assert len(images) == len(dst) ** len(held)
        assert all(len(found) == 1 for found in images.values())


class TestStats:
    def test_each_map_image_is_computed_once(self, monkeypatch):
        # count every image asked for and every image actually computed, per
        # memo, behind the search's back
        asked: list = []
        computed = [0]
        real_memo = lawsearch.memo

        def spy_memo(f):
            def counted(x):
                computed[0] += 1
                return f(x)

            cached = real_memo(counted)

            def asking(x):
                asked.append((id(cached), x))
                return cached(x)

            asking.cache_info = cached.cache_info
            return asking

        monkeypatch.setattr(lawsearch, "memo", spy_memo)
        r = search_distlaw_bounded("powerset", "powerset", carrier_size=1, bound=2)
        stats = r.stats
        assert stats["images_requested"] == len(asked)
        assert stats["images_computed"] == computed[0] == len(set(asked))
        assert stats["images_computed"] < stats["images_requested"]

    @pytest.mark.parametrize(
        "s_id, t_id, stats",
        [
            ("powerset", "powerset", (3430, 24249, 4723)),
            ("list", "list", (1156, 4504, 3024)),
            ("multiset", "exception:{a,b}", (574, 3469, 1428)),
        ],
    )
    def test_stats_at_defaults_are_pinned(self, s_id, t_id, stats):
        # edges are counted as built, one per restriction of a map to an
        # input's letters: list over list stops at the result-space cap
        # after propagation has visited 66 of its 659 inputs, so it builds
        # 1,156 edges. Images are counted for the maps edges were built from
        r = search_distlaw_bounded(s_id, t_id)
        keys = ("edges", "images_requested", "images_computed")
        assert r.stats == dict(zip(keys, stats))

    def test_counts_edges_per_restriction(self):
        r = search_distlaw_bounded("lift", "lift", carrier_size=1, bound=2)
        sizes = r.carrier_sizes
        # one edge per input, target level and restriction of a map to the
        # input's letters: bot and ok(bot) hold none (the whole carrier on
        # the one-letter carrier, where no map witnesses the support lemma),
        # ok(ok(x)) holds x; lift keeps the shape of a value, so every pushed
        # input is in a pool
        held = {i: [int(i == 1)] * 2 + [1] * i for i in sizes}
        assert r.stats["edges"] == sum(j ** k for i in sizes for k in held[i] for j in sizes)
        assert r.elapsed > 0

    def test_capped_search_examines_no_pair(self, monkeypatch):
        # every pool comes from `FinMonad.enumerate`, so its cap ends the
        # search before any edge is built
        monkeypatch.setattr(monads, "MAX_POOL", 5)
        r = search_distlaw_bounded("lift", "lift", carrier_size=1, bound=2)
        assert r.describe() == (
            "lift over lift, carriers (1, 2, 3, 4), bound 2: Inconclusive "
            "(lift values over 5 elements up to size 2: more than 5 (the pool cap))"
        )
        assert r.stats == dict.fromkeys(("edges", "images_requested", "images_computed"), 0)


@pytest.mark.parametrize("s_id, t_id, inputs", [("bintree", "dist", 2), ("list", "reader:2", 3)])
def test_candidates_on_the_one_element_carrier_say_no_naturality_was_tested(
    s_id, t_id, inputs
):
    # the chain stops at |X|=1, whose one map is the identity
    r = search_distlaw_bounded(s_id, t_id)
    # one edge per input, through the identity
    assert r.carrier_sizes == (1,) and r.stats["edges"] == inputs
    assert r.describe() == (
        f"{s_id} over {t_id}, carriers (1,), bound 2: Candidates (1 fragment-consistent "
        f"table(s), {inputs}/{inputs} inputs forced; no naturality condition tested)"
    )
    longer = search_distlaw_bounded("lift", "lift")
    assert longer.carrier_sizes != (1,) and "naturality" not in longer.describe()
