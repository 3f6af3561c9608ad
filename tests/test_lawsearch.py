"""Bounded search for distributive-law tables on small carriers."""

import hashlib

import pytest

from monadlab import lawsearch
from monadlab.distlaws import DistLaw, check_beck, law_for
from monadlab.lawsearch import SearchOutcome, search_distlaw_bounded
from monadlab.monads import LiftMonad, NoMonadError, monad_for
from monadlab.values import mk_set


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
    for table in r.candidates:
        for level, w in table.entries:
            assert w in s.enumerate(t.enumerate(table.carriers[level], 0), 0)


@pytest.mark.parametrize("s_id,t_id", [
    ("dist", "powerset"), ("bintree", "lift"), ("reader:2", "lift"),
])
def test_empty_fragment_is_inconclusive(s_id, t_id):
    # S has no value of size 0, so at bound 0 the fragment holds no input;
    # a table over it would be a green result that checked nothing
    r = search_distlaw_bounded(s_id, t_id, carrier_size=1, bound=0)
    assert (r.outcome, r.variables, r.forced, r.candidates) == (
        SearchOutcome.INCONCLUSIVE, 0, 0, [])
    assert r.describe() == (
        f"{s_id} over {t_id}, carriers (1,), bound 0: Inconclusive "
        "(the fragment holds no input at bound 0)"
    )


class TestPowersetOverPowerset:
    def test_refuted_in_fragment(self):
        r = search_distlaw_bounded("powerset", "powerset", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.NO_LAW
        assert r.conclusive
        assert r.candidates == []

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
        assert not r.conclusive
        assert r.carrier_sizes == (1, 2, 3, 4)
        assert len(r.candidates) == 1
        tab = r.candidates[0]
        labels = ("a", "b", "c", "d")
        for level, carrier in enumerate(r.carrier_sizes):
            assert tab.at(level, ("bot",)) == ("ok", ("bot",))
            assert tab.at(level, ("ok", ("bot",))) == ("bot",)
            for x in labels[:carrier]:
                assert tab.at(level, ("ok", ("ok", x))) == ("ok", ("ok", x))

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
        law = DistLaw(
            law_id="lift-swap",
            s_monad=lift,
            t_monad=lift,
            apply=swap,
            description="exchange the two partiality layers",
        )
        report = check_beck(law, carrier_size=2, bound=3)
        assert report.ok, report.describe()


class TestExplicitDomainPairs:
    def test_exception_over_lift_matches_registered_law(self):
        r = search_distlaw_bounded("exception:{a}", "lift", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.CANDIDATES
        assert r.forced == r.variables == 18
        law = law_for("exception-over:lift")
        tab = r.candidates[0]
        for (level, w), v in tab.entries.items():
            assert law(w) == v

    def test_powerset_over_lift_finds_the_strict_law(self):
        # every member must be a success for the whole set to succeed
        r = search_distlaw_bounded("powerset", "lift", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.CANDIDATES
        assert len(r.candidates) == 1
        tab = r.candidates[0]
        assert tab.at(0, mk_set([])) == ("ok", mk_set([]))
        assert tab.at(0, mk_set([("bot",)])) == ("bot",)
        assert tab.at(0, mk_set([("ok", "a")])) == ("ok", mk_set(["a"]))
        assert tab.at(0, mk_set([("bot",), ("ok", "a")])) == ("bot",)

    def test_lift_over_powerset_distributes_pointwise(self):
        r = search_distlaw_bounded("lift", "powerset", carrier_size=1, bound=2)
        assert r.outcome == SearchOutcome.CANDIDATES
        tab = r.candidates[0]
        assert tab.at(0, ("bot",)) == mk_set([("bot",)])
        assert tab.at(0, ("ok", mk_set([]))) == mk_set([])
        assert tab.at(0, ("ok", mk_set(["a"]))) == mk_set([("ok", "a")])

    @pytest.mark.parametrize("kind", ["emptied", "backtracking"])
    def test_refutations_raise_one_conflict(self, kind):
        # no registered pair reaches these two exits at small carriers, so
        # the edges are built by hand over the domain {x, y}
        ident = type("Edge", (), {"out": staticmethod(lambda v: v)})
        swap = type("Edge", (), {"out": staticmethod({"x": "y", "y": "x"}.get)})
        result = lawsearch.SearchResult(SearchOutcome.INCONCLUSIVE, "s", "t", (1,), 1)
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
        with pytest.raises(lawsearch._Conflict) as exc:
            lawsearch._explicit_domains(result, [("a",)], assigned, unknown, edges,
                                        [["x", "y"]])
        assert str(exc.value) == want


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
    assert r.conflict == "at |X|=1 the input bot is forced to both bot and bot (unit-s)"
    assert r.forced == 0 and r.stats["maps"] == 0


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
    assert a2.candidates[0].entries == b2.candidates[0].entries


@pytest.mark.parametrize("s_id,t_id", [("list", "list"), ("multiset", "multiset")])
def test_huge_result_space_is_counted_lazily(s_id, t_id):
    # both result spaces are far beyond the domain cap and do not fit in
    # memory, so the cap must be checked while counting
    r = search_distlaw_bounded(s_id, t_id)
    assert r.outcome == SearchOutcome.INCONCLUSIVE
    assert "more than 4096 values" in r.conflict


def _entries_digest(table) -> str:
    lines = sorted(f"{level} {w!r} -> {v!r}" for (level, w), v in table.entries.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


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
    # the edge cap, checked before any edge is built
    ("lift", "lift", 7): (
        ("Inconclusive", (7,), 9, 0,
         "naturality needs 7411887 (map, input) pairs over 823543 maps "
         "between carriers, more than 1000000"),
        [],
    ),
    # the domain cap, checked after propagation
    ("list", "list", 1): (
        ("Inconclusive", (1, 3, 4), 659, 66,
         "result space at |X|=3 has more than 4096 values"),
        [],
    ),
}


@pytest.mark.parametrize("key", list(PINNED_SEARCHES), ids=lambda k: "|".join(map(str, k)))
def test_search_results_are_pinned(key):
    s_id, t_id, carrier = key
    r = search_distlaw_bounded(s_id, t_id, carrier_size=carrier, bound=2)
    summary = (r.outcome, r.carrier_sizes, r.variables, r.forced, r.conflict)
    tables = [(len(c.entries), _entries_digest(c)) for c in r.candidates]
    assert (summary, tables) == PINNED_SEARCHES[key]


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
            ("powerset", "powerset", (301, 18550, 18550, 207225, 12628)),
            ("list", "list", (438, 173434, 173434, 373480, 31636)),
            ("multiset", "exception:{a,b}", (438, 11476, 11476, 179133, 15546)),
        ],
    )
    def test_stats_at_defaults_are_pinned(self, s_id, t_id, stats):
        # recorded before the image memos answered repeated inputs in C:
        # moving the memo may change no count
        r = search_distlaw_bounded(s_id, t_id)
        keys = ("maps", "pairs", "edges", "images_requested", "images_computed")
        assert r.stats == dict(zip(keys, stats))

    def test_counts_maps_pairs_and_edges(self):
        r = search_distlaw_bounded("lift", "lift", carrier_size=1, bound=2)
        sizes = r.carrier_sizes
        pools = [2 + n for n in sizes]  # bot, ok(bot) and ok(ok(x)) per label
        assert r.stats["maps"] == sum(j ** i for i in sizes for j in sizes)
        assert r.stats["pairs"] == sum(
            j ** i * pool for i, pool in zip(sizes, pools) for j in sizes
        )
        # lift keeps the shape of a value, so every pushed input is in a pool
        assert r.stats["edges"] == r.stats["pairs"]
        assert r.elapsed > 0

    def test_capped_search_examines_no_pair(self):
        r = search_distlaw_bounded("lift", "lift", carrier_size=7, bound=2)
        assert r.stats == dict.fromkeys(
            ("maps", "pairs", "edges", "images_requested", "images_computed"), 0
        )


@pytest.mark.parametrize("s_id, t_id, inputs", [("bintree", "dist", 2), ("list", "reader:2", 3)])
def test_candidates_on_the_one_element_carrier_say_no_naturality_was_tested(
    s_id, t_id, inputs
):
    # the chain stops at |X|=1, whose one map is the identity
    r = search_distlaw_bounded(s_id, t_id)
    assert r.carrier_sizes == (1,) and r.stats["maps"] == 1
    assert r.describe() == (
        f"{s_id} over {t_id}, carriers (1,), bound 2: Candidates (1 fragment-consistent "
        f"table(s), {inputs}/{inputs} inputs forced; no naturality condition tested)"
    )
    longer = search_distlaw_bounded("lift", "lift")
    assert longer.carrier_sizes != (1,) and "naturality" not in longer.describe()
