"""Distributive laws: pinned examples, Beck conditions, the broken control."""

import collections
import contextlib
import hashlib
import itertools
import math
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    composite_monad,
    dist_shares,
    mm1_apply_by_slices,
    multiset_choose_by_merge,
    reference_choose,
)

from monadlab import cli, distlaws, monads, nogo
from monadlab.distlaws import NoLawError, check_beck, law_for, law_ids
from monadlab.monads import check_monad_laws, monad_for
from monadlab.values import (
    format_value,
    letters,
    mk_dist,
    mk_grp,
    mk_list,
    mk_mset,
    mk_set,
)


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
    bin_shape = ("nnode", ("nleaf", mk_set("ab")), ("nleaf", mk_set("c")))
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
# choice laws and the mm-nel laws against their first formulations


def _refill(s, shape, elems):
    """`shape` with `elems` at its positions, in `members` order."""
    it = iter(elems)
    return s.fmap(lambda _: next(it), shape)


# T's (element, weight) entries, and its constructor that merges and sorts them
_ENTRIES = {
    "multiset": (lambda tv: tv[1], lambda es: mk_mset(entries=es)),
    "powerset": (lambda tv: [(x, 1) for x in tv[1:]], lambda es: mk_set(x for x, _ in es)),
    "dist": (dist_shares, mk_dist),
    "abgroup": (lambda tv: tv[1], mk_grp),
}


def _reference_choice(s, t, v):
    """Every pick of one element per position, rebuilt through fmap (sorted
    into a multiset for multiset S) and weighted by the product of the
    picked weights; T's constructor merges the picks and sorts them."""
    entries, merge = _ENTRIES[t.monad_id]
    picks = []
    for chosen in itertools.product(*map(entries, s.members(v))):
        elems = [x for x, _ in chosen]
        pick = mk_mset(elems) if s.monad_id == "multiset" else _refill(s, v, elems)
        picks.append((pick, math.prod(w for _, w in chosen)))
    return merge(picks)


@pytest.mark.parametrize("carrier", [2, 3])
@pytest.mark.parametrize("t_id", sorted(_ENTRIES))
@pytest.mark.parametrize(
    "s_id", ["list", "nonempty-list", "bintree", "narytree:2", "narytree:3", "multiset"]
)
def test_choice_law_matches_merge_and_sort(s_id, t_id, carrier):
    law = law_for(f"choice:{s_id}:{t_id}")
    s, t = law.s_monad, law.t_monad
    pool_t = t.enumerate(letters(carrier), 3)
    # the smallest T values (the empty one, units) and the largest, so that
    # the S pool stays small enough to replay whole at bound 3
    pool = s.enumerate(pool_t[:3] + pool_t[-3:], 3)
    assert len(pool) >= 84  # multiset S over six values, the smallest pool
    for v in pool:
        assert law(v) == _reference_choice(s, t, v), format_value(v)


def _mm1_reference(v):
    groups: list = []
    current: list = []
    for idx, inner in enumerate(v[1:]):
        for j, x in enumerate(inner[1:]):
            if idx > 0 and j == 0:
                current.append(x)
            else:
                if current:
                    groups.append(current)
                current = [x]
    groups.append(current)
    return mk_list(mk_list(g) for g in groups)


def test_mm1_matches_the_sliced_reference_on_every_beck_input():
    # every input that `check_beck` gives the law at carriers 2 and 3
    law = law_for("mm-nel-1")
    inputs = []

    def apply(v):
        inputs.append(v)
        return law.apply(v)

    for carrier in (2, 3):
        assert check_beck(law._replace(apply=apply), carrier, 3).ok
    assert len(inputs) > 30_000
    for v in inputs:
        assert law.apply(v) == mm1_apply_by_slices(v), format_value(v)


def _mm_project_reference(pick):
    def apply(v):
        inners = v[1:]
        if len(inners) == 1:
            return mk_list(mk_list((x,)) for x in inners[0][1:])
        return mk_list([mk_list(pick(inner) for inner in inners)])

    return apply


def test_mm_nel_laws_match_their_first_formulation():
    nel = monad_for("nonempty-list")
    # the check_beck pool of nonempty lists of nonempty lists at carrier 3
    pool = nel.enumerate(nel.enumerate(letters(3), 3)[:32], 3)
    assert len(pool) == 33824
    references = {
        "mm-nel-1": _mm1_reference,
        "mm-nel-2": _mm_project_reference(lambda inner: inner[1]),
        "mm-nel-3": _mm_project_reference(lambda inner: inner[-1]),
    }
    for law_id, reference in references.items():
        law = law_for(law_id)
        wrong = [v for v in pool if law(v) != reference(v)]
        assert not wrong, (law_id, len(wrong), format_value(wrong[0]))


# ---------------------------------------------------------------------------
# the S monads list their values naturally in the carrier


# every monad that a law can have as S, and the monads whose enumeration is
# not natural: abgroup's coefficients cancel, and the commutative or
# idempotent trees skip the nodes that are not canonical
_S_IDS = ["list", "nonempty-list", "multiset", "boom:-AC-", "narytree:2", "narytree:3",
          "bintree", "exception:{a}", "exception:{a,b}", "lift"]
_NOT_NATURAL_IDS = ["abgroup", "boom:U--I", "boom:U-C-", "boom:U-CI", "boom:---I",
                    "boom:--C-", "boom:--CI"]
_LETTER_MAPS = {"collapse": {"b": "a"}, "swap": {"a": "b", "b": "a"},
                "3-cycle": {"a": "b", "b": "c", "c": "a"}}


def _carrier_maps():
    """(carrier, map) pairs: the letter maps on carriers of two and three
    letters and, through T's fmap, on a prefix of a T pool, and a map onto
    non-letter values that merges T values, as mult-s maps by λ."""
    nel = monad_for("nonempty-list")
    prefix = nel.enumerate(letters(3), 3)[:6]
    for name, f in _LETTER_MAPS.items():
        def rename(x, f=f):
            return f.get(x, x)
        for n in (2, 3):
            yield f"{name} of {n} letters", letters(n), rename
        yield f"{name} of a T prefix", prefix, lambda tv, rename=rename: nel.fmap(rename, tv)
    yield "T prefix to its letters", prefix, lambda tv: mk_mset(tv[1:])


def _natural_cases(s):
    """The cases in which listing `s` over a mapped carrier is not `s`'s fmap
    of the values over the carrier, in order."""
    return [
        (name, bound)
        for name, carrier, g in _carrier_maps()
        for bound in (2, 3)
        if list(s.iter_values([*map(g, carrier)], bound))
        != [s.fmap(g, v) for v in s.iter_values(carrier, bound)]
    ]


@pytest.mark.parametrize("s_id", _S_IDS)
def test_s_enumeration_is_natural_in_the_carrier(s_id):
    # `check_beck` maps each of its S pools by listing S over the mapped carrier
    assert _natural_cases(monad_for(s_id)) == []


@pytest.mark.parametrize("m_id", _NOT_NATURAL_IDS)
def test_enumeration_of_cancelling_and_canonical_trees_is_not_natural(m_id):
    # so `check_monad_laws`, and every T-side map of `check_beck`, keep fmap
    assert _natural_cases(monad_for(m_id))


def test_every_law_has_a_natural_s():
    assert {law_for(law_id).s_monad for law_id in law_ids()} <= {*map(monad_for, _S_IDS)}


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


def test_faulty_law_fails_first_multiplication(monkeypatch):
    monkeypatch.setattr(monads, "NESTED_CAPS", (20, 20))
    report = check_beck(law_for("faulty-list-exception"), carrier_size=1, bound=2)
    assert not report.ok
    bad = [v for v in report.violations if v[0] == "mult-s"]
    assert bad, "expected a mult-s counterexample"
    # flattening [[err(b)],[]] keeps b, the pointwise route forgets it
    witness = ("list", ("list", ("err", "b")), ("list",))
    assert witness in [w for _, w, _, _ in bad]
    # every pool was complete at this size: 183 doubly nested values
    assert report.pool_sizes["SST"] == 183
    assert not {"unit-s", "unit-t"} & {v[0] for v in report.violations}


def _counting(law):
    """The law with an apply that counts how often it sees each input."""
    seen = collections.Counter()

    def apply(v):
        seen[v] += 1
        return law.apply(v)

    return law._replace(apply=apply), seen


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


def test_injective_rename_keeps_no_result_outside_the_pool():
    # at carrier 3 the swap sends c to None and merges no letters, so its
    # renamed inputs fall outside the ST pool: each is applied once in that
    # pass and not kept. The few that the collapse pass met as well are
    # applied again, and every application is counted
    law, seen = _counting(law_for("mm-nel-1"))
    report = check_beck(law, carrier_size=3, bound=3)
    assert report.stats["lambda_computed"] == sum(seen.values())
    assert report.stats["lambda_kept"] < len(seen) < report.stats["lambda_computed"]
    assert set(seen.values()) == {1, 2}


# a fresh interpreter's peak RSS growth over one Beck check, in kB, measured
# once monadlab is imported and the law built. It reads the peak of its own
# address space, VmHWM: `ru_maxrss` starts from the peak of the process that
# forked it, here the test runner's
_RSS_PROBE = """
from monadlab.distlaws import check_beck, law_for

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

law = law_for("mm-nel-1")
before = peak_kb()
check_beck(law, 3, 3)
print(peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_carrier3_check_keeps_its_memo_small():
    # mm-nel-1 at carrier 3, bound 3 sets the peak RSS of the benchmark's
    # laws workload. Keeping every λ result grew it by about 40 MB, keeping
    # none for renamed inputs outside the pool by about 24 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 30 * 1024


# every law at carrier 2 and bound 3: (checked per condition, pool sizes,
# number of violations, the first violation, law applications requested,
# computed, results kept). The nine positive laws that every cold Boom table
# replays were first recorded before the Kleisli `bind` and the C-level
# memo, and ring, the costliest law at those settings, before the
# order-free comparison of commutative T values; every law before the S-side
# maps of a pool became enumerations over the mapped carrier. Every result
# is kept but for exception-over:narytree:3, whose swap sends seven inputs
# outside the ST pool (its carrier is a prefix of the T pool)
_REPLAYED = {
    "ring": (
        (25, 15, 32552, 1885, 1885), (25, 15, 16276, 1885, 1885), 0, None,
        57884, 20038, 20038,
    ),
    "mset-cartesian": (
        (10, 10, 572, 455, 455), (10, 10, 286, 455, 455), 0, None,
        3074, 1132, 1132,
    ),
    "mm-nel-1": (
        (14, 14, 5908, 1884, 1884), (14, 14, 2954, 1884, 1884), 0, None,
        18322, 6708, 6708,
    ),
    "mm-nel-2": (
        (14, 14, 5908, 1884, 1884), (14, 14, 2954, 1884, 1884), 0, None,
        18322, 6708, 6708,
    ),
    "mm-nel-3": (
        (14, 14, 5908, 1884, 1884), (14, 14, 2954, 1884, 1884), 0, None,
        18322, 6708, 6708,
    ),
    "faulty-list-exception": (
        (4, 15, 170, 1885, 259), (4, 15, 85, 1885, 259), 5,
        ("mult-s", ("list", ("list",), ("list", ("err", "b"))), ("err", "b"), ("err", "a")),
        4659, 1408, 1408,
    ),
    "choice:tree:multiset": (
        (10, 23, 4222, 3613, 3613), (10, 23, 2111, 3613, 3613), 0, None,
        23625, 9170, 9170,
    ),
    "choice:tree:powerset": (
        (4, 23, 298, 3613, 3613), (4, 23, 149, 3613, 3613), 0, None,
        29037, 6980, 6980,
    ),
    "choice:list:multiset": (
        (10, 15, 2222, 1885, 1885), (10, 15, 1111, 1885, 1885), 0, None,
        12374, 4761, 4761,
    ),
    "choice:list:powerset": (
        (4, 15, 170, 1885, 1885), (4, 15, 85, 1885, 1885), 0, None,
        15066, 3300, 3300,
    ),
    "choice:multiset:multiset": (
        (10, 10, 572, 455, 455), (10, 10, 286, 455, 455), 0, None,
        3074, 1132, 1132,
    ),
    "choice:multiset:powerset": (
        (4, 10, 70, 455, 455), (4, 10, 35, 455, 455), 0, None,
        3424, 767, 767,
    ),
    "exception-over:list": (
        (15, 4, 34, 14, 14), (15, 4, 17, 14, 14), 0, None,
        151, 39, 39,
    ),
    "exception-over:nonempty-list": (
        (14, 4, 32, 14, 14), (14, 4, 16, 14, 14), 0, None,
        148, 40, 40,
    ),
    "exception-over:multiset": (
        (10, 4, 24, 14, 14), (10, 4, 12, 14, 14), 0, None,
        131, 34, 34,
    ),
    "exception-over:powerset": (
        (4, 4, 12, 8, 14), (4, 4, 6, 8, 14), 0, None,
        97, 22, 22,
    ),
    "exception-over:bintree": (
        (22, 4, 48, 14, 14), (22, 4, 24, 14, 14), 0, None,
        180, 48, 48,
    ),
    "exception-over:narytree:2": (
        (23, 4, 50, 14, 14), (23, 4, 25, 14, 14), 0, None,
        183, 47, 47,
    ),
    "exception-over:narytree:3": (
        (167, 4, 68, 14, 14), (167, 4, 34, 14, 14), 0, None,
        354, 198, 191,
    ),
    "exception-over:exception:{a}": (
        (3, 4, 10, 7, 6), (3, 4, 5, 7, 6), 0, None,
        58, 9, 9,
    ),
    "exception-over:exception:{a,b}": (
        (4, 4, 12, 8, 8), (4, 4, 6, 8, 8), 0, None,
        70, 10, 10,
    ),
    "exception-over:lift": (
        (3, 4, 10, 7, 6), (3, 4, 5, 7, 6), 0, None,
        58, 10, 10,
    ),
    "exception-over:reader:2": (
        (4, 4, 12, 8, 14), (4, 4, 6, 8, 14), 0, None,
        104, 24, 24,
    ),
    "exception-over:dist": (
        (7, 4, 18, 11, 14), (7, 4, 9, 11, 14), 0, None,
        116, 30, 30,
    ),
    "exception-over:abgroup": (
        (25, 4, 54, 14, 14), (25, 4, 27, 14, 14), 0, None,
        191, 49, 49,
    ),
}


def test_replayed_reports_cover_every_law():
    assert sorted(_REPLAYED) == sorted(law_ids())


@pytest.mark.parametrize("law_id", sorted(_REPLAYED))
def test_replayed_law_counts_are_pinned(law_id):
    checked, pools, count, first, requested, computed, kept = _REPLAYED[law_id]
    report = check_beck(law_for(law_id), carrier_size=2, bound=3)
    conditions = ("unit-s", "unit-t", "natural", "mult-s", "mult-t")
    assert report.checked == dict(zip(conditions, checked))
    assert report.pool_sizes == dict(zip(("T", "S", "ST", "SST", "STT"), pools))
    assert len(report.violations) == count
    assert (report.violations or [None])[0] == first
    assert report.stats == {"lambda_requested": requested, "lambda_computed": computed,
                            "lambda_kept": kept}


def _weigh_doubles(from_canonical):
    """`from_canonical` that gives each pick of two equal elements one
    more than its weight."""
    return lambda self, xs, ws: from_canonical(
        self, xs, [w + (len(x) == 3 and x[1] == x[2]) for x, w in zip(xs, ws)])


def _drop_last_pick(from_canonical):
    """`from_canonical` that drops the last of two or more picks."""
    return lambda self, xs, ws: from_canonical(self, xs[:-1] if len(xs) > 1 else xs, ws)


# two broken choice laws over a commutative T, as recorded before the
# order-free comparison of T values: (checked per condition, number of
# violations, sha256 of the repr of the whole violation list, the first
# violation). Their violations record canonical values, in pool order.
_BROKEN = {
    ("choice:list:multiset", _weigh_doubles): (
        (10, 15, 2222, 1885, 1885), 228,
        "1477258eb09c4b1913a2621412ebe06e46518c2fa85b3e7c95455e030fc43831",
        ("unit-t", ("list", "a", "a"), ("mset", ((("list", "a", "a"), 2),)),
         ("mset", ((("list", "a", "a"), 1),))),
    ),
    ("choice:list:powerset", _drop_last_pick): (
        (4, 15, 170, 1885, 1885), 628,
        "fd3d54ed5f5e70f4a599d494ead36a9eee5c30cbe77ad183f615b1af4bb76244",
        ("unit-s", ("set", "a", "b"), ("set", ("list", "a")),
         ("set", ("list", "a"), ("list", "b"))),
    ),
}


@pytest.mark.parametrize("law_id,patch", sorted(_BROKEN, key=lambda k: k[0]))
def test_broken_commutative_law_reports_are_pinned(law_id, patch, monkeypatch):
    checked, count, digest, first = _BROKEN[law_id, patch]
    law = law_for(law_id)
    t = law.t_monad
    monkeypatch.setattr(type(t), "from_canonical", patch(type(t).from_canonical))
    report = check_beck(law, carrier_size=2, bound=3)
    conditions = ("unit-s", "unit-t", "natural", "mult-s", "mult-t")
    assert report.checked == dict(zip(conditions, checked))
    assert len(report.violations) == count
    assert report.violations[0] == first
    assert hashlib.sha256(repr(report.violations).encode()).hexdigest() == digest
    # every condition that compares order-free records canonical values
    assert {c for c, *_ in report.violations} >= {"natural", "mult-s", "mult-t"}
    for _, _, left, right in report.violations:
        assert t.canonical(t.unordered(left)) == left
        assert t.canonical(t.unordered(right)) == right


# the sizes of the T-over-T pools at carriers 1, 2 and 3 (bound 3) whose
# first values are the carrier of mult-t, as counted when the whole pool was
# enumerated over the T values themselves; None where the check raises at
# carrier 3 (the naturality renames send c to None)
_TT_SIZES = {
    "ring": (575, 22151, None),
    "mset-cartesian": (35, 286, None),
    "mm-nel-1": (39, 2954, 33824),
    "mm-nel-2": (39, 2954, 33824),
    "mm-nel-3": (39, 2954, 33824),
    "faulty-list-exception": (5, 6, 7),
    "choice:tree:multiset": (35, 286, None),
    "choice:tree:powerset": (4, 15, None),
    "choice:list:multiset": (35, 286, None),
    "choice:list:powerset": (4, 15, None),
    "choice:multiset:multiset": (35, 286, None),
    "choice:multiset:powerset": (4, 15, None),
    "exception-over:list": (85, 3616, 33825),
    "exception-over:nonempty-list": (39, 2954, 33824),
    "exception-over:multiset": (35, 286, None),
    "exception-over:powerset": (4, 15, None),
    "exception-over:bintree": (148, 21802, 66592),
    "exception-over:narytree:2": (281, 24887, 66593),
    "exception-over:narytree:3": (264409, 625697, 625697),
    "exception-over:exception:{a}": (3, 4, 5),
    "exception-over:exception:{a,b}": (5, 6, 7),
    "exception-over:lift": (3, 4, 5),
    "exception-over:reader:2": (1, 16, 81),
    "exception-over:dist": (1, 252, None),
    "exception-over:abgroup": (575, 22151, None),
}


def test_tt_sizes_cover_every_law():
    assert sorted(_TT_SIZES) == sorted(law_ids())


@pytest.mark.parametrize(
    "law_id, carrier, size",
    [
        (law_id, carrier, size)
        for law_id, sizes in _TT_SIZES.items()
        for carrier, size in zip((1, 2, 3), sizes)
        if size is not None
    ],
)
def test_tt_pool_count_is_pinned(law_id, carrier, size):
    # `check_beck` lists only a prefix of this pool. Enumeration looks only
    # at how many distinct elements the carrier has, so the pool is counted
    # over as many stand-in labels
    t = law_for(law_id).t_monad
    width = len(t.enumerate(letters(carrier), 3)[:monads.NESTED_CAPS[0]])
    assert sum(1 for _ in t.iter_values([str(i) for i in range(width)], 3)) == size


@pytest.mark.parametrize("t_id, inputs", [
    ("multiset", 286), ("powerset", 35), ("dist", 120), ("abgroup", 3276),
])
def test_multiset_choice_matches_the_merge_reference(t_id, inputs):
    # every input of the ST pool of the Beck check at carrier 2, bound 3
    law = law_for(f"choice:multiset:{t_id}")
    t_values = law.t_monad.enumerate(letters(2), 3)[:monads.NESTED_CAPS[0]]
    pool = law.s_monad.enumerate(t_values, 3)
    assert len(pool) == inputs
    assert [law(v) for v in pool] == [multiset_choose_by_merge(v, law.t_monad) for v in pool]


# the choice laws, ring and mset-cartesian among them
_CHOICE_IDS = ["ring", "mset-cartesian", *(i for i in law_ids() if i.startswith("choice:"))]


def _beck_results(law, carrier):
    """Every (input, result) of `law` in `check_beck` at `carrier`, bound 3.
    At carrier 3 the check raises where the naturality renames send c to
    None (see `_CARRIER3`), after the law has seen its first inputs."""
    results = []

    def apply(v):
        results.append((v, law.apply(v)))
        return results[-1][1]

    raises = pytest.raises(TypeError) if carrier == 3 else contextlib.nullcontext()
    with raises:
        check_beck(law._replace(apply=apply), carrier, 3)
    return results


def _with_an_empty_position(s, t):
    """S values with three positions that hold T's empty value at the first,
    the middle or the last position and nonempty T values at the others,
    over every shape of S (a multiset sorts the empty value first)."""
    empty = t.from_canonical((), ())
    full = t.enumerate(letters(2), 2)[-2:]
    for shape in s.enumerate(["x", "y", "z"], 3):
        if s.members(shape) == ("x", "y", "z"):
            for i in range(3):
                yield s.fmap(dict(zip("xyz", [*full[:i], empty, *full[i:]])).get, shape)


@pytest.mark.parametrize("law_id", _CHOICE_IDS)
def test_choice_law_matches_its_reference_on_every_beck_input(law_id):
    # a law built afresh starts with no position picks, as in a new process;
    # the second pass finds every position's picks already kept
    cached = law_for(law_id)
    s, t = cached.s_monad, cached.t_monad
    law = distlaws._choice_law.__wrapped__(law_id, s, t)
    results = _beck_results(law, 2) + _beck_results(law, 3)
    assert len(results) > 500
    for v, out in results:
        assert out == reference_choose(s, v, t), format_value(v)
    for v, _ in results:
        assert law(v) == reference_choose(s, v, t), format_value(v)
    empty = t.from_canonical((), ())
    inputs = [*_with_an_empty_position(s, t)]
    assert len(inputs) >= 3
    for v in inputs * 2:
        assert law(v) == reference_choose(s, v, t) == empty, format_value(v)


@pytest.mark.parametrize("law_id", _CHOICE_IDS)
def test_choice_law_keeps_few_positions_and_no_more_on_a_rerun(law_id):
    # the law's dict of position picks lives as long as the law: it holds
    # one entry per distinct position, which a repeated check does not add to
    law = law_for(law_id)
    positions = law.apply.keywords["positions"]
    _beck_results(law, 2)
    _beck_results(law, 3)
    kept = len(positions)
    assert 0 < kept <= 200
    _beck_results(law, 2)
    _beck_results(law, 3)
    assert len(positions) == kept


def test_the_replay_and_law_check_share_one_law(monkeypatch):
    # one law object per name, so a table's replay and `law check` in the
    # same process share its position picks
    checked = []

    def check(law, **bounds):
        checked.append(law)
        return types.SimpleNamespace(ok=True)

    monkeypatch.setattr(distlaws, "check_beck", check)
    for law_id in ("ring", "choice:tree:multiset"):
        nogo._replay.__wrapped__(law_id)
        assert checked.pop() is cli._law(law_id) is law_for(law_id)


_ERR_B_LEFT = ("list", ("list",), ("list", ("err", "b")))
_ERR_B_RIGHT = ("list", ("list", ("err", "b")), ("list",))


@pytest.mark.parametrize(
    "carrier, bound, checked, pool_sizes, witnesses",
    [
        (
            1,
            2,
            {"unit-s": 3, "unit-t": 3, "natural": 13, "mult-s": 157, "mult-t": 31},
            {"T": 3, "S": 3, "ST": 13, "SST": 157, "STT": 31},
            [_ERR_B_LEFT, _ERR_B_RIGHT],
        ),
        (
            2,
            3,
            {"unit-s": 4, "unit-t": 15, "natural": 170, "mult-s": 1885, "mult-t": 259},
            {"T": 4, "S": 15, "ST": 85, "SST": 1885, "STT": 259},
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


# every law at carrier 3, bound 2, as recorded before λ results for inputs
# outside the ST pool stopped being kept: (checked per condition, pool
# sizes, number of violations, the first violation), or the exception
# raised, for the twelve laws whose T sorts what the naturality renames send
# c to (None)
_RENAMED_NONE = (TypeError, "'NoneType' object is not iterable")
_NEL3 = ((12, 12, 312, 156, 156), (12, 12, 156, 156, 156), 0, None)
_CARRIER3 = {
    "ring": _RENAMED_NONE,
    "mset-cartesian": _RENAMED_NONE,
    "mm-nel-1": _NEL3,
    "mm-nel-2": _NEL3,
    "mm-nel-3": _NEL3,
    "faulty-list-exception": (
        (5, 13, 62, 157, 57), (5, 13, 31, 157, 57), 2,
        ("mult-s", _ERR_B_LEFT, ("err", "b"), ("err", "a")),
    ),
    "choice:tree:multiset": _RENAMED_NONE,
    "choice:tree:powerset": _RENAMED_NONE,
    "choice:list:multiset": _RENAMED_NONE,
    "choice:list:powerset": _RENAMED_NONE,
    "choice:multiset:multiset": _RENAMED_NONE,
    "choice:multiset:powerset": _RENAMED_NONE,
    "exception-over:list": ((13, 5, 30, 14, 14), (13, 5, 15, 14, 14), 0, None),
    "exception-over:nonempty-list": ((12, 5, 28, 14, 14), (12, 5, 14, 14, 14), 0, None),
    "exception-over:multiset": _RENAMED_NONE,
    "exception-over:powerset": _RENAMED_NONE,
    "exception-over:bintree": ((12, 5, 28, 14, 14), (12, 5, 14, 14, 14), 0, None),
    "exception-over:narytree:2": ((13, 5, 30, 14, 14), (13, 5, 15, 14, 14), 0, None),
    "exception-over:narytree:3": ((31, 5, 66, 14, 14), (31, 5, 33, 14, 14), 0, None),
    "exception-over:exception:{a}": ((4, 5, 12, 8, 7), (4, 5, 6, 8, 7), 0, None),
    "exception-over:exception:{a,b}": ((5, 5, 14, 9, 9), (5, 5, 7, 9, 9), 0, None),
    "exception-over:lift": ((4, 5, 12, 8, 7), (4, 5, 6, 8, 7), 0, None),
    "exception-over:reader:2": ((9, 5, 22, 13, 14), (9, 5, 11, 13, 14), 0, None),
    "exception-over:dist": _RENAMED_NONE,
    "exception-over:abgroup": _RENAMED_NONE,
}


def test_carrier3_reports_cover_every_law():
    assert sorted(_CARRIER3) == sorted(law_ids())


@pytest.mark.parametrize("law_id", sorted(_CARRIER3))
def test_carrier3_report_is_pinned(law_id):
    law = law_for(law_id)
    if _CARRIER3[law_id] is _RENAMED_NONE:
        error, message = _RENAMED_NONE
        with pytest.raises(error) as exc:
            check_beck(law, carrier_size=3, bound=2)
        assert str(exc.value) == message
        return
    checked, pools, count, first = _CARRIER3[law_id]
    report = check_beck(law, carrier_size=3, bound=2)
    conditions = ("unit-s", "unit-t", "natural", "mult-s", "mult-t")
    assert report.checked == dict(zip(conditions, checked))
    assert report.pool_sizes == dict(zip(("T", "S", "ST", "SST", "STT"), pools))
    assert len(report.violations) == count
    assert (report.violations or [None])[0] == first


# ---------------------------------------------------------------------------
# composite monads


@pytest.mark.parametrize("law_id", ["ring", "mset-cartesian", "mm-nel-1"])
def test_composite_monad_laws(law_id, monkeypatch):
    monkeypatch.setattr(monads, "NESTED_CAPS", (12, 6))
    comp = composite_monad(law_for(law_id), s_cap=10)
    report = check_monad_laws(comp, carrier_size=2, bound=2)
    assert report.ok, report.describe()


def test_composite_of_faulty_breaks(monkeypatch):
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
    monkeypatch.setattr(monads, "NESTED_CAPS", (40, 12))
    report = check_monad_laws(comp, carrier_size=1, bound=2)
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
