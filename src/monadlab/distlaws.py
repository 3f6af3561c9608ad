"""Distributive laws between container monads, and their Beck conditions.

A law here is a family of maps taking an outer structure of inner structures
to an inner structure of outer ones, written on values as
`apply: S(T(X)) -> T(S(X))`. `check_beck` tests naturality, both unit
conditions, and both multiplication conditions over graded pools, recording
every counterexample it finds.

The fixed laws are registered once, at import. `law_for` reads that
registry and never writes it: the choice and exception-over laws come from
cached constructors, one law per name.
"""

from __future__ import annotations

import functools
import itertools
import time
from itertools import repeat
from typing import Callable, NamedTuple

from monadlab import monads
from monadlab.monads import FinMonad, LawReport, NoMonadError, monad_for, monad_ids
from monadlab.theories import unknown_name
from monadlab.values import Value, gc_paused, letters, memo

__all__ = [
    "DistLaw",
    "NoLawError",
    "law_for",
    "law_ids",
    "check_beck",
]


class NoLawError(Exception):
    pass


class DistLaw(NamedTuple):
    """A candidate distributive law of the inner monad over the outer one."""

    law_id: str
    s_monad: FinMonad
    t_monad: FinMonad
    apply: Callable[[Value], Value]

    def __call__(self, v: Value) -> Value:
        return self.apply(v)


# ---------------------------------------------------------------------------
# concrete laws


@functools.cache
def _choice_law(law_id: str, s: FinMonad, t: FinMonad) -> DistLaw:
    """Choose one element per position of a linear S from the commutative T
    sitting there, weighting each combination of picks by the product of
    the picked weights (the swap construction of Jones & Duponcheel 1993;
    Manes & Mulry 2007, Thm 4.3.4). Over abgroup this expands products of
    sums into sums of products. S builds the picks (`FinMonad.choose`):
    a positional S gives one shape per pick set, so its picks are distinct
    and come in `canon_key` order, and T wraps them without merging or
    sorting; multiset S merges them through T's `fmap`. The law owns the
    dict in which S keeps each position's picks and weights, computed the
    first time the law meets that position and kept as long as the law
    (one per name, like the law itself). One law has one S and one T, so
    no two kinds of position meet in one dict; its entries are bounded by
    the distinct T values (or leaves) the law's inputs hold. An input with
    T's empty value at some position has no pick, and its picks stop
    there."""
    if getattr(s, "choose", None) is None:
        raise NoLawError(f"{law_id}: {s.monad_id} is not a linear monad")
    if not hasattr(t, "weighted"):
        raise NoLawError(f"{law_id}: {t.monad_id} has no (element, weight) view")
    return DistLaw(law_id, s, t, functools.partial(s.choose, t=t, positions={}))


def _monad_pair(pair: str):
    """(S, T) named by "S:T", trying every split since either id may contain
    colons; None when no split names two monads."""
    parts = pair.split(":")
    for k in range(1, len(parts)):
        try:
            return monad_for(":".join(parts[:k])), monad_for(":".join(parts[k:]))
        except NoMonadError:
            continue
    return None


def _mm1_apply(v: Value) -> Value:
    """Glue the head of every later inner list onto the group before it;
    every other element starts a new group. One pass over the elements,
    appending to the groups in place: the open group is the last one."""
    out = ["list"]
    for x in v[1][1:]:
        out.append(("list", x))
    for inner in v[2:]:
        out[-1] += inner[1:2]
        for x in inner[2:]:
            out.append(("list", x))
    return tuple(out)


def _mm_project(pick: Callable) -> Callable[[Value], Value]:
    """One block of projections when there are two or more inner lists; a
    single inner list explodes into singletons."""

    def apply(v: Value) -> Value:
        if len(v) == 2:
            return ("list", *[("list", x) for x in v[1][1:]])
        return ("list", ("list", *map(pick, v[1:])))

    return apply


@functools.cache
def _exception_over_law(law_id: str, t: FinMonad) -> DistLaw:
    """Push an exceptional structure inside: a bare error becomes a unit
    structure carrying that error, a payload gets ok wrapped on its elements."""

    def apply(v: Value) -> Value:
        if v[0] == "err":
            return t.unit(v)
        return t.fmap(lambda x: ("ok", x), v[1])

    return DistLaw(law_id, monad_for("exception:{a,b}"), t, apply)


def _faulty_apply(v: Value) -> Value:
    """Deliberately broken: a lone error passes through, but any error in a
    longer list collapses to err(a) regardless of which error occurred."""
    elems = v[1:]
    if len(elems) == 1 and elems[0][0] == "err":
        return elems[0]
    if all(e[0] == "ok" for e in elems):
        return ("ok", ("list",) + tuple(e[1] for e in elems))
    return ("err", "a")


# ---------------------------------------------------------------------------
# registry

# names kept for laws that are instances of the choice law
_LAW_ALIASES = {
    "ring": "choice:list:abgroup",
    "mset-cartesian": "choice:multiset:multiset",
}


def _fixed_laws() -> dict:
    nel = monad_for("nonempty-list")
    return {law.law_id: law for law in (
        DistLaw("mm-nel-1", nel, nel, _mm1_apply),
        DistLaw("mm-nel-2", nel, nel, _mm_project(lambda inner: inner[1])),
        DistLaw("mm-nel-3", nel, nel, _mm_project(lambda inner: inner[-1])),
        DistLaw("faulty-list-exception", monad_for("list"), monad_for("exception:{a,b}"),
                _faulty_apply),
    )}


_LAWS = _fixed_laws()


def law_ids() -> tuple:
    choices = [
        f"choice:{s}:{t}"
        for s in ("tree", "list", "multiset")
        for t in ("multiset", "powerset")
    ]
    excs = [f"exception-over:{t}" for t in monad_ids()]
    return (*_LAW_ALIASES, *_LAWS, *choices, *excs)


def law_for(law_id: str) -> DistLaw:
    """The fixed law `law_id`, else the choice or exception-over law that it
    names or is an alias of, one object per name; reads `_LAWS` and never
    writes it."""
    law = _LAWS.get(law_id)
    if law is not None:
        return law
    kind, _, rest = _LAW_ALIASES.get(law_id, law_id).partition(":")
    if kind == "choice":
        pair = _monad_pair(rest)
        if pair is not None:
            return _choice_law(law_id, *pair)
    elif kind == "exception-over":
        try:
            return _exception_over_law(law_id, monad_for(rest))
        except NoMonadError:
            pass
    raise NoLawError(unknown_name("law", law_id, law_ids()))


# ---------------------------------------------------------------------------
# Beck conditions


class _PoolResults(dict):
    """The law's results on a pool, by input, in pool order. Looking up an
    input outside the pool applies the law, keeps the result nowhere, and
    counts it in `unkept`."""

    __slots__ = ("apply", "unkept")

    def __init__(self, apply: Callable[[Value], Value], items):
        super().__init__(items)
        self.apply, self.unkept = apply, 0

    def __missing__(self, sv: Value) -> Value:
        self.unkept += 1
        return self.apply(sv)


@gc_paused
def check_beck(law: DistLaw, carrier_size: int = 2, bound: int = 3) -> LawReport:
    """Test the four Beck conditions plus naturality over graded pools.

    Single-level pools are complete up to the bound; the doubly nested pools
    for the multiplication conditions use deterministic enumeration prefixes
    (`monads.NESTED_CAPS`) as carriers, and the report records the pool
    sizes so a pass is an explicit bounded claim.

    Every S pool is S listed over a carrier, and that listing is natural in
    the carrier (`FinMonad`). So each S-side map of a pool is S listed over
    the mapped carrier, which maps each carrier value once: S(T f) of the
    ST pool in naturality, S(λ) of the SST pool in mult-s, S(μ^T) of the
    STT pool in mult-t and S(η^T) of the S pool in unit-t. Maps of T
    values use T's `fmap`.

    Within one call the law, the naturality renames of S values, and the
    joins that mult-s pushes through T's fmap are each computed once per
    distinct input (`values.memo`); mult-t binds the law through T. The
    law's results on the ST pool are held by input, in pool order
    (`_PoolResults`), for every rename's right-hand side. They are computed
    after the first rename has mapped the carrier, so a check that raises
    there does no new work. A rename that merges letters asks the memo for
    λ of its renamed inputs. One that merges none looks each up among the
    pool's results: every monad here preserves injective maps, so S(T f) is
    injective and a renamed input outside the pool is asked for once in that
    pass. It has the law applied and its result kept nowhere; a case of
    another pass that asks for it has it applied again. That happens under
    the swap at carrier 3, which sends c to None, and at carrier 2 over a T
    pool cut to its first values, as narytree:3's. The memos die with the
    call; `stats` counts λ results requested from the memo or the pool's
    results (`lambda_requested`), law applications (`lambda_computed`, the
    unkept ones included), and results kept (`lambda_kept`). The right-hand
    sides of naturality, mult-s and mult-t stop at T's unordered form, if it
    has one (`FinMonad`), so a case that holds sorts no T value.
    """
    start = time.perf_counter()
    s, t, lam = law.s_monad, law.t_monad, memo(law.apply)
    X = letters(carrier_size)
    report = LawReport(law.law_id, bound)
    cap2, cap3 = monads.NESTED_CAPS
    fmap_t = getattr(t, "fmap_unordered", t.fmap)
    bind_t = getattr(t, "bind_unordered", t.bind)
    looked_up = 0

    def mapped_s(g, carrier):
        # S(g) of each value of the S pool over `carrier`, in pool order
        return s.iter_values([*map(g, carrier)], bound)

    # the S-over-S-over-T pool, the first to pass the cap as the bound
    # grows, is built before any condition is checked, so such a bound is
    # refused at once
    pool_t = report.pool("T", t, X)
    pool_s = report.pool("S", s, X)
    carrier_t = pool_t[:cap2]
    pool_st = report.pool("ST", s, carrier_t)
    pool_sst = report.pool("SST", s, pool_st[:cap3])

    # eta-S then lambda is the same as pushing eta-S inside T
    report.compare(
        "unit-s", pool_t, map(lam, map(s.unit, pool_t)), map(t.fmap, repeat(s.unit), pool_t)
    )

    # eta-T inside S then lambda is the same as eta-T outside
    report.compare("unit-t", pool_s, map(lam, mapped_s(t.unit, X)), map(t.unit, pool_s))

    # naturality in the carrier. A rename that merges no letters sends
    # distinct inputs to distinct inputs, so a renamed input outside the
    # pool is asked for once in its pass, and its λ result is not kept
    renames = [{"a": "a", "b": "a"}, {"a": "b", "b": "a"}]
    if carrier_size == 1:
        renames = [{"a": "a"}]
    results = None
    for f in renames:
        renamed = mapped_s(functools.partial(t.fmap, f.get), carrier_t)
        if results is None:
            results = _PoolResults(law.apply, zip(pool_st, map(lam, pool_st)))
        if len({*map(f.get, X)}) < len(X):
            lhs = map(lam, renamed)
        else:
            lhs = map(results.__getitem__, renamed)
            looked_up += len(pool_st)
        outer = memo(lambda sv: s.fmap(f.get, sv))
        report.compare("natural", pool_st, lhs, map(fmap_t, repeat(outer), results.values()), t)

    # mu-S then lambda versus lambda twice then mu-S inside T
    report.compare(
        "mult-s",
        pool_sst,
        map(lam, map(s.join, pool_sst)),
        map(fmap_t, repeat(memo(s.join)), map(lam, mapped_s(lam, pool_st[:cap3]))),
        t,
    )

    # mu-T inside S then lambda versus lambda twice then mu-T outside. The
    # carrier is the first values of T over T, which is never listed whole
    carrier_tt = list(itertools.islice(t.iter_values(carrier_t, bound), cap3))
    pool_stt = report.pool("STT", s, carrier_tt)
    report.compare(
        "mult-t",
        pool_stt,
        map(lam, mapped_s(t.join, carrier_tt)),
        map(bind_t, map(lam, pool_stt), repeat(lam)),
        t,
    )

    info = lam.cache_info()
    report.stats.update(lambda_requested=info.hits + info.misses + looked_up,
                        lambda_computed=info.misses + results.unkept, lambda_kept=info.misses)
    report.elapsed = time.perf_counter() - start
    return report
