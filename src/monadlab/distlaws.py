"""Distributive laws between container monads, and their Beck conditions.

A law here is a family of maps taking an outer structure of inner structures
to an inner structure of outer ones, written on values as
`apply: S(T(X)) -> T(S(X))`. `check_beck` tests naturality, both unit
conditions, and both multiplication conditions over graded pools, recording
every counterexample it finds.
"""

from __future__ import annotations

import difflib
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from monadlab.monads import FinMonad, LawReport, NoMonadError, monad_for
from monadlab.values import Value, letters, mk_list

__all__ = [
    "DistLaw",
    "NoLawError",
    "law_for",
    "law_ids",
    "check_beck",
    "check_times_over_plus_form",
    "composite_monad",
]


class NoLawError(Exception):
    pass


@dataclass(frozen=True)
class DistLaw:
    """A candidate distributive law of the inner monad over the outer one."""

    law_id: str
    s_monad: FinMonad
    t_monad: FinMonad
    apply: Callable[[Value], Value]
    description: str = ""

    def __call__(self, v: Value) -> Value:
        return self.apply(v)


# ---------------------------------------------------------------------------
# concrete laws


def _choice_law(law_id: str, pair: str):
    """Choose one element per position of a linear S from the commutative T
    sitting there, weighting each combination of picks by the product of
    the picked weights (the swap construction of Jones & Duponcheel 1993;
    Manes & Mulry 2007, Thm 4.3.4). Over abgroup this expands products of
    sums into sums of products. `pair` is "S:T"; either id may contain
    colons, so every split is tried. None when no split names two monads."""
    parts = pair.split(":")
    for k in range(1, len(parts)):
        s_name, t_name = ":".join(parts[:k]), ":".join(parts[k:])
        try:
            s, t = monad_for(s_name), monad_for(t_name)
        except NoMonadError:
            continue
        if not hasattr(s, "rebuild"):
            raise NoLawError(f"{law_id}: {s.monad_id} is not a linear monad")
        if not hasattr(t, "weighted"):
            raise NoLawError(f"{law_id}: {t.monad_id} has no (element, weight) view")

        def apply(v: Value) -> Value:
            picks = itertools.product(*(t.weighted(p) for p in s.members(v)))
            return t.from_weighted(
                (s.rebuild(v, [x for x, _ in chosen]), math.prod(w for _, w in chosen))
                for chosen in picks
            )

        return DistLaw(
            law_id,
            s,
            t,
            apply,
            f"choose one element per {s_name} position from each {t_name}",
        )
    return None


def _mm1_apply(v: Value) -> Value:
    """Glue the head of every later inner list onto the group before it;
    every other adjacency starts a new group."""
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


def _mm_project(pick: Callable) -> Callable[[Value], Value]:
    """One block of projections when there are two or more inner lists; a
    single inner list explodes into singletons."""

    def apply(v: Value) -> Value:
        inners = v[1:]
        if len(inners) == 1:
            return mk_list(mk_list((x,)) for x in inners[0][1:])
        return mk_list([mk_list(pick(inner) for inner in inners)])

    return apply


def _exception_over_apply(t: FinMonad) -> Callable[[Value], Value]:
    """Push an exceptional structure inside: a bare error becomes a unit
    structure carrying that error, a payload gets ok wrapped on its elements."""

    def apply(v: Value) -> Value:
        if v[0] == "err":
            return t.unit(v)
        return t.fmap(lambda x: ("ok", x), v[1])

    return apply


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
    exc = monad_for("exception:{a,b}")
    laws = {
        "mm-nel-1": DistLaw(
            "mm-nel-1",
            nel,
            nel,
            _mm1_apply,
            "regroup: later heads glue left, other adjacencies split",
        ),
        "mm-nel-2": DistLaw(
            "mm-nel-2",
            nel,
            nel,
            _mm_project(lambda inner: inner[1]),
            "heads of each inner list (singletons when only one inner list)",
        ),
        "mm-nel-3": DistLaw(
            "mm-nel-3",
            nel,
            nel,
            _mm_project(lambda inner: inner[-1]),
            "lasts of each inner list (singletons when only one inner list)",
        ),
        "faulty-list-exception": DistLaw(
            "faulty-list-exception",
            monad_for("list"),
            exc,
            _faulty_apply,
            "looks plausible pointwise but forgets which error occurred",
        ),
    }
    return laws


_LAWS = _fixed_laws()
_NAMED = tuple(_LAW_ALIASES) + tuple(_LAWS)


def law_ids() -> tuple:
    choices = [
        f"choice:{s}:{t}"
        for s in ("tree", "list", "multiset")
        for t in ("multiset", "powerset")
    ]
    from monadlab.monads import ALL_MONAD_IDS

    excs = [f"exception-over:{t}" for t in ALL_MONAD_IDS]
    return _NAMED + tuple(choices + excs)


def law_for(law_id: str) -> DistLaw:
    if law_id in _LAWS:
        return _LAWS[law_id]
    kind, _, rest = _LAW_ALIASES.get(law_id, law_id).partition(":")
    law = None
    if kind == "choice":
        law = _choice_law(law_id, rest)
    elif kind == "exception-over":
        try:
            t = monad_for(rest)
        except NoMonadError:
            t = None
        if t is not None:
            law = DistLaw(
                law_id,
                monad_for("exception:{a,b}"),
                t,
                _exception_over_apply(t),
                "push exceptional values inside the structure",
            )
    if law is not None:
        return _LAWS.setdefault(law_id, law)
    near = difflib.get_close_matches(law_id, law_ids(), n=3)
    hint = f"; did you mean {', '.join(near)}?" if near else ""
    raise NoLawError(f"unknown law {law_id!r}{hint}")


# ---------------------------------------------------------------------------
# Beck conditions


# violations recorded per report; the counts in `checked` stay complete
_MAX_VIOLATIONS = 1000


class _Memo:
    """`f` computed once per distinct input for as long as the memo lives;
    `calls` counts the inputs asked for, `cache` holds the distinct ones."""

    def __init__(self, f: Callable[[Value], Value]):
        self.f = f
        self.cache: dict = {}
        self.calls = 0

    def __call__(self, x: Value) -> Value:
        self.calls += 1
        try:
            return self.cache[x]
        except KeyError:
            y = self.cache[x] = self.f(x)
            return y


def check_beck(
    law: DistLaw,
    carrier_size: int = 2,
    bound: int = 3,
    nested_caps: tuple = (32, 12),
) -> LawReport:
    """Test the four Beck conditions plus naturality over graded pools.

    Single-level pools are complete up to the bound; the doubly nested pools
    for the multiplication conditions use deterministic enumeration prefixes
    (`nested_caps`) as carriers, and the report records the pool sizes so a
    pass is an explicit bounded claim.

    Within one call the law, the naturality renames on T and S values, and
    the joins that the multiplication conditions push through fmap are each
    computed once per distinct input. The memos are locals of the call and
    die when it returns; `stats` counts the law applications requested
    (`lambda_requested`) and computed (`lambda_computed`).
    """
    start = time.perf_counter()
    s, t, lam = law.s_monad, law.t_monad, _Memo(law.apply)
    X = letters(carrier_size)
    report = LawReport(law.law_id, X, bound, tuple(nested_caps))
    cap2, cap3 = nested_caps

    def note(component, w, lhs, rhs):
        if len(report.violations) < _MAX_VIOLATIONS:
            report.violations.append((component, w, lhs, rhs))

    pool_t = t.enumerate(X, bound)
    pool_s = s.enumerate(X, bound)
    carrier_t = pool_t[:cap2]
    pool_st = s.enumerate(carrier_t, bound)
    report.pool_sizes["T"] = len(pool_t)
    report.pool_sizes["S"] = len(pool_s)
    report.pool_sizes["ST"] = len(pool_st)

    # eta-S then lambda is the same as pushing eta-S inside T
    for tv in pool_t:
        lhs = lam(s.unit(tv))
        rhs = t.fmap(s.unit, tv)
        if lhs != rhs:
            note("unit-s", tv, lhs, rhs)
    report.checked["unit-s"] = len(pool_t)

    # eta-T inside S then lambda is the same as eta-T outside
    for sv in pool_s:
        lhs = lam(s.fmap(t.unit, sv))
        rhs = t.unit(sv)
        if lhs != rhs:
            note("unit-t", sv, lhs, rhs)
    report.checked["unit-t"] = len(pool_s)

    # naturality in the carrier
    renames = [{"a": "a", "b": "a"}, {"a": "b", "b": "a"}]
    if carrier_size == 1:
        renames = [{"a": "a"}]
    for f in renames:
        inner = _Memo(lambda tv: t.fmap(f.get, tv))
        outer = _Memo(lambda sv: s.fmap(f.get, sv))
        for w in pool_st:
            lhs = lam(s.fmap(inner, w))
            rhs = t.fmap(outer, lam(w))
            if lhs != rhs:
                note("natural", w, lhs, rhs)
    report.checked["natural"] = len(pool_st) * len(renames)

    # mu-S then lambda versus lambda twice then mu-S inside T
    carrier_st = pool_st[:cap3]
    pool_sst = s.enumerate(carrier_st, bound)
    report.pool_sizes["SST"] = len(pool_sst)
    s_join = _Memo(s.join)
    for w in pool_sst:
        lhs = lam(s.join(w))
        rhs = t.fmap(s_join, lam(s.fmap(lam, w)))
        if lhs != rhs:
            note("mult-s", w, lhs, rhs)
    report.checked["mult-s"] = len(pool_sst)

    # mu-T inside S then lambda versus lambda twice then mu-T outside
    pool_tt = t.enumerate(carrier_t, bound)
    carrier_tt = pool_tt[:cap3]
    pool_stt = s.enumerate(carrier_tt, bound)
    report.pool_sizes["TT"] = len(pool_tt)
    report.pool_sizes["STT"] = len(pool_stt)
    t_join = _Memo(t.join)
    for w in pool_stt:
        lhs = lam(s.fmap(t_join, w))
        rhs = t.join(t.fmap(lam, lam(w)))
        if lhs != rhs:
            note("mult-t", w, lhs, rhs)
    report.checked["mult-t"] = len(pool_stt)

    report.stats["lambda_requested"] = lam.calls
    report.stats["lambda_computed"] = len(lam.cache)
    report.elapsed = time.perf_counter() - start
    return report


def check_times_over_plus_form(law: DistLaw) -> bool:
    """Does the law distribute the outer binary over the inner binary on
    generators, the way a product distributes over a sum?

    Needs a canonical two-element container on both sides; raises
    PairUnsupportedError (encoding unsupported) otherwise.
    """
    s, t, lam = law.s_monad, law.t_monad, law.apply
    y1, y2, x0 = "a", "b", "c"
    lhs1 = lam(s.pair(t.pair(y1, y2), t.unit(x0)))
    rhs1 = t.pair(s.pair(y1, x0), s.pair(y2, x0))
    lhs2 = lam(s.pair(t.unit(x0), t.pair(y1, y2)))
    rhs2 = t.pair(s.pair(x0, y1), s.pair(x0, y2))
    return lhs1 == rhs1 and lhs2 == rhs2


# ---------------------------------------------------------------------------
# composite monad


class _CompositeMonad(FinMonad):
    """The monad T-after-S induced by a distributive law, on T(S(X)) values."""

    def __init__(self, law: DistLaw, s_cap: int = 16):
        self.law = law
        self.s_cap = s_cap
        self.monad_id = f"composite:{law.law_id}"
        self.family = "composite"

    def unit(self, x):
        return self.law.t_monad.unit(self.law.s_monad.unit(x))

    def fmap(self, f, v):
        t, s = self.law.t_monad, self.law.s_monad
        return t.fmap(lambda sv: s.fmap(f, sv), v)

    def join(self, v):
        # T S T S -> T T S S (law inside T) -> T S S (outer mu) -> T S
        t, s, lam = self.law.t_monad, self.law.s_monad, self.law.apply
        return t.fmap(s.join, t.join(t.fmap(lam, v)))

    def size(self, v):
        t, s = self.law.t_monad, self.law.s_monad
        return sum(s.size(sv) for sv in t.members(v))

    def members(self, v):
        return self.law.t_monad.members(v)

    def iter_values(self, carrier, bound) -> Iterator:
        t, s = self.law.t_monad, self.law.s_monad
        inner = list(
            itertools.islice(s.iter_values(carrier, bound), self.s_cap)
        )
        return t.iter_values(inner, bound)


def composite_monad(law: DistLaw, s_cap: int = 16) -> FinMonad:
    return _CompositeMonad(law, s_cap)
