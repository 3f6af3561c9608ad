"""Bounded searches for distributive laws by constraint propagation.

The unknown is a family of maps `lambda_Y: S(T(Y)) -> T(S(Y))` over a small
chain of carriers. Unit conditions force values outright, naturality under
every function between chain carriers propagates them, and the remaining
inputs get domain reasoning: one arc-consistency sweep (`_narrow`; Mackworth,
"Consistency in Networks of Relations", 1977) drops every candidate that an
edge sends outside what its target admits. Explicit domains hold whole
outputs, listed from T(S(C)) under a cap; backtracking then picks one per
input. When T is powerset, member domains hold the S-values an output set
may contain, and the maximal surviving set is tried everywhere. One
naturality test (`_natural`) accepts every table: backtracking tests each
output against every edge between its input and the inputs already filled,
both ways and self-edges included, and the maximal member sets are tested
input by input over all edges. A surviving assignment is only
fragment-consistent, never a proof of existence.

The letters of a value, supp, are the carrier elements it holds: for an
input w in S(T(C)) the members of its S-members, for an output v in
T(S(C)) the members of its T-members. Two facts about them cut the work.

- Restriction: `fmap` reads a map only at a value's members, so S(T f)(w)
  depends only on f restricted to supp(w), and T(S f)(v) only on f
  restricted to supp(v). Maps that agree on supp(w) and supp(v) give w's
  edge the same target and push v to the same image. So each input gets
  one edge per target level and restriction of a chain map to its letters,
  made from the first such map in (target level, map) order, which sends
  every other letter to the target's first letter: a level-4 input over
  two letters has 16 edges into level 4, not 256. Edges drop only exact
  repeats. A forced output with letters outside its input's widens the
  letters to both supports.
- Support lemma: supp(lambda(w)) lies in supp(w) for every lambda natural
  on w's self-edges at level i. If supp(w) is nonempty, let f: Ci -> Ci
  fix supp(w) and send every other letter into it. Then S(T f)(w) = w, so
  lambda(w) = T(S f)(lambda(w)), whose letters lie in the image of f,
  supp(w). If supp(w) is empty and |Ci| >= 2, the constant maps onto two
  letters a and b both fix w, so the letters of lambda(w) lie in {a} and in
  {b}: there are none. A letter-free input on the one-letter carrier has no
  witness (its only self-map is the identity) and keeps the whole carrier.
  The witness is a self-edge of w, so the lemma holds for every
  fragment-consistent table, not only for laws: explicit and member domains
  keep only the values whose letters lie in the input's, in the order of
  their level's space, one shared dict per (level, letters). No refutation
  through them is lost.

`NoLawInFragment` proves that no law restricts to this fragment with its
outputs in the domains; a forced conflict needs no domain. Member domains
list only the S-values of size at most |C| (explicit ones: S-values up to
the bound if larger, T-values up to size |S(C)|), so a refutation through a
domain leaves open a law whose outputs contain longer values, such as lists
with repeated letters.

Naturality pushes the same values through the same maps again and again:
every input through its T values, every output once per edge, key and
arc-consistency sweep. So each map an edge is made from carries memos of
its images for the length of one search (`_MapImages`): of T values, of S
values (which are also the members that set-valued domains transport) and of
outputs, built when the map is first chosen. Edges, propagation and both
kinds of domain reasoning read images through it, so each (map, value)
image is computed once per search.

An input's naturality edges are built the first time propagation pops it or
domain reasoning visits it and kept for the rest of the search. A search
that stops at the result-space cap builds edges only for the inputs
propagation reached; one that reaches domain reasoning visits every input.
The memos are locals of the search and die with it. `SearchResult.stats`
counts the edges built, one per (input, restriction) (`edges`), and the
images requested and computed.

A search stops Inconclusive, naming the cap or check that stopped it, when
a pool passes `MAX_POOL` (`FinMonad.enumerate`), an input's edges would
take the total past `_MAX_EDGES`, a result space passes `_MAX_DOMAIN`, the
fragment holds no input, or the maximal member sets are not exactly
natural.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Optional

from monadlab.monads import FinMonad, PoolTooLargeError, PowersetMonad, monad_for
from monadlab.values import Value, format_value, gc_paused, letters, memo, mk_set

__all__ = [
    "SearchOutcome",
    "LambdaTable",
    "SearchResult",
    "search_distlaw_bounded",
]


class SearchOutcome:
    NO_LAW = "NoLawInFragment"
    CANDIDATES = "Candidates"
    INCONCLUSIVE = "Inconclusive"


class LambdaTable:
    """One fragment assignment: per carrier level, input value to output."""

    def __init__(self, carriers: tuple, entries: dict):
        self.carriers, self.entries = carriers, entries

    def describe(self) -> str:
        shown = 8
        lines = []
        for (level, w), v in sorted(
            self.entries.items(), key=lambda kv: (kv[0][0], _listing_text(kv[0][1]))
        )[:shown]:
            lines.append(
                f"  |X|={len(self.carriers[level])}: "
                f"{format_value(w, explicit_ok=True)} -> "
                f"{format_value(v, explicit_ok=True)}"
            )
        more = len(self.entries) - shown
        if more > 0:
            lines.append(f"  ... {more} more entries")
        return "\n".join(lines)


def _listing_text(v: Value) -> str:
    """The text by which a table lists its inputs within a level: `repr` of
    the value as it was written while distribution weights were `Fraction`s,
    each weight `Fraction(p, q)`, so that tables keep the order they have
    always been printed in."""
    if v.__class__ is not tuple:
        return repr(v)
    if not (v and v[0] == "dist"):
        return _tuple_text([*map(_listing_text, v)])
    total = sum([n for _, n in v[1]])
    entries = []
    for x, n in v[1]:
        g = math.gcd(n, total)
        entries.append(f"({_listing_text(x)}, Fraction({n // g}, {total // g}))")
    return _tuple_text(["'dist'", _tuple_text(entries)])


def _tuple_text(parts: list) -> str:
    """`repr` of a tuple whose items have the texts `parts`."""
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


class SearchResult:
    """Outcome of one bounded law search, with its counts; `table` is the
    fragment-consistent table of a Candidates outcome, else None."""

    def __init__(self, outcome: str, s_id: str, t_id: str, carrier_sizes: tuple, bound: int):
        self.outcome, self.s_id, self.t_id = outcome, s_id, t_id
        self.carrier_sizes, self.bound = carrier_sizes, bound
        self.forced = self.variables = 0
        self.table: Optional[LambdaTable] = None
        self.conflict: Optional[str] = None
        self.elapsed = 0.0
        self.stats: dict = {}

    def describe(self) -> str:
        head = (
            f"{self.s_id} over {self.t_id}, carriers {self.carrier_sizes}, "
            f"bound {self.bound}: {self.outcome}"
        )
        if self.outcome == SearchOutcome.NO_LAW:
            return f"{head}\n  {self.conflict}"
        if self.outcome == SearchOutcome.CANDIDATES:
            # on the one-element carrier alone the only map is the identity
            untested = ""
            if self.carrier_sizes == (1,):
                untested = "; no naturality condition tested"
            return (
                f"{head} (1 fragment-consistent table(s), "
                f"{self.forced}/{self.variables} inputs forced{untested})"
            )
        return f"{head} ({self.conflict})"


# caps checked before materializing: values in an explicit result domain, and
# naturality edges, counted before each input's are built. An edge with its
# share of the map memos costs about 1.1 KB: `powerset powerset --carrier 8`
# peaked at 1,233 MB RSS with 999,810 edges under a cap of 1,000,000, and
# stops at 685 MB with 497,026 under this one, inside a 1 GB address space.
_MAX_DOMAIN = 4096
_MAX_LEVELS = 4  # carriers in the chain
_MAX_CARRIER = 4  # largest carrier size in the chain
_MAX_EDGES = 500_000


class _Conflict(Exception):
    """Naturality leaves some input no output: no law in the fragment."""


class _Inconclusive(Exception):
    """A cap or the maximal-set check stops the search short of a verdict."""


def _pool(m: FinMonad, carrier, bound: int) -> list:
    """`m.enumerate(carrier, bound)`; past the pool cap the search stops."""
    try:
        return m.enumerate(carrier, bound)
    except PoolTooLargeError as exc:
        raise _Inconclusive(str(exc)) from None


def _all_functions(src: tuple, dst: tuple) -> list:
    return [dict(zip(src, img)) for img in itertools.product(dst, repeat=len(src))]


class _MapImages:
    """A map `f` between chain carriers with memos of the images it gives:
    of T values (`t_image`), of S values (`s_image`) and of outputs in
    T(S(X)) (`out`)."""

    def __init__(self, f: dict, s: FinMonad, t: FinMonad):
        self.t_image = memo(lambda tv: t.fmap(f.get, tv))
        # `out` closes over the memo, not `self`, so that no cycle keeps a
        # map's memos alive after its search
        s_image = self.s_image = memo(lambda sv: s.fmap(f.get, sv))
        self.out = memo(lambda v: t.fmap(s_image, v))
        self.memos = (self.t_image, self.s_image, self.out)


@gc_paused
def search_distlaw_bounded(
    s_id: str,
    t_id: str,
    carrier_size: int = 1,
    bound: int = 2,
) -> SearchResult:
    start = time.perf_counter()
    s = monad_for(s_id)
    t = monad_for(t_id)

    # carrier chain: each level is as large as the previous level's T-pool,
    # capped; this is what lets naturality squeeze values between levels
    sizes = [carrier_size]
    while len(sizes) < _MAX_LEVELS:
        level = t.iter_values(letters(sizes[-1]), bound)
        nxt = sum(1 for _ in itertools.islice(level, _MAX_CARRIER))
        if nxt <= sizes[-1]:
            break
        sizes.append(nxt)
    carriers = [letters(n) for n in sizes]

    result = SearchResult(
        SearchOutcome.INCONCLUSIVE,
        s.monad_id,
        t.monad_id,
        tuple(sizes),
        bound,
    )
    result.stats["edges"] = 0
    images: dict = {}
    try:
        result.table = LambdaTable(tuple(carriers), _search(result, s, t, carriers, bound, images))
        result.outcome = SearchOutcome.CANDIDATES
    except _Conflict as exc:
        result.outcome = SearchOutcome.NO_LAW
        result.conflict = str(exc)
    except _Inconclusive as exc:
        result.conflict = str(exc)
    infos = [image.cache_info() for m in images.values() for image in m.memos]
    result.stats["images_requested"] = sum(i.hits + i.misses for i in infos)
    result.stats["images_computed"] = sum(i.misses for i in infos)
    result.elapsed = time.perf_counter() - start
    return result


def _search(
    result: SearchResult, s: FinMonad, t: FinMonad, carriers: list, bound: int, images: dict,
) -> dict:
    """Units, naturality edges, propagation, then domain reasoning; every
    map an edge is made from goes into `images` when first chosen, and
    `result.stats["edges"]` counts the edges as they are built. Returns the
    entries of a fragment-consistent table. Every refutation raises
    `_Conflict` and every other stop `_Inconclusive`, with the reason."""
    t_pools = [_pool(t, C, bound) for C in carriers]
    pools = [_pool(s, t_pool, bound) for t_pool in t_pools]
    pool_index = [set(pool) for pool in pools]
    result.variables = sum(len(p) for p in pools)
    if not result.variables:
        # a table over no input would be a green result that checked nothing
        raise _Inconclusive(f"the fragment holds no input at bound {bound}")

    assigned: dict = {}

    def assign(level: int, w: Value, v: Value, why: str) -> None:
        key = (level, w)
        old = assigned.get(key)
        if old is None:
            assigned[key] = v
            worklist.append(key)
        elif old != v:
            raise _Conflict(
                f"at |X|={len(carriers[level])} the input {format_value(w)} is forced "
                f"to both {format_value(old)} and {format_value(v)} ({why})"
            )

    worklist: list = []

    # unit conditions pin the shapes eta-S(t) and S(eta-T)(s) on the inputs
    # of the fragment (at bound 0 some unit inputs lie outside it)
    for level, C in enumerate(carriers):
        units = [(s.unit(tv), t.fmap(s.unit, tv), "unit-s") for tv in t_pools[level]]
        units += [(s.fmap(t.unit, sv), t.unit(sv), "unit-t") for sv in _pool(s, C, bound)]
        for w, v, why in units:
            if w in pool_index[level]:
                assign(level, w, v, why)

    def out_letters(v: Value) -> frozenset:
        return frozenset(x for sv in t.members(v) for x in s.members(sv))

    def lemma_letters(key) -> frozenset:
        """The letters the support lemma allows in the output at `key`."""
        i, w = key
        found = frozenset(x for tv in s.members(w) for x in t.members(tv))
        return found if found or len(carriers[i]) > 1 else frozenset(carriers[i])

    restrictions: dict = {}
    edges: dict = {}

    def restricted_maps(i: int, among: frozenset) -> list:
        """Per target level, the first map from level i of each restriction
        to the letters `among`, as (map, target level) in (target level,
        map) order: the one that sends every other letter to the target's
        first letter. A map's memos are built when it is first chosen."""
        found = restrictions.get((i, among))
        if found is None:
            Ci = carriers[i]
            found = restrictions[(i, among)] = []
            for j, Cj in enumerate(carriers):
                for part in _all_functions(tuple(x for x in Ci if x in among), Cj):
                    f = {**dict.fromkeys(Ci, Cj[0]), **part}
                    name = (i, j, tuple(f.values()))
                    m = images.get(name)
                    if m is None:
                        m = images[name] = _MapImages(f, s, t)
                    found.append((m, j))
        return found

    def edges_of(key) -> list:
        """The naturality edges of one input, built on first visit unless
        its restrictions would take the edges past the edge cap; a forced
        output with letters outside the input's widens its letters."""
        found = edges.get(key)
        if found is None:
            i, w = key
            among = lemma_letters(key)
            if key in assigned:
                among |= out_letters(assigned[key])
            restricted = sum(len(Cj) ** len(among) for Cj in carriers)
            if result.stats["edges"] + restricted > _MAX_EDGES:
                raise _Inconclusive(f"naturality needs more than {_MAX_EDGES:,} edges (the edge cap)")
            found = edges[key] = []
            for m, j in restricted_maps(i, among):
                w2 = s.fmap(m.t_image, w)
                if w2 in pool_index[j]:
                    found.append((m, j, w2))
            result.stats["edges"] += len(found)
        return found

    # forward propagation to a fixpoint
    while worklist:
        key = worklist.pop()
        v = assigned[key]
        for m, j, w2 in edges_of(key):
            assign(j, w2, m.out(v), "naturality")

    result.forced = len(assigned)
    unknown = [
        (i, w) for i in range(len(carriers)) for w in pools[i]
        if (i, w) not in assigned
    ]

    if not unknown:
        return assigned

    def lemma_domains(spaces: list, value_letters) -> dict:
        """Each unknown input's candidates: the values of its level's space,
        in order, whose letters lie in its lemma letters. Inputs with the
        same level and letters share one dict."""
        lettered = [[(v, value_letters(v)) for v in space] for space in spaces]
        shared: dict = {}
        found = {}
        for key in unknown:
            among = lemma_letters(key)
            d = shared.get((key[0], among))
            if d is None:
                d = shared[(key[0], among)] = {
                    v: None for v, got in lettered[key[0]] if got <= among
                }
            found[key] = d
        return found

    if isinstance(t, PowersetMonad):
        spaces = [_pool(s, C, len(C)) for C in carriers]
        allowed = lemma_domains(spaces, lambda sv: frozenset(s.members(sv)))
        return _member_domains(carriers, assigned, allowed, edges_of)

    # generic explicit domains, complete only when the result space is small
    full_pools = []
    for C in carriers:
        # count lazily: some result spaces do not fit in memory. Every T here
        # has an injective unit and lists unit(y) at any bound >= 1, so
        # |T(S(C))| >= |S(C)|: an S(C) over the cap already puts T(S(C)) over it
        s_full = list(itertools.islice(
            s.iter_values(C, max(bound, len(C))), _MAX_DOMAIN + 1
        ))
        if len(s_full) <= _MAX_DOMAIN:
            t_full = list(itertools.islice(
                t.iter_values(s_full, max(bound, len(s_full))), _MAX_DOMAIN + 1
            ))
        if len(s_full) > _MAX_DOMAIN or len(t_full) > _MAX_DOMAIN:
            raise _Inconclusive(f"result space at |X|={len(C)} has more than {_MAX_DOMAIN} values")
        full_pools.append(t_full)

    return _explicit_domains(carriers, assigned, lemma_domains(full_pools, out_letters), edges_of)


def _narrow(domains: dict, assigned: dict, edges_of, push, admits):
    """Arc consistency (Mackworth 1977): sweep the unknown inputs until a
    sweep drops nothing, dropping each candidate that some edge's map
    (`push(m)`) sends outside what the edge's target admits: its own
    candidates, or `admits` of its forced output. `domains` holds each
    unknown input's candidates as an insertion-ordered dict; a narrowed
    input gets a new dict, so the dicts it starts with may be shared.
    An input is filtered again only if the domain of some edge's target
    (itself, through a self-edge) has shrunk since its last filter: else
    the filter would drop nothing, so the sweeps pass through the same
    domains. Returns the first input left with no candidate, or None."""
    emptied = None
    filtered: dict = {}  # input -> tick of its last filter
    shrunk: dict = {}  # input -> tick its domain last shrank at
    tick = 0
    changed = True
    while changed:
        changed = False
        for key in domains:
            tick += 1
            edges = edges_of(key)
            last = filtered.get(key)
            if last is not None and all(shrunk.get((j, w2), 0) < last for _, j, w2 in edges):
                continue
            filtered[key] = tick
            # per edge, the image map and what its target admits
            rules = []
            for m, j, w2 in edges:
                tgt = assigned.get((j, w2))
                rules.append((push(m), domains[(j, w2)] if tgt is None else admits(tgt)))
            kept = {v: None for v in domains[key] if all(p(v) in ok for p, ok in rules)}
            if len(kept) != len(domains[key]):
                domains[key] = kept
                shrunk[key] = tick
                changed = True
            if not kept and emptied is None:
                emptied = key
    return emptied


def _natural(edges_of, key, table: dict, incoming=()) -> bool:
    """The output `table[key]` agrees with every edge between `key` and an
    input that `table` fills: its own edges, a self-edge among them, and
    the `incoming` edges, as (source input, map) pairs."""
    v = table[key]
    for m, j, w2 in edges_of(key):
        tgt = table.get((j, w2))
        if tgt is not None and m.out(v) != tgt:
            return False
    return all(src not in table or m.out(table[src]) == v for src, m in incoming)


def _explicit_domains(carriers, assigned, domains, edges_of) -> dict:
    """Arc consistency over whole outputs from complete enumerated domains,
    one dict of candidates per unknown input (shared until a sweep narrows
    it), then backtracking."""
    emptied = _narrow(domains, assigned, edges_of, lambda m: m.out, lambda v: (v,))
    if emptied is not None:
        level, w = emptied
        raise _Conflict(
            f"no value remains for input {format_value(w)} at "
            f"|X|={len(carriers[level])} (complete domain emptied)"
        )

    # backtracking over the (small) remaining product space. The path holds
    # one iterator of untried outputs per input on it, not a stack frame:
    # searches reach domain reasoning with over a thousand unknown inputs.
    # Every forced input's edges end at forced inputs, so the edges that
    # reach an unknown input start at unknown ones
    incoming: dict = {key: [] for key in domains}
    for key in domains:
        for m, j, w2 in edges_of(key):
            if (j, w2) in incoming:
                incoming[(j, w2)].append((key, m))
    order = sorted(domains, key=lambda key: len(domains[key]))
    table = dict(assigned)

    def fits(key, v) -> bool:
        table[key] = v
        return _natural(edges_of, key, table, incoming[key])

    untried = [iter(domains[order[0]])]
    while untried:
        key = order[len(untried) - 1]
        if not any(fits(key, v) for v in untried[-1]):
            del table[key]
            untried.pop()
            continue
        if len(untried) == len(order):
            return table
        untried.append(iter(domains[order[len(untried)]]))
    raise _Conflict("complete domains admit no assignment consistent with naturality")


def _member_domains(carriers, assigned, allowed, edges_of) -> dict:
    """Member domains for set-valued outputs, one dict of S-values per
    unknown input. Naturality transports members exactly, so if the
    maximal member set cannot cover some forced target, no subset can,
    which is a conclusive refutation."""
    _narrow(allowed, assigned, edges_of, lambda m: m.s_image, lambda v: set(v[1:]))

    # maximal-set test against forced targets: the image of the largest
    # possible output must still reach every member the target requires
    for key in allowed:
        level, w = key
        for m, j, w2 in edges_of(key):
            tgt = assigned.get((j, w2))
            if tgt is None:
                continue
            image = {m.s_image(A) for A in allowed[key]}
            missing = set(tgt[1:]) - image
            if missing:
                raise _Conflict(
                    f"at |X|={len(carriers[level])} the input "
                    f"{format_value(w)} cannot reach member "
                    f"{format_value(sorted(missing, key=str)[0])} of its "
                    f"forced image {format_value(tgt)} under naturality; "
                    f"allowed members: "
                    f"{[format_value(A) for A in sorted(allowed[key], key=str)]}"
                )

    # try the maximal assignment everywhere and verify all edges exactly
    table = {**assigned, **{key: mk_set(allowed[key]) for key in allowed}}
    if all(_natural(edges_of, key, table) for key in itertools.chain(allowed, assigned)):
        return table
    raise _Inconclusive("maximal member sets are not exactly natural; smaller subsets not explored")
