"""Bounded searches for distributive laws by constraint propagation.

The unknown is a family of maps `lambda_Y: S(T(Y)) -> T(S(Y))` over a small
chain of carriers. Unit conditions force values outright, naturality under
every function between chain carriers propagates them, and the remaining
inputs get domain reasoning. An empty domain is conclusive: any distributive
law restricts to an assignment in this fragment, so none can exist. A
surviving assignment is only fragment-consistent, never a proof of existence.

Naturality pushes the same values through the same maps again and again:
every input through its T values, every output once per edge, key and
arc-consistency sweep. So each map between chain carriers carries memos of
its images for the length of one search (`_MapImages`): of T values, of S
values (which are also the members that set-valued domains transport) and of
outputs. Edges, propagation and both kinds of domain reasoning read images
through it, so each (map, value) image is computed once per search. Inputs
are not memoized: every (map, input) pair is pushed exactly once. The memos
are locals of the search and die with it; `SearchResult.stats` counts the
maps, the (map, input) pairs examined, the edges kept, and the images
requested and computed.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

from monadlab.monads import FinMonad, PowersetMonad, monad_for
from monadlab.values import Value, format_value, letters, memo, mk_set

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

    def at(self, level: int, w: Value) -> Value:
        return self.entries[(level, w)]

    def describe(self, limit: int = 8) -> str:
        lines = []
        for (level, w), v in sorted(
            self.entries.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        )[:limit]:
            lines.append(
                f"  |X|={len(self.carriers[level])}: "
                f"{format_value(w, explicit_ok=True)} -> "
                f"{format_value(v, explicit_ok=True)}"
            )
        more = len(self.entries) - limit
        if more > 0:
            lines.append(f"  ... {more} more entries")
        return "\n".join(lines)


class SearchResult:
    """Outcome of one bounded law search, with its counts."""

    def __init__(self, outcome: str, s_id: str, t_id: str, carrier_sizes: tuple, bound: int):
        self.outcome, self.s_id, self.t_id = outcome, s_id, t_id
        self.carrier_sizes, self.bound = carrier_sizes, bound
        self.forced = self.variables = 0
        self.candidates: list = []
        self.conflict: Optional[str] = None
        self.elapsed = 0.0
        self.stats: dict = {}

    @property
    def conclusive(self) -> bool:
        return self.outcome == SearchOutcome.NO_LAW

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
                f"{head} ({len(self.candidates)} fragment-consistent table(s), "
                f"{self.forced}/{self.variables} inputs forced{untested})"
            )
        return f"{head} ({self.conflict or 'domains too large to decide'})"


# caps checked before materializing: values in an explicit result domain, and
# the (map between chain carriers, input) pairs naturality edges are built
# from. Edges took 250-650 bytes per pair (2.2M pairs needed 1.4 GB), so the
# cap keeps them under about 650 MB; lift over lift at carrier 6 has 373,248.
_MAX_DOMAIN = 4096
_MAX_LEVELS = 4  # carriers in the chain
_MAX_CARRIER = 4  # largest carrier size in the chain
_MAX_EDGE_CHECKS = 1_000_000


class _Conflict(Exception):
    """Naturality leaves some input no output: no law in the fragment."""


def _all_functions(src: tuple, dst: tuple) -> list:
    return [dict(zip(src, img)) for img in itertools.product(dst, repeat=len(src))]


class _MapImages:
    """A map `f` between chain carriers with memos of the images it gives:
    of T values (`t_image`), of S values (`s_image`) and of outputs in
    T(S(X)) (`out`)."""

    def __init__(self, f: dict, s: FinMonad, t: FinMonad):
        self.t_image = memo(lambda tv: t.fmap(f.get, tv))
        self.s_image = memo(lambda sv: s.fmap(f.get, sv))
        self.out = memo(lambda v: t.fmap(self.s_image, v))
        self.memos = (self.t_image, self.s_image, self.out)


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
        nxt = min(len(t.enumerate(letters(sizes[-1]), bound)), _MAX_CARRIER)
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
    result.stats = dict.fromkeys(("maps", "pairs", "edges"), 0)
    images: list = []
    try:
        _search(result, s, t, carriers, bound, images)
    except _Conflict as exc:
        result.outcome = SearchOutcome.NO_LAW
        result.conflict = str(exc)
    infos = [image.cache_info() for m in images for image in m.memos]
    result.stats["images_requested"] = sum(i.hits + i.misses for i in infos)
    result.stats["images_computed"] = sum(i.misses for i in infos)
    result.elapsed = time.perf_counter() - start
    return result


def _search(
    result: SearchResult, s: FinMonad, t: FinMonad, carriers: list, bound: int,
    images: list,
) -> SearchResult:
    """Units, naturality edges, propagation, then domain reasoning; every
    map between chain carriers built on the way is appended to `images`.
    Every refutation raises `_Conflict` with the reason."""
    pools: list = []
    pool_index: list = []
    for C in carriers:
        pool = s.enumerate(t.enumerate(C, bound), bound)
        pools.append(pool)
        pool_index.append(set(pool))
    result.variables = sum(len(p) for p in pools)
    if not result.variables:
        # a table over no input would be a green result that checked nothing
        result.conflict = f"the fragment holds no input at bound {bound}"
        return result

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
        units = [(s.unit(tv), t.fmap(s.unit, tv), "unit-s") for tv in t.enumerate(C, bound)]
        units += [(s.fmap(t.unit, sv), t.unit(sv), "unit-t") for sv in s.enumerate(C, bound)]
        for w, v, why in units:
            if w in pool_index[level]:
                assign(level, w, v, why)

    # naturality edges between every pair of chain carriers
    maps = sum(len(Cj) ** len(Ci) for Ci in carriers for Cj in carriers)
    checks = sum(
        len(Cj) ** len(Ci) * len(pools[i])
        for i, Ci in enumerate(carriers) for Cj in carriers
    )
    if checks > _MAX_EDGE_CHECKS:
        result.conflict = (
            f"naturality needs {checks} (map, input) pairs over {maps} maps "
            f"between carriers, more than {_MAX_EDGE_CHECKS}"
        )
        return result
    result.stats.update(maps=maps, pairs=checks)
    edges: dict = {}
    for i, Ci in enumerate(carriers):
        for j, Cj in enumerate(carriers):
            for f in _all_functions(Ci, Cj):
                m = _MapImages(f, s, t)
                images.append(m)
                for w in pools[i]:
                    w2 = s.fmap(m.t_image, w)
                    if w2 in pool_index[j]:
                        edges.setdefault((i, w), []).append((m, j, w2))
    result.stats["edges"] = sum(len(e) for e in edges.values())

    # forward propagation to a fixpoint
    while worklist:
        key = worklist.pop()
        level, w = key
        v = assigned[key]
        for m, j, w2 in edges.get(key, ()):
            assign(j, w2, m.out(v), "naturality")

    result.forced = len(assigned)
    unknown = [
        (i, w) for i in range(len(carriers)) for w in pools[i]
        if (i, w) not in assigned
    ]

    if not unknown:
        table = LambdaTable(tuple(carriers), dict(assigned))
        result.outcome = SearchOutcome.CANDIDATES
        result.candidates = [table]
        return result

    if isinstance(t, PowersetMonad):
        return _powerset_domains(result, s, carriers, assigned, unknown, edges)

    # generic explicit domains, complete only when the result space is small
    full_pools = []
    for C in carriers:
        s_full = s.enumerate(C, max(bound, len(C)))
        # count lazily: some result spaces do not fit in memory
        t_full = list(itertools.islice(
            t.iter_values(s_full, max(bound, len(s_full))), _MAX_DOMAIN + 1
        ))
        if len(t_full) > _MAX_DOMAIN:
            result.conflict = (
                f"result space at |X|={len(C)} has more than "
                f"{_MAX_DOMAIN} values"
            )
            return result
        full_pools.append(t_full)

    return _explicit_domains(result, carriers, assigned, unknown, edges, full_pools)


def _explicit_domains(result, carriers, assigned, unknown, edges, full_pools):
    """Arc consistency over complete enumerated domains, then backtracking.
    Each domain is an ordered list with its set of members beside it; a
    level's full pool is shared until a sweep narrows a key's domain."""
    domains = {key: full_pools[key[0]] for key in unknown}
    pool_sets = [set(pool) for pool in full_pools]
    members = {key: pool_sets[key[0]] for key in unknown}

    changed = True
    while changed:
        changed = False
        for key in unknown:
            level, w = key
            # per edge, the image map and the images its target admits
            rules = []
            for m, j, w2 in edges.get(key, ()):
                tgt = assigned.get((j, w2))
                rules.append((m.out, members[(j, w2)] if tgt is None else {tgt}))
            kept = [
                v for v in domains[key]
                if all(push(v) in admitted for push, admitted in rules)
            ]
            if len(kept) != len(domains[key]):
                domains[key] = kept
                members[key] = set(kept)
                changed = True
            if not kept:
                raise _Conflict(
                    f"no value remains for input {format_value(w)} at "
                    f"|X|={len(carriers[level])} (complete domain emptied)"
                )

    # backtracking over the (small) remaining product space
    order = sorted(unknown, key=lambda key: len(domains[key]))
    solution: dict = {}

    def consistent(key, v) -> bool:
        for m, j, w2 in edges.get(key, ()):
            tgt = assigned.get((j, w2), solution.get((j, w2)))
            if tgt is not None and m.out(v) != tgt:
                return False
        return True

    def dfs(idx: int) -> bool:
        if idx == len(order):
            return True
        key = order[idx]
        for v in domains[key]:
            if consistent(key, v):
                solution[key] = v
                if dfs(idx + 1):
                    return True
                del solution[key]
        return False

    if not dfs(0):
        raise _Conflict("complete domains admit no assignment consistent with naturality")
    table = LambdaTable(tuple(carriers), {**assigned, **solution})
    result.outcome = SearchOutcome.CANDIDATES
    result.candidates = [table]
    return result


def _powerset_domains(result, s, carriers, assigned, unknown, edges):
    """Domains for set-valued outputs, represented by their allowed members.

    An output is a set of S-structures; naturality transports members
    exactly, so a member is allowed only if every edge sends it into an
    allowed (or present) member on the other side. If the maximal member set
    cannot cover some forced target, no subset can, which is a conclusive
    refutation.
    """
    # one member space per level, shared until a sweep narrows a key's set
    member_space = [set(s.enumerate(C, len(C))) for C in carriers]
    allowed = {key: member_space[key[0]] for key in unknown}

    changed = True
    while changed:
        changed = False
        for key in unknown:
            # per edge, the member map and the members its target admits
            rules = []
            for m, j, w2 in edges.get(key, ()):
                tgt = assigned.get((j, w2))
                rules.append(
                    (m.s_image, allowed[(j, w2)] if tgt is None else set(tgt[1:]))
                )
            kept = {
                A for A in allowed[key]
                if all(push(A) in admitted for push, admitted in rules)
            }
            if kept != allowed[key]:
                allowed[key] = kept
                changed = True

    # maximal-set test against forced targets: the image of the largest
    # possible output must still reach every member the target requires
    for key in unknown:
        level, w = key
        for m, j, w2 in edges.get(key, ()):
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
    candidate = {key: mk_set(allowed[key]) for key in unknown}
    full = {**assigned, **candidate}
    for key in list(unknown) + list(assigned):
        level, w = key
        v = full[key]
        for m, j, w2 in edges.get(key, ()):
            img = mk_set(m.s_image(A) for A in v[1:])
            if img != full[(j, w2)]:
                result.conflict = (
                    "maximal member sets are not exactly natural; "
                    "smaller subsets not explored"
                )
                return result

    table = LambdaTable(tuple(carriers), full)
    result.outcome = SearchOutcome.CANDIDATES
    result.candidates = [table]
    return result
