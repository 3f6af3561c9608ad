"""Bounded searches for distributive laws by constraint propagation.

The unknown is a family of maps `lambda_Y: S(T(Y)) -> T(S(Y))` over a small
chain of carriers. Unit conditions force values outright, naturality under
every function between chain carriers propagates them, and the remaining
inputs get domain reasoning. An empty domain is conclusive: any distributive
law restricts to an assignment in this fragment, so none can exist. A
surviving assignment is only fragment-consistent, never a proof of existence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from monadlab.monads import FinMonad, monad_for
from monadlab.values import Value, format_value, letters

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


@dataclass
class LambdaTable:
    """One fragment assignment: per carrier level, input value to output."""

    carriers: tuple
    entries: dict = field(default_factory=dict)

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


@dataclass
class SearchResult:
    outcome: str
    s_id: str
    t_id: str
    carrier_sizes: tuple
    bound: int
    forced: int = 0
    variables: int = 0
    candidates: list = field(default_factory=list)
    conflict: Optional[str] = None

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
            return (
                f"{head} ({len(self.candidates)} fragment-consistent table(s), "
                f"{self.forced}/{self.variables} inputs forced)"
            )
        return f"{head} ({self.conflict or 'domains too large to decide'})"


def _all_functions(src: tuple, dst: tuple) -> list:
    return [dict(zip(src, img)) for img in itertools.product(dst, repeat=len(src))]


def search_distlaw_bounded(
    s_id: str,
    t_id: str,
    carrier_size: int = 1,
    bound: int = 2,
    max_levels: int = 4,
    max_carrier: int = 4,
) -> SearchResult:
    s = monad_for(s_id)
    t = monad_for(t_id)

    # carrier chain: each level is as large as the previous level's T-pool,
    # capped; this is what lets naturality squeeze values between levels
    sizes = [carrier_size]
    while len(sizes) < max_levels:
        nxt = min(len(t.enumerate(letters(sizes[-1]), bound)), max_carrier)
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

    pools: list = []
    pool_index: list = []
    for C in carriers:
        pool = s.enumerate(t.enumerate(C, bound), bound)
        pools.append(pool)
        pool_index.append(set(pool))
    result.variables = sum(len(p) for p in pools)

    def push_in(f: dict, w: Value) -> Value:
        return s.fmap(lambda tv: t.fmap(f.get, tv), w)

    def push_out(f: dict, v: Value) -> Value:
        return t.fmap(lambda sv: s.fmap(f.get, sv), v)

    assigned: dict = {}

    def assign(level: int, w: Value, v: Value, why: str) -> Optional[str]:
        key = (level, w)
        old = assigned.get(key)
        if old is None:
            assigned[key] = v
            worklist.append(key)
            return None
        if old != v:
            return (
                f"at |X|={sizes[level]} the input {format_value(w)} is forced "
                f"to both {format_value(old)} and {format_value(v)} ({why})"
            )
        return None

    worklist: list = []

    # unit conditions pin the shapes eta-S(t) and S(eta-T)(s)
    for level, C in enumerate(carriers):
        for tv in t.enumerate(C, bound):
            err = assign(level, s.unit(tv), t.fmap(s.unit, tv), "unit-s")
            if err:
                result.outcome = SearchOutcome.NO_LAW
                result.conflict = err
                return result
        for sv in s.enumerate(C, bound):
            err = assign(level, s.fmap(t.unit, sv), t.unit(sv), "unit-t")
            if err:
                result.outcome = SearchOutcome.NO_LAW
                result.conflict = err
                return result

    # naturality edges between every pair of chain carriers
    edges: dict = {}
    for i, Ci in enumerate(carriers):
        for j, Cj in enumerate(carriers):
            for f in _all_functions(Ci, Cj):
                for w in pools[i]:
                    w2 = push_in(f, w)
                    if w2 in pool_index[j]:
                        edges.setdefault((i, w), []).append((f, j, w2))

    # forward propagation to a fixpoint
    while worklist:
        key = worklist.pop()
        level, w = key
        v = assigned[key]
        for f, j, w2 in edges.get(key, ()):
            err = assign(j, w2, push_out(f, v), "naturality")
            if err:
                result.outcome = SearchOutcome.NO_LAW
                result.conflict = err
                return result

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

    if t.monad_id == "powerset":
        return _powerset_domains(
            result, s, t, carriers, assigned, unknown, edges, push_in
        )

    # generic explicit domains, complete only when the result space is small
    full_pools = []
    for C in carriers:
        s_full = s.enumerate(C, max(bound, len(C)))
        t_full = t.enumerate(s_full, max(bound, len(s_full)))
        if len(t_full) > 4096:
            result.conflict = (
                f"result space at |X|={len(C)} has {len(t_full)} values"
            )
            return result
        full_pools.append(t_full)

    return _explicit_domains(
        result, s, t, carriers, assigned, unknown, edges, full_pools, push_out
    )


def _explicit_domains(
    result, s, t, carriers, assigned, unknown, edges, full_pools, push_out
):
    """Arc consistency over complete enumerated domains, then backtracking."""
    domains = {key: list(full_pools[key[0]]) for key in unknown}

    changed = True
    while changed:
        changed = False
        for key in unknown:
            level, w = key
            kept = []
            for v in domains[key]:
                ok = True
                for f, j, w2 in edges.get(key, ()):
                    img = push_out(f, v)
                    tgt = assigned.get((j, w2))
                    if tgt is not None:
                        if img != tgt:
                            ok = False
                            break
                    elif (j, w2) in domains and img not in set(domains[(j, w2)]):
                        ok = False
                        break
                if ok:
                    kept.append(v)
            if len(kept) != len(domains[key]):
                domains[key] = kept
                changed = True
            if not kept:
                result.outcome = SearchOutcome.NO_LAW
                result.conflict = (
                    f"no value remains for input {format_value(w)} at "
                    f"|X|={len(carriers[level])} (complete domain emptied)"
                )
                return result

    # backtracking over the (small) remaining product space
    order = sorted(unknown, key=lambda key: len(domains[key]))
    solution: dict = {}

    def consistent(key, v) -> bool:
        for f, j, w2 in edges.get(key, ()):
            tgt = assigned.get((j, w2), solution.get((j, w2)))
            if tgt is not None and push_out(f, v) != tgt:
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

    if dfs(0):
        table = LambdaTable(tuple(carriers), {**assigned, **solution})
        result.outcome = SearchOutcome.CANDIDATES
        result.candidates = [table]
    else:
        result.outcome = SearchOutcome.NO_LAW
        result.conflict = (
            "complete domains admit no assignment consistent with naturality"
        )
    return result


def _powerset_domains(
    result, s, t, carriers, assigned, unknown, edges, push_in
):
    """Domains for set-valued outputs, represented by their allowed members.

    An output is a set of S-structures; naturality transports members
    exactly, so a member is allowed only if every edge sends it into an
    allowed (or present) member on the other side. If the maximal member set
    cannot cover some forced target, no subset can, which is a conclusive
    refutation.
    """
    member_space = {
        i: s.enumerate(C, len(C)) for i, C in enumerate(carriers)
    }
    allowed = {key: set(member_space[key[0]]) for key in unknown}

    def member_push(f, A):
        return s.fmap(f.get, A)

    changed = True
    while changed:
        changed = False
        for key in unknown:
            level, w = key
            kept = set()
            for A in allowed[key]:
                ok = True
                for f, j, w2 in edges.get(key, ()):
                    img = member_push(f, A)
                    tgt = assigned.get((j, w2))
                    if tgt is not None:
                        if img not in set(tgt[1:]):
                            ok = False
                            break
                    elif (j, w2) in allowed and img not in allowed[(j, w2)]:
                        ok = False
                        break
                if ok:
                    kept.add(A)
            if kept != allowed[key]:
                allowed[key] = kept
                changed = True

    # maximal-set test against forced targets: the image of the largest
    # possible output must still reach every member the target requires
    from monadlab.values import mk_set

    for key in unknown:
        level, w = key
        for f, j, w2 in edges.get(key, ()):
            tgt = assigned.get((j, w2))
            if tgt is None:
                continue
            image = {member_push(f, A) for A in allowed[key]}
            missing = set(tgt[1:]) - image
            if missing:
                result.outcome = SearchOutcome.NO_LAW
                result.conflict = (
                    f"at |X|={len(carriers[level])} the input "
                    f"{format_value(w)} cannot reach member "
                    f"{format_value(sorted(missing, key=str)[0])} of its "
                    f"forced image {format_value(tgt)} under naturality; "
                    f"allowed members: "
                    f"{[format_value(A) for A in sorted(allowed[key], key=str)]}"
                )
                return result

    # try the maximal assignment everywhere and verify all edges exactly
    candidate = {key: mk_set(allowed[key]) for key in unknown}
    full = {**assigned, **candidate}
    for key in list(unknown) + list(assigned):
        level, w = key
        v = full[key]
        for f, j, w2 in edges.get(key, ()):
            img = mk_set(member_push(f, A) for A in v[1:])
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
