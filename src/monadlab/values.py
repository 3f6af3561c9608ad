"""Canonical finite-container values and their total order.

Values are nested tagged tuples over string labels: a carrier element is a
plain string, everything structured starts with a tag. Smart constructors
keep every value canonical (sorted set members, merged multiset entries,
pruned trees), so structural equality is semantic equality and values can sit
inside other values as elements.

The constructors of sets and weighted containers put their entries in
`canon_key` order without always computing `canon_key`: zero or one entry
needs no sort, and entries that are all labels sort natively, since
`canon_key` of a label is (0, label). Any other entries sort by their
top-level key through a bounded LRU store (`_KEY_CACHE_SIZE` values), so
the sub-values that recur inside one computation are keyed once while they
stay in use, and the store never grows past its size.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "Value",
    "canon_key",
    "letters",
    "mk_list",
    "mk_mset",
    "mk_set",
    "mk_dist",
    "mk_grp",
    "mk_bleaf",
    "mk_bnode",
    "mk_nunit",
    "mk_nleaf",
    "mk_nnode",
    "mk_ok",
    "mk_err",
    "mk_bot",
    "mk_fun",
    "format_value",
]

Value = Union[str, tuple]

# multiplicity-style tags order their entries label-ascending and, when the
# values themselves are compared, count-descending; that convention is what
# puts {a:2} before {a:1,b:1} before {b:2}
_WEIGHTED_TAGS = ("mset", "dist", "grp")


def canon_key(v: Value):
    """Total order key over nested values (labels, containers, weights)."""
    # exact-class tests first: Fraction's metaclass is ABCMeta, which makes
    # isinstance against it slow on this hot path
    cls = v.__class__
    if cls is str:
        return (0, v)
    if cls is not tuple:
        if isinstance(v, str):
            return (0, v)
        if isinstance(v, (int, Fraction)):
            return (1, v)
    if v and v[0] in _WEIGHTED_TAGS:
        inner = ((0, v[0]),) + tuple((canon_key(x), -n) for x, n in v[1])
        return (2, inner)
    return (2, tuple(canon_key(x) for x in v))


# values whose sort key is kept; the nine positive-law Beck replays at
# carrier 2 sort fewer than a thousand distinct non-label elements between
# them, each about a hundred times
_KEY_CACHE_SIZE = 4096
_cached_key = functools.lru_cache(maxsize=_KEY_CACHE_SIZE)(canon_key)


def _canonical_order(xs) -> list:
    """The distinct values `xs` in `canon_key` order."""
    if len(xs) <= 1:
        return list(xs)
    if all(isinstance(x, str) for x in xs):
        return sorted(xs)
    return sorted(xs, key=_cached_key)


def letters(n: int) -> tuple:
    """The carrier {a, b, ...} of size n, for n in 1..10."""
    if not 1 <= n <= 10:
        raise ValueError(f"carrier size must be in 1..10, got {n}")
    return tuple("abcdefghij"[:n])


# ---------------------------------------------------------------------------
# constructors


def mk_list(items: Iterable[Value]) -> Value:
    return ("list",) + tuple(items)


def mk_mset(items: Iterable[Value] = (), entries: Iterable[tuple] = ()) -> Value:
    """Multiset from element occurrences and/or (element, count) entries."""
    counts: dict = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    for x, n in entries:
        counts[x] = counts.get(x, 0) + n
    for x, n in counts.items():
        if n < 0:
            raise ValueError(f"negative multiplicity for {x!r}")
    merged = tuple((x, counts[x]) for x in _canonical_order(counts) if counts[x] != 0)
    return ("mset", merged)


def mk_set(items: Iterable[Value]) -> Value:
    distinct = {x: None for x in items}
    return ("set",) + tuple(_canonical_order(distinct))


def mk_dist(entries: Iterable[tuple]) -> Value:
    weights: dict = {}
    for x, w in entries:
        weights[x] = weights.get(x, Fraction(0)) + Fraction(w)
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise ValueError(f"distribution weights sum to {total}, not 1")
    if any(w < 0 for w in weights.values()):
        raise ValueError("negative weight in distribution")
    merged = tuple(
        (x, weights[x]) for x in _canonical_order(weights) if weights[x] != 0
    )
    return ("dist", merged)


def mk_grp(entries: Iterable[tuple]) -> Value:
    coeffs: dict = {}
    for x, c in entries:
        coeffs[x] = coeffs.get(x, 0) + c
    merged = tuple((x, coeffs[x]) for x in _canonical_order(coeffs) if coeffs[x] != 0)
    return ("grp", merged)


def mk_bleaf(x: Value) -> Value:
    return ("bleaf", x)


def mk_bnode(left: Value, right: Value) -> Value:
    return ("bnode", left, right)


def mk_nunit() -> Value:
    return ("nunit",)


def mk_nleaf(x: Value) -> Value:
    return ("nleaf", x)


def mk_nnode(children: Sequence[Value]) -> Value:
    """n-ary node, pruned: with at most one non-unit child it IS that child
    (or the unit), matching the algebra where units cancel positionally."""
    proper = [c for c in children if c != ("nunit",)]
    if not proper:
        return ("nunit",)
    if len(proper) == 1:
        return proper[0]
    return ("nnode",) + tuple(children)


def mk_ok(x: Value) -> Value:
    return ("ok", x)


def mk_err(label: str) -> Value:
    return ("err", label)


def mk_bot() -> Value:
    return ("bot",)


def mk_fun(at0: Value, at1: Value) -> Value:
    """Reader value over a two-point environment, as its table of outputs."""
    return ("fun", at0, at1)


# ---------------------------------------------------------------------------
# display


def format_value(v: Value, explicit_ok: bool = False) -> str:
    """Render a value in the surface syntax the CLI also parses.

    Lists are [a,b], sets {a,b}, weighted containers {a:1,b:2} (with p/q
    weights for distributions), trees <l,r> with e for the unit leaf,
    exceptions err(label) with ok values written transparently, bottom is
    bot, reader tables are (at0,at1). `explicit_ok` wraps ok payloads as
    ok(...) so nested exceptional layers stay distinguishable.
    """

    def go(v):
        if isinstance(v, str):
            return v
        tag = v[0]
        if tag == "list":
            return "[" + ",".join(go(x) for x in v[1:]) + "]"
        if tag == "set":
            return "{" + ",".join(go(x) for x in v[1:]) + "}"
        if tag in ("mset", "grp"):
            return "{" + ",".join(f"{go(x)}:{n}" for x, n in v[1]) + "}"
        if tag == "dist":
            return "{" + ",".join(f"{go(x)}:{w}" for x, w in v[1]) + "}"
        if tag == "bleaf":
            return go(v[1])
        if tag == "bnode":
            return f"<{go(v[1])},{go(v[2])}>"
        if tag == "nunit":
            return "e"
        if tag == "nleaf":
            return go(v[1])
        if tag == "nnode":
            return "<" + ",".join(go(c) for c in v[1:]) + ">"
        if tag == "ok":
            return f"ok({go(v[1])})" if explicit_ok else go(v[1])
        if tag == "err":
            return f"err({v[1]})"
        if tag == "bot":
            return "bot"
        if tag == "fun":
            return f"({go(v[1])},{go(v[2])})"
        raise ValueError(f"unknown value tag {tag!r}")

    return go(v)
