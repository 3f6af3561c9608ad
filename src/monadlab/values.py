"""Canonical finite-container values and their total order.

Values are nested tagged tuples over string labels: a carrier element is a
plain string, everything structured starts with a tag. Smart constructors
keep every value canonical (sorted set members, merged multiset entries,
pruned trees), so structural equality is semantic equality and values can sit
inside other values as elements. Trees of every width, the unitless binary
trees included, are `nleaf`/`nnode` values, with `nunit` for the unit leaf of
the tree monads that have one.

The constructors of sets and weighted containers put their entries in
`canon_key` order without always computing `canon_key`: zero or one entry
needs no sort, and entries that are all labels (a test made in C over their
types) sort natively, since `canon_key` of a label is (0, label). Any other
entries sort by their top-level key through a bounded LRU store
(`_KEY_CACHE_SIZE` values). A flattening monad's `bind` sorts once, over
every entry of the flattened value. Before that sort it holds an unordered
form, the element -> weight dict with zero weights dropped (multiset, dist,
abgroup) or the member set (powerset); a check that only compares values
compares those and sorts nothing (`monads.LawReport.compare`).

Some values are built canonical and skip the constructors. The choice laws
of `distlaws` over a list or tree S give T combinations of picks that all
share one shape, so distinct picks differ at some position and no merge is
needed. Product order over positions whose entries are in `canon_key` order
is lexicographic over the leaves, which is `canon_key` order for values of
one shape, so no sort is needed either (`monads.FinMonad`).

`memo(f)` is an unbounded `functools.lru_cache` of `f` for the life of one
call (a Beck check, a law search): a repeated input is answered in C, and
`cache_info()` counts inputs asked for (hits + misses) and computed (misses).
`distlaws.check_beck` also holds the law's results on its ST pool by
input, in a dict that its naturality renames read, and a rename of the
carrier that merges no letters passes by the law memo altogether. Every
monad here preserves injective maps, so such a rename sends distinct Beck
inputs to distinct ones: a renamed input outside the pool is asked for once
in its pass, and has its law result computed and not kept. A choice law
keeps one more store, inside its application and so under the law memo's
counts: each position's picks and weights, by the T value (or tree leaf)
at that position. That store lives with the law, not the call, and is
bounded by the distinct position values the law meets, a few dozen in a
Beck check at carrier 2 (`monads.FinMonad`).

The compute entry points (Beck and monad-law checks, free-model checks, law
search, the Plotkin replay, the Boom table) run with Python's cyclic
garbage collector paused (`gc_paused`): values are trees of tuples over
labels and weights, and neither they nor the dicts and sets a check builds
from them form reference cycles, so reference counting frees what a check
allocates and the collector's rescans of its short-lived tuples are pure
cost.

Distribution weights are exact `fractions.Fraction`s. `fractions` (with the
`decimal` and `numbers` it imports) is loaded by the code that makes a
weight, `mk_dist` here, not at import: a process that builds no
distribution never loads it.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Iterable, Sequence, Union

__all__ = [
    "Value",
    "memo",
    "gc_paused",
    "canon_key",
    "letters",
    "mk_list",
    "mk_mset",
    "mk_set",
    "mk_dist",
    "mk_grp",
    "weighted_value",
    "mk_nunit",
    "mk_nleaf",
    "mk_nnode",
    "mk_ok",
    "mk_err",
    "mk_bot",
    "mk_fun",
    "format_value",
    "quote",
]

Value = Union[str, tuple]

# multiplicity-style tags order their entries label-ascending and, when the
# values themselves are compared, count-descending; that convention is what
# puts {a:2} before {a:1,b:1} before {b:2}
_WEIGHTED_TAGS = ("mset", "dist", "grp")


def canon_key(v: Value):
    """Total order key over nested values (labels, containers, weights).
    Any other atom, `None` or a float, raises TypeError."""
    # exact-class tests first: Fraction's metaclass is ABCMeta, which makes
    # isinstance against it slow on this hot path
    cls = v.__class__
    if cls is str:
        return (0, v)
    if cls is not tuple:
        if isinstance(v, str):
            return (0, v)
        if isinstance(v, int):
            return (1, v)
        # a Fraction exists only once `fractions` is loaded
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(v, fractions.Fraction):
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
    if {*map(type, xs)} == {str}:
        return sorted(xs)
    return sorted(xs, key=_cached_key)


def memo(f: Callable[[Value], Value]) -> Callable[[Value], Value]:
    """`f` computed once per distinct input for as long as the wrapper lives."""
    return functools.lru_cache(maxsize=None)(f)


def gc_paused(f: Callable) -> Callable:
    """`f` run with Python's cyclic garbage collector off, and turned back on
    when it returns or raises.

    The premise is that `f` makes no reference cycles, so reference counting
    alone frees what it allocates. When the collector is already off, as in
    a paused call nested in another or under a caller who turned it off, the
    call leaves it off. The collector's state belongs to the process, not
    the thread: other threads run with it off while a paused call is in
    progress, and a paused call that ends turns it back on for all of them.
    """

    @functools.wraps(f)
    def paused(*args, **kwargs):
        # imported here, so that importing monadlab loads no module beyond
        # the interpreter's startup set
        import gc

        if not gc.isenabled():
            return f(*args, **kwargs)
        gc.disable()
        try:
            return f(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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
    return weighted_value("mset", counts)


def mk_set(items: Iterable[Value]) -> Value:
    distinct = {x: None for x in items}
    return ("set",) + tuple(_canonical_order(distinct))


def mk_dist(entries: Iterable[tuple]) -> Value:
    from fractions import Fraction

    weights: dict = {}
    for x, w in entries:
        weights[x] = weights.get(x, Fraction(0)) + Fraction(w)
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise ValueError(f"distribution weights sum to {quote(str(total), str)}, not 1")
    if any(w < 0 for w in weights.values()):
        raise ValueError("negative weight in distribution")
    return weighted_value("dist", weights)


def mk_grp(entries: Iterable[tuple]) -> Value:
    coeffs: dict = {}
    for x, c in entries:
        coeffs[x] = coeffs.get(x, 0) + c
    return weighted_value("grp", coeffs)


def weighted_value(tag: str, weights: dict) -> Value:
    """The `tag` combination of the nonzero entries of the element -> weight
    dict `weights`, in `canon_key` order. It checks nothing: the
    constructors above validate first, and the `fmap` and `bind` of valid
    multisets and abgroup values give valid ones."""
    return (tag, tuple((x, weights[x]) for x in _canonical_order(weights) if weights[x]))


def mk_nunit() -> Value:
    return ("nunit",)


def mk_nleaf(x: Value) -> Value:
    return ("nleaf", x)


def mk_nnode(children: Sequence[Value]) -> Value:
    """n-ary node, pruned: with at most one non-unit child it IS that child
    (or the unit), matching the algebra where units cancel positionally."""
    proper = len(children) - children.count(("nunit",))
    if proper >= 2:
        return ("nnode", *children)
    if proper == 0:
        return ("nunit",)
    return next(c for c in children if c != ("nunit",))


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

# the characters of outside input that an error message quotes
_QUOTED = 32


def quote(text: str, show: Callable[[str], str] = repr) -> str:
    """`show` of at most `_QUOTED` characters of `text`, for an error
    message that echoes outside input; `...` after it marks a cut."""
    if len(text) <= _QUOTED:
        return show(text)
    return show(text[:_QUOTED]) + "..."


def format_value(v: Value, explicit_ok: bool = False) -> str:
    """Render a value in the surface syntax the CLI also parses.

    Lists are [a,b], sets {a,b}, weighted containers {a:1,b:2} (with p/q
    weights for distributions), trees <c1,...,cn> with e for the unit leaf,
    exceptions err(label) with ok values written transparently, bottom is
    bot, reader tables are (at0,at1). An ok payload is written ok(...)
    under `explicit_ok`, or when its text would read as its layer's own
    value (ok(...), err(...), bot).
    """
    if isinstance(v, str):
        return v
    tag = v[0]
    if tag == "list":
        return "[" + ",".join(format_value(x, explicit_ok) for x in v[1:]) + "]"
    if tag == "set":
        return "{" + ",".join(format_value(x, explicit_ok) for x in v[1:]) + "}"
    if tag in _WEIGHTED_TAGS:
        return "{" + ",".join(f"{format_value(x, explicit_ok)}:{w}" for x, w in v[1]) + "}"
    if tag == "nunit":
        return "e"
    if tag == "nleaf":
        return format_value(v[1], explicit_ok)
    if tag == "nnode":
        return "<" + ",".join(format_value(c, explicit_ok) for c in v[1:]) + ">"
    if tag == "ok":
        inner = format_value(v[1], explicit_ok)
        wrap = explicit_ok or inner == "bot" or inner.startswith(("ok(", "err("))
        return f"ok({inner})" if wrap else inner
    if tag == "err":
        return f"err({v[1]})"
    if tag == "bot":
        return "bot"
    if tag == "fun":
        return f"({format_value(v[1], explicit_ok)},{format_value(v[2], explicit_ok)})"
    raise ValueError(f"unknown value tag {tag!r}")

