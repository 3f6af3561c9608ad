"""Finite set monads: enumerable containers with unit and join.

Every monad here works on canonical values from `values` and is exhaustively
enumerable over a finite carrier up to a structural size bound. Enumeration
is deterministic, duplicate-free, and graded by size, so the sequence for a
smaller bound is a prefix of the sequence for a larger one; law checking and
the free-model comparisons rely on that.

A monad that names a theory is its free model, and the theory decides
equality by evaluating into it (`theories._free_model`), with the monad's
`normal_form`: every built-in theory but the two bands, AI and AI+, has
such a monad.

The registry of named monads is filled once, at import. `monad_for` only
reads it: the exception and n-ary tree monads it does not hold come from
cached constructors, so every spelling of one label set or width gives
the same object, and the free models of the Boom theories are named by
their theory ids too.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import Callable, Iterable, Iterator, Optional, Sequence

from monadlab import terms, theories
from monadlab.values import (
    Value,
    canon_key,
    format_value,
    gc_paused,
    letters,
    lowest_terms,
    mk_mset,
    mk_nnode,
    mk_set,
    quote,
    weighted_value,
)

__all__ = [
    "FinMonad",
    "NoMonadError",
    "MAX_POOL",
    "NESTED_CAPS",
    "PoolTooLargeError",
    "ListMonad",
    "MultisetMonad",
    "PowersetMonad",
    "NaryTreeMonad",
    "CommIdemTreeMonad",
    "WeightedMonad",
    "ExceptionMonad",
    "LiftMonad",
    "ReaderMonad",
    "DistMonad",
    "AbGroupMonad",
    "monad_for",
    "monad_ids",
    "LawReport",
    "check_monad_laws",
    "FreeModelReport",
    "free_model_iso_check",
]


class NoMonadError(Exception):
    pass


# the most values one pool may hold. A bound has no upper limit, so a pool
# is refused as soon as one value more is listed. Law search caps its
# inputs at the same number.
MAX_POOL = 1_000_000


class PoolTooLargeError(Exception):
    """A pool would hold more than `MAX_POOL` values."""


def _identity(x):
    return x


_NUNIT = ("nunit",)


class FinMonad:
    """A finitary monad on canonical values.

    Subclasses define `monad_id`, `theory_id` (the presentation whose free
    models this monad gives, if registered), `unit`, `fmap`, `size`, the
    graded generator `iter_values`, and either `bind` or `join`.

    `bind(v, f)` is join(fmap(f, v)) and `join(v)` is bind(v, identity); each
    defaults to the other. List, powerset and the weighted combinations
    (`WeightedMonad`: multiset, dist, abgroup) define `bind`, flattening in
    one pass with one canonicalisation instead of building T(T(X)); the
    other monads define `join`. Powerset and the weighted combinations
    have an unordered form (`values`): `fmap_unordered` and `bind_unordered`
    stop at it, `unordered(v)` views a value in it, and `fmap` and `bind`
    end with `canonical(u)`, which sorts it. The tree monads share one
    encoding: leaves ("nleaf", x), nodes ("nnode", child, ...) and, in the
    monads that have one, the unit leaf ("nunit",). bintree is the width-2
    `NaryTreeMonad` with no unit leaf.

    Two optional views feed the choice laws of `distlaws`. A commutative
    monad T defines `weighted(v)`, its elements and their weights as two
    tuples in `canon_key` order, and its inverse `from_canonical(xs, ws)`,
    which wraps elements that are already distinct and in `canon_key`
    order. A linear monad S (each element occurrence sits at its own
    position) defines `choose(v, t)`: the T combination of every S value
    that picks one element of T at each position of `v`, weighted by the
    product of the picked weights. Positional S (list, the trees) build the
    picks by their own structure. All picks of `v` share its shape, so a
    pick is fixed by its elements and no two coincide; taking each
    position's elements in order and the positions in product order lists
    the picks lexicographically over their leaves, which is `canon_key`
    order. So they need no merge and no sort. Multiset S chooses over the
    list of its members, then maps each pick to a multiset with T's `fmap`;
    that map is not injective, so its picks merge there. A position's picks
    depend only on the T value there, so `choose(v, t, positions)` keeps
    them in the dict `positions` across calls: `distlaws._choice_law` gives
    each law its own, and a call without one keeps them for that call
    alone. A position that holds T's empty value has no pick, so `v` has
    none: the picks stop there, and `choose` gives T's empty combination.

    A monad that names a theory maps each of its operations, in `generics`,
    to the operation's generic element: a value over the argument positions
    "0", "1", ... `free_model_ops` derives the free models' operations.
    It also defines `normal_form(v)`: the term whose value is `v` when each
    variable x is sent to unit(x), the normal form by which its theory
    decides.

    `enumerate` lists a pool, raising PoolTooLargeError past `MAX_POOL`
    values. The enumeration of every monad that a distributive law of
    `distlaws` can have as its outer monad S (list and the trees, multiset,
    exception and lift, with their nonempty forms) is natural in the
    carrier: for any map g, listing over `[*map(g, carrier)]` yields
    `fmap(g, v)` of each value v listed over `carrier`, in order, because a
    value is a shape filled from the carrier and its constructor makes it
    canonical. `distlaws.check_beck` maps its S pools that way. The
    enumeration of abgroup is not natural (a merging map cancels
    coefficients), nor that of the commutative or idempotent trees (it
    skips the nodes that are not canonical).
    """

    monad_id: str = ""
    theory_id: Optional[str] = None
    generics: dict = {}

    def unit(self, x: Value) -> Value:
        raise NotImplementedError

    def fmap(self, f: Callable[[Value], Value], v: Value) -> Value:
        raise NotImplementedError

    def join(self, v: Value) -> Value:
        return self.bind(v, _identity)

    def bind(self, v: Value, f: Callable[[Value], Value]) -> Value:
        return self.join(self.fmap(f, v))

    def size(self, v: Value) -> int:
        """The size that `bound` limits in enumeration: by default the
        number of element occurrences."""
        return len(self.members(v))

    def members(self, v: Value) -> tuple:
        """The element occurrences of a value (the support, for dist and abgroup)."""
        raise NotImplementedError

    def iter_values(self, carrier: Sequence[Value], bound: int) -> Iterator[Value]:
        raise NotImplementedError

    def enumerate(self, carrier: Sequence[Value], bound: int) -> list:
        pool = list(itertools.islice(self.iter_values(carrier, bound), MAX_POOL + 1))
        if len(pool) > MAX_POOL:
            raise PoolTooLargeError(
                f"{self.monad_id} values over {len(carrier)} elements up to size {bound}: "
                f"more than {MAX_POOL:,} (the pool cap)")
        return pool

    def __repr__(self) -> str:
        return f"<FinMonad {self.monad_id}>"


def _picks(v, t, ws, positions):
    """The S values that pick one element of T at each position of the list
    or tree `v`, in `canon_key` order (see `FinMonad`), or () at the first
    position that holds T's empty value, where there is nothing to pick;
    each position's weights go onto `ws`, left to right. A node's picks are
    the products of its children's, so each node is built once per
    combination of them, and in C. `positions` holds each position's picks
    and weights (`_position`), keyed by the T value of a list position and
    by the leaf of a tree, and gains the positions met here for the first
    time: as many entries as distinct positions, far fewer than inputs."""
    tag = v[0]
    if tag == "nunit":
        return (v,)
    if tag == "nleaf":
        xs, w = positions.get(v) or positions.setdefault(v, _position(v, t))
        ws.append(w)
        return xs
    xs = []
    for c in v[1:]:
        if tag == "list" or c[0] == "nleaf":
            cx, w = positions.get(c) or positions.setdefault(c, _position(c, t))
            ws.append(w)
        else:
            cx = _picks(c, t, ws, positions)
        if not cx:
            return ()
        xs.append(cx)
    return tuple(map((tag,).__add__, itertools.product(*xs)))


def _position(p, t):
    """The picks and weights of one position: T's elements and weights for
    the T value `p` of a list, and leaves of those elements for the leaf `p`
    of a tree (T's values are never leaves)."""
    if p[0] != "nleaf":
        return t.weighted(p)
    xs, w = t.weighted(p[1])
    return tuple(zip(itertools.repeat("nleaf"), xs)), w


def _product(factors: list) -> terms.Term:
    """The right-nested `mul` of `factors`, or `e` when there are none."""
    if not factors:
        return terms.App(terms.OpSymbol("e", 0), ())
    return terms.right_nested(terms.OpSymbol("mul", 2), factors)


def _word_form(self, v):
    """`normal_form` for list, multiset and powerset."""
    return _product([*map(terms.Var, self.members(v))])


def _choose_positional(self, v, t, positions=None):
    """`choose` for positional monads: distinct picks, already in order.
    The picks come in the product order of their positions, so their
    weights are the products of one weight per position in that order. A
    position that holds T's empty value leaves no pick, and the result is
    T's empty combination. `positions` keeps each position's picks across
    calls (`_picks`); without it, they are kept for this call alone."""
    if len(v) == 1:  # the empty list or the unit tree: nothing to pick
        return t.unit(v)
    ws: list = []
    xs = _picks(v, t, ws, {} if positions is None else positions)
    if not xs:
        return t.from_canonical((), ())
    return t.from_canonical(xs, map(math.prod, itertools.product(*ws)))


class ListMonad(FinMonad):
    def __init__(self, nonempty: bool = False):
        self.nonempty = nonempty
        self.monad_id = "nonempty-list" if nonempty else "list"
        self.theory_id = "boom:-A--" if nonempty else "boom:UA--"
        self.generics = {"mul": ("list", "0", "1")}
        if not nonempty:
            self.generics["e"] = ("list",)

    def unit(self, x):
        return ("list", x)

    def fmap(self, f, v):
        return ("list", *map(f, v[1:]))

    def bind(self, v, f):
        out: list = []
        for x in v[1:]:
            out += f(x)[1:]
        return ("list", *out)

    def members(self, v):
        return v[1:]

    choose = _choose_positional
    normal_form = _word_form

    def iter_values(self, carrier, bound):
        lo = 1 if self.nonempty else 0
        for s in range(lo, bound + 1):
            for combo in itertools.product(carrier, repeat=s):
                yield ("list",) + combo


class WeightedMonad(FinMonad):
    """Finite formal combinations (tag, ((x, w), ...)) with nonzero integer
    weights: counts (multiset), counts over their sum (dist) or integers
    (abgroup), the commutative setting of Manes & Mulry 2007, Thm 4.3.4.
    Subclasses set `tag`; a unit has weight 1. The `fmap` and `bind` of
    valid values give valid values, so here they sum the weights into one
    dict and sort it once, without the checks of the `values`
    constructors."""

    tag: str = ""

    def unit(self, x):
        return (self.tag, ((x, 1),))

    def fmap(self, f, v):
        return weighted_value(self.tag, self.fmap_unordered(f, v))

    def bind(self, v, f):
        return weighted_value(self.tag, self.bind_unordered(v, f))

    def fmap_unordered(self, f, v):
        acc: dict = {}
        for x, w in v[1]:
            y = f(x)
            acc[y] = acc.get(y, 0) + w
        return {x: w for x, w in acc.items() if w} if 0 in acc.values() else acc

    def bind_unordered(self, v, f):
        acc: dict = {}
        for y, w in v[1]:
            for x, u in f(y)[1]:
                acc[x] = acc.get(x, 0) + w * u
        return {x: w for x, w in acc.items() if w} if 0 in acc.values() else acc

    def unordered(self, v):
        return dict(v[1])

    def canonical(self, u):
        return weighted_value(self.tag, u)

    def members(self, v):
        return tuple(x for x, _ in v[1])

    def weighted(self, v):
        return tuple(zip(*v[1])) or ((), ())

    def from_canonical(self, xs, ws):
        return (self.tag, tuple(zip(xs, ws)))


class MultisetMonad(WeightedMonad):
    tag = "mset"

    def __init__(self, nonempty: bool = False):
        self.nonempty = nonempty
        self.monad_id = "boom:-AC-" if nonempty else "multiset"
        self.theory_id = "boom:-AC-" if nonempty else "boom:UAC-"
        self.generics = {"mul": ("mset", (("0", 1), ("1", 1)))}
        if not nonempty:
            self.generics["e"] = ("mset", ())

    def members(self, v):
        return tuple(x for x, n in v[1] for _ in range(n))

    normal_form = _word_form

    def choose(self, v, t, positions=None):
        picks = _choose_positional(self, ("list", *self.members(v)), t, positions)
        return t.fmap(lambda pick: mk_mset(pick[1:]), picks)

    def iter_values(self, carrier, bound):
        for s in range(1 if self.nonempty else 0, bound + 1):
            for combo in itertools.combinations_with_replacement(carrier, s):
                yield mk_mset(items=combo)


class PowersetMonad(FinMonad):
    def __init__(self, nonempty: bool = False):
        self.nonempty = nonempty
        self.monad_id = "boom:-ACI" if nonempty else "powerset"
        self.theory_id = "boom:-ACI" if nonempty else "boom:UACI"
        self.generics = {"mul": ("set", "0", "1")}
        if not nonempty:
            self.generics["e"] = ("set",)

    def unit(self, x):
        return ("set", x)

    def fmap(self, f, v):
        return mk_set(self.fmap_unordered(f, v))

    def bind(self, v, f):
        return mk_set(self.bind_unordered(v, f))

    def fmap_unordered(self, f, v):
        return {*map(f, v[1:])}

    def bind_unordered(self, v, f):
        return {y for x in v[1:] for y in f(x)[1:]}

    def unordered(self, v):
        return {*v[1:]}

    canonical = staticmethod(mk_set)

    def members(self, v):
        return v[1:]

    normal_form = _word_form

    def weighted(self, v):
        return v[1:], (1,) * (len(v) - 1)

    def from_canonical(self, xs, ws):
        return ("set", *xs)

    def iter_values(self, carrier, bound):
        for s in range(1 if self.nonempty else 0, bound + 1):
            for combo in itertools.combinations(carrier, s):
                yield mk_set(combo)


class NaryTreeMonad(FinMonad):
    """Leaf-labelled trees whose nodes have `width` children, with the unit
    leaves `units` (none unless `unital`): nodes with fewer than two
    non-unit children are pruned away (`node`), so values are normal forms.
    The node operation `op` is `mul` in a Boom theory (T for narytree:2,
    T+ for bintree), else `node` (narytree-theory:N)."""

    node = staticmethod(mk_nnode)

    def __init__(self, width: int, monad_id: str, theory_id: str, unital: bool = True):
        if width < 2:
            raise ValueError("tree width must be at least 2")
        self.width, self.monad_id, self.theory_id = width, monad_id, theory_id
        self.units = (_NUNIT,) if unital else ()
        self.op = "mul" if theory_id.startswith("boom:") else "node"
        self.generics = {self.op: ("nnode",) + tuple(("nleaf", str(i)) for i in range(width))}
        if unital:
            self.generics["e"] = _NUNIT

    def unit(self, x):
        return ("nleaf", x)

    def fmap(self, f, v):
        tag = v[0]
        if tag == "nleaf":
            return ("nleaf", f(v[1]))
        if tag != "nnode":
            return v
        out = ["nnode"]
        for c in v[1:]:
            out.append(self.fmap(f, c))
        return tuple(out)

    def join(self, v):
        tag = v[0]
        if tag == "nleaf":
            return v[1]
        if tag != "nnode":
            return v
        kids = []
        for c in v[1:]:
            kids.append(self.join(c))
        # grafting can surface unit leaves, which the pruning constructor
        # takes away
        if _NUNIT in kids:
            return mk_nnode(kids)
        return ("nnode", *kids)

    def members(self, v):
        if v[0] == "nunit":
            return ()
        if v[0] == "nleaf":
            return (v[1],)
        out: tuple = ()
        for c in v[1:]:
            out += self.members(c)
        return out

    choose = _choose_positional

    def normal_form(self, v):
        tag = v[0]
        if tag == "nleaf":
            return terms.Var(v[1])
        if tag == "nunit":
            return terms.App(terms.OpSymbol("e", 0), ())
        return terms.App(terms.OpSymbol(self.op, self.width), tuple(map(self.normal_form, v[1:])))

    def iter_values(self, carrier, bound):
        # layer s holds the trees of size s: each is yielded as soon as it
        # is built, and kept for the larger sizes unless s is the bound
        layers: list[list] = []
        for s in range(bound + 1):
            if s == 0:
                layer = self.units
            elif s == 1:
                layer = [("nleaf", x) for x in carrier]
            else:
                layer = self._nodes_of_size(s, layers)
            if s == bound:
                yield from layer
                return
            kept: list = []
            layers.append(kept)
            for v in layer:
                kept.append(v)
                yield v

    def _splits(self, s):
        # the splits of s into `width` child sizes, in lexicographic order:
        # the gaps between `width` - 1 bars placed among s + width - 1 slots
        slots = s + self.width - 1
        for bars in itertools.combinations(range(slots), self.width - 1):
            split = [b - a - 1 for a, b in zip((-1, *bars), (*bars, slots))]
            if s not in split:  # at least two children that are not units
                yield split

    def _nodes_of_size(self, s, layers):
        for split in self._splits(s):
            for kids in itertools.product(*(layers[part] for part in split)):
                yield ("nnode",) + kids


def _tree_before(a, b):
    """Whether a goes before b among commutative children: a node before a
    leaf, leaves by `canon_key` of their labels, nodes by their children in
    turn."""
    while a[0] == b[0] == "nnode":
        a, b = (a[1], b[1]) if a[1] != b[1] else (a[2], b[2])
    if a[0] != b[0]:
        return a[0] == "nnode"
    return canon_key(a[1]) < canon_key(b[1])


class CommIdemTreeMonad(NaryTreeMonad):
    """Binary trees over `mul` whose node constructor orders the two
    children by `_tree_before` (`comm`) or collapses equal ones (`idem`):
    the free models of C, I, CI and their nonunital forms. A rename can make
    two children equal or swap them, so `fmap` and `bind` rebuild every
    node; enumeration skips nodes that are not canonical. Children have no
    fixed positions, so there is no `choose`."""

    choose = None

    def __init__(self, theory_id: str):
        super().__init__(2, theory_id, theory_id, unital="U" in theory_id)
        self.comm, self.idem = "C" in theory_id, "I" in theory_id

    def node(self, children):
        v = mk_nnode(children)
        if v[0] != "nnode":
            return v
        a, b = v[1:]
        if self.idem and a == b:
            return a
        if self.comm and _tree_before(b, a):
            return ("nnode", b, a)
        return v

    def fmap(self, f, v):
        return self.bind(v, lambda x: ("nleaf", f(x)))

    def bind(self, v, f):
        if v[0] != "nnode":
            return f(v[1]) if v[0] == "nleaf" else v
        return self.node([self.bind(c, f) for c in v[1:]])

    join = FinMonad.join

    def _nodes_of_size(self, s, layers):
        for v in super()._nodes_of_size(s, layers):
            if self.node(v[1:]) == v:
                yield v


class ExceptionMonad(FinMonad):
    """A value or one of the error values in `errors`, which propagate."""

    def __init__(self, labels: Sequence[str]):
        self.labels = tuple(sorted(set(labels)))
        if not self.labels:
            raise ValueError("exception monad needs at least one label")
        inner = ",".join(self.labels)
        self.monad_id = "exception:{" + inner + "}"
        self.theory_id = self.monad_id
        self.errors = tuple(("err", label) for label in self.labels)
        self.generics = {label: ("err", label) for label in self.labels}

    def unit(self, x):
        return ("ok", x)

    def fmap(self, f, v):
        return ("ok", f(v[1])) if v[0] == "ok" else v

    def join(self, v):
        return v[1] if v[0] == "ok" else v

    def members(self, v):
        return (v[1],) if v[0] == "ok" else ()

    def normal_form(self, v):
        # ok(x) is the variable x, err(label) and bot their constants
        return terms.Var(v[1]) if v[0] == "ok" else terms.App(terms.OpSymbol(v[-1], 0), ())

    def iter_values(self, carrier, bound):
        yield from self.errors
        if bound >= 1:
            for x in carrier:
                yield ("ok", x)


class LiftMonad(ExceptionMonad):
    """The exception monad with one error, bot."""

    monad_id = "lift"
    theory_id = "pointed"
    errors = (("bot",),)
    generics = {"bot": ("bot",)}

    def __init__(self):
        pass


class ReaderMonad(FinMonad):
    """Functions out of a fixed two-point environment, kept as output tables."""

    monad_id = "reader:2"
    theory_id = "reader:2"
    generics = {"mul": ("fun", "0", "1")}

    def unit(self, x):
        return ("fun", x, x)

    def fmap(self, f, v):
        return ("fun", f(v[1]), f(v[2]))

    def join(self, v):
        # evaluate the outer table pointwise: position i reads position i of
        # the inner table found there
        return ("fun", v[1][1], v[2][2])

    def size(self, v):
        return 1

    def members(self, v):
        return (v[1], v[2])

    def normal_form(self, v):
        a, b = map(terms.Var, v[1:])
        return a if a == b else terms.App(terms.OpSymbol("mul", 2), (a, b))

    def iter_values(self, carrier, bound):
        if bound >= 1:
            for a, b in itertools.product(carrier, repeat=2):
                yield ("fun", a, b)


# DistMonad enumerates weights with denominators up to this. `_COUNTS`
# holds those weights over the lcm of the denominators, ascending.
_MAX_DENOMINATOR = 4
_SCALE = math.lcm(*range(1, _MAX_DENOMINATOR + 1))
_COUNTS = sorted({_SCALE * p // q for q in range(1, _MAX_DENOMINATOR + 1) for p in range(1, q + 1)})


def _weight_counts(slots: int, left: int = _SCALE) -> list[tuple]:
    """All tuples of `slots` enumerated weights summing to `left` / `_SCALE`,
    in lexicographic order over the weights, as counts over `_SCALE`."""
    if slots == 1:
        return [(left,)] if left in _COUNTS else []
    return [(n, *rest) for n in _COUNTS if n < left for rest in _weight_counts(slots - 1, left - n)]


class DistMonad(WeightedMonad):
    """Finitely supported probability distributions with exact weights, held
    as positive integer counts with gcd 1 (`values`): a weight is its count
    over the sum of the counts. `fmap` divides the merged counts by their
    gcd; `bind` brings the inner values to the lcm of their totals, weights
    each by its outer count, and divides by the gcd. So both keep exact
    weights of any denominator, which `_MAX_DENOMINATOR` bounds only in
    enumeration."""

    monad_id = "dist"
    theory_id = "convex"
    tag = "dist"
    generics = {"mix": ("dist", (("0", 1), ("1", 1)))}

    def fmap_unordered(self, f, v):
        return lowest_terms(super().fmap_unordered(f, v))

    def bind_unordered(self, v, f):
        inner = [f(y)[1] for y, _ in v[1]]
        totals = [sum([n for _, n in entries]) for entries in inner]
        scale = math.lcm(*totals)
        acc: dict = {}
        for (_, w), entries, total in zip(v[1], inner, totals):
            k = w * (scale // total)
            for x, n in entries:
                acc[x] = acc.get(x, 0) + k * n
        return lowest_terms(acc)

    def iter_values(self, carrier, bound):
        for s in range(1, bound + 1):
            tuples = [tuple(n // math.gcd(*t) for n in t) for t in _weight_counts(s)]
            for support in itertools.combinations(carrier, s):
                for counts in tuples:
                    acc: dict = {}
                    for x, n in zip(support, counts):
                        acc[x] = acc.get(x, 0) + n
                    yield weighted_value("dist", lowest_terms(acc))

    def normal_form(self, v):
        # the balanced mix with n leaves of each element of count n: mix
        # terms denote the values whose total is a power of two
        total = sum([n for _, n in v[1]])
        if total & (total - 1):
            raise ValueError(f"no mix term has the weights of {format_value(v)}")
        mix = terms.OpSymbol("mix", 2)
        level = [terms.Var(x) for x, n in v[1] for _ in range(n)]
        while len(level) > 1:
            level = [terms.App(mix, pair) for pair in zip(level[::2], level[1::2])]
        return level[0]


class AbGroupMonad(WeightedMonad):
    """Free abelian groups: finite formal integer combinations."""

    monad_id = "abgroup"
    theory_id = "abgroup"
    generics = {
        "mul": ("grp", (("0", 1), ("1", 1))),
        "e": ("grp", ()),
        "inv": ("grp", (("0", -1),)),
    }
    tag = "grp"

    def size(self, v):
        return sum(abs(c) for _, c in v[1])

    def normal_form(self, v):
        inv = terms.OpSymbol("inv", 1)
        return _product([terms.Var(x) if c > 0 else terms.App(inv, (terms.Var(x),))
                         for x, c in v[1] for _ in range(abs(c))])

    def iter_values(self, carrier, bound):
        for s in range(bound + 1):
            if s == 0:
                yield ("grp", ())
                continue
            for k in range(1, min(s, len(carrier)) + 1):
                # the coefficients of k support letters: each split of s
                # into k magnitudes, then each choice of signs
                coeffs = [
                    signed
                    for split in itertools.product(range(1, s + 1), repeat=k)
                    if sum(split) == s
                    for signed in itertools.product(*((m, -m) for m in split))
                ]
                for support in itertools.combinations(carrier, k):
                    # the support in canonical order, and where each of its
                    # letters sits in `support`
                    ordered = mk_set(support)[1:]
                    at = [support.index(x) for x in ordered]
                    for c in coeffs:
                        yield ("grp", tuple(zip(ordered, map(c.__getitem__, at))))


# ---------------------------------------------------------------------------
# registry

# one monad per sorted label tuple, and per width
_exception_monad = functools.cache(ExceptionMonad)


@functools.cache
def _narytree_monad(width: int) -> NaryTreeMonad:
    theory_id = "boom:U---" if width == 2 else f"narytree-theory:{width}"
    return NaryTreeMonad(width, f"narytree:{width}", theory_id)


_MONADS: dict = {m.monad_id: m for m in (
    ListMonad(),
    ListMonad(nonempty=True),
    MultisetMonad(),
    PowersetMonad(),
    NaryTreeMonad(2, "bintree", "boom:----", unital=False),
    _narytree_monad(2),
    _narytree_monad(3),
    _exception_monad(("a",)),
    _exception_monad(("a", "b")),
    LiftMonad(),
    ReaderMonad(),
    DistMonad(),
    AbGroupMonad(),
)}

# the free models of the Boom theories but the two bands, by theory id: six
# of the monads above, and eight that only their theory ids name
_BOOM_MONADS: dict = {m.theory_id: m for m in (
    *(m for m in _MONADS.values() if m.theory_id.startswith("boom:")),
    MultisetMonad(nonempty=True),
    PowersetMonad(nonempty=True),
    *map(CommIdemTreeMonad, ("boom:U--I", "boom:U-C-", "boom:U-CI", "boom:---I", "boom:--C-",
                             "boom:--CI")),
)}

_MONAD_ALIASES = {
    "reader": "reader:2",
    "mset": "multiset",
    "set": "powerset",
    "tree": "narytree:2",
    "maybe": "lift",
}


def monad_ids() -> tuple:
    return tuple(_MONADS)


def monad_for(monad_id: str) -> FinMonad:
    """The registered monad with id or alias `monad_id`, else the free model
    of the Boom theory with that id, else the exception or n-ary tree monad
    that it spells, one object per label set or width."""
    key = _MONAD_ALIASES.get(monad_id, monad_id)
    m = _MONADS.get(key) or _BOOM_MONADS.get(key)
    if m is not None:
        return m
    labels = theories.exception_labels(key)
    if labels == ():
        raise NoMonadError(f"exception monad {quote(monad_id)} needs at least one label")
    if labels:
        return _exception_monad(labels)
    try:
        width = theories.tree_width(key, "narytree:")
    except ValueError as exc:
        raise NoMonadError(str(exc)) from None
    if width is not None:
        return _narytree_monad(width)
    known = [*_MONADS, *_BOOM_MONADS, *_MONAD_ALIASES]
    raise NoMonadError(theories.unknown_name("monad", monad_id, known))


# ---------------------------------------------------------------------------
# law checking


# violations recorded per report; the counts in `checked` stay complete
_MAX_VIOLATIONS = 1000

# the sizes of the enumeration prefixes that serve as the carriers of the
# nested pools: the second level of `check_monad_laws` and `check_beck`
# takes the first NESTED_CAPS[0] values of the single-level pool, the third
# level the first NESTED_CAPS[1] values over those
NESTED_CAPS = (32, 12)


class LawReport:
    """Bounded check of named conditions (monad laws or Beck conditions) on
    one subject, a monad id or a law id. `checked` counts the cases each
    condition saw; violations are (condition, input, lhs, rhs)."""

    def __init__(self, subject: str, bound: int):
        self.subject, self.bound = subject, bound
        self.checked: dict = {}
        self.pool_sizes: dict = {}
        self.violations: list = []
        self.elapsed = 0.0
        self.stats: dict = {}

    def pool(self, name: str, monad: FinMonad, carrier: Sequence[Value]) -> list:
        """`monad`'s values over `carrier` up to the bound, as the pool `name`."""
        try:
            values = monad.enumerate(carrier, self.bound)
        except PoolTooLargeError as exc:
            raise PoolTooLargeError(f"{self.subject}: the {name} pool of {exc}") from None
        self.pool_sizes[name] = len(values)
        return values

    def compare(self, condition: str, pool: list, lhs: Iterable, rhs: Iterable,
                t: Optional[FinMonad] = None) -> None:
        """Check `condition` on every input of `pool`: the two sides, in pool
        order, must agree. If `t` has an unordered form (`FinMonad`), `lhs`
        holds canonical T values and `rhs` unordered ones, and they are
        compared unordered. A violation records the input and both sides,
        canonical, up to `_MAX_VIOLATIONS`."""
        unordered = hasattr(t, "unordered")
        if unordered:
            lhs = map(t.unordered, lhs)
        for w, left, right in zip(pool, lhs, rhs):
            if left != right and len(self.violations) < _MAX_VIOLATIONS:
                if unordered:
                    left, right = t.canonical(left), t.canonical(right)
                self.violations.append((condition, w, left, right))
        self.checked[condition] = self.checked.get(condition, 0) + len(pool)

    def unchecked(self) -> list:
        """Conditions that saw no case: a pass on them would be vacuous."""
        return sorted(k for k, n in self.checked.items() if n == 0)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unchecked()

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        """What `law check` and `monad-laws` print: the case counts, then OK,
        or the first five violations and the conditions that saw no case."""
        lines = [f"{name}: {n} cases" for name, n in sorted(self.checked.items())]
        if self.ok:
            return "\n".join(lines + ["OK"])
        lines += [f"{name} violated at {format_value(w)}: "
                  f"{format_value(got)} != {format_value(want)}"
                  for name, w, got, want in self.violations[:5]]
        return "\n".join(lines + [f"{name}: no cases checked" for name in self.unchecked()])


@gc_paused
def check_monad_laws(monad: FinMonad, carrier_size: int = 2, bound: int = 3) -> LawReport:
    """Exhaustively test unit and associativity laws over graded pools.

    The single-level pool is complete up to the bound. For associativity the
    carriers of the two deeper levels are deterministic prefixes of the
    canonical enumeration (sizes in `NESTED_CAPS`), so a pass is a bounded
    claim; the report records how many values each law saw. Pools are
    mapped by `fmap`, value by value, since not every monad lists its
    values naturally in the carrier (`FinMonad`).
    """
    start = time.perf_counter()
    carrier = letters(carrier_size)
    report = LawReport(monad.monad_id, bound)

    pool1 = report.pool("T", monad, carrier)
    join_unit = (monad.join(monad.fmap(monad.unit, v)) for v in pool1)
    report.compare("unit-left", pool1, join_unit, pool1)
    report.compare("unit-right", pool1, map(monad.join, map(monad.unit, pool1)), pool1)

    cap2, cap3 = NESTED_CAPS
    carrier2 = pool1[:cap2]
    carrier3 = list(itertools.islice(monad.iter_values(carrier2, bound), cap3))
    report.pool_sizes["TT-carrier"] = len(carrier2)
    report.pool_sizes["TTT-carrier"] = len(carrier3)
    pool3 = report.pool("TTT", monad, carrier3)

    # the outer join of the right-hand side stops at the unordered form, if any
    bind_u = getattr(monad, "bind_unordered", None)
    outer = monad.join if bind_u is None else functools.partial(bind_u, f=_identity)
    join_join = (monad.join(monad.fmap(monad.join, w)) for w in pool3)
    report.compare("assoc", pool3, join_join, map(outer, map(monad.join, pool3)), monad)

    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# free-model comparison


def free_model_ops(theory_id: str, monad: FinMonad) -> dict:
    """The operations of the theory on the values of `monad`, when the monad
    is the theory's free-model construction: the algebra structure its own
    join gives, op(v0, v1, ...) = join(fmap(i -> vi, generic element of op))."""
    if monad.theory_id != theory_id:
        raise NoMonadError(f"{monad.monad_id} is not the free-model monad of {theory_id}")

    def interpret(generic):
        return lambda *args: monad.bind(generic, lambda i: args[int(i)])

    return {name: interpret(generic) for name, generic in monad.generics.items()}


class FreeModelReport:
    """Outcome of comparing a theory's free model with a monad."""

    def __init__(self, theory_id: str, monad_id: str, labels: tuple, bound: int, depth: int):
        self.theory_id, self.monad_id, self.labels = theory_id, monad_id, labels
        self.bound, self.depth = bound, depth
        self.term_count = self.class_count = self.value_count = 0
        self.problems: list = []

    def _fields(self) -> tuple:
        return (self.theory_id, self.monad_id, self.labels, self.bound, self.depth,
                self.term_count, self.class_count, self.value_count, self.problems)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


# depth of the substitution images, and of the terms substituted into
_SUBST_DEPTH = 2


@gc_paused
def free_model_iso_check(
    theory_id: str,
    monad_id: str,
    labels: tuple = ("a", "b", "c"),
    bound: int = 3,
    depth: int = 3,
) -> FreeModelReport:
    """Compare the theory's free model on `labels` with the monad.

    Two checks over the full term universe up to `depth`: for every b <=
    bound the values of size <= b are exactly the enumeration at bound b;
    and substitution followed by evaluation agrees with evaluating into
    nested values and joining. Each closes the universe under a
    compositional evaluation (`terms.classes_by_closure`), one term per
    result.

    A theory with a monad decides equality by evaluating into it, so its
    classes are the values and `class_count` is `value_count`. The tests
    check its procedure independently: both sides of each axiom take one
    value in the monad, and one-step rewrites keep its keys
    (`validate_procedure_against_rewrites`).
    """
    entry = theories.lookup_theory(theory_id)
    monad = monad_for(monad_id)
    ops = free_model_ops(entry.theory_id, monad)
    report = FreeModelReport(entry.theory_id, monad.monad_id, tuple(labels), bound, depth)

    sig = entry.presentation.signature
    atoms = [terms.Var(x) for x in labels] + [terms.App(c, ()) for c in sig.constants]
    # terms of depth <= k: the atoms plus every operation over depth <= k-1
    count = leaves = len(dict.fromkeys(atoms))
    for _ in range(depth):
        count = leaves + sum(count**op.arity for op in sig.ops if op.arity >= 1)
    report.term_count = count

    base = terms.Evaluation(ops, monad.unit, None)
    values = terms.classes_by_closure(sig, base, atoms, depth)
    report.class_count = report.value_count = len(values)

    sizes = {v: monad.size(v) for v in values}
    for b in range(bound + 1):
        enumerated = set(monad.enumerate(tuple(labels), b))
        reached = {v for v, n in sizes.items() if n <= b}
        for odd, what in (
            (enumerated - reached, "enumerated values unreachable from terms"),
            (reached - enumerated, "term values missing from enumeration"),
        ):
            if odd:
                example = format_value(min(odd, key=canon_key))
                report.problems.append(f"bound {b}: {len(odd)} {what}, e.g. {example}")

    # substitution vs join: evaluating t[sigma] directly must agree with
    # evaluating t over unit-wrapped evaluated images and then joining
    small_depth = min(_SUBST_DEPTH, depth)
    first_terms = terms.enumerate_terms(sig, atoms, small_depth)
    subst_images = list(itertools.islice(first_terms, 3 * len(labels)))
    for shift in range(min(3, len(subst_images))):
        images = {
            x: base.term_key(subst_images[(i + shift) % len(subst_images)])
            for i, x in enumerate(labels)
        }
        direct = terms.Evaluation(ops, images.__getitem__, None)
        outer = terms.Evaluation(ops, lambda x: monad.unit(images[x]), None)
        pairs = terms.classes_by_closure(sig, terms.Product(direct, outer), atoms, small_depth)
        for (want, got), bucket in pairs.items():
            if monad.join(got) != want:
                witness = terms.render(next(iter(bucket.values())))
                report.problems.append(f"substitution mismatch at {witness}")
    if not subst_images:
        report.problems.append("no substitution cases checked")
    return report
