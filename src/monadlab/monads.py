"""Finite set monads: enumerable containers with unit and join.

Every monad here works on canonical values from `values` and is exhaustively
enumerable over a finite carrier up to a structural size bound. Enumeration
is deterministic, duplicate-free, and graded by size, so the sequence for a
smaller bound is a prefix of the sequence for a larger one; law checking and
the free-model comparisons rely on that.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from monadlab import terms, theories
from monadlab.values import (
    Value,
    canon_key,
    format_value,
    letters,
    mk_dist,
    mk_grp,
    mk_mset,
    mk_nnode,
    mk_set,
    weighted_value,
)

__all__ = [
    "FinMonad",
    "PairUnsupportedError",
    "NoMonadError",
    "ListMonad",
    "MultisetMonad",
    "PowersetMonad",
    "BinTreeMonad",
    "NaryTreeMonad",
    "WeightedMonad",
    "ExceptionMonad",
    "LiftMonad",
    "ReaderMonad",
    "DistMonad",
    "AbGroupMonad",
    "monad_for",
    "monad_ids",
    "ALL_MONAD_IDS",
    "LawReport",
    "check_monad_laws",
    "FreeModelReport",
    "free_model_iso_check",
]


class PairUnsupportedError(Exception):
    """The monad has no two-element container to encode a binary operation."""


class NoMonadError(Exception):
    pass


def _identity(x):
    return x


_NUNIT = ("nunit",)


class FinMonad:
    """A finitary monad on canonical values.

    Subclasses define `monad_id`, `family`, `theory_id` (the presentation
    whose free models this monad gives, if registered), `unit`, `fmap`,
    `size`, the graded generator `iter_values`, and either `bind` or `join`.

    `bind(v, f)` is join(fmap(f, v)) and `join(v)` is bind(v, identity); each
    defaults to the other. List, powerset and the weighted combinations
    (`WeightedMonad`: multiset, dist, abgroup) define `bind`, flattening in
    one pass with one canonicalisation instead of building T(T(X)); the
    other monads define `join`. The tree monads share one encoding: leaves
    ("nleaf", x), nodes ("nnode", child, ...) and, in the monads that have
    one, the unit leaf ("nunit",). bintree is the width-2 `NaryTreeMonad`
    with no unit leaf.

    Two optional views feed the choice laws of `distlaws`. A commutative
    monad T defines `weighted(v)`, its elements and their weights as two
    tuples in `canon_key` order, and two inverses: `from_weighted(entries)`
    sums the weights of repeated (element, weight) entries and sorts, while
    `from_canonical(xs, ws)` wraps elements that are already distinct and
    in `canon_key` order. A linear monad S (each element occurrence sits at
    its own position) defines `choose(v, t)`: the T combination of every S
    value that picks one element of T at each position of `v`, weighted by
    the product of the picked weights. Positional S (list, the trees) build
    the picks by their own structure. All picks of `v` share its shape, so
    a pick is fixed by its elements and no two coincide; taking each
    position's elements in order and the positions in product order lists
    the picks lexicographically over their leaves, which is `canon_key`
    order. So they need no merge and no sort. Multiset S sorts each pick
    into a multiset; that map is not injective, so its picks merge.

    A monad that names a theory maps each of its operations, in `generics`,
    to the operation's generic element: a value over the argument positions
    "0", "1", ... `free_model_ops` derives the free models' operations, and
    `pair(a, b)` is the theory's designated binary evaluated through them
    at unit(a), unit(b).
    """

    monad_id: str = ""
    family: str = ""
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
        return list(self.iter_values(carrier, bound))

    def pair(self, a: Value, b: Value) -> Value:
        """The two-element container over a then b: the designated binary of
        the monad's theory, evaluated in the free model."""
        entry = theories.lookup_theory(self.theory_id) if self.theory_id else None
        if entry is None or entry.designated_binary is None:
            raise PairUnsupportedError(
                f"monad {self.monad_id!r} has no canonical two-element container"
            )
        ops = free_model_ops(self.theory_id, self.monad_id)
        env = {"y1": self.unit(a), "y2": self.unit(b)}
        return _Evaluation(ops, env).term_key(entry.designated_binary)

    def __repr__(self) -> str:
        return f"<FinMonad {self.monad_id}>"


def _picks(v, t, ws):
    """The S values that pick one element of T at each position of the list
    or tree `v`, in `canon_key` order (see `FinMonad`); each position's
    weights go onto `ws`, left to right. A node's picks are the products of
    its children's, so each node is built once per combination of them,
    and in C."""
    tag = v[0]
    if tag == "list":
        xs, w = zip(*map(t.weighted, v[1:]))
        ws += w
    elif tag == "nleaf":
        xs, w = t.weighted(v[1])
        ws.append(w)
        return tuple(zip(itertools.repeat(tag), xs))
    elif tag == "nunit":
        return (v,)
    else:
        xs = [_picks(c, t, ws) for c in v[1:]]
    return tuple(map((tag,).__add__, itertools.product(*xs)))


def _choose_positional(self, v, t):
    """`choose` for positional monads: distinct picks, already in order.
    The picks come in the product order of their positions, so their
    weights are the products of one weight per position in that order."""
    if len(v) == 1:  # the empty list or the unit tree: nothing to pick
        return t.unit(v)
    ws: list = []
    xs = _picks(v, t, ws)
    return t.from_canonical(xs, map(math.prod, itertools.product(*ws)))


class ListMonad(FinMonad):
    family = "list"

    def __init__(self, nonempty: bool = False):
        self.nonempty = nonempty
        self.monad_id = "nonempty-list" if nonempty else "list"
        self.family = self.monad_id
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

    def iter_values(self, carrier, bound):
        lo = 1 if self.nonempty else 0
        for s in range(lo, bound + 1):
            for combo in itertools.product(carrier, repeat=s):
                yield ("list",) + combo


class WeightedMonad(FinMonad):
    """Finite formal combinations (tag, ((x, w), ...)) with nonzero weights:
    counts (multiset), convex weights (dist) or integers (abgroup), the
    commutative setting of Manes & Mulry 2007, Thm 4.3.4. Subclasses set
    `tag`, the unit weight `one` and the canonical constructor `make`.
    The `fmap` and `bind` of valid values give valid values, so here they
    sum the weights into one dict and sort it once, without `make`'s
    checks; dist keeps them."""

    tag: str = ""
    one = 1
    make: Callable = None

    def unit(self, x):
        return (self.tag, ((x, self.one),))

    def fmap(self, f, v):
        acc: dict = {}
        for x, w in v[1]:
            y = f(x)
            acc[y] = acc.get(y, 0) + w
        return weighted_value(self.tag, acc)

    def bind(self, v, f):
        acc: dict = {}
        for y, w in v[1]:
            for x, u in f(y)[1]:
                acc[x] = acc.get(x, 0) + w * u
        return weighted_value(self.tag, acc)

    def members(self, v):
        return tuple(x for x, _ in v[1])

    def weighted(self, v):
        return tuple(zip(*v[1])) or ((), ())

    def from_weighted(self, entries):
        return self.make(entries)

    def from_canonical(self, xs, ws):
        return (self.tag, tuple(zip(xs, ws)))


class MultisetMonad(WeightedMonad):
    monad_id = "multiset"
    family = "multiset"
    theory_id = "boom:UAC-"
    generics = {"mul": ("mset", (("0", 1), ("1", 1))), "e": ("mset", ())}
    tag = "mset"
    make = functools.partial(mk_mset, ())

    def members(self, v):
        return tuple(x for x, n in v[1] for _ in range(n))

    def choose(self, v, t):
        if not v[1]:
            return t.unit(v)
        xs, ws = zip(*map(t.weighted, self.members(v)))
        picks = map(mk_mset, itertools.product(*xs))
        return t.from_weighted(zip(picks, map(math.prod, itertools.product(*ws))))

    def iter_values(self, carrier, bound):
        for s in range(bound + 1):
            for combo in itertools.combinations_with_replacement(carrier, s):
                yield mk_mset(items=combo)


class PowersetMonad(FinMonad):
    monad_id = "powerset"
    family = "powerset"
    theory_id = "boom:UACI"
    generics = {"mul": ("set", "0", "1"), "e": ("set",)}

    def unit(self, x):
        return ("set", x)

    def fmap(self, f, v):
        return mk_set(f(x) for x in v[1:])

    def bind(self, v, f):
        out: list = []
        for x in v[1:]:
            out += f(x)[1:]
        return mk_set(out)

    def members(self, v):
        return v[1:]

    def weighted(self, v):
        return v[1:], (1,) * (len(v) - 1)

    def from_weighted(self, entries):
        return mk_set(x for x, _ in entries)

    def from_canonical(self, xs, ws):
        return ("set", *xs)

    def iter_values(self, carrier, bound):
        for s in range(bound + 1):
            for combo in itertools.combinations(carrier, s):
                yield mk_set(combo)


class NaryTreeMonad(FinMonad):
    """Leaf-labelled trees whose nodes have `width` children, with the unit
    leaves `units`: nodes with fewer than two non-unit children are pruned
    away, so values are normal forms."""

    family = "narytree"
    units = (_NUNIT,)

    def __init__(self, width: int):
        if width < 2:
            raise ValueError("tree width must be at least 2")
        self.width = width
        self.monad_id = f"narytree:{width}"
        self.theory_id = "boom:U---" if width == 2 else f"narytree-theory:{width}"
        node = ("nnode",) + tuple(("nleaf", str(i)) for i in range(width))
        self.generics = {"mul" if width == 2 else "node": node, "e": ("nunit",)}

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

    def iter_values(self, carrier, bound):
        # layer s holds the trees of size s; the last one is never reused
        layers: list[list] = []
        for s in range(bound + 1):
            if s == 0:
                layer = list(self.units)
            elif s == 1:
                layer = [("nleaf", x) for x in carrier]
            else:
                layer = self._nodes_of_size(s, layers)
            if s < bound:
                layer = list(layer)
                layers.append(layer)
            yield from layer

    def _nodes_of_size(self, s, layers):
        for split in itertools.product(range(s + 1), repeat=self.width):
            if sum(split) != s:
                continue
            if sum(1 for part in split if part > 0) < 2:
                continue
            for kids in itertools.product(*(layers[part] for part in split)):
                yield ("nnode",) + kids


class BinTreeMonad(NaryTreeMonad):
    """Leaf-labelled binary trees: the binary tree monad with no unit leaf,
    so there is no empty tree."""

    monad_id = "bintree"
    family = "bintree"
    theory_id = "boom:----"
    width = 2
    units = ()
    generics = {"mul": ("nnode", ("nleaf", "0"), ("nleaf", "1"))}

    def __init__(self):
        pass


class ExceptionMonad(FinMonad):
    """A value or one of the error values in `errors`, which propagate."""

    family = "exception"

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

    def iter_values(self, carrier, bound):
        yield from self.errors
        if bound >= 1:
            for x in carrier:
                yield ("ok", x)


class LiftMonad(ExceptionMonad):
    """The exception monad with one error, bot."""

    monad_id = "lift"
    family = "lift"
    theory_id = "pointed"
    errors = (("bot",),)
    generics = {"bot": ("bot",)}

    def __init__(self):
        pass


class ReaderMonad(FinMonad):
    """Functions out of a fixed two-point environment, kept as output tables."""

    monad_id = "reader:2"
    family = "reader"
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

    def iter_values(self, carrier, bound):
        if bound >= 1:
            for a, b in itertools.product(carrier, repeat=2):
                yield ("fun", a, b)


# DistMonad enumerates weights with denominators up to this
_MAX_DENOMINATOR = 4


def _weight_tuples(slots: int) -> list[tuple]:
    """All tuples of `slots` positive weights with small denominators summing
    to one, in lexicographic order over the ascending weight alphabet."""
    alphabet = sorted(
        {
            Fraction(p, q)
            for q in range(1, _MAX_DENOMINATOR + 1)
            for p in range(1, q + 1)
        }
    )
    allowed = set(alphabet)
    out: list[tuple] = []

    def go(prefix: list, remaining: Fraction, left: int):
        if left == 1:
            if remaining in allowed:
                out.append(tuple(prefix + [remaining]))
            return
        for w in alphabet:
            if w >= remaining:
                break
            go(prefix + [w], remaining - w, left - 1)

    go([], Fraction(1), slots)
    return out


class DistMonad(WeightedMonad):
    """Finitely supported probability distributions with exact weights.

    The denominator bound `_MAX_DENOMINATOR` only limits enumeration; values
    built by join keep exact arbitrary-denominator weights. `fmap` and
    `bind` go through `mk_dist`, which checks that the weights sum to one.
    """

    monad_id = "dist"
    family = "dist"
    theory_id = "convex"
    generics = {"mix": ("dist", (("0", Fraction(1, 2)), ("1", Fraction(1, 2))))}
    tag = "dist"
    one = Fraction(1)
    make = staticmethod(mk_dist)

    def fmap(self, f, v):
        return mk_dist((f(x), w) for x, w in v[1])

    def bind(self, v, f):
        return mk_dist([(x, w * u) for y, w in v[1] for x, u in f(y)[1]])

    def iter_values(self, carrier, bound):
        for s in range(1, bound + 1):
            tuples = _weight_tuples(s)
            for support in itertools.combinations(carrier, s):
                for weights in tuples:
                    yield mk_dist(zip(support, weights))


class AbGroupMonad(WeightedMonad):
    """Free abelian groups: finite formal integer combinations."""

    monad_id = "abgroup"
    family = "abgroup"
    theory_id = "abgroup"
    generics = {
        "mul": ("grp", (("0", 1), ("1", 1))),
        "e": ("grp", ()),
        "inv": ("grp", (("0", -1),)),
    }
    tag = "grp"
    make = staticmethod(mk_grp)

    def size(self, v):
        return sum(abs(c) for _, c in v[1])

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

_MONADS: dict = {}


def _register(m: FinMonad) -> FinMonad:
    _MONADS[m.monad_id] = m
    return m


_register(ListMonad())
_register(ListMonad(nonempty=True))
_register(MultisetMonad())
_register(PowersetMonad())
_register(BinTreeMonad())
_register(NaryTreeMonad(2))
_register(NaryTreeMonad(3))
_register(ExceptionMonad(("a",)))
_register(ExceptionMonad(("a", "b")))
_register(LiftMonad())
_register(ReaderMonad())
_register(DistMonad())
_register(AbGroupMonad())

ALL_MONAD_IDS = tuple(_MONADS)

_MONAD_ALIASES = {
    "reader": "reader:2",
    "mset": "multiset",
    "set": "powerset",
    "tree": "narytree:2",
    "maybe": "lift",
}


def monad_ids() -> tuple:
    return ALL_MONAD_IDS


def monad_for(monad_id: str) -> FinMonad:
    key = _MONAD_ALIASES.get(monad_id, monad_id)
    if key in _MONADS:
        return _MONADS[key]
    labels = theories.exception_labels(key)
    if labels is not None:
        if not labels:
            raise NoMonadError(f"exception monad {monad_id!r} needs at least one label")
        m = ExceptionMonad(labels)
        return _MONADS.setdefault(m.monad_id, m)
    if key.startswith("narytree:"):
        try:
            width = int(key.split(":", 1)[1])
        except ValueError:
            width = 0
        if width >= 2:
            return _MONADS.setdefault(key, NaryTreeMonad(width))
    import difflib

    near = difflib.get_close_matches(key, list(_MONADS) + list(_MONAD_ALIASES), n=3)
    hint = f"; did you mean {', '.join(near)}?" if near else ""
    raise NoMonadError(f"unknown monad {monad_id!r}{hint}")


# ---------------------------------------------------------------------------
# law checking


class LawReport:
    """Bounded check of named conditions (monad laws or Beck conditions) on
    one subject, a monad id or a law id. `checked` counts the cases each
    condition saw; violations are (condition, input, lhs, rhs)."""

    def __init__(self, subject: str, carrier: tuple, bound: int, nested_caps: tuple):
        self.subject, self.carrier, self.bound, self.nested_caps = (
            subject, carrier, bound, nested_caps)
        self.checked: dict = {}
        self.pool_sizes: dict = {}
        self.violations: list = []
        self.elapsed = 0.0
        self.stats: dict = {}

    def unchecked(self) -> list:
        """Conditions that saw no case: a pass on them would be vacuous."""
        return sorted(k for k, n in self.checked.items() if n == 0)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unchecked()

    def __bool__(self) -> bool:
        return self.ok

    def violated(self, condition: str) -> list:
        return [v for v in self.violations if v[0] == condition]

    def describe(self) -> str:
        head = f"{self.subject}: carrier={len(self.carrier)} bound={self.bound}"
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items()))
        if self.violations:
            law, v, lhs, rhs = self.violations[0]
            return (
                f"{head} VIOLATION of {law} at {format_value(v)}: "
                f"{format_value(lhs)} != {format_value(rhs)}"
            )
        if not self.ok:
            return f"{head} NO CASES for {', '.join(self.unchecked())} ({counts})"
        return f"{head} OK ({counts}) in {self.elapsed:.2f}s"


def check_monad_laws(
    monad: FinMonad,
    carrier_size: int = 2,
    bound: int = 3,
    nested_caps: tuple = (32, 12),
) -> LawReport:
    """Exhaustively test unit and associativity laws over graded pools.

    The single-level pool is complete up to the bound. For associativity the
    carriers of the two deeper levels are deterministic prefixes of the
    canonical enumeration (sizes in `nested_caps`), so a pass is a bounded
    claim; the report records how many values each law saw.
    """
    start = time.perf_counter()
    carrier = letters(carrier_size)
    report = LawReport(monad.monad_id, carrier, bound, tuple(nested_caps))

    pool1 = monad.enumerate(carrier, bound)
    report.pool_sizes["T"] = len(pool1)

    for v in pool1:
        lhs = monad.join(monad.fmap(monad.unit, v))
        if lhs != v:
            report.violations.append(("unit-left", v, lhs, v))
        rhs = monad.join(monad.unit(v))
        if rhs != v:
            report.violations.append(("unit-right", v, rhs, v))
    report.checked["unit-left"] = len(pool1)
    report.checked["unit-right"] = len(pool1)

    cap2, cap3 = nested_caps
    carrier2 = pool1[:cap2]
    carrier3 = list(itertools.islice(monad.iter_values(carrier2, bound), cap3))
    pool3 = monad.enumerate(carrier3, bound)
    report.pool_sizes["TT-carrier"] = len(carrier2)
    report.pool_sizes["TTT-carrier"] = len(carrier3)
    report.pool_sizes["TTT"] = len(pool3)

    for w in pool3:
        lhs = monad.join(monad.fmap(monad.join, w))
        rhs = monad.join(monad.join(w))
        if lhs != rhs:
            report.violations.append(("assoc", w, lhs, rhs))
    report.checked["assoc"] = len(pool3)

    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# free-model comparison


def free_model_ops(theory_id: str, monad_id: str) -> dict:
    """The operations of the theory on the monad's values, when the monad is
    the theory's free-model construction: the algebra structure its own join
    gives, op(v0, v1, ...) = join(fmap(i -> vi, generic element of op))."""
    monad = monad_for(monad_id)
    if monad.theory_id != theory_id:
        raise NoMonadError(f"{monad_id} is not the free-model monad of {theory_id}")

    def interpret(generic):
        return lambda *args: monad.bind(generic, lambda i: args[int(i)])

    return {name: interpret(generic) for name, generic in monad.generics.items()}


class _Evaluation(terms.Procedure):
    """A free-model evaluation as a compositional semantics: variables to
    their values in `env`, operations through their interpretations."""

    def __init__(self, ops: dict, env: dict):
        self.ops, self.env = ops, env

    def var_key(self, name):
        return self.env[name]

    def app_key(self, op, child_keys):
        return self.ops[op.name](*child_keys)


class _Product(terms.Procedure):
    """Pairs of keys of two procedures; compositional when both are."""

    def __init__(self, first: terms.Procedure, second: terms.Procedure):
        self.first, self.second = first, second

    def var_key(self, name):
        return self.first.var_key(name), self.second.var_key(name)

    def app_key(self, op, child_keys):
        return (
            self.first.app_key(op, tuple(k[0] for k in child_keys)),
            self.second.app_key(op, tuple(k[1] for k in child_keys)),
        )


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


def free_model_iso_check(
    theory_id: str,
    monad_id: str,
    labels: tuple = ("a", "b", "c"),
    bound: int = 3,
    depth: int = 3,
) -> FreeModelReport:
    """Compare the theory's free model on `labels` with the monad.

    Three checks over the full term universe up to `depth`:
    term classes (by the theory's decision procedure) map one-to-one onto
    values; for every b <= bound the values of size <= b are exactly the
    enumeration at bound b; and substitution followed by evaluation agrees
    with evaluating into nested values and joining.

    Evaluation is compositional, so each check closes the universe under
    the product of two compositional semantics (`terms.classes_by_closure`)
    and sees every pair of results that some term has, one term per pair.
    """
    entry = theories.lookup_theory(theory_id)
    monad = monad_for(monad_id)
    ops = free_model_ops(entry.theory_id, monad.monad_id)
    report = FreeModelReport(entry.theory_id, monad.monad_id, tuple(labels), bound, depth)

    sig = entry.presentation.signature
    atoms = [terms.Var(x) for x in labels] + [terms.App(c, ()) for c in sig.constants]
    # terms of depth <= k: the atoms plus every operation over depth <= k-1
    count = leaves = len(dict.fromkeys(atoms))
    for _ in range(depth):
        count = leaves + sum(count**op.arity for op in sig.ops if op.arity >= 1)
    report.term_count = count

    base = _Evaluation(ops, {x: monad.unit(x) for x in labels})
    proc = _Product(terms.procedure_for(entry.theory_id), base)
    by_class: dict = {}  # key -> (first witness, values)
    for (key, val), bucket in terms.classes_by_closure(sig, proc, atoms, depth).items():
        by_class.setdefault(key, (next(iter(bucket.values())), set()))[1].add(val)
    report.class_count = len(by_class)

    class_values = []
    for first, vals in by_class.values():
        if len(vals) > 1:
            shown = terms.render(first)
            report.problems.append(f"class of {shown} maps to {len(vals)} values")
        class_values.append(vals.pop())
    seen: set = set()
    for val in class_values:
        if val in seen:
            report.problems.append(f"distinct classes share value {format_value(val)}")
        seen.add(val)
    report.value_count = len(seen)

    sizes = {v: monad.size(v) for v in seen}
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
        direct = _Evaluation(ops, images)
        outer = _Evaluation(ops, {x: monad.unit(v) for x, v in images.items()})
        pairs = terms.classes_by_closure(sig, _Product(direct, outer), atoms, small_depth)
        for (want, got), bucket in pairs.items():
            if monad.join(got) != want:
                witness = terms.render(next(iter(bucket.values())))
                report.problems.append(f"substitution mismatch at {witness}")
    if not subst_images:
        report.problems.append("no substitution cases checked")
    return report
