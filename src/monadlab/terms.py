"""Terms over finite algebraic signatures, plus bounded equational search.

The syntax layer is deliberately tiny: plain slotted classes, a
recursive-descent parser, and a breadth-first prover. `Rewriter` is the one
rewrite relation (axioms read as rules in both directions): the bounded
prover goes through it, and so does the tests' validation of decision
procedures against the axioms. A decision procedure (`Procedure`: normal
forms or semantic evaluation) decides provable equality in one theory;
`decide_eq` and `normalize` take the procedure itself, which
`monadlab.theories` keeps on each theory's entry. The procedures of the
Boom and n-ary tree theories are defined here (`WordProc` ... `TreeProc`,
chosen for the Boom theories by `boom_procedure`), as are `Evaluation`
and `Product`: the other theories evaluate into their monad. A process
runs this module only when it reads a presentation, a procedure or a term:
`monadlab.theories` builds its entries from here on first use.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from typing import Callable, Hashable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

__all__ = [
    "OpSymbol",
    "Signature",
    "signature",
    "Var",
    "App",
    "Term",
    "render",
    "term_vars",
    "substitute",
    "match",
    "Equation",
    "Presentation",
    "ParseError",
    "parse_term",
    "MAX_NESTING",
    "enumerate_terms",
    "classes_by_closure",
    "Rewriter",
    "EqStatus",
    "EqResult",
    "eq_bounded",
    "Procedure",
    "decide_eq",
    "normalize",
    "right_nested",
    "WordProc",
    "MultisetProc",
    "SetProc",
    "BandProc",
    "TreeProc",
    "boom_procedure",
    "Evaluation",
    "Product",
]


# ---------------------------------------------------------------------------
# signatures and terms


class OpSymbol:
    """An operation name with its arity."""

    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int):
        if arity < 0:
            raise ValueError(f"negative arity for {name!r}")
        self.name, self.arity = name, arity

    # operations of one signature are nearly always the same object, so
    # identity decides most comparisons in matching and rewriting
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.arity == other.arity

    def __hash__(self) -> int:
        return hash((self.name, self.arity))

    def __repr__(self) -> str:
        return f"OpSymbol(name={self.name!r}, arity={self.arity!r})"


class Signature:
    """Operations with distinct names."""

    __slots__ = ("ops",)

    def __init__(self, ops: tuple[OpSymbol, ...]):
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate operation names in signature: {names}")
        self.ops = ops

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ops == other.ops

    def __hash__(self) -> int:
        return hash(self.ops)

    def __repr__(self) -> str:
        return f"Signature(ops={self.ops!r})"

    def op(self, name: str) -> OpSymbol:
        for candidate in self.ops:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no operation named {name!r} in signature")

    def has(self, name: str) -> bool:
        return any(op.name == name for op in self.ops)

    @property
    def constants(self) -> tuple[OpSymbol, ...]:
        return tuple(op for op in self.ops if op.arity == 0)


def signature(*ops: tuple[str, int]) -> Signature:
    """Shorthand: signature(("mul", 2), ("e", 0))."""
    return Signature(tuple(OpSymbol(name, arity) for name, arity in ops))


# Terms are never mutated after construction. Their hashes are precomputed:
# term hashing is the hot path of every bounded search, and hashing the
# fields would rewalk the whole tree each time.


class Var:
    """A variable; equal only to a variable of the same name."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("var", name))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is Var and self.name == other.name)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class App:
    """An operation applied to as many argument terms as its arity."""

    __slots__ = ("op", "args", "_hash")

    def __init__(self, op: OpSymbol, args: "tuple[Term, ...]"):
        if len(args) != op.arity:
            raise ValueError(f"{op.name} has arity {op.arity}, got {len(args)} arguments")
        self.op, self.args = op, args
        self._hash = hash((op, args))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            type(other) is App
            and self._hash == other._hash
            and self.op == other.op
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return f"App(op={self.op!r}, args={self.args!r})"

    def __str__(self) -> str:
        return render(self)


Term = Union[Var, App]


def render(term: Term) -> str:
    """The text `parse_term` reads back as `term`. A normal form can nest far
    deeper than any parsed term (a product of 512 variables reifies to 511
    right-nested `mul`s), so the walk keeps its own stack: pending subterms
    and the punctuation between them."""
    out: list[str] = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        elif not t.args:
            out.append(t.op.name)
        else:
            out.append(t.op.name + "(")
            stack.append(")")
            for i, arg in enumerate(reversed(t.args)):
                if i:
                    stack.append(",")
                stack.append(arg)
    return "".join(out)


def term_vars(term: Term) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset((term.name,))
    out: set[str] = set()
    for arg in term.args:
        out |= term_vars(arg)
    return frozenset(out)


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if not term.args:
        return term
    return App(term.op, tuple(substitute(a, mapping) for a in term.args))


def match(pattern: Term, term: Term, bindings: Optional[dict] = None) -> Optional[dict]:
    """Match `term` against `pattern`; pattern variables bind to subterms.

    Returns the (extended) binding map, or None if the match fails. Repeated
    pattern variables must bind consistently.
    """
    if bindings is None:
        bindings = {}
    if isinstance(pattern, Var):
        bound = bindings.get(pattern.name)
        if bound is None:
            out = dict(bindings)
            out[pattern.name] = term
            return out
        return bindings if bound == term else None
    if isinstance(term, App) and term.op == pattern.op:
        for p_arg, t_arg in zip(pattern.args, term.args):
            next_bindings = match(p_arg, t_arg, bindings)
            if next_bindings is None:
                return None
            bindings = next_bindings
        return bindings
    return None


# ---------------------------------------------------------------------------
# equations and presentations


class Equation(NamedTuple):
    """The axiom lhs = rhs, with an optional name."""

    lhs: Term
    rhs: Term
    name: str = ""

    def __str__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{render(self.lhs)} = {render(self.rhs)}"


class Presentation(NamedTuple):
    """A named signature with axioms over its operations."""

    name: str
    signature: Signature
    equations: tuple[Equation, ...]

    def parse(self, text: str) -> Term:
        return parse_term(text, self.signature)


# ---------------------------------------------------------------------------
# parsing


# the characters of the input a parse error quotes on each side of its
# position; `...` outside the quotes marks where the quote cuts the input
_QUOTED = 32


class ParseError(ValueError):
    """Why and where `text` does not parse; the message quotes at most
    `_QUOTED` characters of the input on each side of the position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        start, end = max(pos - _QUOTED, 0), pos + _QUOTED
        quoted = repr(text[start:end])
        quoted = ("..." if start else "") + quoted + ("..." if end < len(text) else "")
        super().__init__(f"{message} (at position {pos} in {quoted})")


_ATOM = re.compile(r"[A-Za-z0-9_'.+*/-]+")

# The deepest nesting of argument lists that `parse_term`, and of brackets
# that `monadlab.valuetext`, accept. Rejecting deeper input up front keeps
# every later stage clear of the interpreter's recursion limit: rendering,
# procedure keys, substitution, the laws and value printing recurse at most
# two frames per level, and each handles at least 300 levels.
MAX_NESTING = 100


def parse_term(text: str, sig: Signature) -> Term:
    """Parse `name(arg,...)` syntax against a signature.

    Tokens naming a signature operation resolve to applications (constants may
    be written bare); anything else is a variable. Numerals are legal variable
    names, which the Plotkin-style term checks rely on. Argument lists nest
    at most `MAX_NESTING` deep.
    """
    pos = 0
    n = len(text)

    def skip_space() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(message: str, at: Optional[int] = None) -> ParseError:
        return ParseError(message, text, pos if at is None else at)

    def parse_one(level: int) -> Term:
        nonlocal pos
        skip_space()
        if pos >= n:
            raise fail("unexpected end of input")
        m = _ATOM.match(text, pos)
        if not m:
            raise fail(f"unexpected character {text[pos]!r}")
        name = m.group()
        start = pos
        pos = m.end()
        skip_space()
        if pos < n and text[pos] == "(":
            if not sig.has(name):
                raise fail(f"unknown operation {name!r}", start)
            if level == MAX_NESTING:
                raise fail(f"argument lists nest deeper than {MAX_NESTING} levels", start)
            op = sig.op(name)
            pos += 1
            args: list[Term] = []
            skip_space()
            if pos < n and text[pos] == ")":
                pos += 1
            else:
                while True:
                    args.append(parse_one(level + 1))
                    skip_space()
                    if pos >= n:
                        raise fail("unclosed '(' in argument list", start)
                    if text[pos] == ",":
                        pos += 1
                        continue
                    if text[pos] == ")":
                        pos += 1
                        break
                    raise fail(f"expected ',' or ')', found {text[pos]!r}")
            if len(args) != op.arity:
                raise fail(
                    f"{name} expects {op.arity} argument(s), got {len(args)}", start
                )
            return App(op, tuple(args))
        if sig.has(name):
            op = sig.op(name)
            if op.arity != 0:
                raise fail(f"{name} expects {op.arity} argument(s), got 0", start)
            return App(op, ())
        return Var(name)

    result = parse_one(0)
    skip_space()
    if pos < n:
        raise fail("trailing input")
    return result


# ---------------------------------------------------------------------------
# bounded term enumeration


def enumerate_terms(
    sig: Signature, atoms: Sequence[Term], max_depth: int
) -> Iterator[Term]:
    """All terms of depth <= max_depth whose leaves come from `atoms`.

    Deterministic, duplicate-free, grouped by exact depth. Nullary operations
    participate only if passed in `atoms`; this keeps the caller in charge of
    which closed terms count as leaves.
    """
    builders = [op for op in sig.ops if op.arity >= 1]
    current = list(dict.fromkeys(atoms))
    yield from current
    cumulative = list(current)
    strictly_shallower: set[Term] = set()
    for _ in range(max_depth):
        layer: list[Term] = []
        for op in builders:
            for args in itertools.product(cumulative, repeat=op.arity):
                # at least one argument must come from the newest layer
                if all(a in strictly_shallower for a in args):
                    continue
                layer.append(App(op, args))
        yield from layer
        strictly_shallower.update(current)
        cumulative.extend(layer)
        current = layer


def classes_by_closure(
    sig: Signature, proc: Procedure, atoms: Sequence[Term], depth: int
) -> dict:
    """key -> {variable mask -> first witness} over the terms of depth <=
    `depth` whose leaves come from `atoms`, built by closure.

    Masks get one bit per variable atom, in order. Terms are ordered as
    `enumerate_terms` yields them: the atoms, then level by level every
    operation applied to earlier terms with at least one child from the
    newest level, children in index-tuple order. Each (key, mask) pair keeps
    its first witness in that order, and the map lists pairs in that order.

    Keys and masks are compositional, so the classes are the closure of their
    own first witnesses under the operations (congruence closure, Nelson &
    Oppen 1980). The pool therefore holds one entry per (key, mask) pair, not
    one per term. This is exact, witnesses included: replacing each child of
    a first witness by its own class's first witness keeps the key and mask,
    never moves later in the order, and keeps a child on the newest level
    (else the pair would have been recorded a level earlier). So every first
    witness is built from first witnesses, which the pool enumerates in the
    same relative order.
    """
    classes: dict[Hashable, dict[int, Term]] = {}
    pool: list[tuple[Term, Hashable, int]] = []  # (first witness, key, mask)
    next_bit = 1
    for term in atoms:
        bits = 0
        if isinstance(term, Var):
            bits, next_bit = next_bit, next_bit << 1
        key = proc.term_key(term)
        bucket = classes.setdefault(key, {})
        if bits not in bucket:
            bucket[bits] = term
            pool.append((term, key, bits))

    builders = [op for op in sig.ops if op.arity >= 1]
    newest_from = 0
    for level in range(1, depth + 1):
        shallower = len(pool)
        for op in builders:
            for combo in itertools.product(range(shallower), repeat=op.arity):
                if max(combo) < newest_from:
                    continue  # all children too shallow; already generated
                picked = [pool[i] for i in combo]
                key = proc.app_key(op, tuple(p[1] for p in picked))
                bits = 0
                for p in picked:
                    bits |= p[2]
                bucket = classes.setdefault(key, {})
                if bits not in bucket:
                    term = bucket[bits] = App(op, tuple(p[0] for p in picked))
                    if level < depth:
                        pool.append((term, key, bits))
        newest_from = shallower
    return classes


# ---------------------------------------------------------------------------
# bounded equational reasoning


class Rewriter:
    """The one-step rewrite relation of a presentation: each axiom read as a
    rewrite rule in both directions. Its equivalence closure is provable
    equality, so this is the one place the axioms are read as rules.

    `pool` supplies instantiations for variables that occur on only one side
    of an axiom (e.g. growing x into mul(x,inv(x)) needs an x from somewhere).
    Root steps and the steps of argument subterms are memoized, so one
    rewriter serves a whole search or universe.
    """

    def __init__(self, presentation: Presentation, pool: Sequence[Term] = ()):
        self.rules: list[tuple[Term, Term]] = [
            rule for e in presentation.equations for rule in ((e.lhs, e.rhs), (e.rhs, e.lhs))
        ]
        self.pool = tuple(pool)
        self._root: dict[Term, tuple[Term, ...]] = {}
        self._steps: dict[Term, tuple[Term, ...]] = {}

    def at_root(self, term: Term) -> tuple[Term, ...]:
        """Rewrites at the root, rule-major and in pool-fill order, without
        repeats and without `term` itself."""
        cached = self._root.get(term)
        if cached is not None:
            return cached
        out: dict[Term, None] = {}
        for pat, repl in self.rules:
            bindings = match(pat, term)
            if bindings is None:
                continue
            unbound = sorted(term_vars(repl) - bindings.keys())
            for fills in itertools.product(self.pool, repeat=len(unbound)):
                full = dict(bindings)
                full.update(zip(unbound, fills))
                out.setdefault(substitute(repl, full), None)
        out.pop(term, None)
        result = self._root[term] = tuple(out)
        return result

    def steps(self, term: Term) -> list[Term]:
        """Rewrites at every position, positions in preorder (root first,
        then each argument's steps lifted into place, arguments in order).
        Never contains `term`; may repeat a term reached at two positions."""
        out = list(self.at_root(term))
        if isinstance(term, App):
            for i, arg in enumerate(term.args):
                inner = self._steps.get(arg)
                if inner is None:
                    inner = self._steps[arg] = tuple(self.steps(arg))
                for u in inner:
                    out.append(App(term.op, term.args[:i] + (u,) + term.args[i + 1 :]))
        return out


class EqStatus(Enum):
    EQUAL = "equal"
    UNKNOWN = "unknown"


class EqResult(NamedTuple):
    """A bounded proof search's answer; true when it found a proof."""

    status: EqStatus
    steps: Optional[int]
    explored: int
    capped: bool = False

    def __bool__(self) -> bool:
        return self.status is EqStatus.EQUAL


# the terms `eq_bounded` visits, over both balls, before it gives up
_NODE_CAP = 50_000


def eq_bounded(
    presentation: Presentation,
    t1: Term,
    t2: Term,
    depth: int = 3,
) -> EqResult:
    """Breadth-first proof search for t1 = t2 under the axioms.

    Finds any proof of at most `depth` rule applications (axioms used in
    both directions, instantiated by matching; a variable on one side only
    is filled with a variable of t1 or t2 or a constant). Rewriting is
    symmetric, so the search runs from both ends and meets in the middle;
    EQUAL is a proof, UNKNOWN is not a refutation, just exhaustion of the
    bound or of `_NODE_CAP`.
    """
    names = sorted(term_vars(t1) | term_vars(t2))
    pool = tuple(Var(v) for v in names) + tuple(
        App(c, ()) for c in presentation.signature.constants
    )
    if t1 == t2:
        return EqResult(EqStatus.EQUAL, 0, 1)
    rewriter = Rewriter(presentation, pool)
    seen: tuple[dict, dict] = ({t1: 0}, {t2: 0})  # term -> ball radius
    frontier: list[list[Term]] = [[t1], [t2]]
    radius = [0, 0]
    capped = False
    while radius[0] + radius[1] < depth and not capped:
        # grow the cheaper ball; a node in both balls is a proof of length
        # radius[0] + radius[1] and every split is covered by ball inclusion
        i = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        if not frontier[i]:
            i = 1 - i
        if not frontier[i]:
            break
        mine, other = seen[i], seen[1 - i]
        grown = radius[i] + 1
        layer: list[Term] = []
        for t in frontier[i]:
            for u in rewriter.steps(t):
                if u in mine:
                    continue
                met = other.get(u)
                if met is not None:
                    explored = len(seen[0]) + len(seen[1]) + 1
                    return EqResult(EqStatus.EQUAL, grown + met, explored)
                mine[u] = grown
                layer.append(u)
                if len(seen[0]) + len(seen[1]) >= _NODE_CAP:
                    capped = True
                    break
            if capped:
                break
        radius[i] = grown
        frontier[i] = layer
    return EqResult(EqStatus.UNKNOWN, None, len(seen[0]) + len(seen[1]), capped)


# ---------------------------------------------------------------------------
# decision procedures


class Procedure:
    """Decision procedure for one theory; each theory entry of
    `monadlab.theories` holds its own.

    Evaluation is compositional: the canonical key of an application depends
    only on the operation and the keys of its children, which lets
    `classes_by_closure` visit one term per class instead of the whole
    bounded universe. Subclasses must
    implement `var_key` and `app_key`; `reify` is optional and backs
    `normalize` (decide-only procedures leave it returning None).
    """

    def var_key(self, name: str) -> Hashable:
        raise NotImplementedError

    def app_key(self, op: OpSymbol, child_keys: tuple) -> Hashable:
        raise NotImplementedError

    def term_key(self, term: Term) -> Hashable:
        if isinstance(term, Var):
            return self.var_key(term.name)
        return self.app_key(term.op, tuple(self.term_key(a) for a in term.args))

    def reify(self, key: Hashable) -> Optional[Term]:
        return None


def decide_eq(proc: Procedure, t1: Term, t2: Term) -> bool:
    """Exact provable-equality test: equal procedure keys."""
    return proc.term_key(t1) == proc.term_key(t2)


def normalize(proc: Procedure, term: Term) -> Optional[Term]:
    """Canonical representative of the term's equivalence class; None when
    the procedure is decide-only (it has no normal forms)."""
    return proc.reify(proc.term_key(term))


# ---------------------------------------------------------------------------
# the procedures of the Boom and n-ary tree theories, and two combinators

_UNIT_KEY = ("e",)


def right_nested(op: OpSymbol, parts: Sequence[Term]) -> Term:
    """op(t1, op(t2, ... op(t(n-1), tn))) over the nonempty `parts`."""
    out = parts[-1]
    for t in reversed(parts[:-1]):
        out = App(op, (t, out))
    return out


class WordProc(Procedure):
    """Free monoid / semigroup: terms evaluate to words of variable names."""

    def var_key(self, name: str) -> Hashable:
        return (name,)

    def app_key(self, op: OpSymbol, child_keys: tuple) -> Hashable:
        if op.name == "e":
            return ()
        word: tuple = ()
        for part in child_keys:
            word += part
        return word

    def reify(self, key) -> Optional[Term]:
        if not key:
            return App(OpSymbol("e", 0), ())
        return right_nested(OpSymbol("mul", 2), [Var(name) for name in key])


class MultisetProc(WordProc):
    """Free commutative monoid / semigroup: sorted words."""

    def app_key(self, op, child_keys):
        word = super().app_key(op, child_keys)
        return tuple(sorted(word))


class SetProc(WordProc):
    """Free commutative idempotent monoid / semigroup: sorted, deduplicated."""

    def app_key(self, op, child_keys):
        word = super().app_key(op, child_keys)
        return tuple(sorted(set(word)))


class BandProc(Procedure):
    """Free band (idempotent semigroup), with or without a unit. Decide-only.

    Keys are the classical invariants: content, plus recursively the longest
    prefix missing one letter together with the letter that completes the
    content, and the dual on the right. Multiplication of keys goes through a
    memoized representative word per class, which is well defined because the
    invariant is a semigroup congruence.
    """

    def __init__(self):
        self._rep: dict[Hashable, tuple[str, ...]] = {}
        self._memo: dict[tuple[str, ...], Hashable] = {}

    def var_key(self, name: str) -> Hashable:
        return self._intern((name,))

    def app_key(self, op, child_keys):
        if op.name == "e":
            return self._intern(())
        word: tuple[str, ...] = ()
        for part in child_keys:
            word += self._rep[part]
        return self._intern(word)

    def _intern(self, word: tuple[str, ...]) -> Hashable:
        key = self._struct(word)
        self._rep.setdefault(key, word)
        return key

    def _struct(self, word: tuple[str, ...]) -> Hashable:
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        content = sorted(set(word))
        if not word:
            key: Hashable = ("0",)
        elif len(content) == 1:
            key = ("1", word[0])
        else:
            seen: set[str] = set()
            for i, ch in enumerate(word):
                seen.add(ch)
                if len(seen) == len(content):
                    break
            prefix, first_new = word[:i], word[i]
            seen = set()
            for j in range(len(word) - 1, -1, -1):
                seen.add(word[j])
                if len(seen) == len(content):
                    break
            suffix, last_new = word[j + 1 :], word[j]
            key = (
                "n",
                tuple(content),
                self._struct(prefix),
                first_new,
                last_new,
                self._struct(suffix),
            )
        self._memo[word] = key
        return key


class TreeProc(Procedure):
    """Tree theories: the non-associative Boom flavors over `mul`/2 and the
    unital n-ary node algebras over `node`/n, as bottom-up canonical trees.

    A node with fewer than two non-unit children is that child, or the unit
    (only theories with `e` have unit keys). Under idempotence equal
    children collapse and under commutativity they are ordered; both are
    binary axioms. Each rewrite system involved is terminating with joinable
    critical pairs, so innermost normalization decides equality. `reify`
    builds nodes with `op`.
    """

    def __init__(self, op: OpSymbol, comm: bool = False, idem: bool = False):
        self.op, self.comm, self.idem = op, comm, idem

    def var_key(self, name: str) -> Hashable:
        return ("v", name)

    def app_key(self, op, child_keys):
        if op.name == "e":
            return _UNIT_KEY
        if len(child_keys) - child_keys.count(_UNIT_KEY) < 2:
            return next((k for k in child_keys if k != _UNIT_KEY), _UNIT_KEY)
        if self.idem and child_keys[0] == child_keys[1]:
            return child_keys[0]
        if self.comm and child_keys[1] < child_keys[0]:
            return ("n", child_keys[1], child_keys[0])
        return ("n", *child_keys)

    def reify(self, key) -> Optional[Term]:
        if key == _UNIT_KEY:
            return App(OpSymbol("e", 0), ())
        if key[0] == "v":
            return Var(key[1])
        return App(self.op, tuple(map(self.reify, key[1:])))


def boom_procedure(assoc: bool, comm: bool, idem: bool) -> Procedure:
    """The procedure of the Boom theory over `mul` with the flagged axioms
    (a unit, if any, is decided by every one of them)."""
    if assoc:
        if idem and not comm:
            return BandProc()
        if comm and idem:
            return SetProc()
        if comm:
            return MultisetProc()
        return WordProc()
    return TreeProc(OpSymbol("mul", 2), comm, idem)


class Evaluation(Procedure):
    """Evaluation in an algebra as a compositional semantics: variables to
    their values by the function `var`, operations through the functions
    `ops` names; in a free algebra, `reify` (None: decide-only) maps each
    value back to its normal form."""

    def __init__(self, ops: dict, var: Callable[[str], Hashable],
                 reify: Optional[Callable[[Hashable], Term]]):
        self.ops, self.var_key, self._reify = ops, var, reify

    def app_key(self, op, child_keys):
        return self.ops[op.name](*child_keys)

    def reify(self, key):
        return None if self._reify is None else self._reify(key)


class Product(Procedure):
    """Pairs of keys of two procedures; compositional when both are."""

    def __init__(self, first: Procedure, second: Procedure):
        self.first, self.second = first, second

    def var_key(self, name):
        return self.first.var_key(name), self.second.var_key(name)

    def app_key(self, op, child_keys):
        return (
            self.first.app_key(op, tuple(k[0] for k in child_keys)),
            self.second.app_key(op, tuple(k[1] for k in child_keys)),
        )
