"""Equational theories: registry, decision procedures, property certificates.

Each registered theory bundles a finite presentation with an exact decision
procedure for provable equality (registered into `monadlab.terms`), optional
designated operations (a binary term over y1,y2 and a unit), and cached
property certificates. The equational properties are equations between
designated terms, settled by `decide`.

The class-based properties (S1/T1, S2/T2/V2, P3, V3) are facts about the
variables of the members of equivalence classes, and `class_var_claim` is
the one place where such claims, the no-go checkers' included, are settled.
In a regular presentation, where both sides of every axiom have the same
variables, every step of an equational derivation preserves the variable
set, so each class shares its representative's variables and the claim is
exact (`class_vars`). Other presentations read a class map instead, built
once per (depth, vars) bound by closing the classes of the bounded term
universe under the operations; `class_var_claim` also holds the rules for
when such a bounded search proves nothing.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

from monadlab.terms import (
    App,
    Equation,
    EqStatus,
    NoProcedureError,
    OpSymbol,
    Presentation,
    Procedure,
    Term,
    Var,
    classes_by_closure,
    decide_eq,
    enumerate_terms,
    eq_bounded,
    parse_term,
    procedure_for,
    register_procedure,
    render,
    Rewriter,
    rewrite_components,
    signature,
    substitute,
    term_vars,
)

__all__ = [
    "BoomFlags",
    "boom_theory",
    "TheoryEntry",
    "PropertyId",
    "PropertyStatus",
    "PropertyCertificate",
    "check_property",
    "class_vars",
    "class_var_claim",
    "decide",
    "abides_holds",
    "ProcedureValidation",
    "validate_procedure_against_rewrites",
    "register_theory",
    "lookup_theory",
    "theory_ids",
    "registry",
    "load_theory_file",
    "exception_labels",
    "exception_theory",
    "narytree_theory",
    "ring_entry",
    "BOOM_ORIGINAL",
    "BOOM_EXTENDED",
    "BOOM_FULL",
]


# ---------------------------------------------------------------------------
# Boom-style presentations: one binary operation, flag-selected axioms


class BoomFlags(NamedTuple):
    """Which Boom axioms hold besides the binary operation itself."""

    unital: bool
    assoc: bool
    comm: bool
    idem: bool

    @property
    def theory_id(self) -> str:
        return "boom:" + "".join(
            letter if on else "-"
            for letter, on in zip("UACI", (self.unital, self.assoc, self.comm, self.idem))
        )


def presentation(
    tid: str, ops: Iterable[tuple[str, int]], axioms: Iterable[tuple[str, str, str]]
) -> Presentation:
    """The presentation over operations (name, arity) whose axioms are
    (lhs, rhs, name) texts in `parse_term` syntax."""
    sig = signature(*ops)
    return Presentation(tid, sig, tuple(
        Equation(parse_term(lhs, sig), parse_term(rhs, sig), name)
        for lhs, rhs, name in axioms
    ))


def boom_theory(flags: BoomFlags) -> Presentation:
    """Presentation with exactly the flagged axioms over mul (and e if unital)."""
    axioms = [
        ("mul(e,x)", "x", "unitl"),
        ("mul(x,e)", "x", "unitr"),
        ("mul(mul(x,y),z)", "mul(x,mul(y,z))", "assoc"),
        ("mul(x,y)", "mul(y,x)", "comm"),
        ("mul(x,x)", "x", "idem"),
    ]
    on = (flags.unital, flags.unital, flags.assoc, flags.comm, flags.idem)
    ops = [("mul", 2)] + ([("e", 0)] if flags.unital else [])
    return presentation(flags.theory_id, ops, itertools.compress(axioms, on))


# ---------------------------------------------------------------------------
# decision procedures

_UNIT_KEY = ("e",)


def _right_nested(op: OpSymbol, parts: Sequence[Term]) -> Term:
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
        return _right_nested(OpSymbol("mul", 2), [Var(name) for name in key])


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


class SyntacticProc(Procedure):
    """Theories with no axioms: the term is its own normal form."""

    def var_key(self, name):
        return Var(name)

    def app_key(self, op, child_keys):
        return App(op, tuple(child_keys))

    def reify(self, key):
        return key


class AbGroupProc(Procedure):
    """Free Abelian group: integer coefficient vectors over variable names."""

    def var_key(self, name):
        return ((name, 1),)

    def app_key(self, op, child_keys):
        if op.name == "e":
            return ()
        if op.name == "inv":
            return tuple((n, -c) for n, c in child_keys[0])
        coeffs: dict[str, int] = {}
        for part in child_keys:
            for n, c in part:
                coeffs[n] = coeffs.get(n, 0) + c
        return tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))

    def reify(self, key):
        if not key:
            return App(OpSymbol("e", 0), ())
        mul = OpSymbol("mul", 2)
        inv = OpSymbol("inv", 1)
        factors: list[Term] = []
        for name, c in key:
            atom: Term = Var(name)
            if c < 0:
                atom = App(inv, (atom,))
            factors.extend([atom] * abs(c))
        return _right_nested(mul, factors)


class ConvexProc(Procedure):
    """Even-weight mixtures evaluate to dyadic distributions over variables."""

    def var_key(self, name):
        return ((name, Fraction(1)),)

    def app_key(self, op, child_keys):
        weights: dict[str, Fraction] = {}
        for part in child_keys:
            for n, w in part:
                weights[n] = weights.get(n, Fraction(0)) + w / 2
        return tuple(sorted(weights.items()))

    def reify(self, key):
        denom = max(w.denominator for _, w in key)
        leaves: list[str] = []
        for name, w in key:
            leaves.extend([name] * int(w * denom))

        def build(chunk: list[str]) -> Term:
            if len(chunk) == 1:
                return Var(chunk[0])
            half = len(chunk) // 2
            return App(OpSymbol("mix", 2), (build(chunk[:half]), build(chunk[half:])))

        return build(leaves)


class ReaderProc(Procedure):
    """Rectangular band with idempotence: terms evaluate to (first, last)."""

    def var_key(self, name):
        return (name, name)

    def app_key(self, op, child_keys):
        return (child_keys[0][0], child_keys[1][1])

    def reify(self, key):
        a, b = key
        if a == b:
            return Var(a)
        return App(OpSymbol("mul", 2), (Var(a), Var(b)))


class RingProc(Procedure):
    """Free (noncommutative, unital) ring: Z-combinations of words."""

    def var_key(self, name):
        return (((name,), 1),)

    def app_key(self, op, child_keys):
        if op.name == "zero":
            return ()
        if op.name == "one":
            return (((), 1),)
        if op.name == "neg":
            return tuple((w, -c) for w, c in child_keys[0])
        if op.name == "plus":
            coeffs: dict[tuple, int] = {}
            for part in child_keys:
                for w, c in part:
                    coeffs[w] = coeffs.get(w, 0) + c
            return tuple(sorted((w, c) for w, c in coeffs.items() if c != 0))
        # times: convolution of words
        out: dict[tuple, int] = {}
        for w1, c1 in child_keys[0]:
            for w2, c2 in child_keys[1]:
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return tuple(sorted((w, c) for w, c in out.items() if c != 0))

    def reify(self, key):
        plus = OpSymbol("plus", 2)
        times = OpSymbol("times", 2)
        neg = OpSymbol("neg", 1)
        if not key:
            return App(OpSymbol("zero", 0), ())

        def monomial(word: tuple) -> Term:
            if not word:
                return App(OpSymbol("one", 0), ())
            return _right_nested(times, [Var(n) for n in word])

        parts: list[Term] = []
        for word, c in key:
            base = monomial(word)
            if c < 0:
                base = App(neg, (base,))
            parts.extend([base] * abs(c))
        return _right_nested(plus, parts)


def _boom_procedure(flags: BoomFlags) -> Procedure:
    if flags.assoc:
        if flags.idem and not flags.comm:
            return BandProc()
        if flags.comm and flags.idem:
            return SetProc()
        if flags.comm:
            return MultisetProc()
        return WordProc()
    return TreeProc(OpSymbol("mul", 2), flags.comm, flags.idem)


# ---------------------------------------------------------------------------
# theory entries and registry


class TheoryEntry:
    """A registered theory: its presentation, designated terms and caches.

    `designated_binary` is a term over variables y1, y2; `designated_unit`
    a closed term. The certificate cache depends on the designated terms,
    the class-map cache only on the presentation.
    """

    def __init__(
        self,
        theory_id: str,
        presentation: Presentation,
        label: str,
        designated_binary: Optional[Term] = None,
        designated_unit: Optional[Term] = None,
        aliases: tuple[str, ...] = (),
        notes: str = "",
    ):
        self.theory_id, self.presentation, self.label = theory_id, presentation, label
        self.designated_binary, self.designated_unit = designated_binary, designated_unit
        self.aliases, self.notes = aliases, notes
        self._certificates: dict = {}
        self._class_maps: dict = {}

    def with_binary(self, binary: Term) -> TheoryEntry:
        """This theory with `binary` as its designated binary: the class maps
        are shared, the certificates start afresh."""
        variant = TheoryEntry(self.theory_id, self.presentation, self.label, binary,
                              self.designated_unit, self.aliases, self.notes)
        variant._class_maps = self._class_maps
        return variant

    def binary_at(self, a: Term, b: Term) -> Term:
        if self.designated_binary is None:
            raise ValueError(f"{self.theory_id} has no designated binary operation")
        return substitute(self.designated_binary, {"y1": a, "y2": b})

    @property
    def has_procedure(self) -> bool:
        return procedure_for(self.theory_id) is not None


_REGISTRY: dict[str, TheoryEntry] = {}
_ALIASES: dict[str, str] = {}


def register_theory(entry: TheoryEntry, procedure: Optional[Procedure] = None) -> TheoryEntry:
    if entry.theory_id in _REGISTRY:
        raise ValueError(f"theory {entry.theory_id!r} already registered")
    _REGISTRY[entry.theory_id] = entry
    for alias in entry.aliases:
        if alias in _ALIASES and _ALIASES[alias] != entry.theory_id:
            raise ValueError(f"alias {alias!r} already taken")
        _ALIASES[alias] = entry.theory_id
    if procedure is not None and procedure_for(entry.theory_id) is None:
        register_procedure(entry.theory_id, procedure)
    return entry


def theory_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def registry() -> tuple[TheoryEntry, ...]:
    return tuple(_REGISTRY[tid] for tid in sorted(_REGISTRY))


def lookup_theory(name: str) -> TheoryEntry:
    tid = _ALIASES.get(name, name)
    if tid in _REGISTRY:
        return _REGISTRY[tid]
    labels = exception_labels(name)
    if labels:
        return exception_theory(labels)
    if name.startswith("narytree-theory:"):
        try:
            width = int(name.split(":", 1)[1])
        except ValueError:
            width = 0
        if width >= 2:
            return narytree_theory(width)
    import difflib

    candidates = list(_REGISTRY) + list(_ALIASES)
    close = difflib.get_close_matches(name, candidates, n=3)
    hint = f" (did you mean {', '.join(close)}?)" if close else ""
    raise KeyError(f"unknown theory {name!r}{hint}")


# ---------------------------------------------------------------------------
# structural properties


class PropertyId(Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4A = "S4a"
    S4B = "S4b"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4A = "T4a"
    T4B = "T4b"
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    V1 = "V1"
    V2 = "V2"
    V3 = "V3"


class PropertyStatus(Enum):
    HOLDS = "Holds"
    HOLDS_BOUNDED = "HoldsBounded"
    FAILS = "Fails"
    UNKNOWN = "Unknown"


class PropertyCertificate(NamedTuple):
    """How a structural property was settled; true when it holds."""

    prop: PropertyId
    status: PropertyStatus
    method: str
    witness: Optional[tuple] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status in (PropertyStatus.HOLDS, PropertyStatus.HOLDS_BOUNDED)

    def describe(self) -> str:
        inner = self.method if not self.detail else f"{self.method}; {self.detail}"
        if self.witness:
            shown = ",".join(render(t) for t in self.witness)
            inner = f"{inner}; witness {shown}"
        return f"{self.status.value}({inner})"


# the designated terms each property needs
_NEEDS = {
    PropertyId.S4A: "binary/unit",
    PropertyId.T4A: "binary/unit",
    **dict.fromkeys(
        (PropertyId.S4B, PropertyId.V1, PropertyId.P1, PropertyId.P2,
         PropertyId.T4B, PropertyId.P3, PropertyId.V3),
        "binary",
    ),
}


def _b12(entry: TheoryEntry) -> Term:
    return entry.binary_at(Var("x1"), Var("x2"))


# class-based properties: the probed class (None: every class with a closed
# member), the test every member's variable names must pass, the failure
# detail, and the fewest variables a counterexample needs: an open term
# (S1/T1), a second variable for a foreign variable or for b(x1,x2) itself
# (S2/T2/V2/V3), a third variable (P3)
_CLOSED_STAYS_CLOSED = (
    lambda entry: None, lambda names: not names, "open term in a closed term's class", 1
)
_VAR_STAYS_ITSELF = (
    lambda entry: Var("x1"), lambda names: names <= {"x1"},
    "foreign variable in a variable's class", 2,
)
_CLASS_PROPERTIES = {
    PropertyId.S1: _CLOSED_STAYS_CLOSED,
    PropertyId.T1: _CLOSED_STAYS_CLOSED,
    PropertyId.S2: _VAR_STAYS_ITSELF,
    PropertyId.T2: _VAR_STAYS_ITSELF,
    PropertyId.V2: _VAR_STAYS_ITSELF,
    PropertyId.P3: (
        _b12, lambda names: len(names) <= 2, "class member with more than 2 variables", 3
    ),
    PropertyId.V3: (
        _b12, lambda names: len(names) >= 2, "class member inside a single variable", 2
    ),
}


def _class_map(entry: TheoryEntry, depth: int, num_vars: int):
    """key -> {variable bitmask -> first witness term}, for the whole bounded
    term universe (atoms: x1..xk plus the signature constants)."""
    cache_key = (depth, num_vars)
    cached = entry._class_maps.get(cache_key)
    if cached is not None:
        return cached
    sig = entry.presentation.signature
    atoms: list[Term] = [Var(f"x{i + 1}") for i in range(num_vars)]
    atoms += [App(c, ()) for c in sig.constants]
    proc = procedure_for(entry.theory_id)
    if proc is None:
        classes = _classes_by_rewrite(entry, atoms, depth)
    else:
        classes = classes_by_closure(sig, proc, atoms, depth)
    entry._class_maps[cache_key] = classes
    return classes


def _classes_by_rewrite(entry: TheoryEntry, atoms: list[Term], depth: int):
    """Fallback for theories without a registered procedure: approximate the
    classes by closing one-step rewrites inside the bounded universe. Classes
    may be under-merged, which bounded certificates are allowed to be."""
    universe = list(enumerate_terms(entry.presentation.signature, atoms, depth))
    reps = rewrite_components(Rewriter(entry.presentation, atoms), universe)
    var_index = {v.name: i for i, v in enumerate(a for a in atoms if isinstance(a, Var))}
    classes: dict[Hashable, dict[int, Term]] = {}
    for t, root in zip(universe, reps):
        bits = 0
        for v in term_vars(t):
            bits |= 1 << var_index[v]
        classes.setdefault(root, {}).setdefault(bits, t)
    return classes


def _key_of(entry: TheoryEntry, term: Term, depth: int, num_vars: int):
    proc = procedure_for(entry.theory_id)
    if proc is not None:
        return proc.term_key(term)
    # fallback classes are keyed by rewrite-class representative; locate the
    # term's class
    classes = _class_map(entry, depth, num_vars)
    for key, bucket in classes.items():
        for witness in bucket.values():
            if witness == term:
                return key
    for key, bucket in classes.items():
        for witness in bucket.values():
            res = eq_bounded(entry.presentation, term, witness, depth=depth)
            if res.status is EqStatus.EQUAL:
                return key
    return None


def decide(entry: TheoryEntry, t1: Term, t2: Term, depth: int):
    """(verdict, exact) for t1 = t2: verdict is True/False/None, and exact
    means the registered procedure answered (so False is a refutation);
    otherwise a proof search to `depth` can only prove."""
    if entry.has_procedure:
        return decide_eq(entry.theory_id, t1, t2), True
    res = eq_bounded(entry.presentation, t1, t2, depth=depth)
    return (True if res.status is EqStatus.EQUAL else None), False


def check_property(
    entry: TheoryEntry,
    prop: PropertyId,
    depth: int = 3,
    num_vars: int = 4,
) -> PropertyCertificate:
    """Certificate for one structural property of the theory.

    S1/T1: the class of a closed term contains only closed terms.
    S2/T2/V2: the class of a bare variable stays inside that variable.
    S3: every operation of arity >= 1 has a constant acting as a unit in
        every argument position (vacuous without such operations).
    S4a/T4a: the designated binary has the designated unit on both sides.
    S4b/V1: the designated binary is idempotent.
    T3: the signature contains a constant.
    T4b: the designated binary abides with itself (the 2x2 interchange).
    P1/P2: the designated binary is commutative / idempotent on variables.
    P3: members of the class of b(x1,x2) use at most 2 distinct variables.
    V3: every member of the class of b(x1,x2) uses at least 2 variables.

    Class-based properties (S1/T1, S2/T2/V2, P3, V3) are settled by
    `class_var_claim`, the one place where class-variable claims and the
    rules for a bounded search that proves nothing live: exact for a regular
    presentation whatever the bounds, otherwise bounded by (depth,
    num_vars) and Unknown when those bounds cannot hold a counterexample.
    T3 is syntactic; the rest are settled by `decide` on equations between
    designated terms (S3: on the unit laws of the constants), exactly when a
    decision procedure is registered and by bounded proof search otherwise.
    """
    cache_key = (prop, depth, num_vars)
    cached = entry._certificates.get(cache_key)
    if cached is not None:
        return cached
    cert = _check_property(entry, prop, depth, num_vars)
    entry._certificates[cache_key] = cert
    return cert


def _check_property(entry, prop, depth, num_vars) -> PropertyCertificate:
    exact = entry.has_procedure
    exact_method = "analytic via decide_eq" if exact else f"eq_bounded depth={depth}"
    holds = PropertyStatus.HOLDS if exact else PropertyStatus.HOLDS_BOUNDED
    sig = entry.presentation.signature

    if prop is PropertyId.T3:
        has = bool(sig.constants)
        return PropertyCertificate(
            prop,
            PropertyStatus.HOLDS if has else PropertyStatus.FAILS,
            "syntactic",
            detail="" if has else "signature has no constants",
        )

    if prop is PropertyId.S3:
        builders = [op for op in sig.ops if op.arity >= 1]
        if not builders:
            return PropertyCertificate(
                prop, PropertyStatus.HOLDS, "vacuous", detail="no operations of arity >= 1"
            )
        if not sig.constants:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, "syntactic", detail="no constants to act as units"
            )
        all_bounded_ok = True
        x = Var("x")
        for op in builders:
            for c in sig.constants:
                units = (App(c, ()),) * op.arity
                if all(
                    decide(entry, App(op, units[:pos] + (x,) + units[pos + 1 :]), x, depth)[0]
                    is True
                    for pos in range(op.arity)
                ):
                    break
            else:
                if exact:
                    return PropertyCertificate(
                        prop, PropertyStatus.FAILS, exact_method,
                        detail=f"no unit constant for {op.name}/{op.arity}",
                    )
                all_bounded_ok = False
        if all_bounded_ok:
            return PropertyCertificate(prop, holds, exact_method)
        return PropertyCertificate(prop, PropertyStatus.UNKNOWN, exact_method)

    needs = _NEEDS.get(prop)
    if needs and (entry.designated_binary is None
                  or needs == "binary/unit" and entry.designated_unit is None):
        return PropertyCertificate(
            prop, PropertyStatus.FAILS, "syntactic", detail=f"no designated {needs}"
        )

    if prop in _CLASS_PROPERTIES:
        return _class_certificate(entry, prop, depth, num_vars, class_var_claim)

    if prop is PropertyId.T4B:
        # holds when the interchange law is NOT provable, so a bounded proof
        # of the law refutes it while only an exact procedure can confirm it
        lhs, rhs = _interchange(entry)
        verdict = decide(entry, lhs, rhs, depth)[0]
        if verdict:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, exact_method, (lhs,),
                "interchange law is provable",
            )
        status = PropertyStatus.HOLDS if verdict is False else PropertyStatus.UNKNOWN
        return PropertyCertificate(prop, status, exact_method)

    b, u = entry.binary_at, entry.designated_unit
    x, x1, x2 = Var("x"), Var("x1"), Var("x2")
    if prop in (PropertyId.S4A, PropertyId.T4A):
        equations = ((b(u, x), x), (b(x, u), x))
    elif prop is PropertyId.P1:
        equations = ((b(x1, x2), b(x2, x1)),)
    else:  # S4b, V1, P2: idempotence
        equations = ((b(x, x), x),)
    settled = True
    for lhs, rhs in equations:
        verdict = decide(entry, lhs, rhs, depth)[0]
        if verdict is False:
            return PropertyCertificate(prop, PropertyStatus.FAILS, exact_method, (lhs, rhs))
        settled = settled and verdict
    status = holds if settled else PropertyStatus.UNKNOWN
    return PropertyCertificate(prop, status, exact_method)


def _regular(entry: TheoryEntry) -> bool:
    """Both sides of every axiom have the same variables."""
    return all(term_vars(eq.lhs) == term_vars(eq.rhs) for eq in entry.presentation.equations)


def class_vars(entry: TheoryEntry, term: Term) -> Optional[frozenset[str]]:
    """The variables that every member of `term`'s class contains, exactly.

    Known when the presentation is regular (both sides of every axiom have
    the same variables): reflexivity, symmetry, transitivity, congruence and
    instances of regular axioms all preserve the variable set, so it is the
    term's own (Baader & Nipkow, Term Rewriting and All That, 1998). None
    when the presentation is not regular.
    """
    return term_vars(term) if _regular(entry) else None


_REGULAR = "regular presentation"


def class_var_claim(
    entry: TheoryEntry, term: Optional[Term], fits, need: int, depth: int, num_vars: int
) -> tuple:
    """Whether every member of `term`'s class has a set of variable names
    that `fits`; when `term` is None, every member of every class with a
    closed member. The one place where class-variable claims are settled.

    Returns (verdict, method, witness, why). The verdict is True, False, or
    None when the claim is not settled. A regular presentation settles it
    exactly (`class_vars`), and a failing witness is (`term`,). Otherwise the
    bounded class map is searched (`_class_var_search`).
    """
    if not _regular(entry):
        return _class_var_search(entry, term, fits, need, depth, num_vars)
    ok = fits(frozenset() if term is None else term_vars(term))
    return ok, _REGULAR, None if ok else (term,), ""


def _class_var_search(entry, term, fits, need, depth, num_vars) -> tuple:
    """`class_var_claim` over the class map of (depth, num_vars), for any
    presentation. A failing witness is (class representative, member).
    Finding no counterexample in a universe that cannot hold one settles
    nothing: not when `term` has no class there, not at depth 0 (atoms
    only), and not when its terms have fewer than `need` variables, the
    fewest a member that does not fit has."""
    method = f"depth={depth},vars={num_vars}"
    classes = _class_map(entry, depth, num_vars)
    if term is None:
        searched = ((bucket[0], bucket) for bucket in classes.values() if 0 in bucket)
    else:
        bucket = classes.get(_key_of(entry, term, depth, num_vars))
        if bucket is None:
            return None, method, None, f"{render(term)} has no class in the bounded universe"
        searched = ((term, bucket),)
    for rep, bucket in searched:
        for member in bucket.values():
            if not fits(term_vars(member)):
                return False, method, (rep, member), ""
    if depth < 1:
        return None, method, None, "a counterexample needs depth >= 1"
    # depth d allows arity**d leaves
    arity = max([1, *(op.arity for op in entry.presentation.signature.ops)])
    most = min(num_vars, arity ** depth)
    if most < need:
        why = f"a counterexample needs {need} variables, terms in bounds have at most {most}"
        return None, method, None, why
    return True, method, None, ""


def _class_certificate(entry, prop, depth, num_vars, settle) -> PropertyCertificate:
    """A class-based property's certificate from `settle`: `class_var_claim`,
    or `_class_var_search` for the bounded certificate alone."""
    probe, fits, detail, need = _CLASS_PROPERTIES[prop]
    verdict, method, witness, why = settle(entry, probe(entry), fits, need, depth, num_vars)
    exact = method == _REGULAR
    if verdict is None:
        return PropertyCertificate(prop, PropertyStatus.UNKNOWN, method, detail=why)
    if verdict:
        status = PropertyStatus.HOLDS if exact else PropertyStatus.HOLDS_BOUNDED
        return PropertyCertificate(prop, status, method)
    if exact:  # every member has the one failing variable set
        detail = detail.replace("class member", "class")
    return PropertyCertificate(prop, PropertyStatus.FAILS, method, witness, detail)


def _check_bounded_property(entry, prop, depth, num_vars) -> PropertyCertificate:
    """The bounded certificate of a class-based property, whatever the
    presentation: the reference the regular path is tested against."""
    return _class_certificate(entry, prop, depth, num_vars, _class_var_search)


def _interchange(entry: TheoryEntry) -> tuple[Term, Term]:
    """(y1*y2)*(y3*y4) = (y1*y3)*(y2*y4) over the designated binary."""
    b = entry.binary_at
    y1, y2, y3, y4 = (Var(f"y{i}") for i in (1, 2, 3, 4))
    return b(b(y1, y2), b(y3, y4)), b(b(y1, y3), b(y2, y4))


def abides_holds(entry: TheoryEntry, depth: int = 3) -> bool:
    """Whether the designated binary satisfies the 2x2 interchange law."""
    if entry.designated_binary is None:
        return False
    return decide(entry, *_interchange(entry), depth)[0] is True


class ProcedureValidation(NamedTuple):
    """Outcome of cross-checking a decision procedure against the axioms."""

    theory_id: str
    term_count: int
    class_count: int
    soundness_violations: list
    disconnected_classes: list

    @property
    def ok(self) -> bool:
        return not self.soundness_violations and not self.disconnected_classes


def validate_procedure_against_rewrites(
    entry: TheoryEntry,
    depth: int = 3,
    num_vars: int = 2,
) -> ProcedureValidation:
    """Exhaustively compare decide_eq classes with rewrite-derived classes.

    Universe: every term of depth <= depth over bare variables x1..xk
    (constants enter through rewrites, not as leaves). Soundness: each
    one-step rewrite of a universe term must preserve the procedure key, even
    when the rewrite leaves the universe. Completeness: within each procedure
    class, the members must be connected by in-universe one-step rewrites,
    with eq_bounded allowed to bridge residual components (its proofs may
    pass through terms outside the universe).
    """
    proc = procedure_for(entry.theory_id)
    if proc is None:
        raise NoProcedureError(f"no procedure to validate for {entry.theory_id!r}")
    pres = entry.presentation
    atoms = [Var(f"x{i + 1}") for i in range(num_vars)]
    universe = list(enumerate_terms(pres.signature, atoms, depth))
    rewriter = Rewriter(pres, atoms + [App(c, ()) for c in pres.signature.constants])

    key_memo: dict[Term, Hashable] = {}

    def key_of(t: Term) -> Hashable:
        k = key_memo.get(t)
        if k is None:
            if isinstance(t, Var):
                k = proc.var_key(t.name)
            else:
                k = proc.app_key(t.op, tuple(key_of(a) for a in t.args))
            key_memo[t] = k
        return k

    # Soundness needs root positions only: procedures are compositional, so a
    # key change under a context implies a key change at the rewritten root.
    soundness: list = []
    for t in universe:
        kt = key_of(t)
        for u in rewriter.at_root(t):
            if key_of(u) != kt:
                soundness.append((t, u))

    reps = rewrite_components(rewriter, universe)
    by_key: dict[Hashable, dict[int, list[int]]] = {}
    for i, t in enumerate(universe):
        by_key.setdefault(key_of(t), {}).setdefault(reps[i], []).append(i)

    disconnected: list = []
    for key, components in by_key.items():
        if len(components) == 1:
            continue
        merged, *pending = sorted(components.values(), key=len, reverse=True)
        progress = True
        while pending and progress:
            progress = False
            still: list[list[int]] = []
            for comp in pending:
                if _bridge(pres, universe, merged, comp):
                    merged = merged + comp
                    progress = True
                else:
                    still.append(comp)
            pending = still
        if pending:
            disconnected.append(
                (key, universe[merged[0]], [universe[c[0]] for c in pending])
            )
    return ProcedureValidation(
        entry.theory_id, len(universe), len(by_key), soundness, disconnected
    )


# eq_bounded settings for joining rewrite components of one procedure class
_BRIDGE_DEPTH = 3
_BRIDGE_PAIR_LIMIT = 400


def _bridge(pres, universe, comp_a, comp_b) -> bool:
    pairs = itertools.islice(itertools.product(comp_a, comp_b), _BRIDGE_PAIR_LIMIT)
    return any(eq_bounded(pres, universe[i], universe[j], depth=_BRIDGE_DEPTH)
               for i, j in pairs)


# ---------------------------------------------------------------------------
# registration of the built-in theories


def _register_boom() -> None:
    letters = {"T": (), "I": ("idem",), "C": ("comm",), "CI": ("comm", "idem"),
               "L": ("assoc",), "AI": ("assoc", "idem"), "M": ("assoc", "comm"),
               "P": ("assoc", "comm", "idem")}
    word_aliases = {
        "boom:U---": ("tree", "magma-unit"),
        "boom:U--I": (),
        "boom:U-C-": (),
        "boom:U-CI": (),
        "boom:UA--": ("monoid",),
        "boom:UA-I": ("unital-band",),
        "boom:UAC-": ("comm-monoid",),
        "boom:UACI": ("jsl",),
        "boom:----": ("magma",),
        "boom:---I": (),
        "boom:--C-": (),
        "boom:--CI": (),
        "boom:-A--": ("semigroup",),
        "boom:-A-I": ("band",),
        "boom:-AC-": ("comm-semigroup",),
        "boom:-ACI": ("nonempty-jsl",),
    }
    for label, names in letters.items():
        for unital in (True, False):
            flags = BoomFlags(
                unital=unital,
                assoc="assoc" in names,
                comm="comm" in names,
                idem="idem" in names,
            )
            pres = boom_theory(flags)
            sig = pres.signature
            display = label if unital else label + "+"
            entry = TheoryEntry(
                theory_id=flags.theory_id,
                presentation=pres,
                label=display,
                designated_binary=parse_term("mul(y1,y2)", sig),
                designated_unit=parse_term("e", sig) if unital else None,
                aliases=(display,) + word_aliases[flags.theory_id],
            )
            register_theory(entry, _boom_procedure(flags))


def exception_labels(name: str) -> Optional[tuple[str, ...]]:
    """The sorted distinct labels of an `exception:{a,b}` id, blanks and
    surrounding spaces dropped; None when `name` is not of that form. The
    theory and monad registries both read exception ids through this."""
    if not (name.startswith("exception:{") and name.endswith("}")):
        return None
    return tuple(sorted({x.strip() for x in name[len("exception:{") : -1].split(",")} - {""}))


def exception_theory(labels: Iterable[str]) -> TheoryEntry:
    labels = tuple(sorted(set(labels)))
    tid = "exception:{" + ",".join(labels) + "}"
    if tid in _REGISTRY:
        return _REGISTRY[tid]
    pres = presentation(tid, ((lbl, 0) for lbl in labels), ())
    entry = TheoryEntry(theory_id=tid, presentation=pres, label=tid)
    return register_theory(entry, SyntacticProc())


def narytree_theory(n: int) -> TheoryEntry:
    """Unital n-ary node algebra: pruning any single child through units."""
    tid = f"narytree-theory:{n}"
    if tid in _REGISTRY:
        return _REGISTRY[tid]
    axioms = []
    for pos in range(n):
        args = ["e"] * n
        args[pos] = "x"
        axioms.append((f"node({','.join(args)})", "x", f"prune{pos}"))
    pres = presentation(tid, (("node", n), ("e", 0)), axioms)
    sig = pres.signature
    entry = TheoryEntry(
        theory_id=tid,
        presentation=pres,
        label=tid,
        # a two-sided unital binary term derived from the n-ary operation
        designated_binary=parse_term("node(y1,y2" + ",e" * (n - 2) + ")", sig),
        designated_unit=parse_term("e", sig),
    )
    return register_theory(entry, TreeProc(OpSymbol("node", n)))


def ring_entry() -> TheoryEntry:
    """Noncommutative unital rings. Not in the default registry; used as a
    worked example for the constant-counting obstruction. The annihilation
    axioms are derivable but registered so bounded rewrite search can use
    them directly."""
    pres = presentation(
        "ring",
        (("plus", 2), ("times", 2), ("neg", 1), ("zero", 0), ("one", 0)),
        (
            ("plus(plus(x,y),z)", "plus(x,plus(y,z))", "plus-assoc"),
            ("plus(x,y)", "plus(y,x)", "plus-comm"),
            ("plus(zero,x)", "x", "plus-unitl"),
            ("plus(x,neg(x))", "zero", "plus-invr"),
            ("times(times(x,y),z)", "times(x,times(y,z))", "times-assoc"),
            ("times(one,x)", "x", "times-unitl"),
            ("times(x,one)", "x", "times-unitr"),
            ("times(x,plus(y,z))", "plus(times(x,y),times(x,z))", "distl"),
            ("times(plus(x,y),z)", "plus(times(x,z),times(y,z))", "distr"),
            ("times(x,zero)", "zero", "annr"),
            ("times(zero,x)", "zero", "annl"),
        ),
    )
    sig = pres.signature
    entry = TheoryEntry(
        theory_id="ring",
        presentation=pres,
        label="ring",
        designated_binary=parse_term("times(y1,y2)", sig),
        designated_unit=parse_term("one", sig),
    )
    if procedure_for("ring") is None:
        register_procedure("ring", RingProc())
    return entry


def _register_rest() -> None:
    pointed = presentation("pointed", (("bot", 0),), ())
    register_theory(
        TheoryEntry(theory_id="pointed", presentation=pointed, label="pointed"),
        SyntacticProc(),
    )

    exception_theory(("a",))
    exception_theory(("a", "b"))

    abgroup = presentation(
        "abgroup",
        (("mul", 2), ("inv", 1), ("e", 0)),
        (
            ("mul(e,x)", "x", "unitl"),
            ("mul(x,e)", "x", "unitr"),
            ("mul(mul(x,y),z)", "mul(x,mul(y,z))", "assoc"),
            ("mul(x,y)", "mul(y,x)", "comm"),
            ("mul(x,inv(x))", "e", "invr"),
            ("mul(inv(x),x)", "e", "invl"),
            # consequences of the above, registered so the bounded rewrite
            # closure can reach them without deep detours
            ("inv(inv(x))", "x", "inv-inv"),
            ("inv(mul(x,y))", "mul(inv(x),inv(y))", "inv-mul"),
            ("inv(e)", "e", "inv-unit"),
        ),
    )
    ab_sig = abgroup.signature
    register_theory(
        TheoryEntry(
            theory_id="abgroup",
            presentation=abgroup,
            label="abgroup",
            designated_binary=parse_term("mul(y1,y2)", ab_sig),
            designated_unit=parse_term("e", ab_sig),
        ),
        AbGroupProc(),
    )

    convex = presentation(
        "convex",
        (("mix", 2),),
        (
            ("mix(x,x)", "x", "idem"),
            ("mix(x,y)", "mix(y,x)", "comm"),
            ("mix(mix(a,b),mix(c,d))", "mix(mix(a,c),mix(b,d))", "medial"),
        ),
    )
    register_theory(
        TheoryEntry(
            theory_id="convex",
            presentation=convex,
            label="convex",
            designated_binary=parse_term("mix(y1,y2)", convex.signature),
        ),
        ConvexProc(),
    )

    reader = presentation(
        "reader:2",
        (("mul", 2),),
        (
            ("mul(x,x)", "x", "idem"),
            ("mul(mul(w,x),mul(y,z))", "mul(w,z)", "outer"),
        ),
    )
    register_theory(
        TheoryEntry(
            theory_id="reader:2",
            presentation=reader,
            label="reader:2",
            designated_binary=parse_term("mul(y1,y2)", reader.signature),
        ),
        ReaderProc(),
    )


def load_theory_file(path: str) -> TheoryEntry:
    """Register a theory from a JSON definition file.

    Shape: {"id": ..., "ops": [[name, arity], ...],
            "axioms": [[lhs, rhs, name?], ...],
            "designated_binary": term?, "designated_unit": term?,
            "label": ?, "aliases": [...]}.
    Loaded theories have no decision procedure, so exact properties degrade
    to bounded proof search. Class-based properties stay exact when the
    presentation is regular and otherwise read classes approximated by
    rewrite closure.
    """
    import json

    with open(path) as fh:
        raw = json.load(fh)
    pres = presentation(
        raw["id"],
        ((name, int(arity)) for name, arity in raw["ops"]),
        ((item[0], item[1], item[2] if len(item) > 2 else "") for item in raw.get("axioms", ())),
    )
    sig = pres.signature
    entry = TheoryEntry(
        theory_id=raw["id"],
        presentation=pres,
        label=raw.get("label", raw["id"]),
        designated_binary=(
            parse_term(raw["designated_binary"], sig) if raw.get("designated_binary") else None
        ),
        designated_unit=(
            parse_term(raw["designated_unit"], sig) if raw.get("designated_unit") else None
        ),
        aliases=tuple(raw.get("aliases", ())),
    )
    return register_theory(entry)


# table label orders, smallest to largest fragment
BOOM_ORIGINAL = ("T", "L", "M", "P")
BOOM_EXTENDED = ("T", "I", "C", "CI", "L", "AI", "M", "P")
BOOM_FULL = BOOM_EXTENDED + tuple(label + "+" for label in BOOM_EXTENDED)

_register_boom()
_register_rest()
