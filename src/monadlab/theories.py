"""Equational theories: registry, decision procedures, property certificates.

Each registered theory bundles a finite presentation with an exact decision
procedure for provable equality (registered into `monadlab.terms`), optional
designated operations (a binary term over y1,y2 and a unit), and cached
property certificates. The bounded structural properties are computed by
streaming the whole term universe once per (depth, vars) bound and folding it
into a class map; the exact properties go through decide_eq on specific terms.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Hashable, Iterable, Optional

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
    decide_eq,
    enumerate_terms,
    eq_bounded,
    match,
    parse_term,
    procedure_for,
    register_procedure,
    render,
    rewrite_steps,
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
    "class_members",
    "abides_holds",
    "ProcedureValidation",
    "validate_procedure_against_rewrites",
    "register_theory",
    "lookup_theory",
    "theory_ids",
    "registry",
    "load_theory_file",
    "exception_theory",
    "narytree_theory",
    "ring_entry",
    "BOOM_ORIGINAL",
    "BOOM_EXTENDED",
    "BOOM_FULL",
]


# ---------------------------------------------------------------------------
# Boom-style presentations: one binary operation, flag-selected axioms


@dataclass(frozen=True)
class BoomFlags:
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


def boom_theory(flags: BoomFlags) -> Presentation:
    """Presentation with exactly the flagged axioms over mul (and e if unital)."""
    ops: list[tuple[str, int]] = [("mul", 2)]
    if flags.unital:
        ops.append(("e", 0))
    sig = signature(*ops)
    axioms: list[Equation] = []

    def ax(lhs: str, rhs: str, name: str) -> None:
        axioms.append(Equation(parse_term(lhs, sig), parse_term(rhs, sig), name))

    if flags.unital:
        ax("mul(e,x)", "x", "unitl")
        ax("mul(x,e)", "x", "unitr")
    if flags.assoc:
        ax("mul(mul(x,y),z)", "mul(x,mul(y,z))", "assoc")
    if flags.comm:
        ax("mul(x,y)", "mul(y,x)", "comm")
    if flags.idem:
        ax("mul(x,x)", "x", "idem")
    return Presentation(flags.theory_id, sig, tuple(axioms))


# ---------------------------------------------------------------------------
# decision procedures

_UNIT_KEY = ("e",)


class WordProc(Procedure):
    """Free monoid / semigroup: terms evaluate to words of variable names."""

    def __init__(self, op_name: str = "mul", unit_name: str = "e"):
        self.op_name = op_name
        self.unit_name = unit_name

    def var_key(self, name: str) -> Hashable:
        return (name,)

    def app_key(self, op: OpSymbol, child_keys: tuple) -> Hashable:
        if op.name == self.unit_name:
            return ()
        word: tuple = ()
        for part in child_keys:
            word += part
        return word

    def reify(self, key) -> Optional[Term]:
        return _fold_word(key, self.op_name, self.unit_name)


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

    def __init__(self, unit_name: str = "e"):
        self.unit_name = unit_name
        self._rep: dict[Hashable, tuple[str, ...]] = {}
        self._memo: dict[tuple[str, ...], Hashable] = {}

    def var_key(self, name: str) -> Hashable:
        return self._intern((name,))

    def app_key(self, op, child_keys):
        if op.name == self.unit_name:
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
    """Non-associative Boom flavors: bottom-up canonical trees.

    Prune units, collapse equal children under idempotence, order children
    under commutativity. Each rewrite system involved is terminating with
    joinable critical pairs, so innermost normalization decides equality.
    """

    def __init__(self, unital: bool, comm: bool, idem: bool,
                 op_name: str = "mul", unit_name: str = "e"):
        self.unital = unital
        self.comm = comm
        self.idem = idem
        self.op_name = op_name
        self.unit_name = unit_name

    def var_key(self, name: str) -> Hashable:
        return ("v", name)

    def app_key(self, op, child_keys):
        if op.name == self.unit_name:
            return _UNIT_KEY
        a, b = child_keys
        if self.unital:
            if a == _UNIT_KEY:
                return b
            if b == _UNIT_KEY:
                return a
        if self.idem and a == b:
            return a
        if self.comm and b < a:
            a, b = b, a
        return ("n", a, b)

    def reify(self, key) -> Optional[Term]:
        if key == _UNIT_KEY:
            return App(OpSymbol(self.unit_name, 0), ())
        if key[0] == "v":
            return Var(key[1])
        op = OpSymbol(self.op_name, 2)
        return App(op, (self.reify(key[1]), self.reify(key[2])))


class NaryTreeProc(Procedure):
    """Unital n-ary trees: prune nodes where all but one child is the unit."""

    def __init__(self, n: int, op_name: str = "node", unit_name: str = "e"):
        self.n = n
        self.op_name = op_name
        self.unit_name = unit_name

    def var_key(self, name):
        return ("v", name)

    def app_key(self, op, child_keys):
        if op.name == self.unit_name:
            return _UNIT_KEY
        proper = [k for k in child_keys if k != _UNIT_KEY]
        if not proper:
            return _UNIT_KEY
        if len(proper) == 1:
            return proper[0]
        return ("n",) + tuple(child_keys)

    def reify(self, key):
        if key == _UNIT_KEY:
            return App(OpSymbol(self.unit_name, 0), ())
        if key[0] == "v":
            return Var(key[1])
        op = OpSymbol(self.op_name, self.n)
        return App(op, tuple(self.reify(k) for k in key[1:]))


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
        out = factors[-1]
        for t in reversed(factors[:-1]):
            out = App(mul, (t, out))
        return out


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
            out: Term = Var(word[-1])
            for n in reversed(word[:-1]):
                out = App(times, (Var(n), out))
            return out

        parts: list[Term] = []
        for word, c in key:
            base = monomial(word)
            if c < 0:
                base = App(neg, (base,))
            parts.extend([base] * abs(c))
        out = parts[-1]
        for t in reversed(parts[:-1]):
            out = App(plus, (t, out))
        return out


def _fold_word(word: tuple, op_name: str, unit_name: str) -> Term:
    if not word:
        return App(OpSymbol(unit_name, 0), ())
    op = OpSymbol(op_name, 2)
    out: Term = Var(word[-1])
    for name in reversed(word[:-1]):
        out = App(op, (Var(name), out))
    return out


def _boom_procedure(flags: BoomFlags) -> Procedure:
    if flags.assoc:
        if flags.idem and not flags.comm:
            return BandProc()
        if flags.comm and flags.idem:
            return SetProc()
        if flags.comm:
            return MultisetProc()
        return WordProc()
    return TreeProc(flags.unital, flags.comm, flags.idem)


# ---------------------------------------------------------------------------
# theory entries and registry


@dataclass
class TheoryEntry:
    theory_id: str
    presentation: Presentation
    label: str
    designated_binary: Optional[Term] = None  # term over variables y1, y2
    designated_unit: Optional[Term] = None  # closed term
    aliases: tuple[str, ...] = ()
    notes: str = ""
    _certificates: dict = field(default_factory=dict, repr=False)
    _class_maps: dict = field(default_factory=dict, repr=False)

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
    if name.startswith("exception:{") and name.endswith("}"):
        labels = tuple(x.strip() for x in name[len("exception:{") : -1].split(",") if x.strip())
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


@dataclass(frozen=True)
class PropertyCertificate:
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


_BOUNDED = {
    PropertyId.S1,
    PropertyId.S2,
    PropertyId.T1,
    PropertyId.T2,
    PropertyId.P3,
    PropertyId.V2,
    PropertyId.V3,
}


def _class_map(entry: TheoryEntry, depth: int, num_vars: int):
    """key -> {variable bitmask -> first witness term}, for the whole bounded
    term universe (atoms: x1..xk plus the signature constants)."""
    cache_key = (depth, num_vars)
    cached = entry._class_maps.get(cache_key)
    if cached is not None:
        return cached
    proc = procedure_for(entry.theory_id)
    if proc is None:
        classes = _classes_by_rewrite(entry, depth, num_vars)
    else:
        classes = _stream_classes(entry, proc, depth, num_vars)
    entry._class_maps[cache_key] = classes
    return classes


def _stream_classes(entry: TheoryEntry, proc: Procedure, depth: int, num_vars: int):
    sig = entry.presentation.signature
    atoms: list[tuple[Term, Hashable, int]] = []
    for i in range(num_vars):
        name = f"x{i + 1}"
        atoms.append((Var(name), proc.var_key(name), 1 << i))
    for c in sig.constants:
        atoms.append((App(c, ()), proc.app_key(c, ()), 0))

    classes: dict[Hashable, dict[int, Term]] = {}

    def record(term_thunk, key, bits):
        bucket = classes.setdefault(key, {})
        if bits not in bucket:
            bucket[bits] = term_thunk()

    for term, key, bits in atoms:
        record(lambda t=term: t, key, bits)

    builders = [op for op in sig.ops if op.arity >= 1]
    pool = list(atoms)
    newest_from = 0
    for level in range(1, depth + 1):
        fresh: list[tuple[Term, Hashable, int]] = []
        for op in builders:
            for combo in itertools.product(range(len(pool)), repeat=op.arity):
                if max(combo) < newest_from:
                    continue  # all children too shallow; already generated
                picked = [pool[i] for i in combo]
                key = proc.app_key(op, tuple(p[1] for p in picked))
                bits = 0
                for p in picked:
                    bits |= p[2]

                def thunk(op=op, picked=picked):
                    return App(op, tuple(p[0] for p in picked))

                record(thunk, key, bits)
                if level < depth:
                    fresh.append((thunk(), key, bits))
        if level < depth:
            newest_from = len(pool)
            pool.extend(fresh)
    return classes


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _classes_by_rewrite(entry: TheoryEntry, depth: int, num_vars: int):
    """Fallback for theories without a registered procedure: approximate the
    classes by closing one-step rewrites inside the bounded universe. Classes
    may be under-merged, which bounded certificates are allowed to be."""
    sig = entry.presentation.signature
    atoms: list[Term] = [Var(f"x{i + 1}") for i in range(num_vars)]
    atoms += [App(c, ()) for c in sig.constants]
    universe = list(enumerate_terms(sig, atoms, depth))
    index = {t: i for i, t in enumerate(universe)}
    uf = _UnionFind(len(universe))
    pool = tuple(atoms)
    for t, i in index.items():
        for u in rewrite_steps(entry.presentation, t, pool):
            j = index.get(u)
            if j is not None:
                uf.union(i, j)
    var_index = {f"x{i + 1}": i for i in range(num_vars)}
    classes: dict[Hashable, dict[int, Term]] = {}
    for t, i in index.items():
        bits = 0
        for v in term_vars(t):
            if v in var_index:
                bits |= 1 << var_index[v]
        bucket = classes.setdefault(uf.find(i), {})
        bucket.setdefault(bits, t)
    return classes


def _key_of(entry: TheoryEntry, term: Term, depth: int, num_vars: int):
    proc = procedure_for(entry.theory_id)
    if proc is not None:
        return proc.term_key(term)
    # fallback classes are keyed by union-find root; locate the term's class
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


def _decide(entry: TheoryEntry, t1: Term, t2: Term, depth: int):
    """(verdict, exact) where verdict is True/False/None and exact means the
    registered procedure answered (so False is a refutation)."""
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
    V3: no member of the class of b(x1,x2) fits inside a single variable.

    Class-based properties are bounded by (depth, num_vars); the rest are
    exact when a decision procedure is registered and fall back to bounded
    proof search otherwise.
    """
    cache_key = (prop, depth, num_vars)
    cached = entry._certificates.get(cache_key)
    if cached is not None:
        return cached
    cert = _check_property(entry, prop, depth, num_vars)
    entry._certificates[cache_key] = cert
    return cert


def _check_property(entry, prop, depth, num_vars) -> PropertyCertificate:
    bounded_method = f"depth={depth},vars={num_vars}"
    exact = entry.has_procedure
    exact_method = "analytic via decide_eq" if exact else f"eq_bounded depth={depth}"

    def exactish(verdict, witness=None, detail=""):
        if verdict is True:
            status = PropertyStatus.HOLDS if exact else PropertyStatus.HOLDS_BOUNDED
            return PropertyCertificate(prop, status, exact_method, detail=detail)
        if verdict is False:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, exact_method, witness, detail
            )
        return PropertyCertificate(prop, PropertyStatus.UNKNOWN, exact_method, detail=detail)

    if prop is PropertyId.T3:
        has = bool(entry.presentation.signature.constants)
        return PropertyCertificate(
            prop,
            PropertyStatus.HOLDS if has else PropertyStatus.FAILS,
            "syntactic",
            detail="" if has else "signature has no constants",
        )

    if prop is PropertyId.S3:
        sig = entry.presentation.signature
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
        for op in builders:
            found = None
            for c in sig.constants:
                unit = App(c, ())
                verdicts = []
                for pos in range(op.arity):
                    args: list[Term] = [unit] * op.arity
                    args[pos] = Var("x")
                    v, was_exact = _decide(entry, App(op, tuple(args)), Var("x"), depth)
                    verdicts.append((v, was_exact))
                if all(v is True for v, _ in verdicts):
                    found = c
                    break
            if found is None:
                if exact:
                    return exactish(False, detail=f"no unit constant for {op.name}/{op.arity}")
                all_bounded_ok = False
        if not exact:
            if all_bounded_ok:
                return PropertyCertificate(prop, PropertyStatus.HOLDS_BOUNDED, exact_method)
            return PropertyCertificate(prop, PropertyStatus.UNKNOWN, exact_method)
        return exactish(True)

    if prop in (PropertyId.S4A, PropertyId.T4A):
        if entry.designated_binary is None or entry.designated_unit is None:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, "syntactic",
                detail="no designated binary/unit",
            )
        u = entry.designated_unit
        x = Var("x")
        left, el = _decide(entry, entry.binary_at(u, x), x, depth)
        right, er = _decide(entry, entry.binary_at(x, u), x, depth)
        if left is True and right is True:
            return exactish(True)
        if left is False or right is False:
            bad = entry.binary_at(u, x) if left is False else entry.binary_at(x, u)
            return exactish(False, witness=(bad, x))
        return exactish(None)

    if prop in (PropertyId.S4B, PropertyId.V1):
        if entry.designated_binary is None:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, "syntactic", detail="no designated binary"
            )
        x = Var("x")
        v, _ = _decide(entry, entry.binary_at(x, x), x, depth)
        return exactish(v, witness=None if v else (entry.binary_at(x, x), x))

    if prop is PropertyId.P1:
        if entry.designated_binary is None:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, "syntactic", detail="no designated binary"
            )
        a, b = Var("x1"), Var("x2")
        v, _ = _decide(entry, entry.binary_at(a, b), entry.binary_at(b, a), depth)
        return exactish(v, witness=None if v else (entry.binary_at(a, b), entry.binary_at(b, a)))

    if prop is PropertyId.P2:
        base = _check_property(entry, PropertyId.S4B, depth, num_vars)
        return dataclasses.replace(base, prop=prop)

    if prop is PropertyId.T4B:
        # holds when the interchange (abides) law is NOT provable, so a
        # bounded proof of the law refutes it while only an exact procedure
        # can confirm it
        if entry.designated_binary is None:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, "syntactic", detail="no designated binary"
            )
        verdict = _abides_verdict(entry, depth)
        if verdict is True:
            ys = [Var(f"y{i}") for i in (1, 2, 3, 4)]
            lhs = entry.binary_at(
                entry.binary_at(ys[0], ys[1]), entry.binary_at(ys[2], ys[3])
            )
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, exact_method, (lhs,),
                "interchange law is provable",
            )
        if verdict is False:
            return PropertyCertificate(prop, PropertyStatus.HOLDS, exact_method)
        return PropertyCertificate(prop, PropertyStatus.UNKNOWN, exact_method)

    if prop in _BOUNDED:
        return _check_bounded_property(entry, prop, depth, num_vars, bounded_method)

    raise ValueError(f"unhandled property {prop}")


def _check_bounded_property(entry, prop, depth, num_vars, method) -> PropertyCertificate:
    classes = _class_map(entry, depth, num_vars)

    if prop in (PropertyId.S1, PropertyId.T1):
        for bucket in classes.values():
            closed = bucket.get(0)
            if closed is None:
                continue
            for bits, witness in bucket.items():
                if bits != 0:
                    return PropertyCertificate(
                        prop, PropertyStatus.FAILS, method, (closed, witness),
                        "open term in a closed term's class",
                    )
        return PropertyCertificate(prop, PropertyStatus.HOLDS_BOUNDED, method)

    if prop in (PropertyId.S2, PropertyId.T2, PropertyId.V2):
        key = _key_of(entry, Var("x1"), depth, num_vars)
        bucket = classes.get(key, {})
        base = next((t for bits, t in bucket.items() if bits == 1), Var("x1"))
        for bits, witness in bucket.items():
            if bits & ~1:
                return PropertyCertificate(
                    prop, PropertyStatus.FAILS, method, (base, witness),
                    "foreign variable in a variable's class",
                )
        return PropertyCertificate(prop, PropertyStatus.HOLDS_BOUNDED, method)

    if prop in (PropertyId.P3, PropertyId.V3):
        if entry.designated_binary is None:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, "syntactic", detail="no designated binary"
            )
        pair = entry.binary_at(Var("x1"), Var("x2"))
        key = _key_of(entry, pair, depth, num_vars)
        bucket = classes.get(key, {})
        for bits, witness in bucket.items():
            if prop is PropertyId.P3 and bits.bit_count() > 2:
                return PropertyCertificate(
                    prop, PropertyStatus.FAILS, method, (pair, witness),
                    "class member with more than 2 variables",
                )
            if prop is PropertyId.V3 and (bits & ~1 == 0 or bits & ~2 == 0):
                return PropertyCertificate(
                    prop, PropertyStatus.FAILS, method, (pair, witness),
                    "class member inside a single variable",
                )
        return PropertyCertificate(prop, PropertyStatus.HOLDS_BOUNDED, method)

    raise ValueError(f"unhandled bounded property {prop}")


def class_members(
    entry: TheoryEntry, term: Term, depth: int = 3, num_vars: int = 4
) -> tuple[tuple[int, Term], ...]:
    """Bounded equivalence class of `term` as (variable-mask, witness) pairs.

    The mask's bit i-1 is set when x{i} occurs in the witness. Only one
    witness per mask is kept; the universe is every term of depth <= depth
    over x1..x{num_vars} and the signature's constants.
    """
    classes = _class_map(entry, depth, num_vars)
    bucket = classes.get(_key_of(entry, term, depth, num_vars), {})
    return tuple(sorted(bucket.items()))


def abides_holds(entry: TheoryEntry, depth: int = 3) -> bool:
    """Whether the designated binary satisfies the 2x2 interchange law."""
    verdict = _abides_verdict(entry, depth)
    return verdict is True


def _abides_verdict(entry: TheoryEntry, depth: int):
    """True/False/None for (y1*y2)*(y3*y4) = (y1*y3)*(y2*y4)."""
    if entry.designated_binary is None:
        return False
    ys = [Var(f"y{i}") for i in (1, 2, 3, 4)]
    lhs = entry.binary_at(entry.binary_at(ys[0], ys[1]), entry.binary_at(ys[2], ys[3]))
    rhs = entry.binary_at(entry.binary_at(ys[0], ys[2]), entry.binary_at(ys[1], ys[3]))
    return _decide(entry, lhs, rhs, depth)[0]


@dataclass
class ProcedureValidation:
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
    bridge_depth: int = 3,
    bridge_pair_limit: int = 400,
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
    pool = tuple(atoms) + tuple(App(c, ()) for c in pres.signature.constants)
    index = {t: i for i, t in enumerate(universe)}

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

    rules: list[tuple[Term, Term]] = []
    for eqn in pres.equations:
        rules.append((eqn.lhs, eqn.rhs))
        rules.append((eqn.rhs, eqn.lhs))

    root_memo: dict[Term, tuple[Term, ...]] = {}

    def root_edges(t: Term) -> tuple[Term, ...]:
        cached = root_memo.get(t)
        if cached is not None:
            return cached
        out: dict[Term, None] = {}
        for pat, repl in rules:
            bindings = match(pat, t)
            if bindings is None:
                continue
            unbound = sorted(term_vars(repl) - bindings.keys())
            for fills in itertools.product(pool, repeat=len(unbound)):
                full = dict(bindings)
                full.update(zip(unbound, fills))
                u = substitute(repl, full)
                if u != t:
                    out.setdefault(u, None)
        result = tuple(out)
        root_memo[t] = result
        return result

    # Soundness needs root positions only: procedures are compositional, so a
    # key change under a context implies a key change at the rewritten root.
    soundness: list = []
    for t in universe:
        kt = key_of(t)
        for u in root_edges(t):
            if key_of(u) != kt:
                soundness.append((t, u))

    # One-step neighbors at arbitrary positions, composing child neighbor
    # lists; memoized for the shallow terms that occur as children.
    depth_memo: dict[Term, int] = {}
    depth_of = {t: _term_depth_memo(t, depth_memo) for t in universe}
    nbr_memo: dict[Term, tuple[Term, ...]] = {}

    def neighbors(t: Term) -> tuple[Term, ...]:
        cached = nbr_memo.get(t)
        if cached is not None:
            return cached
        out = list(root_edges(t))
        if isinstance(t, App):
            for i, child in enumerate(t.args):
                for u in neighbors(child):
                    out.append(App(t.op, t.args[:i] + (u,) + t.args[i + 1 :]))
        result = tuple(out)
        if depth_of.get(t, 0) < depth:
            nbr_memo[t] = result
        return result

    uf = _UnionFind(len(universe))
    for t, i in index.items():
        for u in neighbors(t):
            j = index.get(u)
            if j is not None:
                uf.union(i, j)

    by_key: dict[Hashable, list[int]] = {}
    for i, t in enumerate(universe):
        by_key.setdefault(key_of(t), []).append(i)

    disconnected: list = []
    for key, members in by_key.items():
        components: dict[int, list[int]] = {}
        for i in members:
            components.setdefault(uf.find(i), []).append(i)
        if len(components) == 1:
            continue
        comps = sorted(components.values(), key=len, reverse=True)
        merged = comps[0]
        pending = comps[1:]
        progress = True
        while pending and progress:
            progress = False
            still: list[list[int]] = []
            for comp in pending:
                if _bridge(pres, universe, merged, comp, bridge_depth, bridge_pair_limit):
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


def _term_depth_memo(t: Term, memo: dict) -> int:
    d = memo.get(t)
    if d is None:
        if isinstance(t, Var) or not t.args:
            d = 0
        else:
            d = 1 + max(_term_depth_memo(a, memo) for a in t.args)
        memo[t] = d
    return d


def _bridge(pres, universe, comp_a, comp_b, depth, pair_limit) -> bool:
    tried = 0
    for i in comp_a:
        for j in comp_b:
            if tried >= pair_limit:
                return False
            tried += 1
            if eq_bounded(pres, universe[i], universe[j], depth=depth):
                return True
    return False


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


def exception_theory(labels: Iterable[str]) -> TheoryEntry:
    labels = tuple(sorted(labels))
    tid = "exception:{" + ",".join(labels) + "}"
    if tid in _REGISTRY:
        return _REGISTRY[tid]
    pres = Presentation(tid, signature(*((lbl, 0) for lbl in labels)), ())
    entry = TheoryEntry(theory_id=tid, presentation=pres, label=tid)
    return register_theory(entry, SyntacticProc())


def narytree_theory(n: int) -> TheoryEntry:
    """Unital n-ary node algebra: pruning any single child through units."""
    tid = f"narytree-theory:{n}"
    if tid in _REGISTRY:
        return _REGISTRY[tid]
    sig = signature(("node", n), ("e", 0))
    axioms = []
    for pos in range(n):
        args: list[Term] = [parse_term("e", sig)] * n
        args[pos] = Var("x")
        axioms.append(Equation(App(sig.op("node"), tuple(args)), Var("x"), f"prune{pos}"))
    pres = Presentation(tid, sig, tuple(axioms))
    # a two-sided unital binary term derived from the n-ary operation
    pad = [parse_term("e", sig)] * (n - 2)
    binary = App(sig.op("node"), (Var("y1"), Var("y2"), *pad))
    entry = TheoryEntry(
        theory_id=tid,
        presentation=pres,
        label=tid,
        designated_binary=binary,
        designated_unit=parse_term("e", sig),
    )
    return register_theory(entry, NaryTreeProc(n))


def ring_entry() -> TheoryEntry:
    """Noncommutative unital rings. Not in the default registry; used as a
    worked example for the constant-counting obstruction. The annihilation
    axioms are derivable but registered so bounded rewrite search can use
    them directly."""
    sig = signature(("plus", 2), ("times", 2), ("neg", 1), ("zero", 0), ("one", 0))

    def ax(lhs, rhs, name):
        return Equation(parse_term(lhs, sig), parse_term(rhs, sig), name)

    pres = Presentation(
        "ring",
        sig,
        (
            ax("plus(plus(x,y),z)", "plus(x,plus(y,z))", "plus-assoc"),
            ax("plus(x,y)", "plus(y,x)", "plus-comm"),
            ax("plus(zero,x)", "x", "plus-unitl"),
            ax("plus(x,neg(x))", "zero", "plus-invr"),
            ax("times(times(x,y),z)", "times(x,times(y,z))", "times-assoc"),
            ax("times(one,x)", "x", "times-unitl"),
            ax("times(x,one)", "x", "times-unitr"),
            ax("times(x,plus(y,z))", "plus(times(x,y),times(x,z))", "distl"),
            ax("times(plus(x,y),z)", "plus(times(x,z),times(y,z))", "distr"),
            ax("times(x,zero)", "zero", "annr"),
            ax("times(zero,x)", "zero", "annl"),
        ),
    )
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
    pointed = Presentation("pointed", signature(("bot", 0)), ())
    register_theory(
        TheoryEntry(theory_id="pointed", presentation=pointed, label="pointed"),
        SyntacticProc(),
    )

    exception_theory(("a",))
    exception_theory(("a", "b"))

    ab_sig = signature(("mul", 2), ("inv", 1), ("e", 0))

    def ab(lhs, rhs, name):
        return Equation(parse_term(lhs, ab_sig), parse_term(rhs, ab_sig), name)

    abgroup = Presentation(
        "abgroup",
        ab_sig,
        (
            ab("mul(e,x)", "x", "unitl"),
            ab("mul(x,e)", "x", "unitr"),
            ab("mul(mul(x,y),z)", "mul(x,mul(y,z))", "assoc"),
            ab("mul(x,y)", "mul(y,x)", "comm"),
            ab("mul(x,inv(x))", "e", "invr"),
            ab("mul(inv(x),x)", "e", "invl"),
            # consequences of the above, registered so the bounded rewrite
            # closure can reach them without deep detours
            ab("inv(inv(x))", "x", "inv-inv"),
            ab("inv(mul(x,y))", "mul(inv(x),inv(y))", "inv-mul"),
            ab("inv(e)", "e", "inv-unit"),
        ),
    )
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

    mix_sig = signature(("mix", 2))

    def cv(lhs, rhs, name):
        return Equation(parse_term(lhs, mix_sig), parse_term(rhs, mix_sig), name)

    convex = Presentation(
        "convex",
        mix_sig,
        (
            cv("mix(x,x)", "x", "idem"),
            cv("mix(x,y)", "mix(y,x)", "comm"),
            cv("mix(mix(a,b),mix(c,d))", "mix(mix(a,c),mix(b,d))", "medial"),
        ),
    )

    register_theory(
        TheoryEntry(
            theory_id="convex",
            presentation=convex,
            label="convex",
            designated_binary=parse_term("mix(y1,y2)", mix_sig),
        ),
        ConvexProc(),
    )

    rd_sig = signature(("mul", 2))

    def rd(lhs, rhs, name):
        return Equation(parse_term(lhs, rd_sig), parse_term(rhs, rd_sig), name)

    reader = Presentation(
        "reader:2",
        rd_sig,
        (
            rd("mul(x,x)", "x", "idem"),
            rd("mul(mul(w,x),mul(y,z))", "mul(w,z)", "outer"),
        ),
    )
    register_theory(
        TheoryEntry(
            theory_id="reader:2",
            presentation=reader,
            label="reader:2",
            designated_binary=parse_term("mul(y1,y2)", rd_sig),
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
    to bounded proof search and class maps to rewrite closure.
    """
    with open(path) as fh:
        raw = json.load(fh)
    sig = signature(*((name, int(arity)) for name, arity in raw["ops"]))
    axioms = []
    for item in raw.get("axioms", ()):
        lhs, rhs = item[0], item[1]
        name = item[2] if len(item) > 2 else ""
        axioms.append(Equation(parse_term(lhs, sig), parse_term(rhs, sig), name))
    pres = Presentation(raw["id"], sig, tuple(axioms))
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
