"""Equational theories: registry and property certificates.

Each theory entry bundles a finite presentation with the exact decision
procedure for its provable equality (a required field: there is no entry
without one; the procedures are defined in `monadlab.terms`), optional
designated operations (a binary term over y1,y2 and a unit), and cached
property certificates. An entry is made one way, `TheoryEntry(...)`, from
texts: its operations, its axioms and its designated terms in `parse_term`
syntax, with a zero-argument factory of its procedure. It holds only its
id, label and aliases until its presentation, procedure or a designated
term is first read, and then builds them all at once. So importing this
module, `registry()` and `lookup_theory` parse nothing and run no
`monadlab.terms`, and a process builds only the theories it reads. The
registry maps theory ids and aliases to entries; it is filled once, at
import, and an unregistered entry works all the same. `lookup_theory`
reads the registry and never writes it: the members of the parametric
families `exception:{...}` and `narytree-theory:N` that are not registered
come from cached constructors, one entry per label set or width. The
equational properties are equations between designated terms, settled by
`decide_eq` through the entry's procedure. Every built-in theory but the
two bands decides by evaluating into its free-model monad (`_free_model`),
so building one runs `monadlab.monads`; the bands, AI and AI+, decide by
`terms.BandProc`, which has no normal forms.

The class-based properties (S1/T1, S2/T2/V2, P3, V3) are facts about the
variables of the members of equivalence classes, and `class_var_claim` is
the one place where such claims, those of the no-go theorems included, are
settled, always exactly. In a regular presentation, where both sides of
every axiom have the same variables, every step of an equational derivation
preserves the variable set, so each class shares its representative's
variables (`class_vars`). Otherwise the decision procedure settles the
claim: a member contains every variable essential in the term, and an
absorbing term p(x,y) = x with y in p adds variables to a member at will.
An entry's build requires such a term of an irregular presentation, so
every irregular theory here is strongly irregular in the sense of Płonka
(Fund. Math. 1969). Without constants there are no closed terms, so the
claims about closed terms hold vacuously.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from monadlab import terms

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
    "register_theory",
    "lookup_theory",
    "registry",
    "exception_labels",
    "tree_width",
    "MAX_TREE_WIDTH",
    "unknown_name",
    "exception_theory",
    "narytree_theory",
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


def boom_theory(flags: BoomFlags) -> tuple[tuple, tuple]:
    """The operations, mul (and e if unital), and exactly the flagged
    axioms."""
    axioms = [
        ("mul(e,x)", "x", "unitl"),
        ("mul(x,e)", "x", "unitr"),
        ("mul(mul(x,y),z)", "mul(x,mul(y,z))", "assoc"),
        ("mul(x,y)", "mul(y,x)", "comm"),
        ("mul(x,x)", "x", "idem"),
    ]
    on = (flags.unital, flags.unital, flags.assoc, flags.comm, flags.idem)
    ops = (("mul", 2),) + ((("e", 0),) if flags.unital else ())
    return ops, tuple(itertools.compress(axioms, on))


# ---------------------------------------------------------------------------
# theory entries and registry


# the fields an entry builds on the first read of any of them
_BUILT = ("presentation", "procedure", "designated_binary", "designated_unit", "absorbing")


class TheoryEntry:
    """A theory: its presentation, the procedure that decides its equality,
    designated terms and caches. An entry works whether or not it is
    registered.

    It is made from `ops` (name, arity), `axioms` (lhs, rhs, name) and the
    texts of its designated terms over those operations, in `parse_term`
    syntax: `binary` over the variables y1, y2, `unit` a closed term, and
    `absorbing` a term p over x, y with p = x and y in p, which an
    irregular presentation must have (`class_var_claim` builds class
    members with it). `procedure` is a zero-argument factory of the
    decision procedure. The label is the first alias, else the id.

    Until one of the fields in `_BUILT` is first read, the entry holds only
    its id, label, aliases and texts; that read builds them all at once and
    holds an irregular presentation to its absorbing term. A build that
    fails leaves the entry unbuilt. The certificate cache depends on the
    designated terms.
    """

    def __init__(
        self,
        theory_id: str,
        ops: Sequence[tuple[str, int]],
        axioms: Sequence[tuple[str, str, str]],
        procedure: Callable[[], terms.Procedure],
        binary: Optional[str] = None,
        unit: Optional[str] = None,
        absorbing: Optional[str] = None,
        aliases: tuple[str, ...] = (),
    ):
        self.theory_id, self.aliases = theory_id, aliases
        self.label = aliases[0] if aliases else theory_id
        self._texts = (ops, axioms, procedure, binary, unit, absorbing)
        self._certificates: dict = {}

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: a field that is not
        # built yet
        if name not in _BUILT:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ops, axioms, procedure, *designated = self._texts
        sig = terms.signature(*ops)
        pres = terms.Presentation(self.theory_id, sig, tuple(
            terms.Equation(terms.parse_term(lhs, sig), terms.parse_term(rhs, sig), axiom)
            for lhs, rhs, axiom in axioms
        ))
        binary, unit, p = (None if text is None else pres.parse(text) for text in designated)
        proc = procedure()
        if not _regular(pres) and (
            p is None or terms.term_vars(p) != {"x", "y"}
            or not terms.decide_eq(proc, p, terms.Var("x"))
        ):
            raise ValueError(
                f"irregular theory {self.theory_id!r} needs an absorbing term p(x,y) = x"
            )
        self.presentation, self.procedure = pres, proc
        self.designated_binary, self.designated_unit, self.absorbing = binary, unit, p
        return getattr(self, name)

    def binary_at(self, a: terms.Term, b: terms.Term) -> terms.Term:
        if self.designated_binary is None:
            raise ValueError(f"{self.theory_id} has no designated binary operation")
        return terms.substitute(self.designated_binary, {"y1": a, "y2": b})


_REGISTRY: dict[str, TheoryEntry] = {}
_ALIASES: dict[str, str] = {}


def register_theory(entry: TheoryEntry) -> TheoryEntry:
    """Add `entry` to the registry under its id and aliases. Both checks
    come first, so a rejected entry changes nothing; the entry is built,
    and an irregular one held to its absorbing term, on its first read."""
    tid = entry.theory_id
    if tid in _REGISTRY:
        raise ValueError(f"theory {tid!r} already registered")
    for alias in entry.aliases:
        if _ALIASES.get(alias, tid) != tid:
            raise ValueError(f"alias {alias!r} already taken")
    _REGISTRY[tid] = entry
    _ALIASES.update(dict.fromkeys(entry.aliases, tid))
    return entry


def registry() -> tuple[TheoryEntry, ...]:
    return tuple(_REGISTRY[tid] for tid in sorted(_REGISTRY))


def lookup_theory(name: str) -> TheoryEntry:
    """The registered theory with id or alias `name`, else the member of a
    parametric family that `name` spells; reads the registry, never writes
    it."""
    entry = _REGISTRY.get(_ALIASES.get(name, name))
    if entry is not None:
        return entry
    labels = exception_labels(name)
    if labels:
        return _exception_theory(labels)
    try:
        width = tree_width(name, "narytree-theory:")
    except ValueError as exc:
        raise KeyError(str(exc)) from None
    if width is not None:
        return narytree_theory(width)
    raise KeyError(unknown_name("theory", name, [*_REGISTRY, *_ALIASES]))


def unknown_name(kind: str, name: str, known: Iterable[str]) -> str:
    """The message for an unknown `kind` name, with up to three close
    matches among the `known` names."""
    import difflib

    from monadlab.values import quote

    near = difflib.get_close_matches(name, known, n=3)
    hint = f"; did you mean {', '.join(near)}?" if near else ""
    return f"unknown {kind} {quote(name)}{hint}"


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
    FAILS = "Fails"


class PropertyCertificate(NamedTuple):
    """How a structural property was settled; true when it holds."""

    prop: PropertyId
    status: PropertyStatus
    method: str
    witness: Optional[tuple] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status is PropertyStatus.HOLDS

    def describe(self) -> str:
        inner = self.method if not self.detail else f"{self.method}; {self.detail}"
        if self.witness:
            shown = ",".join(terms.render(t) for t in self.witness)
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


def _b12(entry: TheoryEntry) -> terms.Term:
    return entry.binary_at(terms.Var("x1"), terms.Var("x2"))


# class-based properties: the probed class (None: every class with a closed
# member), the fewest and the most variables a member may have (None: no
# most), and the failure detail
_CLOSED_STAYS_CLOSED = (lambda entry: None, 0, 0, "open term in a closed term's class")
_VAR_STAYS_ITSELF = (lambda entry: terms.Var("x1"), 0, 1, "foreign variable in a variable's class")
_CLASS_PROPERTIES = {
    PropertyId.S1: _CLOSED_STAYS_CLOSED,
    PropertyId.T1: _CLOSED_STAYS_CLOSED,
    PropertyId.S2: _VAR_STAYS_ITSELF,
    PropertyId.T2: _VAR_STAYS_ITSELF,
    PropertyId.V2: _VAR_STAYS_ITSELF,
    PropertyId.P3: (_b12, 0, 2, "class member with more than 2 variables"),
    PropertyId.V3: (_b12, 2, None, "class member inside a single variable"),
}


def check_property(entry: TheoryEntry, prop: PropertyId) -> PropertyCertificate:
    """Certificate for one structural property of the theory.

    S1/T1: the class of a closed term contains only closed terms.
    S2/T2/V2: the class of a bare variable stays inside that variable.
    S3: every operation of arity >= 1 has a constant acting as a unit in
        every argument position (vacuous without such operations).
    S4a/T4a: the designated binary has the designated unit on both sides.
    S4b/V1: the designated binary is idempotent.
    T3: the signature contains a constant.
    T4b: the designated binary lacks abides: the 2x2 interchange law is not
        provable for it.
    P1/P2: the designated binary is commutative / idempotent on variables.
    P3: members of the class of b(x1,x2) use at most 2 distinct variables.
    V3: every member of the class of b(x1,x2) uses at least 2 variables.

    Every certificate is exact. Class-based properties (S1/T1, S2/T2/V2,
    P3, V3) are settled by `class_var_claim`, the one place where
    class-variable claims are settled. T3 is syntactic; the rest are
    settled by the theory's decision procedure (`decide_eq`) on equations
    between designated terms (S3: on the unit laws of the constants).
    """
    cached = entry._certificates.get(prop)
    if cached is not None:
        return cached
    cert = _check_property(entry, prop)
    entry._certificates[prop] = cert
    return cert


_DECIDED = "analytic via decide_eq"
_VACUOUS = "vacuous"


def _check_property(entry, prop) -> PropertyCertificate:
    proc = entry.procedure
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
                prop, PropertyStatus.HOLDS, _VACUOUS, detail="no operations of arity >= 1"
            )
        if not sig.constants:
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, "syntactic", detail="no constants to act as units"
            )
        x = terms.Var("x")
        for op in builders:
            for c in sig.constants:
                units = (terms.App(c, ()),) * op.arity
                at = (terms.App(op, units[:pos] + (x,) + units[pos + 1 :])
                      for pos in range(op.arity))
                if all(terms.decide_eq(proc, t, x) for t in at):
                    break
            else:
                return PropertyCertificate(
                    prop, PropertyStatus.FAILS, _DECIDED,
                    detail=f"no unit constant for {op.name}/{op.arity}",
                )
        return PropertyCertificate(prop, PropertyStatus.HOLDS, _DECIDED)

    needs = _NEEDS.get(prop)
    if needs and (entry.designated_binary is None
                  or needs == "binary/unit" and entry.designated_unit is None):
        return PropertyCertificate(
            prop, PropertyStatus.FAILS, "syntactic", detail=f"no designated {needs}"
        )

    if prop in _CLASS_PROPERTIES:
        return _class_certificate(entry, prop)

    if prop is PropertyId.T4B:
        # holds when the interchange law is NOT provable
        lhs, rhs = _interchange(entry)
        if terms.decide_eq(proc, lhs, rhs):
            return PropertyCertificate(
                prop, PropertyStatus.FAILS, _DECIDED, (lhs,), "interchange law is provable"
            )
        return PropertyCertificate(prop, PropertyStatus.HOLDS, _DECIDED)

    b, u = entry.binary_at, entry.designated_unit
    x, x1, x2 = terms.Var("x"), terms.Var("x1"), terms.Var("x2")
    if prop in (PropertyId.S4A, PropertyId.T4A):
        equations = ((b(u, x), x), (b(x, u), x))
    elif prop is PropertyId.P1:
        equations = ((b(x1, x2), b(x2, x1)),)
    else:  # S4b, V1, P2: idempotence
        equations = ((b(x, x), x),)
    for lhs, rhs in equations:
        if not terms.decide_eq(proc, lhs, rhs):
            return PropertyCertificate(prop, PropertyStatus.FAILS, _DECIDED, (lhs, rhs))
    return PropertyCertificate(prop, PropertyStatus.HOLDS, _DECIDED)


def _regular(pres: terms.Presentation) -> bool:
    """Both sides of every axiom have the same variables."""
    return all(terms.term_vars(eq.lhs) == terms.term_vars(eq.rhs) for eq in pres.equations)


def class_vars(entry: TheoryEntry, term: Optional[terms.Term]) -> Optional[frozenset[str]]:
    """The variables that every member of `term`'s class contains, exactly;
    `term` None stands for any closed term.

    Known when the presentation is regular (both sides of every axiom have
    the same variables): reflexivity, symmetry, transitivity, congruence and
    instances of regular axioms all preserve the variable set, so it is the
    term's own (Baader & Nipkow, Term Rewriting and All That, 1998). None
    when the presentation is not regular.
    """
    if not _regular(entry.presentation):
        return None
    return frozenset() if term is None else terms.term_vars(term)


_REGULAR = "regular presentation"
_ESSENTIAL = "essential variables"


def class_var_claim(
    entry: TheoryEntry, term: Optional[terms.Term], least: int = 0, most: Optional[int] = None
) -> tuple:
    """Whether every member of `term`'s class has at least `least` and at
    most `most` (None: any number of) variables; when `term` is None, every
    member of every class with a closed member. The one place where
    class-variable claims are settled, always exactly, in this order:

    - a regular presentation: every member has `term`'s variables
      (`class_vars`), and a failing witness is (`term`,);
    - no constants: there is no closed term, so the claim about closed terms
      holds vacuously; otherwise the first constant stands for them;
    - an "at least" claim (`most` None): every member contains the
      variables essential in `term`, and `_fewest_member` has no others;
    - an "at most" claim: the entry's absorbing term builds members with
      more variables than `most` (`_widened_member`), so the claim fails.

    Returns (verdict, method, witness, why); a failing witness from the
    procedure is (`term`, a member of its class that does not fit).
    """

    def fits(names) -> bool:
        return least <= len(names) and (most is None or len(names) <= most)

    shared = class_vars(entry, term)
    if shared is not None:
        ok = fits(shared)
        return ok, _REGULAR, None if ok else (term,), ""
    constants = entry.presentation.signature.constants
    if term is None:
        if not constants:
            return True, _VACUOUS, None, "no closed terms"
        term = terms.App(constants[0], ())
    if most is None:
        method, member = _ESSENTIAL, _fewest_member(entry, term)
    else:
        method = f"absorbing term {terms.render(entry.absorbing)}"
        member = _widened_member(entry.absorbing, term, most + 1)
    ok = fits(terms.term_vars(member))
    return ok, method, None if ok else (term, member), ""


def _fresh_vars(term: terms.Term):
    """The variables x1, x2, ... that `term` does not use."""
    used = terms.term_vars(term)
    return (terms.Var(f"x{i}") for i in itertools.count(1) if f"x{i}" not in used)


def _fewest_member(entry: TheoryEntry, term: terms.Term) -> terms.Term:
    """A member of `term`'s class with the fewest variables.

    x is essential in `term` when the procedure refutes term = term[x := z]
    for a fresh z. Every member s contains each essential x: otherwise
    s = s[x := z] = term[x := z]. An inessential y may be replaced by any
    term, so substituting one essential variable for all the others gives a
    member with exactly the essential ones; without any, a constant (or, in
    a signature without constants, one variable) gives a member with as few
    variables as any (Burris & Sankappanavar, A Course in Universal Algebra,
    1981).
    """
    names = sorted(terms.term_vars(term))
    z = next(_fresh_vars(term))
    essential = [x for x in names
                 if not terms.decide_eq(entry.procedure, term, terms.substitute(term, {x: z}))]
    constants = entry.presentation.signature.constants
    if essential:
        into: terms.Term = terms.Var(essential[0])
    elif constants:
        into = terms.App(constants[0], ())
    else:
        into = terms.Var(names[0])
    return terms.substitute(term, {x: into for x in names if x not in essential})


def _widened_member(absorbing: terms.Term, term: terms.Term, at_least: int) -> terms.Term:
    """A member of `term`'s class with at least `at_least` variables:
    `term` under p(-, z) for fresh variables z, where p(x,y) = x."""
    member = term
    extra = at_least - len(terms.term_vars(term))
    for z in itertools.islice(_fresh_vars(term), max(extra, 0)):
        member = terms.substitute(absorbing, {"x": member, "y": z})
    return member


def _class_certificate(entry, prop) -> PropertyCertificate:
    """A class-based property's certificate from `class_var_claim`."""
    probe, least, most, detail = _CLASS_PROPERTIES[prop]
    verdict, method, witness, why = class_var_claim(entry, probe(entry), least, most)
    if verdict:
        return PropertyCertificate(prop, PropertyStatus.HOLDS, method, detail=why)
    if method == _REGULAR:  # every member has the one failing variable set
        detail = detail.replace("class member", "class")
    return PropertyCertificate(prop, PropertyStatus.FAILS, method, witness, detail)


def _interchange(entry: TheoryEntry) -> tuple[terms.Term, terms.Term]:
    """(y1*y2)*(y3*y4) = (y1*y3)*(y2*y4) over the designated binary."""
    b = entry.binary_at
    y1, y2, y3, y4 = (terms.Var(f"y{i}") for i in (1, 2, 3, 4))
    return b(b(y1, y2), b(y3, y4)), b(b(y1, y3), b(y2, y4))


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
            flags = BoomFlags(unital, "assoc" in names, "comm" in names, "idem" in names)
            display = label if unital else label + "+"
            # the bands have no monad; `terms` is read on the first build
            procedure = ((lambda: terms.BandProc()) if label == "AI"
                         else lambda tid=flags.theory_id: _free_model(tid))
            register_theory(TheoryEntry(
                flags.theory_id, *boom_theory(flags), procedure,
                "mul(y1,y2)", "e" if flags.unital else None,
                aliases=(display,) + word_aliases[flags.theory_id],
            ))


def exception_labels(name: str) -> Optional[tuple[str, ...]]:
    """The sorted distinct labels of an `exception:{a,b}` id, blanks and
    surrounding spaces dropped; None when `name` is not of that form. The
    theory and monad lookups both read exception ids through this."""
    if not (name.startswith("exception:{") and name.endswith("}")):
        return None
    return tuple(sorted({x.strip() for x in name[len("exception:{") : -1].split(",")} - {""}))


# the widest n-ary tree: the entry `narytree_theory(n)` has n axioms of n
# arguments each. A lookup parses none of them; the first read of a field
# parses them all, in time quadratic in n (about 13 ms CPU at 64)
MAX_TREE_WIDTH = 64


def tree_width(name: str, prefix: str) -> Optional[int]:
    """N of an id `prefix` + N with N >= 2, spelled as `int` reads it; None
    when `name` is not of that form, ValueError when N is above
    `MAX_TREE_WIDTH`. The theory and monad lookups both read n-ary tree ids
    through this."""
    if not name.startswith(prefix):
        return None
    try:
        width = int(name[len(prefix) :])
    except ValueError:
        return None
    if width > MAX_TREE_WIDTH:
        from monadlab.values import quote

        raise ValueError(f"{quote(name)} is wider than the maximum tree width {MAX_TREE_WIDTH}")
    return width if width >= 2 else None


def exception_theory(labels: Iterable[str]) -> TheoryEntry:
    """The theory of the constants `labels`, one entry per label set."""
    return _exception_theory(tuple(sorted(set(labels))))


@functools.cache
def _exception_theory(labels: tuple[str, ...]) -> TheoryEntry:
    theory_id = "exception:{" + ",".join(labels) + "}"
    return TheoryEntry(theory_id, tuple((lbl, 0) for lbl in labels), (),
                       lambda: _free_model(theory_id))


def _free_model(monad) -> terms.Procedure:
    """Evaluation into the free-model monad `monad` (or its id), variables
    to units: a free algebra decides provable equality (Birkhoff 1935)."""
    from monadlab import monads

    m = monads.monad_for(monad) if isinstance(monad, str) else monad
    return terms.Evaluation(monads.free_model_ops(m.theory_id, m), m.unit, m.normal_form)


def _narytree_model(n: int) -> terms.Procedure:
    """Evaluation into narytree:n, or at width 2, where narytree:2 is T's
    monad over `mul`, into an unregistered width-2 tree monad over `node`."""
    from monadlab import monads

    tid = f"narytree-theory:{n}"
    return _free_model(f"narytree:{n}" if n > 2 else monads.NaryTreeMonad(2, tid, tid))


@functools.cache
def narytree_theory(n: int) -> TheoryEntry:
    """Unital n-ary node algebra: pruning any single child through units.
    Its designated binary is a two-sided unital term derived from the node."""
    axioms = []
    for pos in range(n):
        args = ["e"] * n
        args[pos] = "x"
        axioms.append((f"node({','.join(args)})", "x", f"prune{pos}"))
    return TheoryEntry(f"narytree-theory:{n}", (("node", n), ("e", 0)), axioms,
                       lambda: _narytree_model(n),
                       "node(y1,y2" + ",e" * (n - 2) + ")", "e")


def _register_rest() -> None:
    register_theory(TheoryEntry("pointed", (("bot", 0),), (), lambda: _free_model("lift")))
    register_theory(exception_theory(("a",)))
    register_theory(exception_theory(("a", "b")))
    register_theory(TheoryEntry(
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
        lambda: _free_model("abgroup"), "mul(y1,y2)", "e", "mul(mul(x,y),inv(y))",
    ))
    register_theory(TheoryEntry(
        "convex",
        (("mix", 2),),
        (
            ("mix(x,x)", "x", "idem"),
            ("mix(x,y)", "mix(y,x)", "comm"),
            ("mix(mix(a,b),mix(c,d))", "mix(mix(a,c),mix(b,d))", "medial"),
        ),
        lambda: _free_model("dist"), "mix(y1,y2)",
    ))
    register_theory(TheoryEntry(
        "reader:2",
        (("mul", 2),),
        (
            ("mul(x,x)", "x", "idem"),
            ("mul(mul(w,x),mul(y,z))", "mul(w,z)", "outer"),
        ),
        lambda: _free_model("reader:2"), "mul(y1,y2)", absorbing="mul(x,mul(y,x))",
    ))


# table label orders, smallest to largest fragment
BOOM_ORIGINAL = ("T", "L", "M", "P")
BOOM_EXTENDED = ("T", "I", "C", "CI", "L", "AI", "M", "P")
BOOM_FULL = BOOM_EXTENDED + tuple(label + "+" for label in BOOM_EXTENDED)

_register_boom()
_register_rest()
