"""Executable applicability checks for the no-composite theorems.

Each checker inspects a pair of theories and reports whether the hypotheses
of one obstruction theorem are certified, returning the per-hypothesis
evidence rather than a bare boolean. `verdict` combines the checkers with a
registry of known-positive pairs into a single answer for "is there a
distributive law (row)(col) => (col)(row)".
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from monadlab import distlaws
from monadlab.monads import monad_for
from monadlab.terms import (
    App,
    Term,
    Var,
    render,
    substitute,
    term_vars,
)
from monadlab.theories import (
    PropertyId,
    TheoryEntry,
    check_property,
    class_var_claim,
    decide,
    lookup_theory,
)
from monadlab.values import Value, format_value, mk_dist, mk_set

__all__ = [
    "TheoremId",
    "PermutationSpec",
    "derangements",
    "filter_common",
    "CheckRecord",
    "Applicability",
    "check_plotkin_binary",
    "check_plotkin_general",
    "check_too_many_constants",
    "check_lacking_abides",
    "check_idem_units",
    "uniqueness_applies",
    "PositiveEntry",
    "positive_entry",
    "NoGoVerdict",
    "ReplayError",
    "verdict",
    "RefutationTrace",
    "plotkin_refute_bounded",
]


class TheoremId:
    PLOTKIN1 = "Plotkin1"
    PLOTKIN2 = "Plotkin2"
    TOO_MANY_CONSTANTS = "TooManyConstants"
    LACKING_ABIDES = "LackingAbides"
    IDEM_UNITS = "IdemUnits"


# ---------------------------------------------------------------------------
# permutations and the row-set intersection bound


class _PermutationFields(NamedTuple):
    size: int
    mapping: tuple[int, ...]


class PermutationSpec(_PermutationFields):
    """A bijection on {1..size}, stored as mapping[i-1] = image of i."""

    __slots__ = ()

    def __new__(cls, size: int, mapping: tuple[int, ...]):
        if size < 1 or len(mapping) != size:
            raise ValueError(f"mapping must list images of 1..{size}")
        if sorted(mapping) != list(range(1, size + 1)):
            raise ValueError(f"{mapping} is not a permutation of 1..{size}")
        return super().__new__(cls, size, mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    @property
    def fixed_point_free(self) -> bool:
        return all(self.mapping[i] != i + 1 for i in range(self.size))

    @classmethod
    def swap(cls) -> "PermutationSpec":
        return cls(2, (2, 1))


def derangements(m: int):
    """All fixed-point-free permutations of {1..m}."""
    for perm in itertools.permutations(range(1, m + 1)):
        spec = PermutationSpec(m, perm)
        if spec.fixed_point_free:
            yield spec


def filter_common(
    n: int, m: int, sigma: PermutationSpec, choices: tuple[int, ...]
) -> frozenset[tuple[int, int]]:
    """Common elements of the n row-sets built from a choice tuple.

    Variables are (column, subscript) pairs over columns 1..n and
    subscripts 1..m. Row 1 collects column j's variable at subscript
    choices[0]; row k >= 2 does the same at subscript choices[k-1] except in
    column k, where the subscript is twisted to sigma(choices[k-1]).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be strictly positive")
    if sigma.size != m or not sigma.fixed_point_free:
        raise ValueError("sigma must be a fixed-point-free permutation of {1..m}")
    if len(choices) != n:
        raise ValueError(f"need {n} choices, got {len(choices)}")
    for i in choices:
        if not 1 <= i <= m:
            raise ValueError(f"choice {i} out of range 1..{m}")

    rows = [frozenset((j, choices[0]) for j in range(1, n + 1))]
    for k in range(2, n + 1):
        i_k = choices[k - 1]
        row = {(j, i_k) for j in range(1, n + 1) if j != k}
        row.add((k, sigma(i_k)))
        rows.append(frozenset(row))
    return frozenset.intersection(*rows)


# ---------------------------------------------------------------------------
# hypothesis certificates


class CheckRecord(NamedTuple):
    """One hypothesis of a theorem checked on one side of the pair."""

    side: str  # which theory the requirement is about
    requirement: str
    passed: bool
    evidence: str

    def describe(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        return f"[{self.side}] {self.requirement}: {mark} ({self.evidence})"


class Applicability(NamedTuple):
    """A theorem's hypotheses checked for one pair of theories."""

    theorem: str
    s_id: str
    t_id: str
    records: tuple[CheckRecord, ...]
    depth: int
    num_vars: int

    @property
    def applicable(self) -> bool:
        return all(r.passed for r in self.records)

    def failed(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    def describe(self) -> str:
        head = (
            f"{self.theorem} for {self.s_id} over {self.t_id}: "
            f"{'applicable' if self.applicable else 'not applicable'} "
            f"(depth={self.depth}, vars={self.num_vars})"
        )
        return "\n".join([head] + [f"  {r.describe()}" for r in self.records])


def _as_entry(theory: Union[str, TheoryEntry]) -> TheoryEntry:
    if isinstance(theory, TheoryEntry):
        return theory
    return lookup_theory(theory)


def _prop_record(
    side: str, entry: TheoryEntry, prop: PropertyId, depth: int, num_vars: int
) -> CheckRecord:
    cert = check_property(entry, prop, depth, num_vars)
    return CheckRecord(side, prop.value, bool(cert), cert.describe())


def _with_binary(entry: TheoryEntry, binary: Optional[Term]) -> TheoryEntry:
    """Entry variant whose designated binary is `binary` (over y1, y2)."""
    if binary is None or binary == entry.designated_binary:
        return entry
    return entry.with_binary(binary)


def _eq_record(
    side: str, entry: TheoryEntry, req: str, lhs: Term, rhs: Term, depth: int
) -> CheckRecord:
    v, exact = decide(entry, lhs, rhs, depth)
    how = "decision procedure" if exact else f"bounded search depth={depth}"
    text = f"{render(lhs)} = {render(rhs)} ({how})"
    if v is True:
        return CheckRecord(side, req, True, text)
    if v is False:
        return CheckRecord(side, req, False, f"refuted: {text}")
    return CheckRecord(side, req, False, f"not provable within bound: {text}")


# ---------------------------------------------------------------------------
# variable-counting obstructions (the permuted-term family)


def check_plotkin_binary(
    p_theory: Union[str, TheoryEntry],
    v_theory: Union[str, TheoryEntry],
    p: Optional[Term] = None,
    v: Optional[Term] = None,
    depth: int = 3,
    num_vars: int = 4,
) -> Applicability:
    """Hypotheses of the binary variable-counting obstruction.

    `p_theory` needs a commutative idempotent binary p whose class members
    stay within 2 variables; `v_theory` needs an idempotent binary v whose
    class never collapses into a single variable. The designated binaries
    are used unless explicit terms (over y1, y2) are given. When the pair
    passes, there is no law (v_theory)(p_theory) => (p_theory)(v_theory),
    so in row-over-column reading the row plays v and the column plays p.
    """
    pe = _with_binary(_as_entry(p_theory), p)
    ve = _with_binary(_as_entry(v_theory), v)
    records = []
    for prop in (PropertyId.P1, PropertyId.P2, PropertyId.P3):
        records.append(_prop_record("P", pe, prop, depth, num_vars))
    for prop in (PropertyId.V1, PropertyId.V2, PropertyId.V3):
        records.append(_prop_record("V", ve, prop, depth, num_vars))
    return Applicability(
        TheoremId.PLOTKIN1, ve.theory_id, pe.theory_id, tuple(records), depth, num_vars
    )


def _collapse_to_one(term: Term) -> Term:
    return substitute(term, {x: Var("x1") for x in term_vars(term)})


def _class_vars_record(
    side: str, entry: TheoryEntry, term: Term, req: str, fits, need: int,
    depth: int, nv: int,
) -> CheckRecord:
    """`class_var_claim` as a record: a claim it leaves unsettled fails."""
    verdict, how, witness, why = class_var_claim(entry, term, fits, need, depth, nv)
    if verdict is None:
        return CheckRecord(side, req, False, f"{how}; {why}")
    return CheckRecord(
        side, req, verdict, how if verdict else f"{how}; witness {render(witness[-1])}"
    )


def check_plotkin_general(
    p_theory: Union[str, TheoryEntry],
    v_theory: Union[str, TheoryEntry],
    p: Term,
    v: Term,
    sigma: PermutationSpec,
    depth: int = 3,
    num_vars: int = 4,
) -> Applicability:
    """Arbitrary-arity version of the variable-counting obstruction.

    `p` is a term over x1..x{sigma.size} stable under sigma and idempotent;
    `v` is a term over x1..xn, idempotent, whose class members never fit in
    one variable. Class bounds use at most `num_vars` variables, raised to
    cover the arities when needed.
    """
    pe = _as_entry(p_theory)
    ve = _as_entry(v_theory)
    if not sigma.fixed_point_free:
        raise ValueError("sigma must be fixed point free")
    m = sigma.size
    p_vars = term_vars(p)
    allowed = {f"x{i}" for i in range(1, m + 1)}
    if not p_vars <= allowed:
        raise ValueError(f"p must use variables x1..x{m}, got {sorted(p_vars)}")
    n = max((int(x[1:]) for x in term_vars(v)), default=0)
    nv = max(num_vars, m, n)

    records = []
    p_sigma = substitute(p, {f"x{i}": Var(f"x{sigma(i)}") for i in range(1, m + 1)})
    records.append(_eq_record("P", pe, "stable under sigma", p, p_sigma, depth))
    records.append(
        _eq_record("P", pe, "idempotent", _collapse_to_one(p), Var("x1"), depth)
    )

    records.append(_class_vars_record(
        "P", pe, p, f"class stays within {m} variables", lambda names: len(names) <= m,
        m + 1, depth, nv,
    ))
    records.append(
        _eq_record("V", ve, "idempotent", _collapse_to_one(v), Var("x1"), depth)
    )
    records.append(_prop_record("V", ve, PropertyId.V2, depth, num_vars))
    records.append(_class_vars_record(
        "V", ve, v, "class never fits in one variable", lambda names: len(names) >= 2, 2,
        depth, nv,
    ))
    return Applicability(
        TheoremId.PLOTKIN2, ve.theory_id, pe.theory_id, tuple(records), depth, num_vars
    )


# ---------------------------------------------------------------------------
# unit-driven obstructions


def _distinct_constants(entry: TheoryEntry, depth: int) -> tuple[list, bool]:
    """Representatives of pairwise provably-distinct constants.

    Distinctness needs a refutation, which only a decision procedure gives;
    the bool reports whether the count is exact.
    """
    reps: list = []
    exact = True
    for c in entry.presentation.signature.constants:
        term = App(c, ())
        duplicate = False
        for r in reps:
            v, was_exact = decide(entry, term, r, depth)
            exact = exact and was_exact
            if v is True:
                duplicate = True
                break
            if v is None:
                # unprovable either way: conservatively merge
                exact = False
                duplicate = True
                break
        if not duplicate:
            reps.append(term)
    return reps, exact


def check_too_many_constants(
    s_theory: Union[str, TheoryEntry],
    t_theory: Union[str, TheoryEntry],
    depth: int = 3,
    num_vars: int = 4,
) -> Applicability:
    """S has unit constants for all its operations and a two-variable term;
    T keeps closed terms closed and has two provably distinct constants."""
    se = _as_entry(s_theory)
    te = _as_entry(t_theory)
    records = [_prop_record("S", se, PropertyId.S3, depth, num_vars)]

    arities = [op.arity for op in se.presentation.signature.ops]
    max_arity = max(arities, default=0)
    records.append(
        CheckRecord(
            "S",
            "term with two free variables",
            max_arity >= 2,
            f"largest operation arity is {max_arity}",
        )
    )
    records.append(_prop_record("T", te, PropertyId.T1, depth, num_vars))

    reps, exact = _distinct_constants(te, depth)
    shown = ",".join(render(r) for r in reps)
    evidence = f"{len(reps)} pairwise distinct constants ({shown or 'none'})"
    if not exact:
        evidence += "; distinctness not certified without a decision procedure"
    records.append(
        CheckRecord("T", "two distinct constants", exact and len(reps) >= 2, evidence)
    )
    return Applicability(
        TheoremId.TOO_MANY_CONSTANTS,
        se.theory_id,
        te.theory_id,
        tuple(records),
        depth,
        num_vars,
    )


_DISTRIB_S = (PropertyId.S1, PropertyId.S2, PropertyId.S3, PropertyId.S4A)
_DISTRIB_T = (PropertyId.T1, PropertyId.T2, PropertyId.T3, PropertyId.T4A)


def _times_over_plus_records(se, te, depth, num_vars) -> list:
    recs = [_prop_record("S", se, p, depth, num_vars) for p in _DISTRIB_S]
    recs += [_prop_record("T", te, p, depth, num_vars) for p in _DISTRIB_T]
    return recs


def check_lacking_abides(
    s_theory: Union[str, TheoryEntry],
    t_theory: Union[str, TheoryEntry],
    depth: int = 3,
    num_vars: int = 4,
) -> Applicability:
    """Times-over-plus hypotheses plus: T's binary does not interchange."""
    se = _as_entry(s_theory)
    te = _as_entry(t_theory)
    records = _times_over_plus_records(se, te, depth, num_vars)
    records.append(_prop_record("T", te, PropertyId.T4B, depth, num_vars))
    return Applicability(
        TheoremId.LACKING_ABIDES, se.theory_id, te.theory_id, tuple(records), depth, num_vars
    )


def check_idem_units(
    s_theory: Union[str, TheoryEntry],
    t_theory: Union[str, TheoryEntry],
    depth: int = 3,
    num_vars: int = 4,
) -> Applicability:
    """Times-over-plus hypotheses plus: S's binary is idempotent."""
    se = _as_entry(s_theory)
    te = _as_entry(t_theory)
    records = _times_over_plus_records(se, te, depth, num_vars)
    records.append(_prop_record("S", se, PropertyId.S4B, depth, num_vars))
    return Applicability(
        TheoremId.IDEM_UNITS, se.theory_id, te.theory_id, tuple(records), depth, num_vars
    )


def uniqueness_applies(
    s_theory: Union[str, TheoryEntry],
    t_theory: Union[str, TheoryEntry],
    depth: int = 3,
    num_vars: int = 4,
) -> bool:
    """At most one law can exist: both signatures are exactly one constant
    plus one binary, the constants are units, and variable classes are tame."""

    def shaped(entry: TheoryEntry) -> bool:
        arities = sorted(op.arity for op in entry.presentation.signature.ops)
        return arities == [0, 2]

    se = _as_entry(s_theory)
    te = _as_entry(t_theory)
    if not (shaped(se) and shaped(te)):
        return False
    needed = [
        check_property(se, PropertyId.S4A, depth, num_vars),
        check_property(se, PropertyId.S1, depth, num_vars),
        check_property(se, PropertyId.S2, depth, num_vars),
        check_property(te, PropertyId.T4A, depth, num_vars),
        check_property(te, PropertyId.T1, depth, num_vars),
        check_property(te, PropertyId.T2, depth, num_vars),
    ]
    return all(bool(c) for c in needed)


# ---------------------------------------------------------------------------
# known positive pairs


class PositiveEntry(NamedTuple):
    """A pair known to have a distributive law, with its citation."""

    s_theory: str
    t_theory: str
    law_ids: tuple[str, ...]  # implemented witnesses, empty when citation-only
    citation: str

    @property
    def citation_only(self) -> bool:
        return not self.law_ids


_LINEAR_ROWS = (
    "boom:U---",
    "boom:U-C-",
    "boom:UA--",
    "boom:UAC-",
    "boom:----",
    "boom:--C-",
    "boom:-A--",
    "boom:-AC-",
)
_COMMUTATIVE_COLS = ("boom:UAC-", "boom:UACI", "boom:-AC-", "boom:-ACI")

_IMPLEMENTED_LAWS = {
    ("boom:U---", "boom:UAC-"): ("choice:tree:multiset",),
    ("boom:U---", "boom:UACI"): ("choice:tree:powerset",),
    ("boom:UA--", "boom:UAC-"): ("choice:list:multiset",),
    ("boom:UA--", "boom:UACI"): ("choice:list:powerset",),
    ("boom:UAC-", "boom:UAC-"): ("mset-cartesian",),
    ("boom:UAC-", "boom:UACI"): ("choice:multiset:powerset",),
}


def _positive_registry() -> dict:
    reg = {}
    for s in _LINEAR_ROWS:
        for t in _COMMUTATIVE_COLS:
            laws = _IMPLEMENTED_LAWS.get((s, t), ())
            reg[(s, t)] = PositiveEntry(s, t, laws, "Manes & Mulry 2007, Thm 4.3.4")
        # nonempty binary trees absorb any linear theory on the left
        if s == "boom:----":
            reg[(s, "boom:----")] = PositiveEntry(
                s, "boom:----", (), "Manes & Mulry 2008, Ex 3.9"
            )
        else:
            reg[(s, "boom:----")] = PositiveEntry(
                s, "boom:----", (), "Manes & Mulry 2008, Ex 4.9"
            )
    reg[("boom:-A--", "boom:-A--")] = PositiveEntry(
        "boom:-A--",
        "boom:-A--",
        ("mm-nel-1", "mm-nel-2", "mm-nel-3"),
        "Manes & Mulry 2007, Ex 5.1.10; Manes & Mulry 2008, Ex 4.10",
    )
    return reg


_POSITIVE: dict = _positive_registry()


def positive_entry(s_id: str, t_id: str) -> Optional[PositiveEntry]:
    return _POSITIVE.get((s_id, t_id))


class ReplayError(Exception):
    """A law registered as a positive witness failed its Beck replay."""


@functools.lru_cache(maxsize=None)
def _replay(law_id: str) -> None:
    report = distlaws.check_beck(distlaws.law_for(law_id), carrier_size=2, bound=3)
    if not report.ok:
        raise ReplayError(f"positive law {law_id} failed its replay: {report.describe()}")


# ---------------------------------------------------------------------------
# the combined verdict


class NoGoVerdict(NamedTuple):
    """The combined answer for one ordered pair of theories."""

    s_id: str
    t_id: str
    status: str  # NoDistLaw | Exists | Unknown
    theorems: tuple[str, ...] = ()
    refutations: tuple[Applicability, ...] = ()
    positive: Optional[PositiveEntry] = None
    verified_laws: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    depth: int = 3
    num_vars: int = 4

    @property
    def mark(self) -> str:
        return {"NoDistLaw": "N", "Exists": "Y", "Unknown": "?"}[self.status]

    def describe(self) -> str:
        """The verdict as `monadlab nogo` prints it."""
        if self.status == "NoDistLaw":
            lines = [f"NO ({', '.join(self.theorems)})"]
            lines += [f"  {app.theorem} {rec.describe()}"
                      for app in self.refutations for rec in app.records]
        elif self.status == "Exists":
            what = ", ".join(self.verified_laws) or self.positive.citation
            lines = [f"YES ({what})", f"  citation: {self.positive.citation}"]
            lines += [f"  law {law} replayed green" for law in self.verified_laws]
        else:
            lines = ["UNKNOWN"]
        return "\n".join(lines + [f"  note: {note}" for note in self.notes])


def verdict(
    s_theory: Union[str, TheoryEntry],
    t_theory: Union[str, TheoryEntry],
    depth: int = 3,
    num_vars: int = 4,
) -> NoGoVerdict:
    """Combined answer for the pair: every applicable obstruction is
    recorded; otherwise the positive registry decides, after replaying its
    implemented laws (ReplayError when one fails); otherwise Unknown."""
    se = _as_entry(s_theory)
    te = _as_entry(t_theory)

    checks = [
        check_too_many_constants(se, te, depth, num_vars),
        check_lacking_abides(se, te, depth, num_vars),
        check_idem_units(se, te, depth, num_vars),
    ]
    if se.designated_binary is not None and te.designated_binary is not None:
        # row plays the idempotent side, column the commutative side
        checks.append(check_plotkin_binary(te, se, depth=depth, num_vars=num_vars))

    applicable = tuple(c for c in checks if c.applicable)
    notes: list[str] = []
    if applicable:
        if se.theory_id == te.theory_id == "boom:UACI":
            notes.append("independently refuted by Klin & Salamanca 2018, Thm 3.2")
        return NoGoVerdict(
            se.theory_id,
            te.theory_id,
            "NoDistLaw",
            theorems=tuple(c.theorem for c in applicable),
            refutations=applicable,
            notes=tuple(notes),
            depth=depth,
            num_vars=num_vars,
        )

    entry = positive_entry(se.theory_id, te.theory_id)
    if entry is not None:
        for law_id in entry.law_ids:
            _replay(law_id)
        if entry.citation_only:
            notes.append("citation-only")
        return NoGoVerdict(
            se.theory_id,
            te.theory_id,
            "Exists",
            positive=entry,
            verified_laws=entry.law_ids,
            notes=tuple(notes),
            depth=depth,
            num_vars=num_vars,
        )

    return NoGoVerdict(
        se.theory_id, te.theory_id, "Unknown", depth=depth, num_vars=num_vars
    )


# ---------------------------------------------------------------------------
# the mechanized two-layer counterexample


class RefutationTrace(NamedTuple):
    """The eliminations of the two-layer Plotkin replay."""

    source: Value  # the probed element, a distribution of sets
    universe: tuple  # all denominator-<=2 distributions on the carrier
    constraints: tuple  # (name, renaming, forced image)
    eliminations: tuple  # (candidate set-value, failed constraint names)
    survivors: tuple

    @property
    def candidates(self) -> int:
        return len(self.eliminations) + len(self.survivors)

    def describe(self, limit: int = 6) -> str:
        lines = [
            f"probe {format_value(self.source)}: {self.candidates} candidate images, "
            f"{len(self.survivors)} survive"
        ]
        for name, _, forced in self.constraints:
            lines.append(f"  {name} forces image {format_value(forced)}")
        for cand, failed in self.eliminations[:limit]:
            lines.append(f"  {format_value(cand)} fails {', '.join(failed)}")
        if len(self.eliminations) > limit:
            lines.append(f"  ... {len(self.eliminations) - limit} more eliminated")
        return "\n".join(lines)


def plotkin_refute_bounded() -> RefutationTrace:
    """Replay the classic two-layer obstruction on a fixed small instance.

    The probed element is the fair mix of {a,b} and {c,d} inside
    distribution-of-set values over {a,b,c,d}. Three variable renamings pin
    down what any natural candidate image must be; no subset of the
    denominator-<=2 distributions satisfies all three, so no law of
    dist-over-powerset shape survives even in this fragment.
    """
    carrier = ("a", "b", "c", "d")
    dist = monad_for("dist")
    pset = monad_for("powerset")
    half = Fraction(1, 2)

    source = mk_dist([(mk_set(["a", "b"]), half), (mk_set(["c", "d"]), half)])

    universe = [mk_dist([(x, Fraction(1))]) for x in carrier]
    universe += [
        mk_dist([(x, half), (y, half)])
        for x, y in itertools.combinations(carrier, 2)
    ]

    renamings = {
        "f1": {"a": "a", "b": "b", "c": "a", "d": "b"},
        "f2": {"a": "a", "b": "b", "c": "b", "d": "a"},
        "f3": {"a": "a", "b": "a", "c": "c", "d": "c"},
    }

    def forced_image(f: dict) -> Value:
        # push the renaming through the probe; a one-point outer mix is an
        # outer unit and a distribution of singletons is an inner unit, so
        # the unit axioms determine the answer on the renamed probe
        moved = dist.fmap(lambda A: pset.fmap(lambda x: f[x], A), source)
        entries = moved[1]
        if len(entries) == 1:
            inner_set = entries[0][0]
            return mk_set([dist.unit(x) for x in inner_set[1:]])
        if all(len(A[1:]) == 1 for A, _ in entries):
            return mk_set([mk_dist([(A[1], w) for A, w in entries])])
        raise AssertionError("renaming does not reach a unit shape")

    constraints = []
    for name, f in renamings.items():
        constraints.append((name, f, forced_image(f)))

    def push(f: dict, subset: tuple) -> Value:
        return mk_set([dist.fmap(lambda x: f[x], d) for d in subset])

    eliminations = []
    survivors = []
    for r in range(len(universe) + 1):
        for subset in itertools.combinations(universe, r):
            failed = tuple(
                name for name, f, forced in constraints if push(f, subset) != forced
            )
            if failed:
                eliminations.append((mk_set(list(subset)), failed))
            else:
                survivors.append(mk_set(list(subset)))
    return RefutationTrace(
        source,
        tuple(universe),
        tuple(constraints),
        tuple(eliminations),
        tuple(survivors),
    )
