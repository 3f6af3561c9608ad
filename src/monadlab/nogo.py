"""Executable applicability checks for the no-composite theorems.

Each theorem is a row of `_HYPOTHESES`: its hypotheses on the row and the
column theory of a pair. `check_theorem` checks one row for one pair and
returns the per-hypothesis evidence rather than a bare boolean. `verdict`
runs every row and combines the results with a registry of known-positive
pairs into a single answer for "is there a distributive law (row)(col) =>
(col)(row)".
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional

from monadlab import distlaws
from monadlab.monads import monad_for
from monadlab.terms import App, decide_eq, render
from monadlab.theories import (
    PropertyId,
    TheoryEntry,
    check_property,
)
from monadlab.values import Value, format_value, gc_paused, mk_dist, mk_set

__all__ = [
    "TheoremId",
    "CheckRecord",
    "Applicability",
    "check_theorem",
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
    TOO_MANY_CONSTANTS = "TooManyConstants"
    LACKING_ABIDES = "LackingAbides"
    IDEM_UNITS = "IdemUnits"


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

    @property
    def applicable(self) -> bool:
        return all(r.passed for r in self.records)

    def describe(self) -> str:
        head = (
            f"{self.theorem} for {self.s_id} over {self.t_id}: "
            f"{'applicable' if self.applicable else 'not applicable'}"
        )
        return "\n".join([head] + [f"  {r.describe()}" for r in self.records])


def _prop_record(side: str, entry: TheoryEntry, prop: PropertyId) -> CheckRecord:
    cert = check_property(entry, prop)
    return CheckRecord(side, prop.value, bool(cert), cert.describe())


# ---------------------------------------------------------------------------
# the theorems as hypothesis tables


def _two_variable_term(entry: TheoryEntry) -> tuple:
    max_arity = max((op.arity for op in entry.presentation.signature.ops), default=0)
    return max_arity >= 2, f"largest operation arity is {max_arity}"


def _two_distinct_constants(entry: TheoryEntry) -> tuple:
    """Counts the constants' classes by one representative each: the
    decision procedure refutes every equation between two of them."""
    reps: list = []
    for c in entry.presentation.signature.constants:
        term = App(c, ())
        if not any(decide_eq(entry.procedure, term, r) for r in reps):
            reps.append(term)
    shown = ",".join(render(r) for r in reps)
    return len(reps) >= 2, f"{len(reps)} pairwise distinct constants ({shown or 'none'})"


_ROW, _COL = 0, 1  # which theory of the pair a hypothesis is about


def _on(side: str, theory: int, *hypotheses) -> tuple:
    return tuple((side, theory, h) for h in hypotheses)


_TIMES_OVER_PLUS = (
    _on("S", _ROW, PropertyId.S1, PropertyId.S2, PropertyId.S3, PropertyId.S4A)
    + _on("T", _COL, PropertyId.T1, PropertyId.T2, PropertyId.T3, PropertyId.T4A)
)

# theorem -> its hypotheses in printed order: (side label, row or column
# theory, a property or a (requirement, test) pair whose test returns
# (passed, evidence)). When every hypothesis holds, there is no law
# (row)(col) => (col)(row).
_HYPOTHESES = {
    # S has unit constants for all its operations and a two-variable term;
    # T keeps closed terms closed and has two provably distinct constants
    TheoremId.TOO_MANY_CONSTANTS: (
        _on("S", _ROW, PropertyId.S3, ("term with two free variables", _two_variable_term))
        + _on("T", _COL, PropertyId.T1, ("two distinct constants", _two_distinct_constants))
    ),
    # the times-over-plus hypotheses, and T's binary lacks abides
    TheoremId.LACKING_ABIDES: _TIMES_OVER_PLUS + _on("T", _COL, PropertyId.T4B),
    # the times-over-plus hypotheses, and S's binary is idempotent
    TheoremId.IDEM_UNITS: _TIMES_OVER_PLUS + _on("S", _ROW, PropertyId.S4B),
    # the binary variable-counting theorem on the designated binaries: the
    # column's p is commutative, idempotent, its class within 2 variables;
    # the row's v is idempotent, its class never within a single variable
    TheoremId.PLOTKIN1: (
        _on("P", _COL, PropertyId.P1, PropertyId.P2, PropertyId.P3)
        + _on("V", _ROW, PropertyId.V1, PropertyId.V2, PropertyId.V3)
    ),
}


def check_theorem(
    theorem: str,
    s_theory: TheoryEntry,
    t_theory: TheoryEntry,
) -> Applicability:
    """The hypotheses of `theorem` (a row of `_HYPOTHESES`) checked for
    the row theory `s_theory` and the column theory `t_theory`."""
    pair = (s_theory, t_theory)
    records = tuple(
        _prop_record(side, pair[theory], h) if isinstance(h, PropertyId)
        else CheckRecord(side, h[0], *h[1](pair[theory]))
        for side, theory, h in _HYPOTHESES[theorem]
    )
    return Applicability(theorem, pair[0].theory_id, pair[1].theory_id, records)


# ---------------------------------------------------------------------------
# known positive pairs


class PositiveEntry(NamedTuple):
    """A pair known to have a distributive law, with its citation; the
    registry `_POSITIVE` keys it by the pair."""

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
            reg[(s, t)] = PositiveEntry(laws, "Manes & Mulry 2007, Thm 4.3.4")
        # nonempty binary trees absorb any linear theory on the left
        if s == "boom:----":
            reg[(s, "boom:----")] = PositiveEntry((), "Manes & Mulry 2008, Ex 3.9")
        else:
            reg[(s, "boom:----")] = PositiveEntry((), "Manes & Mulry 2008, Ex 4.9")
    reg[("boom:-A--", "boom:-A--")] = PositiveEntry(
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
    s_theory: TheoryEntry,
    t_theory: TheoryEntry,
    depth: int = 3,
    num_vars: int = 4,
) -> NoGoVerdict:
    """Combined answer for the pair: every applicable obstruction is
    recorded; otherwise the positive registry decides, after replaying its
    implemented laws (ReplayError when one fails); otherwise Unknown.

    Every certificate is exact, so `depth` and `num_vars` are ignored; they
    stay only for callers that still pass them positionally."""
    checks = [check_theorem(theorem, s_theory, t_theory) for theorem in _HYPOTHESES]
    applicable = tuple(c for c in checks if c.applicable)
    notes: list[str] = []
    if applicable:
        if s_theory.theory_id == t_theory.theory_id == "boom:UACI":
            notes.append("independently refuted by Klin & Salamanca 2018, Thm 3.2")
        return NoGoVerdict(s_theory.theory_id, t_theory.theory_id, "NoDistLaw",
                           theorems=tuple(c.theorem for c in applicable),
                           refutations=applicable, notes=tuple(notes))

    entry = positive_entry(s_theory.theory_id, t_theory.theory_id)
    if entry is not None:
        for law_id in entry.law_ids:
            _replay(law_id)
        if entry.citation_only:
            notes.append("citation-only")
        return NoGoVerdict(s_theory.theory_id, t_theory.theory_id, "Exists",
                           positive=entry, verified_laws=entry.law_ids, notes=tuple(notes))

    return NoGoVerdict(s_theory.theory_id, t_theory.theory_id, "Unknown")


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

    def describe(self) -> str:
        lines = [
            f"probe {format_value(self.source)}: {self.candidates} candidate images, "
            f"{len(self.survivors)} survive"
        ]
        for name, _, forced in self.constraints:
            lines.append(f"  {name} forces image {format_value(forced)}")
        shown = 6
        for cand, failed in self.eliminations[:shown]:
            lines.append(f"  {format_value(cand)} fails {', '.join(failed)}")
        if len(self.eliminations) > shown:
            lines.append(f"  ... {len(self.eliminations) - shown} more eliminated")
        return "\n".join(lines)


@gc_paused
def plotkin_refute_bounded() -> RefutationTrace:
    """Replay the classic two-layer obstruction on a fixed small instance.

    The probed element is the fair mix of {a,b} and {c,d} inside
    distribution-of-set values over {a,b,c,d}. Three variable renamings pin
    down what any natural candidate image must be; no subset of the
    denominator-<=2 distributions satisfies all three, so no law of
    dist-over-powerset shape survives even in this fragment.
    """
    from fractions import Fraction

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

    # each member of the universe with its image under every renaming, in
    # the order of `constraints`: a subset's push is the set of its images
    rows = [(d, *(dist.fmap(f.__getitem__, d) for _, f, _ in constraints))
            for d in universe]

    eliminations = []
    survivors = []
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(rows, r):
            failed = tuple(
                name for k, (name, _, forced) in enumerate(constraints, 1)
                if mk_set([row[k] for row in combo]) != forced
            )
            candidate = mk_set([row[0] for row in combo])
            if failed:
                eliminations.append((candidate, failed))
            else:
                survivors.append(candidate)
    return RefutationTrace(
        source,
        tuple(universe),
        tuple(constraints),
        tuple(eliminations),
        tuple(survivors),
    )
