"""Reference code that only tests call, kept beside them rather than under
`src/`, which holds what a command or a benchmark op runs.

- `validate_procedure_against_rewrites` cross-checks a theory's decision
  procedure against its axioms read as rewrite rules; `subterm_paths`
  lists the positions of a term for the reference one-step rewrites.
- `ring_entry` is the theory of noncommutative unital rings, a worked
  example that is not registered.
- `composite_monad` is the monad T-after-S that a distributive law induces.
- `tree_pool_size` counts a tree pool layer by layer without listing it.
- `multiset_choose_by_merge` is the multiset choice law as first written:
  it sorts each pick into a multiset and merges repeated picks with the
  checked constructor of T.
- `reference_choose` is S's `choose` as it was before each position's
  picks were kept with the law: it builds every position's picks on every
  call, an empty one included.
- `mm1_apply_by_slices` is the `mm-nel-1` law as first written, by slices
  of each inner list.
- `dist_shares` reads a distribution's integer counts as `Fraction`
  weights, `with_fraction_weights` rewrites every distribution in a value
  that way, and `fraction_canon_key` is `values.canon_key` as it was when
  distributions held `Fraction` weights: it orders those weights by
  comparing the `Fraction`s themselves.
- `check_plotkin_general` checks the hypotheses of the paper's general
  variable-counting theorem (Plotkin2) on explicit terms and a permutation
  (`PermutationSpec`). No verdict runs it: within the bounds measured, it
  refutes no pair that the binary form (the Plotkin1 row of
  `nogo._HYPOTHESES`) does not already refute. `derangements` and
  `filter_common` are the permutation lemmas behind it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Hashable, Iterator, NamedTuple, Optional, Sequence

from monadlab.distlaws import DistLaw
from monadlab.monads import FinMonad, MultisetMonad, NaryTreeMonad, monad_for
from monadlab.nogo import Applicability, CheckRecord, _prop_record
from monadlab.terms import (
    App,
    OpSymbol,
    Procedure,
    Rewriter,
    Term,
    Var,
    decide_eq,
    enumerate_terms,
    eq_bounded,
    render,
    right_nested,
    substitute,
    term_vars,
)
from monadlab.theories import PropertyId, TheoryEntry, class_var_claim
from monadlab.values import Value, mk_dist, mk_grp, mk_mset, mk_set


# ---------------------------------------------------------------------------
# decision procedures against the axioms


def subterm_paths(term: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """All (path, subterm) pairs, root first, in left-to-right order."""
    yield (), term
    if isinstance(term, App):
        for i, arg in enumerate(term.args):
            for path, sub in subterm_paths(arg):
                yield (i,) + path, sub


def rewrite_components(rewriter: Rewriter, universe: Sequence[Term]) -> list[int]:
    """For each universe term, the index of its class representative under
    the one-step rewrites that stay inside the universe (union-find roots)."""
    index = {t: i for i, t in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, t in enumerate(universe):
        for u in rewriter.steps(t):
            j = index.get(u)
            if j is not None:
                parent[find(j)] = find(i)
    return [find(i) for i in range(len(universe))]


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
    proc = entry.procedure
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
# the ring theory


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
            return right_nested(times, [Var(n) for n in word])

        parts: list[Term] = []
        for word, c in key:
            base = monomial(word)
            if c < 0:
                base = App(neg, (base,))
            parts.extend([base] * abs(c))
        return right_nested(plus, parts)


def ring_entry() -> TheoryEntry:
    """Noncommutative unital rings, as an entry that is not registered; used
    as a worked example for the constant-counting obstruction. The
    annihilation axioms are derivable but listed so bounded rewrite search
    can use them directly."""
    return TheoryEntry(
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
        RingProc, "times(y1,y2)", "one", "plus(x,times(y,zero))",
    )


# ---------------------------------------------------------------------------
# composite monad


class _CompositeMonad(FinMonad):
    """The monad T-after-S induced by a distributive law, on T(S(X)) values."""

    def __init__(self, law: DistLaw, s_cap: int = 16):
        self.law = law
        self.s_cap = s_cap
        self.monad_id = f"composite:{law.law_id}"

    def unit(self, x):
        return self.law.t_monad.unit(self.law.s_monad.unit(x))

    def fmap(self, f, v):
        t, s = self.law.t_monad, self.law.s_monad
        return t.fmap(lambda sv: s.fmap(f, sv), v)

    def join(self, v):
        # T S T S -> T T S S (law inside T) -> T S S (outer mu) -> T S
        t, s, lam = self.law.t_monad, self.law.s_monad, self.law.apply
        return t.fmap(s.join, t.bind(v, lam))

    def size(self, v):
        t, s = self.law.t_monad, self.law.s_monad
        return sum(s.size(sv) for sv in t.members(v))

    def members(self, v):
        return self.law.t_monad.members(v)

    def iter_values(self, carrier, bound) -> Iterator:
        t, s = self.law.t_monad, self.law.s_monad
        inner = list(
            itertools.islice(s.iter_values(carrier, bound), self.s_cap)
        )
        return t.iter_values(inner, bound)


def composite_monad(law: DistLaw, s_cap: int = 16) -> FinMonad:
    return _CompositeMonad(law, s_cap)


# ---------------------------------------------------------------------------
# pool sizes and the multiset choice law by merging


def tree_pool_size(m: NaryTreeMonad, carrier_size: int, bound: int) -> int:
    """How many trees `m` has over `carrier_size` elements up to size
    `bound`: a node of size s splits s among its `width` children, two or
    more of them not units, and the trees of each size multiply."""
    sizes: list[int] = [len(m.units), carrier_size][: bound + 1]
    for s in range(2, bound + 1):
        splits = (
            split for split in itertools.product(range(s + 1), repeat=m.width)
            if sum(split) == s and sum(1 for part in split if part) >= 2
        )
        sizes.append(sum(math.prod(sizes[part] for part in split) for split in splits))
    return sum(sizes)


def dist_shares(v: Value) -> list:
    """The entries of the distribution `v` with their weights as `Fraction`s."""
    total = sum(n for _, n in v[1])
    return [(x, Fraction(n, total)) for x, n in v[1]]


def with_fraction_weights(v: Value) -> Value:
    """`v` with the integer counts of every distribution in it replaced by
    their `Fraction` weights."""
    if not isinstance(v, tuple):
        return v
    if v and v[0] == "dist":
        return ("dist", tuple((with_fraction_weights(x), w) for x, w in dist_shares(v)))
    return tuple(map(with_fraction_weights, v))


def fraction_canon_key(v: Value):
    """`values.canon_key` with each distribution weight compared as a
    `Fraction`, largest first."""
    if isinstance(v, str):
        return (0, v)
    if isinstance(v, int):
        return (1, v)
    if v[0] in ("mset", "grp"):
        return (2, ((0, v[0]), *((fraction_canon_key(x), -n) for x, n in v[1])))
    if v[0] == "dist":
        return (2, ((0, "dist"), *((fraction_canon_key(x), -w) for x, w in dist_shares(v))))
    return (2, tuple(fraction_canon_key(x) for x in v))


def _dist_from_counts(entries) -> Value:
    """The distribution whose weights are the nonnegative `entries` counts
    over their sum, through the `Fraction` weights `mk_dist` reads."""
    entries = list(entries)
    total = sum(n for _, n in entries)
    return mk_dist((x, Fraction(n, total)) for x, n in entries)


# T's constructor from (element, weight) entries that may repeat: it sums
# their weights and sorts, by the tag of T's values
_FROM_ENTRIES = {
    "mset": lambda entries: mk_mset(entries=entries),
    "dist": _dist_from_counts,
    "grp": mk_grp,
    "set": lambda entries: mk_set(x for x, _ in entries),
}


def multiset_choose_by_merge(v: Value, t: FinMonad) -> Value:
    """The T combination of every multiset that picks one element of T per
    member of the multiset `v`, weighted by the product of the picked
    weights: each pick is sorted into a multiset, and equal multisets merge."""
    if not v[1]:
        return t.unit(v)
    xs, ws = zip(*map(t.weighted, monad_for("multiset").members(v)))
    picks = map(mk_mset, itertools.product(*xs))
    entries = zip(picks, map(math.prod, itertools.product(*ws)))
    return _FROM_ENTRIES[t.unit("a")[0]](entries)


def _reference_picks(v, t, ws):
    """The picks of the list or tree `v` in `canon_key` order, each
    position's weights appended to `ws` left to right."""
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
        xs = []
        for c in v[1:]:
            if c[0] == "nleaf":
                cx, w = t.weighted(c[1])
                ws.append(w)
                xs.append(tuple(zip(itertools.repeat("nleaf"), cx)))
            else:
                xs.append(_reference_picks(c, t, ws))
    return tuple(map((tag,).__add__, itertools.product(*xs)))


def _reference_positional(v, t):
    if len(v) == 1:  # the empty list or the unit tree: nothing to pick
        return t.unit(v)
    ws: list = []
    xs = _reference_picks(v, t, ws)
    return t.from_canonical(xs, map(math.prod, itertools.product(*ws)))


def reference_choose(s: FinMonad, v: Value, t: FinMonad) -> Value:
    """`s.choose(v, t)`: for a list or tree S, the T combination of the
    picks of `v`, which come distinct and in order; for multiset S, those of
    the list of its members, each mapped to a multiset by T's `fmap`."""
    if isinstance(s, MultisetMonad):
        picks = _reference_positional(("list", *s.members(v)), t)
        return t.fmap(lambda pick: mk_mset(pick[1:]), picks)
    return _reference_positional(v, t)


def mm1_apply_by_slices(v: Value) -> Value:
    """Glue the head of every later inner list onto the group before it;
    every other adjacency starts a new group."""
    first, *later = v[1:]
    groups = [("list", x) for x in first[1:]]
    for inner in later:
        groups[-1] += inner[1:2]
        groups += [("list", x) for x in inner[2:]]
    return ("list", *groups)


# ---------------------------------------------------------------------------
# the general variable-counting theorem (Plotkin2)


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


def _eq_record(side: str, entry: TheoryEntry, req: str, lhs: Term, rhs: Term) -> CheckRecord:
    text = f"{render(lhs)} = {render(rhs)} (decision procedure)"
    if decide_eq(entry.procedure, lhs, rhs):
        return CheckRecord(side, req, True, text)
    return CheckRecord(side, req, False, f"refuted: {text}")


def _collapse_to_one(term: Term) -> Term:
    return substitute(term, {x: Var("x1") for x in term_vars(term)})


def _class_vars_record(
    side: str, entry: TheoryEntry, term: Term, req: str, least: int = 0,
    most: Optional[int] = None,
) -> CheckRecord:
    """`class_var_claim` as a record."""
    verdict, how, witness, _ = class_var_claim(entry, term, least, most)
    return CheckRecord(
        side, req, verdict, how if verdict else f"{how}; witness {render(witness[-1])}"
    )


def check_plotkin_general(
    p_theory: TheoryEntry,
    v_theory: TheoryEntry,
    p: Term,
    v: Term,
    sigma: PermutationSpec,
) -> Applicability:
    """Arbitrary-arity version of the variable-counting obstruction.

    `p` is a term over x1..x{sigma.size} stable under sigma and idempotent,
    whose class members stay within sigma.size variables; `v` is a term
    over x1..xn, idempotent, whose class members never fit in one variable.
    With the swap and the designated binaries it is Plotkin1.
    """
    if not sigma.fixed_point_free:
        raise ValueError("sigma must be fixed point free")
    m = sigma.size
    p_vars = term_vars(p)
    allowed = {f"x{i}" for i in range(1, m + 1)}
    if not p_vars <= allowed:
        raise ValueError(f"p must use variables x1..x{m}, got {sorted(p_vars)}")

    records = []
    p_sigma = substitute(p, {f"x{i}": Var(f"x{sigma(i)}") for i in range(1, m + 1)})
    records.append(_eq_record("P", p_theory, "stable under sigma", p, p_sigma))
    records.append(_eq_record("P", p_theory, "idempotent", _collapse_to_one(p), Var("x1")))

    records.append(
        _class_vars_record("P", p_theory, p, f"class stays within {m} variables", most=m)
    )
    records.append(_eq_record("V", v_theory, "idempotent", _collapse_to_one(v), Var("x1")))
    records.append(_prop_record("V", v_theory, PropertyId.V2))
    records.append(
        _class_vars_record("V", v_theory, v, "class never fits in one variable", least=2)
    )
    return Applicability("Plotkin2", v_theory.theory_id, p_theory.theory_id,
                         tuple(records))


# ---------------------------------------------------------------------------
# permutations and the row-set intersection bound


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
