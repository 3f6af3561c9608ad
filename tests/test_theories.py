import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import ring_entry, subterm_paths, validate_procedure_against_rewrites

from monadlab import hierarchy, terms, theories
from monadlab.terms import (
    App,
    BandProc,
    OpSymbol,
    Rewriter,
    Var,
    decide_eq,
    normalize,
    render,
)
from monadlab.theories import (
    BOOM_EXTENDED,
    BOOM_FULL,
    BOOM_ORIGINAL,
    BoomFlags,
    PropertyId,
    PropertyStatus,
    TheoryEntry,
    boom_theory,
    check_property,
    class_vars,
    exception_theory,
    lookup_theory,
    narytree_theory,
    register_theory,
    registry,
)


def pt(theory_id, text):
    return lookup_theory(theory_id).presentation.parse(text)


def decide(theory_id, a, b):
    return decide_eq(lookup_theory(theory_id).procedure, a, b)


def normal_form(theory_id, term):
    return normalize(lookup_theory(theory_id).procedure, term)


def rewrite_steps(pres, term, pool):
    """One-step rewrites of `term`, each once, in `Rewriter.steps` order."""
    return list(dict.fromkeys(Rewriter(pres, pool).steps(term)))


# ---------------------------------------------------------------------------
# registry shape


def test_registry_contents():
    ids = [entry.theory_id for entry in registry()]
    boom = [t for t in ids if t.startswith("boom:")]
    assert len(boom) == 16
    for expected in ("pointed", "exception:{a}", "exception:{a,b}", "abgroup",
                     "convex", "reader:2"):
        assert expected in ids
    assert "ring" not in ids  # available as an entry, deliberately unregistered


def test_aliases_resolve():
    assert lookup_theory("monoid").theory_id == "boom:UA--"
    assert lookup_theory("jsl").theory_id == "boom:UACI"
    assert lookup_theory("comm-monoid").theory_id == "boom:UAC-"
    assert lookup_theory("band").theory_id == "boom:-A-I"
    assert lookup_theory("L").theory_id == "boom:UA--"
    assert lookup_theory("P+").theory_id == "boom:-ACI"
    assert lookup_theory("T").label == "T"


def test_every_theory_has_a_decision_procedure():
    # the registry, theories built on demand, and the unregistered ring
    for tid in (*(e.theory_id for e in registry()), "exception:{a,b,c}", "narytree-theory:4"):
        assert isinstance(lookup_theory(tid).procedure, terms.Procedure), tid
    assert isinstance(ring_entry().procedure, terms.Procedure)
    with pytest.raises(TypeError):
        TheoryEntry("test:procedure-less", *boom_theory(BoomFlags(False, False, False, False)))


def test_unregistered_entries_leave_the_registry_alone():
    before = registry()
    first, second = ring_entry(), ring_entry()
    assert first is not second
    for ring in (first, second):
        pres = ring.presentation
        assert decide_eq(ring.procedure, pres.parse("times(x,zero)"), pres.parse("zero"))
    local = TheoryEntry("test:local-magma", *boom_theory(BoomFlags(False, False, False, False)),
                        lambda: lookup_theory("magma").procedure)
    magma = local.presentation
    assert not decide_eq(local.procedure, magma.parse("mul(x,y)"), magma.parse("mul(y,x)"))
    assert check_property(local, PropertyId.T3).status is PropertyStatus.FAILS
    assert registry() == before
    with pytest.raises(KeyError):
        lookup_theory("ring")


def test_tree_widths_above_the_maximum_are_refused_before_any_axiom_is_built():
    widest = theories.MAX_TREE_WIDTH
    assert widest >= 20  # the width test_wide_trees_enumerate uses
    assert lookup_theory(f"narytree-theory:{widest}").theory_id == f"narytree-theory:{widest}"
    built = narytree_theory.cache_info().misses
    for width in (widest + 1, 100000):
        with pytest.raises(KeyError, match=f"maximum tree width {widest}"):
            lookup_theory(f"narytree-theory:{width}")
    assert narytree_theory.cache_info().misses == built


def test_unknown_theory_suggests():
    with pytest.raises(KeyError) as err:
        lookup_theory("monoidd")
    assert "monoid" in str(err.value)


def test_theory_entry_reads_its_texts_over_the_signature():
    monoid = boom_theory(BoomFlags(True, True, False, False))
    procedure = lambda: lookup_theory("monoid").procedure  # noqa: E731
    entry = TheoryEntry("boom:UA--", *monoid, procedure, "mul(y1,y2)", "e",
                        aliases=("L", "monoid"))
    assert (entry.theory_id, entry.label, entry.aliases, entry.absorbing) == (
        "boom:UA--", "L", ("L", "monoid"), None)
    sig = entry.presentation.signature
    assert entry.designated_binary == App(sig.op("mul"), (Var("y1"), Var("y2")))
    assert entry.designated_unit == App(sig.op("e"), ())
    assert [eq.name for eq in entry.presentation.equations] == ["unitl", "unitr", "assoc"]
    assert TheoryEntry("boom:UA--", *monoid, procedure).label == "boom:UA--"


def test_exception_theories_on_demand():
    entry = lookup_theory("exception:{p,q,r}")
    assert entry.presentation.signature.constants == (
        OpSymbol("p", 0), OpSymbol("q", 0), OpSymbol("r", 0),
    )
    assert exception_theory(("q", "p", "r")) is entry  # sorted, deduped id
    assert exception_theory(("r", "p", "q", "p")) is entry


def test_boom_axioms_exactly_flagged():
    ops, axioms = boom_theory(BoomFlags(True, True, False, False))
    assert ops == (("mul", 2), ("e", 0))
    assert [name for _, _, name in axioms] == ["unitl", "unitr", "assoc"]
    assert boom_theory(BoomFlags(False, False, False, False)) == ((("mul", 2),), ())
    _, axioms = boom_theory(BoomFlags(True, True, True, True))
    assert [name for _, _, name in axioms] == ["unitl", "unitr", "assoc", "comm", "idem"]


def test_boom_label_orders():
    assert BOOM_ORIGINAL == ("T", "L", "M", "P")
    assert BOOM_EXTENDED == ("T", "I", "C", "CI", "L", "AI", "M", "P")
    assert len(BOOM_FULL) == 16 and BOOM_FULL[8:] == tuple(
        x + "+" for x in BOOM_EXTENDED
    )


# ---------------------------------------------------------------------------
# decision procedures


def test_monoid_procedure():
    tid = "boom:UA--"
    assert decide(tid, pt(tid, "mul(mul(x,y),z)"), pt(tid, "mul(x,mul(y,z))"))
    assert decide(tid, pt(tid, "mul(e,x)"), pt(tid, "x"))
    assert not decide(tid, pt(tid, "mul(x,y)"), pt(tid, "mul(y,x)"))
    assert normal_form(tid, pt(tid, "mul(mul(x,e),y)")) == pt(tid, "mul(x,y)")


def test_comm_monoid_procedure():
    tid = "boom:UAC-"
    assert decide(tid, pt(tid, "mul(x,y)"), pt(tid, "mul(y,x)"))
    assert not decide(tid, pt(tid, "mul(x,x)"), pt(tid, "x"))
    assert normal_form(tid, pt(tid, "mul(y,mul(x,e))")) == pt(tid, "mul(x,y)")


def test_jsl_procedure():
    tid = "boom:UACI"
    assert decide(tid, pt(tid, "mul(x,mul(y,x))"), pt(tid, "mul(y,x)"))
    assert decide(tid, pt(tid, "mul(mul(x,x),e)"), pt(tid, "x"))
    assert not decide(tid, pt(tid, "mul(x,y)"), pt(tid, "x"))
    assert normal_form(tid, pt(tid, "mul(y,mul(x,y))")) == pt(tid, "mul(x,y)")


def test_tree_procedures():
    t = "boom:U---"
    assert decide(t, pt(t, "mul(e,x)"), pt(t, "x"))
    assert not decide(t, pt(t, "mul(mul(x,y),z)"), pt(t, "mul(x,mul(y,z))"))
    c = "boom:--C-"
    assert decide(c, pt(c, "mul(x,y)"), pt(c, "mul(y,x)"))
    assert not decide(c, pt(c, "mul(mul(x,y),z)"), pt(c, "mul(x,mul(y,z))"))
    i = "boom:---I"
    assert decide(i, pt(i, "mul(mul(x,x),y)"), pt(i, "mul(x,y)"))
    assert not decide(i, pt(i, "mul(x,y)"), pt(i, "mul(y,x)"))


def test_band_procedure_facts():
    tid = "boom:-A-I"
    # xyxyx = xyx is the classic collapse
    assert decide(
        tid,
        pt(tid, "mul(x,mul(y,mul(x,mul(y,x))))"),
        pt(tid, "mul(x,mul(y,x))"),
    )
    assert decide(tid, pt(tid, "mul(mul(x,y),mul(x,y))"), pt(tid, "mul(x,y)"))
    assert not decide(tid, pt(tid, "mul(x,y)"), pt(tid, "mul(y,x)"))
    assert not decide(tid, pt(tid, "mul(x,mul(y,x))"), pt(tid, "mul(x,y)"))
    assert normal_form(tid, pt(tid, "mul(x,y)")) is None  # decide-only


def test_unital_band_unit():
    tid = "boom:UA-I"
    assert decide(tid, pt(tid, "mul(e,mul(x,x))"), pt(tid, "x"))
    assert not decide(tid, pt(tid, "mul(x,y)"), pt(tid, "e"))


def free_band_size(n):
    # oracle: sum over content sizes k of C(n,k) * prod_{i=1..k} (k-i+1)^(2^i)
    total = 0
    for k in range(1, n + 1):
        prod = 1
        for i in range(1, k + 1):
            prod *= (k - i + 1) ** (2**i)
        total += math.comb(n, k) * prod
    return total


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 6), (3, 159)])
def test_free_band_closure_matches_counting_oracle(n, expected):
    # oracle values frozen from the classical counting formula above
    assert free_band_size(n) == expected
    proc = BandProc()
    mul = OpSymbol("mul", 2)
    elems = {proc.var_key(f"g{i}") for i in range(n)}
    while True:
        fresh = {
            proc.app_key(mul, (a, b))
            for a in elems
            for b in elems
        } - elems
        if not fresh:
            break
        elems |= fresh
    assert len(elems) == expected


def test_abgroup_procedure():
    tid = "abgroup"
    assert decide(tid, pt(tid, "mul(x,inv(x))"), pt(tid, "e"))
    assert decide(tid, pt(tid, "inv(mul(x,y))"), pt(tid, "mul(inv(y),inv(x))"))
    assert decide(tid, pt(tid, "inv(inv(x))"), pt(tid, "x"))
    assert not decide(tid, pt(tid, "mul(x,x)"), pt(tid, "x"))
    assert normal_form(tid, pt(tid, "mul(x,mul(x,inv(y)))")) == pt(
        tid, "mul(x,mul(x,inv(y)))"
    )
    assert normal_form(tid, pt(tid, "mul(inv(x),x)")) == pt(tid, "e")


def test_convex_procedure():
    tid = "convex"
    assert decide(
        tid,
        pt(tid, "mix(mix(a,b),mix(c,d))"),
        pt(tid, "mix(mix(a,c),mix(b,d))"),
    )
    # both sides weigh x at 5/8 and y at 3/8
    assert decide(
        tid,
        pt(tid, "mix(x,mix(y,mix(y,x)))"),
        pt(tid, "mix(mix(x,y),mix(x,mix(x,y)))"),
    )
    assert not decide(tid, pt(tid, "mix(x,mix(x,y))"), pt(tid, "mix(x,y)"))
    assert normal_form(tid, pt(tid, "mix(x,x)")) == Var("x")
    two_one = normal_form(tid, pt(tid, "mix(x,mix(x,mix(y,x)))"))
    proc = lookup_theory(tid).procedure
    assert proc.term_key(two_one) == proc.term_key(pt(tid, "mix(x,mix(x,mix(y,x)))"))


def test_reader_procedure():
    tid = "reader:2"
    assert decide(tid, pt(tid, "mul(x,mul(y,x))"), pt(tid, "x"))
    assert decide(tid, pt(tid, "mul(mul(x,y),z)"), pt(tid, "mul(x,z)"))
    assert not decide(tid, pt(tid, "mul(x,y)"), pt(tid, "mul(y,x)"))
    assert normal_form(tid, pt(tid, "mul(x,mul(y,x))")) == Var("x")


# (terms, sha256 of their normal forms, one rendered term a line) for the
# first 2,000 terms over x, y, z and the constants, to depth 3 (abgroup: all
# of depth 2; narytree-theory:3: depth 2), as recorded when hand-written
# procedures decided these theories. The two band theories are decide-only.
_NORMAL_FORMS = {
    "boom:----": (2000, "cf62bb1d6477dafb2581163cd627637565139b2a156263b20a43d5956858f732"),
    "boom:---I": (2000, "8914279f84b95f11a85c100cbc1fa361a54eef731061b06fd3827f30f4a42441"),
    "boom:--C-": (2000, "f60bc0c2bb1f75c071f6c561e194aa0a41bb0f381ab8a20b5c06a5622f93cd7b"),
    "boom:--CI": (2000, "3c0e12ff3eaea8a7410e7b7b4968993e9088caf081106b7bf365cdb0c5cb65b5"),
    "boom:-A--": (2000, "c11ebbaa8de60a56072e8ff77ae55f53d3f0fe61313e393a3f77e1ce03027a28"),
    "boom:-AC-": (2000, "fba5e49862b09546a90a103ac5e5597a194506b552b7f59fabf2097c5a48120e"),
    "boom:-ACI": (2000, "542141b3e7ae6f1754902da690189623afddfe72bf4ba22e26536de7ffc03edf"),
    "boom:U---": (2000, "c37afeb4c5f8ac98c0b376b75e8b2b9797dcd89849f8bca8185f87318c86043e"),
    "boom:U--I": (2000, "17ad569c5845e98fc33244cb5de6f2bc356e51f5fa0b78c39ed7ee07d2cf75db"),
    "boom:U-C-": (2000, "c34363a0a5b147efe0e619cd7bdfc27d06c9a70ebb9a4d8aaeb65ae6f3899fd9"),
    "boom:U-CI": (2000, "6a79c5c5a85f26f5ef63d18cb85de4254da805677f9e49706a908f215080325c"),
    "boom:UA--": (2000, "22772704c1527baa218558e5f732263a3e7a9cea0abb91f792b3f6ff45579bd6"),
    "boom:UAC-": (2000, "0d7bb74f2caf08b37ba6fa6e04b432a57754ef9cd143a068dddc675c7ef74e6d"),
    "boom:UACI": (2000, "67db928623db3714ac9108cbb015e9d2b6bccfe151993a5e79f993dc02ef5e65"),
    "narytree-theory:2": (2000, "23e5a37095b70295cc99b21821e92cfbdfccb88c710a0eeb024ec3b8d9e1c917"),
    "narytree-theory:3": (2000, "5e8cd7f4d16c8c6b6604965218b44be594dd0b43165a1905293d2465f5f19ab1"),
    "exception:{a}": (4, "d1a0fa0584e54f87387ebc37a0c7272ef3a8fa2bb47eb88ffb5932b714b8be3c"),
    "exception:{a,b}": (5, "2e1af2176f9588638481cf0367aa32553209b9f607d35a150b79e66a135e901c"),
    "pointed": (4, "c7ced7c2811a5c5e47fb52d28243b3fe3d7f3a1477f756d49e644f8d9fc56b0d"),
    "abgroup": (604, "6db8519a1bd29f78d087fd9ad4e1e82fda157aa7eb01957a25866385c57f3a94"),
    "convex": (2000, "d3a2d1b310e641df5f361dbbb439cca6649aa10715724335e8195f19748fda7b"),
    "reader:2": (2000, "e2b3deb27a7eace673f7bcd8f451fef47fbf42f3cf7361a1b72be2decc506408"),
}


@pytest.mark.parametrize("tid", list(_NORMAL_FORMS))
def test_normal_forms_are_pinned(tid):
    entry = lookup_theory(tid)
    sig = entry.presentation.signature
    atoms = [Var(v) for v in "xyz"] + [App(c, ()) for c in sig.constants]
    depth = 2 if tid in ("abgroup", "narytree-theory:3") else 3
    universe = list(itertools.islice(terms.enumerate_terms(sig, atoms, depth), 2000))
    forms = [normal_form(tid, t) for t in universe]
    for t, nf in zip(universe, forms):
        assert normal_form(tid, nf) == nf and decide(tid, t, nf), render(t)
    digest = hashlib.sha256("\n".join(map(render, forms)).encode()).hexdigest()
    assert (len(universe), digest) == _NORMAL_FORMS[tid]


def test_ring_entry_procedure():
    entry = ring_entry()
    pres, ring = entry.presentation, entry.procedure
    assert decide_eq(
        ring,
        pres.parse("times(plus(x,y),z)"),
        pres.parse("plus(times(x,z),times(y,z))"),
    )
    assert decide_eq(ring, pres.parse("times(x,zero)"), pres.parse("zero"))
    assert not decide_eq(ring, pres.parse("one"), pres.parse("zero"))
    assert not decide_eq(
        ring, pres.parse("times(x,y)"), pres.parse("times(y,x)")
    )
    assert normalize(
        ring, pres.parse("times(plus(x,one),y)")
    ) == pres.parse("plus(times(x,y),y)")


def test_narytree_theory_units():
    entry = narytree_theory(3)
    pres = entry.presentation
    assert decide_eq(entry.procedure, pres.parse("node(e,x,e)"), pres.parse("x"))
    assert decide_eq(entry.procedure, pres.parse("node(e,e,e)"), pres.parse("e"))
    assert not decide_eq(
        entry.procedure, pres.parse("node(x,y,e)"), pres.parse("node(x,e,y)")
    )
    # the derived binary is unital on both sides
    assert check_property(entry, PropertyId.S4A).status is PropertyStatus.HOLDS


# ---------------------------------------------------------------------------
# soundness: random one-step rewrites never change the procedure key


def _term_strategy(entry, var_names=("x", "y", "z"), max_leaves=8):
    sig = entry.presentation.signature
    atoms = [Var(v) for v in var_names] + [App(c, ()) for c in sig.constants]
    builders = [op for op in sig.ops if op.arity >= 1]

    def extend(inner):
        choices = [
            st.builds(
                lambda *args, op=op: App(op, tuple(args)), *([inner] * op.arity)
            )
            for op in builders
        ]
        return st.one_of(choices)

    return st.recursive(st.sampled_from(atoms), extend, max_leaves=max_leaves)


@pytest.mark.parametrize(
    "tid",
    ["boom:UA--", "boom:UACI", "boom:-A-I", "boom:U-CI", "boom:---I",
     "abgroup", "convex", "reader:2"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_step_rewrites_preserve_keys(tid, data):
    entry = lookup_theory(tid)
    t = data.draw(_term_strategy(entry))
    pool = (Var("x"), Var("y"), Var("z")) + tuple(
        App(c, ()) for c in entry.presentation.signature.constants
    )
    for u in rewrite_steps(entry.presentation, t, pool)[:25]:
        assert decide_eq(entry.procedure, t, u), f"{u} should equal {t}"


def _replace_at(term, path, replacement):
    if not path:
        return replacement
    i = path[0]
    return App(term.op, term.args[:i] + (_replace_at(term.args[i], path[1:], replacement),)
               + term.args[i + 1 :])


def _path_walk_steps(rules, term, pool):
    """Reference one-step rewrites: every position in preorder, each rule
    (an axiom read one way, with its right side's variables), pool fills for
    one-sided variables, first occurrence kept and `term` itself dropped."""
    out = {}
    for path, sub in subterm_paths(term):
        for pat, repl, repl_vars in rules:
            bindings = terms.match(pat, sub)
            if bindings is None:
                continue
            unbound = sorted(repl_vars - bindings.keys())
            for fills in itertools.product(pool, repeat=len(unbound)):
                full = dict(bindings, **dict(zip(unbound, fills)))
                rewritten = _replace_at(term, path, terms.substitute(repl, full))
                out.setdefault(rewritten, None)
    out.pop(term, None)
    return list(out)


@pytest.mark.parametrize("tid", [*(e.theory_id for e in registry()), "ring"])
def test_rewrite_steps_match_path_walk(tid):
    pres = (ring_entry() if tid == "ring" else lookup_theory(tid)).presentation
    rules = [(a, b, terms.term_vars(b))
             for e in pres.equations for a, b in ((e.lhs, e.rhs), (e.rhs, e.lhs))]
    atoms = [Var("x"), Var("y")] + [App(c, ()) for c in pres.signature.constants]
    # ring's 3,244 terms run with the pool only, to keep the test short
    for pool in (atoms,) if tid == "ring" else (atoms, ()):
        for t in terms.enumerate_terms(pres.signature, atoms, 2):
            assert rewrite_steps(pres, t, pool) == _path_walk_steps(rules, t, pool), (t, pool)


# ---------------------------------------------------------------------------
# structural properties


def status_of(tid, prop):
    return check_property(lookup_theory(tid), prop).status


def test_monoid_property_row():
    for prop in (PropertyId.S1, PropertyId.S2, PropertyId.S3, PropertyId.S4A,
                 PropertyId.T1, PropertyId.T2, PropertyId.T3, PropertyId.T4A,
                 PropertyId.T4B):
        assert status_of("monoid", prop) is PropertyStatus.HOLDS, prop
    assert status_of("monoid", PropertyId.S4B) is PropertyStatus.FAILS


def test_jsl_property_row():
    for prop in (PropertyId.S1, PropertyId.S2, PropertyId.S3, PropertyId.S4A,
                 PropertyId.S4B, PropertyId.T1, PropertyId.T2, PropertyId.T3,
                 PropertyId.T4A):
        assert status_of("jsl", prop) is PropertyStatus.HOLDS, prop
    # the interchange law is provable, so "lacks abides" fails
    cert = check_property(lookup_theory("jsl"), PropertyId.T4B)
    assert cert.status is PropertyStatus.FAILS
    assert "provable" in cert.detail


def test_exception_property_row():
    tid = "exception:{a,b}"
    for prop in (PropertyId.S1, PropertyId.S2, PropertyId.T1, PropertyId.T2,
                 PropertyId.T3):
        assert status_of(tid, prop) is PropertyStatus.HOLDS, prop
    cert = check_property(lookup_theory(tid), PropertyId.S3)
    assert cert.status is PropertyStatus.HOLDS
    assert cert.method == "vacuous"
    for prop in (PropertyId.S4A, PropertyId.S4B, PropertyId.T4A, PropertyId.T4B):
        assert status_of(tid, prop) is PropertyStatus.FAILS, prop


def test_abgroup_fails_s3():
    cert = check_property(lookup_theory("abgroup"), PropertyId.S3)
    assert cert.status is PropertyStatus.FAILS
    assert "inv" in cert.detail


def test_pointed_properties():
    assert status_of("pointed", PropertyId.T3) is PropertyStatus.HOLDS
    assert status_of("pointed", PropertyId.T4A) is PropertyStatus.FAILS


def test_reader_fails_variable_purity():
    # a sandwich like mul(x1,mul(x2,x1)) collapses to x1 but mentions x2
    cert = check_property(lookup_theory("reader:2"), PropertyId.S2)
    assert cert.status is PropertyStatus.FAILS
    _, foreign = cert.witness
    assert terms.term_vars(foreign) - {"x1"}


def test_plotkin_side_properties():
    ok = PropertyStatus.HOLDS
    for tid in ("boom:U-CI", "boom:UACI"):
        for prop in (PropertyId.P1, PropertyId.P2, PropertyId.P3):
            assert status_of(tid, prop) is ok, (tid, prop)
    # not commutative, so it cannot play the P side
    assert status_of("boom:U--I", PropertyId.P1) is PropertyStatus.FAILS
    for tid in ("boom:U--I", "boom:U-CI", "boom:UACI", "convex"):
        for prop in (PropertyId.V1, PropertyId.V2, PropertyId.V3):
            assert status_of(tid, prop) is ok, (tid, prop)
    # a monoid's binary is not idempotent, so it cannot play the V side
    assert status_of("monoid", PropertyId.V1) is PropertyStatus.FAILS


def test_ring_fails_closed_class_purity():
    # times(x, zero) sits in the class of zero, an open term equal to a
    # closed one
    entry = ring_entry()
    cert = check_property(entry, PropertyId.T1)
    assert cert.status is PropertyStatus.FAILS
    closed, open_member = cert.witness
    assert terms.term_vars(closed) == frozenset()
    assert terms.term_vars(open_member)
    assert decide_eq(entry.procedure, closed, open_member)


def test_abides_holds_matrix():
    # T4b ("lacks abides") fails exactly where the interchange law is provable
    for label in ("M", "P", "M+", "P+"):
        assert status_of(label, PropertyId.T4B) is PropertyStatus.FAILS, label
    for label in ("T", "I", "C", "CI", "L", "AI", "T+", "I+", "C+", "CI+", "L+", "AI+"):
        assert status_of(label, PropertyId.T4B) is PropertyStatus.HOLDS, label


def test_certificate_describe_strings():
    cert = check_property(lookup_theory("monoid"), PropertyId.T4B)
    assert cert.describe() == "Holds(analytic via decide_eq)"
    regular = check_property(lookup_theory("monoid"), PropertyId.S1)
    assert regular.describe() == "Holds(regular presentation)"
    # reader:2 has no constants, hence no closed terms
    vacuous = check_property(lookup_theory("reader:2"), PropertyId.S1)
    assert vacuous.describe() == "Holds(vacuous; no closed terms)"
    essential = check_property(lookup_theory("abgroup"), PropertyId.V3)
    assert essential.describe() == "Holds(essential variables)"


def test_certificates_cached():
    entry = lookup_theory("boom:--CI")
    a = check_property(entry, PropertyId.S1)
    b = check_property(entry, PropertyId.S1)
    assert a is b


# ---------------------------------------------------------------------------
# cross-validation of procedures against the axioms


@pytest.mark.parametrize(
    "tid",
    [
        "boom:U---", "boom:U--I", "boom:U-C-", "boom:U-CI",
        "boom:----", "boom:---I", "boom:--C-", "boom:--CI",
        "convex", "reader:2",
    ],
)
def test_procedures_match_rewrite_classes_three_vars(tid):
    report = validate_procedure_against_rewrites(
        lookup_theory(tid), depth=3, num_vars=3
    )
    assert report.ok, (report.soundness_violations[:3],
                       report.disconnected_classes[:3])
    assert report.term_count == 21612


def test_validation_catches_broken_procedure():
    class Wrong(terms.Procedure):
        def var_key(self, name):
            return name

        def app_key(self, op, child_keys):
            return tuple(sorted(child_keys, key=repr))  # pretends mul is comm

    entry = TheoryEntry("test:wrong-magma", *boom_theory(BoomFlags(False, False, False, False)),
                        Wrong)
    report = validate_procedure_against_rewrites(entry, depth=2, num_vars=2)
    assert not report.ok
    assert report.disconnected_classes  # mul(x,y) and mul(y,x) share a key


# ---------------------------------------------------------------------------
# class maps against a brute-force oracle


def _class_map(entry, depth, num_vars):
    """key -> {variable bitmask -> first witness term} over the bounded term
    universe (atoms: x1..xk plus the signature constants)."""
    sig = entry.presentation.signature
    atoms = [Var(f"x{i + 1}") for i in range(num_vars)]
    atoms += [App(c, ()) for c in sig.constants]
    return terms.classes_by_closure(sig, entry.procedure, atoms, depth)


def _brute_force_class_map(entry, depth, num_vars):
    """Walk every term, keeping the first witness per (key, variable mask)."""
    proc = entry.procedure
    sig = entry.presentation.signature
    atoms = [Var(f"x{i + 1}") for i in range(num_vars)]
    atoms += [App(c, ()) for c in sig.constants]
    classes = {}
    for t in terms.enumerate_terms(sig, atoms, depth):
        bits = 0
        for name in terms.term_vars(t):
            bits |= 1 << (int(name[1:]) - 1)
        classes.setdefault(proc.term_key(t), {}).setdefault(bits, t)
    return classes


@pytest.mark.parametrize(
    "tid,depth,num_vars",
    [(e.theory_id, 2, 3) for e in registry()] + [("narytree-theory:2", 2, 3)]
    + [("convex", 3, 3)],
)
def test_class_map_matches_brute_force(tid, depth, num_vars):
    entry = lookup_theory(tid)
    got = _class_map(entry, depth, num_vars)
    want = _brute_force_class_map(entry, depth, num_vars)
    assert got == want  # witnesses included
    assert [(k, list(b.items())) for k, b in got.items()] == [
        (k, list(b.items())) for k, b in want.items()
    ]


# ---------------------------------------------------------------------------
# exact class certificates against the bounded class maps

_CLASS_PROPS = (PropertyId.S1, PropertyId.T1, PropertyId.S2, PropertyId.T2,
                PropertyId.V2, PropertyId.P3, PropertyId.V3)
_BUILTIN_IDS = sorted({lookup_theory(label).theory_id for label in BOOM_FULL}
                      | {"pointed", "exception:{a}", "exception:{a,b}", "abgroup",
                         "convex", "reader:2"})
_REGULAR_IDS = [tid for tid in _BUILTIN_IDS if tid not in ("abgroup", "reader:2")]


def _claim(entry, prop):
    """The probed term of a class-based property (None: every class with a
    closed member) and the fewest and most (None: any) variables of its
    class members."""
    if prop in (PropertyId.S1, PropertyId.T1):
        return None, 0, 0
    if prop in (PropertyId.S2, PropertyId.T2, PropertyId.V2):
        return Var("x1"), 0, 1
    b12 = entry.binary_at(Var("x1"), Var("x2"))
    return (b12, 0, 2) if prop is PropertyId.P3 else (b12, 2, None)


def _breaks(names, least, most):
    return len(names) < least or (most is not None and len(names) > most)


def _bounded_counterexample(entry, classes, prop):
    """The bounded class-map search: the first member of the probed class
    (or of a class with a closed member) in the class map `classes` whose
    variables break the property's bound, or None."""
    term, least, most = _claim(entry, prop)
    if term is None:
        buckets = [bucket for bucket in classes.values() if 0 in bucket]
    else:
        buckets = [classes.get(entry.procedure.term_key(term), {})]
    for bucket in buckets:
        for member in bucket.values():
            if _breaks(terms.term_vars(member), least, most):
                return member
    return None


def _agrees_with_class_map(entry, classes, cert):
    """No member in the class map `classes` contradicts a Holds; a Fails
    witness is a decided member of the probed class that breaks the bound."""
    found = _bounded_counterexample(entry, classes, cert.prop)
    if cert.status is PropertyStatus.HOLDS:
        assert found is None, (cert.prop, found)
        return
    assert cert.status is PropertyStatus.FAILS, cert
    term, least, most = _claim(entry, cert.prop)
    assert _breaks(terms.term_vars(cert.witness[-1]), least, most), cert
    if cert.method == "regular presentation":  # the probed term itself breaks it
        assert cert.witness == (term,) and found is not None, cert
    else:
        rep, member = cert.witness
        assert decide_eq(entry.procedure, rep, member), cert
        assert term is None or rep == term, cert


@pytest.mark.parametrize(
    "tid,depth,num_vars", [(tid, 3, 4) for tid in _BUILTIN_IDS] + [("ring", 2, 4)]
)
def test_class_certificates_agree_with_class_maps(tid, depth, num_vars):
    entry = ring_entry() if tid == "ring" else lookup_theory(tid)
    classes = _class_map(entry, depth, num_vars)
    for prop in _CLASS_PROPS:
        cert = check_property(entry, prop)
        if cert.method != "syntactic":  # P3/V3 without a designated binary
            _agrees_with_class_map(entry, classes, cert)


def test_ring_certificates_pinned():
    got = {prop.value: check_property(ring_entry(), prop).describe() for prop in PropertyId}
    absorbing = "absorbing term plus(x,times(y,zero))"
    foreign = f"Fails({absorbing}; foreign variable in a variable's class; " \
              "witness x1,plus(x1,times(x2,zero)))"
    closed = f"Fails({absorbing}; open term in a closed term's class; " \
             "witness zero,plus(zero,times(x1,zero)))"
    assert got == {
        "S1": closed,
        "S2": foreign,
        "S3": "Fails(analytic via decide_eq; no unit constant for neg/1)",
        "S4a": "Holds(analytic via decide_eq)",
        "S4b": "Fails(analytic via decide_eq; witness times(x,x),x)",
        "T1": closed,
        "T2": foreign,
        "T3": "Holds(syntactic)",
        "T4a": "Holds(analytic via decide_eq)",
        "T4b": "Holds(analytic via decide_eq)",
        "P1": "Fails(analytic via decide_eq; witness times(x1,x2),times(x2,x1))",
        "P2": "Fails(analytic via decide_eq; witness times(x,x),x)",
        "P3": f"Fails({absorbing}; class member with more than 2 variables; "
              "witness times(x1,x2),plus(times(x1,x2),times(x3,zero)))",
        "V1": "Fails(analytic via decide_eq; witness times(x,x),x)",
        "V2": foreign,
        "V3": "Holds(essential variables)",
    }


def test_regular_theories_are_the_expected_ones():
    irregular = [tid for tid in _BUILTIN_IDS
                 if class_vars(lookup_theory(tid), Var("x1")) is None]
    assert irregular == ["abgroup", "reader:2"] and len(_REGULAR_IDS) == 20
    assert class_vars(narytree_theory(2), Var("x1")) == {"x1"}
    assert class_vars(ring_entry(), Var("x1")) is None


def _jsl_with_binary(text):
    """The join-semilattice theory, unregistered, with `text` as its
    designated binary."""
    jsl = lookup_theory("jsl")
    return TheoryEntry(jsl.theory_id, *boom_theory(BoomFlags(True, True, True, True)),
                       lambda: jsl.procedure, text, "e")


@pytest.mark.parametrize("depth,num_vars", [(2, 3), (3, 3)])
@pytest.mark.parametrize("tid", [*_REGULAR_IDS, "narytree-theory:2", "diagonal"])
def test_regular_path_agrees_with_class_maps(tid, depth, num_vars):
    # diagonal: a regular presentation whose designated binary uses one variable
    entry = _jsl_with_binary("mul(y1,y1)") if tid == "diagonal" else lookup_theory(tid)
    classes = _class_map(entry, depth, num_vars)
    for prop in _CLASS_PROPS:
        exact = check_property(entry, prop)
        if exact.method == "syntactic":  # P3/V3 without a designated binary
            continue
        assert exact.method == "regular presentation", prop
        _agrees_with_class_map(entry, classes, exact)
    if tid == "diagonal":
        v3 = check_property(entry, PropertyId.V3)
        assert v3.status is PropertyStatus.FAILS
        assert v3.describe() == (
            "Fails(regular presentation; class inside a single variable; "
            "witness mul(x1,x1))"
        )


def test_regular_p3_fails_on_a_third_variable():
    wide = _jsl_with_binary("mul(y1,mul(y2,z))")
    p3 = check_property(wide, PropertyId.P3)
    assert p3.describe() == (
        "Fails(regular presentation; class with more than 2 variables; "
        "witness mul(x1,mul(x2,z)))"
    )


@pytest.fixture
def closure_calls(monkeypatch):
    """The `terms.classes_by_closure` calls made during the test."""
    calls = []
    real = terms.classes_by_closure

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(terms, "classes_by_closure", spy)
    return calls


def test_boom_table_builds_no_class_map(monkeypatch, closure_calls):
    for entry in registry():  # certificates cached by earlier tests would hide calls
        monkeypatch.setattr(entry, "_certificates", {})
    table = hierarchy.build_table("full")
    assert not hierarchy.diff_table(table, hierarchy.golden_path("full"))
    assert closure_calls == []


def test_non_regular_theories_take_the_procedure_path(closure_calls):
    for entry, absorbing in ((lookup_theory("abgroup"), "mul(mul(x,y),inv(y))"),
                             (lookup_theory("reader:2"), "mul(x,mul(y,x))"),
                             (ring_entry(), "plus(x,times(y,zero))")):
        assert class_vars(entry, Var("x1")) is None
        assert entry.absorbing == entry.presentation.parse(absorbing)
        cert = check_property(entry, PropertyId.S2)
        assert cert.method == f"absorbing term {absorbing}", entry.theory_id
        assert check_property(entry, PropertyId.V3).describe() == "Holds(essential variables)"
    assert closure_calls == []


def test_loaded_regular_theory_is_exact(monkeypatch, closure_calls):
    # from cold caches, a regular theory's class certificates build no class map
    entry = lookup_theory("boom:UA-I")
    monkeypatch.setattr(entry, "_certificates", {})
    for prop in _CLASS_PROPS:
        cert = check_property(entry, prop)
        assert cert.describe() == "Holds(regular presentation)", prop
    assert closure_calls == []


# the left-zero theory: its operations and its one axiom
_LEFT_ZERO = ((("mul", 2),), (("mul(x,y)", "x", "leftzero"),))


class _LeftZeroProc(terms.Procedure):
    """mul(x,y) = x: every term equals its leftmost variable."""

    def var_key(self, name):
        return name

    def app_key(self, op, child_keys):
        return child_keys[0]

    def reify(self, key):
        return Var(key)


def test_essential_variables_give_the_fewest_member():
    # in the left-zero theory only x1 is essential in mul(x1,x2), so its
    # class holds mul(x1,x1)
    leftzero = TheoryEntry("test:leftzero", *_LEFT_ZERO, _LeftZeroProc, "mul(y1,y2)",
                           absorbing="mul(x,y)")
    assert check_property(leftzero, PropertyId.V3).describe() == (
        "Fails(essential variables; class member inside a single variable; "
        "witness mul(x1,x2),mul(x1,x1))"
    )
    # no variable is essential in mul(x1,inv(x1)): its class holds a closed term
    abgroup = lookup_theory("abgroup")
    verdict, method, witness, _ = theories.class_var_claim(
        abgroup, pt("abgroup", "mul(x1,inv(x1))"), least=1
    )
    assert (verdict, method) == (False, "essential variables")
    assert witness == (pt("abgroup", "mul(x1,inv(x1))"), pt("abgroup", "mul(e,inv(e))"))


def test_rejected_registration_changes_nothing():
    magma = boom_theory(BoomFlags(False, False, False, False))
    before = registry()
    rejected = [
        (TheoryEntry("x:dup", *magma, _LeftZeroProc, aliases=("dup", "monoid")),
         "alias 'monoid' already taken"),
        (TheoryEntry("boom:UA--", *magma, _LeftZeroProc), "already registered"),
    ]
    for entry, message in rejected:
        with pytest.raises(ValueError, match=message):
            register_theory(entry)
        assert registry() == before
        with pytest.raises(KeyError):
            lookup_theory("x:dup")
        with pytest.raises(KeyError):
            lookup_theory("dup")
    assert lookup_theory("monoid").theory_id == "boom:UA--"


def test_every_builtin_entry_builds_and_passes_the_registration_checks():
    # a registered entry is built on first read, and the build holds an
    # irregular theory to its absorbing term
    for entry in registry():
        assert entry.presentation.name == entry.theory_id
        assert isinstance(entry.procedure, terms.Procedure)
        if class_vars(entry, Var("x")) is None:  # irregular
            p = entry.absorbing
            assert terms.term_vars(p) == {"x", "y"}, entry.theory_id
            assert decide_eq(entry.procedure, p, Var("x")), entry.theory_id
    # the registered exception theories are the family's members
    assert exception_theory(("a",)) is lookup_theory("exception:{a}")
    assert exception_theory(("b", "a")) is lookup_theory("exception:{a,b}")


def test_an_entry_parses_nothing_until_a_field_is_read(monkeypatch):
    parsed = []
    real = terms.parse_term
    monkeypatch.setattr(terms, "parse_term",
                        lambda text, sig: parsed.append(text) or real(text, sig))
    narytree_theory.cache_clear()  # an entry built by an earlier test would hide the build
    tree = lookup_theory("narytree-theory:64")
    labels = lookup_theory("exception:{first,read}")
    assert parsed == []
    for entry in (tree, labels):
        assert not set(theories._BUILT) & vars(entry).keys()
    assert render(tree.designated_binary) == "node(y1,y2" + ",e" * 62 + ")"
    # the sides of the 64 axioms, then the designated binary and unit
    assert len(parsed) == 2 * 64 + 2
    assert labels.designated_binary is None
    for entry in (tree, labels):
        assert set(theories._BUILT) <= vars(entry).keys()
    tree.procedure, labels.procedure  # noqa: B018
    assert len(parsed) == 2 * 64 + 2
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        tree.missing  # noqa: B018


def test_an_entry_is_built_once_and_checked_on_first_read(monkeypatch):
    monkeypatch.setattr(theories, "_REGISTRY", dict(theories._REGISTRY))
    monkeypatch.setattr(theories, "_ALIASES", dict(theories._ALIASES))
    builds = []

    def procedure():
        builds.append(None)
        return _LeftZeroProc()

    # none; mul(y,x) = y; x has no y
    for absorbing in (None, "mul(y,x)", "x"):
        builds.clear()
        wrong = TheoryEntry("x:lazy", *_LEFT_ZERO, procedure, "mul(y1,y2)",
                            absorbing=absorbing, aliases=("lazy",))
        assert register_theory(wrong) is lookup_theory("lazy") is wrong
        assert builds == [] and wrong.label == "lazy"
        for field in ("procedure", "absorbing"):  # a failed build leaves the entry unbuilt
            with pytest.raises(ValueError, match=r"^irregular theory 'x:lazy' needs an "
                                                 r"absorbing term p\(x,y\) = x$"):
                getattr(wrong, field)
        assert len(builds) == 2 and "presentation" not in vars(wrong)
        del theories._REGISTRY["x:lazy"], theories._ALIASES["lazy"]

    builds.clear()
    right = TheoryEntry("x:lazy", *_LEFT_ZERO, procedure, "mul(y1,y2)", absorbing="mul(x,y)")
    assert right.designated_unit is None
    assert render(right.absorbing) == "mul(x,y)"
    assert check_property(right, PropertyId.V3).status is PropertyStatus.FAILS
    assert len(builds) == 1


@pytest.mark.parametrize("axioms, binary", [
    ((("inv(x)", "x", "inv"),), None),  # an axiom
    ((), "inv(y1)"),  # a designated term
])
def test_a_text_outside_the_operations_fails_on_first_read(axioms, binary):
    entry = TheoryEntry("x:foreign", (("mul", 2),), axioms, _LeftZeroProc, binary)
    for _ in range(2):
        with pytest.raises(terms.ParseError, match="unknown operation 'inv'"):
            entry.presentation  # noqa: B018
