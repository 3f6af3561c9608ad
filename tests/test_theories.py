import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadlab import hierarchy, terms, theories
from monadlab.terms import (
    App,
    NoProcedureError,
    OpSymbol,
    Var,
    decide_eq,
    normalize,
    parse_term,
    render,
    rewrite_steps,
)
from monadlab.theories import (
    BOOM_EXTENDED,
    BOOM_FULL,
    BOOM_ORIGINAL,
    BandProc,
    BoomFlags,
    PropertyId,
    PropertyStatus,
    TheoryEntry,
    abides_holds,
    boom_theory,
    check_property,
    class_vars,
    exception_theory,
    load_theory_file,
    lookup_theory,
    narytree_theory,
    registry,
    ring_entry,
    theory_ids,
    validate_procedure_against_rewrites,
    _check_bounded_property,
    _class_map,
)


def pt(theory_id, text):
    return lookup_theory(theory_id).presentation.parse(text)


# ---------------------------------------------------------------------------
# registry shape


def test_registry_contents():
    ids = theory_ids()
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


def test_unknown_theory_suggests():
    with pytest.raises(KeyError) as err:
        lookup_theory("monoidd")
    assert "monoid" in str(err.value)


def test_exception_theories_on_demand():
    entry = lookup_theory("exception:{p,q,r}")
    assert entry.presentation.signature.constants == (
        OpSymbol("p", 0), OpSymbol("q", 0), OpSymbol("r", 0),
    )
    assert exception_theory(("q", "p", "r")) is entry  # sorted, deduped id
    assert exception_theory(("r", "p", "q", "p")) is entry


def test_boom_axioms_exactly_flagged():
    monoid = boom_theory(BoomFlags(True, True, False, False))
    assert [a.name for a in monoid.equations] == ["unitl", "unitr", "assoc"]
    magma = boom_theory(BoomFlags(False, False, False, False))
    assert magma.equations == ()
    assert not magma.signature.has("e")
    jsl = boom_theory(BoomFlags(True, True, True, True))
    assert [a.name for a in jsl.equations] == [
        "unitl", "unitr", "assoc", "comm", "idem",
    ]


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
    assert decide_eq(tid, pt(tid, "mul(mul(x,y),z)"), pt(tid, "mul(x,mul(y,z))"))
    assert decide_eq(tid, pt(tid, "mul(e,x)"), pt(tid, "x"))
    assert not decide_eq(tid, pt(tid, "mul(x,y)"), pt(tid, "mul(y,x)"))
    assert normalize(tid, pt(tid, "mul(mul(x,e),y)")) == pt(tid, "mul(x,y)")


def test_comm_monoid_procedure():
    tid = "boom:UAC-"
    assert decide_eq(tid, pt(tid, "mul(x,y)"), pt(tid, "mul(y,x)"))
    assert not decide_eq(tid, pt(tid, "mul(x,x)"), pt(tid, "x"))
    assert normalize(tid, pt(tid, "mul(y,mul(x,e))")) == pt(tid, "mul(x,y)")


def test_jsl_procedure():
    tid = "boom:UACI"
    assert decide_eq(tid, pt(tid, "mul(x,mul(y,x))"), pt(tid, "mul(y,x)"))
    assert decide_eq(tid, pt(tid, "mul(mul(x,x),e)"), pt(tid, "x"))
    assert not decide_eq(tid, pt(tid, "mul(x,y)"), pt(tid, "x"))
    assert normalize(tid, pt(tid, "mul(y,mul(x,y))")) == pt(tid, "mul(x,y)")


def test_tree_procedures():
    t = "boom:U---"
    assert decide_eq(t, pt(t, "mul(e,x)"), pt(t, "x"))
    assert not decide_eq(t, pt(t, "mul(mul(x,y),z)"), pt(t, "mul(x,mul(y,z))"))
    c = "boom:--C-"
    assert decide_eq(c, pt(c, "mul(x,y)"), pt(c, "mul(y,x)"))
    assert not decide_eq(c, pt(c, "mul(mul(x,y),z)"), pt(c, "mul(x,mul(y,z))"))
    i = "boom:---I"
    assert decide_eq(i, pt(i, "mul(mul(x,x),y)"), pt(i, "mul(x,y)"))
    assert not decide_eq(i, pt(i, "mul(x,y)"), pt(i, "mul(y,x)"))


def test_band_procedure_facts():
    tid = "boom:-A-I"
    # xyxyx = xyx is the classic collapse
    assert decide_eq(
        tid,
        pt(tid, "mul(x,mul(y,mul(x,mul(y,x))))"),
        pt(tid, "mul(x,mul(y,x))"),
    )
    assert decide_eq(tid, pt(tid, "mul(mul(x,y),mul(x,y))"), pt(tid, "mul(x,y)"))
    assert not decide_eq(tid, pt(tid, "mul(x,y)"), pt(tid, "mul(y,x)"))
    assert not decide_eq(tid, pt(tid, "mul(x,mul(y,x))"), pt(tid, "mul(x,y)"))
    with pytest.raises(NoProcedureError):
        normalize(tid, pt(tid, "mul(x,y)"))  # decide-only


def test_unital_band_unit():
    tid = "boom:UA-I"
    assert decide_eq(tid, pt(tid, "mul(e,mul(x,x))"), pt(tid, "x"))
    assert not decide_eq(tid, pt(tid, "mul(x,y)"), pt(tid, "e"))


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
    assert decide_eq(tid, pt(tid, "mul(x,inv(x))"), pt(tid, "e"))
    assert decide_eq(tid, pt(tid, "inv(mul(x,y))"), pt(tid, "mul(inv(y),inv(x))"))
    assert decide_eq(tid, pt(tid, "inv(inv(x))"), pt(tid, "x"))
    assert not decide_eq(tid, pt(tid, "mul(x,x)"), pt(tid, "x"))
    assert normalize(tid, pt(tid, "mul(x,mul(x,inv(y)))")) == pt(
        tid, "mul(x,mul(x,inv(y)))"
    )
    assert normalize(tid, pt(tid, "mul(inv(x),x)")) == pt(tid, "e")


def test_convex_procedure():
    tid = "convex"
    assert decide_eq(
        tid,
        pt(tid, "mix(mix(a,b),mix(c,d))"),
        pt(tid, "mix(mix(a,c),mix(b,d))"),
    )
    # both sides weigh x at 5/8 and y at 3/8
    assert decide_eq(
        tid,
        pt(tid, "mix(x,mix(y,mix(y,x)))"),
        pt(tid, "mix(mix(x,y),mix(x,mix(x,y)))"),
    )
    assert not decide_eq(tid, pt(tid, "mix(x,mix(x,y))"), pt(tid, "mix(x,y)"))
    assert normalize(tid, pt(tid, "mix(x,x)")) == Var("x")
    two_one = normalize(tid, pt(tid, "mix(x,mix(x,mix(y,x)))"))
    proc = terms.procedure_for(tid)
    assert proc.term_key(two_one) == proc.term_key(pt(tid, "mix(x,mix(x,mix(y,x)))"))


def test_reader_procedure():
    tid = "reader:2"
    assert decide_eq(tid, pt(tid, "mul(x,mul(y,x))"), pt(tid, "x"))
    assert decide_eq(tid, pt(tid, "mul(mul(x,y),z)"), pt(tid, "mul(x,z)"))
    assert not decide_eq(tid, pt(tid, "mul(x,y)"), pt(tid, "mul(y,x)"))
    assert normalize(tid, pt(tid, "mul(x,mul(y,x))")) == Var("x")


def test_ring_entry_procedure():
    entry = ring_entry()
    pres = entry.presentation
    assert decide_eq(
        "ring",
        pres.parse("times(plus(x,y),z)"),
        pres.parse("plus(times(x,z),times(y,z))"),
    )
    assert decide_eq("ring", pres.parse("times(x,zero)"), pres.parse("zero"))
    assert not decide_eq("ring", pres.parse("one"), pres.parse("zero"))
    assert not decide_eq(
        "ring", pres.parse("times(x,y)"), pres.parse("times(y,x)")
    )
    assert normalize(
        "ring", pres.parse("times(plus(x,one),y)")
    ) == pres.parse("plus(times(x,y),y)")


def test_narytree_theory_units():
    entry = narytree_theory(3)
    pres = entry.presentation
    assert decide_eq(entry.theory_id, pres.parse("node(e,x,e)"), pres.parse("x"))
    assert decide_eq(entry.theory_id, pres.parse("node(e,e,e)"), pres.parse("e"))
    assert not decide_eq(
        entry.theory_id, pres.parse("node(x,y,e)"), pres.parse("node(x,e,y)")
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
        assert decide_eq(tid, t, u), f"{u} should equal {t}"


def _path_walk_steps(rules, term, pool):
    """Reference one-step rewrites: every position in preorder, each rule
    (an axiom read one way, with its right side's variables), pool fills for
    one-sided variables, first occurrence kept and `term` itself dropped."""
    out = {}
    for path, sub in terms.subterm_paths(term):
        for pat, repl, repl_vars in rules:
            bindings = terms.match(pat, sub)
            if bindings is None:
                continue
            unbound = sorted(repl_vars - bindings.keys())
            for fills in itertools.product(pool, repeat=len(unbound)):
                full = dict(bindings, **dict(zip(unbound, fills)))
                rewritten = terms.replace_at(term, path, terms.substitute(repl, full))
                out.setdefault(rewritten, None)
    out.pop(term, None)
    return list(out)


@pytest.mark.parametrize("tid", [*theory_ids(), "ring"])
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


def status_of(tid, prop, **kw):
    return check_property(lookup_theory(tid), prop, **kw).status


def test_monoid_property_row():
    ok = (PropertyStatus.HOLDS, PropertyStatus.HOLDS_BOUNDED)
    for prop in (PropertyId.S1, PropertyId.S2, PropertyId.S3, PropertyId.S4A,
                 PropertyId.T1, PropertyId.T2, PropertyId.T3, PropertyId.T4A,
                 PropertyId.T4B):
        assert status_of("monoid", prop) in ok, prop
    assert status_of("monoid", PropertyId.S4B) is PropertyStatus.FAILS


def test_jsl_property_row():
    ok = (PropertyStatus.HOLDS, PropertyStatus.HOLDS_BOUNDED)
    for prop in (PropertyId.S1, PropertyId.S2, PropertyId.S3, PropertyId.S4A,
                 PropertyId.S4B, PropertyId.T1, PropertyId.T2, PropertyId.T3,
                 PropertyId.T4A):
        assert status_of("jsl", prop) in ok, prop
    # the interchange law is provable, so "lacks abides" fails
    cert = check_property(lookup_theory("jsl"), PropertyId.T4B)
    assert cert.status is PropertyStatus.FAILS
    assert "provable" in cert.detail


def test_exception_property_row():
    tid = "exception:{a,b}"
    ok = (PropertyStatus.HOLDS, PropertyStatus.HOLDS_BOUNDED)
    for prop in (PropertyId.S1, PropertyId.S2, PropertyId.T1, PropertyId.T2,
                 PropertyId.T3):
        assert status_of(tid, prop) in ok, prop
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
    ok = (PropertyStatus.HOLDS, PropertyStatus.HOLDS_BOUNDED)
    for tid in ("boom:U-CI", "boom:UACI"):
        for prop in (PropertyId.P1, PropertyId.P2, PropertyId.P3):
            assert status_of(tid, prop) in ok, (tid, prop)
    # not commutative, so it cannot play the P side
    assert status_of("boom:U--I", PropertyId.P1) is PropertyStatus.FAILS
    for tid in ("boom:U--I", "boom:U-CI", "boom:UACI", "convex"):
        for prop in (PropertyId.V1, PropertyId.V2, PropertyId.V3):
            assert status_of(tid, prop) in ok, (tid, prop)
    # a monoid's binary is not idempotent, so it cannot play the V side
    assert status_of("monoid", PropertyId.V1) is PropertyStatus.FAILS


def test_ring_fails_closed_class_purity():
    # times(x, zero) sits in the class of zero, an open term equal to a
    # closed one
    entry = ring_entry()
    cert = check_property(entry, PropertyId.T1, depth=2, num_vars=2)
    assert cert.status is PropertyStatus.FAILS
    closed, open_member = cert.witness
    assert terms.term_vars(closed) == frozenset()
    assert terms.term_vars(open_member)


def test_abides_holds_matrix():
    assert abides_holds(lookup_theory("comm-monoid"))
    assert abides_holds(lookup_theory("jsl"))
    assert abides_holds(lookup_theory("boom:-AC-"))
    assert abides_holds(lookup_theory("boom:-ACI"))
    for label in ("T", "I", "L", "AI", "T+", "I+", "L+", "AI+"):
        assert not abides_holds(lookup_theory(label)), label
    for label in ("C", "CI", "C+", "CI+"):
        assert not abides_holds(lookup_theory(label)), label


def test_certificate_describe_strings():
    cert = check_property(lookup_theory("monoid"), PropertyId.T4B)
    assert cert.describe() == "Holds(analytic via decide_eq)"
    regular = check_property(lookup_theory("monoid"), PropertyId.S1)
    assert regular.describe() == "Holds(regular presentation)"
    bounded = check_property(lookup_theory("reader:2"), PropertyId.S1)
    assert bounded.describe().startswith("HoldsBounded(depth=3,vars=4)")


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
    flags = BoomFlags(False, False, False, False)
    pres = boom_theory(flags)

    class Wrong(terms.Procedure):
        def var_key(self, name):
            return name

        def app_key(self, op, child_keys):
            return tuple(sorted(child_keys, key=repr))  # pretends mul is comm

    entry = TheoryEntry("test:wrong-magma", pres, "wrong")
    terms.register_procedure("test:wrong-magma", Wrong())
    report = validate_procedure_against_rewrites(entry, depth=2, num_vars=2)
    assert not report.ok
    assert report.disconnected_classes  # mul(x,y) and mul(y,x) share a key


# ---------------------------------------------------------------------------
# class maps against a brute-force oracle


def _brute_force_class_map(entry, depth, num_vars):
    """Walk every term, keeping the first witness per (key, variable mask)."""
    proc = terms.procedure_for(entry.theory_id)
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
    [(tid, 2, 3) for tid in (*theory_ids(), "narytree-theory:2")]
    + [("convex", 3, 3)],
)
def test_class_map_matches_brute_force(tid, depth, num_vars):
    entry = lookup_theory(tid)
    entry._class_maps.pop((depth, num_vars), None)  # build it here, not cached
    got = _class_map(entry, depth, num_vars)
    want = _brute_force_class_map(entry, depth, num_vars)
    assert got == want  # witnesses included
    assert [(k, list(b.items())) for k, b in got.items()] == [
        (k, list(b.items())) for k, b in want.items()
    ]


# ---------------------------------------------------------------------------
# exact certificates for regular presentations

_CLASS_PROPS = (PropertyId.S1, PropertyId.T1, PropertyId.S2, PropertyId.T2,
                PropertyId.V2, PropertyId.P3, PropertyId.V3)
_BUILTIN_IDS = sorted({lookup_theory(label).theory_id for label in BOOM_FULL}
                      | {"pointed", "exception:{a}", "exception:{a,b}", "abgroup",
                         "convex", "reader:2"})
_REGULAR_IDS = [tid for tid in _BUILTIN_IDS if tid not in ("abgroup", "reader:2")]


def test_regular_theories_are_the_expected_ones():
    irregular = [tid for tid in _BUILTIN_IDS
                 if class_vars(lookup_theory(tid), Var("x1")) is None]
    assert irregular == ["abgroup", "reader:2"] and len(_REGULAR_IDS) == 20
    assert class_vars(narytree_theory(2), Var("x1")) == {"x1"}
    assert class_vars(ring_entry(), Var("x1")) is None


def _diagonal_jsl():
    # a regular presentation whose designated binary uses one variable
    jsl = lookup_theory("jsl")
    return jsl.with_binary(pt("jsl", "mul(y1,y1)"))


def test_with_binary_shares_class_maps_and_starts_fresh_certificates():
    jsl = lookup_theory("jsl")
    check_property(jsl, PropertyId.P3)  # fills the certificate cache
    variant = _diagonal_jsl()
    assert variant.designated_binary == pt("jsl", "mul(y1,y1)") != jsl.designated_binary
    assert variant._class_maps is jsl._class_maps
    assert variant._certificates == {} != jsl._certificates
    same = ("theory_id", "presentation", "label", "designated_unit", "aliases", "notes")
    assert [getattr(variant, f) for f in same] == [getattr(jsl, f) for f in same]


@pytest.mark.parametrize("depth,num_vars", [(2, 3), (3, 3)])
@pytest.mark.parametrize("tid", [*_REGULAR_IDS, "narytree-theory:2", "diagonal"])
def test_regular_path_agrees_with_class_maps(tid, depth, num_vars):
    entry = _diagonal_jsl() if tid == "diagonal" else lookup_theory(tid)
    for prop in _CLASS_PROPS:
        exact = check_property(entry, prop, depth, num_vars)
        if exact.method == "syntactic":  # P3/V3 without a designated binary
            continue
        assert exact.method == "regular presentation", prop
        bounded = _check_bounded_property(entry, prop, depth, num_vars)
        if exact.status is PropertyStatus.HOLDS:
            assert bounded.status is not PropertyStatus.FAILS, (prop, bounded)
        else:
            assert exact.status is bounded.status is PropertyStatus.FAILS, prop
    if tid == "diagonal":
        v3 = check_property(entry, PropertyId.V3, depth, num_vars)
        assert v3.status is PropertyStatus.FAILS
        assert v3.describe() == (
            "Fails(regular presentation; class inside a single variable; "
            "witness mul(x1,x1))"
        )


def test_regular_p3_fails_on_a_third_variable():
    wide = lookup_theory("jsl").with_binary(pt("jsl", "mul(y1,mul(y2,z))"))
    p3 = check_property(wide, PropertyId.P3)
    assert p3.describe() == (
        "Fails(regular presentation; class with more than 2 variables; "
        "witness mul(x1,mul(x2,z)))"
    )


@pytest.fixture
def class_map_calls(monkeypatch):
    """Theory ids of the `_class_map` calls made during the test."""
    calls = []

    def spy(entry, depth, num_vars):
        calls.append(entry.theory_id)
        return _class_map(entry, depth, num_vars)

    monkeypatch.setattr(theories, "_class_map", spy)
    return calls


def test_boom_table_builds_no_class_map(monkeypatch, class_map_calls):
    for entry in registry():  # certificates cached by earlier tests would hide calls
        monkeypatch.setattr(entry, "_certificates", {})
    table = hierarchy.build_table("full", 3, 3)
    assert not hierarchy.diff_table(table, hierarchy.golden_path("full"))
    assert class_map_calls == []


def test_non_regular_theories_take_the_bounded_path(tmp_path, class_map_calls):
    path = tmp_path / "leftzero.json"
    path.write_text(json.dumps({
        "id": "test:leftzero-bounded",
        "ops": [["mul", 2]],
        "axioms": [["mul(x,y)", "x", "leftzero"]],
        "designated_binary": "mul(y1,y2)",
    }))
    leftzero = load_theory_file(str(path))
    for entry in (lookup_theory("abgroup"), lookup_theory("reader:2"), ring_entry(),
                  leftzero):
        assert class_vars(entry, Var("x1")) is None
        class_map_calls.clear()
        cert = check_property(entry, PropertyId.S2, depth=2, num_vars=2)
        assert cert.method == "depth=2,vars=2", entry.theory_id
        assert set(class_map_calls) == {entry.theory_id}


def test_loaded_regular_theory_is_exact(tmp_path):
    copy = _load_copy(tmp_path, "boom:UA-I")
    assert not copy.has_procedure
    for prop in _CLASS_PROPS:
        cert = check_property(copy, prop)
        assert cert.describe() == "Holds(regular presentation)", prop
    assert not copy._class_maps


# ---------------------------------------------------------------------------
# loading theory definitions


def _load_copy(tmp_path, tid):
    """A procedure-less copy of a registered theory, loaded from JSON."""
    entry = lookup_theory(tid)
    pres = entry.presentation
    path = tmp_path / "copy.json"
    path.write_text(json.dumps({
        "id": f"copy:{tid}",
        "ops": [[op.name, op.arity] for op in pres.signature.ops],
        "axioms": [[render(e.lhs), render(e.rhs), e.name] for e in pres.equations],
        "designated_binary": render(entry.designated_binary),
    }))
    return load_theory_file(str(path))


@pytest.mark.parametrize("tid", ["boom:--C-", "boom:U-C-"])
def test_rewrite_class_map_matches_procedure(tmp_path, tid):
    # rewrite classes are keyed by representative, procedure classes by key;
    # buckets, witnesses and their order must agree
    copy = _load_copy(tmp_path, tid)
    assert not copy.has_procedure
    got = _class_map(copy, 2, 3)
    want = _class_map(lookup_theory(tid), 2, 3)
    assert [list(b.items()) for b in got.values()] == [
        list(b.items()) for b in want.values()
    ]


def test_class_certificates_too_small_to_fail_are_unknown(tmp_path):
    reader = lookup_theory("reader:2")
    for prop in (PropertyId.S2, PropertyId.V2, PropertyId.P3, PropertyId.V3):
        cert = check_property(reader, prop, depth=3, num_vars=1)
        assert cert.status is PropertyStatus.UNKNOWN, prop
        assert cert.detail, prop
    # convex is regular: its certificates are exact at any bound
    for prop in (PropertyId.S1, PropertyId.T1):
        assert status_of("convex", prop, num_vars=0) is PropertyStatus.HOLDS
    assert status_of("convex", PropertyId.P3, num_vars=2) is PropertyStatus.HOLDS
    assert status_of("convex", PropertyId.P3, num_vars=3) is PropertyStatus.HOLDS
    path = tmp_path / "leftzero.json"
    path.write_text(json.dumps({
        "id": "test:leftzero-small",
        "ops": [["mul", 2]],
        "axioms": [["mul(x,y)", "x", "leftzero"]],
        "designated_binary": "mul(y1,y2)",
    }))
    leftzero = load_theory_file(str(path))
    # at depth 0 mul(x1,x2) is outside the universe: no class to search
    cert = check_property(leftzero, PropertyId.P3, depth=0, num_vars=3)
    assert cert.status is PropertyStatus.UNKNOWN
    assert "no class" in cert.detail
    # a counterexample found in a small universe still refutes
    cert = check_property(leftzero, PropertyId.V3, depth=2, num_vars=1)
    assert cert.status is PropertyStatus.FAILS


def test_bounded_class_certificates_at_depth_zero_are_unknown():
    # depth 0 holds only atoms: reader:2 S2 fails from depth 2 and ring T1
    # from depth 1, so an atoms-only search must not read as HoldsBounded
    cases = ((lookup_theory("reader:2"), PropertyId.S2, 2), (ring_entry(), PropertyId.T1, 1))
    for entry, prop, fails_from in cases:
        cert = check_property(entry, prop, depth=0)
        assert cert.status is PropertyStatus.UNKNOWN, entry.theory_id
        assert cert.detail == "a counterexample needs depth >= 1"
        assert check_property(entry, prop, depth=fails_from).status is PropertyStatus.FAILS
    # depth 1 is searched as before
    reader_s2 = check_property(lookup_theory("reader:2"), PropertyId.S2, depth=1)
    assert reader_s2.describe() == "HoldsBounded(depth=1,vars=4)"


def test_bounded_class_certificates_too_shallow_to_fail_are_unknown():
    # a depth-1 term over binary operations has at most 2 variables, and a
    # P3 counterexample needs 3: reader:2 P3 fails only from depth 2
    reader = lookup_theory("reader:2")
    cert = check_property(reader, PropertyId.P3, depth=1)
    assert cert.status is PropertyStatus.UNKNOWN
    assert cert.detail == (
        "a counterexample needs 3 variables, terms in bounds have at most 2"
    )
    cert = check_property(reader, PropertyId.P3, depth=2)
    assert cert.status is PropertyStatus.FAILS
    assert "witness mul(x1,x2),mul(x1,mul(x3,x2))" in cert.describe()


def test_load_theory_file(tmp_path):
    path = tmp_path / "leftzero.json"
    path.write_text(json.dumps({
        "id": "test:leftzero",
        "ops": [["mul", 2]],
        "axioms": [["mul(x,y)", "x", "leftzero"]],
        "designated_binary": "mul(y1,y2)",
    }))
    entry = load_theory_file(str(path))
    assert lookup_theory("test:leftzero") is entry
    assert not entry.has_procedure
    # bounded fallback: the class of x1 contains mul(x1,x2)
    cert = check_property(entry, PropertyId.S2, depth=2, num_vars=2)
    assert cert.status is PropertyStatus.FAILS
    # mul(x,x) = x is a one-step consequence, provable within the bound
    v1 = check_property(entry, PropertyId.V1)
    assert v1.status is PropertyStatus.HOLDS_BOUNDED
    assert "eq_bounded" in v1.method
    # commutativity is false but bounded search cannot refute, so Unknown
    p1 = check_property(entry, PropertyId.P1)
    assert p1.status is PropertyStatus.UNKNOWN
