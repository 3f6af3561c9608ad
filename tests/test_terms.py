import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import subterm_paths

from monadlab import terms
from monadlab.terms import (
    App,
    EqStatus,
    Equation,
    OpSymbol,
    ParseError,
    Presentation,
    Procedure,
    Rewriter,
    Var,
    decide_eq,
    enumerate_terms,
    eq_bounded,
    match,
    normalize,
    parse_term,
    render,
    signature,
    substitute,
    term_vars,
)

MONOID_SIG = signature(("mul", 2), ("e", 0))
MUL = MONOID_SIG.op("mul")
E = MONOID_SIG.op("e")


def p(text):
    return parse_term(text, MONOID_SIG)


MONOID = Presentation(
    "monoid-local",
    MONOID_SIG,
    (
        Equation(p("mul(e,x)"), p("x"), "unitl"),
        Equation(p("mul(x,e)"), p("x"), "unitr"),
        Equation(p("mul(mul(x,y),z)"), p("mul(x,mul(y,z))"), "assoc"),
    ),
)

JSL = Presentation(
    "jsl-local",
    MONOID_SIG,
    MONOID.equations
    + (
        Equation(p("mul(x,y)"), p("mul(y,x)"), "comm"),
        Equation(p("mul(x,x)"), p("x"), "idem"),
    ),
)

MIX_SIG = signature(("mix", 2))
MIX = Presentation(
    "mix-local",
    MIX_SIG,
    (
        Equation(parse_term("mix(x,x)", MIX_SIG), parse_term("x", MIX_SIG), "idem"),
        Equation(
            parse_term("mix(x,y)", MIX_SIG), parse_term("mix(y,x)", MIX_SIG), "comm"
        ),
        Equation(
            parse_term("mix(mix(a,b),mix(c,d))", MIX_SIG),
            parse_term("mix(mix(a,c),mix(b,d))", MIX_SIG),
            "medial",
        ),
    ),
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_structure():
    assert p("mul(x,e)") == App(MUL, (Var("x"), App(E, ())))


def test_parse_bare_constant_and_variable():
    assert p("e") == App(E, ())
    assert p("zebra") == Var("zebra")


def test_parse_whitespace_and_nesting():
    assert p(" mul( mul(x, y) , e ) ") == App(
        MUL, (App(MUL, (Var("x"), Var("y"))), App(E, ()))
    )


def test_parse_numeral_variables():
    sig = signature(("pp", 2))
    t = parse_term("pp(1,2)", sig)
    assert t == App(sig.op("pp"), (Var("1"), Var("2")))


@pytest.mark.parametrize(
    "bad,pos_hint",
    [
        ("", 0),
        ("mul(x", 0),
        ("mul(x)", 0),
        ("mul(x,y))", 8),
        ("mul(,x)", 4),
        ("(x)", 0),
        ("e(x)", 0),
    ],
)
def test_parse_errors_carry_positions(bad, pos_hint):
    with pytest.raises(ParseError) as err:
        p(bad)
    assert err.value.pos == pos_hint
    assert err.value.text == bad


def test_parse_unknown_op_applied():
    with pytest.raises(ParseError):
        p("frob(x,y)")


def terms_over_monoid(max_leaves=10):
    atoms = st.sampled_from([Var("x"), Var("y"), Var("z"), App(E, ())])
    return st.recursive(
        atoms,
        lambda inner: st.builds(lambda a, b: App(MUL, (a, b)), inner, inner),
        max_leaves=max_leaves,
    )


@given(terms_over_monoid())
def test_parse_render_roundtrip(t):
    assert p(render(t)) == t


# ---------------------------------------------------------------------------
# structural helpers


def test_op_symbol_equality_and_hash_follow_name_and_arity():
    a, b = OpSymbol("mul", 2), OpSymbol("mul", 2)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(("mul", 2))
    assert a != OpSymbol("mul", 1) and a != OpSymbol("add", 2)
    assert a != ("mul", 2) and a != "mul"
    assert {a: 1}[b] == 1
    assert App(a, (Var("x"), Var("y"))) == App(b, (Var("x"), Var("y")))
    with pytest.raises(ValueError):
        OpSymbol("bad", -1)


def test_terms_never_equal_tuples():
    x = Var("x")
    assert x != ("x",) and ("x",) != x and x != "x"
    t = App(MUL, (x, Var("y")))
    assert t != (MUL, (x, Var("y"))) and (MUL, (x, Var("y"))) != t


def test_equal_terms_built_apart_hash_alike():
    a, b = p("mul(x,mul(e,y))"), p("mul(x,mul(e,y))")
    assert a is not b and a == b and hash(a) == hash(b)
    assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
    assert len({a, b, p("mul(y,mul(e,x))")}) == 2


def test_term_syntax_rejects_bad_shapes():
    with pytest.raises(ValueError):
        OpSymbol("f", -1)
    with pytest.raises(ValueError, match="duplicate"):
        signature(("f", 1), ("f", 2))
    with pytest.raises(ValueError, match="arity"):
        App(MUL, (Var("x"),))


def test_term_vars():
    assert term_vars(p("mul(mul(x,e),y)")) == {"x", "y"}
    assert term_vars(p("e")) == frozenset()


def test_substitute():
    t = p("mul(x,mul(y,x))")
    s = substitute(t, {"x": p("e"), "y": p("mul(x,x)")})
    assert s == p("mul(e,mul(mul(x,x),e))")


@given(terms_over_monoid())
def test_substitute_identity(t):
    assert substitute(t, {}) == t
    assert substitute(t, {v: Var(v) for v in term_vars(t)}) == t


def _replace_at(term, path, replacement):
    if not path:
        return replacement
    i = path[0]
    return App(term.op, term.args[:i] + (_replace_at(term.args[i], path[1:], replacement),)
               + term.args[i + 1 :])


@given(terms_over_monoid(max_leaves=6))
def test_subterm_paths_and_replace(t):
    for path, sub in subterm_paths(t):
        walked = t
        for i in path:
            walked = walked.args[i]
        assert walked == sub
        assert _replace_at(t, path, sub) == t
        assert _replace_at(t, path, Var("fresh")) != t or sub == Var("fresh")


def test_match_binds_consistently():
    pat = p("mul(x,x)")
    assert match(pat, p("mul(mul(a,b),mul(a,b))")) == {"x": p("mul(a,b)")}
    assert match(pat, p("mul(a,b)")) is None
    assert match(p("mul(e,x)"), p("mul(y,e)")) is None


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_counts_monoid_two_vars():
    atoms = [Var("x"), Var("y")]
    counts = [
        len(list(enumerate_terms(MONOID_SIG, atoms, d))) for d in range(4)
    ]
    # cumulative: 2, then +4, then 6^2-2^2, then 38^2-6^2
    assert counts == [2, 6, 38, 1446]


def test_enumerate_prefix_stable_and_duplicate_free():
    atoms = [Var("x"), Var("y")]
    small = list(enumerate_terms(MONOID_SIG, atoms, 2))
    big = list(enumerate_terms(MONOID_SIG, atoms, 3))
    assert big[: len(small)] == small
    assert len(set(big)) == len(big)


def test_enumerate_unary_chain():
    sig = signature(("s", 1))
    got = list(enumerate_terms(sig, [Var("x")], 3))
    assert [render(t) for t in got] == ["x", "s(x)", "s(s(x))", "s(s(s(x)))"]


# ---------------------------------------------------------------------------
# rewriting and bounded proof search


def test_rewrite_steps_unit():
    got = Rewriter(MONOID).steps(p("mul(e,x)"))
    assert p("x") in got
    # reverse direction needs no pool: the matched subterm supplies x
    assert p("mul(e,mul(e,x))") in got
    assert p("mul(e,mul(e,mul(e,x)))") not in got  # that needs two steps


def test_rewrite_steps_deterministic():
    a = Rewriter(MONOID).steps(p("mul(mul(x,e),y)"))
    b = Rewriter(MONOID).steps(p("mul(mul(x,e),y)"))
    assert a == b
    assert p("mul(mul(x,e),y)") not in a


def test_eq_bounded_unit_law():
    res = eq_bounded(MONOID, p("mul(e,x)"), p("x"))
    assert res.status is EqStatus.EQUAL
    assert res.steps == 1
    assert bool(res)


def test_eq_bounded_reflexive():
    res = eq_bounded(MONOID, p("mul(x,y)"), p("mul(x,y)"))
    assert res.status is EqStatus.EQUAL
    assert res.steps == 0


def test_eq_bounded_commutativity_unknown_for_monoid():
    res = eq_bounded(MONOID, p("mul(x,y)"), p("mul(y,x)"), depth=4)
    assert res.status is EqStatus.UNKNOWN
    assert not bool(res)


def test_eq_bounded_assoc_chain():
    lhs = p("mul(mul(mul(x,y),z),w)")
    rhs = p("mul(x,mul(y,mul(z,w)))")
    assert eq_bounded(MONOID, lhs, rhs, depth=2).status is EqStatus.EQUAL


def test_eq_bounded_idempotent_expansion():
    # growing x into mul(x,x) exercises the reverse reading of an axiom
    assert eq_bounded(JSL, p("x"), p("mul(x,x)")).status is EqStatus.EQUAL


def test_eq_bounded_inverse_pool_instantiation():
    sig = signature(("mul", 2), ("inv", 1), ("e", 0))
    group = Presentation(
        "group-local",
        sig,
        (
            Equation(parse_term("mul(e,x)", sig), parse_term("x", sig), "unitl"),
            Equation(parse_term("mul(x,e)", sig), parse_term("x", sig), "unitr"),
            Equation(
                parse_term("mul(x,inv(x))", sig), parse_term("e", sig), "invr"
            ),
        ),
    )
    # x -> mul(x,e) -> mul(x,mul(y,inv(y))): the y comes from the pool of
    # the terms' variables and the constants
    res = eq_bounded(
        group,
        parse_term("x", sig),
        parse_term("mul(x,mul(y,inv(y)))", sig),
        depth=2,
    )
    assert res.status is EqStatus.EQUAL


def test_eq_bounded_medial_chain_depth3():
    t1 = parse_term("mix(x,mix(y,mix(y,x)))", MIX_SIG)
    t2 = parse_term("mix(mix(x,y),mix(x,mix(x,y)))", MIX_SIG)
    assert eq_bounded(MIX, t1, t2, depth=3).status is EqStatus.EQUAL


def test_eq_bounded_node_cap_reports_capped(monkeypatch):
    monkeypatch.setattr(terms, "_NODE_CAP", 40)
    res = eq_bounded(JSL, p("mul(x,mul(y,z))"), p("mul(mul(q,q),q)"), depth=6)
    assert res.status is EqStatus.UNKNOWN
    assert res.capped


# ---------------------------------------------------------------------------
# decision procedures


class WordProc(Procedure):
    """Free-monoid normal form: terms evaluate to tuples of variable names."""

    def var_key(self, name):
        return (name,)

    def app_key(self, op, child_keys):
        if op.name == "e":
            return ()
        total = ()
        for part in child_keys:
            total += part
        return total

    def reify(self, key):
        if not key:
            return App(E, ())
        out = Var(key[-1])
        for name in reversed(key[:-1]):
            out = App(MUL, (Var(name), out))
        return out


class DecideOnlyProc(WordProc):
    def reify(self, key):
        return None


WORD = WordProc()


def test_decide_eq_via_procedure():
    assert decide_eq(WORD, p("mul(mul(x,y),z)"), p("mul(x,mul(y,z))"))
    assert decide_eq(WORD, p("mul(e,x)"), p("x"))
    assert not decide_eq(WORD, p("mul(x,y)"), p("mul(y,x)"))


def test_normalize_via_procedure():
    assert normalize(WORD, p("mul(x,mul(e,y))")) == p("mul(x,y)")
    assert normalize(WORD, p("mul(e,e)")) == p("e")


def test_decide_only_procedure_rejects_normalize():
    decide_only = DecideOnlyProc()
    assert decide_eq(decide_only, p("mul(e,x)"), p("x"))
    assert normalize(decide_only, p("x")) is None


@settings(max_examples=50)
@given(terms_over_monoid())
def test_word_procedure_agrees_with_eq_bounded_on_units(t):
    # stripping one unit is a single rewrite, so eq_bounded must agree
    stripped = App(MUL, (App(E, ()), t))
    assert decide_eq(WORD, stripped, t)
    assert eq_bounded(MONOID, stripped, t, depth=1).status is EqStatus.EQUAL
