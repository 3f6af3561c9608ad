"""Applicability checkers, the filter lemma, verdicts, and the two-layer
counterexample replay."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadlab.lawsearch import SearchOutcome, search_distlaw_bounded
from monadlab.nogo import (
    Applicability,
    PermutationSpec,
    TheoremId,
    check_idem_units,
    check_lacking_abides,
    check_plotkin_binary,
    check_plotkin_general,
    check_too_many_constants,
    derangements,
    filter_common,
    plotkin_refute_bounded,
    positive_entry,
    uniqueness_applies,
    verdict,
)
from monadlab.terms import parse_term
from monadlab.theories import PropertyId, check_property, lookup_theory, ring_entry
from monadlab.values import mk_dist, mk_set

HALF = Fraction(1, 2)


def pt(text: str, theory_id: str):
    return parse_term(text, lookup_theory(theory_id).presentation.signature)


# ---------------------------------------------------------------------------
# permutations


class TestPermutationSpec:
    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            PermutationSpec(2, (1, 1))
        with pytest.raises(ValueError):
            PermutationSpec(3, (1, 2))

    def test_swap_is_the_only_derangement_of_two(self):
        assert PermutationSpec.swap().mapping == (2, 1)
        assert list(derangements(2)) == [PermutationSpec.swap()]

    def test_call_and_fixed_points(self):
        cyc = PermutationSpec(3, (2, 3, 1))
        assert [cyc(i) for i in (1, 2, 3)] == [2, 3, 1]
        assert cyc.fixed_point_free
        assert not PermutationSpec(2, (1, 2)).fixed_point_free

    def test_derangement_counts(self):
        # oracle: the subfactorial sequence, checked by brute force over all
        # permutations (itertools) before freezing
        assert [len(list(derangements(m))) for m in (2, 3, 4)] == [1, 2, 9]


# ---------------------------------------------------------------------------
# the row-intersection bound


class TestFilterCommon:
    def test_single_row_is_returned_whole(self):
        sigma = PermutationSpec.swap()
        assert filter_common(1, 2, sigma, (1,)) == {(1, 1)}
        assert filter_common(1, 2, sigma, (2,)) == {(1, 2)}

    def test_two_by_two_pins_one_element(self):
        # oracle: row 1 = {(1,1),(2,1)}, row 2 = {(1,2),(2,sigma(2))}; computed
        # by hand from the row table before freezing
        got = filter_common(2, 2, PermutationSpec.swap(), (1, 2))
        assert got == {(2, 1)}

    def test_three_by_three_never_exceeds_one(self):
        cyc = PermutationSpec(3, (2, 3, 1))
        for i1 in (1, 2, 3):
            for i2 in (1, 2, 3):
                for i3 in (1, 2, 3):
                    assert len(filter_common(3, 3, cyc, (i1, i2, i3))) <= 1

    def test_exhaustive_small_instances(self):
        # every n,m <= 4, every fixed-point-free sigma, every choice tuple
        import itertools

        for m in (2, 3, 4):
            for sigma in derangements(m):
                for n in (1, 2, 3, 4):
                    for choices in itertools.product(range(1, m + 1), repeat=n):
                        assert len(filter_common(n, m, sigma, choices)) <= 1

    def test_input_validation(self):
        sigma = PermutationSpec.swap()
        with pytest.raises(ValueError):
            filter_common(0, 2, sigma, ())
        with pytest.raises(ValueError):
            filter_common(2, 2, PermutationSpec(2, (1, 2)), (1, 2))
        with pytest.raises(ValueError):
            filter_common(2, 2, sigma, (1,))
        with pytest.raises(ValueError):
            filter_common(2, 2, sigma, (1, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bound_holds_beyond_the_exhaustive_range(self, data):
        m = data.draw(st.integers(min_value=2, max_value=6))
        sigmas = list(derangements(m))
        sigma = data.draw(st.sampled_from(sigmas))
        n = data.draw(st.integers(min_value=1, max_value=5))
        choices = tuple(
            data.draw(st.integers(min_value=1, max_value=m)) for _ in range(n)
        )
        assert len(filter_common(n, m, sigma, choices)) <= 1


# ---------------------------------------------------------------------------
# variable-counting obstructions


class TestPlotkinBinary:
    def test_jsl_over_convex_applies(self):
        app = check_plotkin_binary("jsl", "convex")
        assert app.applicable
        assert app.theorem == TheoremId.PLOTKIN1
        # the obstruction kills (convex)(jsl) => (jsl)(convex): the verdict
        # row is the v side, the column the p side
        assert app.s_id == "convex" and app.t_id == "boom:UACI"

    def test_jsl_over_itself_applies(self):
        assert check_plotkin_binary("jsl", "jsl").applicable

    def test_reader_binary_is_not_commutative(self):
        app = check_plotkin_binary("reader:2", "reader:2")
        assert not app.applicable
        assert {r.requirement for r in app.failed()} == {"P1", "P3", "V2"}
        assert "not applicable" in app.describe()


class TestPlotkinGeneral:
    def test_swap_specializes_to_the_binary_form(self):
        g = check_plotkin_general(
            "jsl", "jsl", pt("mul(x1,x2)", "jsl"), pt("mul(x1,x2)", "jsl"),
            PermutationSpec.swap(),
        )
        b = check_plotkin_binary("jsl", "jsl")
        assert g.applicable and b.applicable

    def test_ternary_join_under_a_three_cycle(self):
        app = check_plotkin_general(
            "jsl", "convex",
            pt("mul(x1,mul(x2,x3))", "jsl"), pt("mix(x1,x2)", "convex"),
            PermutationSpec(3, (2, 3, 1)),
        )
        assert app.applicable
        assert app.theorem == TheoremId.PLOTKIN2

    def test_monoid_multiplication_fails_both_p_conditions(self):
        app = check_plotkin_general(
            "monoid", "jsl", pt("mul(x1,x2)", "monoid"), pt("mul(x1,x2)", "jsl"),
            PermutationSpec.swap(),
        )
        assert not app.applicable
        assert sorted(r.requirement for r in app.failed()) == [
            "idempotent",
            "stable under sigma",
        ]

    def test_sigma_with_fixed_point_is_rejected(self):
        with pytest.raises(ValueError):
            check_plotkin_general(
                "jsl", "jsl", pt("mul(x1,x2)", "jsl"), pt("mul(x1,x2)", "jsl"),
                PermutationSpec(2, (1, 2)),
            )

    def test_p_variables_must_match_sigma_size(self):
        with pytest.raises(ValueError):
            check_plotkin_general(
                "jsl", "jsl", pt("mul(x1,x3)", "jsl"), pt("mul(x1,x2)", "jsl"),
                PermutationSpec.swap(),
            )


# ---------------------------------------------------------------------------
# unit-driven obstructions


class TestTooManyConstants:
    def test_monoid_over_two_exceptions(self):
        app = check_too_many_constants("monoid", "exception:{a,b}")
        assert app.applicable
        assert app.theorem == TheoremId.TOO_MANY_CONSTANTS

    def test_ring_fails_the_closedness_condition(self):
        # The ring theory has two distinct constants, but annihilation
        # x*0 = 0 puts an open term in the class of a closed one, so the
        # closed-stays-closed hypothesis fails and the theorem does not
        # apply to rings as stated.
        app = check_too_many_constants("monoid", ring_entry(), depth=2)
        assert not app.applicable
        failed = app.failed()
        assert [r.requirement for r in failed] == ["T1"]
        assert "times(x1,zero)" in failed[0].evidence
        # the other three hypotheses do hold
        passed = {r.requirement for r in app.records if r.passed}
        assert passed == {"S3", "term with two free variables",
                          "two distinct constants"}

    def test_single_exception_has_no_wide_term(self):
        app = check_too_many_constants("exception:{a}", "exception:{a,b}")
        assert not app.applicable
        assert [r.requirement for r in app.failed()] == [
            "term with two free variables"
        ]


class TestLackingAbides:
    def test_monoid_over_itself(self):
        assert check_lacking_abides("monoid", "monoid").applicable

    def test_unital_magma_over_itself(self):
        assert check_lacking_abides("boom:U---", "boom:U---").applicable

    def test_commutative_target_abides(self):
        app = check_lacking_abides("monoid", "comm-monoid")
        assert not app.applicable
        assert [r.requirement for r in app.failed()] == ["T4b"]


class TestIdemUnits:
    def test_jsl_over_commutative_monoid(self):
        assert check_idem_units("jsl", "comm-monoid").applicable

    def test_jsl_over_itself(self):
        assert check_idem_units("jsl", "jsl").applicable

    def test_non_idempotent_source_fails(self):
        app = check_idem_units("comm-monoid", "monoid")
        assert not app.applicable
        assert [r.requirement for r in app.failed()] == ["S4b"]


class TestUniqueness:
    def test_monoid_pair(self):
        assert uniqueness_applies("monoid", "monoid")

    def test_commutative_monoid_pair(self):
        assert uniqueness_applies("comm-monoid", "comm-monoid")

    def test_constant_only_signature_is_out(self):
        assert not uniqueness_applies("exception:{a,b}", "monoid")


# ---------------------------------------------------------------------------
# verdicts


# (s, t) -> (status, theorems)
VERDICT_PINS = {
    ("monoid", "monoid"): ("NoDistLaw", ("LackingAbides",)),
    ("monoid", "jsl"): ("Exists", ()),
    ("boom:U--I", "boom:UAC-"): ("NoDistLaw", ("IdemUnits",)),
    ("boom:U---", "boom:UAC-"): ("Exists", ()),
    ("boom:U--I", "boom:--CI"): ("NoDistLaw", ("Plotkin1",)),
    ("boom:U---", "boom:--CI"): ("Unknown", ()),
    ("boom:---I", "boom:U---"): ("Unknown", ()),
    ("jsl", "jsl"): ("NoDistLaw", ("IdemUnits", "Plotkin1")),
}


class TestVerdict:
    @pytest.mark.parametrize("pair", sorted(VERDICT_PINS))
    def test_status_and_theorems(self, pair):
        status, theorems = VERDICT_PINS[pair]
        v = verdict(*pair)
        assert (v.status, v.theorems) == (status, theorems)

    def test_marks(self):
        assert verdict("monoid", "monoid").mark == "N"
        assert verdict("monoid", "jsl").mark == "Y"
        assert verdict("boom:U---", "boom:--CI").mark == "?"

    def test_positive_cells_replay_their_laws(self):
        v = verdict("monoid", "jsl")
        assert v.verified_laws == ("choice:list:powerset",)
        v = verdict("boom:-A--", "boom:-A--")
        assert v.verified_laws == ("mm-nel-1", "mm-nel-2", "mm-nel-3")
        assert "Manes & Mulry" in v.positive.citation

    def test_citation_only_cells_are_flagged(self):
        v = verdict("boom:U-C-", "boom:UAC-")
        assert v.status == "Exists"
        assert v.positive.citation_only
        assert "citation-only" in v.notes
        assert "citation-only" in v.describe()

    def test_failed_replay_raises(self, monkeypatch):
        from monadlab import nogo

        key = ("boom:UA--", "boom:UACI")
        broken = nogo.PositiveEntry(*key, ("faulty-list-exception",), "test")
        monkeypatch.setitem(nogo._POSITIVE, key, broken)
        with pytest.raises(nogo.ReplayError) as exc:
            verdict(*key)
        assert "faulty-list-exception" in str(exc.value)
        assert "mult-s" in str(exc.value)

    def test_jsl_pair_gets_the_independent_refutation_note(self):
        v = verdict("jsl", "jsl")
        assert any("Klin & Salamanca 2018, Thm 3.2" in n for n in v.notes)

    def test_registry_shape(self):
        # 8 linear rows x 4 commutative columns, the same rows over the
        # plain-magma column, and the semigroup diagonal
        from monadlab.nogo import _POSITIVE

        assert len(_POSITIVE) == 8 * 4 + 8 + 1
        assert positive_entry("boom:UA--", "boom:UACI").law_ids == (
            "choice:list:powerset",
        )
        assert positive_entry("boom:----", "boom:----").citation == (
            "Manes & Mulry 2008, Ex 3.9"
        )
        assert positive_entry("boom:UACI", "boom:UACI") is None

    def test_no_designated_binary_still_yields_a_verdict(self):
        v = verdict("exception:{a}", "exception:{a,b}")
        assert v.status == "Unknown"

    def test_raising_depth_does_not_flip_decided_statuses(self):
        for s, t in (("monoid", "monoid"), ("monoid", "jsl")):
            lo = verdict(s, t, depth=2)
            hi = verdict(s, t, depth=3)
            assert lo.status == hi.status

    def test_refutation_certificates_replay_green(self):
        for (s, t), (status, _) in VERDICT_PINS.items():
            if status != "NoDistLaw":
                continue
            v = verdict(s, t)
            se, te = lookup_theory(s), lookup_theory(t)
            # P/V sides come from the variable-counting check, where the
            # column is p and the row is v
            sides = {"S": se, "T": te, "P": te, "V": se}
            for app in v.refutations:
                assert app.applicable
                for rec in app.records:
                    try:
                        prop = PropertyId(rec.requirement)
                    except ValueError:
                        continue
                    assert bool(check_property(sides[rec.side], prop))

    def test_search_fragment_refutation_agrees(self):
        # powerset is the free jsl functor; a fragment refutation for
        # powerset-over-powerset must not coexist with an Exists verdict
        res = search_distlaw_bounded("powerset", "powerset", carrier_size=1, bound=2)
        assert res.outcome == SearchOutcome.NO_LAW
        assert verdict("jsl", "jsl").status != "Exists"


# ---------------------------------------------------------------------------
# the mechanized two-layer counterexample


@pytest.fixture(scope="module")
def trace():
    return plotkin_refute_bounded()


class TestPlotkinRefutation:
    def test_universe_and_candidate_counts(self, trace):
        # 4 point masses + C(4,2) fair mixes, and all 2^10 subsets
        assert len(trace.universe) == 10
        assert trace.candidates == 1024

    def test_no_survivors(self, trace):
        assert trace.survivors == ()

    def test_forced_images(self, trace):
        # oracle: computed by pushing each renaming through the probe and
        # reading off the unit shape, frozen after one run
        forced = {name: img for name, _, img in trace.constraints}
        delta = lambda x: mk_dist([(x, Fraction(1))])
        assert forced["f1"] == mk_set([delta("a"), delta("b")])
        assert forced["f2"] == mk_set([delta("a"), delta("b")])
        assert forced["f3"] == mk_set([mk_dist([("a", HALF), ("c", HALF)])])

    def test_point_mass_candidates_all_fail_the_mixing_constraint(self, trace):
        # every subset containing only point masses misses f3's forced mix
        point_only = [
            (cand, failed)
            for cand, failed in trace.eliminations
            if all(len(d[1]) == 1 for d in cand[1:])
        ]
        assert len(point_only) == 16
        assert all("f3" in failed for _, failed in point_only)

    def test_named_candidates_fail_as_expected(self, trace):
        elim = dict(trace.eliminations)
        delta = lambda x: mk_dist([(x, Fraction(1))])
        assert elim[mk_set([delta("a"), delta("b")])] == ("f3",)
        ac = mk_set([mk_dist([("a", HALF), ("c", HALF)])])
        assert "f1" in elim[ac]

    def test_describe_summarizes(self, trace):
        text = trace.describe()
        assert "1024 candidate images" in text
        assert "0 survive" in text
