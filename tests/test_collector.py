"""The compute entry points run with Python's cyclic garbage collector off
(`values.gc_paused`) and leave it no garbage: what they allocate is freed by
reference counting alone, so pausing the collector loses no memory."""

import gc

import pytest

from monadlab import hierarchy
from monadlab.distlaws import check_beck, law_for
from monadlab.hierarchy import build_table
from monadlab.lawsearch import search_distlaw_bounded
from monadlab.monads import check_monad_laws, free_model_iso_check, monad_for
from monadlab.nogo import plotkin_refute_bounded


class _Stop(Exception):
    pass


def _probe(stop_after=None):
    """A law that records whether the collector is on at each application,
    and raises `_Stop` at application `stop_after`, if given."""
    law = law_for("mset-cartesian")
    seen = []

    def apply(v):
        seen.append(gc.isenabled())
        if len(seen) == stop_after:
            raise _Stop
        return law.apply(v)

    return law._replace(law_id="probe", apply=apply), seen


@pytest.fixture
def collector_on():
    """The collector on at the start and again at the end of the test."""
    gc.enable()
    yield
    gc.enable()


def test_a_check_runs_with_the_collector_off_and_turns_it_back_on(collector_on):
    law, seen = _probe()
    assert check_beck(law, 2, 2).ok
    assert seen and not any(seen)
    assert gc.isenabled()


def test_a_check_that_raises_turns_the_collector_back_on(collector_on):
    law, seen = _probe(stop_after=5)
    with pytest.raises(_Stop):
        check_beck(law, 2, 2)
    assert seen == [False] * 5
    assert gc.isenabled()


def test_a_caller_who_turned_the_collector_off_finds_it_off(collector_on):
    law, seen = _probe()
    gc.disable()
    check_beck(law, 2, 2)
    assert not gc.isenabled()
    assert seen and not any(seen)


def test_the_table_builds_with_the_collector_off_and_leaves_it_on(collector_on, monkeypatch):
    seen = []
    verdict = hierarchy.verdict

    def probe(s, t):
        seen.append(gc.isenabled())
        return verdict(s, t)

    monkeypatch.setattr(hierarchy, "verdict", probe)
    build_table("original")
    assert seen and not any(seen)
    assert gc.isenabled()


_CALLS = {
    "check_beck ring": lambda: check_beck(law_for("ring"), 2, 3),
    "check_beck exception-over:dist": lambda: check_beck(law_for("exception-over:dist"), 2, 3),
    "check_monad_laws narytree:3": lambda: check_monad_laws(monad_for("narytree:3"), 2, 3),
    "check_monad_laws dist": lambda: check_monad_laws(monad_for("dist"), 2, 3),
    "search list/list": lambda: search_distlaw_bounded("list", "list"),
    "search reader:2/powerset": lambda: search_distlaw_bounded("reader:2", "powerset"),
    "search dist/powerset": lambda: search_distlaw_bounded("dist", "powerset"),
    "free model convex/dist": lambda: free_model_iso_check("convex", "dist"),
    "plotkin_refute_bounded": plotkin_refute_bounded,
    "build_table full": lambda: build_table("full"),
}


@pytest.mark.parametrize("name", _CALLS)
def test_a_second_call_leaves_the_collector_no_garbage(name, collector_on):
    """Everything a call allocates is freed when its last reference goes:
    with the collector off, a collection after the call finds nothing
    unreachable. The first call is a warm-up: a theory's first build parses
    its presentation, and `terms.parse_term`'s nested closures make
    reference cycles there (1,352 objects over a cold full table); they
    stay until parsing is made iterative."""
    call = _CALLS[name]
    call()
    gc.collect()
    gc.disable()
    call()
    assert gc.collect() == 0
