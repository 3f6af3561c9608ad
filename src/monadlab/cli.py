"""Command line front end.

Exit codes: 0 on success, 1 when a checked property fails (law violation,
refuted verdict, failed golden diff, unproved equation), 2 on usage or
parse errors. Data output goes to stdout; timing goes to stderr so runs
stay byte-stable.
"""

import sys
from pathlib import Path

import click

from . import distlaws as _distlaws
from . import hierarchy as _hierarchy
from . import lawsearch as _lawsearch
from . import monads as _monads
from . import nogo as _nogo
from . import terms as _terms
from . import theories as _theories
from .values import format_value


def _theory(name: str) -> _theories.TheoryEntry:
    try:
        return _theories.lookup_theory(name)
    except KeyError as exc:
        raise click.UsageError(exc.args[0]) from None


def _monad(name: str) -> _monads.FinMonad:
    try:
        return _monads.monad_for(name)
    except _monads.NoMonadError as exc:
        raise click.UsageError(str(exc)) from None


def _law(name: str) -> _distlaws.DistLaw:
    try:
        return _distlaws.law_for(name)
    except _distlaws.NoLawError as exc:
        raise click.UsageError(str(exc)) from None


def _term(text: str, entry: _theories.TheoryEntry) -> _terms.Term:
    try:
        return _terms.parse_term(text, entry.presentation.signature)
    except _terms.ParseError as exc:
        raise click.UsageError(str(exc)) from None


def _report(report: _monads.LawReport) -> None:
    """Case counts, then OK or the first violations (exit 1); a condition
    that saw no case fails too, since its pass would be vacuous."""
    for name in sorted(report.checked):
        click.echo(f"{name}: {report.checked[name]} cases")
    click.echo(f"elapsed {report.elapsed:.2f}s", err=True)
    if report.ok:
        click.echo("OK")
        return
    for name, w, got, want in report.violations[:5]:
        click.echo(
            f"{name} violated at {format_value(w)}: "
            f"{format_value(got)} != {format_value(want)}"
        )
    for name in report.unchecked():
        click.echo(f"{name}: no cases checked")
    sys.exit(1)


# carriers are the letters a..j
_CARRIER = click.IntRange(1, 10)
_BOUND = click.IntRange(min=0)
# certificate bounds: P3 needs three variables to have a counterexample
_DEPTH = click.IntRange(min=1)
_VARS = click.IntRange(min=3)


@click.group()
def main():
    """Monads, equational theories, and distributive-law checking."""


# ---------------------------------------------------------------------------
# theories


@main.group(name="theories")
def theories_group():
    """Inspect the theory registry."""


@theories_group.command(name="list")
def theories_list():
    """One line per registered theory: id, label, aliases."""
    for entry in _theories.registry():
        aliases = ", ".join(entry.aliases)
        proc = "exact" if entry.has_procedure else "bounded"
        click.echo(f"{entry.theory_id:<20} {proc:<8} {entry.label:<34} {aliases}")


@main.command()
@click.argument("theory")
@click.argument("term", metavar="TERM")
def normalize(theory, term):
    """Canonical representative of TERM in THEORY."""
    entry = _theory(theory)
    t = _term(term, entry)
    try:
        click.echo(_terms.render(_terms.normalize(entry.theory_id, t)))
    except _terms.NoProcedureError as exc:
        raise click.UsageError(str(exc)) from None


@main.command("prove-eq")
@click.argument("theory")
@click.argument("lhs", metavar="TERM1")
@click.argument("rhs", metavar="TERM2")
@click.option("--depth", default=3, show_default=True, type=click.IntRange(min=0),
              help="bounded-search depth")
@click.option("--bounded", is_flag=True,
              help="force bounded search even when a decision procedure exists")
def prove_eq(theory, lhs, rhs, depth, bounded):
    """Prove TERM1 = TERM2 in THEORY; exit 1 when not established."""
    entry = _theory(theory)
    a, b = _term(lhs, entry), _term(rhs, entry)
    if entry.has_procedure and not bounded:
        if _terms.decide_eq(entry.theory_id, a, b):
            click.echo("EQUAL (decision procedure)")
            return
        click.echo("NOT EQUAL (decision procedure)")
        sys.exit(1)
    res = _terms.eq_bounded(entry.presentation, a, b, depth=depth)
    if res.status is _terms.EqStatus.EQUAL:
        click.echo(f"EQUAL (bounded search, depth {depth}, {res.steps} steps)")
        return
    click.echo(f"NOT PROVED (bounded search, depth {depth})")
    sys.exit(1)


# ---------------------------------------------------------------------------
# monads


@main.command("monad-laws")
@click.argument("monad")
@click.option("--carrier", default=2, show_default=True, type=_CARRIER, help="carrier size")
@click.option("--bound", default=3, show_default=True, type=_BOUND, help="value size bound")
def monad_laws(monad, carrier, bound):
    """Exhaustively check the unit and associativity laws."""
    m = _monad(monad)
    _report(_monads.check_monad_laws(m, carrier_size=carrier, bound=bound))


# ---------------------------------------------------------------------------
# distributive laws


@main.group()
def law():
    """Evaluate, verify, and search for distributive laws."""


@law.command("apply")
@click.argument("law_id", metavar="LAW")
@click.argument("value", metavar="VALUE")
def law_apply(law_id, value):
    """Apply LAW to a VALUE of its inner-over-outer shape."""
    from .valuetext import ValueSyntaxError, parse_layered

    lw = _law(law_id)
    try:
        v = parse_layered(value, (lw.s_monad, lw.t_monad))
    except ValueSyntaxError as exc:
        raise click.UsageError(str(exc)) from None
    click.echo(format_value(lw.apply(v)))


@law.command("check")
@click.argument("law_id", metavar="LAW")
@click.option("--carrier", default=2, show_default=True, type=_CARRIER, help="carrier size")
@click.option("--bound", default=3, show_default=True, type=_BOUND, help="value size bound")
def law_check(law_id, carrier, bound):
    """Check the unit, multiplication, and naturality conditions."""
    _report(_distlaws.check_beck(_law(law_id), carrier_size=carrier, bound=bound))


@law.command("search")
@click.argument("s_monad", metavar="S")
@click.argument("t_monad", metavar="T")
@click.option("--carrier", default=1, show_default=True, type=_CARRIER,
              help="starting carrier size")
@click.option("--bound", default=2, show_default=True, type=_BOUND, help="value size bound")
def law_search(s_monad, t_monad, carrier, bound):
    """Search the finite fragment for laws S(T(X)) -> T(S(X)).

    Unlike the checking commands this defaults to the smallest fragment
    (|X|=1, bound 2); naturality still propagates into larger carriers.
    """
    _monad(s_monad), _monad(t_monad)
    res = _lawsearch.search_distlaw_bounded(
        s_monad, t_monad, carrier_size=carrier, bound=bound
    )
    click.echo(res.describe())
    for table in res.candidates[:3]:
        click.echo(table.describe())


# ---------------------------------------------------------------------------
# no-go verdicts and tables


@main.command()
@click.argument("s_theory", metavar="S")
@click.argument("t_theory", metavar="T")
@click.option("--depth", default=3, show_default=True, type=_DEPTH, help="certificate depth")
@click.option("--vars", "num_vars", default=4, show_default=True, type=_VARS,
              help="variables in class analyses")
def nogo(s_theory, t_theory, depth, num_vars):
    """Is there a distributive law S∘T => T∘S? Exit 1 when refuted."""
    v = _nogo.verdict(_theory(s_theory), _theory(t_theory), depth, num_vars)
    click.echo(v.describe())
    if v.status == "NoDistLaw":
        sys.exit(1)


@main.command("boom-table")
@click.argument("variant", type=click.Choice(_hierarchy.VARIANTS))
@click.option("--format", "fmt", type=click.Choice(["md", "csv"]), default="md",
              show_default=True)
@click.option("--golden", type=click.Path(exists=True, dir_okay=False), default=None,
              help="compare against a golden CSV instead of printing")
@click.option("--depth", default=3, show_default=True, type=_DEPTH)
@click.option("--vars", "num_vars", default=4, show_default=True, type=_VARS)
def boom_table(variant, fmt, golden, depth, num_vars):
    """Reproduce a Boom-hierarchy verdict table."""
    table = _hierarchy.build_table(variant, depth, num_vars)
    if golden is not None:
        try:
            diffs = _hierarchy.diff_table(table, Path(golden))
        except _hierarchy.GoldenFileError as exc:
            raise click.UsageError(str(exc)) from None
        if diffs:
            for m in diffs:
                click.echo(m.describe())
            click.echo(f"{len(diffs)} mismatching cell(s)")
            sys.exit(1)
        click.echo(f"golden agreement: {len(table.cells)} cells")
        return
    text = _hierarchy.to_csv(table) if fmt == "csv" else _hierarchy.to_markdown(table)
    click.echo(text, nl=False)


@main.command("plotkin-refute")
def plotkin_refute():
    """Replay the distributions-over-sets counterexample; exit 1 if any
    candidate image survives."""
    trace = _nogo.plotkin_refute_bounded()
    click.echo(trace.describe())
    if trace.survivors:
        sys.exit(1)


if __name__ == "__main__":
    main()
