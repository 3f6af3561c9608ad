"""Command line front end.

Exit codes: 0 on success, 1 when a checked property fails (law violation,
refuted verdict, failed golden diff, unproved equation), 2 on usage or
parse errors. Data output goes to stdout; timing goes to stderr so runs
stay byte-stable.
"""

import argparse
import os
import sys
from pathlib import Path

from . import distlaws as _distlaws
from . import hierarchy as _hierarchy
from . import lawsearch as _lawsearch
from . import monads as _monads
from . import nogo as _nogo
from . import terms as _terms
from . import theories as _theories
from .values import format_value


class UsageError(Exception):
    """A bad argument found by a command: exit 2 with the message."""


def _theory(name: str) -> _theories.TheoryEntry:
    try:
        return _theories.lookup_theory(name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _monad(name: str) -> _monads.FinMonad:
    try:
        return _monads.monad_for(name)
    except _monads.NoMonadError as exc:
        raise UsageError(str(exc)) from None


def _law(name: str) -> _distlaws.DistLaw:
    try:
        return _distlaws.law_for(name)
    except _distlaws.NoLawError as exc:
        raise UsageError(str(exc)) from None


def _term(text: str, entry: _theories.TheoryEntry) -> _terms.Term:
    try:
        return _terms.parse_term(text, entry.presentation.signature)
    except _terms.ParseError as exc:
        raise UsageError(str(exc)) from None


def _report(report: _monads.LawReport) -> None:
    """Case counts, then OK or the first violations (exit 1); a condition
    that saw no case fails too, since its pass would be vacuous."""
    for name in sorted(report.checked):
        print(f"{name}: {report.checked[name]} cases")
    print(f"elapsed {report.elapsed:.2f}s", file=sys.stderr)
    if report.ok:
        print("OK")
        return
    for name, w, got, want in report.violations[:5]:
        print(
            f"{name} violated at {format_value(w)}: "
            f"{format_value(got)} != {format_value(want)}"
        )
    for name in report.unchecked():
        print(f"{name}: no cases checked")
    sys.exit(1)


# ---------------------------------------------------------------------------
# argument types: each raises ArgumentTypeError, which argparse reports as a
# usage error naming the argument


class _IntRange:
    """Integers in lo..hi, or at least lo when hi is None."""

    def __init__(self, lo: int, hi=None):
        self.lo, self.hi = lo, hi
        self.span = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"

    def __call__(self, text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"Invalid value: {text!r} is not a valid integer.") from None
        if n < self.lo or (self.hi is not None and n > self.hi):
            raise argparse.ArgumentTypeError(
                f"Invalid value: {n} is not in the range {self.span}.")
        return n


def _choice(options):
    """One of `options`, in the wording of the other invalid values."""

    def parse(text: str) -> str:
        if text not in options:
            listed = ", ".join(repr(o) for o in options)
            raise argparse.ArgumentTypeError(
                f"Invalid value: {text!r} is not one of {listed}.")
        return text

    return parse


def _existing_file(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"Invalid value: File {text!r} does not exist.")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"Invalid value: File {text!r} is a directory.")
    if not os.access(text, os.R_OK):
        raise argparse.ArgumentTypeError(f"Invalid value: File {text!r} is not readable.")
    return text


# carriers are the letters a..j
_CARRIER = _IntRange(1, 10)
_BOUND = _IntRange(0)
# certificate bounds: P3 needs three variables to have a counterexample
_DEPTH = _IntRange(1)
_VARS = _IntRange(3)


# ---------------------------------------------------------------------------
# theories


def theories_list(args):
    """One line per registered theory: id, label, aliases."""
    for entry in _theories.registry():
        aliases = ", ".join(entry.aliases)
        proc = "exact" if entry.has_procedure else "bounded"
        print(f"{entry.theory_id:<20} {proc:<8} {entry.label:<34} {aliases}")


def normalize(args):
    """Canonical representative of TERM in THEORY."""
    entry = _theory(args.theory)
    t = _term(args.term, entry)
    try:
        print(_terms.render(_terms.normalize(entry.theory_id, t)))
    except _terms.NoProcedureError as exc:
        raise UsageError(str(exc)) from None


def prove_eq(args):
    """Prove TERM1 = TERM2 in THEORY; exit 1 when not established."""
    entry = _theory(args.theory)
    a, b = _term(args.term1, entry), _term(args.term2, entry)
    if entry.has_procedure and not args.bounded:
        if _terms.decide_eq(entry.theory_id, a, b):
            print("EQUAL (decision procedure)")
            return
        print("NOT EQUAL (decision procedure)")
        sys.exit(1)
    depth = args.depth
    res = _terms.eq_bounded(entry.presentation, a, b, depth=depth)
    if res.status is _terms.EqStatus.EQUAL:
        print(f"EQUAL (bounded search, depth {depth}, {res.steps} steps)")
        return
    print(f"NOT PROVED (bounded search, depth {depth})")
    sys.exit(1)


# ---------------------------------------------------------------------------
# monads


def monad_laws(args):
    """Exhaustively check the unit and associativity laws."""
    m = _monad(args.monad)
    _report(_monads.check_monad_laws(m, carrier_size=args.carrier, bound=args.bound))


# ---------------------------------------------------------------------------
# distributive laws


def law_apply(args):
    """Apply LAW to a VALUE of its inner-over-outer shape."""
    from .valuetext import ValueSyntaxError, parse_layered

    lw = _law(args.law)
    try:
        v = parse_layered(args.value, (lw.s_monad, lw.t_monad))
    except ValueSyntaxError as exc:
        raise UsageError(str(exc)) from None
    print(format_value(lw.apply(v)))


def law_check(args):
    """Check the unit, multiplication, and naturality conditions."""
    _report(_distlaws.check_beck(_law(args.law), carrier_size=args.carrier,
                                 bound=args.bound))


def law_search(args):
    """Search the finite fragment for laws S(T(X)) -> T(S(X)).

    Unlike the checking commands this defaults to the smallest fragment
    (|X|=1, bound 2); naturality still propagates into larger carriers.
    """
    _monad(args.s), _monad(args.t)
    res = _lawsearch.search_distlaw_bounded(
        args.s, args.t, carrier_size=args.carrier, bound=args.bound
    )
    print(res.describe())
    for table in res.candidates[:3]:
        print(table.describe())


# ---------------------------------------------------------------------------
# no-go verdicts and tables


def nogo(args):
    """Is there a distributive law S∘T => T∘S? Exit 1 when refuted."""
    v = _nogo.verdict(_theory(args.s), _theory(args.t), args.depth, args.num_vars)
    print(v.describe())
    if v.status == "NoDistLaw":
        sys.exit(1)


def boom_table(args):
    """Reproduce a Boom-hierarchy verdict table."""
    table = _hierarchy.build_table(args.variant, args.depth, args.num_vars)
    if args.golden is not None:
        try:
            diffs = _hierarchy.diff_table(table, Path(args.golden))
        except _hierarchy.GoldenFileError as exc:
            raise UsageError(str(exc)) from None
        if diffs:
            for m in diffs:
                print(m.describe())
            print(f"{len(diffs)} mismatching cell(s)")
            sys.exit(1)
        print(f"golden agreement: {len(table.cells)} cells")
        return
    fmt = _hierarchy.to_csv if args.fmt == "csv" else _hierarchy.to_markdown
    sys.stdout.write(fmt(table))


def plotkin_refute(args):
    """Replay the distributions-over-sets counterexample; exit 1 if any
    candidate image survives."""
    trace = _nogo.plotkin_refute_bounded()
    print(trace.describe())
    if trace.survivors:
        sys.exit(1)


# ---------------------------------------------------------------------------
# the parser


def _group(parent, name: str, doc: str):
    """A subcommand group: alone, it prints its help and exits 2."""
    p = parent.add_parser(name, help=doc, description=doc, allow_abbrev=False)
    p.set_defaults(run=None, parser=p)
    return p.add_subparsers(title="commands", metavar="COMMAND")


def _command(parent, name: str, run, *positionals: str):
    """A subcommand running `run(args)`, whose positionals, named by their
    metavars, are read into the lower-case attributes of `args`."""
    summary = " ".join(run.__doc__.split("\n\n")[0].split())
    p = parent.add_parser(name, help=summary, description=run.__doc__, allow_abbrev=False)
    p.set_defaults(run=run, parser=p)
    for metavar in positionals:
        p.add_argument(metavar.lower(), metavar=metavar)
    return p


def _int_option(p, flag: str, default: int, kind, help: str = "", dest=None) -> None:
    text = f"{help} " if help else ""
    p.add_argument(flag, dest=dest, type=kind, default=default, metavar="N",
                   help=f"{text}(default: {default}; {kind.span})")


def _size_options(p, carrier: int, bound: int, carrier_help: str = "carrier size") -> None:
    _int_option(p, "--carrier", carrier, _CARRIER, carrier_help)
    _int_option(p, "--bound", bound, _BOUND, "value size bound")


def _certificate_options(p, depth_help: str = "", vars_help: str = "") -> None:
    _int_option(p, "--depth", 3, _DEPTH, depth_help)
    _int_option(p, "--vars", 4, _VARS, vars_help, dest="num_vars")


def _parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="monadlab", allow_abbrev=False,
        description="Monads, equational theories, and distributive-law checking.")
    root.set_defaults(run=None, parser=root)
    top = root.add_subparsers(title="commands", metavar="COMMAND")

    theories = _group(top, "theories", "Inspect the theory registry.")
    _command(theories, "list", theories_list)

    _command(top, "normalize", normalize, "THEORY", "TERM")

    p = _command(top, "prove-eq", prove_eq, "THEORY", "TERM1", "TERM2")
    _int_option(p, "--depth", 3, _IntRange(0), "bounded-search depth")
    p.add_argument("--bounded", action="store_true",
                   help="force bounded search even when a decision procedure exists")

    _size_options(_command(top, "monad-laws", monad_laws, "MONAD"), 2, 3)

    law = _group(top, "law", "Evaluate, verify, and search for distributive laws.")
    _command(law, "apply", law_apply, "LAW", "VALUE")
    _size_options(_command(law, "check", law_check, "LAW"), 2, 3)
    p = _command(law, "search", law_search, "S", "T")
    _size_options(p, 1, 2, "starting carrier size")

    p = _command(top, "nogo", nogo, "S", "T")
    _certificate_options(p, "certificate depth", "variables in class analyses")

    p = _command(top, "boom-table", boom_table)
    variants = "{" + "|".join(_hierarchy.VARIANTS) + "}"
    p.add_argument("variant", type=_choice(_hierarchy.VARIANTS), metavar=variants)
    p.add_argument("--format", dest="fmt", type=_choice(("md", "csv")), default="md",
                   metavar="{md|csv}", help="(default: md)")
    p.add_argument("--golden", type=_existing_file, default=None, metavar="FILE",
                   help="compare against a golden CSV instead of printing")
    _certificate_options(p)

    _command(top, "plotkin-refute", plotkin_refute)
    return root


def main(argv=None) -> None:
    """Run the command in `argv` (default: the process arguments)."""
    args, extra = _parser().parse_known_args(argv)
    if extra:  # reported with the usage of the command they were given to
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.run is None:
        args.parser.print_help(sys.stderr)
        sys.exit(2)
    try:
        args.run(args)
    except UsageError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    main()
