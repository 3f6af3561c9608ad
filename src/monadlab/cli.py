"""Command line front end.

Exit codes: 0 on success, 1 when a checked property fails (law violation,
refuted verdict, failed golden diff, unproved equation), 2 on usage or
parse errors, 141 (128 + SIGPIPE) when the reader closes stdout before the
output is written. Data output goes to stdout; timing goes to stderr so
runs stay byte-stable.

`argparse` is imported by `_parser()`, which every CLI run calls, and not
at import: the benchmark ops import this module without parsing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from . import TABLE_VARIANTS
from . import distlaws as _distlaws
from . import hierarchy as _hierarchy
from . import lawsearch as _lawsearch
from . import monads as _monads
from . import nogo as _nogo
from . import terms as _terms
from . import theories as _theories
from . import values as _values


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
    """The report, exit 1 unless OK: a condition that saw no case fails
    too, since its pass would be vacuous."""
    print(report.describe())
    print(f"elapsed {report.elapsed:.2f}s", file=sys.stderr)
    if not report.ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# argument types: each raises ArgumentTypeError, which argparse reports as a
# usage error naming the argument


def _invalid(message: str) -> Exception:
    # argparse is loaded: only a parser built by `_parser()` calls these types
    import argparse

    return argparse.ArgumentTypeError(f"Invalid value: {message}")


class _IntRange:
    """Integers in lo..hi, or at least lo when hi is None."""

    def __init__(self, lo: int, hi=None):
        self.lo, self.hi = lo, hi
        self.span = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"

    def __call__(self, text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise _invalid(f"{text!r} is not a valid integer.") from None
        if n < self.lo or (self.hi is not None and n > self.hi):
            raise _invalid(f"{n} is not in the range {self.span}.")
        return n


def _choice(options):
    """One of `options`, in the wording of the other invalid values."""

    def parse(text: str) -> str:
        if text not in options:
            listed = ", ".join(repr(o) for o in options)
            raise _invalid(f"{text!r} is not one of {listed}.")
        return text

    return parse


def _existing_file(text: str) -> str:
    if not os.path.exists(text):
        raise _invalid(f"File {text!r} does not exist.")
    if os.path.isdir(text):
        raise _invalid(f"File {text!r} is a directory.")
    if not os.access(text, os.R_OK):
        raise _invalid(f"File {text!r} is not readable.")
    return text


# carriers are the letters a..j
_CARRIER = _IntRange(1, 10)
_BOUND = _IntRange(0)
# the search depth of `prove-eq --bounded` without --depth
_PROOF_DEPTH = 3


# ---------------------------------------------------------------------------
# theories


def theories_list(args):
    """One line per registered theory: id, "exact" (every theory has a
    decision procedure), label, aliases."""
    for entry in _theories.registry():
        aliases = ", ".join(entry.aliases)
        print(f"{entry.theory_id:<20} exact    {entry.label:<34} {aliases}")


def normalize(args):
    """Canonical representative of TERM in THEORY."""
    entry = _theory(args.theory)
    nf = _terms.normalize(entry.procedure, _term(args.term, entry))
    if nf is None:
        raise UsageError(
            f"theory {entry.theory_id!r} has a decide-only procedure (no normal form)"
        )
    print(_terms.render(nf))


def prove_eq(args):
    """Prove TERM1 = TERM2 in THEORY; exit 1 when not established."""
    entry = _theory(args.theory)
    a, b = _term(args.term1, entry), _term(args.term2, entry)
    if not args.bounded:
        if args.depth is not None:
            raise UsageError("--depth applies only with --bounded")
        if _terms.decide_eq(entry.procedure, a, b):
            print("EQUAL (decision procedure)")
            return
        print("NOT EQUAL (decision procedure)")
        sys.exit(1)
    depth = _PROOF_DEPTH if args.depth is None else args.depth
    res = _terms.eq_bounded(entry.presentation, a, b, depth=depth)
    if res.status is _terms.EqStatus.EQUAL:
        print(f"EQUAL (bounded search, depth {depth}, {res.steps} steps)")
        return
    if res.capped:  # the search visits at most `terms._NODE_CAP` terms
        print(f"NOT PROVED (bounded search stopped at the node cap of {res.explored:,} "
              f"terms, before depth {depth})")
    else:
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
    print(_values.format_value(lw.apply(v)))


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
    if res.table is not None:
        print(res.table.describe())


# ---------------------------------------------------------------------------
# no-go verdicts and tables


def nogo(args):
    """Is there a distributive law S∘T => T∘S? Exit 1 when refuted."""
    v = _nogo.verdict(_theory(args.s), _theory(args.t))
    print(v.describe())
    if v.status == "NoDistLaw":
        sys.exit(1)


def boom_table(args):
    """Reproduce a Boom-hierarchy verdict table."""
    table = _hierarchy.build_table(args.variant)
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


def _int_option(p, flag: str, default: int, kind, help: str) -> None:
    p.add_argument(flag, type=kind, default=default, metavar="N",
                   help=f"{help} (default: {default}; {kind.span})")


def _size_options(p, carrier: int, bound: int, carrier_help: str = "carrier size") -> None:
    _int_option(p, "--carrier", carrier, _CARRIER, carrier_help)
    _int_option(p, "--bound", bound, _BOUND, "value size bound")


def _parser():
    """The `argparse.ArgumentParser` of every command."""
    import argparse

    root = argparse.ArgumentParser(
        prog="monadlab", allow_abbrev=False,
        description="Monads, equational theories, and distributive-law checking.")
    root.set_defaults(run=None, parser=root)
    top = root.add_subparsers(title="commands", metavar="COMMAND")

    theories = _group(top, "theories", "Inspect the theory registry.")
    _command(theories, "list", theories_list)

    _command(top, "normalize", normalize, "THEORY", "TERM")

    p = _command(top, "prove-eq", prove_eq, "THEORY", "TERM1", "TERM2")
    p.add_argument("--depth", type=_IntRange(0), default=None, metavar="N",
                   help=f"bounded-search depth, with --bounded only "
                        f"(default: {_PROOF_DEPTH}; x>=0)")
    p.add_argument("--bounded", action="store_true",
                   help="search for a bounded proof instead of deciding")

    _size_options(_command(top, "monad-laws", monad_laws, "MONAD"), 2, 3)

    law = _group(top, "law", "Evaluate, verify, and search for distributive laws.")
    _command(law, "apply", law_apply, "LAW", "VALUE")
    _size_options(_command(law, "check", law_check, "LAW"), 2, 3)
    p = _command(law, "search", law_search, "S", "T")
    _size_options(p, 1, 2, "starting carrier size")

    _command(top, "nogo", nogo, "S", "T")

    p = _command(top, "boom-table", boom_table)
    p.add_argument("variant", type=_choice(TABLE_VARIANTS),
                   metavar="{" + "|".join(TABLE_VARIANTS) + "}")
    p.add_argument("--format", dest="fmt", type=_choice(("md", "csv")), default="md",
                   metavar="{md|csv}", help="(default: md)")
    p.add_argument("--golden", type=_existing_file, default=None, metavar="FILE",
                   help="compare against a golden CSV instead of printing")

    _command(top, "plotkin-refute", plotkin_refute)
    return root


# the exit status when the reader of stdout closes it early
CLOSED_PIPE = 141


def main(argv=None) -> None:
    """Run the command in `argv` (default: the process arguments). When the
    reader of stdout closes it early (`monadlab theories list | head -1`),
    stop writing and exit with `CLOSED_PIPE`: stdout then points at
    `os.devnull`, so the interpreter's last flush cannot fail again, as
    Python's `signal` documentation recommends."""
    try:
        try:
            _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(CLOSED_PIPE)


def _run(argv) -> None:
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
    except SystemExit:  # leaves before `_monads` is named, which would run it
        raise
    except _monads.PoolTooLargeError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    main()
