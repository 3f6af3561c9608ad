"""Parsing for the value syntax format_value prints.

The same surface text means different things under different monads
({a:1} is a multiset, a distribution, or an integer combination), so
parsing is directed by a monad per layer: parse_layered reads nested
container layers outside-in and bare labels at the bottom. Within a tree
layer `<` always opens this layer's node, of exactly the tree's width, and
`e` / `bot` / `err` / `ok` are reserved by the layer that uses them: `e` is
the unit leaf of the tree monads that have one, and a label under bintree.
Brackets nest at most `terms.MAX_NESTING` deep. An error message quotes a
bounded slice of a token or of the trailing input (`values.quote`).
"""

import re
from fractions import Fraction
from typing import Sequence, Union

from .monads import (
    AbGroupMonad,
    DistMonad,
    ExceptionMonad,
    FinMonad,
    LiftMonad,
    ListMonad,
    MultisetMonad,
    NaryTreeMonad,
    PowersetMonad,
    ReaderMonad,
    monad_for,
)
from .terms import MAX_NESTING
from .values import (
    Value,
    mk_bot,
    mk_dist,
    mk_err,
    mk_fun,
    mk_grp,
    mk_list,
    mk_mset,
    mk_nleaf,
    mk_nunit,
    mk_ok,
    mk_set,
    quote,
)

__all__ = ["ValueSyntaxError", "parse_layered"]


class ValueSyntaxError(ValueError):
    pass


_PUNCT = set("[]{}<>(),:")
_TOKEN_RE = re.compile(r"[\[\]{}<>(),:]|[^\[\]{}<>(),:\s]+")
_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_NESTING_STEP = {**dict.fromkeys("[{<(", 1), **dict.fromkeys("]}>)", -1)}


class _Tokens:
    def __init__(self, text: str):
        self.items = _TOKEN_RE.findall(text)
        self.pos = 0
        depth = 0
        for tok in self.items:
            depth += _NESTING_STEP.get(tok, 0)
            if depth > MAX_NESTING:
                raise ValueSyntaxError(f"brackets nest deeper than {MAX_NESTING} levels")

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self, context: str) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueSyntaxError(f"unexpected end of input, expected {context}")
        self.pos += 1
        return tok

    def expect(self, want: str):
        tok = self.next(repr(want))
        if tok != want:
            raise ValueSyntaxError(f"expected {want!r}, found {quote(tok)}")

    def done(self) -> bool:
        return self.pos >= len(self.items)


def _label(tokens: _Tokens) -> str:
    tok = tokens.next("a label")
    if tok in _PUNCT or not _LABEL_RE.match(tok):
        raise ValueSyntaxError(f"expected a label, found {quote(tok)}")
    return tok


def _comma_list(tokens: _Tokens, close: str, item) -> list:
    out = []
    if tokens.peek() == close:
        tokens.expect(close)
        return out
    out.append(item())
    while tokens.peek() == ",":
        tokens.expect(",")
        out.append(item())
    tokens.expect(close)
    return out


def _number(tokens: _Tokens, kind: str):
    tok = tokens.next(kind)
    try:
        if kind == "an integer":
            return int(tok)
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueSyntaxError(f"expected {kind}, found {quote(tok)}") from None


def _weighted(tokens: _Tokens, inner, kind: str) -> list:
    def entry():
        x = inner()
        tokens.expect(":")
        return (x, _number(tokens, kind))

    tokens.expect("{")
    return _comma_list(tokens, "}", entry)


def _layer(tokens: _Tokens, monads: tuple, i: int) -> Value:
    if i == len(monads):
        return _label(tokens)
    m = monads[i]

    def inner():
        return _layer(tokens, monads, i + 1)

    if isinstance(m, ListMonad):
        tokens.expect("[")
        return _nonempty(m, "list", mk_list(_comma_list(tokens, "]", inner)))
    if isinstance(m, PowersetMonad):
        tokens.expect("{")
        return _nonempty(m, "set", mk_set(_comma_list(tokens, "}", inner)))
    if isinstance(m, MultisetMonad):
        entries = _weighted(tokens, inner, "an integer")
        if any(n < 0 for _, n in entries):
            raise ValueSyntaxError("multiset counts cannot be negative")
        return _nonempty(m, "multiset", mk_mset(entries=entries))
    if isinstance(m, AbGroupMonad):
        return mk_grp(_weighted(tokens, inner, "an integer"))
    if isinstance(m, DistMonad):
        entries = _weighted(tokens, inner, "a weight")
        try:
            return mk_dist(entries)
        except ValueError as exc:
            raise ValueSyntaxError(str(exc)) from None
    if isinstance(m, NaryTreeMonad):  # every tree monad
        if m.units and tokens.peek() == "e":
            tokens.expect("e")
            return mk_nunit()
        if tokens.peek() == "<":
            tokens.expect("<")
            children = _comma_list(tokens, ">", lambda: _layer(tokens, monads, i))
            if len(children) != m.width:
                raise ValueSyntaxError(
                    f"node of width {len(children)} in a width-{m.width} tree"
                )
            return m.node(children)
        return mk_nleaf(inner())
    if isinstance(m, LiftMonad):  # before its base class, ExceptionMonad
        if tokens.peek() == "bot":
            tokens.expect("bot")
            return mk_bot()
        return mk_ok(_maybe_ok(tokens, inner))
    if isinstance(m, ExceptionMonad):
        if tokens.peek() == "err":
            tokens.expect("err")
            tokens.expect("(")
            label = _label(tokens)
            tokens.expect(")")
            if label not in m.labels:
                raise ValueSyntaxError(
                    f"unknown error label {quote(label)}; this monad raises "
                    f"{', '.join(m.labels)}"
                )
            return mk_err(label)
        return mk_ok(_maybe_ok(tokens, inner))
    if isinstance(m, ReaderMonad):
        tokens.expect("(")
        at0 = inner()
        tokens.expect(",")
        at1 = inner()
        tokens.expect(")")
        return mk_fun(at0, at1)
    raise ValueSyntaxError(f"no text form for monad {m.monad_id}")  # pragma: no cover


def _nonempty(m: FinMonad, kind: str, v: Value) -> Value:
    """`v`, unless it is empty and `m` has no empty value."""
    if m.nonempty and not m.members(v):
        raise ValueSyntaxError(f"a nonempty {kind} needs at least one element")
    return v


def _maybe_ok(tokens: _Tokens, inner):
    # an explicit ok(...) wrapper is accepted and means the same thing
    if tokens.peek() == "ok":
        tokens.expect("ok")
        tokens.expect("(")
        v = inner()
        tokens.expect(")")
        return v
    return inner()


def _resolve(monads) -> tuple:
    out = []
    for m in monads:
        out.append(m if isinstance(m, FinMonad) else monad_for(m))
    return tuple(out)


def parse_layered(text: str, monads: Sequence[Union[str, FinMonad]]) -> Value:
    """Parse nested container layers, outermost first, labels at the bottom."""
    tokens = _Tokens(text)
    v = _layer(tokens, _resolve(monads), 0)
    if not tokens.done():
        raise ValueSyntaxError(f"trailing input {quote(' '.join(tokens.items[tokens.pos:]))}")
    return v
