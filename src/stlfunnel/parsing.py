"""Recursive-descent parser for the formula grammar.

Grammar (whitespace-insensitive)::

    theta  := phi ("and" phi)* | chain
    chain  := "F" window "(" psi "and" chain ")" | "F" window arg
    phi    := ("G" | "F") window arg
    window := "[" NUM "," NUM "]"
    arg    := "(" psi ")" | psi
    psi    := term ("and" term)*
    term   := pred | "not" pred | "(" psi ")"
    pred   := "ball(" IDXLIST ";" NUMLIST ";" POS ")"
            | "join(" IDXLIST ";" IDXLIST ";" POS ")"
            | "band(" IDX ";" NUM ";" POS ")"
            | "aff(" NUMLIST ";" NUM ")"

POS is a positive NUM, and an ``aff`` needs a nonzero coefficient.

A "(" right after a window always opens ``arg``, so ``F[0,1](p) and q``
is an error rather than a two-term ``psi``.  A ``psi`` ends before an
"and" followed by "G[" or "F[": inside an Eventually's parentheses that
"and" nests the next chain step, anywhere else it starts the next atom
of the ordered conjunction.  A chain with a single step is
indistinguishable from a plain Eventually atom and is parsed as one.
A band term desugars into two opposing affine leaves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import FormulaError, ParseError
from .formulas import NonTemporalFormula, SequentialFormula, TemporalFormula
from .predicates import PredicateSpec, affine, ball, join

__all__ = ["parse_formula", "parse_psi"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<word>[A-Za-z_]+)"
    r"|(?P<punct>[\[\](),;]))"
)


def band_leaves(idx: int, center: float, halfwidth: float) -> tuple[PredicateSpec, PredicateSpec]:
    """Two affine leaves encoding |x_idx - center| < halfwidth."""
    upper = affine((idx,), (1.0,), center + halfwidth)
    lower = affine((idx,), (-1.0,), halfwidth - center)
    return upper, lower


def _aff(coeffs: tuple[float, ...], offset: float) -> PredicateSpec:
    sel = tuple(i for i, c in enumerate(coeffs) if c != 0.0)
    if not sel:
        raise ValueError("affine predicate needs a nonzero coefficient")
    return affine(sel, tuple(coeffs[i] for i in sel), offset)


# Each predicate's ";"-separated fields and its leaf builder.  A field is
# a state index ("i"), a number ("x") or a positive number ("r"); a
# trailing "+" reads a comma list.
_PREDICATES = {
    "ball": (("i+", "x+", "r"), ball),
    "join": (("i+", "i+", "r"), join),
    "band": (("i", "x", "r"), band_leaves),
    "aff": (("x+", "x"), _aff),
}
_FIELDS = {"i": "a state index", "x": "a number", "r": "a positive number"}


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        for kind in ("num", "word", "punct"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start(kind)))
                break
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str, allow_nonconcave: bool) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_nonconcave = allow_nonconcave

    # -- token helpers ------------------------------------------------

    def _peek(self, ahead: int = 0) -> _Token | None:
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def _expect(self, text: str) -> None:
        tok = self._next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    def _at(self, text: str, ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return tok is not None and tok.text == text

    def _at_atom(self, ahead: int) -> bool:
        """True when the token ``ahead`` opens a temporal atom ("G[" or "F[")."""
        return (self._at("G", ahead) or self._at("F", ahead)) and self._at("[", ahead + 1)

    def _end(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)

    def _scalar(self, kind: str) -> int | float:
        """One value of a field kind in ``_FIELDS``."""
        tok = self._next()
        if tok.kind == "num" and kind == "i" and tok.text.isdecimal():
            return int(tok.text)
        if tok.kind == "num" and kind != "i":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"expected a finite number, found {tok.text!r}", tok.pos)
            if kind == "x" or value > 0.0:
                return value
        raise ParseError(f"expected {_FIELDS[kind]}, found {tok.text!r}", tok.pos)

    def _field(self, kind: str):
        """One predicate field; a ``kind`` ending in "+" is a comma list."""
        values = [self._scalar(kind[0])]
        while kind.endswith("+") and self._at(","):
            self._next()
            values.append(self._scalar(kind[0]))
        return tuple(values) if kind.endswith("+") else values[0]

    # -- grammar ------------------------------------------------------

    def parse_theta(self) -> SequentialFormula:
        atoms = self._atom()
        kind = "s2" if len(atoms) > 1 else "s1"
        while kind == "s1" and self._at("and"):
            self._next()
            start = self._peek()
            step = self._atom()
            if len(step) > 1:
                raise ParseError("a chain must be the whole formula", start.pos)
            atoms += step
        self._end()
        try:
            return SequentialFormula(kind=kind, atoms=tuple(atoms))
        except FormulaError as exc:
            raise ParseError(str(exc), self.tokens[0].pos) from exc

    def _atom(self) -> list[TemporalFormula]:
        """One temporal atom, followed by the chain steps nested in its
        parentheses after "and"."""
        op = self._next()
        if op.text not in ("G", "F"):
            raise ParseError(f"expected G or F, found {op.text!r}", op.pos)
        self._expect("[")
        a = self._scalar("x")
        self._expect(",")
        b = self._scalar("x")
        self._expect("]")
        rest: list[TemporalFormula] = []
        if self._at("("):
            self._next()
            psi = self._psi()
            if self._at("and"):
                self._next()
                rest = self._atom()
            self._expect(")")
        else:
            psi = self._psi()
        try:
            return [TemporalFormula(op=op.text, a=a, b=b, psi=psi)] + rest
        except FormulaError as exc:
            raise ParseError(str(exc), op.pos) from exc

    def _psi(self) -> NonTemporalFormula:
        start = self.i
        leaves = self._conjunction()
        try:
            psi = NonTemporalFormula(leaves=tuple(leaves))
            psi.validate(allow_nonconcave=self.allow_nonconcave)
        except FormulaError as exc:
            raise ParseError(str(exc), self.tokens[start].pos) from exc
        return psi

    def _conjunction(self) -> list[PredicateSpec]:
        """term ("and" term)*, stopping before an "and" that opens an atom."""
        leaves = self._term()
        while self._at("and") and not self._at_atom(1):
            self._next()
            leaves += self._term()
        return leaves

    def _term(self) -> list[PredicateSpec]:
        if self._at("("):
            self._next()
            leaves = self._conjunction()
            self._expect(")")
            return leaves
        if self._at("not"):
            tok = self._next()
            pred = self._pred()
            if len(pred) != 1:
                raise ParseError("cannot negate a band; negate its sides separately", tok.pos)
            return [pred[0].negate()]
        return list(self._pred())

    def _pred(self) -> tuple[PredicateSpec, ...]:
        tok = self._next()
        if tok.text not in _PREDICATES:
            raise ParseError(f"expected a predicate, found {tok.text!r}", tok.pos)
        kinds, build = _PREDICATES[tok.text]
        self._expect("(")
        fields = []
        for k, kind in enumerate(kinds):
            if k:
                self._expect(";")
            fields.append(self._field(kind))
        self._expect(")")
        try:
            leaves = build(*fields)
        except ValueError as exc:
            raise ParseError(str(exc), tok.pos) from exc
        return leaves if isinstance(leaves, tuple) else (leaves,)


def parse_formula(text: str, allow_nonconcave: bool = False) -> SequentialFormula:
    """Parse a full sequential formula from text."""
    return _Parser(text, allow_nonconcave).parse_theta()


def parse_psi(text: str, allow_nonconcave: bool = False) -> NonTemporalFormula:
    """Parse a bare conjunction (no temporal operators)."""
    parser = _Parser(text, allow_nonconcave)
    psi = parser._psi()
    parser._end()
    return psi
