"""Parser and printer for algebra expressions.

Concrete syntax, shared by the CLI and the JSON formats:

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | power
    power   := atom ('^' ['-'] INT)?
    atom    := INT ('/' INT)? | IDENT | '(' expr ')'

Identifiers are t, q, f, and the indexed families x1.., d1.., f1.., r1..,
s1...  Juxtaposition is never multiplication; '*' is required, which keeps
noncommutative operand order unambiguous.  INT '/' INT is a rational literal
(so it binds before '*' and '^'); there are no float literals, since every
coefficient domain is exact.  Negative powers are legal only on invertible
scalars such as t.  Sums and products may have any number of terms;
parentheses and unary minus nest at most 50 deep.

Printing emits terms in ascending graded-lexicographic order and round-trips
through the parser on every exact normal form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .center import CenterPoly, _center_mono
from .scalars import Cyclo, Jet, LaurentPoly, _scalar_invert
from .weylcore import (
    SYMBOLIC,
    AlgebraContext,
    DegreeLimitExceeded,
    WeylElement,
    _plain_mono,
    f_element,
    f_i,
    power,
)

__all__ = ["ParseError", "parse_weyl", "parse_center", "print_weyl", "print_center"]


class ParseError(ValueError):
    """Lexical or syntactic error with a 0-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# One alternative per token kind, ASCII only; "bad" takes any other
# character.  The whitespace class is the ASCII characters str.isspace
# accepts, and U+2212 MINUS SIGN reads as '-'.
_TOKEN = re.compile(
    r"(?P<ws>[\t-\r\x1c- ]+)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z]+[0-9]*)"
    r"|(?P<op>[-+*/^()\u2212])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(src: str) -> List[Tuple[str, object, int]]:
    tokens = []
    for m in _TOKEN.finditer(src):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "ident":
            tokens.append(("ident", text, pos))
        elif kind == "op":
            tokens.append(("op", "-" if text == "\u2212" else text, pos))
        elif kind == "int":
            tokens.append(("int", int(text), pos))
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
    tokens.append(("eof", None, len(src)))
    return tokens


# ---------------------------------------------------------------------------
# parser: AST nodes are tuples carrying their source position
# ---------------------------------------------------------------------------


# Parentheses and unary minus recurse in the parser and the evaluators; this
# bound keeps both well inside Python's default recursion limit.
_MAX_NESTING = 50


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", at)

    def parse(self):
        node = self.parse_sum()
        kind, value, at = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", at)
        return node

    def parse_sum(self):
        """A flat ("sum", [(sign, term), ...]) node, so long sums cost no depth."""
        at = self.peek()[2]
        terms = [(1, self.parse_term())]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                terms.append((1 if value == "+" else -1, self.parse_term()))
            else:
                return terms[0][1] if len(terms) == 1 else ("sum", terms, at)

    def parse_term(self):
        """A flat ("prod", [factor, ...]) node; factors keep their order."""
        at = self.peek()[2]
        factors = [self.parse_unary()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                factors.append(self.parse_unary())
            else:
                return factors[0] if len(factors) == 1 else ("prod", factors, at)

    def nested(self, parse, at):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nested more than {_MAX_NESTING} deep", at)
        node = parse()
        self.depth -= 1
        return node

    def parse_unary(self):
        kind, value, at = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return ("neg", self.nested(self.parse_unary, at), at)
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        kind, value, at = self.peek()
        if kind == "op" and value == "^":
            self.next()
            sign = 1
            kind2, value2, at2 = self.peek()
            if kind2 == "op" and value2 == "-":
                self.next()
                sign = -1
                kind2, value2, at2 = self.peek()
            if kind2 != "int":
                raise ParseError("exponent must be an integer literal", at2)
            self.next()
            node = ("pow", node, sign * value2, at)
        return node

    def parse_atom(self):
        kind, value, at = self.next()
        if kind == "int":
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "/":
                self.next()
                kind3, value3, at3 = self.next()
                if kind3 != "int":
                    raise ParseError("expected integer denominator", at3)
                if value3 == 0:
                    raise ParseError("zero denominator", at3)
                return ("num", Fraction(value, value3), at)
            return ("num", Fraction(value), at)
        if kind == "ident":
            return ("sym", value, at)
        if kind == "op" and value == "(":
            node = self.nested(self.parse_sum, at)
            self.expect_op(")")
            return node
        if kind == "eof":
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected token {value!r}", at)


def _split_ident(name: str) -> Tuple[str, Optional[int]]:
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return head, (int(tail) if tail else None)


# ---------------------------------------------------------------------------
# evaluation into the algebra
# ---------------------------------------------------------------------------


def parse_weyl(src: str, ctx: AlgebraContext) -> WeylElement:
    """Parse an expression and normalize it in the given context."""
    tokens = _tokenize(src)
    node = _Parser(tokens).parse()
    return _eval_weyl(node, ctx)


def _eval_weyl(node, ctx: AlgebraContext) -> WeylElement:
    op = node[0]
    if op == "num":
        return ctx.scalar_element(node[1])
    if op == "sym":
        return _weyl_symbol(node[1], node[2], ctx)
    if op == "neg":
        return -_eval_weyl(node[1], ctx)
    if op == "sum":
        acc: dict = {}
        for sign, term in node[1]:
            _add_into(acc, _eval_weyl(term, ctx).terms, sign)
        return WeylElement(ctx, acc)
    if op == "prod":
        return _eval_product(node[1], ctx)
    if op == "pow":
        base = _eval_weyl(node[1], ctx)
        e = node[2]
        if e >= 0:
            try:
                return power(base, e)
            except DegreeLimitExceeded as err:
                raise ParseError(str(err), node[3]) from None
        if not base.is_scalar():
            raise ParseError("negative power of a non-invertible element", node[3])
        value = base.scalar_value()
        try:
            inv = _scalar_invert(value)
        except (ZeroDivisionError, ValueError):
            raise ParseError("negative power of a non-invertible scalar", node[3]) from None
        return ctx.scalar_element(inv ** -e)
    raise AssertionError(f"unknown node {op}")


def _eval_product(factors, ctx: AlgebraContext) -> WeylElement:
    """Product of the factors in their order.

    While every factor is a single term x^al d^be and no pair meets an x
    after a d, as in a printed term c*x1^a*x2^b*d1^c*d2^d, the product is
    one PBW monomial and is built directly.  From the first factor that
    breaks this on, the factors are multiplied in the algebra.
    """
    n = ctx.n
    alpha, beta = [0] * n, [0] * n
    one = coeff = ctx.one_scalar()
    acc = None
    for factor in factors:
        value = _eval_weyl(factor, ctx)
        if acc is not None:
            acc = acc * value
            continue
        if len(value.terms) == 1:
            ((al, be), c), = value.terms.items()
            if not any(a and b for a, b in zip(al, beta)):
                alpha = [a + b for a, b in zip(alpha, al)]
                beta = [a + b for a, b in zip(beta, be)]
                if c != one:
                    coeff = coeff * c
                continue
        acc = ctx.monomial(alpha, beta, coeff) * value
    return ctx.monomial(alpha, beta, coeff) if acc is None else acc


def _add_into(acc: dict, terms, sign: int) -> None:
    """acc += sign * terms coefficientwise; the caller's constructor drops zeros.

    Summing into one map keeps a flat sum linear in its number of terms.
    """
    for k, c in terms.items():
        if sign < 0:
            c = -c
        cur = acc.get(k)
        acc[k] = c if cur is None else cur + c


def _weyl_symbol(name: str, at: int, ctx: AlgebraContext) -> WeylElement:
    head, idx = _split_ident(name)
    if head == "t" and idx is None:
        return ctx.scalar_element(ctx.t_power(1))
    if head == "q" and idx is None:
        if ctx.kind == SYMBOLIC:
            raise ParseError("'q' is only defined once t is specialized", at)
        return ctx.scalar_element(ctx.q)
    if head == "f" and idx is None:
        return f_element(ctx)
    if head in ("x", "d", "f") and idx is not None:
        if not 1 <= idx <= ctx.n:
            raise ParseError(f"index {idx} out of range 1..{ctx.n}", at)
        if head == "x":
            return ctx.x(idx)
        if head == "d":
            return ctx.d(idx)
        return f_i(ctx, idx)
    if head in ("r", "s"):
        raise ParseError(f"{name!r} is a center-polynomial symbol; use the center parser", at)
    raise ParseError(f"unknown identifier {name!r}", at)


def parse_center(src: str, n: int) -> CenterPoly:
    """Parse a commutative polynomial in r1..rn, s1..sn with rational coefficients."""
    tokens = _tokenize(src)
    node = _Parser(tokens).parse()
    return _eval_center(node, n)


def _eval_center(node, n: int) -> CenterPoly:
    op = node[0]
    if op == "num":
        return CenterPoly.constant(n, node[1])
    if op == "sym":
        head, idx = _split_ident(node[1])
        if head in ("r", "s") and idx is not None:
            if not 1 <= idx <= n:
                raise ParseError(f"index {idx} out of range 1..{n}", node[2])
            return CenterPoly.r(n, idx) if head == "r" else CenterPoly.s(n, idx)
        raise ParseError(f"unknown center symbol {node[1]!r}", node[2])
    if op == "neg":
        return -_eval_center(node[1], n)
    if op == "sum":
        acc: dict = {}
        for sign, term in node[1]:
            _add_into(acc, _eval_center(term, n).coeffs, sign)
        return CenterPoly(n, acc)
    if op == "prod":
        acc = _eval_center(node[1][0], n)
        for factor in node[1][1:]:
            acc = acc * _eval_center(factor, n)
        return acc
    if op == "pow":
        base = _eval_center(node[1], n)
        e = node[2]
        if e < 0:
            if base.is_constant():
                c = base.constant_value()
                if isinstance(c, Fraction) and c != 0:
                    return CenterPoly.constant(n, c ** e)
            raise ParseError("negative power of a non-invertible polynomial", node[3])
        return base ** e
    raise AssertionError(f"unknown node {op}")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _rational_text(c: Fraction) -> Tuple[str, bool]:
    """(body without sign, is_negative)"""
    neg = c < 0
    c = abs(c)
    body = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return body, neg


def _cyclo_pieces(c: Cyclo) -> List[Tuple[str, bool]]:
    pieces = []
    for j, num in enumerate(c.num):
        if not num:
            continue
        coef = Fraction(num, c.den)
        body, neg = _rational_text(coef)
        if j == 0:
            pieces.append((body, neg))
        else:
            zj = "q" if j == 1 else f"q^{j}"
            pieces.append((zj if body == "1" else f"{body}*{zj}", neg))
    return pieces


def _laurent_pieces(p: LaurentPoly) -> List[Tuple[str, bool]]:
    pieces = []
    for e in sorted(p.coeffs):
        c = p.coeffs[e]
        te = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
        if isinstance(c, Cyclo):
            inner = _cyclo_pieces(c)
            if len(inner) == 1:
                body, neg = inner[0]
            else:
                body, neg = "(" + _join_pieces(inner) + ")", False
        else:
            body, neg = _rational_text(c)
        if te:
            body = te if body == "1" else f"{body}*{te}"
        pieces.append((body, neg))
    return pieces


def _join_pieces(pieces: List[Tuple[str, bool]]) -> str:
    out = []
    for k, (body, neg) in enumerate(pieces):
        if k == 0:
            out.append("-" + body if neg else body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def _scalar_pieces(c) -> List[Tuple[str, bool]]:
    if isinstance(c, Fraction):
        return [_rational_text(c)]
    if isinstance(c, Cyclo):
        return _cyclo_pieces(c)
    if isinstance(c, LaurentPoly):
        return _laurent_pieces(c)
    if isinstance(c, Jet):  # debug rendering only; jets stay internal
        return [(f"[{c.val!s} ; {c.dt!s}]", False)]
    return [(str(c), False)]


def _format_terms(keys, coeff_of, mono_of) -> str:
    pieces = []
    for key in keys:
        mono = mono_of(*key)
        inner = _scalar_pieces(coeff_of(key))
        if len(inner) == 1:
            body, neg = inner[0]
        else:
            body, neg = "(" + _join_pieces(inner) + ")", False
        if mono:
            body = mono if body == "1" else f"{body}*{mono}"
        pieces.append((body, neg))
    return _join_pieces(pieces)


def print_weyl(a: WeylElement) -> str:
    """Canonical text form: graded-lexicographic term order, ascending."""
    if not a.terms:
        return "0"
    return _format_terms(a.support(), lambda k: a.terms[k], _plain_mono)


def print_center(p: CenterPoly) -> str:
    """Canonical text form for center polynomials in r and s."""
    if not p.coeffs:
        return "0"
    keys = sorted(p.coeffs, key=lambda k: (sum(k[0]) + sum(k[1]), k[0], k[1]))
    return _format_terms(keys, lambda k: p.coeffs[k], _center_mono)
