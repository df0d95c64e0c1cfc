"""Recursive-descent parser for the ASCII polynomial grammar.

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := var | rational | '(' expr ')'

Rational literals are written `a` or `a/b`.  Printing a Poly and parsing
it back is the identity.
"""

from .poly import Poly, RingSignature


class PolyParseError(ValueError):
    """Syntax or name error; carries the offending position in the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str, sig: RingSignature):
        self.text = text
        self.sig = sig
        self.pos = 0

    def error(self, message):
        raise PolyParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a nonnegative integer")
        return int(self.text[start : self.pos])

    def parse_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def parse_atom(self) -> Poly:
        c = self.peek()
        if c == "(":
            self.pos += 1
            inner = self.parse_expr()
            if not self.eat(")"):
                self.error("expected ')'")
            return inner
        if c.isdigit():
            num = self.parse_nat()
            if self.eat("/"):
                den = self.parse_nat()
                if den == 0:
                    self.error("zero denominator")
                return Poly.constant(self.sig, self.sig.field.from_rational(num, den))
            return Poly.constant(self.sig, self.sig.field.from_int(num))
        if c.isalpha() or c == "_":
            start = self.pos
            name = self.parse_name()
            try:
                return Poly.variable(self.sig, name)
            except KeyError:
                raise PolyParseError(f"unknown variable {name!r}", start) from None
        self.error("expected a variable, number or '('")

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        if self.eat("^"):
            if self.peek() == "-":
                self.error("exponent must be a nonnegative integer")
            return base ** self.parse_nat()
        return base

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while self.eat("*"):
            result = result * self.parse_factor()
        return result

    def parse_expr(self) -> Poly:
        negate = self.eat("-")
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            if self.eat("+"):
                result = result + self.parse_term()
            elif self.peek() == "-":
                self.pos += 1
                result = result - self.parse_term()
            else:
                return result


def parse_poly(text: str, sig: RingSignature) -> Poly:
    """Parse `text` into a canonical Poly over `sig`."""
    parser = _Parser(text, sig)
    result = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error(f"unexpected character {text[parser.pos]!r}")
    return result
