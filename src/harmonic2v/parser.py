"""Recursive-descent parser for polynomial expressions.

Grammar: rational literals (``3``, ``-5/7``), the imaginary unit ``i``,
variables ``x1..x<m>`` and ``u1..u<m>``, operators ``+ - * ^`` and
parentheses.  ``^`` takes a non-negative integer exponent.  Exponents and
the total degree of every product and power are capped at ``MAX_DEGREE``,
the number of terms a product or power may reach at ``MAX_TERMS``, and the
nesting of parentheses at ``MAX_NESTING``.
Printing a polynomial with ``str`` produces text this parser accepts, and
parsing it back reproduces the polynomial exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb

from .errors import PolySyntaxError, VariableOutOfRange
from .operators import linear_combination
from .poly import Polynomial
from .rationals import GAUSSIAN_I

#: Largest exponent, and largest total degree of a product or power, accepted.
#: It lies below ``poly.MAX_TERM_DEGREE`` (127), the largest total degree a
#: term of any ``Polynomial`` can have, so parsed input leaves room above it.
MAX_DEGREE = 64

#: Largest number of terms a product or power may reach, bounded a priori by
#: min(|a|*|b|, number of monomials of degree <= deg(a) + deg(b) in 2m variables).
MAX_TERMS = 200_000

#: Deepest nesting of parentheses accepted.  Each level costs four frames of
#: the recursive descent (atom, expression, term, power), so this keeps a
#: parse far inside Python's default recursion limit of 1,000.
MAX_NESTING = 100

#: ASCII digits only: ``int`` would also read other Unicode digits, or raise on
#: superscripts that ``str.isdigit`` accepts.
_DIGITS = re.compile(r"[0-9]*")


class _Parser:
    def __init__(self, text: str, m: int):
        self.text = text
        self.m = m
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise PolySyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Polynomial:
        value = self.expression()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return value

    def expression(self) -> Polynomial:
        """A signed sum of terms, added in one kernel call."""
        parts = []
        sign = 1
        ch = self.peek()
        while True:
            if ch in ("+", "-"):
                self.pos += 1
                sign = -1 if ch == "-" else 1
            parts.append((sign, None, self.term()))
            ch = self.peek()
            if ch not in ("+", "-"):
                return linear_combination(self.m, parts)

    def check_degree(self, degree: int, what: str, at: int):
        if degree > MAX_DEGREE:
            raise PolySyntaxError(f"{what} {degree} exceeds the maximum degree {MAX_DEGREE}", at)

    def check_terms(self, count: int, degree: int, what: str, at: int):
        bound = min(count, comb(degree + 2 * self.m, 2 * self.m))
        if bound > MAX_TERMS:
            raise PolySyntaxError(
                f"{what} may reach {bound} terms, above the maximum {MAX_TERMS}", at
            )

    def term(self) -> Polynomial:
        total = self.power()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            factor = self.power()
            # Q(i) has no zero divisors, so degrees add under multiplication.
            degree = total.total_degree() + factor.total_degree()
            self.check_degree(degree, "product of degree", at)
            self.check_terms(total.term_count() * factor.term_count(), degree, "product", at)
            total = total * factor
        return total

    def power(self) -> Polynomial:
        base = self.atom()
        while self.peek() == "^":
            at = self.pos
            self.pos += 1
            exp = self.natural()
            self.check_degree(exp, "exponent", at)
            degree = base.total_degree() * exp
            self.check_degree(degree, "power of degree", at)
            # No intermediate power can have more terms than this bound.
            self.check_terms(base.term_count() ** exp, degree, "power", at)
            out = Polynomial.constant(self.m, 1)
            for _ in range(exp):
                out = out * base
            base = out
        return base

    def atom(self) -> Polynomial:
        # a run of unary minuses folds into one sign, so it costs no recursion
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nest deeper than the maximum {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            value = self.expression()
            self.depth -= 1
            self.expect(")")
        elif ch.isdigit():
            value = Polynomial.constant(self.m, self.rational())
        elif ch == "i" and not self._lookahead_digit():
            self.pos += 1
            value = Polynomial.constant(self.m, GAUSSIAN_I)
        elif ch in ("x", "u"):
            value = self.variable(ch)
        else:
            self.error("expected a rational, 'i', a variable, or '('")
        return -value if negate else value

    def _lookahead_digit(self) -> bool:
        nxt = self.pos + 1
        return nxt < len(self.text) and self.text[nxt].isdigit()

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        self.pos = _DIGITS.match(self.text, start).end()
        if start == self.pos:
            self.error("expected a non-negative integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than sys.get_int_max_str_digits() converts
            raise PolySyntaxError(
                f"integer of {self.pos - start} digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits",
                start,
            ) from None

    def rational(self) -> Fraction:
        num = self.natural()
        if self.peek() == "/":
            self.pos += 1
            den = self.natural()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def variable(self, axis: str) -> Polynomial:
        self.pos += 1
        index = self.natural()
        if not 1 <= index <= self.m:
            raise VariableOutOfRange(f"{axis}{index} exceeds ambient dimension m={self.m}")
        return Polynomial.variable(self.m, axis, index)


def parse_poly(text: str, m: int) -> Polynomial:
    """Parse an expression into an exact polynomial over m ambient dimensions."""
    return _Parser(text, m).parse()
