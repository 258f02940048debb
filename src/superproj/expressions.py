"""Parser and printer for the kernel's expression grammar.

Grammar (round-trip stable with :func:`format_super`)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' ['-'] INTEGER]
    atom    := INTEGER | NAME | '(' expr ')'

Names are the coordinate names of the dimension at hand (``x1..xn`` even,
``th1..thm`` odd for default dimensions).  Division requires the divisor to
be a nonzero even scalar free of odd generators; rational constants like
``3/4`` are the special case of constant operands.  An exponent literal
above :data:`MAX_EXPONENT` is refused with a located ``ParseError``, and so
is a product, quotient or power whose term count may exceed
:data:`MAX_TERMS` or whose integers may exceed :data:`MAX_BITS` bits, before
it is computed.

Constants fold exactly: a constant-only subexpression stays an int or a
``Fraction`` until it meets a function, where a constant factor or divisor
scales the function and a constant summand (or the whole result) becomes a
constant function.  A folded constant counts as the constant function
would in those limits (one term and the larger bit length of its numerator
and denominator, or none for zero), so every refusal, its message and its
column are those of building every atom as a function.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError, UnknownCoordinate
from .graded_algebra import Dimension, Poly, SuperFunction, numer_denom

# Largest |exponent| a power may carry; larger literals are refused before
# any arithmetic, since the work grows with the exponent.
MAX_EXPONENT = 16

# Largest term count a product, quotient or power may reach by the bound of
# `_bounds`: nested powers such as ((x1+x2+1)^16)^16 keep every literal
# within MAX_EXPONENT, yet their work explodes.  The largest power of
# x1+...+x6 within the limit is the 13th, with 8,568 terms.
MAX_TERMS = 10_000

# Largest bit size an integer of a product, quotient or power may reach by
# the bound of `_bounds`: nested powers of a constant keep every literal
# and term count small, yet ((((((2)^16)^16)^16)^16)^16)^16 has 16.8 million
# bits.  Four nested ^16 on 2 (65,537 bits) are within the limit, five
# (1,048,577 bits) are not.
MAX_BITS = 2 ** 20

_TOKEN = re.compile(r"(\s+)|([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start)
        space, number, name, op = match.groups()
        col = pos - line_start
        pos = match.end()
        if space is not None:
            if "\n" in space:
                line += space.count("\n")
                line_start = text.rindex("\n", 0, pos) + 1
        elif number is not None:
            try:
                value = int(number)
            except ValueError:  # beyond the interpreter's digit limit
                raise ParseError(f"integer literal of {len(number)} digits "
                                 "is too long", line, col) from None
            tokens.append(("num", value, line, col))
        elif name is not None:
            tokens.append(("name", name, line, col))
        else:
            tokens.append((op, op, line, col))
    tokens.append(("end", "", line, len(text) - line_start))
    return tokens


def _terms(f: SuperFunction) -> int:
    """Terms of f: per odd monomial, those of its coefficient's numerator
    or, if larger, of its denominator (a polynomial's is one integer)."""
    return sum(len(c) if type(c) is Poly else max(len(c.numer), len(c.denom))
               for c in f.terms.values())


def _bits(f: SuperFunction) -> int:
    """Bit size of the largest integer in f's numerators and denominators
    (a polynomial's common denominator, or a fraction's two polynomials)."""
    polys = [p for c in f.terms.values()
             for p in ((c,) if type(c) is Poly else (c.numer, c.denom))]
    return max((max(p.den.bit_length(), *map(int.bit_length, p.num.values()))
                for p in polys), default=0)


def _log2(t: int) -> int:
    """ceil(log2 t) for t >= 1, and 0 for t = 0."""
    return (max(t, 1) - 1).bit_length()


def _size(v) -> tuple[int, int]:
    """(terms, bits) of a function, or of a folded constant as of the
    constant function: 1 term and the larger bit length of its numerator
    and denominator, or 0 and 0 for zero."""
    if type(v) is SuperFunction:
        return _terms(v), _bits(v)
    if not v:
        return 0, 0
    return 1, max(v.numerator.bit_length(), v.denominator.bit_length())


def _bounds(op: str, a, b) -> tuple[int, int]:
    """Upper bounds on the terms and on the integer bit size of ``a * b`` or
    ``a / b`` (b a function or constant), or of ``a ^ b`` (b an int).

    Terms: len(a)·len(b), or C(len(a)+|b|-1, |b|), the number of multisets
    of |b| terms of a.  Bits: bits(a) + bits(b) + ceil(log2 min(len(a),
    len(b))), since a coefficient of a product sums at most that many
    products of coefficients; or |b|·(bits(a) + ceil(log2 len(a))).  Both
    hold for polynomial coefficients; for fractions they count the larger
    of numerator and denominator."""
    ta, ba = _size(a)
    if op == "^":
        k = abs(b)
        return (math.comb(ta + k - 1, k) if k else 1), k * (ba + _log2(ta))
    tb, bb = _size(b)
    return ta * tb, ba + bb + _log2(min(ta, tb))


class _Parser:
    """Recursive descent over the token list, read by index.  A value is a
    SuperFunction or a folded constant (an int or a Fraction); see the
    module docstring."""

    def __init__(self, dim: Dimension, text: str):
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0

    def error(self, message, tok):
        raise ParseError(message, tok[2], tok[3])

    def bounded(self, tok, a, b):
        """Refuse, at tok, an operation that may exceed MAX_TERMS terms or
        MAX_BITS-bit integers."""
        terms, bits = _bounds(tok[0], a, b)
        if terms > MAX_TERMS:
            self.error(f"{tok[0]!r} may give up to {terms} terms, over the "
                       f"limit {MAX_TERMS}", tok)
        if bits > MAX_BITS:
            self.error(f"{tok[0]!r} may give integers of up to {bits} bits, "
                       f"over the limit {MAX_BITS}", tok)

    def function(self, value) -> SuperFunction:
        if type(value) is SuperFunction:
            return value
        return SuperFunction.constant(self.dim, value)

    def parse(self) -> SuperFunction:
        value = self.expr()
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.error(f"trailing input {tok[1]!r}", tok)
        return self.function(value)

    def expr(self):
        value = self.term()
        tokens = self.tokens
        while (op := tokens[self.i][0]) == "+" or op == "-":
            self.i += 1
            rhs = self.term()
            if type(value) is SuperFunction or type(rhs) is SuperFunction:
                value, rhs = self.function(value), self.function(rhs)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        tokens = self.tokens
        while (tok := tokens[self.i])[0] == "*" or tok[0] == "/":
            self.i += 1
            rhs = self.unary()
            function, div = type(rhs) is SuperFunction, tok[0] == "/"
            if div:
                if function and not rhs.is_even_scalar():
                    self.error("division by an expression with odd generators", tok)
                if rhs.is_zero() if function else not rhs:
                    self.error("division by zero", tok)
            self.bounded(tok, value, rhs)
            if not function:  # a constant factor or divisor
                rhs = Fraction(1, rhs) if div else rhs
                value = value.scale(rhs) if type(value) is SuperFunction else value * rhs
            elif type(value) is SuperFunction:
                value = value / rhs if div else value * rhs
            else:  # a constant times a function, or over one
                value = (rhs.invert() if div else rhs).scale(value)
        return value

    def unary(self):
        if self.tokens[self.i][0] == "-":
            self.i += 1
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        tokens = self.tokens
        tok = tokens[self.i]
        if tok[0] != "^":
            return base
        negate = tokens[self.i + 1][0] == "-"
        self.i += 2 + negate
        etok = tokens[self.i - 1]
        if etok[0] != "num":
            self.error("exponent must be an integer literal", etok)
        if etok[1] > MAX_EXPONENT:
            self.error(f"exponent {etok[1]} exceeds the limit {MAX_EXPONENT}", etok)
        exp = -etok[1] if negate else etok[1]
        function = type(base) is SuperFunction
        if exp < 0 and function and not base.is_even_scalar():
            self.error("negative power of an expression with odd generators", tok)
        if exp < 0 and (base.is_zero() if function else not base):
            self.error("negative power of zero", tok)
        self.bounded(tok, base, exp)
        return base ** exp if function or exp >= 0 else Fraction(base) ** exp

    def atom(self):
        tok = self.tokens[self.i]
        self.i += 1
        kind, value = tok[0], tok[1]
        if kind == "num":
            return value
        if kind == "name":
            try:
                idx = self.dim.index(value)
            except UnknownCoordinate:
                self.error(f"unknown coordinate {value!r}", tok)
            return SuperFunction.coordinate(self.dim, idx)
        if kind == "(":
            inner = self.expr()
            closing = self.tokens[self.i]
            self.i += 1
            if closing[0] != ")":
                self.error("expected ')'", closing)
            return inner
        self.error(f"unexpected token {value!r}", tok)


def parse_expression(dim: Dimension, text: str) -> SuperFunction:
    """Parse an expression string over the given dimension."""
    parser = _Parser(dim, text)
    try:
        return parser.parse()
    except RecursionError:
        _, _, line, col = parser.tokens[parser.i]
        raise ParseError("expression nested too deeply", line, col) from None


GRAMMAR_HELP = f"""\
expr    := term (('+' | '-') term)*
term    := unary (('*' | '/') unary)*
unary   := '-' unary | power
power   := atom ['^' ['-'] INTEGER]
atom    := INTEGER | NAME | '(' expr ')'

NAME    : even coordinates x1..xn, odd coordinates th1..thm
          (the Thomas chart adds the even coordinate x0)
INTEGER : nonnegative literal of the digits 0-9; rationals are written p/q;
          exponents lie in -{MAX_EXPONENT}..{MAX_EXPONENT}
A product, quotient or power that may exceed {MAX_TERMS} terms, or
integers of {MAX_BITS} bits, is refused.
Division and negative powers require an even divisor free of odd
generators.
"""


def _digits(c: int) -> str:
    """c in decimal, 1,000 digits at a time: a result can exceed the
    interpreter's limit on one int-to-str conversion."""
    head, chunks = abs(c), []
    while head.bit_length() > 4000:  # over 1,204 digits
        head, low = divmod(head, 10 ** 1000)
        chunks.append(f"{low:01000d}")
    return ("-" if c < 0 else "") + str(head) + "".join(reversed(chunks))


def _poly_str(poly, even_names) -> str:
    """An integer polynomial, leading term first (lex order)."""
    parts = []
    for monom, coeff in poly.terms():
        factors = []
        for name, e in zip(even_names, monom):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        cs = _digits(coeff)
        if factors and cs == "1":
            text = "*".join(factors)
        elif factors and cs == "-1":
            text = "-" + "*".join(factors)
        elif factors:
            text = cs + "*" + "*".join(factors)
        else:
            text = cs
        parts.append(text)
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def format_scalar(coeff, even_names) -> str:
    """Print a coefficient as (num)/(den) in the grammar."""
    num, den = numer_denom(coeff)
    num_str = _poly_str(num, even_names)
    if den == 1:
        return num_str
    den_str = _poly_str(den, even_names)
    if len(num) != 1:
        num_str = f"({num_str})"
    if len(den) != 1 or not den_str.lstrip("-").isdigit():
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def format_super(f: SuperFunction) -> str:
    """Canonical printing of a SuperFunction; round-trips through parse."""
    if f.is_zero():
        return "0"
    dim = f.dim
    parts = []
    for key in sorted(f.terms, key=lambda k: (len(k), k)):
        coeff = f.terms[key]
        cs = format_scalar(coeff, dim.even_names)
        num, den = numer_denom(coeff)
        odd = [dim.odd_names[slot] for slot in key]
        if odd:
            if cs == "1":
                cs = ""
            elif cs == "-1":
                cs = "-"
            elif len(num) != 1 or den != 1:
                cs = f"({cs})*"
            else:
                cs = f"{cs}*"
            parts.append(cs + "*".join(odd))
        else:
            parts.append(cs)
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out
