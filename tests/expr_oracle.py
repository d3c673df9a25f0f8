"""The expression front end as it stood before plain tokens: one ``(kind,
value)`` tuple per token, one series per literal monomial built through
``from_terms``, and runs of a builtin found one factor at a time.  Kept as
an oracle that ``cli._ExprParser`` must agree with, error texts included.
"""

from __future__ import annotations

import re
from fractions import Fraction

from genseries.errors import InputError
from genseries.monoids import Monoid, nat, posnat_mul
from genseries.rings import Ring
from genseries.series import GenSeries, from_terms, geometric, moebius, power, zeta

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S)")


def _tokenize(text: str) -> list:
    """Numbers, names and operators; any whitespace separates tokens."""
    out = []
    for m in _TOKEN.finditer(text):
        number, name, sym = m.groups()
        if number is not None:
            try:
                out.append(("num", int(number)))
            except ValueError as exc:  # past the interpreter's digit limit
                raise InputError(f"number at position {m.start()}: {exc}") from exc
        elif name is not None:
            out.append(("name", name))
        elif sym in "+-*·^/()":
            out.append(("op", "*" if sym == "·" else sym))
        else:
            raise InputError(f"unexpected character {sym!r} in expression")
    out.append(("end", ""))
    return out


# Each parenthesis or unary minus nests one recursive call deeper; this cap
# keeps the parser well inside the interpreter's recursion limit.
_MAX_NESTING = 100


class _ExprParser:
    """terms, +, -, products, parentheses, named builtins."""

    def __init__(self, text: str, monoid: Monoid, ring: Ring, window: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.monoid = monoid
        self.ring = ring
        self.window = window
        self.builtins = {}  # name -> the one series it reads as in this expression

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, op) -> bool:
        """Consume the operator op if it comes next."""
        if self.tokens[self.pos] != ("op", op):
            return False
        self.pos += 1
        return True

    def take(self, kind, value=None):
        """The next token, which must be of this kind (and value)."""
        tok = self.next()
        if tok[0] != kind:
            raise InputError(f"expected {kind}, found {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise InputError(f"expected {value!r}, found {tok[1]!r}")
        return tok

    def parse(self) -> GenSeries:
        out = self.expr()
        kind, value = self.tokens[self.pos]
        if kind != "end":
            raise InputError(f"trailing input at token {value!r}")
        return out

    def expr(self) -> GenSeries:
        acc = self.term()
        while True:
            if self.accept("+"):
                acc = acc + self.term()
            elif self.accept("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> GenSeries:
        # adjacent reads of one builtin are one series: a run of k is its power
        acc, factor, k = None, self.unary(), 1
        while True:
            more = self.accept("*")
            f = self.unary() if more else None
            if f is factor:
                k += 1
                continue
            run = factor if k == 1 else power(factor, k)
            acc = run if acc is None else acc * run
            if not more:
                return acc
            factor, k = f, 1

    def nested(self, parse) -> GenSeries:
        """parse() one nesting level deeper, within the cap."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise InputError(f"expression nests deeper than {_MAX_NESTING} levels")
        out = parse()
        self.depth -= 1
        return out

    def unary(self) -> GenSeries:
        if self.accept("-"):
            return -self.nested(self.unary)
        return self.atom()

    def atom(self) -> GenSeries:
        if self.accept("("):
            inner = self.nested(self.expr)
            self.take("op", ")")
            return inner
        kind, value = self.next()
        if kind == "num":
            return self.monomial(self.monoid.unit, self.ring.from_int(value))
        if kind != "name":
            raise InputError(f"expected a term, found {value!r}")
        if value != "T":
            return self.builtin(value)
        if self.accept("^"):
            return self.monomial(self.exponent(), self.ring.one)
        if self.monoid.generator is None:
            raise InputError(f"carrier {self.monoid.describe()!r} has no default generator; "
                             "write T^<element>")
        return self.monomial(self.monoid.generator, self.ring.one)

    def monomial(self, element, coefficient) -> GenSeries:
        # from_terms checks the element
        return from_terms(self.monoid, self.ring, [(element, coefficient)])

    def exponent(self):
        parenthesized = self.accept("(")
        sign = -1 if self.accept("-") else 1
        kind, value = self.next()
        if kind == "num":
            element = sign * value
            if self.accept("/"):
                den = self.take("num")[1]
                if den == 0:
                    raise InputError("exponent has a zero denominator")
                element = Fraction(element, den)
        elif kind == "name" and sign == 1:
            element = value  # a word exponent
        else:
            raise InputError(f"bad exponent near {value!r}")
        if parenthesized:
            self.take("op", ")")
        return element

    def builtin(self, name: str) -> GenSeries:
        """The series a builtin name reads as, built and checked at its first
        read in the expression."""
        if name not in self.builtins:
            self.builtins[name] = self.build_builtin(name)
        return self.builtins[name]

    def build_builtin(self, name: str) -> GenSeries:
        if name == "geometric":
            if self.monoid != nat():
                raise InputError("geometric is a series over the naturals")
            return geometric(self.ring)
        if name == "zeta":
            if self.monoid != posnat_mul():
                raise InputError("zeta is an arithmetic function (posnat-mul carrier)")
            return zeta(self.ring)
        if name == "moebius":
            if self.monoid != posnat_mul():
                raise InputError("moebius is an arithmetic function (posnat-mul carrier)")
            return moebius(self.ring, self.window)
        raise InputError(f"unknown name {name!r} (builtins: geometric, zeta, moebius)")


def eval_expression(text: str, monoid: Monoid, ring: Ring, window: int) -> GenSeries:
    return _ExprParser(text, monoid, ring, window).parse()
