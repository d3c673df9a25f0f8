"""Carrier catalog and support descriptors.

A carrier is an ordered ground set that can index a power series: the
exponents of ordinary, Laurent, Dirichlet, Puiseux or word series all live
on one of the nine variants below.  The catalog is deliberately closed.
Order-theoretic classification (artinian / noetherian / narrow) of infinite
sets is undecidable for black-box predicates but is a small rule table over
these variants, and that is what keeps support tracking and decomposition
enumeration exact.

Support descriptors are symbolic over-approximations of a series support:

* ``FiniteSet`` -- an explicit finite set, valid on every carrier;
* ``All``      -- the whole carrier, valid where the carrier itself is
  artinian and narrow;
* ``GridTail(a, n)`` -- the rationals ``{i/n : i >= a}`` (Puiseux tails);
* ``TailGE(a)``      -- the integers ``{i : i >= a}`` (Laurent tails).

Each descriptor answers ``x in desc`` for elements x of a carrier that
admits it, and checks nothing itself: ``Monoid.member`` adds the element
check, and the series evaluator asks ``in`` of points it has checked.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CarrierError, DescriptorError, InputError
from .values import Value

# ---------------------------------------------------------------------------
# support descriptors


class FiniteSet(Value):
    elements: frozenset

    def __contains__(self, x):
        return x in self.elements


class All(Value):
    def __contains__(self, x):
        return True


class GridTail(Value):
    """The set {i/n : i integer, i >= a} on the fixed denominator grid n."""

    a: int
    n: int

    def __init__(self, a, n):
        if not _is_int(a) or not _is_int(n) or n < 1:
            raise DescriptorError("grid tail needs integer offset and denominator >= 1")
        self._store(a, n)

    def __contains__(self, x):
        scaled = Fraction(x) * self.n
        return scaled.denominator == 1 and scaled.numerator >= self.a


class TailGE(Value):
    """The set of integers {i : i >= a}."""

    a: int
    n = 1  # the grid of 1: GridTail(a, 1) on the integers; not a field

    def __init__(self, a):
        if not _is_int(a):
            raise DescriptorError("integer tail needs an integer offset")
        self._store(a)

    def __contains__(self, x):
        return x >= self.a


Descriptor = FiniteSet | All | GridTail | TailGE

ALL = All()


def finite(elements=()) -> FiniteSet:
    """Build an explicit finite-support descriptor."""
    return FiniteSet(frozenset(elements))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# carriers


class Carrier(Value):
    """Base class for catalog carriers.

    Carriers are values (:mod:`genseries.values`), so they compare by value.
    A carrier holds its elements and ``leq``, its partial order, used for
    subsequence extraction and display.  Variants that differ only in their
    order share elements through a private base.  The unit, product, windows
    and everything else built on them live with the carrier's product family
    in :mod:`genseries.monoids`.
    """

    name = "?"

    def is_element(self, x) -> bool:
        raise NotImplementedError

    def check_element(self, x):
        if not self.is_element(x):
            raise CarrierError(f"{x!r} is not an element of carrier {self.name}")

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def sort_key(self, x):
        """Canonical display key: numeric ascending, words shortlex."""
        return x

    def monomial(self, x) -> str:
        return _exp_text(x)

    def element_to_json(self, x):
        return x

    def element_from_json(self, obj):
        if not self.is_element(obj):
            raise InputError(f"{obj!r} is not a valid {self.name} element")
        return obj


def _exp_text(e) -> str:
    s = str(e)
    if s.startswith("-") or "/" in s:
        return f"T^({s})"
    return f"T^{s}"


class _Nat(Carrier):
    """Elements of ``NatUsual`` and ``NatDiscrete``."""

    def is_element(self, x):
        return _is_int(x) and x >= 0


class NatUsual(_Nat):
    name = "nat"

    def leq(self, a, b):
        return a <= b


class NatDiscrete(_Nat):
    name = "nat-discrete"

    def leq(self, a, b):
        return a == b


class _Int(Carrier):
    """Elements of ``IntUsual`` and ``IntDiscrete``."""

    def is_element(self, x):
        return _is_int(x)


class IntUsual(_Int):
    name = "int"

    def leq(self, a, b):
        return a <= b


class IntDiscrete(_Int):
    name = "int-discrete"

    def leq(self, a, b):
        return a == b


class _PosNat(Carrier):
    """Elements of ``PosNatMulUsual`` and ``PosNatDivisibility``."""

    def is_element(self, x):
        return _is_int(x) and x >= 1


class PosNatMulUsual(_PosNat):
    """Positive naturals under multiplication, usual numeric order."""

    name = "posnat-mul"

    def leq(self, a, b):
        return a <= b


class PosNatDivisibility(_PosNat):
    """Positive naturals under multiplication, divisibility order."""

    name = "posnat-div"

    def leq(self, a, b):
        return b % a == 0


class RationalGrid(Carrier):
    """The rationals under addition, usual order."""

    name = "rational-grid"

    def is_element(self, x):
        return isinstance(x, Fraction) or _is_int(x)

    def leq(self, a, b):
        return a <= b

    def element_to_json(self, x):  # an int has a numerator and a denominator too
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def element_from_json(self, obj):
        return parse_rational(obj)


class FreeWords(Carrier):
    """Words over a finite alphabet, ordered by length then lexicographically.

    Shortlex is a well order, so every subset of the carrier is artinian and
    narrow: all supports are finitary, matching classical noncommutative
    formal power series.
    """

    alphabet: tuple

    name = "free-words"

    def __init__(self, alphabet):
        if not alphabet:
            raise InputError("free-words carrier needs a nonempty alphabet")
        if len(set(alphabet)) != len(alphabet):
            raise InputError("alphabet symbols must be distinct")
        for sym in alphabet:
            if not isinstance(sym, str) or len(sym) != 1:
                raise InputError("alphabet symbols must be single characters")
        self._store(alphabet)

    def is_element(self, x):
        return isinstance(x, str) and set(x) <= set(self.alphabet)

    def leq(self, a, b):
        return self.sort_key(a) <= self.sort_key(b)

    def sort_key(self, x):
        return (len(x), x)

    def monomial(self, x):
        return x


class Truncated(Carrier):
    """The finite carrier {0, ..., n} for degree-capped polynomials."""

    n: int

    name = "truncated"

    def __init__(self, n):
        if not _is_int(n) or n < 0:
            raise InputError("truncation degree must be a natural number")
        self._store(n)

    def is_element(self, x):
        return _is_int(x) and 0 <= x <= self.n

    def leq(self, a, b):
        return a <= b


def parse_rational(obj) -> Fraction:
    """Parse "p/q" / "p" / int into an exact rational."""
    if _is_int(obj):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {obj!r}") from exc
    raise InputError(f"bad rational literal {obj!r}")


# ---------------------------------------------------------------------------
# CLI carrier specs

_NAMED_CARRIERS = {  # one shared instance each: carriers are immutable values
    "nat": NatUsual(),
    "nat-discrete": NatDiscrete(),
    "int": IntUsual(),
    "int-discrete": IntDiscrete(),
    "posnat-mul": PosNatMulUsual(),
    "posnat-div": PosNatDivisibility(),
    "rational-grid": RationalGrid(),
}


def carrier_from_spec(spec) -> Carrier:
    """Decode a carrier spec: a name, {"trunc": n} or {"words": [...]}."""
    if isinstance(spec, str):
        if spec in _NAMED_CARRIERS:
            return _NAMED_CARRIERS[spec]
        raise InputError(f"unknown carrier {spec!r}; expected one of "
                         f"{sorted(_NAMED_CARRIERS)} or an object spec")
    if isinstance(spec, dict):
        if set(spec) == {"trunc"}:
            return Truncated(spec["trunc"])
        if set(spec) == {"words"}:
            symbols = spec["words"]  # a string is its symbols
            if not (isinstance(symbols, (str, list))
                    and all(isinstance(x, str) for x in symbols)):
                raise InputError('carrier {"words": ...} needs a string or a list of symbols')
            return FreeWords(tuple(symbols))
    raise InputError(f"bad carrier spec {spec!r}")


def descriptor_from_json(carrier: Carrier, obj) -> Descriptor:
    """Decode {"finite": [...]}, {"all": true}, {"gridtail": {...}} or
    {"tailge": {...}}."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(f"bad descriptor {obj!r}")
    key, val = next(iter(obj.items()))
    if key == "finite":
        if not isinstance(val, list):
            raise InputError('descriptor {"finite": ...} must carry a list of elements')
        return finite(carrier.element_from_json(e) for e in val)
    if key == "all":
        if val is not True:
            raise InputError('descriptor {"all": ...} must carry true')
        return ALL
    if key == "gridtail":
        return GridTail(**_fields(key, val, {"a", "n"}))
    if key == "tailge":
        return TailGE(**_fields(key, val, {"a"}))
    raise InputError(f"unknown descriptor kind {key!r}")


def _fields(kind, val, names):
    """A descriptor's parameter object, which must have exactly these keys;
    the descriptor's constructor checks their values."""
    if not isinstance(val, dict) or set(val) != names:
        keys = ", ".join(f'"{name}"' for name in sorted(names))
        raise InputError(f'descriptor {{"{kind}": ...}} must be an object with keys {keys}')
    return val


def descriptor_to_json(carrier: Carrier, desc: Descriptor):
    if isinstance(desc, FiniteSet):
        elems = sorted(desc.elements, key=carrier.sort_key)
        return {"finite": [carrier.element_to_json(e) for e in elems]}
    if isinstance(desc, All):
        return {"all": True}
    if isinstance(desc, GridTail):
        return {"gridtail": {"a": desc.a, "n": desc.n}}
    if isinstance(desc, TailGE):
        return {"tailge": {"a": desc.a}}
    raise DescriptorError(f"unknown descriptor {desc!r}")
