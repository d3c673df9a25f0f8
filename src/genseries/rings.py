"""Coefficient rings.

Every ring here is exact: arbitrary-precision integers and rationals,
residues mod n, and 2x2 integer matrices as the stock noncommutative
example.  Exactness is not cosmetic -- the convolution tests and the
ring-axiom checker rely on decidable equality, and a coefficient-zero
test drives support filtering in the series module.

Elements are plain hashable Python values (int, Fraction, or a flat
row-major 4-tuple for matrices); the ring object carries the operations.
``zero`` and ``one`` are class constants.  The integers and rationals bind
``add``, ``neg``, ``mul``, ``eq`` and ``is_zero`` to the ``operator``
builtins and render with ``str``, so their arithmetic and output cost no
method call; ``mod n`` and ``mat2`` define their own methods.

Series list kernels take no ring operations: they multiply integer lists.
Each ring lifts a value list to integer lists (``lift``, and ``lift_ints``
for the images of integers), multiplies lifted lists through a kernel
(``kernel_product``) and lowers them back (``lower``).  The integers are
the identity; rationals are integer numerators over one denominator;
``mod n`` runs on representatives, reduced once per product, since Z -> Z/n
is a ring homomorphism; ``mat2`` is four entry lists, one product eight
kernel calls with each f entry on the left.  A window's output is rendered
off its lifted list (``render_column``): on the integers, and on rationals
over the denominator 1 (``str(Fraction(n, 1)) == str(n)``), with no lowering.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .catalog import _is_int, parse_rational
from .errors import InputError
from .values import Value


class Ring(Value):
    """Unital ring interface.  Commutativity is not assumed."""

    name = "?"
    zero = one = None  # each ring's constants

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)

    def from_int(self, n: int):
        """The canonical image of an integer: the n-fold sum of one."""
        raise NotImplementedError

    def is_element(self, a) -> bool:
        raise NotImplementedError

    def check_element(self, a):
        if not self.is_element(a):
            raise InputError(f"{a!r} is not an element of ring {self.name}")

    def render(self, a) -> str:
        return str(a)

    # -- the integer kernel (see the module docstring) ------------------------
    # These defaults serve a ring of integers.

    def lift(self, values: list):
        """A value list as integer lists."""
        return values

    def lift_ints(self, ints: list):
        """The lifted list of the images (``from_int``) of integers."""
        return ints

    def lower(self, lifted) -> list:
        """The value list of a lifted list."""
        return lifted

    def kernel_product(self, kernel, f, g, ks):
        """The lifted list of the product of lifted lists f and g at each k in
        ks, where ``kernel(f, g, ks)`` is a product of integer lists, f's
        values the left factors."""
        return kernel(f, g, ks)

    def render_column(self, lifted, window: slice, json=False) -> list:
        """The texts (``render``), or with json the JSON values
        (``element_to_json``), of a lifted list's values at the window's
        indices: lowered and rendered value by value (on the integers
        lowering is the identity)."""
        return list(map(self.element_to_json if json else self.render,
                        self.lower(lifted)[window]))

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError


class _Numbers:
    """The operations of a ring of Python numbers: the operator builtins
    themselves, which series kernels call with no wrapper.  Not a Ring
    subclass, because ``benchmarks/layertrace.py`` replaces each ``add`` and
    ``mul`` that a Ring subclass defines with a method that passes the ring
    on as a first argument, which a builtin does not take."""

    add, neg, mul, eq = operator.add, operator.neg, operator.mul, operator.eq
    is_zero = operator.not_
    # str gives n or n/d, a decimal string any JSON consumer keeps exact
    render = element_to_json = str


class IntRing(_Numbers, Ring):
    """Arbitrary-precision integers."""

    name = "int"
    zero, one = 0, 1

    def from_int(self, n):
        return n

    def is_element(self, a):
        return _is_int(a)

    def element_from_json(self, obj):
        if _is_int(obj):
            return obj
        if isinstance(obj, str):
            try:
                return int(obj, 10)
            except ValueError as exc:
                raise InputError(f"bad integer literal {obj!r}") from exc
        raise InputError(f"bad integer literal {obj!r}")


class RationalRing(_Numbers, Ring):
    """Arbitrary-precision rationals, always in lowest terms.

    ``fractions.Fraction`` keeps the canonical form (positive denominator,
    reduced), so two constructions of the same rational compare equal.
    """

    name = "rational"
    zero, one = Fraction(0), Fraction(1)  # immutable, so one instance serves every caller

    def from_int(self, n):
        return Fraction(n)

    # lifted: integer numerators over one denominator

    def lift(self, values):
        den = math.lcm(*{v.denominator for v in values})
        if den == 1:
            return [v.numerator for v in values], 1
        return [v.numerator * (den // v.denominator) for v in values], den

    def lift_ints(self, ints):
        return ints, 1

    def lower(self, lifted):
        numerators, den = lifted
        return list(map(Fraction, numerators)) if den == 1 else [
            Fraction(v, den) for v in numerators]

    def kernel_product(self, kernel, f, g, ks):
        return kernel(f[0], g[0], ks), f[1] * g[1]

    def render_column(self, lifted, window, json=False):
        numerators, den = lifted  # str(Fraction(n, 1)) == str(n), text and JSON value
        if den != 1:
            return super().render_column(lifted, window, json)
        return list(map(str, numerators[window]))

    def is_element(self, a):
        return isinstance(a, Fraction) or _is_int(a)

    def element_from_json(self, obj):
        return parse_rational(obj)


class ModRing(Ring):
    """Integers modulo n, for n >= 2."""

    modulus: int

    name = "mod"
    zero, one = 0, 1  # __init__ requires a modulus of at least 2

    def __init__(self, modulus):
        if not _is_int(modulus) or modulus < 2:
            raise InputError("modulus must be an integer >= 2")
        self._store(modulus)

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def eq(self, a, b):
        return a == b

    def from_int(self, n):
        return n % self.modulus

    # lifted: representatives, reduced once per kernel product, since Z -> Z/n
    # is a ring homomorphism; lift and lower are the identity

    def lift_ints(self, ints):
        return [v % self.modulus for v in ints]

    def kernel_product(self, kernel, f, g, ks):
        return [v % self.modulus for v in kernel(f, g, ks)]

    def is_element(self, a):
        return _is_int(a) and 0 <= a < self.modulus

    def element_to_json(self, a):
        return {"mod": self.modulus, "val": a}

    def element_from_json(self, obj):
        if _is_int(obj):
            return obj % self.modulus
        if isinstance(obj, dict) and set(obj) == {"mod", "val"} and _is_int(obj["val"]):
            if obj["mod"] != self.modulus:
                raise InputError(f"residue has modulus {obj['mod']}, ring has {self.modulus}")
            return obj["val"] % self.modulus
        raise InputError(f"bad residue literal {obj!r}")

    def __repr__(self):
        return f"mod{self.modulus}"


class Mat2Ring(Ring):
    """2x2 matrices over the integers, stored as flat row-major 4-tuples.

    The stock noncommutative coefficient ring: e12 * e21 != e21 * e12.
    """

    name = "mat2"
    zero, one = (0, 0, 0, 0), (1, 0, 0, 1)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def neg(self, a):
        return (-a[0], -a[1], -a[2], -a[3])

    def mul(self, a, b):
        a11, a12, a21, a22 = a
        b11, b12, b21, b22 = b
        return (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )

    def eq(self, a, b):
        return a == b

    def from_int(self, n):
        return (n, 0, 0, n)

    # lifted: the four entry lists, row-major

    def lift(self, values):
        return tuple([a[i] for a in values] for i in range(4))

    def lift_ints(self, ints):
        zeros = [0] * len(ints)
        return ints, zeros, zeros, ints

    def lower(self, lifted):
        return list(zip(*lifted))

    def kernel_product(self, kernel, f, g, ks):
        # (fg)ij = fi1·g1j + fi2·g2j, each f entry the left factor.  A pair of
        # entry lists is multiplied once (a scalar matrix's diagonal is one
        # list), and not at all where one is all zero (its other two entries).
        products, zeros = {}, [0] * len(ks)

        def times(a, b):
            key = id(a), id(b)  # a and b live as long as the dict
            if key not in products:
                products[key] = kernel(a, b, ks) if any(a) and any(b) else zeros
            return products[key]

        def plus(x, y):
            return y if x is zeros else x if y is zeros else list(map(operator.add, x, y))

        (f11, f12, f21, f22), (g11, g12, g21, g22) = f, g
        return tuple(plus(times(a, b), times(c, d)) for a, b, c, d in (
            (f11, g11, f12, g21), (f11, g12, f12, g22), (f21, g11, f22, g21), (f21, g12, f22, g22)))

    def is_element(self, a):
        return isinstance(a, tuple) and len(a) == 4 and all(_is_int(v) for v in a)

    def render(self, a):
        return f"[[{a[0]}, {a[1]}], [{a[2]}, {a[3]}]]"

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        if isinstance(obj, (list, tuple)) and len(obj) == 4 and all(_is_int(v) for v in obj):
            return tuple(obj)
        raise InputError(f"bad matrix literal {obj!r}; expected 4 row-major integers")


# ---------------------------------------------------------------------------
# axiom checking


def check_ring_axioms(ring: Ring, samples) -> list[str]:
    """Exhaustively test the ring axioms on all triples drawn from samples.

    Returns a list of human-readable violations; empty means every axiom
    held.  Commutativity of multiplication is deliberately not among the
    axioms -- probe it separately with :func:`find_noncommuting_pair`.
    """
    samples = list(samples)
    if not samples:
        raise InputError("samples must be nonempty")
    for a in samples:
        ring.check_element(a)

    bad = []

    def expect(cond, msg):
        if not cond:
            bad.append(msg)

    zero, one = ring.zero, ring.one
    for a in samples:
        expect(ring.eq(a, a), f"eq not reflexive at {a!r}")
        expect(ring.eq(ring.add(a, zero), a), f"a + 0 != a at {a!r}")
        expect(ring.eq(ring.add(zero, a), a), f"0 + a != a at {a!r}")
        expect(ring.eq(ring.add(a, ring.neg(a)), zero), f"a + (-a) != 0 at {a!r}")
        expect(ring.eq(ring.mul(a, one), a), f"a * 1 != a at {a!r}")
        expect(ring.eq(ring.mul(one, a), a), f"1 * a != a at {a!r}")
    for a in samples:
        for b in samples:
            expect(ring.eq(ring.add(a, b), ring.add(b, a)),
                   f"addition not commutative at ({a!r}, {b!r})")
    for a in samples:
        for b in samples:
            for c in samples:
                expect(ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))),
                       f"addition not associative at ({a!r}, {b!r}, {c!r})")
                expect(ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))),
                       f"multiplication not associative at ({a!r}, {b!r}, {c!r})")
                expect(ring.eq(ring.mul(a, ring.add(b, c)),
                               ring.add(ring.mul(a, b), ring.mul(a, c))),
                       f"left distributivity fails at ({a!r}, {b!r}, {c!r})")
                expect(ring.eq(ring.mul(ring.add(a, b), c),
                               ring.add(ring.mul(a, c), ring.mul(b, c))),
                       f"right distributivity fails at ({a!r}, {b!r}, {c!r})")
    return bad


def find_noncommuting_pair(ring: Ring, samples):
    """Return some (a, b) with a*b != b*a among the samples, or None."""
    samples = list(samples)
    for a in samples:
        for b in samples:
            if not ring.eq(ring.mul(a, b), ring.mul(b, a)):
                return (a, b)
    return None


# ---------------------------------------------------------------------------
# CLI ring specs


# one shared instance per named ring: rings are immutable values
_NAMED_RINGS = {ring.name: ring for ring in (IntRing(), RationalRing(), Mat2Ring())}


def ring_from_spec(spec) -> Ring:
    """Decode "int" | "rational" | "mat2" | {"mod": n}."""
    if isinstance(spec, str):
        if spec in _NAMED_RINGS:
            return _NAMED_RINGS[spec]
        raise InputError(f"unknown ring {spec!r}")
    if isinstance(spec, dict) and set(spec) == {"mod"}:
        return ModRing(spec["mod"])
    raise InputError(f"bad ring spec {spec!r}")
