"""Partial finiteness monoids over the carrier catalog.

A monoid here is a carrier equipped with a unit and a (possibly partial)
multiplication, together with the two pieces of machinery that make
convolution of lazy series computable:

* ``decompose_within(m, s, t)`` enumerates exactly the factorizations
  ``m = m1 * m2`` with ``m1`` in ``s`` and ``m2`` in ``t``, and is
  guaranteed to return a finite list whenever both descriptors are
  admitted.  This is the operational form of the finiteness condition on
  pointwise preimages of the multiplication.
* ``mul_bound`` / ``union_bound`` push descriptors through products and
  sums, over-approximating supports while staying inside the admitted
  grammar.  Two tails on the grids n and m bound their product by the tail
  on lcm(n, m) from the sum of their least points.

A carrier in :mod:`genseries.catalog` holds only its elements and its
order; its monoid structure lives here, in one class per product family:
the additive naturals (``nat``, ``nat-discrete`` and ``trunc``), the
additive integers, the positive naturals under multiplication, the
rational grid and the words.  A family holds its unit, product,
decomposition candidates, its windows (the whole window, the filter on
finite sets and the window of its tail kind), tail bounds, the element a
bare ``T`` denotes, its list kernel for products of two infinite series
and, where products grow with their factors, ``cofactor_top``, how far a
query into a product of two finite series needs each factor.  The
integers and the rational grid share one base for their tails, on which
``TailGE(a)`` is the grid tail from a on the grid of 1.  The
``Monoid`` base holds the descriptor protocol that every monoid shares:
finite sets, their bounds and their windows.

It also holds the codec of the keys on which a finite series keeps its
table, which mirrors ``Ring.lift`` and ``lower``: ``lift_table``,
``lift_key``, ``lower_keys``, ``join_tables``, ``key_product`` and
``window_keys``.  Everywhere but the rational grid a key is its element
and the codec does nothing per key.  On the rational grid the key i over
the scale n stands for i/n: a finite Puiseux series is a Laurent
polynomial in T^(1/n), two tables meet on the lcm of their scales, and a
``Fraction`` is built only where a key is read back as an element.  Over
the scale 1 a key equals its element on every family.

Descriptor admission is a rule table of its own; that it agrees with the
order-theoretic classification (admitted iff artinian and narrow) is a
tested invariant, not a definition, so the two routes stay independent.

The ``Monoid`` methods are the boundary: ``mul``, ``member``,
``decompose_within``, the bounds and ``enumerate_desc`` check their
elements and admit their descriptors, once per call.  Inside them nothing
is checked again: ``product`` multiplies checked elements, ``fiber``
decomposes a checked element over admitted descriptors (series evaluation
runs it per point), ``enumerate_admitted`` lists the window of a
descriptor already admitted (a series renders its own support through
it), ``tail_mul_bound`` and ``tail_union_bound`` bound admitted supports
(series arithmetic runs them), and each family's ``_candidates`` yields
exact, distinct factorizations, which ``fiber`` filters by the
descriptors' own ``in``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache, cached_property
from itertools import count, repeat

from .catalog import (ALL, All, Carrier, Descriptor, FiniteSet, FreeWords,
                      GridTail, IntDiscrete, IntUsual, NatDiscrete, NatUsual,
                      PosNatDivisibility, PosNatMulUsual, RationalGrid,
                      TailGE, Truncated, _exp_text, _is_int, carrier_from_spec,
                      finite)
from .errors import CarrierError, DescriptorError, InputError
from .values import Value


class Monoid(Value):
    """Shared interface of catalog monoids and embedded pomonoid tables.

    All instances are immutable value objects; every operation is pure, so
    monoids are safe to share across threads.
    """

    # -- elements ----------------------------------------------------------

    def is_element(self, x) -> bool:
        raise NotImplementedError

    def check_element(self, x):
        if not self.is_element(x):
            raise CarrierError(f"{x!r} is not an element of {self.describe()}")

    @property
    def unit(self):
        raise NotImplementedError

    def mul(self, a, b):
        """The monoid product, or None where it is undefined."""
        self.check_element(a)
        self.check_element(b)
        return self.product(a, b)

    def product(self, a, b):
        """``mul`` of two elements already checked: the trusted kernel that
        table convolution runs per key pair."""
        raise NotImplementedError

    # the element a bare ``T`` denotes in expressions, if there is one
    generator = None

    # cofactor_top(top, x): on a family whose products grow with each factor,
    # the largest y with x * y <= top, so a product's keys up to top need a
    # factor only up to there for x the other factor's least key; None
    # elsewhere, where a query builds a product of finite series whole
    cofactor_top = None

    def list_kernel(self, points):
        """The list kernel for the products of two infinite series in a query
        at ``points``, or None: then each point sums its fiber.  A kernel runs
        on integer lists lifted from the value lists over the prefix from the
        unit, which holds every fiber of its points; a family with one
        commutes and admits no infinite descriptor but ALL."""
        return None

    def sort_key(self, x):
        raise NotImplementedError

    def monomial(self, x) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # -- table keys (see the module docstring) --------------------------------
    # ``lift_table`` gives a table on elements as (table on keys, scale),
    # ``lift_key`` an element's key (None off the scale), ``lower_keys`` the
    # elements of keys, ``join_tables`` two tables on one scale.  Here a key
    # is its element and the scale is 1.

    def lift_table(self, table: dict):
        return table, 1

    def lift_key(self, m, scale):
        return m

    def lower_keys(self, keys, scale):
        return keys

    def join_tables(self, f: dict, n, g: dict, k):
        return f, g, 1

    @property
    def key_product(self):
        return self.product

    def window_keys(self, keys, scale, region=None) -> list:
        """The keys over scale whose elements lie in the window (all of them
        for region None), in display order."""
        if region is not None:
            _check_region(region)
            keys = [x for x in keys if self._in_window(x, region)]
        return sorted(keys, key=self.sort_key)

    # -- descriptors ---------------------------------------------------------
    # Finite sets of elements are admitted on every monoid, and their bounds
    # and windows are worked out here.  A subclass supplies the one infinite
    # kind it admits, if any, and the hooks: ``_window`` (every element in
    # the window), ``_in_window`` (which finite-set members it keeps) and,
    # for its infinite kind, ``_tail_window`` and the bounds ``tail_mul_bound``
    # and ``tail_union_bound``; the integer and grid tails share one set.

    _infinite_kind = None

    def admits(self, desc: Descriptor) -> bool:
        if isinstance(desc, FiniteSet):
            return all(self.is_element(e) for e in desc.elements)
        return type(desc) is self._infinite_kind

    def require_admitted(self, desc: Descriptor):
        if not self.admits(desc):
            raise DescriptorError(f"descriptor {desc!r} is not admitted on {self.describe()}")

    def member(self, desc: Descriptor, x) -> bool:
        """Is the element x a member of the described set?"""
        self.check_element(x)
        return x in desc

    def decompose_within(self, m, s: Descriptor, t: Descriptor) -> list:
        """All pairs (m1, m2) with m1 in s, m2 in t and m1 * m2 = m.

        Finite by construction for admitted descriptors; sorted in the
        canonical pair order so convolution sums are reproducible.
        """
        self.require_admitted(s)
        self.require_admitted(t)
        self.check_element(m)
        return self.fiber(m, s, t)

    def fiber(self, m, s: Descriptor, t: Descriptor) -> list:
        """``decompose_within`` of a checked element and admitted descriptors:
        the trusted step that series evaluation runs per point."""
        if not isinstance(s, FiniteSet) and not isinstance(t, FiniteSet):
            return self._candidates(m, s, t)
        pairs = [(a, b) for a, b in self._candidates(m, s, t) if a in s and b in t]
        return sorted(pairs, key=lambda p: (self.sort_key(p[0]), self.sort_key(p[1])))

    def _candidates(self, m, s, t):
        """Distinct pairs of elements whose product is m, covering every such
        pair in s x t; ``fiber`` keeps those in s x t.  Over two infinite
        sides they are exactly those pairs, in the canonical pair order, and
        ``fiber`` returns them as they are."""
        raise NotImplementedError

    def mul_bound(self, s: Descriptor, t: Descriptor) -> Descriptor:
        self.require_admitted(s)
        self.require_admitted(t)
        if isinstance(s, FiniteSet) and isinstance(t, FiniteSet):
            image = {self.product(x, y) for x in s.elements for y in t.elements}
            image.discard(None)
            return FiniteSet(frozenset(image))
        return self.tail_mul_bound(s, t)

    def union_bound(self, s: Descriptor, t: Descriptor) -> Descriptor:
        self.require_admitted(s)
        self.require_admitted(t)
        if isinstance(s, FiniteSet) and isinstance(t, FiniteSet):
            return FiniteSet(s.elements | t.elements)
        return self.tail_union_bound(s, t)

    def enumerate_desc(self, desc: Descriptor, region: int) -> list:
        """Descriptor members inside the window, in display order."""
        self.require_admitted(desc)
        return self.enumerate_admitted(desc, region)

    def enumerate_admitted(self, desc: Descriptor, region: int) -> list:
        """``enumerate_desc`` of a descriptor already admitted, such as a
        series' own support: the trusted step that rendering runs."""
        if isinstance(desc, FiniteSet):
            return self.window_keys(desc.elements, 1, region)
        _check_region(region)
        if isinstance(desc, All):
            return self._window(region)
        return self._tail_window(desc, region)

    def window(self, region: int) -> list:
        """All monoid elements inside the window (not descriptor-relative)."""
        _check_region(region)
        return self._window(region)


def _check_region(region):
    if not _is_int(region) or region < 0:
        raise InputError(f"window must be a nonnegative integer, got {region!r}")


# ---------------------------------------------------------------------------
# list kernels: kernel(f, g, ks) is the product of the integer lists f and g at
# each k in ks, a list read as zero past its end.  A ring runs them on its
# value lists lifted to integers (``Ring.kernel_product``).

# a Cauchy product at more points than this is one big-integer product; below,
# each point is one dot product (break-even measured at 16 to 32 points)
_PACK_ABOVE = 24


def _cauchy(f: list, g: list, ks) -> list:
    """At each k, the sum of f[i] * g[k - i] over i <= k: products on nat and trunc."""
    if len(ks) > _PACK_ABOVE:
        return _kronecker(f, g, ks)
    if not ks:
        return []
    rg = g[max(ks)::-1]  # g reversed, from as far as the last point needs
    top = len(rg) - 1
    # map stops after the shorter list: f[i] meets g[k - i] for i <= k
    return [sum(map(operator.mul, f, rg[top - k:])) if k <= top
            else sum(map(operator.mul, f[k - top:], rg)) for k in ks]


def _kronecker(f: list, g: list, ks) -> list:
    """``_cauchy`` by Kronecker substitution: f and g evaluated at X = 2^(8w)
    multiply as two integers, whose base-X digits are the coefficients.  Each
    |coefficient| is at most max|f|·max|g|·min(len f, len g), so w bytes hold
    it with a sign bit; adding X/2 to each digit makes them all nonnegative,
    to be read off as w-byte numbers."""
    n = max(ks) + 1
    square = f is g  # CPython squares faster than it multiplies
    f, g = f[:n], g[:n]
    bound = max(map(abs, f), default=0) * max(map(abs, g), default=0) * min(len(f), len(g))
    if not bound:
        return [0] * len(ks)
    w = (bound.bit_length() + 8) // 8  # the bits of bound, plus a sign bit, in bytes
    half = 1 << (8 * w - 1)
    packed = _pack(f, w)
    product = packed * packed if square else packed * _pack(g, w)
    # the digits below n: the ones above can only borrow from higher up
    digits = (product + int.from_bytes(half.to_bytes(w, "little") * n, "little")) & (
        (1 << 8 * w * n) - 1)
    raw, read = digits.to_bytes(w * n, "little"), int.from_bytes
    return [read(raw[k * w:k * w + w], "little") - half for k in ks]


def _pack(values: list, w: int) -> int:
    """The sum of values[i] · 2^(8wi), each |value| below 2^(8w - 1)."""
    packed = int.from_bytes(b"".join([v.to_bytes(w, "little", signed=True) for v in values]),
                            "little")
    if min(values) < 0:
        # a negative v went in as its two's complement v + 2^(8w): take that
        # 2^(8w) off again, one digit up
        carries = bytearray(w * (len(values) + 1))
        carries[w::w] = bytes(map((0).__gt__, values))
        packed -= int.from_bytes(carries, "little")
    return packed


def _sieve(f: list, g: list, ks) -> list:
    """At each k, the sum of f[d] * g[e] over d * e = k: Dirichlet products; index
    0 is unused.  The N·H(N) terms up to N = max(ks) take about 2√N slice
    steps, split at s = isqrt(N) as in Dirichlet's hyperbola method: one over
    the multiples of each d <= s, and, since d > s leaves e <= N // (s + 1),
    one over d in s + 1..N // e for each such e.  f's value is always the left
    factor, so a ring whose lift splits noncommuting values keeps their order."""
    if not ks:
        return []
    top = max(ks)
    f, g = f[:top + 1], g[:top + 1]
    f += [0] * (top + 1 - len(f))
    g += [0] * (top + 1 - len(g))
    s = math.isqrt(top)
    add, mul = operator.add, operator.mul
    out = [0] * (top + 1)
    for d in range(1, s + 1):
        out[d::d] = map(add, out[d::d], map(mul, repeat(f[d]), g[1:top // d + 1]))
    for e in range(1, top // (s + 1) + 1):
        hi = top // e
        run = slice((s + 1) * e, hi * e + 1, e)
        out[run] = map(add, out[run], map(mul, f[s + 1:hi + 1], repeat(g[e])))
    return [out[k] for k in ks]


# ---------------------------------------------------------------------------
# catalog monoids


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class CatalogMonoid(Monoid):
    """A catalog carrier with its standard (partial) product: the base of
    the product families below, holding what they share.  Build instances
    with the factories (``nat()``, ...) or ``monoid_from_spec``."""

    carrier: Carrier

    def is_element(self, x):
        return self.carrier.is_element(x)

    def sort_key(self, x):
        return self.carrier.sort_key(x)

    def monomial(self, x):
        return self.carrier.monomial(x)

    def describe(self):
        return self.carrier.name

    @cached_property
    def _infinite_kind(self):
        return _INFINITE_KIND.get(type(self.carrier))

    def tail_mul_bound(self, s, t):
        """``mul_bound`` of admitted descriptors, one of them infinite: the
        trusted step that series products run on their factors' supports.
        ALL is the only infinite descriptor a family without tails admits."""
        return ALL

    def tail_union_bound(self, s, t):
        """``union_bound`` of admitted descriptors, one of them infinite: the
        trusted step that series sums run."""
        return ALL

    def _in_window(self, x, region):  # numbers; the naturals lie above -region
        return -region <= x <= region


class _NatMonoid(CatalogMonoid):
    """The naturals under addition: ``nat`` and ``nat-discrete``."""

    unit = 0
    generator = 1
    product = staticmethod(operator.add)
    cofactor_top = staticmethod(operator.sub)

    def _candidates(self, m, s, t):
        # over a finite side; its elements above m are no factors of m
        if isinstance(s, FiniteSet):
            return [(x, m - x) for x in s.elements if x <= m]
        if isinstance(t, FiniteSet):
            return [(m - y, y) for y in t.elements if y <= m]
        return [(i, m - i) for i in range(m + 1)]

    def _window(self, region):
        return list(range(region + 1))

    def list_kernel(self, points):
        return _cauchy


class _TruncMonoid(_NatMonoid):
    """``trunc``: {0..n} with addition undefined past n."""

    def product(self, a, b):
        return a + b if a + b <= self.carrier.n else None

    def _window(self, region):
        return list(range(min(self.carrier.n, region) + 1))


class _TailMonoid(CatalogMonoid):
    """The additive numbers with tails, ``int`` and ``rational-grid``: x -> n*x
    carries ``GridTail(a, n)`` onto ``TailGE(a)``, the tail on the grid of 1,
    so tail arithmetic runs here once, on integer offsets over the lcm of the
    grids.  A family gives its ``_tail`` and ``_points`` of offsets on a grid
    n, its window, unit, generator and product."""

    def _candidates(self, m, s, t):
        if isinstance(s, FiniteSet):
            return [(x, self.product(m, -x)) for x in s.elements]
        if isinstance(t, FiniteSet):
            return [(self.product(m, -y), y) for y in t.elements]
        # two tails: on g = lcm(n, k), i/n + j/k = m reads i*si + j*sj = c
        # with si = g/n and sj = g/k coprime, so i runs by sj from the least
        # i >= s.a with sj | c - i*si, and j runs down by si alongside to t.a
        n, k = s.n, t.n
        g = math.lcm(n, k)
        if g % m.denominator:
            return []  # m lies off the grid of every sum
        c = m.numerator * (g // m.denominator)
        si, sj = g // n, g // k
        i = s.a + (c * pow(si, -1, sj) - s.a) % sj
        js = range((c - i * si) // sj, t.a - 1, -si)
        return list(zip(self._points(count(i, sj), n), self._points(js, k)))

    def tail_mul_bound(self, s, t):
        # the tail from the sum of the two sides' least points
        if (low_s := _cover(s)) is None or (low_t := _cover(t)) is None:
            return finite()
        (a, n), (b, k) = low_s, low_t
        g = math.lcm(n, k)
        return self._tail(a * (g // n) + b * (g // k), g)

    def tail_union_bound(self, s, t):
        return self._tail(*_cover(s, t))

    def _tail_window(self, desc, region):
        n = desc.n
        return list(self._points(range(max(desc.a, -region * n), region * n + 1), n))


class _IntMonoid(_TailMonoid):
    """The integers under addition: ``int`` and ``int-discrete``."""

    unit = 0
    generator = 1
    product = staticmethod(operator.add)
    cofactor_top = staticmethod(operator.sub)

    @staticmethod
    def _tail(a, n):
        return TailGE(a)  # n is 1: integer offsets stay on the grid of 1

    @staticmethod
    def _points(offsets, n):
        return offsets  # on the grid of 1 the offsets are the points

    def _window(self, region):
        return list(range(-region, region + 1))


class _PosNatMonoid(CatalogMonoid):
    """The positive naturals under multiplication: ``posnat-mul`` and
    ``posnat-div``."""

    unit = 1
    product = staticmethod(operator.mul)
    cofactor_top = staticmethod(operator.floordiv)

    def _candidates(self, m, s, t):
        # over a finite side; only its divisors of m are factors of m
        if isinstance(s, FiniteSet):
            return [(x, m // x) for x in s.elements if m % x == 0]
        if isinstance(t, FiniteSet):
            return [(m // y, y) for y in t.elements if m % y == 0]
        return [(d, m // d) for d in _divisors(m)]

    def _window(self, region):
        return list(range(1, region + 1))

    def list_kernel(self, points):
        # a whole window 1..N; a single query sums its divisor pairs
        return _sieve if len(points) == max(points) else None


class _GridMonoid(_TailMonoid):
    """The rationals under addition: ``rational-grid``, Puiseux exponents.

    A window holds every rational with denominator and absolute value
    bounded by the region, which is enough to probe any fixed-grid tail.
    A finite table's key i over the scale n stands for i/n.
    """

    unit = Fraction(0)
    generator = Fraction(1)
    _tail = staticmethod(GridTail)
    key_product = staticmethod(operator.add)

    @staticmethod
    def product(a, b):
        s = a + b  # a Fraction unless both are ints
        return s if type(s) is Fraction else Fraction(s)

    @staticmethod
    def lift_table(table):
        n = math.lcm(*[m.denominator for m in table])  # an int's is 1
        return {m.numerator * (n // m.denominator): c for m, c in table.items()}, n

    @staticmethod
    def lift_key(m, n):
        k, off = divmod(m.numerator * n, m.denominator)
        return None if off else k

    @staticmethod
    def lower_keys(keys, n):
        return list(map(Fraction, keys)) if n == 1 else [Fraction(k, n) for k in keys]

    @staticmethod
    def join_tables(f, n, g, k):
        lcm = math.lcm(n, k)
        return _rescaled(f, lcm // n), _rescaled(g, lcm // k), lcm

    @staticmethod
    def window_keys(keys, n, region=None):
        if region is not None:
            _check_region(region)
            top = region * n
            keys = [k for k in keys if -top <= k <= top]
        return sorted(keys)

    @staticmethod
    def _points(offsets, n):
        return map(Fraction, offsets, repeat(n))

    def _window(self, region):
        # the Farey fractions of order n on [0, 1), in order by the next-term
        # recurrence, moved onto each unit interval of [-region, region)
        n = max(region, 1)
        farey, (a, b, c, d) = [], (0, 1, 1, n)
        while a < b:
            farey.append((a, b))
            k = (n + b) // d
            a, b, c, d = c, d, k * c - a, k * d - b
        return [Fraction(i * q + p, q) for i in range(-region, region)
                for p, q in farey] + [Fraction(region)]


class _WordMonoid(CatalogMonoid):
    """Words under concatenation: ``free-words``, noncommutative series."""

    unit = ""
    product = staticmethod(operator.add)

    def _candidates(self, m, s, t):
        return [(m[:k], m[k:]) for k in range(len(m) + 1)]

    def _in_window(self, x, region):
        return len(x) <= region

    def _window(self, region):
        out = [""]
        frontier = [""]
        for _ in range(region):
            frontier = [w + ch for w in frontier for ch in self.carrier.alphabet]
            out.extend(frontier)
        return sorted(out, key=self.sort_key)


def _rescaled(table: dict, r: int) -> dict:
    """A table on grid keys over n moved onto the scale r·n."""
    return table if r == 1 else {i * r: c for i, c in table.items()}


# Descriptor admission: finite sets on every carrier, plus at most one
# infinite kind per carrier.  Kept apart from the order classification in
# ``posets``; that the two agree is tested.
_INFINITE_KIND = {NatUsual: All, PosNatMulUsual: All, FreeWords: All, Truncated: All,
                  IntUsual: TailGE, RationalGrid: GridTail}

# the product family of each carrier
_FAMILY = {NatUsual: _NatMonoid, NatDiscrete: _NatMonoid, Truncated: _TruncMonoid,
           IntUsual: _IntMonoid, IntDiscrete: _IntMonoid,
           PosNatMulUsual: _PosNatMonoid, PosNatDivisibility: _PosNatMonoid,
           RationalGrid: _GridMonoid, FreeWords: _WordMonoid}


def _cover(*descs):
    """(a, n) for the least tail {i/n : i >= a} holding the descriptors, each
    a tail or a finite set of numbers; None if they are empty."""
    points = [(d.a, d.n) for d in descs if not isinstance(d, FiniteSet)]
    points += [(x.numerator, x.denominator) for d in descs if isinstance(d, FiniteSet)
               for x in d.elements]
    if not points:
        return None
    g = math.lcm(*(n for _, n in points))
    return min(a * (g // n) for a, n in points), g


# ---------------------------------------------------------------------------
# embedded finite pomonoids


class TableMonoid(Monoid):
    """A total finiteness monoid on a finite carrier, given by a Cayley table.

    Produced by :func:`genseries.posets.embed_finite_pomonoid`.  Since every
    subset of a finite carrier is finitary, the admitted descriptor class is
    just the finite sets, whose bounds and windows ``Monoid`` works out; the
    table supplies the product and decompositions, and every window holds
    all of its labels.
    """

    labels: tuple
    cayley: tuple
    unit_index: int

    def is_element(self, x):
        return x in self.labels

    @property
    def unit(self):
        return self.labels[self.unit_index]

    def product(self, a, b):
        return self.labels[self.cayley[self.labels.index(a)][self.labels.index(b)]]

    def sort_key(self, x):
        return self.labels.index(x)

    def monomial(self, x):
        return _exp_text(x)

    def describe(self):
        return f"table-monoid({len(self.labels)} elements)"

    def _candidates(self, m, s, t):
        return [(a, b) for a in self.labels for b in self.labels if self.product(a, b) == m]

    def _window(self, region):
        return list(self.labels)

    def _in_window(self, x, region):
        return True


# ---------------------------------------------------------------------------
# factories


@cache
def _monoid(carrier) -> CatalogMonoid:
    """The one shared (immutable) monoid on a carrier."""
    return _FAMILY[type(carrier)](carrier)


def nat() -> CatalogMonoid:
    """Naturals under addition, usual order: ordinary power series."""
    return _monoid(NatUsual())


def nat_discrete() -> CatalogMonoid:
    """Naturals under addition, discrete order: polynomials."""
    return _monoid(NatDiscrete())


def integers() -> CatalogMonoid:
    """Integers under addition, usual order: Laurent series."""
    return _monoid(IntUsual())


def integers_discrete() -> CatalogMonoid:
    """Integers under addition, discrete order: Laurent polynomials."""
    return _monoid(IntDiscrete())


def posnat_mul() -> CatalogMonoid:
    """Positive naturals under multiplication, usual order: arithmetic
    functions with Dirichlet convolution."""
    return _monoid(PosNatMulUsual())


def posnat_div() -> CatalogMonoid:
    """Positive naturals under multiplication, divisibility order: a proper
    subring of the arithmetic functions (finite supports only)."""
    return _monoid(PosNatDivisibility())


def rational_grid() -> CatalogMonoid:
    """Rationals under addition: Puiseux series on fixed-denominator tails."""
    return _monoid(RationalGrid())


def free_words(alphabet) -> CatalogMonoid:
    """The free monoid on an alphabet: noncommutative formal power series."""
    return _monoid(FreeWords(tuple(alphabet)))  # a string is its symbols


def truncated(n: int) -> CatalogMonoid:
    """{0..n} with addition undefined past n: polynomials of degree <= n."""
    return _monoid(Truncated(n))


def catalog_monoids(trunc_degree: int = 4, alphabet=("x", "y")) -> list[CatalogMonoid]:
    """All nine catalog monoids, with the two parametric ones instantiated."""
    return [
        nat(), nat_discrete(), integers(), integers_discrete(),
        posnat_mul(), posnat_div(), rational_grid(),
        free_words(alphabet), truncated(trunc_degree),
    ]


def monoid_from_spec(spec) -> CatalogMonoid:
    return _monoid(carrier_from_spec(spec))
