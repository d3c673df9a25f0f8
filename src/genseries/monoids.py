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
  grammar.  For rational grid tails the product bound is the tail
  ``{k/(n*m) : k >= a*m + b*n}``, the sharp bound for sums of two tails.

Descriptor admission is a rule table of its own; that it agrees with the
order-theoretic classification (admitted iff artinian and narrow) is a
tested invariant, not a definition, so the two routes stay independent.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .catalog import (ALL, All, Carrier, Descriptor, FiniteSet, FreeWords,
                      GridTail, IntDiscrete, IntUsual, NatDiscrete, NatUsual,
                      PosNatDivisibility, PosNatMulUsual, RationalGrid,
                      TailGE, Truncated, _check_region, finite)
from .errors import CarrierError, DescriptorError


class Monoid:
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

    def sort_key(self, x):
        raise NotImplementedError

    def monomial(self, x) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # -- descriptors ---------------------------------------------------------

    def admits(self, desc: Descriptor) -> bool:
        raise NotImplementedError

    def require_admitted(self, desc: Descriptor):
        if not self.admits(desc):
            raise DescriptorError(f"descriptor {desc!r} is not admitted on {self.describe()}")

    def member(self, desc: Descriptor, x) -> bool:
        """Is x a member of the described set?"""
        self.check_element(x)
        if isinstance(desc, FiniteSet):
            return x in desc.elements
        if isinstance(desc, All):
            return True
        if isinstance(desc, GridTail):
            q = Fraction(x)
            scaled = q * desc.n
            return scaled.denominator == 1 and scaled.numerator >= desc.a
        if isinstance(desc, TailGE):
            return x >= desc.a
        raise DescriptorError(f"unknown descriptor {desc!r}")

    def decompose_within(self, m, s: Descriptor, t: Descriptor) -> list:
        """All pairs (m1, m2) with m1 in s, m2 in t and m1 * m2 = m.

        Finite by construction for admitted descriptors; sorted in the
        canonical pair order so convolution sums are reproducible.
        """
        self.require_admitted(s)
        self.require_admitted(t)
        self.check_element(m)
        seen = {}
        for m1, m2 in self._candidates(m, s, t):
            if (m1, m2) in seen:
                continue
            if self.member(s, m1) and self.member(t, m2) and self.mul(m1, m2) == m:
                seen[(m1, m2)] = True
        return sorted(seen, key=lambda p: (self.sort_key(p[0]), self.sort_key(p[1])))

    def _candidates(self, m, s, t):
        raise NotImplementedError

    def mul_bound(self, s: Descriptor, t: Descriptor) -> Descriptor:
        raise NotImplementedError

    def union_bound(self, s: Descriptor, t: Descriptor) -> Descriptor:
        raise NotImplementedError

    def enumerate_desc(self, desc: Descriptor, region: int) -> list:
        """Descriptor members inside the window, in display order."""
        raise NotImplementedError

    def window(self, region: int) -> list:
        """All monoid elements inside the window (not descriptor-relative)."""
        raise NotImplementedError


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


@dataclass(frozen=True)
class CatalogMonoid(Monoid):
    """One of the nine catalog carriers with its standard (partial) product."""

    carrier: Carrier

    def is_element(self, x):
        return self.carrier.is_element(x)

    @property
    def unit(self):
        c = self.carrier
        if isinstance(c, (NatUsual, NatDiscrete, IntUsual, IntDiscrete, Truncated)):
            return 0
        if isinstance(c, (PosNatMulUsual, PosNatDivisibility)):
            return 1
        if isinstance(c, RationalGrid):
            return Fraction(0)
        if isinstance(c, FreeWords):
            return ""
        raise CarrierError(f"no monoid structure on {c!r}")

    @functools.cached_property
    def product(self):
        # picked once per monoid, so a product walks no isinstance chain
        c = self.carrier
        if isinstance(c, Truncated):
            n = c.n
            return lambda a, b: a + b if a + b <= n else None
        if isinstance(c, (NatUsual, NatDiscrete, IntUsual, IntDiscrete, FreeWords)):
            return operator.add
        if isinstance(c, (PosNatMulUsual, PosNatDivisibility)):
            return operator.mul
        if isinstance(c, RationalGrid):
            return lambda a, b: Fraction(a) + Fraction(b)
        raise CarrierError(f"no monoid structure on {c!r}")

    def sort_key(self, x):
        return self.carrier.sort_key(x)

    def monomial(self, x):
        return self.carrier.monomial(x)

    def describe(self):
        return self.carrier.name

    def admits(self, desc):
        c = self.carrier
        if isinstance(desc, FiniteSet):
            return all(self.is_element(e) for e in desc.elements)
        if isinstance(desc, All):
            return isinstance(c, (NatUsual, PosNatMulUsual, FreeWords, Truncated))
        if isinstance(desc, GridTail):
            return isinstance(c, RationalGrid)
        if isinstance(desc, TailGE):
            return isinstance(c, IntUsual)
        return False

    # -- decomposition candidates -------------------------------------------

    def _candidates(self, m, s, t):
        c = self.carrier
        if isinstance(c, (NatUsual, NatDiscrete, Truncated)):
            # over a finite side; its elements above m are no factors of m
            if isinstance(s, FiniteSet):
                return [(x, m - x) for x in s.elements if x <= m]
            if isinstance(t, FiniteSet):
                return [(m - y, y) for y in t.elements if y <= m]
            return [(i, m - i) for i in range(m + 1)]
        if isinstance(c, (IntUsual, IntDiscrete)):
            if isinstance(s, FiniteSet):
                return [(x, m - x) for x in s.elements]
            if isinstance(t, FiniteSet):
                return [(m - y, y) for y in t.elements]
            # two tails: m1 >= s.a and m2 = m - m1 >= t.a bound the scan
            return [(i, m - i) for i in range(s.a, m - t.a + 1)]
        if isinstance(c, (PosNatMulUsual, PosNatDivisibility)):
            return [(d, m // d) for d in _divisors(m)]
        if isinstance(c, RationalGrid):
            if isinstance(s, FiniteSet):
                return [(x, Fraction(m) - Fraction(x)) for x in s.elements]
            if isinstance(t, FiniteSet):
                return [(Fraction(m) - Fraction(y), y) for y in t.elements]
            return self._grid_candidates(m, s, t)
        if isinstance(c, FreeWords):
            return [(m[:k], m[k:]) for k in range(len(m) + 1)]
        raise CarrierError(f"no monoid structure on {c!r}")

    def _grid_candidates(self, m, s: GridTail, t: GridTail):
        # Writing the target as c/p, a pair (i/n, j/mm) sums to it exactly
        # when i*mm*p + j*n*p = n*mm*c; with j >= b this pins i into the
        # interval a <= i <= (n*mm*c - b*n*p) / (mm*p), and each i admits at
        # most one j.
        q = Fraction(m)
        n, a = s.n, s.a
        mm, b = t.n, t.a
        c, p = q.numerator, q.denominator
        hi = (n * mm * c - b * n * p) // (mm * p)
        out = []
        for i in range(a, hi + 1):
            j = (q - Fraction(i, n)) * mm
            if j.denominator == 1 and j.numerator >= b:
                out.append((Fraction(i, n), Fraction(j.numerator, mm)))
        return out

    # -- support bounds -------------------------------------------------------

    def mul_bound(self, s, t):
        self.require_admitted(s)
        self.require_admitted(t)
        if isinstance(s, FiniteSet) and isinstance(t, FiniteSet):
            image = {self.mul(x, y) for x in s.elements for y in t.elements}
            image.discard(None)
            return FiniteSet(frozenset(image))
        c = self.carrier
        if isinstance(c, IntUsual):
            lo_s = s.a if isinstance(s, TailGE) else _min_or_none(s.elements)
            lo_t = t.a if isinstance(t, TailGE) else _min_or_none(t.elements)
            if lo_s is None or lo_t is None:
                return finite()
            return TailGE(lo_s + lo_t)
        if isinstance(c, RationalGrid):
            return self._grid_mul_bound(s, t)
        return ALL

    def _grid_mul_bound(self, s, t):
        if isinstance(s, FiniteSet):
            if not s.elements:
                return finite()
            return _fold_union(self._shift_tail(x, t) for x in s.elements)
        if isinstance(t, FiniteSet):
            if not t.elements:
                return finite()
            return _fold_union(self._shift_tail(y, s) for y in t.elements)
        # two tails: {i/n + j/m} lands in the tail of the product grid
        return GridTail(s.a * t.n + t.a * s.n, s.n * t.n)

    def _shift_tail(self, x, tail: GridTail) -> GridTail:
        q = Fraction(x)
        g = math.lcm(q.denominator, tail.n)
        offset = q.numerator * (g // q.denominator) + tail.a * (g // tail.n)
        return GridTail(offset, g)

    def union_bound(self, s, t):
        self.require_admitted(s)
        self.require_admitted(t)
        if isinstance(s, FiniteSet) and isinstance(t, FiniteSet):
            return FiniteSet(s.elements | t.elements)
        if isinstance(s, All) or isinstance(t, All):
            return ALL
        c = self.carrier
        if isinstance(c, IntUsual):
            los = [d.a if isinstance(d, TailGE) else _min_or_none(d.elements) for d in (s, t)]
            los = [v for v in los if v is not None]
            return TailGE(min(los))
        if isinstance(c, RationalGrid):
            tails = [d for d in (s, t) if isinstance(d, GridTail)]
            acc = tails[0]
            for other in tails[1:]:
                acc = _merge_tails(acc, other)
            for d in (s, t):
                if isinstance(d, FiniteSet):
                    for x in d.elements:
                        acc = _merge_tails(acc, _point_tail(x))
            return acc
        raise DescriptorError(f"cannot union {s!r} and {t!r} on {c.name}")

    # -- enumeration -----------------------------------------------------------

    def enumerate_desc(self, desc, region):
        self.require_admitted(desc)
        _check_region(region)
        if isinstance(desc, FiniteSet):
            return sorted((x for x in desc.elements if self._in_window(x, region)),
                          key=self.sort_key)
        if isinstance(desc, All):
            return self.window(region)
        if isinstance(desc, GridTail):
            lo = max(desc.a, -region * desc.n)
            out = []
            i = lo
            while Fraction(i, desc.n) <= region:
                out.append(Fraction(i, desc.n))
                i += 1
            return out
        if isinstance(desc, TailGE):
            return list(range(max(desc.a, -region), region + 1))
        raise DescriptorError(f"unknown descriptor {desc!r}")

    def _in_window(self, x, region):
        c = self.carrier
        if isinstance(c, FreeWords):
            return len(x) <= region
        if isinstance(c, (IntUsual, IntDiscrete, RationalGrid)):
            return -region <= x <= region
        return x <= region

    def window(self, region):
        return self.carrier.window(region)


def _min_or_none(elements):
    return min(elements) if elements else None


def _point_tail(x) -> GridTail:
    q = Fraction(x)
    return GridTail(q.numerator, q.denominator)


def _merge_tails(s: GridTail, t: GridTail) -> GridTail:
    g = math.lcm(s.n, t.n)
    return GridTail(min(s.a * (g // s.n), t.a * (g // t.n)), g)


def _fold_union(tails) -> GridTail:
    acc = None
    for tail in tails:
        acc = tail if acc is None else _merge_tails(acc, tail)
    return acc


# ---------------------------------------------------------------------------
# embedded finite pomonoids


@dataclass(frozen=True)
class TableMonoid(Monoid):
    """A total finiteness monoid on a finite carrier, given by a Cayley table.

    Produced by :func:`genseries.posets.embed_finite_pomonoid`.  Since every
    subset of a finite carrier is finitary, the admitted descriptor class is
    just the finite sets, and decompositions are read off the table.
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
        return str(x)

    def describe(self):
        return f"table-monoid({len(self.labels)} elements)"

    def admits(self, desc):
        return isinstance(desc, FiniteSet) and all(self.is_element(e) for e in desc.elements)

    def _candidates(self, m, s, t):
        return [(a, b) for a in self.labels for b in self.labels if self.mul(a, b) == m]

    def mul_bound(self, s, t):
        self.require_admitted(s)
        self.require_admitted(t)
        return FiniteSet(frozenset(self.mul(x, y) for x in s.elements for y in t.elements))

    def union_bound(self, s, t):
        self.require_admitted(s)
        self.require_admitted(t)
        return FiniteSet(s.elements | t.elements)

    def enumerate_desc(self, desc, region):
        self.require_admitted(desc)
        return sorted(desc.elements, key=self.sort_key)

    def window(self, region):
        return list(self.labels)


# ---------------------------------------------------------------------------
# factories


def nat() -> CatalogMonoid:
    """Naturals under addition, usual order: ordinary power series."""
    return CatalogMonoid(NatUsual())


def nat_discrete() -> CatalogMonoid:
    """Naturals under addition, discrete order: polynomials."""
    return CatalogMonoid(NatDiscrete())


def integers() -> CatalogMonoid:
    """Integers under addition, usual order: Laurent series."""
    return CatalogMonoid(IntUsual())


def integers_discrete() -> CatalogMonoid:
    """Integers under addition, discrete order: Laurent polynomials."""
    return CatalogMonoid(IntDiscrete())


def posnat_mul() -> CatalogMonoid:
    """Positive naturals under multiplication, usual order: arithmetic
    functions with Dirichlet convolution."""
    return CatalogMonoid(PosNatMulUsual())


def posnat_div() -> CatalogMonoid:
    """Positive naturals under multiplication, divisibility order: a proper
    subring of the arithmetic functions (finite supports only)."""
    return CatalogMonoid(PosNatDivisibility())


def rational_grid() -> CatalogMonoid:
    """Rationals under addition: Puiseux series on fixed-denominator tails."""
    return CatalogMonoid(RationalGrid())


def free_words(alphabet) -> CatalogMonoid:
    """The free monoid on an alphabet: noncommutative formal power series."""
    if isinstance(alphabet, str):
        alphabet = tuple(alphabet)
    return CatalogMonoid(FreeWords(tuple(alphabet)))


def truncated(n: int) -> CatalogMonoid:
    """{0..n} with addition undefined past n: polynomials of degree <= n."""
    return CatalogMonoid(Truncated(n))


def catalog_monoids(trunc_degree: int = 4, alphabet=("x", "y")) -> list[CatalogMonoid]:
    """All nine catalog monoids, with the two parametric ones instantiated."""
    return [
        nat(), nat_discrete(), integers(), integers_discrete(),
        posnat_mul(), posnat_div(), rational_grid(),
        free_words(alphabet), truncated(trunc_degree),
    ]


def monoid_from_spec(spec) -> CatalogMonoid:
    from .catalog import carrier_from_spec
    return CatalogMonoid(carrier_from_spec(spec))
