"""Generalized power series: lazy coefficient oracles with finitary support.

A series is a function from a monoid carrier to a coefficient ring,
carried as a memoized oracle plus a support descriptor.  Coefficients
outside the descriptor are zero by construction (the oracle is masked),
which makes support soundness an invariant rather than a hope.

The product is convolution over finite decompositions:

    coeff(f * g, m)  =  sum of f(m1) * g(m2)
                        over all (m1, m2) with m1 * m2 = m,
                        m1 in supp(f), m2 in supp(g)

with factors multiplied as f-value times g-value (safe for noncommutative
coefficient rings) and the summation following the canonical pair order,
so renders and tests are reproducible.  Extensional equality of lazy
series is undecidable; the honest surrogate is ``agree_on``, which
compares coefficients over every carrier element in a finite window.

There are two evaluation paths, and they agree coefficient for
coefficient:

* ``coeff(m)`` answers one query lazily through the memo, decomposing m
  and recursing into the factors.
* ``window_coeffs(region)`` -- and so ``terms_on`` and ``render`` --
  evaluates a whole window bottom-up.  Every series records how it was
  built (a finite table, a leaf function, or ``add``/``neg``/``mul`` of
  other series), and the record is walked iteratively in post-order, so
  chain depth costs no stack.  On ``nat`` and ``trunc`` a product is a
  Cauchy product over lists, O(N^2); on ``posnat-mul`` it is a Dirichlet
  sieve, O(N log N); both factors finite, on any carrier, it is a
  convolution of the full tables, |s|*|t| monoid products.  Integer and
  rational coefficients run these kernels on plain ints (rationals over a
  common denominator); other rings use their own ``add`` and ``mul``.
  Infinite supports on the other carriers (Laurent and Puiseux tails,
  lazy words) fall back to per-element ``coeff``.

Series may be shared across threads: the memo fill is idempotent, so
concurrent queries can at worst duplicate work, never disagree, and the
window path keeps all of its state local to the call.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import repeat

from .catalog import (ALL, FiniteSet, NatUsual, PosNatMulUsual, Truncated,
                      finite)
from .errors import InputError, SizeBoundError
from .monoids import Monoid, nat, posnat_mul
from .rings import IntRing, RationalRing, Ring

# how a series was built: ("terms", table), ("leaf",), ("add", f, g),
# ("neg", f) or ("mul", f, g)
_LEAF = ("leaf",)


class GenSeries:
    """An element of the generalized power series ring over (monoid, ring)."""

    __slots__ = ("monoid", "ring", "support", "_fn", "_memo", "_build")

    def __init__(self, monoid: Monoid, ring: Ring, fn, support, build=_LEAF):
        monoid.require_admitted(support)
        self.monoid = monoid
        self.ring = ring
        self.support = support
        self._fn = fn
        self._memo = {}
        self._build = build

    # -- observation ---------------------------------------------------------

    def coeff(self, m):
        self.monoid.check_element(m)
        memo = self._memo
        if m not in memo:
            if self.monoid.member(self.support, m):
                value = self._fn(m)
            else:
                value = self.ring.zero
            memo[m] = value
        return memo[m]

    def agree_on(self, other: "GenSeries", region: int) -> bool:
        """Coefficientwise equality over every carrier element in the window."""
        _check_compatible(self, other)
        return all(
            self.ring.eq(self.coeff(m), other.coeff(m))
            for m in self.monoid.window(region)
        )

    def is_zero_on(self, region: int) -> bool:
        return all(self.ring.is_zero(self.coeff(m)) for m in self.monoid.window(region))

    # -- arithmetic ------------------------------------------------------------

    def add(self, other: "GenSeries") -> "GenSeries":
        _check_compatible(self, other)
        ring = self.ring
        return GenSeries(
            self.monoid, ring,
            lambda m: ring.add(self.coeff(m), other.coeff(m)),
            self.monoid.union_bound(self.support, other.support),
            ("add", self, other),
        )

    def neg(self) -> "GenSeries":
        ring = self.ring
        return GenSeries(self.monoid, ring, lambda m: ring.neg(self.coeff(m)), self.support,
                         ("neg", self))

    def sub(self, other: "GenSeries") -> "GenSeries":
        return self.add(other.neg())

    def mul(self, other: "GenSeries") -> "GenSeries":
        _check_compatible(self, other)
        monoid, ring = self.monoid, self.ring
        s, t = self.support, other.support

        def convolve(m):
            total = ring.zero
            for m1, m2 in monoid.decompose_within(m, s, t):
                total = ring.add(total, ring.mul(self.coeff(m1), other.coeff(m2)))
            return total

        return GenSeries(monoid, ring, convolve, monoid.mul_bound(s, t),
                         ("mul", self, other))

    __add__ = add
    __neg__ = neg
    __sub__ = sub
    __mul__ = mul

    # -- rendering ---------------------------------------------------------------

    def window_coeffs(self, region: int) -> dict:
        """{m: coefficient} for every support element in the window, in
        display order: the values of ``coeff``, evaluated bottom-up."""
        elements = self.monoid.enumerate_desc(self.support, region)
        lookup = _window_lookup(self, region)
        return {m: lookup(m) for m in elements}

    def terms_on(self, region: int) -> list:
        """Nonzero (element, coefficient) pairs on the support window."""
        is_zero = self.ring.is_zero
        return [(m, c) for m, c in self.window_coeffs(region).items() if not is_zero(c)]

    def render(self, region: int) -> str:
        return self.format_terms(self.terms_on(region))

    def format_terms(self, terms) -> str:
        """The display text of (element, coefficient) pairs from ``terms_on``."""
        parts = []
        for m, c in terms:
            text = self.ring.render(c)
            if text.startswith("-") or " " in text:
                text = f"({text})"
            if m == self.monoid.unit:
                parts.append(text)
            else:
                parts.append(f"{text}·{self.monoid.monomial(m)}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<series over {self.monoid.describe()} / {self.ring!r}>"


def _check_compatible(f: GenSeries, g: GenSeries):
    if f.monoid != g.monoid:
        raise InputError(
            f"series monoids differ: {f.monoid.describe()} vs {g.monoid.describe()}")
    if f.ring != g.ring:
        raise InputError(f"series rings differ: {f.ring!r} vs {g.ring!r}")


# ---------------------------------------------------------------------------
# window evaluation


def _window_lookup(root: GenSeries, region: int):
    """A function m -> coefficient of root, valid on root's support window.

    Walks root's build record in post-order with an explicit stack.  Each
    node becomes a table {m: value} of all its terms when its support is
    finite, or a dense list indexed by element over the window on the
    carriers whose windows are closed under factors.  Leaves are read only
    at their support's members, as ``coeff`` reads them; the region has
    been checked by the caller.
    """
    kernel, top = _dense_kernel(root.monoid, region)
    if kernel is None and not _is_finite(root):
        return root.coeff
    values = {}  # id(node) -> table or dense list; root's record keeps every node alive
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in values:
            stack.pop()
            continue
        inputs = _inputs(node)
        pending = [f for f in inputs if id(f) not in values]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        values[id(node)] = _evaluate(node, [values[id(f)] for f in inputs], kernel, top,
                                     region)
    out = values[id(root)]
    if isinstance(out, dict):
        zero = root.ring.zero
        return lambda m: out.get(m, zero)
    return out.__getitem__


def _is_finite(series: GenSeries) -> bool:
    return isinstance(series.support, FiniteSet)


def _inputs(node: GenSeries) -> list:
    """The operands whose values a node is evaluated from."""
    op, *operands = node._build
    if op == "terms" or op == "leaf":
        return []
    # a finite product with an infinite factor has empty support: a leaf
    if _is_finite(node) and not all(_is_finite(f) for f in operands):
        return []
    return operands


def _dense_kernel(monoid: Monoid, region: int):
    """(product kernel, top element) where windows are closed under factors."""
    carrier = getattr(monoid, "carrier", None)
    if isinstance(carrier, NatUsual):
        return _cauchy, region
    if isinstance(carrier, Truncated):
        return _cauchy, min(carrier.n, region)
    if isinstance(carrier, PosNatMulUsual):
        return _sieve, region
    return None, None


def _evaluate(node: GenSeries, inputs: list, kernel, top, region):
    op = node._build[0]
    monoid, ring = node.monoid, node.ring
    fn = node._fn
    if _is_finite(node):
        if op == "terms":
            return node._build[1]
        if not inputs:
            return {m: fn(m) for m in node.support.elements}
        if op == "neg":
            return {m: ring.neg(c) for m, c in inputs[0].items()}
        f, g = inputs
        if op == "add":
            out = dict(f)
            for m, c in g.items():
                out[m] = ring.add(out[m], c) if m in out else c
            return out
        return _convolve(monoid, ring, f, g)
    zero = ring.zero
    if op == "leaf":
        out = [zero] * (top + 1)
        for m in monoid.enumerate_desc(node.support, region):
            out[m] = fn(m)
        return out
    inputs = [_densify(v, top, zero) for v in inputs]
    if op == "neg":
        return list(map(ring.neg, inputs[0]))
    f, g = inputs
    if op == "add":
        return list(map(ring.add, f, g))
    if isinstance(ring, IntRing):
        return kernel(f, g, operator.add, operator.mul, 0)
    if isinstance(ring, RationalRing):
        (fi, fd), (gi, gd) = _lift(f), _lift(g)
        den = fd * gd
        return [Fraction(v, den) for v in kernel(fi, gi, operator.add, operator.mul, 0)]
    return kernel(f, g, ring.add, ring.mul, zero)


def _densify(value, top: int, zero) -> list:
    """A finite table as a dense list over the window; lists pass through."""
    if isinstance(value, list):
        return value
    out = [zero] * (top + 1)
    for m, c in value.items():
        if m <= top:
            out[m] = c
    return out


def _lift(values: list):
    """Rationals as integer numerators over one common denominator."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _convolve(monoid: Monoid, ring: Ring, f: dict, g: dict) -> dict:
    """Exact product of two finite tables; undefined monoid products drop out."""
    out = {}
    for x, a in f.items():
        for y, b in g.items():
            m = monoid.mul(x, y)
            if m is not None:
                c = ring.mul(a, b)
                out[m] = ring.add(out[m], c) if m in out else c
    return out


def _cauchy(f: list, g: list, add, mul, zero) -> list:
    """out[k] = sum of f[i] * g[k - i] over i <= k: products on nat and trunc."""
    rg = g[::-1]
    top = len(f) - 1
    # plain ints take sum's fast path; other rings fold with their own add
    total = sum if add is operator.add else (lambda terms: reduce(add, terms, zero))
    return [total(map(mul, f[:k + 1], rg[top - k:])) for k in range(top + 1)]


def _sieve(f: list, g: list, add, mul, zero) -> list:
    """out[d * k] = sum of f[d] * g[k]: Dirichlet products; index 0 is unused."""
    top = len(f) - 1
    out = [zero] * (top + 1)
    for d in range(1, top + 1):
        out[d::d] = map(add, out[d::d], map(mul, repeat(f[d]), g[1:top // d + 1]))
    return out


# ---------------------------------------------------------------------------
# constructors


def from_terms(monoid: Monoid, ring: Ring, terms) -> GenSeries:
    """A series with explicit finite support; zero coefficients are dropped."""
    table = {}
    seen = set()
    for m, c in terms:
        monoid.check_element(m)
        ring.check_element(c)
        if m in seen:
            raise InputError(f"duplicate term at {m!r}")
        seen.add(m)
        if not ring.is_zero(c):
            table[m] = c
    return GenSeries(monoid, ring, table.__getitem__, finite(table), ("terms", table))


def zero_series(monoid: Monoid, ring: Ring) -> GenSeries:
    return from_terms(monoid, ring, [])


def unit_series(monoid: Monoid, ring: Ring) -> GenSeries:
    """Coefficient one at the monoid unit, zero elsewhere."""
    return from_terms(monoid, ring, [(monoid.unit, ring.one)])


def from_function(monoid: Monoid, ring: Ring, support, fn) -> GenSeries:
    """A lazy series: fn is consulted only inside the support descriptor."""
    return GenSeries(monoid, ring, fn, support)


# ---------------------------------------------------------------------------
# named builtins


def geometric(ring: Ring) -> GenSeries:
    """1 + T + T^2 + ... over the naturals."""
    return from_function(nat(), ring, ALL, lambda m: ring.one)


def zeta(ring: Ring) -> GenSeries:
    """The arithmetic function that is constantly one (Dirichlet zeta)."""
    return from_function(posnat_mul(), ring, ALL, lambda m: ring.one)


def moebius(ring: Ring, bound: int) -> GenSeries:
    """The Moebius function, precomputed up to a declared bound.

    Queries beyond the bound raise ``SizeBoundError``: a lazy sieve without
    a bound would silently hide the cost model, so the bound is explicit.
    """
    if bound < 1:
        raise InputError("moebius bound must be at least 1")
    values = _moebius_table(bound)

    def mu(n):
        if n > bound:
            raise SizeBoundError(f"moebius precomputed up to {bound}, asked for {n}")
        return ring.from_int(values[n])

    return from_function(posnat_mul(), ring, ALL, mu)


def _moebius_table(bound: int) -> list[int]:
    # smallest-prime-factor factorization: -1 per distinct prime, 0 on squares
    spf = list(range(bound + 1))
    for p in range(2, int(bound ** 0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, bound + 1, p):
                if spf[q] == q:
                    spf[q] = p
    out = [0] * (bound + 1)
    if bound >= 1:
        out[1] = 1
    for n in range(2, bound + 1):
        m, sign = n, 1
        square_free = True
        while m > 1:
            p = spf[m]
            m //= p
            if m % p == 0:
                square_free = False
                break
            sign = -sign
        out[n] = sign if square_free else 0
    return out
