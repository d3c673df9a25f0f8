"""Independent oracles for the test suite.

Everything here recomputes expected values by brute force -- enumeration,
trial division, sieves, dictionary polynomial arithmetic -- and never
calls the code paths under test, so a bug in the library cannot hide
behind a matching bug in its oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def divisor_count(n: int) -> int:
    return len(divisors(n))


def ordered_factorizations(n: int, k: int) -> int:
    """Number of k-tuples of positive integers with product n."""
    if k == 0:
        return 1 if n == 1 else 0
    return sum(ordered_factorizations(n // d, k - 1) for d in divisors(n))


def moebius_sieve(bound: int) -> list[int]:
    """Moebius via the summatory recurrence: sum over divisors of mu is [n=1]."""
    mu = [0] * (bound + 1)
    mu[1] = 1
    for n in range(2, bound + 1):
        mu[n] = -sum(mu[d] for d in divisors(n)[:-1])
    return mu


def poly_mul_truncated(f: dict, g: dict, cap: int) -> dict:
    """Dictionary polynomial product over the integers, degrees above cap dropped."""
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            if a + b <= cap:
                out[a + b] = out.get(a + b, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def geometric_power_coeff(power: int, degree: int) -> int:
    """Coefficient of T^degree in (1 + T + T^2 + ...)^power, by truncated products."""
    acc = {0: 1}
    geo = {i: 1 for i in range(degree + 1)}
    for _ in range(power):
        acc = poly_mul_truncated(acc, geo, degree)
    return acc.get(degree, 0)


def grid_product(f: dict, g: dict, add, mul) -> dict:
    """The product of two Puiseux polynomials given as {exponent: coefficient}
    with exponents that ``Fraction`` reads, every pair of terms crossed; an
    exponent whose terms cancel stays, with a zero."""
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            e = Fraction(a) + Fraction(b)
            out[e] = add(out[e], mul(x, y)) if e in out else mul(x, y)
    return out


def grid_sum(f: dict, g: dict, add) -> dict:
    """The sum of two Puiseux polynomials, a cancelled exponent kept with a zero."""
    out = {Fraction(e): c for e, c in f.items()}
    for e, c in g.items():
        e = Fraction(e)
        out[e] = add(out[e], c) if e in out else c
    return out


def brute_longest_chain_len(elements, le) -> int:
    best = 0
    elements = list(elements)
    for r in range(1, len(elements) + 1):
        for sub in itertools.combinations(elements, r):
            if all(le(sub[i], sub[i + 1]) and sub[i] != sub[i + 1]
                   for i in range(len(sub) - 1)):
                best = max(best, r)
    return best


def brute_largest_antichain_len(elements, le) -> int:
    elements = list(elements)
    best = 0
    for r in range(len(elements), 0, -1):
        for sub in itertools.combinations(elements, r):
            if all(not le(a, b) and not le(b, a)
                   for a, b in itertools.combinations(sub, 2)):
                return r
    return best


def brute_lis_len(seq, le) -> int:
    """Longest non-decreasing subsequence by enumerating all subsequences."""
    seq = list(seq)
    best = 0
    for mask in range(1 << len(seq)):
        picked = [seq[i] for i in range(len(seq)) if mask >> i & 1]
        if all(le(picked[i], picked[i + 1]) for i in range(len(picked) - 1)):
            best = max(best, len(picked))
    return best


def brute_decompose(monoid, m, s, t, window):
    """The spec's stated oracle: descriptor enumerations crossed and filtered."""
    xs = monoid.enumerate_desc(s, window)
    ys = monoid.enumerate_desc(t, window)
    pairs = [(x, y) for x in xs for y in ys if monoid.mul(x, y) == m]
    return sorted(pairs, key=lambda p: (monoid.sort_key(p[0]), monoid.sort_key(p[1])))


def covering_window(monoid, m, s, t):
    """A window that provably contains every decomposition component.

    Additive carriers: components of m lie between the descriptor lower
    bounds and m minus the other bound, so a symmetric window of radius
    |m| + offsets + slack covers them.  Multiplicative carriers: divisors
    of m never exceed m.  Words: factor lengths never exceed the word.
    """
    from genseries.catalog import FiniteSet, GridTail, TailGE

    name = monoid.carrier.name
    if name == "free-words":
        return len(m)
    if name in ("posnat-mul", "posnat-div"):
        return int(m)
    if name == "truncated":
        return monoid.carrier.n

    def magnitude(desc):
        if isinstance(desc, TailGE):
            return abs(desc.a)
        if isinstance(desc, GridTail):
            return abs(desc.a)  # |a/n| <= |a|
        if isinstance(desc, FiniteSet) and desc.elements:
            return max(int(abs(Fraction(e))) + 1 for e in desc.elements)
        return 0

    base = int(abs(Fraction(m))) + 1
    return base + magnitude(s) + magnitude(t) + 1
