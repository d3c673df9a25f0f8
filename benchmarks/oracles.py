"""Reference values the benchmark checks genseries outputs against.

Nothing here imports genseries: every expected value is recomputed from
its definition (binomials, prime factorizations, dictionary convolution,
brute-force order theory), so a defect in the library cannot be hidden by
the same defect in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# series


def geometric_power(k: int, m: int) -> int:
    """Coefficient of T^m in (1 + T + T^2 + ...)^k: weak compositions of m."""
    return math.comb(m + k - 1, k - 1)


def dirichlet_unit(n: int) -> int:
    """zeta * moebius is the Dirichlet identity [n == 1]."""
    return 1 if n == 1 else 0


def divisor_power(k: int, n: int) -> int:
    """d_k(n), the n-th coefficient of zeta^k: product of C(e + k - 1, k - 1)
    over the prime powers p^e exactly dividing n."""
    out = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out *= math.comb(e + k - 1, k - 1)
        p += 1
    if n > 1:
        out *= k
    return out


def convolve(f: dict, g: dict, op, add, mul, zero) -> dict:
    """Plain dictionary product: sum f[a] * g[b] into op(a, b).

    ``op`` returns None where the monoid product is undefined (truncated
    carriers); zero coefficients are dropped from the result.
    """
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            c = op(a, b)
            if c is None:
                continue
            out[c] = add(out[c], mul(fa, gb)) if c in out else mul(fa, gb)
    return {k: v for k, v in out.items() if v != zero}


def product(factors: list, op, add, mul, zero) -> dict:
    acc = factors[0]
    for f in factors[1:]:
        acc = convolve(acc, f, op, add, mul, zero)
    return acc


def mat2_mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def mat2_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def fraction_text(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# finite posets


def longest_chain_length(n: int, lt) -> int:
    """Elements in a longest chain, by dynamic programming over a
    topological order of the strict order (Kahn's algorithm)."""
    indeg = [sum(1 for i in range(n) if lt[i][j]) for j in range(n)]
    order = [j for j in range(n) if indeg[j] == 0]
    for i in order:
        for j in range(n):
            if lt[i][j]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
    best = [1] * n
    for i in order:
        for j in range(n):
            if lt[i][j]:
                best[j] = max(best[j], best[i] + 1)
    return max(best, default=0)


def width(n: int, lt) -> int:
    """Size of a largest antichain: n minus a maximum matching in the
    comparability bipartite graph (Dilworth via Koenig)."""
    match_right = [-1] * n

    def augment(i, seen):
        for j in range(n):
            if lt[i][j] and not seen[j]:
                seen[j] = True
                if match_right[j] == -1 or augment(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    matched = sum(augment(i, [False] * n) for i in range(n))
    return n - matched


def is_chain(lt, idx) -> bool:
    return all(lt[a][b] for a, b in zip(idx, idx[1:]))


def is_antichain(lt, idx) -> bool:
    return all(not lt[a][b] and not lt[b][a] for a in idx for b in idx if a != b)


def strict_translations(n: int, leq, table) -> bool:
    """s < s' forces s*c < s'*c and c*s < c*s' for every c."""
    for s in range(n):
        for s2 in range(n):
            if s == s2 or not leq[s][s2]:
                continue
            for c in range(n):
                for x, y in ((table[s][c], table[s2][c]), (table[c][s], table[c][s2])):
                    if x == y or not leq[x][y]:
                        return False
    return True


# classification of the whole carrier, (artinian, noetherian, narrow, finite):
# a well order of type omega (nat, positive naturals, shortlex words) has no
# infinite descent or antichain but ascends forever; a discrete order is an
# infinite antichain with no strict pairs; int and the rationals descend
# forever; divisibility has the primes as an infinite antichain; {0..n} is a
# finite chain.  Tails {i >= a} and grid tails {i/n : i >= a} are copies of
# omega.  Any finite set has all four properties.
WHOLE_CARRIER = {
    "nat": (True, False, True, False),
    "nat-discrete": (True, True, False, False),
    "int": (False, False, True, False),
    "int-discrete": (True, True, False, False),
    "posnat-mul": (True, False, True, False),
    "posnat-div": (True, False, False, False),
    "rational-grid": (False, False, True, False),
    "words": (True, False, True, False),
    "trunc": (True, True, True, True),
}
OMEGA = (True, False, True, False)
FINITE = (True, True, True, True)

# ---------------------------------------------------------------------------
# finite partial functions


def equalizer_points(dom, f: dict, g: dict) -> set:
    """Points where f and g agree as partial functions."""
    return {x for x in dom if f.get(x) == g.get(x)}


def coequalizer_classes(dom, cod, f: dict, g: dict) -> set:
    """Classes of cod under f(x) ~ g(x) (both defined), minus every class
    that some point reaches through exactly one of the two legs."""
    cls = {y: frozenset([y]) for y in cod}
    for x in dom:
        if x in f and x in g:
            merged = cls[f[x]] | cls[g[x]]
            for y in merged:
                cls[y] = merged
    one_sided = {cls[f[x]] for x in dom if x in f and x not in g}
    one_sided |= {cls[g[x]] for x in dom if x in g and x not in f}
    return set(cls.values()) - one_sided
