"""Condensed property suites for every module, runnable from the CLI.

Each suite checks the same invariants the full pytest battery pins down,
at a budget that keeps a self-test interactive.  Oracles here are written
against enumeration-and-filter routes so they stay independent of the
code paths they judge.  The sample generators below are the ones the
pytest suite draws from, so both batteries see the same kinds of data.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import finspace
from .catalog import ALL, FiniteSet, GridTail, TailGE, finite
from .monoids import catalog_monoids, nat, posnat_mul, rational_grid, truncated
from .posets import classify_subset
from .rings import (IntRing, Mat2Ring, ModRing, RationalRing,
                    check_ring_axioms, find_noncommuting_pair)
from .series import from_function, from_terms, moebius, unit_series, zeta

ALL_RINGS = [IntRing(), RationalRing(), ModRing(6), Mat2Ring()]


# ---------------------------------------------------------------------------
# sample generators


def ring_samples(ring, rng, count=4):
    if isinstance(ring, Mat2Ring):
        return [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(count)]
    if isinstance(ring, ModRing):
        return [rng.randrange(ring.modulus) for _ in range(count)]
    if isinstance(ring, RationalRing):
        return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(count)]
    return [rng.randint(-8, 8) for _ in range(count)]


def element_pool(monoid):
    name = monoid.carrier.name
    if name in ("nat", "nat-discrete"):
        return list(range(0, 7))
    if name in ("int", "int-discrete"):
        return list(range(-5, 6))
    if name in ("posnat-mul", "posnat-div"):
        return list(range(1, 13))
    if name == "rational-grid":
        return sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(-6, 7)})
    if name == "free-words":
        return monoid.window(2)
    return monoid.window(10)


def random_descriptor(monoid, rng, size=3):
    name = monoid.carrier.name
    if name in ("nat", "posnat-mul", "free-words", "truncated") and rng.random() < 0.4:
        return ALL
    if name == "int" and rng.random() < 0.5:
        return TailGE(rng.randint(-4, 2))
    if name == "rational-grid" and rng.random() < 0.6:
        return GridTail(rng.randint(-3, 3), rng.randint(1, 3))
    pool = element_pool(monoid)
    return finite(rng.sample(pool, min(size, len(pool))))


def lazy_support(monoid, rng):
    """An infinite admitted descriptor for the carrier, or None."""
    name = monoid.carrier.name
    if name == "int":
        return TailGE(rng.randint(-3, 1))
    if name == "rational-grid":
        return GridTail(rng.randint(-3, 2), rng.randint(1, 3))
    if monoid.admits(ALL):
        return ALL
    return None


def random_series(monoid, ring, rng, lazy_ok=True):
    """Either a small explicit series or, on carriers with an infinite
    admitted descriptor, a lazy one with deterministic pseudo-random
    coefficients."""
    support = lazy_support(monoid, rng) if lazy_ok and rng.random() < 0.3 else None
    if support is not None:
        seed = rng.randint(0, 10 ** 6)

        def fn(m, _seed=seed):
            return ring.from_int(random.Random(f"{_seed}/{m!r}").randint(-3, 3))

        return from_function(monoid, ring, support, fn)
    pool = element_pool(monoid)
    picks = rng.sample(pool, min(rng.randint(0, 3), len(pool)))
    coeffs = ring_samples(ring, rng, len(picks))
    return from_terms(monoid, ring, list(zip(picks, coeffs)))


def _brute_decompose(monoid, m, s, t, window):
    xs = monoid.enumerate_desc(s, window)
    ys = monoid.enumerate_desc(t, window)
    pairs = [(x, y) for x in xs for y in ys if monoid.mul(x, y) == m]
    return sorted(pairs, key=lambda p: (monoid.sort_key(p[0]), monoid.sort_key(p[1])))


def _covering_window(monoid, m, s, t):
    """A window provably containing every component of a decomposition of m."""
    name = monoid.carrier.name
    if name == "free-words":
        return len(m)
    bounds = [abs(_lower(d)) for d in (s, t) if _lower(d) is not None]
    base = abs(int(m)) if name != "rational-grid" else int(abs(Fraction(m))) + 1
    return base + sum(bounds) + 2


def _lower(desc):
    if isinstance(desc, (TailGE, GridTail)):
        return desc.a  # offset magnitude dominates the tail's lowest value
    if isinstance(desc, FiniteSet) and desc.elements:
        keys = [abs(int(Fraction(e))) if not isinstance(e, str) else len(e)
                for e in desc.elements]
        return max(keys)
    return None


# ---------------------------------------------------------------------------
# suites


def suite_ring_axioms(seed):
    rng = random.Random(seed)
    for ring in ALL_RINGS:
        samples = ring_samples(ring, rng, 4) + [ring.zero, ring.one]
        bad = check_ring_axioms(ring, samples)
        if bad:
            return f"{ring!r}: {bad[0]}"
    pair = find_noncommuting_pair(Mat2Ring(), [(0, 1, 0, 0), (0, 0, 1, 0)])
    if pair is None:
        return "matrix ring failed to witness noncommutativity"
    return None


def suite_poset_ops(seed):
    rng = random.Random(seed)
    from .posets import (FinitePoset, increasing_subsequence, is_strict_map,
                         largest_antichain, longest_chain)
    divisors12 = [d for d in range(1, 13) if 12 % d == 0]
    p12 = FinitePoset.from_le(divisors12, lambda a, b: b % a == 0)
    if len(longest_chain(p12)) != 4:
        return "longest chain in the divisors of 12 is not 4"
    divisors36 = [d for d in range(1, 37) if 36 % d == 0]
    p36 = FinitePoset.from_le(divisors36, lambda a, b: b % a == 0)
    if len(largest_antichain(p36)) != 3:
        return "largest antichain in the divisors of 36 is not 3"
    for _ in range(20):
        seq = [rng.randint(0, 8) for _ in range(rng.randint(0, 9))]
        idx = increasing_subsequence(nat().carrier, seq)
        best = 1 if seq else 0
        n = len(seq)
        lengths = [1] * n
        for i in range(n):
            for j in range(i):
                if seq[j] <= seq[i]:
                    lengths[i] = max(lengths[i], lengths[j] + 1)
            best = max(best, lengths[i])
        if len(idx) != best:
            return f"subsequence length mismatch on {seq!r}"
    two_chain = FinitePoset.from_le([0, 1], lambda a, b: a <= b)
    if is_strict_map({0: 0, 1: 0}, two_chain, two_chain):
        return "constant map on a chain reported strict"
    return None


def suite_classification(seed):
    shapes = [finite([0]), ALL, GridTail(-2, 2), TailGE(-3)]
    for monoid in catalog_monoids():
        for desc in shapes:
            try:
                cls = classify_subset(monoid.carrier, desc)
            except Exception:
                continue
            if cls.artinian and cls.noetherian and cls.narrow and not cls.finite:
                return f"artinian+noetherian+narrow reported infinite on {monoid.describe()}"
            if monoid.admits(desc) != (cls.artinian and cls.narrow):
                return f"admission disagrees with classification on {monoid.describe()}"
    return None


def suite_decompose_oracle(seed):
    rng = random.Random(seed)
    for monoid in catalog_monoids():
        for _ in range(40):
            s = random_descriptor(monoid, rng)
            t = random_descriptor(monoid, rng)
            m = rng.choice(element_pool(monoid))
            window = _covering_window(monoid, m, s, t)
            got = monoid.decompose_within(m, s, t)
            want = _brute_decompose(monoid, m, s, t, window)
            if got != want:
                return f"{monoid.describe()}: decompose({m!r}) mismatch"
    return None


def suite_bounds(seed):
    rng = random.Random(seed)
    for monoid in catalog_monoids():
        for _ in range(25):
            s = random_descriptor(monoid, rng)
            t = random_descriptor(monoid, rng)
            bound = monoid.mul_bound(s, t)
            join = monoid.union_bound(s, t)
            window = 6
            for x in monoid.enumerate_desc(s, window)[:8]:
                if not monoid.member(join, x):
                    return f"{monoid.describe()}: union bound misses {x!r}"
                for y in monoid.enumerate_desc(t, window)[:8]:
                    prod = monoid.mul(x, y)
                    if prod is not None and not monoid.member(bound, prod):
                        return f"{monoid.describe()}: product bound misses {prod!r}"
            for y in monoid.enumerate_desc(t, window)[:8]:
                if not monoid.member(join, y):
                    return f"{monoid.describe()}: union bound misses {y!r}"
    return None


def suite_series_ring_axioms(seed):
    rng = random.Random(seed)
    for monoid in catalog_monoids(trunc_degree=3):
        for ring in (IntRing(), ModRing(6)):
            for _ in range(6):
                f = random_series(monoid, ring, rng)
                g = random_series(monoid, ring, rng)
                h = random_series(monoid, ring, rng)
                w = 5 if monoid.carrier.name != "free-words" else 3
                if not ((f * g) * h).agree_on(f * (g * h), w):
                    return f"associativity fails over {monoid.describe()}/{ring!r}"
                if not (f * (g + h)).agree_on(f * g + f * h, w):
                    return f"distributivity fails over {monoid.describe()}/{ring!r}"
                e = unit_series(monoid, ring)
                if not (e * f).agree_on(f, w) or not (f * e).agree_on(f, w):
                    return f"unit law fails over {monoid.describe()}/{ring!r}"
    return None


def suite_dirichlet(seed):
    ring = IntRing()
    z = zeta(ring)
    zz = z * z
    for n in range(1, 121):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        if zz.coeff(n) != len(divisors):
            return f"zeta^2 at {n} is {zz.coeff(n)}, expected {len(divisors)}"
    mu = moebius(ring, 120)
    zm = z * mu
    e = unit_series(posnat_mul(), ring)
    for n in range(1, 121):
        if zm.coeff(n) != e.coeff(n):
            return f"zeta*moebius differs from the unit at {n}"
    return None


def suite_puiseux(seed):
    rng = random.Random(seed)
    monoid = rational_grid()
    pairs = [(rng.randint(-4, 4), rng.randint(1, 4), rng.randint(-4, 4), rng.randint(1, 4))
             for _ in range(50)]
    for a, n, b, m in pairs + [(1, 4, -1, 6), (-3, 2, 2, 2), (2, 6, -5, 9)]:
        s, t = GridTail(a, n), GridTail(b, m)
        bound = monoid.mul_bound(s, t)
        g = math.lcm(n, m)  # two grids meet on their lcm
        if bound != GridTail(a * (g // n) + b * (g // m), g):
            return f"grid product bound is {bound!r}"
        for i in range(a, a + 5):
            for j in range(b, b + 5):
                total = Fraction(i, n) + Fraction(j, m)
                if not monoid.member(bound, total):
                    return f"{total} escapes the product tail"
    return None


def suite_truncated(seed):
    ring = ModRing(6)
    for degree in range(0, 4):
        monoid = truncated(degree)
        pts = list(range(degree + 1))
        basis = {a: from_terms(monoid, ring, [(a, 1)]) for a in pts}
        for a in pts:
            for b in pts:
                for c in pts:
                    lhs = (basis[a] * basis[b]) * basis[c]
                    rhs = basis[a] * (basis[b] * basis[c])
                    if not lhs.agree_on(rhs, degree):
                        return f"truncated associativity fails at ({a},{b},{c}), n={degree}"
    return None


def suite_category(seed):
    failures, _ = finspace.verification_sweep(
        max_size=2, seed=seed, parallel_samples=40,
        hom_size=2, perp_size=3, family_samples=40)
    return failures[0] if failures else None


def suite_noncommutative(seed):
    ring = Mat2Ring()
    monoid = nat()
    f = from_terms(monoid, ring, [(1, (0, 1, 0, 0))])
    g = from_terms(monoid, ring, [(1, (0, 0, 1, 0))])
    if (f * g).agree_on(g * f, 3):
        return "matrix-coefficient series failed to witness noncommutativity"
    from .monoids import free_words
    words = free_words("xy")
    fx = from_terms(words, IntRing(), [("x", 1)])
    fy = from_terms(words, IntRing(), [("y", 1)])
    if (fx * fy).agree_on(fy * fx, 2):
        return "free-word series failed to witness noncommutativity"
    return None


SUITES = [
    ("ring-axioms", suite_ring_axioms),
    ("poset-ops", suite_poset_ops),
    ("classification", suite_classification),
    ("decompose-oracle", suite_decompose_oracle),
    ("support-bounds", suite_bounds),
    ("series-ring-axioms", suite_series_ring_axioms),
    ("dirichlet", suite_dirichlet),
    ("puiseux", suite_puiseux),
    ("truncated", suite_truncated),
    ("category", suite_category),
    ("noncommutative", suite_noncommutative),
]


def run_selftest(seed: int = 0, emit=print) -> int:
    """Run every suite; returns the number of failing suites."""
    bad = 0
    for name, fn in SUITES:
        detail = fn(seed)
        if detail is None:
            emit(f"PASS {name}")
        else:
            emit(f"FAIL {name}: {detail}")
            bad += 1
    return bad
