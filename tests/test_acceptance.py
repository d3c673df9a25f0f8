"""Acceptance suite: one test per criterion, at full stated scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Every tolerance is exact equality -- all arithmetic
in the library is arbitrary-precision.
"""

import math
import random
from fractions import Fraction

from genseries import (ALL, GridTail, IntRing, Mat2Ring, TailGE,
                       catalog_monoids, classify_subset, finite, free_words,
                       from_terms, nat, posnat_mul, rational_grid, truncated,
                       unit_series, zeta, moebius)
from genseries.catalog import FiniteSet
from genseries.finspace import verification_sweep

import oracles
from conftest import ALL_RINGS, element_pool, random_descriptor, random_series


def _report(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


def _check_points(monoid, descriptors, cap, per=10):
    """A window closed under the product bounds: the carrier window plus
    enumerated members of every support descriptor in play."""
    pts = {x for x in monoid.window(3)}
    for desc in descriptors:
        pts.update(monoid.enumerate_desc(desc, cap)[:per])
    return sorted(pts, key=monoid.sort_key)


def _assert_agree(f, g, points):
    for m in points:
        assert f.ring.eq(f.coeff(m), g.coeff(m)), \
            f"coefficients differ at {m!r}: {f.coeff(m)!r} vs {g.coeff(m)!r}"


def test_criterion_1_ring_axioms_over_catalog():
    """100 randomized series triples per (monoid, ring) cell: associativity,
    distributivity, two-sided units, exact equality."""
    rng = random.Random(1)
    for monoid in catalog_monoids():
        cap = 3 if monoid.carrier.name == "free-words" else 5
        for ring in ALL_RINGS:
            e = unit_series(monoid, ring)
            for _ in range(100):
                f = random_series(monoid, ring, rng)
                g = random_series(monoid, ring, rng)
                h = random_series(monoid, ring, rng)
                fg, gh = f * g, g * h
                descs = [f.support, g.support, h.support, fg.support, gh.support,
                         (fg * h).support, monoid.mul_bound(f.support, gh.support)]
                pts = _check_points(monoid, descs, cap)
                _assert_agree((f * g) * h, f * (g * h), pts)
                _assert_agree(f * (g + h), f * g + f * h, pts)
                _assert_agree((f + g) * h, f * h + g * h, pts)
                _assert_agree(e * f, f, pts)
                _assert_agree(f * e, f, pts)
    _report(1, "ring axioms on 9 monoids x 4 rings x 100 triples")


def test_criterion_2_decomposition_oracle_equivalence():
    """decompose_within equals enumerate-and-filter brute force, 500 samples
    per catalog monoid; Puiseux lists exactly the progression on the common grid."""
    rng = random.Random(2)
    for monoid in catalog_monoids():
        pool = element_pool(monoid)
        for _ in range(500):
            s = random_descriptor(monoid, rng)
            t = random_descriptor(monoid, rng)
            m = rng.choice(pool)
            window = oracles.covering_window(monoid, m, s, t)
            got = monoid.decompose_within(m, s, t)
            assert got == oracles.brute_decompose(monoid, m, s, t, window)

    grid = rational_grid()
    checked = 0
    for _ in range(500):
        s = GridTail(rng.randint(-4, 4), rng.randint(1, 4))
        t = GridTail(rng.randint(-4, 4), rng.randint(1, 4))
        m = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        got = grid.decompose_within(m, s, t)
        c, p = m.numerator, m.denominator
        hi_num = s.n * t.n * c - t.a * s.n * p
        hi = hi_num // (t.n * p)
        for m1, _ in got:
            i = m1 * s.n
            assert i.denominator == 1 and s.a <= i.numerator <= hi
        rescanned = []
        for i in range(s.a, hi + 1):
            j = (m - Fraction(i, s.n)) * t.n
            if j.denominator == 1 and j.numerator >= t.a:
                rescanned.append((Fraction(i, s.n), Fraction(j.numerator, t.n)))
        assert sorted(rescanned) == got
        checked += 1
    assert checked == 500
    _report(2, "decomposition oracle equivalence + Puiseux index range")


def test_criterion_3_dirichlet_reproduction():
    """zeta*zeta is the divisor count and zeta*moebius is the unit, n <= 200,
    against an independently sieved Moebius function."""
    ring = IntRing()
    z = zeta(ring)
    zz = z * z
    for n in range(1, 201):
        assert zz.coeff(n) == oracles.divisor_count(n)
    sieve = oracles.moebius_sieve(200)
    mu = from_terms(posnat_mul(), ring,
                    [(n, sieve[n]) for n in range(1, 201) if sieve[n] != 0])
    zm = z * mu
    e = unit_series(posnat_mul(), ring)
    for n in range(1, 201):
        assert zm.coeff(n) == e.coeff(n)
    # the library's own builtin agrees with the sieve route
    builtin = moebius(ring, 200)
    for n in range(1, 201):
        assert builtin.coeff(n) == sieve[n]
    _report(3, "Dirichlet: zeta^2 = divisor count, zeta*moebius = unit, n <= 200")


def test_criterion_4_puiseux_support_law():
    """200 random tail pairs and a few with gcd(n, m) > 1: the bound is the
    tail on lcm(n, m) from the sum of the least points, and every sampled
    product lands in it."""
    rng = random.Random(4)
    grid = rational_grid()

    def check(a, n, b, m):
        bound = grid.mul_bound(GridTail(a, n), GridTail(b, m))
        g = math.lcm(n, m)
        assert bound == GridTail(a * (g // n) + b * (g // m), g)
        for _ in range(12):
            x = Fraction(a + rng.randint(0, 9), n)
            y = Fraction(b + rng.randint(0, 9), m)
            assert grid.member(bound, x + y)

    for _ in range(200):
        check(rng.randint(-6, 6), rng.randint(1, 5), rng.randint(-6, 6), rng.randint(1, 5))
    for pair in [(1, 4, -1, 6), (-3, 2, 2, 2), (2, 6, -5, 9), (0, 4, 3, 4)]:
        check(*pair)
    _report(4, "Puiseux support law on 200 random tail pairs")


def test_criterion_5_truncated_partial_ring():
    """Exhaustive associativity and distributivity over all monomial triples
    for every degree cap n <= 6, annihilated products included."""
    ring = IntRing()
    coeffs = [1, -2, 3]
    for degree in range(0, 7):
        monoid = truncated(degree)
        monomials = [from_terms(monoid, ring, [(a, coeffs[a % 3])])
                     for a in range(degree + 1)]
        zero = from_terms(monoid, ring, [])
        annihilated = 0
        for a in range(degree + 1):
            for b in range(degree + 1):
                for c in range(degree + 1):
                    f, g, h = monomials[a], monomials[b], monomials[c]
                    assert ((f * g) * h).agree_on(f * (g * h), degree)
                    assert (f * (g + h)).agree_on(f * g + f * h, degree)
                    if a + b > degree:
                        assert (f * g).agree_on(zero, degree)
                        annihilated += 1
        if degree < 6:
            assert annihilated > 0 or degree == 0
    _report(5, "truncated polynomial ring exhaustive for degree caps 0..6")


def test_criterion_6_category_verification():
    """Universal properties by counting every mediator of every cone of
    the one-point probe (composition is pointwise, so one point is
    enough): 500 seeded parallel pairs (equalizer + coequalizer), all
    space pairs <= 3 for products/coproducts, exact curry/uncurry counting
    <= 2, dual-operator laws over 200 sampled families with |X| <= 4."""
    failures, summary = verification_sweep(
        max_size=3, seed=0, parallel_samples=500,
        hom_size=2, perp_size=4, family_samples=200)
    assert failures == [], failures[:5]
    assert len(summary) == 5
    _report(6, "category verification sweep")


def test_criterion_7_classification_consistency():
    """Artinian+noetherian+narrow always implies finite across the catalog,
    and descriptor admission agrees with the artinian-and-narrow
    classification."""
    shapes = [finite(), finite([1]), ALL, GridTail(-2, 3), TailGE(-2)]
    checked = 0
    for monoid in catalog_monoids():
        pool = element_pool(monoid)
        local = shapes + [finite(pool[:3])]
        for desc in local:
            if isinstance(desc, FiniteSet) and not monoid.admits(desc):
                continue  # finite sets with foreign elements
            try:
                cls = classify_subset(monoid.carrier, desc)
            except Exception:
                assert not monoid.admits(desc)
                continue
            assert not (cls.artinian and cls.noetherian and cls.narrow
                        and not cls.finite)
            assert monoid.admits(desc) == (cls.artinian and cls.narrow)
            checked += 1
    assert checked >= 30
    _report(7, "classification consistency and admission agreement")


def test_criterion_8_noncommutative_witnesses():
    """Explicit f*g != g*f over matrix coefficients and over free words."""
    ring = Mat2Ring()
    monoid = nat()
    f = from_terms(monoid, ring, [(1, (0, 1, 0, 0))])
    g = from_terms(monoid, ring, [(1, (0, 0, 1, 0))])
    assert (f * g).coeff(2) == (1, 0, 0, 0)
    assert (g * f).coeff(2) == (0, 0, 0, 1)
    assert not (f * g).agree_on(g * f, 4)

    words = free_words("xy")
    fx = from_terms(words, IntRing(), [("x", 1)])
    fy = from_terms(words, IntRing(), [("y", 1)])
    assert (fx * fy).coeff("xy") == 1 and (fy * fx).coeff("xy") == 0
    assert not (fx * fy).agree_on(fy * fx, 2)
    _report(8, "noncommutative witnesses: matrices and free words")
