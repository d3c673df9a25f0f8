import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseries import (ALL, CarrierError, DescriptorError, GridTail, IntRing, TailGE,
                       catalog_monoids, classify_subset, finite, free_words, from_terms,
                       integers, integers_discrete, nat, nat_discrete,
                       posnat_div, posnat_mul, rational_grid, truncated, zeta)
from genseries import monoids
from genseries.catalog import carrier_from_spec
from genseries.rings import ring_from_spec

import oracles
from conftest import element_pool, random_descriptor


# ---------------------------------------------------------------------------
# multiplication


def test_truncated_partial_product():
    m = truncated(2)
    assert m.mul(1, 1) == 2
    assert m.mul(1, 2) is None
    with pytest.raises(CarrierError):
        m.mul(1, 3)


def test_word_concatenation():
    w = free_words("xy")
    assert w.mul("xy", "yx") == "xyyx"
    assert w.unit == ""


def test_rational_addition():
    rg = rational_grid()
    assert rg.mul(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_units_and_associativity_sampled(rng):
    for monoid in catalog_monoids():
        pool = monoid.window(3) if monoid.carrier.name == "free-words" else monoid.window(5)
        u = monoid.unit
        for x in pool:
            assert monoid.mul(u, x) == x
            assert monoid.mul(x, u) == x
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            ab = monoid.mul(a, b)
            bc = monoid.mul(b, c)
            left = monoid.mul(ab, c) if ab is not None else None
            right = monoid.mul(a, bc) if bc is not None else None
            assert left == right


def test_unchecked_product_agrees_with_mul():
    for monoid in catalog_monoids():
        pool = element_pool(monoid)
        for a in pool:
            for b in pool:
                assert monoid.product(a, b) == monoid.mul(a, b)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_additive_splits():
    assert nat().decompose_within(3, ALL, ALL) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_decompose_word_splits():
    w = free_words("xyz")
    got = w.decompose_within("xyz", ALL, ALL)
    assert got == [("", "xyz"), ("x", "yz"), ("xy", "z"), ("xyz", "")]
    assert len(got) == len("xyz") + 1


def test_decompose_divisor_pairs():
    got = posnat_mul().decompose_within(12, ALL, ALL)
    assert got == [(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)]


def test_decompose_puiseux_instance():
    # frozen from exhaustive search: i/2 + j/3 = 5/6 with i >= 1, j >= -1
    rg = rational_grid()
    got = rg.decompose_within(Fraction(5, 6), GridTail(1, 2), GridTail(-1, 3))
    assert got == [(Fraction(1, 2), Fraction(1, 3))]


def test_decompose_integer_tails():
    got = integers().decompose_within(0, TailGE(-2), TailGE(-1))
    assert got == [(-2, 2), (-1, 1), (0, 0), (1, -1)]


def test_decompose_respects_finite_membership():
    got = nat().decompose_within(3, finite([1, 2]), finite([1, 2]))
    assert got == [(1, 2), (2, 1)]


def test_decompose_rejects_inadmissible_descriptors():
    with pytest.raises(DescriptorError):
        nat_discrete().decompose_within(3, ALL, ALL)
    with pytest.raises(DescriptorError):
        posnat_div().decompose_within(12, ALL, finite([1]))
    with pytest.raises(DescriptorError):
        integers_discrete().decompose_within(0, TailGE(0), finite([0]))


def test_decompose_matches_brute_force(rng):
    from conftest import element_pool
    for monoid in catalog_monoids():
        pool = element_pool(monoid)
        for _ in range(60):
            s = random_descriptor(monoid, rng)
            t = random_descriptor(monoid, rng)
            m = rng.choice(pool)
            window = oracles.covering_window(monoid, m, s, t)
            assert monoid.decompose_within(m, s, t) == \
                oracles.brute_decompose(monoid, m, s, t, window)
    # one finite side on the additive naturals, with elements above m
    for monoid, elements in ((nat(), [0, 2, 5, 9]), (truncated(4), [1, 3, 4])):
        for s, t in ((finite(elements), ALL), (ALL, finite(elements))):
            for m in range(5):
                window = oracles.covering_window(monoid, m, s, t)
                assert monoid.decompose_within(m, s, t) == \
                    oracles.brute_decompose(monoid, m, s, t, window)


def _brute_tail_fiber(m, s, t):
    """Every (i/n, j/k) with i >= s.a, j >= t.a and i/n + j/k = m = p/q, by
    trying every offset pair up to a reach past |m| + |s.a| + |t.a|."""
    (a, n), (b, k), (p, q) = (s.a, s.n), (t.a, t.n), (m.numerator, m.denominator)
    reach = abs(p) // q + abs(a) + abs(b) + 1
    return sorted((Fraction(i, n), Fraction(j, k)) for i in range(a, reach * n + 1)
                  for j in range(b, reach * k + 1) if (i * k + j * n) * q == p * n * k)


def test_two_tail_fibers_are_the_brute_force_pairs(rng):
    """The fiber of two tails is every pair by enumeration, and the candidates
    are exactly that progression: on the integers (ints throughout) and on
    grids n, k <= 6, gcd(n, k) > 1 among them, with negative offsets and
    targets off the common grid, whose fibers are empty."""
    ints = integers()
    for a in range(-3, 3):
        for b in range(-3, 3):
            for m in range(-6, 7):
                s, t = TailGE(a), TailGE(b)
                got = ints.fiber(m, s, t)
                assert got == _brute_tail_fiber(m, s, t)
                assert sorted(ints._candidates(m, s, t)) == got
                assert all(type(x) is int and type(y) is int for x, y in got)
    grid = rational_grid()
    seen = {"shared factor": 0, "off the grid": 0}
    for _ in range(600):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        s, t = GridTail(rng.randint(-6, 6), n), GridTail(rng.randint(-6, 6), k)
        m = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        got = grid.fiber(m, s, t)
        assert got == _brute_tail_fiber(m, s, t), (m, s, t)
        assert sorted(grid._candidates(m, s, t)) == got
        assert all(type(x) is Fraction and type(y) is Fraction for x, y in got)
        if math.lcm(n, k) % m.denominator:
            assert got == []
            seen["off the grid"] += 1
        elif math.gcd(n, k) > 1 and got:
            seen["shared factor"] += 1
    assert min(seen.values()) > 40, seen


def test_posnat_fibers_over_a_finite_side_try_only_its_elements(monkeypatch):
    """A finite side lists the factors itself, so no divisor of m is tried:
    ``((1 + T^2) * zeta).coeff(10**12)`` tries 2 pairs, not 10**6 divisors."""
    def refuse(n):
        raise AssertionError(f"scanned the divisors of {n}")

    elements = [1, 2, 3, 5, 8, 12, 35]
    cases = [(posnat_mul(), finite(elements), ALL), (posnat_mul(), ALL, finite(elements)),
             (posnat_div(), finite(elements), finite([1, 4, 6, 7]))]
    for monoid, s, t in cases:
        for m in range(1, 50):
            want = oracles.brute_decompose(monoid, m, s, t,
                                           oracles.covering_window(monoid, m, s, t))
            with monkeypatch.context() as patch:
                patch.setattr(monoids, "_divisors", refuse)
                assert monoid.decompose_within(m, s, t) == want
    monkeypatch.setattr(monoids, "_divisors", refuse)
    R = IntRing()
    series = from_terms(posnat_mul(), R, [(1, 1), (2, 1)]) * zeta(R)
    assert series.coeff(10 ** 12) == 2
    assert (zeta(R) * from_terms(posnat_mul(), R, [(3, 1)])).coeff(10 ** 12) == 0


# ---------------------------------------------------------------------------
# support bounds


def test_grid_product_bound_formula():
    rg = rational_grid()
    assert rg.mul_bound(GridTail(1, 2), GridTail(-1, 3)) == GridTail(1, 6)


def test_finite_image_bound():
    bound = nat().mul_bound(finite([2, 3]), finite([10]))
    assert bound == finite([12, 13])


def test_truncated_all_bound():
    assert truncated(2).mul_bound(ALL, ALL) == ALL


def test_truncated_annihilation_gives_empty_bound():
    assert truncated(2).mul_bound(finite([1]), finite([2])) == finite()


def test_integer_tail_bounds():
    m = integers()
    assert m.mul_bound(TailGE(-2), TailGE(3)) == TailGE(1)
    assert m.mul_bound(finite([-5, 1]), TailGE(2)) == TailGE(-3)
    assert m.union_bound(TailGE(-2), finite([-7])) == TailGE(-7)


def test_union_bound_examples():
    rg = rational_grid()
    assert rg.union_bound(GridTail(1, 2), GridTail(1, 3)) == GridTail(2, 6)
    assert nat().union_bound(finite([1]), finite([2])) == finite([1, 2])
    assert nat().union_bound(ALL, finite([7])) == ALL


def test_union_bound_gridtail_contains_both_tails():
    rg = rational_grid()
    joined = rg.union_bound(GridTail(1, 2), GridTail(1, 3))
    for d in (GridTail(1, 2), GridTail(1, 3)):
        for x in rg.enumerate_desc(d, 4):
            assert rg.member(joined, x)


@settings(max_examples=80, deadline=None)
@given(st.integers(-4, 4), st.integers(1, 4), st.integers(-4, 4), st.integers(1, 4),
       st.integers(0, 6), st.integers(0, 6))
def test_grid_bounds_sound(a, n, b, m, i_off, j_off):
    rg = rational_grid()
    s, t = GridTail(a, n), GridTail(b, m)
    x = Fraction(a + i_off, n)
    y = Fraction(b + j_off, m)
    assert rg.member(rg.mul_bound(s, t), x + y)
    joined = rg.union_bound(s, t)
    assert rg.member(joined, x) and rg.member(joined, y)


def test_mul_bound_sound_on_samples(rng):
    for monoid in catalog_monoids():
        for _ in range(30):
            s = random_descriptor(monoid, rng)
            t = random_descriptor(monoid, rng)
            bound = monoid.mul_bound(s, t)
            for x in monoid.enumerate_desc(s, 5)[:6]:
                for y in monoid.enumerate_desc(t, 5)[:6]:
                    product = monoid.mul(x, y)
                    if product is not None:
                        assert monoid.member(bound, product)


def test_union_bound_sound_on_samples(rng):
    for monoid in catalog_monoids():
        for _ in range(30):
            s = random_descriptor(monoid, rng)
            t = random_descriptor(monoid, rng)
            joined = monoid.union_bound(s, t)
            for d in (s, t):
                for x in monoid.enumerate_desc(d, 5)[:8]:
                    assert monoid.member(joined, x)


# ---------------------------------------------------------------------------
# enumeration and admission


def test_enumerate_examples():
    assert nat().enumerate_desc(ALL, 3) == [0, 1, 2, 3]
    rg = rational_grid()
    assert rg.enumerate_desc(GridTail(-1, 2), 1) == \
        [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    assert free_words("xy").enumerate_desc(ALL, 1) == ["", "x", "y"]
    assert rg.window(2) == [Fraction(k, 2) for k in range(-4, 5)]
    # an alphabet out of order: the window is still in shortlex order
    assert free_words("yx").window(2) == ["", "x", "y", "xx", "xy", "yx", "yy"]
    assert truncated(2).window(5) == [0, 1, 2]
    assert posnat_div().window(3) == [1, 2, 3]
    assert integers_discrete().window(1) == [-1, 0, 1]


def test_rational_grid_window_is_the_sorted_set_of_bounded_fractions():
    # every p/q with 1 <= q <= max(r, 1) and |p/q| <= r, collected and sorted
    def sorted_set(region):
        return sorted({Fraction(num, den) for den in range(1, max(region, 1) + 1)
                       for num in range(-region * den, region * den + 1)})

    for region in range(13):
        assert rational_grid().window(region) == sorted_set(region)


def test_enumerate_tail_and_finite():
    assert integers().enumerate_desc(TailGE(-2), 2) == [-2, -1, 0, 1, 2]
    assert nat().enumerate_desc(finite([5, 1, 9]), 6) == [1, 5]


def test_admission_agrees_with_classification():
    shapes = [finite(), ALL, GridTail(-1, 2), TailGE(0)]
    for monoid in catalog_monoids():
        for desc in shapes:
            try:
                cls = classify_subset(monoid.carrier, desc)
            except DescriptorError:
                assert not monoid.admits(desc)
                continue
            assert monoid.admits(desc) == (cls.artinian and cls.narrow)


def test_admission_per_carrier_table():
    assert nat().admits(ALL)
    assert posnat_mul().admits(ALL)
    assert free_words("ab").admits(ALL)
    assert truncated(3).admits(ALL)
    assert not nat_discrete().admits(ALL)
    assert not integers_discrete().admits(ALL)
    assert not posnat_div().admits(ALL)
    assert not rational_grid().admits(ALL)
    assert not integers().admits(ALL)
    assert integers().admits(TailGE(-3))
    assert rational_grid().admits(GridTail(0, 4))
    assert not nat().admits(TailGE(0))
    for monoid in catalog_monoids():
        assert monoid.admits(finite())


def test_finite_descriptor_elements_are_validated():
    assert not nat().admits(finite([-1]))
    assert not free_words("xy").admits(finite(["xz"]))


def test_member_checks():
    rg = rational_grid()
    assert rg.member(GridTail(-1, 2), Fraction(3, 2))
    assert not rg.member(GridTail(-1, 2), Fraction(1, 3))
    assert not rg.member(GridTail(2, 2), Fraction(1, 2))
    assert integers().member(TailGE(-1), 100)
    assert not integers().member(TailGE(-1), -2)
    with pytest.raises(CarrierError):  # the element is checked, not only the set
        nat().member(ALL, -1)


def test_truncated_partial_associativity_exhaustive():
    # both-undefined-or-both-equal, all triples, every degree cap up to 6
    for degree in range(7):
        m = truncated(degree)
        pts = range(degree + 1)
        for a in pts:
            for b in pts:
                for c in pts:
                    ab = m.mul(a, b)
                    bc = m.mul(b, c)
                    left = m.mul(ab, c) if ab is not None else None
                    right = m.mul(a, bc) if bc is not None else None
                    assert left == right


def test_named_specs_read_as_one_shared_instance():
    assert monoids.monoid_from_spec("nat") is nat()
    assert monoids.monoid_from_spec("posnat-mul") is monoids.posnat_mul()
    assert monoids.monoid_from_spec({"trunc": 3}) is monoids.truncated(3)
    assert monoids.monoid_from_spec({"words": "xy"}) is monoids.free_words(["x", "y"])
    for name in ("int", "rational", "mat2"):
        assert ring_from_spec(name) is ring_from_spec(name)
    assert carrier_from_spec("int") is carrier_from_spec("int")
