from fractions import Fraction

import pytest

from genseries import (ALL, DescriptorError, FinitePomonoid, FinitePoset, GridTail,
                       InputError, IntRing, Mat2Ring, Monoid, RationalRing, SizeBoundError,
                       TailGE, finite, free_words, from_function, from_terms, geometric,
                       integers, moebius, nat, nat_discrete, posnat_mul, rational_grid,
                       truncated, unit_series, zero_series, zeta)
from genseries.cli import eval_expression

import oracles

R = IntRing()


# ---------------------------------------------------------------------------
# construction


def test_zero_series_has_empty_support():
    z = zero_series(nat(), R)
    assert z.support == finite()
    assert z.render(5) == "0"
    assert z.coeff(3) == 0


def test_from_terms_drops_zeros_and_rejects_duplicates():
    f = from_terms(nat(), R, [(0, 1), (1, -1), (2, 0)])
    assert f.support == finite([0, 1])
    with pytest.raises(InputError):
        from_terms(nat(), R, [(1, 1), (1, 2)])
    with pytest.raises(InputError):
        from_terms(nat(), R, [(1, 0), (1, 2)])  # dropped zero still claims the slot


def test_truncated_monomial():
    f = from_terms(truncated(2), R, [(2, 5)])
    assert f.coeff(2) == 5 and f.coeff(1) == 0
    assert f.render(2) == "5·T^2"


def test_unit_series_across_carriers():
    assert unit_series(nat(), R).coeff(0) == 1
    e = unit_series(posnat_mul(), R)
    assert e.coeff(1) == 1 and e.coeff(2) == 0
    w = unit_series(free_words("xy"), R)
    assert w.coeff("") == 1 and w.coeff("x") == 0


# ---------------------------------------------------------------------------
# addition


def test_additive_group_on_queries(rng):
    from conftest import random_series
    for _ in range(15):
        f = random_series(nat(), R, rng)
        z = zero_series(nat(), R)
        assert (f + z).agree_on(f, 8)
        assert (f + (-f)).agree_on(z, 8)
    one = from_terms(nat(), R, [(0, 1), (1, -1)])
    t = from_terms(nat(), R, [(1, 1)])
    assert (one + t).agree_on(unit_series(nat(), R), 10)


def test_sub_is_add_neg():
    f = from_terms(nat(), R, [(0, 3), (2, 5)])
    g = from_terms(nat(), R, [(2, 5)])
    assert (f - g).agree_on(from_terms(nat(), R, [(0, 3)]), 6)


def test_mismatched_series_rejected():
    with pytest.raises(InputError):
        from_terms(nat(), R, []).add(from_terms(integers(), R, []))
    with pytest.raises(InputError):
        from_terms(nat(), R, []).add(from_terms(nat(), Mat2Ring(), []))


# ---------------------------------------------------------------------------
# convolution


def test_geometric_squared_coefficient():
    g = geometric(R)
    got = (g * g).coeff(5)
    assert got == oracles.geometric_power_coeff(2, 5) == 6


def test_dirichlet_divisor_count():
    z = zeta(R)
    assert (z * z).coeff(6) == oracles.divisor_count(6) == 4


def test_dirichlet_triple_convolution():
    z = zeta(R)
    assert (z * z * z).coeff(4) == oracles.ordered_factorizations(4, 3) == 6


def test_truncated_annihilation():
    m = truncated(2)
    t1 = from_terms(m, R, [(1, 1)])
    t2 = from_terms(m, R, [(2, 1)])
    product = t1 * t2
    assert product.agree_on(zero_series(m, R), 2)
    assert product.support == finite()


def test_word_supports_do_not_commute():
    w = free_words("xy")
    fx = from_terms(w, R, [("x", 1)])
    fy = from_terms(w, R, [("y", 1)])
    assert (fx * fy).coeff("xy") == 1 and (fx * fy).coeff("yx") == 0
    assert (fy * fx).coeff("yx") == 1 and (fy * fx).coeff("xy") == 0
    assert (fx * fy).support == finite(["xy"])
    assert (fy * fx).support == finite(["yx"])


def test_matrix_coefficients_do_not_commute():
    ring = Mat2Ring()
    f = from_terms(nat(), ring, [(1, (0, 1, 0, 0))])
    g = from_terms(nat(), ring, [(1, (0, 0, 1, 0))])
    assert (f * g).coeff(2) == (1, 0, 0, 0)
    assert (g * f).coeff(2) == (0, 0, 0, 1)
    assert not (f * g).agree_on(g * f, 3)


def test_telescoping_geometric_inverse():
    one_minus_t = from_terms(nat(), R, [(0, 1), (1, -1)])
    assert (one_minus_t * geometric(R)).agree_on(unit_series(nat(), R), 50)


def test_moebius_inverts_zeta():
    z = zeta(R)
    mu = moebius(R, 200)
    e = unit_series(posnat_mul(), R)
    sieve = oracles.moebius_sieve(200)
    for n in range(1, 201):
        assert mu.coeff(n) == sieve[n]
    assert (z * mu).agree_on(e, 200)


def test_moebius_errors_beyond_declared_bound():
    mu = moebius(R, 10)
    assert mu.coeff(10) == 1
    with pytest.raises(SizeBoundError):
        mu.coeff(11)


def test_puiseux_product_lands_on_refined_grid():
    rg = rational_grid()
    ring = IntRing()
    f = from_function(rg, ring, GridTail(1, 2), lambda m: 1)
    g = from_function(rg, ring, GridTail(-1, 3), lambda m: 1)
    fg = f * g
    assert fg.support == GridTail(1, 6)
    # coefficient at 5/6 counts the single split (1/2, 1/3)
    assert fg.coeff(Fraction(5, 6)) == 1


# ---------------------------------------------------------------------------
# support soundness and memoization


def test_support_soundness_on_windows(rng):
    from conftest import random_series
    for monoid in (nat(), integers(), posnat_mul(), rational_grid()):
        for _ in range(10):
            f = random_series(monoid, R, rng)
            g = random_series(monoid, R, rng)
            h = f * g + f
            for m in monoid.window(4):
                if h.coeff(m) != 0:
                    assert monoid.member(h.support, m)


def test_memoization_is_observationally_pure():
    calls = []

    def fn(m):
        calls.append(m)
        return 1

    f = from_function(nat(), R, ALL, fn)
    assert f.coeff(3) == f.coeff(3) == 1
    assert calls == [3]


def test_finite_function_series_is_read_once_per_member():
    calls = []

    def fn(m):
        calls.append(m)
        return m - 1

    f = from_function(nat(), R, finite([1, 3]), fn)
    assert sorted(calls) == [1, 3]
    assert f.support == finite([1, 3])  # the zero value at 1 keeps its key
    assert [f.coeff(m) for m in range(5)] == [0, 0, 0, 2, 0]
    assert (f * f).support == finite([2, 4, 6]) and (f * f).coeff(6) == 4
    assert sorted(calls) == [1, 3]


@pytest.mark.parametrize("monoid, support", [
    (nat_discrete(), ALL), (integers(), GridTail(0, 1)), (rational_grid(), TailGE(0)),
], ids=["nat-discrete-all", "int-gridtail", "rational-grid-tailge"])
def test_from_function_refuses_an_inadmissible_infinite_support(monoid, support):
    calls = []

    def fn(m):
        calls.append(m)
        return 1

    with pytest.raises(DescriptorError):
        from_function(monoid, R, support, fn)
    assert calls == []


def test_series_arithmetic_admits_no_support_the_library_derived(monkeypatch):
    """Builtins are leaves on ALL and sums and products bound their operands'
    supports unchecked, so building an expression admits nothing."""
    def refuse(self, desc):
        raise AssertionError(f"re-admitted {desc!r}")

    monkeypatch.setattr(Monoid, "require_admitted", refuse)
    series = eval_expression("geometric * geometric + 1 - T", nat(), R, 3)
    assert series.support == ALL
    assert series.render(3) == "2 + 1·T^1 + 3·T^2 + 4·T^3"


def test_evaluation_admits_no_support_again(monkeypatch):
    """The evaluator decomposes its points with the trusted ``fiber``: a
    window of a product with a finite factor, on carriers whose products
    run one fiber per point, admits no descriptor."""
    def refuse(self, desc):
        raise AssertionError(f"re-admitted {desc!r}")

    series = [from_terms(nat(), R, [(0, 1), (1, 1), (2, 1)]) * geometric(R),
              from_terms(posnat_mul(), R, [(2, 1), (3, -1)]) * zeta(R),
              from_function(integers(), R, TailGE(-2), lambda m: m)
              * from_terms(integers(), R, [(-1, 1), (3, 2)]),
              from_function(free_words("xy"), R, ALL, len) * from_terms(free_words("xy"), R,
                                                                         [("x", 1), ("", 1)])]
    monkeypatch.setattr(Monoid, "require_admitted", refuse)
    assert list(series[0].window_coeffs(200).values()) == [1, 2] + [3] * 199
    assert series[1].window_coeffs(12) == {m: (m % 2 == 0) - (m % 3 == 0)
                                           for m in range(1, 13)}
    assert series[2].window_coeffs(3) == {m: (m + 1) + 2 * (m - 3) * (m >= 1)
                                          for m in range(-3, 4)}
    assert series[3].coeff("xy") == 2 and series[3].coeff("yx") == 3


def test_coeff_validates_elements():
    with pytest.raises(Exception):
        geometric(R).coeff(-1)


def test_agree_on_is_reflexive():
    g = geometric(R)
    assert g.agree_on(g, 10)


def test_agree_on_and_is_zero_on_see_the_points_render_shows():
    # 1/7 has a denominator above the window, yet render shows it
    grid, Q = rational_grid(), RationalRing()
    f = from_terms(grid, Q, [(Fraction(1, 7), 1)])
    zero = zero_series(grid, Q)
    assert f.render(3) == "1·T^(1/7)"
    assert not f.is_zero_on(3)
    assert not f.agree_on(zero, 3) and not zero.agree_on(f, 3)
    tail = from_function(grid, Q, GridTail(1, 7), lambda q: Fraction(1))
    assert not tail.is_zero_on(1) and not tail.agree_on(zero, 1)
    assert tail.agree_on(tail + zero, 1) and (tail - tail).is_zero_on(1)
    assert f.agree_on(f + zero, 3) and not f.agree_on(-f, 3)


# ---------------------------------------------------------------------------
# rendering


def test_render_pinned_forms():
    assert zero_series(nat(), R).render(5) == "0"
    f = from_terms(nat(), R, [(0, 1), (1, -1)])
    assert f.render(3) == "1 + (-1)·T^1"


def test_render_orders_rational_exponents():
    rg = rational_grid()
    f = from_terms(rg, IntRing(), [(Fraction(1, 2), 1), (Fraction(1, 3), 1)])
    text = f.render(1)
    assert text.index("1/3") < text.index("1/2")
    assert text == "1·T^(1/3) + 1·T^(1/2)"


def test_render_laurent_exponents():
    f = from_terms(integers(), R, [(-2, 3), (0, 1)])
    assert f.render(4) == "3·T^(-2) + 1"


# ---------------------------------------------------------------------------
# strictness necessity: what the partial formulation buys
#
# Capping total addition at the degree bound is order-preserving but not
# strict, and on the infinite carrier the cap point has unboundedly many
# decompositions, so convolution of full-support series is not even
# well-defined there.  The partial formulation (product undefined past the
# cap) keeps every decomposition set finite and the ring exact.  On the
# finite carrier {0..n} the capped variant does stay associative -- both
# operations are total and associative there -- but it computes a different
# ring than degree-capped polynomial multiplication.


def capped(a, b, cap):
    return min(a + b, cap)


def test_capped_addition_fails_strictness_witness():
    assert capped(2, 1, 3) == capped(3, 1, 3) == 3  # 2 < 3 collapses


def test_capped_addition_has_infinite_decompositions_at_the_cap():
    cap = 3
    counts = [sum(1 for a in range(w) for b in range(w) if capped(a, b, cap) == cap)
              for w in (5, 10, 20)]
    assert counts[0] < counts[1] < counts[2]  # grows with the window: not finite
    # whereas the partial formulation is window-stable
    m = truncated(cap)
    assert len(m.decompose_within(cap, ALL, ALL)) == cap + 1


def test_capped_convolution_differs_from_truncated_ring():
    # capped product on {0,1}: T*T lands back on T; the partial ring kills it
    f = {1: 1}
    capped_product = {}
    for a, ca in f.items():
        for b, cb in f.items():
            k = capped(a, b, 1)
            capped_product[k] = capped_product.get(k, 0) + ca * cb
    assert capped_product == {1: 1}
    m = truncated(1)
    t = from_terms(m, R, [(1, 1)])
    assert (t * t).agree_on(zero_series(m, R), 1)


def test_capped_pomonoid_rejected_but_convolution_on_finite_carrier_associative():
    # the embedding refuses the non-strict table...
    p = FinitePoset.from_le(list(range(4)), lambda a, b: a <= b)
    table = tuple(tuple(capped(i, j, 3) for j in range(4)) for i in range(4))
    pomonoid = FinitePomonoid(p, table, 0)
    from genseries import StrictnessError, embed_finite_pomonoid, is_strict_pomonoid
    assert not is_strict_pomonoid(pomonoid)
    with pytest.raises(StrictnessError):
        embed_finite_pomonoid(pomonoid)
    # ...even though on the finite carrier the capped convolution is a ring:
    # total associative operations always convolve associatively
    def conv(f, g):
        out = {}
        for a, ca in f.items():
            for b, cb in g.items():
                k = capped(a, b, 3)
                out[k] = out.get(k, 0) + ca * cb
        return out
    fs = [{0: 1, 3: 2}, {1: 5}, {2: -1, 1: 1}]
    for f in fs:
        for g in fs:
            for h in fs:
                assert conv(conv(f, g), h) == conv(f, conv(g, h))


# ---------------------------------------------------------------------------
# commutativity where expected


def test_commutative_data_gives_commutative_products(rng):
    from conftest import random_series
    for monoid in (nat(), posnat_mul(), rational_grid(), truncated(3)):
        for _ in range(8):
            f = random_series(monoid, R, rng)
            g = random_series(monoid, R, rng)
            assert (f * g).agree_on(g * f, 4)


def test_concurrent_coefficient_queries_are_consistent():
    # memo fill is idempotent: racing readers may duplicate work but must
    # never observe torn or differing values
    import threading

    calls = []

    def slow_fn(m):
        calls.append(m)
        return m * m + 1

    f = from_function(nat(), R, ALL, slow_fn)
    results = {}
    errors = []

    def reader(tag):
        try:
            results[tag] = [f.coeff(m) for m in range(40)]
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    expected = [m * m + 1 for m in range(40)]
    assert all(vals == expected for vals in results.values())


def test_additive_group_axioms_on_windows(rng):
    from conftest import random_series
    for monoid in (nat(), integers(), rational_grid()):
        for _ in range(10):
            f = random_series(monoid, R, rng)
            g = random_series(monoid, R, rng)
            h = random_series(monoid, R, rng)
            assert (f + g).agree_on(g + f, 4)
            assert ((f + g) + h).agree_on(f + (g + h), 4)


def _symmetric_group_monoid():
    # S3 with the discrete order: strict vacuously, noncommutative
    import itertools as it
    perms = sorted(it.permutations(range(3)))
    labels = ["".join(str(i) for i in p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    poset = FinitePoset.build(labels, [[i == j for j in range(6)] for i in range(6)])
    cayley = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    unit = index[(0, 1, 2)]
    from genseries import embed_finite_pomonoid
    return embed_finite_pomonoid(FinitePomonoid(poset, cayley, unit)), labels


def test_series_over_embedded_symmetric_group(rng):
    monoid, labels = _symmetric_group_monoid()
    everything = finite(labels)

    def rand_series():
        picks = rng.sample(labels, rng.randint(0, 3))
        return from_terms(monoid, R, [(m, rng.randint(-4, 4)) for m in picks])

    e = from_terms(monoid, R, [(monoid.unit, 1)])
    for _ in range(25):
        f, g, h = rand_series(), rand_series(), rand_series()
        assert ((f * g) * h).agree_on(f * (g * h), 0)
        assert (f * (g + h)).agree_on(f * g + f * h, 0)
        assert (e * f).agree_on(f, 0) and (f * e).agree_on(f, 0)
        # independent oracle: dict convolution straight off the table
        expected = {}
        for a in labels:
            for b in labels:
                expected[monoid.mul(a, b)] = (
                    expected.get(monoid.mul(a, b), 0) + f.coeff(a) * g.coeff(b))
        for m in labels:
            assert (f * g).coeff(m) == expected.get(m, 0)


def test_embedded_group_convolution_is_noncommutative():
    monoid, labels = _symmetric_group_monoid()
    swap01, cycle = "102", "120"
    assert monoid.mul(swap01, cycle) != monoid.mul(cycle, swap01)
    f = from_terms(monoid, R, [(swap01, 1)])
    g = from_terms(monoid, R, [(cycle, 1)])
    assert not (f * g).agree_on(g * f, 0)
