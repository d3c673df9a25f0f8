"""Coefficients of built series -- through ``window_coeffs`` (and so
``terms_on`` and ``render``) and through single ``coeff`` queries -- against
a brute-force reference and independent formulas."""

import math
import operator
from fractions import Fraction
from functools import reduce
from math import comb

import pytest

from genseries import (ALL, GridTail, IntRing, TailGE, catalog_monoids,
                       from_function, from_terms, geometric, moebius, nat,
                       posnat_mul, truncated, zeta)
from genseries.cli import main

import oracles
from conftest import ALL_RINGS, random_series, ring_samples
from test_series import _symmetric_group_monoid


def lazy_window(series, region):
    """One ``coeff`` query per support element in the window: each a single
    query of its own, reusing the memo the ones before it filled."""
    return {m: series.coeff(m) for m in series.monoid.enumerate_desc(series.support, region)}


def assert_paths_agree(series, region):
    got = series.window_coeffs(region)
    want = lazy_window(series, region)
    assert list(got) == list(want)
    assert all(series.ring.eq(got[m], want[m]) for m in want), (got, want)


def random_tree(monoid, ring, rng, depth):
    """A random expression tree of sums, negations, differences and products:
    ("leaf", series), ("neg", tree) or (op, tree, tree)."""
    if depth == 0 or rng.random() < 0.25:
        return ("leaf", random_series(monoid, ring, rng))
    op = rng.choice(["add", "sub", "neg", "mul", "mul"])
    f = random_tree(monoid, ring, rng, depth - 1)
    if op == "neg":
        return ("neg", f)
    return (op, f, random_tree(monoid, ring, rng, depth - 1))


def build(tree):
    """A fresh series for the tree; only the leaves are shared."""
    op, *args = tree
    if op == "leaf":
        return args[0]
    operands = [build(t) for t in args]
    return {"neg": operator.neg, "add": operator.add, "sub": operator.sub,
            "mul": operator.mul}[op](*operands)


def random_expression(monoid, ring, rng, depth):
    return build(random_tree(monoid, ring, rng, depth))


# ---------------------------------------------------------------------------
# the brute-force reference
#
# It reads the leaves through ``coeff`` and does everything else itself: every
# node of the tree is tabulated as {element: coefficient}, and a product
# crosses its factors' tables through ``monoid.mul``.  It never calls
# ``decompose_within`` or a product's ``coeff``.


def lower(tree):
    """A lower bound of the tree's support on the integers or the rational
    grid, None if it is empty."""
    op, *args = tree
    if op == "leaf":
        desc = args[0].support
        if isinstance(desc, TailGE):
            return desc.a
        if isinstance(desc, GridTail):
            return Fraction(desc.a, desc.n)
        return min(desc.elements, default=None)
    lows = [lower(t) for t in args]
    if op == "mul":
        return None if None in lows else lows[0] + lows[1]
    return min((v for v in lows if v is not None), default=None)


def tabulate(tree, monoid, ring, region, hi=None):
    """The tree's coefficients at every support element of the window
    (hi None) or, on the integers and the rational grid, at every one up to
    hi.

    Windows of the other carriers hold every factor of their elements.  On
    the integers and the rational grid a factor can exceed the product, so a
    factor's table reaches up to hi minus the other factor's lower bound."""
    op, *args = tree
    if op == "leaf":
        series, low = args[0], lower(tree) if hi is not None else None
        if hi is None:
            elements = monoid.enumerate_desc(series.support, region)
        elif low is None:
            elements = []
        else:
            reach = max(0, math.ceil(hi), math.ceil(-low))
            elements = [m for m in monoid.enumerate_desc(series.support, reach) if m <= hi]
        return {m: series.coeff(m) for m in elements}
    if op == "neg":
        return {m: ring.neg(c) for m, c in tabulate(args[0], monoid, ring, region, hi).items()}
    f, g = args
    if op in ("add", "sub"):
        out = tabulate(f, monoid, ring, region, hi)
        for m, c in tabulate(g, monoid, ring, region, hi).items():
            c = ring.neg(c) if op == "sub" else c
            out[m] = ring.add(out[m], c) if m in out else c
        return out
    if hi is None:
        keep, hf, hg = set(monoid.window(region)).__contains__, None, None
    else:
        lf, lg = lower(f), lower(g)
        if lf is None or lg is None:
            return {}
        keep, hf, hg = (lambda m: m <= hi), hi - lg, hi - lf
    out = {}
    for a, x in tabulate(f, monoid, ring, region, hf).items():
        for b, y in tabulate(g, monoid, ring, region, hg).items():
            m = monoid.mul(a, b)
            if m is not None and keep(m):
                out[m] = ring.add(out.get(m, ring.zero), ring.mul(x, y))
    return out


def reference(tree, monoid, ring, region):
    """The tree's coefficient as a function of the elements in the window."""
    additive = monoid.carrier.name in ("int", "int-discrete", "rational-grid")
    table = tabulate(tree, monoid, ring, region, region if additive else None)
    return lambda m: table.get(m, ring.zero)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", catalog_monoids(), ids=lambda m: m.describe())
def test_coefficients_match_the_brute_force_reference(monoid, ring, rng):
    for _ in range(8):
        tree = random_tree(monoid, ring, rng, depth=3)
        region = rng.choice([0, 1, 3])
        want = reference(tree, monoid, ring, region)
        got = build(tree).window_coeffs(region)
        assert all(ring.eq(c, want(m)) for m, c in got.items())
        points = monoid.window(region)
        assert all(m in got for m in points if not ring.is_zero(want(m)))
        fresh = build(tree)  # a new memo: single queries, not the window's values
        assert all(ring.eq(fresh.coeff(m), want(m)) for m in points)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", catalog_monoids(), ids=lambda m: m.describe())
def test_window_path_equals_lazy_path(monoid, ring, rng):
    for _ in range(12):
        series = random_expression(monoid, ring, rng, depth=3)
        assert_paths_agree(series, rng.choice([0, 1, 3]))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
def test_window_path_with_builtins(ring, rng):
    # windows as small as the finite operands' terms, so that terms land on
    # the window's last element
    g = geometric(ring)
    for _ in range(10):
        f = random_expression(nat(), ring, rng, depth=2)
        assert_paths_agree(g * f - f * g * g, rng.randint(0, 7))
        assert_paths_agree(-(f + g) * (g + f), rng.randint(0, 7))
    z, mu = zeta(ring), moebius(ring, 40)
    for _ in range(10):
        f = random_expression(posnat_mul(), ring, rng, depth=2)
        assert_paths_agree(z * f + mu * z * f, rng.randint(0, 13))
        assert_paths_agree(-(f * mu) + z, 40)


def test_truncated_window_beyond_the_degree(rng):
    monoid = truncated(4)
    for ring in ALL_RINGS:
        for _ in range(8):
            series = random_expression(monoid, ring, rng, depth=3)
            assert_paths_agree(series, 9)


def test_window_path_on_an_embedded_group(rng):
    # S3 with the discrete order: a finite noncommutative table monoid
    monoid, labels = _symmetric_group_monoid()
    for ring in ALL_RINGS:
        def rand():
            picks = rng.sample(labels, rng.randint(0, 4))
            return from_terms(monoid, ring, list(zip(picks, ring_samples(ring, rng, 4))))
        for _ in range(8):
            f, g, h = rand(), rand(), rand()
            assert_paths_agree(f * g - h * (f + g), 0)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
def test_geometric_powers_are_binomials(ring):
    for k in range(1, 6):
        series = geometric(ring)
        for _ in range(k - 1):
            series = series * geometric(ring)
        got = series.window_coeffs(30)
        assert list(got) == list(range(31))
        for m, c in got.items():
            assert ring.eq(c, ring.from_int(comb(m + k - 1, k - 1)))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
def test_dirichlet_powers_and_inversion(ring):
    n_max = 60
    for k in range(1, 5):
        series = zeta(ring)
        for _ in range(k - 1):
            series = series * zeta(ring)
        got = series.window_coeffs(n_max)
        for n in range(1, n_max + 1):
            assert ring.eq(got[n], ring.from_int(oracles.ordered_factorizations(n, k)))
    unit = (zeta(ring) * moebius(ring, n_max)).window_coeffs(n_max)
    assert all(ring.eq(unit[n], ring.from_int(int(n == 1))) for n in range(1, n_max + 1))
    mu = oracles.moebius_sieve(n_max)
    got = moebius(ring, n_max).window_coeffs(n_max)
    assert all(ring.eq(got[n], ring.from_int(mu[n])) for n in range(1, n_max + 1))


def test_long_product_chain_renders_without_recursion(capsys):
    chain = " * ".join(["geometric"] * 600)
    code = main(["series-eval", "--monoid", "nat", "--ring", "int", "--expr", chain,
                 "--window", "3"])
    out = capsys.readouterr().out
    assert code == 0
    values = [comb(m + 599, 599) for m in range(4)]
    assert out == " + ".join(str(c) if m == 0 else f"{c}·T^{m}"
                             for m, c in enumerate(values)) + "\n"


@pytest.mark.parametrize("k", [600, 2000])
def test_long_chains_answer_single_queries(k):
    series = reduce(operator.mul, [geometric(IntRing()) for _ in range(k)])
    assert [series.coeff(m) for m in (3, 0, 2)] == [comb(m + k - 1, k - 1) for m in (3, 0, 2)]


def test_single_queries_read_their_operands_only_on_fibers():
    R = IntRing()

    def counted(reads):
        return lambda m: reads.append(m) or 1

    reads = []
    f = from_function(posnat_mul(), R, ALL, counted(reads))
    assert (f * zeta(R)).coeff(5040) == len(oracles.divisors(5040))
    assert sorted(reads) == oracles.divisors(5040)
    reads = []
    f = from_function(nat(), R, ALL, counted(reads))
    assert (f * from_terms(nat(), R, [(0, 1), (5, 2)])).coeff(10 ** 5) == 3
    assert sorted(reads) == [10 ** 5 - 5, 10 ** 5]
