"""The window path (``window_coeffs``, and so ``terms_on`` and ``render``)
against the lazy per-coefficient path and independent formulas."""

from math import comb

import pytest

from genseries import (catalog_monoids, from_terms, geometric, moebius, nat,
                       posnat_mul, truncated, zeta)
from genseries.cli import main

import oracles
from conftest import ALL_RINGS, random_series, ring_samples
from test_series import _symmetric_group_monoid


def lazy_window(series, region):
    """The reference: one ``coeff`` query per support element in the window."""
    return {m: series.coeff(m) for m in series.monoid.enumerate_desc(series.support, region)}


def assert_paths_agree(series, region):
    got = series.window_coeffs(region)
    want = lazy_window(series, region)
    assert list(got) == list(want)
    assert all(series.ring.eq(got[m], want[m]) for m in want), (got, want)


def random_expression(monoid, ring, rng, depth):
    """A random tree of sums, negations, differences and products."""
    if depth == 0 or rng.random() < 0.25:
        return random_series(monoid, ring, rng)
    op = rng.choice(["add", "sub", "neg", "mul", "mul"])
    f = random_expression(monoid, ring, rng, depth - 1)
    if op == "neg":
        return -f
    g = random_expression(monoid, ring, rng, depth - 1)
    return {"add": f + g, "sub": f - g, "mul": f * g}[op]


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
