"""Coefficients of built series -- through ``window_coeffs`` (and so
``terms_on`` and ``render``) and through single ``coeff`` queries -- against
a brute-force reference and independent formulas."""

import math
import operator
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseries import (ALL, GridTail, InputError, IntRing, Mat2Ring, ModRing, RationalRing,
                       TailGE, catalog_monoids, finite, free_words, from_function, from_terms,
                       geometric, integers, moebius, nat, posnat_mul, rational_grid,
                       truncated, zeta)
from genseries import monoids
from genseries.cli import eval_expression, main
from genseries.series import _convolve, _post_order, power

import oracles
from conftest import ALL_RINGS, element_pool, random_series, ring_samples
from genseries.selftest import lazy_support
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


def random_tree(monoid, ring, rng, depth, leaf=random_series):
    """A random expression tree of sums, negations, differences and products:
    ("leaf", series), ("neg", tree) or (op, tree, tree), with leaves from
    leaf(monoid, ring, rng)."""
    if depth == 0 or rng.random() < 0.25:
        return ("leaf", leaf(monoid, ring, rng))
    op = rng.choice(["add", "sub", "neg", "mul", "mul"])
    f = random_tree(monoid, ring, rng, depth - 1, leaf)
    if op == "neg":
        return ("neg", f)
    return (op, f, random_tree(monoid, ring, rng, depth - 1, leaf))


def build(tree, built=None):
    """A fresh series for the tree; only the leaves are shared, and a
    subtree object that occurs twice in the tree is one series."""
    built = {} if built is None else built  # by id: the tree outlives the call
    if id(tree) not in built:
        op, *args = tree
        built[id(tree)] = args[0] if op == "leaf" else {
            "neg": operator.neg, "add": operator.add, "sub": operator.sub,
            "mul": operator.mul}[op](*(build(t, built) for t in args))
    return built[id(tree)]


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


def noncommuting_leaf(monoid, ring, rng):
    """``random_series``, but on mat2 over a carrier with an infinite support
    a lazy series whose values are whole random matrices, which do not
    commute (``random_series``'s lazy matrices are scalar)."""
    support = lazy_support(monoid, rng) if isinstance(ring, Mat2Ring) else None
    if support is None:
        return random_series(monoid, ring, rng)
    salt = rng.randint(0, 10 ** 6)
    return from_function(monoid, ring, support, lambda m: ring_samples(
        ring, random.Random(f"{salt}/{m!r}"), 1)[0])


# windows past the packing threshold where a list kernel runs, small elsewhere
WIDE = {"nat": 40, "nat-discrete": 40, "posnat-mul": 40, "posnat-div": 40, "int": 12,
        "int-discrete": 12}


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", catalog_monoids(), ids=lambda m: m.describe())
def test_wide_windows_match_the_brute_force_reference(monoid, ring, rng):
    region = WIDE.get(monoid.carrier.name, 3)
    for _ in range(4):
        tree = random_tree(monoid, ring, rng, 3, noncommuting_leaf)
        want = reference(tree, monoid, ring, region)
        got = build(tree).window_coeffs(region)
        assert all(ring.eq(c, want(m)) for m, c in got.items())
        assert all(m in got for m in monoid.window(region) if not ring.is_zero(want(m)))
        fresh = build(tree)  # single queries, highest first
        points = monoid.window(region)[::-1][:6]
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


@pytest.mark.parametrize("ring", ["int", "rational"])
def test_a_large_window_of_a_square_renders(ring, capsys):
    # a 20,001-point Cauchy product is one packed integer product
    assert main(["series-eval", "--monoid", "nat", "--ring", ring,
                 "--expr", "geometric * geometric", "--window", "20000"]) == 0
    terms = capsys.readouterr().out.rstrip("\n").split(" + ")
    assert len(terms) == 20001 and terms[0] == "1"
    for k in (1, 2, 777, 19999, 20000):
        assert terms[k] == f"{k + 1}·T^{k}"


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


def test_long_chain_of_distinct_factors_renders_without_recursion(capsys):
    # no two adjacent factors are one series, so the chain stays left-deep
    chain = " * ".join(["geometric", "(1 + T)"] * 300)
    assert len(_post_order(eval_expression(chain, nat(), IntRing(), 3))) == 600
    code = main(["series-eval", "--monoid", "nat", "--ring", "int", "--expr", chain,
                 "--window", "3"])
    out = capsys.readouterr().out
    assert code == 0
    values = [1, 0, 0, 0]
    for factor in [[1, 1, 1, 1], [1, 1, 0, 0]] * 300:
        values = [sum(values[i] * factor[m - i] for i in range(m + 1)) for m in range(4)]
    assert out == " + ".join(str(c) if m == 0 else f"{c}·T^{m}"
                             for m, c in enumerate(values)) + "\n"


# ---------------------------------------------------------------------------
# powers by repeated squaring, and the parser's runs of one builtin


def power_bases(monoid, ring, rng):
    """Series to raise to powers: random series (lazy ones where the carrier
    admits an infinite support), a finite table and, on mat2, a lazy leaf
    whose values do not commute with each other."""
    pool = element_pool(monoid)
    picks = rng.sample(pool, min(3, len(pool)))
    bases = [random_series(monoid, ring, rng) for _ in range(3)]
    bases.append(from_terms(monoid, ring, list(zip(picks, ring_samples(ring, rng, len(picks))))))
    if isinstance(ring, Mat2Ring) and monoid.admits(ALL):
        bases.append(from_function(monoid, ring, ALL, lambda m: (
            1, len(repr(m)) % 3 - 1, sum(map(ord, repr(m))) % 5 - 2, 2)))
    return bases


def assert_same_window(f, g, region):
    got, want = f.window_coeffs(region), g.window_coeffs(region)
    assert got.keys() == want.keys()
    assert all(f.ring.eq(got[m], want[m]) for m in want), (got, want)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", catalog_monoids(), ids=lambda m: m.describe())
def test_power_is_the_left_fold(monoid, ring, rng):
    region = {"free-words": 1, "rational-grid": 1}.get(monoid.carrier.name, 3)
    for f in power_bases(monoid, ring, rng):
        for k in range(1, 10):
            fold = reduce(operator.mul, [f] * k)
            assert_same_window(power(f, k), fold, region)
            if isinstance(f.support, GridTail):
                # two grid tails are bounded on the lcm of their grids, so a
                # power of a grid tail stays on its grid
                assert fold.support.n == f.support.n


def test_power_on_a_noncommutative_group(rng):
    monoid, labels = _symmetric_group_monoid()
    ring = Mat2Ring()
    f = from_terms(monoid, ring, list(zip(labels[1:4], ring_samples(ring, rng, 3))))
    for k in range(1, 10):
        assert_same_window(power(f, k), reduce(operator.mul, [f] * k), 0)


@pytest.mark.parametrize("k", [0, -1, -8, 2.0, True])
def test_power_needs_a_positive_integer_exponent(k):
    with pytest.raises(InputError):
        power(geometric(IntRing()), k)


def test_a_builtin_is_one_series_per_expression():
    for text, monoid in [("geometric + geometric", nat()), ("zeta * zeta", posnat_mul()),
                         ("moebius + (moebius)", posnat_mul())]:
        _, f, g = eval_expression(text, monoid, IntRing(), 5)._build
        assert f is g and f._build[0] == "leaf", text


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 255, 256, 600, 1365, 2000])
def test_a_chain_of_one_builtin_is_a_power(k):
    series = eval_expression(" * ".join(["geometric"] * k), nat(), IntRing(), 3)
    assert len(_post_order(series)) - 1 <= 2 * k.bit_length()
    assert [series.coeff(m) for m in (3, 0, 2)] == [comb(m + k - 1, k - 1) for m in (3, 0, 2)]


def test_runs_keep_their_order_among_other_factors():
    R = IntRing()
    series = eval_expression("geometric * T * geometric * geometric", nat(), R, 8)
    op, left, squared = series._build
    g = squared._build[1]
    assert op == "mul" and squared._build == ("mul", g, g) and g._build[0] == "leaf"
    assert left._build[1] is g and left._build[2]._memo == {1: 1}
    fold = reduce(operator.mul, [geometric(R), from_terms(nat(), R, [(1, 1)]),
                                 geometric(R), geometric(R)])
    assert_same_window(series, fold, 8)
    words = eval_expression("T^x * T^y * T^y * (T^x + T^y) * T^x", free_words("xy"), R, 5)
    assert words.render(5) == "1·xyyxx + 1·xyyyx"


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


# ---------------------------------------------------------------------------
# the prefix pass: products below a list-kernel product on nat, trunc and
# posnat-mul are evaluated as whole value lists


def shapes():
    """Tree shapes: lazy leaves on ALL, finite tables, negations, sums and
    products, so that products of two infinite series and of a table with an
    infinite series (on either side) all occur."""
    leaves = st.sampled_from([("lazy",), ("table",)])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub)), max_leaves=6)


def materialize(shape, monoid, ring, rng):
    """The tree for a shape, with leaves drawn from rng: the same rng state
    gives equal trees of distinct series."""
    op, *args = shape
    if op == "lazy":
        salt = rng.randint(0, 10 ** 6)
        return ("leaf", from_function(monoid, ring, ALL, lambda m: ring_samples(
            ring, random.Random(f"{salt}/{m}"), 1)[0]))
    if op == "table":
        picks = rng.sample(element_pool(monoid), rng.randint(0, 3))
        return ("leaf", from_terms(monoid, ring, list(zip(picks, ring_samples(ring, rng)))))
    return (op, *(materialize(a, monoid, ring, rng) for a in args))


def shared_tree(shapes, monoid, ring, seed, order):
    """The sum of (twice * a) * left, right * (b * twice) and twice * c, in
    the given order of the three, for shapes (twice, left, right), lazy
    leaves a and b and a table c, where twice is one subtree object:
    ``build`` builds it once, so one series is a left and a right factor,
    below a list-kernel product and, through c, outside one.  The order
    decides which of them the evaluator reaches first."""
    rng = random.Random(seed)
    twice, left, right, a, b, c = (
        materialize(shape, monoid, ring, rng)
        for shape in (*shapes, ("lazy",), ("lazy",), ("table",)))
    terms = [("mul", ("mul", twice, a), left), ("mul", right, ("mul", b, twice)),
             ("mul", twice, c)]
    first, second, third = (terms[i] for i in order)
    return ("add", ("add", first, second), third)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", [nat(), truncated(7), posnat_mul()],
                         ids=lambda m: m.describe())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(trees=st.tuples(shapes(), shapes(), shapes()), seed=st.integers(0, 10 ** 6),
       order=st.permutations(range(3)), region=st.integers(1, 9), data=st.data())
def test_prefix_pass_matches_the_brute_force_reference(trees, monoid, ring, seed, order,
                                                       region, data):
    want = reference(shared_tree(trees, monoid, ring, seed, order), monoid, ring, region)
    points = monoid.window(region)

    got = build(shared_tree(trees, monoid, ring, seed, order)).window_coeffs(region)
    assert all(ring.eq(c, want(m)) for m, c in got.items())
    assert all(m in got for m in points if not ring.is_zero(want(m)))

    # single queries at a high point, a lower one and a higher one, then the
    # window over the memos they left
    series = build(shared_tree(trees, monoid, ring, seed, order))
    low, mid, high = sorted(data.draw(st.lists(st.sampled_from(points), min_size=3,
                                                max_size=3)))
    for m in (mid, low, high):
        assert ring.eq(series.coeff(m), want(m))
    again = series.window_coeffs(region)
    assert all(ring.eq(c, want(m)) for m, c in again.items())


def test_prefix_pass_reads_each_leaf_point_once_and_reuses_the_memos():
    R = IntRing()
    reads = []
    leaf = from_function(nat(), R, ALL, lambda m: reads.append(m) or 1)
    series = leaf * geometric(R) * leaf  # the leaf is read through two factors
    m = 300
    assert series.coeff(m) == comb(m + 2, 2)
    assert sorted(reads) == list(range(m + 1))
    reads.clear()
    assert series.coeff(m // 2) == comb(m // 2 + 2, 2)
    assert reads == []


def test_a_repeated_query_reads_the_kept_prefix_and_lowers_only_the_roots_points(
        monkeypatch):
    Q = RationalRing()
    products, lowered = [], []
    kernel_product, lower = RationalRing.kernel_product, RationalRing.lower
    monkeypatch.setattr(RationalRing, "kernel_product", lambda self, kernel, f, g, ks: (
        products.append(len(ks)), kernel_product(self, kernel, f, g, ks))[1])
    monkeypatch.setattr(RationalRing, "lower", lambda self, lifted: (
        lowered.append(len(lifted[0])), lower(self, lifted))[1])
    series = eval_expression("geometric * geometric * geometric", nat(), Q, 150)
    inner = series._build[2]  # geometric * geometric, read only by the root's kernel
    assert series.coeff(150) == comb(152, 2)
    assert products == [151, 1] and lowered == [1] and inner._memo == {}
    products.clear(), lowered.clear()
    assert series.coeff(75) == comb(77, 2)  # the root's point off the kept prefix
    assert products == [1] and lowered == [1]
    products.clear()
    assert series.window_coeffs(150) == {m: comb(m + 2, 2) for m in range(151)}
    # the window is the root's whole prefix, one kernel call, kept lifted and
    # not lowered into the memo
    assert products == [151] and inner._memo == {} and set(series._memo) == {150, 75}
    products.clear()
    assert [series.coeff(m) for m in (150, 75, 3)] == [comb(152, 2), comb(77, 2), 10]
    assert products == [1]  # 150 and 75 are memo reads, 3 one point
    products.clear()
    assert series.window_coeffs(150) == {m: comb(m + 2, 2) for m in range(151)}
    assert products == []  # the kept prefix
    cube = eval_expression("zeta * zeta * zeta", posnat_mul(), Q, 60)
    want = {n: oracles.ordered_factorizations(n, 3) for n in range(1, 61)}
    assert cube.window_coeffs(60) == want and cube.window_coeffs(60) == want
    assert cube._build[2]._memo == {}


@pytest.mark.parametrize("table_first", [True, False])
def test_a_product_whose_prefix_another_pass_filled_is_read(table_first):
    R = IntRing()

    def expression():
        # p * T reaches p through the generic walk, p * g fills p's memo on
        # its own prefix pass
        g = geometric(R)
        p = g * g
        left, right = p * from_terms(nat(), R, [(1, 1)]), p * g
        return left + right if table_first else right + left

    # p * T has coefficients comb(m + 1, 1) at m >= 1, p * g comb(m + 2, 2)
    want = {m: (m if m else 0) + comb(m + 2, 2) for m in range(5)}
    assert expression().coeff(3) == want[3]
    assert expression().window_coeffs(4) == want
    series = expression()
    assert [series.coeff(m) for m in (3, 1, 4)] == [want[3], want[1], want[4]]


def test_table_products_below_a_list_kernel_read_their_factor_only_where_needed():
    R = IntRing()

    def counting(monoid):
        reads = []
        return from_function(monoid, R, ALL, lambda m: reads.append(m) or 1), reads

    leaf, reads = counting(nat())
    t50 = from_terms(nat(), R, [(50, 1)])
    assert ((t50 * leaf) * geometric(R)).coeff(53) == 4
    assert sorted(reads) == [0, 1, 2, 3]

    # a list-kernel product there runs on the short prefix too
    leaf, reads = counting(nat())
    assert ((t50 * (geometric(R) * leaf)) * geometric(R)).coeff(53) == comb(5, 2)
    assert sorted(reads) == [0, 1, 2, 3]

    # on posnat-mul a table whose smallest element is 5 needs the other
    # factor only up to top // 5
    counted, reads = counting(posnat_mul())
    t5 = from_terms(posnat_mul(), R, [(5, 1), (7, 1)])
    got = ((t5 * counted) * zeta(R)).window_coeffs(12)
    assert got == {m: sum(1 for d in (5, 7) if m % d == 0 for _ in range(sum(
        1 for e in range(1, m // d + 1) if (m // d) % e == 0))) for m in range(1, 13)}
    assert sorted(reads) == [1, 2]


@pytest.mark.parametrize("table_first", [True, False])
def test_a_series_beside_a_table_product_and_below_it_takes_the_longer_prefix(table_first):
    R = IntRing()
    reads = []
    leaf = from_function(nat(), R, ALL, lambda m: reads.append(m) or 1)
    # the leaf is needed up to m beside the table, and up to m - 3 below it,
    # where a list-kernel product runs on the shorter prefix
    shifted = from_terms(nat(), R, [(3, 1)]) * (geometric(R) * leaf)
    inner = shifted + leaf if table_first else leaf + shifted
    m = 12
    want = sum(1 + (i - 2 if i >= 3 else 0) for i in range(m + 1))
    assert (inner * geometric(R)).coeff(m) == want
    assert sorted(reads) == list(range(m + 1))


def test_a_leaf_read_by_a_prefix_pass_is_not_read_again():
    R = IntRing()
    reads = []
    leaf = from_function(nat(), R, ALL, lambda m: reads.append(m) or 1)
    assert (leaf + leaf * geometric(R)).coeff(40) == 42
    assert sorted(reads) == list(range(41))


@pytest.mark.parametrize("table_first", [True, False])
def test_a_series_needed_on_a_prefix_and_above_it_keeps_the_point_sparse(table_first):
    R = IntRing()
    reads = []
    leaf = from_function(nat(), R, ALL, lambda m: reads.append(m) or 1)
    n = 10 ** 5
    # the leaf is needed on 0..5 below the table and at n + 5 beside it
    shifted = from_terms(nat(), R, [(n, 1)]) * (leaf * geometric(R))
    series = shifted + leaf if table_first else leaf + shifted
    assert series.coeff(n + 5) == 7
    assert sorted(reads) == [0, 1, 2, 3, 4, 5, n + 5]


def generic_convolve(monoid, ring, f, g):
    """Table products through the ring's own add and mul."""
    out = {}
    for x, a in f.items():
        for y, b in g.items():
            m = monoid.product(x, y)
            if m is not None:
                c = ring.mul(a, b)
                out[m] = ring.add(out[m], c) if m in out else c
    return out


def test_integer_table_products_keep_zero_entries_in_order(rng):
    R = IntRing()
    product = from_terms(nat(), R, [(0, 1), (1, 1)]) * from_terms(nat(), R, [(0, 1), (1, -1)])
    assert 1 in product.support
    assert product.window_coeffs(2) == {0: 1, 1: 0, 2: -1}
    assert list(_convolve(nat(), R, {0: 1, 1: 1}, {0: 1, 1: -1}).items()) == \
        [(0, 1), (1, 0), (2, -1)]
    for monoid in (nat(), truncated(5), posnat_mul()):
        for ring in (R, ModRing(7), Mat2Ring()):
            for _ in range(20):
                f, g = ({m: c for m, c in zip(rng.sample(element_pool(monoid), 4),
                                              ring_samples(ring, rng))} for _ in range(2))
                got = _convolve(monoid, ring, f, g)
                assert list(got.items()) == list(generic_convolve(monoid, ring, f, g).items())


# ---------------------------------------------------------------------------
# products of finite series, filled only as far as a query asks


def brute_product(monoid, ring, tables):
    """The product of finite tables, folded left through the ring's own add
    and mul."""
    return reduce(lambda f, g: generic_convolve(monoid, ring, f, g), tables)


def eager_product(monoid, ring, tables):
    """The table an eagerly built product would hold: a ``_convolve`` fold."""
    return reduce(lambda f, g: _convolve(monoid, ring, f, g), tables)


def table_of(series):
    """A finite series' table on elements: on the rational grid its key k
    over the scale n stands for k/n, elsewhere a key is its element."""
    if series.monoid.carrier.name != "rational-grid":
        return series._memo
    return {Fraction(k, series._scale): c for k, c in series._memo.items()}


def assert_same_table(series, eager):
    """series' whole table is eager's, key for key and in order, zero
    entries included, and its support is eager's keys."""
    assert series.support == finite(eager)
    table = table_of(series)
    assert list(table) == list(eager)
    assert all(series.ring.eq(table[m], eager[m]) for m in eager)


# keys the factors draw from, and the points queried in display order:
# below, among and above a product's keys
FILL_KEYS = {"nat": range(0, 9), "truncated": range(0, 8), "int": range(-6, 7),
             "posnat-mul": range(1, 13),
             "rational-grid": sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(-4, 5)}),
             "free-words": free_words("xy").window(2)}
FILL_POINTS = {"nat": range(0, 45), "truncated": range(0, 8), "int": range(-30, 31),
               "posnat-mul": range(1, 150),
               "rational-grid": sorted({Fraction(n, d) for d in (1, 2, 3, 6)
                                        for n in range(-12 * d, 12 * d + 1)}),
               "free-words": free_words("xy").window(6)}


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", [nat(), truncated(7), integers(), posnat_mul(),
                                    rational_grid(), free_words("xy")],
                         ids=lambda m: m.describe())
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_finite_products_answer_interleaved_reads_as_eager_ones(monoid, ring, data):
    name = monoid.carrier.name
    zero = ring.zero

    def factor():
        keys = data.draw(st.lists(st.sampled_from(FILL_KEYS[name]), max_size=3, unique=True))
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        return from_terms(monoid, ring, list(zip(keys, ring_samples(ring, rng, len(keys)))))

    factors = [factor() for _ in range(3)]  # drawn with repeats, so factors are shared
    picks = [factors[i] for i in data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=6))]
    tables = [table_of(f) for f in picks]
    # each: the series, its brute-force table and the table an eager build holds
    live = [(reduce(operator.mul, picks), brute_product(monoid, ring, tables),
             eager_product(monoid, ring, tables))]
    for _ in range(data.draw(st.integers(1, 8))):
        series, want, eager = live[data.draw(st.integers(0, len(live) - 1))]
        step = data.draw(st.sampled_from(["coeff", "coeff", "window", "support", "mul", "add"]))
        if step == "coeff":  # a point, then the points just below and just above it
            points = FILL_POINTS[name]
            m = data.draw(st.sampled_from(points))
            i = points.index(m)
            for n in (m, *points[max(i - 1, 0):i], *points[i + 1:i + 2]):
                assert ring.eq(series.coeff(n), want.get(n, zero))
        elif step == "window":
            region = data.draw(st.integers(0, 12))
            got = series.window_coeffs(region)
            assert list(got) == monoid.enumerate_desc(finite(want), region)
            assert all(ring.eq(c, want[m]) for m, c in got.items())
        elif step == "support":
            assert series.support == finite(want)
        else:  # series times or plus a factor, on either side
            f = factors[data.draw(st.integers(0, 2))]
            pair = [(series, want, eager), (f, table_of(f), table_of(f))]
            if data.draw(st.booleans()):
                pair.reverse()
            (a, want_a, eager_a), (b, want_b, eager_b) = pair
            if step == "add":  # a sum reads the whole table
                table = dict(eager_a)
                for m, c in eager_b.items():
                    table[m] = ring.add(table[m], c) if m in table else c
                live.append((a + b, table, table))
            else:
                live.append((a * b, brute_product(monoid, ring, [want_a, want_b]),
                             eager_product(monoid, ring, [eager_a, eager_b])))
    for series, want, eager in live:
        assert all(ring.eq(eager.get(m, zero), c) for m, c in want.items())
        assert_same_table(series, eager)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", [rational_grid(), free_words("xy")],
                         ids=lambda m: m.describe())
def test_a_query_builds_a_finite_product_whole_without_cofactor_top(monoid, ring, rng):
    pool = element_pool(monoid)
    factors = [from_terms(monoid, ring, list(zip(rng.sample(pool, 3), ring_samples(ring, rng, 3))))
               for _ in range(4)]
    tables = [table_of(f) for f in factors]
    want, eager = brute_product(monoid, ring, tables), eager_product(monoid, ring, tables)
    series = reduce(operator.mul, factors)
    assert series._build[0] == "finite-mul"
    for m in pool:
        assert ring.eq(series.coeff(m), want.get(m, ring.zero))
    assert series._build == ("table",)  # the first query built it whole
    assert_same_table(series, eager)


def test_a_whole_build_frees_each_table_once_its_parent_is_built():
    R = IntRing()
    series = reduce(operator.mul, [from_terms(nat(), R, [(0, 1), (k, 1)]) for k in range(1, 81)])
    tracemalloc.start()
    try:
        support = series.support  # builds all 79 products whole
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert support == finite(range(80 * 81 // 2 + 1))
    # about 0.7 MB with one table below alive at a time; keeping the 78
    # tables below until the root is built takes about 8 MB
    assert peak < 3 * 2 ** 20


# ---------------------------------------------------------------------------
# rational-grid tables on integer keys over one scale, against Fraction keys


GRID_EXPONENTS = st.one_of(st.integers(-3, 3),
                           st.builds(Fraction, st.integers(-36, 36), st.integers(1, 12)))
GRID_TABLES = st.dictionaries(GRID_EXPONENTS, st.sampled_from([-2, -1, 1, 2]), max_size=4)
# off the grid of every denominator up to 12, and 2/4 (read as 1/2) and ints
GRID_POINTS = [Fraction(1, 9973), Fraction(-5, 13), Fraction(2, 4), 0, 1, -2]


def grid_leaf(ring, table):
    return from_terms(rational_grid(), ring, [(e, ring.from_int(c)) for e, c in table.items()])


def assert_grid_series(series, want, ring, coeff_first):
    """series against its Fraction-keyed table: single coefficients (first,
    while a product is unbuilt, or last), support, windows and terms."""
    order = sorted(want)

    def coefficients():
        for e in order + GRID_POINTS:
            assert ring.eq(series.coeff(e), want.get(e, ring.zero)), e
    if coeff_first:
        coefficients()
    assert series.support == finite(want)
    assert series.support_elements() == order
    for region in (0, 1, 2, 5):
        shown = [e for e in order if -region <= e <= region]
        got = series.window_coeffs(region)
        assert list(got) == shown and all(type(e) is Fraction for e in got)
        assert all(ring.eq(got[e], want[e]) for e in shown)
        assert [e for e, _ in series.terms_on(region)] == [
            e for e in shown if not ring.is_zero(want[e])]
    coefficients()


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(first=GRID_TABLES, coeff_first=st.booleans(), steps=st.lists(
    st.tuples(st.sampled_from(["mul", "mul", "add", "sub"]), GRID_TABLES), min_size=1, max_size=3))
def test_grid_tables_on_integer_keys_match_fraction_keys(ring, first, coeff_first, steps):
    def values(table):
        return {e: ring.from_int(c) for e, c in table.items()}

    series, want = grid_leaf(ring, first), oracles.grid_sum({}, values(first), ring.add)
    for op, table in steps:
        other = values(table)
        if op == "mul":
            series, want = series * grid_leaf(ring, table), oracles.grid_product(
                want, other, ring.add, ring.mul)
        elif op == "add":
            series, want = series + grid_leaf(ring, table), oracles.grid_sum(
                want, other, ring.add)
        else:
            series, want = series - grid_leaf(ring, table), oracles.grid_sum(
                want, {e: ring.neg(c) for e, c in other.items()}, ring.add)
    assert_grid_series(series, want, ring, coeff_first)


@pytest.mark.parametrize("coeff_first", [True, False])
def test_grid_products_over_twelve_denominators_keep_cancelled_keys(coeff_first):
    R = IntRing()
    factors = [{Fraction(1, q): 1, Fraction(-1, q): 2} for q in range(1, 13)]
    series, want = grid_leaf(R, factors[0]), oracles.grid_sum({}, factors[0], R.add)
    for table in factors[1:]:
        series, want = series * grid_leaf(R, table), oracles.grid_product(
            want, table, R.add, R.mul)
    assert_grid_series(series, want, R, coeff_first)
    # (T^(1/2) + T^(1/3)) * (T^(1/2) - T^(1/3)): the two T^(5/6) terms cancel
    half, third = Fraction(1, 2), Fraction(1, 3)
    square = grid_leaf(R, {half: 1, third: 1}) * grid_leaf(R, {half: 1, third: -1})
    assert square.window_coeffs(1) == {Fraction(2, 3): -1, Fraction(5, 6): 0, Fraction(1): 1}
    assert square.terms_on(1) == [(Fraction(2, 3), -1), (Fraction(1), 1)]
    assert Fraction(5, 6) in square.support


def test_a_query_into_a_sparse_product_computes_no_key_above_its_bound(monkeypatch):
    ks = sorted(random.Random(7).sample(range(2, 47), 40))
    text = " * ".join(f"(1 + T^{k})" for k in ks)
    m = 18
    sums, products = [1] + [0] * m, [0, 1] + [0] * (m - 1)  # subsets of ks by sum, product
    for k in ks:
        sums = [c + (sums[n - k] if n >= k else 0) for n, c in enumerate(sums)]
        products = [c + (products[n // k] if n % k == 0 else 0) for n, c in enumerate(products)]
    for monoid, want in [(nat(), sums), (integers(), sums), (posnat_mul(), products)]:
        family = type(monoid)
        keys = []

        def product(a, b, real=family.product):
            keys.append(real(a, b))
            return keys[-1]

        with monkeypatch.context() as patch:
            patch.setattr(family, "product", staticmethod(product))
            series = eval_expression(text, monoid, IntRing(), m)
            assert series.coeff(m) == want[m]
            computed = len(keys)
            # lower queries read the memo the first one filled
            assert [series.coeff(n) for n in (m - 1, m - 6)] == [want[m - 1], want[m - 6]]
            assert len(keys) == computed
        # each of the 40 products crosses at most its left factor's keys up
        # to m with the two of its right one; an eager build on nat makes
        # tens of thousands of products, up to the sum of ks
        assert max(keys) <= m and len(keys) <= 40 * (m + 1) * 2
        assert series._support is None and series._build[0] == "finite-mul"


def test_a_long_chain_of_distinct_finite_factors_answers_a_query():
    k = 2000
    series = eval_expression(" * ".join(f"(1 + T^{i})" for i in range(1, k + 1)),
                             nat(), IntRing(), 3)
    values = [1, 0, 0, 0]
    for i in range(1, k + 1):
        values = [c + (values[m - i] if m >= i else 0) for m, c in enumerate(values)]
    assert series.coeff(3) == values[3] == 2


def test_a_long_finite_chain_renders_on_trunc(capsys):
    chain = " * ".join(["(1 + T)"] * 2000)
    code = main(["series-eval", "--monoid", '{"trunc": 3}', "--ring", "int", "--expr", chain,
                 "--window", "3"])
    assert code == 0
    assert capsys.readouterr().out == " + ".join(
        str(comb(2000, m)) if m == 0 else f"{comb(2000, m)}·T^{m}" for m in range(4)) + "\n"


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", [nat(), truncated(7), integers(), posnat_mul()],
                         ids=lambda m: m.describe())
def test_powers_of_a_finite_table_answer_queries_as_the_left_fold(monoid, ring, rng):
    pool = element_pool(monoid)
    for _ in range(4):
        picks = rng.sample(pool, 3)
        f = from_terms(monoid, ring, list(zip(picks, ring_samples(ring, rng, 3))))
        squared, fold = power(f, 9), reduce(operator.mul, [f] * 9)
        want = brute_product(monoid, ring, [f._memo] * 9)
        points = sorted(want, key=monoid.sort_key)
        for m in points[::-3] + points[1::4]:  # down, then up again
            assert ring.eq(squared.coeff(m), want[m]) and ring.eq(fold.coeff(m), want[m])
        assert_same_table(fold, eager_product(monoid, ring, [f._memo] * 9))


# ---------------------------------------------------------------------------
# list kernels against brute force


def brute_dirichlet(ring, f, g, k):
    """The sum of f[d] * g[k / d] over the divisors d of k, in divisor order."""
    return reduce(ring.add, (ring.mul(f[d], g[k // d]) for d in range(1, k + 1) if k % d == 0),
                  ring.zero)


def ring_kernel(kernel, ring, f, g, ks):
    """The kernel's product of two value lists at ks, through the ring's lift."""
    return ring.lower(ring.kernel_product(kernel, ring.lift(f), ring.lift(g), ks))


def brute_cauchy(ring, f, g, k):
    """The sum of f[i] * g[k - i] over i <= k, in order of i."""
    return reduce(ring.add, (ring.mul(f[i], g[k - i]) for i in range(k + 1)), ring.zero)


def random_values(ring, rng, n):
    """A value list over 0..n with index 0 unused, about one value in eight zero."""
    pool = ring_samples(ring, rng, 7) + [ring.zero]
    return [ring.zero] + [rng.choice(pool) for _ in range(n)]


SIEVE_TOPS = sorted(set(range(1, 41)) | {k * k + i for k in range(2, 13) for i in (-1, 0, 1)})


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
def test_the_sieve_is_the_divisor_sum(ring, rng):
    for top in SIEVE_TOPS:
        f, g = random_values(ring, rng, top), random_values(ring, rng, top)
        ks = list(range(1, top + 1))
        rng.shuffle(ks)
        got = ring_kernel(monoids._sieve, ring, f, g, ks)
        assert got == [brute_dirichlet(ring, f, g, k) for k in ks], top


def test_the_sieve_keeps_f_on_the_left():
    e12, e21 = (0, 1, 0, 0), (0, 0, 1, 0)  # e12 * e21 != e21 * e12
    ring = Mat2Ring()
    for top in SIEVE_TOPS:
        f, g = [ring.zero] + [e12] * top, [ring.zero] + [e21] * top
        ks = list(range(1, top + 1))
        got = ring_kernel(monoids._sieve, ring, f, g, ks)
        assert got == [brute_dirichlet(ring, f, g, k) for k in ks], top


RATIONAL_LISTS = {
    "integers": [Fraction(v) for v in (0, 1, -1, 3, 0, -4, 2, 1, -7, 5, 0, 6, 1)],
    "mixed": [Fraction(v, d) for v, d in ((0, 1), (1, 2), (-2, 3), (5, 1), (7, 6), (-1, 4),
                                          (3, 1), (0, 1), (-5, 2), (9, 8), (1, 1), (4, 3),
                                          (-1, 12))],
    "negatives": [Fraction(-v, d) for v, d in ((0, 1), (1, 1), (3, 2), (2, 1), (5, 3), (1, 1),
                                               (7, 1), (4, 5), (2, 1), (1, 9), (6, 1), (3, 1),
                                               (8, 7))],
}


@pytest.mark.parametrize("kernel", [monoids._cauchy, monoids._sieve],
                         ids=lambda k: k.__name__)
@pytest.mark.parametrize("left", RATIONAL_LISTS)
@pytest.mark.parametrize("right", RATIONAL_LISTS)
def test_rational_products_equal_the_kernel_on_fractions(kernel, left, right):
    ring = RationalRing()
    f, g = RATIONAL_LISTS[left], RATIONAL_LISTS[right]
    ks = [12, 0, 5, 7, 1, 11, 3] if kernel is monoids._cauchy else [12, 5, 7, 1, 11, 3]
    brute = brute_cauchy if kernel is monoids._cauchy else brute_dirichlet
    got = ring_kernel(kernel, ring, f, g, ks)
    assert got == [brute(ring, f, g, k) for k in ks]
    assert all(type(v) is Fraction for v in got)


def dot_product(f, g, k):
    """The Cauchy product of two integer lists at k, a list zero past its end."""
    return sum(f[i] * g[k - i] for i in range(k + 1) if i < len(f) and k - i < len(g))


def divisor_sum(f, g, k):
    """The Dirichlet product of two integer lists at k, a list zero past its end."""
    at = lambda values, i: values[i] if i < len(values) else 0  # noqa: E731
    return sum(at(f, d) * at(g, k // d) for d in range(1, k + 1) if k % d == 0)


INTEGERS = st.one_of(st.integers(-3, 3), st.just(0), st.integers(-2 ** 70, 2 ** 70),
                     st.sampled_from([2 ** 64, -2 ** 64, 2 ** 64 - 1, -2 ** 63]))
INTEGER_LISTS = st.one_of(st.lists(INTEGERS, max_size=300),
                          st.builds(lambda n, v: [v] * n, st.integers(0, 300), INTEGERS))


def kernel_points(data, f, g, low):
    """Points from low up to past both lists' ends: a prefix or a random
    list, below or above the packing threshold."""
    top = len(f) + len(g) + 1
    if data.draw(st.booleans()):
        return list(range(low, data.draw(st.integers(low, top))))
    return data.draw(st.lists(st.integers(low, top), max_size=2 * monoids._PACK_ABOVE + 10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=INTEGER_LISTS, g=INTEGER_LISTS, data=st.data())
def test_the_cauchy_kernel_is_the_dot_product(f, g, data):
    ks = kernel_points(data, f, g, 0)
    assert monoids._cauchy(f, g, ks) == [dot_product(f, g, k) for k in ks]
    assert monoids._cauchy(f, f, ks) == [dot_product(f, f, k) for k in ks]  # a square


@settings(max_examples=150, deadline=None, derandomize=True)
@given(f=INTEGER_LISTS, g=INTEGER_LISTS, data=st.data())
def test_the_sieve_kernel_is_the_divisor_sum(f, g, data):
    ks = kernel_points(data, f, g, 1)
    assert monoids._sieve(f, g, ks) == [divisor_sum(f, g, k) for k in ks]


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_the_packed_cauchy_reaches_its_digit_bound(signs):
    # constant lists make the middle coefficient max|f|·max|g|·n itself, and
    # the bound's bit length runs through every residue mod 8
    n = monoids._PACK_ABOVE + 5
    for e in range(24):
        a, b = signs[0] * 2 ** e, signs[1] * 3
        got = monoids._cauchy([a] * n, [b] * n, range(n))
        assert got == [a * b * (k + 1) for k in range(n)], e


def test_the_lift_divides_only_by_a_denominator_it_needs():
    lift = RationalRing().lift
    assert lift(RATIONAL_LISTS["integers"]) == ([0, 1, -1, 3, 0, -4, 2, 1, -7, 5, 0, 6, 1], 1)
    numerators, den = lift([Fraction(1, 2), Fraction(-2, 3), Fraction(5), Fraction(0)])
    assert (numerators, den) == ([3, -4, 30, 0], 6)


def column_series(monoid, ring, shape):
    """A series whose windows read a lifted column: a builtin, or a product of
    two infinite series; on the rationals a leaf of non-integer values
    (1/(m + 1), or m/2) gives the column a denominator other than 1."""
    def leaf(kind):
        if kind == "builtin":
            return geometric(ring) if monoid == nat() else zeta(ring)
        if kind == "moebius" and monoid == posnat_mul():
            return moebius(ring, 60)
        if isinstance(ring, RationalRing):
            fn = (lambda m: Fraction(1, m + 1)) if kind == "leaf" else (lambda m: Fraction(m, 2))
        else:
            fn = lambda m: ring.from_int(3 * m - 7)  # noqa: E731
        return from_function(monoid, ring, ALL, fn)

    return reduce(operator.mul, map(leaf, shape))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
@pytest.mark.parametrize("monoid", [nat(), posnat_mul()], ids=lambda m: m.describe())
@settings(max_examples=25, deadline=None, derandomize=True)
@given(shape=st.lists(st.sampled_from(["builtin", "moebius", "leaf", "half"]),
                      min_size=1, max_size=3),
       region=st.integers(0, 60), repeat=st.booleans())
def test_column_windows_match_the_point_by_point_path(monoid, ring, shape, region, repeat):
    series = column_series(monoid, ring, shape)
    if repeat:  # a second window reads the kept column
        series.window_coeffs(region)
    # the point-by-point path: a fresh copy of the series, one query per point
    points = monoid.window(region)
    values = [column_series(monoid, ring, shape).coeff(m) for m in points]
    got = series.window_coeffs(region)
    assert list(got) == points and all(map(ring.eq, got.values(), values))
    shown = [(m, c) for m, c in zip(points, values) if not ring.is_zero(c)]
    texts, jsons = ([to(c) for _, c in shown] for to in (ring.render, ring.element_to_json))
    assert series.outputs_on(region, (False, True)) == ([m for m, _ in shown], [texts, jsons])
    assert series.outputs_on(region, (True,), zeros=True) == (
        points, [list(map(ring.element_to_json, values))])
    assert series.outputs_on(region, zeros=True)[1] == [list(map(ring.render, values))]
    parts = [(f"({t})" if t.startswith("-") or " " in t else t)
             + ("" if m == monoid.unit else f"·{monoid.monomial(m)}")
             for (m, _), t in zip(shown, texts)]
    assert series.render(region) == (" + ".join(parts) or "0")
    assert series.terms_on(region) == shown
