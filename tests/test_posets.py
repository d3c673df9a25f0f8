import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseries import (ALL, FinitePomonoid, FinitePoset, GridTail, InputError,
                       IntRing, IntUsual, NatDiscrete, NatUsual, PosNatDivisibility,
                       RationalGrid, StrictnessError,
                       TailGE, Truncated, classify_subset,
                       embed_finite_pomonoid, finite, from_terms, increasing_subsequence,
                       is_strict_map, is_strict_pomonoid, largest_antichain,
                       longest_chain, poset_violations)
from genseries.catalog import FreeWords, IntDiscrete, PosNatMulUsual
from genseries.errors import DescriptorError

from genseries import posets
from genseries.cli import main

import oracles
import poset_oracle


def divisor_poset(n):
    elems = [d for d in range(1, n + 1) if n % d == 0]
    return FinitePoset.from_le(elems, lambda a, b: b % a == 0)


def chain(n):
    return FinitePoset.from_le(list(range(n)), lambda a, b: a <= b)


def antichain(n):
    return FinitePoset.from_le(list(range(n)), lambda a, b: a == b)


# ---------------------------------------------------------------------------
# classification


def test_classification_examples():
    c = classify_subset(NatUsual(), ALL)
    assert (c.artinian, c.noetherian, c.narrow, c.finite) == (True, False, True, False)
    assert not classify_subset(PosNatDivisibility(), ALL).narrow
    c = classify_subset(RationalGrid(), GridTail(-3, 2))
    assert (c.artinian, c.noetherian, c.narrow, c.finite) == (True, False, True, False)
    c = classify_subset(NatUsual(), finite([0, 5, 7]))
    assert (c.artinian, c.noetherian, c.narrow, c.finite) == (True, True, True, True)


def test_classification_full_carrier_table():
    rows = {
        NatUsual(): (True, False, True, False),
        NatDiscrete(): (True, True, False, False),
        IntUsual(): (False, False, True, False),
        IntDiscrete(): (True, True, False, False),
        PosNatMulUsual(): (True, False, True, False),
        PosNatDivisibility(): (True, False, False, False),
        RationalGrid(): (False, False, True, False),
        FreeWords(("x", "y")): (True, False, True, False),
        Truncated(4): (True, True, True, True),
    }
    for carrier, expected in rows.items():
        c = classify_subset(carrier, ALL)
        assert (c.artinian, c.noetherian, c.narrow, c.finite) == expected


def test_descriptor_carrier_mismatch():
    with pytest.raises(DescriptorError):
        classify_subset(NatUsual(), GridTail(0, 2))
    with pytest.raises(DescriptorError):
        classify_subset(RationalGrid(), TailGE(0))


def test_integer_tail_classification():
    c = classify_subset(IntUsual(), TailGE(-10))
    assert (c.artinian, c.noetherian, c.narrow, c.finite) == (True, False, True, False)


# ---------------------------------------------------------------------------
# chains / antichains / subsequences


def test_longest_chain_examples():
    assert len(longest_chain(antichain(3))) == 1
    p = FinitePoset.from_le(["a", "b", "c"], lambda a, b: a <= b)
    assert longest_chain(p) == ["a", "b", "c"]
    got = longest_chain(divisor_poset(12))
    assert len(got) == 4
    assert len(got) == oracles.brute_longest_chain_len(
        [1, 2, 3, 4, 6, 12], lambda a, b: b % a == 0)
    for a, b in zip(got, got[1:]):
        assert b % a == 0 and a != b


def test_longest_chain_invariant_under_reversal(rng):
    for _ in range(20):
        n = rng.randint(1, 6)
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
        # reflexive-transitive closure of a DAG on 0..n-1
        le = [[i == j or (i, j) in edges for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    le[i][j] = le[i][j] or (le[i][k] and le[k][j])
        p = FinitePoset.build(list(range(n)), le)
        assert len(longest_chain(p)) == len(longest_chain(p.reverse()))


def test_largest_antichain_examples():
    assert len(largest_antichain(chain(4))) == 1
    assert len(largest_antichain(antichain(4))) == 4
    got = largest_antichain(divisor_poset(36))
    assert len(got) == 3
    assert len(got) == oracles.brute_largest_antichain_len(
        [1, 2, 3, 4, 6, 9, 12, 18, 36], lambda a, b: b % a == 0)
    for a in got:
        for b in got:
            if a != b:
                assert a % b != 0 and b % a != 0


def test_largest_antichain_size_bound():
    # past the 20 elements the exponential search was capped at, the
    # matching-based search still answers
    assert largest_antichain(antichain(25)) == list(range(25))


@st.composite
def random_posets(draw, max_size):
    """Random orders on 0..n-1: strict pairs along a shuffled order at one
    of five densities, closed transitively."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    perm = draw(st.permutations(range(n)))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.8]))
    rng = draw(st.randoms(use_true_random=False))
    lt = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            lt[perm[a]][perm[b]] = rng.random() < density
    for k in range(n):
        for i in range(n):
            if lt[i][k]:
                for j in range(n):
                    lt[i][j] = lt[i][j] or lt[k][j]
    return FinitePoset.build(range(n), [[i == j or lt[i][j] for j in range(n)]
                                        for i in range(n)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_posets(14))
def test_chain_and_antichain_agree_with_the_recursive_search(p):
    assert longest_chain(p) == poset_oracle.longest_chain(p)
    assert largest_antichain(p) == poset_oracle.largest_antichain(p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_posets(10))
def test_largest_antichain_size_agrees_with_brute_force(p):
    assert len(largest_antichain(p)) == oracles.brute_largest_antichain_len(p.elements, p.le)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_violations_agree_with_the_matrix_loops(leq):
    labels = list(range(len(leq)))
    assert poset_violations(labels, leq) == poset_oracle.poset_violations(labels, leq)


def layers(width, depth):
    """depth layers of width elements, each layer below the next but the
    relation not closed under transitivity: (depth - 2) * width**3 triples
    and more break it."""
    n = width * depth
    return [[i == j or j // width == i // width + 1 for j in range(n)] for i in range(n)]


def test_violations_past_the_cap_are_counted_not_listed():
    leq = layers(20, 3)
    labels = list(range(len(leq)))
    every = poset_oracle.poset_violations(labels, leq)
    assert len(every) == 8000
    got = poset_violations(labels, leq)
    assert got[:1000] == every[:1000]
    assert got[1000:] == ["... and 7000 more violations"]
    with pytest.raises(InputError) as info:
        FinitePoset.build(labels, leq)
    assert str(info.value).count(";") == 1000


def test_validate_prints_a_bounded_report_of_a_large_relation(capsys):
    leq = layers(80, 3)  # 512,000 broken triples
    poset = json.dumps({"elements": list(range(240)), "leq": leq})
    assert main(["poset", "--operation", "validate", "--format", "json", "--poset", poset]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"] and len(report["violations"]) == 1001
    assert report["violations"][-1] == "... and 511000 more violations"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_the_violation_count_is_the_number_of_messages(leq):
    rows = posets._rows(leq)
    labels = list(range(len(leq)))
    assert posets._violation_count(rows) == len(list(posets._each_violation(labels, rows)))


def test_a_poset_keeps_the_rows_its_checks_built(monkeypatch):
    p, m = divisor_poset(12), zmod_discrete(3)
    assert p.rows == tuple(sum(1 << j for j, v in enumerate(row) if v) for row in p.leq)
    built = []
    monkeypatch.setattr(posets, "_rows", lambda leq: built.append(leq))
    longest_chain(p), largest_antichain(p), is_strict_pomonoid(m)
    assert built == []


def test_increasing_subsequence_examples():
    idx = increasing_subsequence(NatUsual(), [3, 1, 4, 1, 5, 9, 2, 6])
    assert len(idx) == 4
    seq = [3, 1, 4, 1, 5, 9, 2, 6]
    vals = [seq[i] for i in idx]
    assert idx == sorted(idx) and vals == sorted(vals)
    assert len(increasing_subsequence(NatDiscrete(), [3, 1, 3, 3])) == 3
    assert len(increasing_subsequence(IntUsual(), [5, 4, 3, 2, 1])) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), max_size=8))
def test_increasing_subsequence_matches_brute_force(seq):
    got = increasing_subsequence(NatUsual(), seq)
    assert len(got) == oracles.brute_lis_len(seq, lambda a, b: a <= b)
    got_disc = increasing_subsequence(NatDiscrete(), seq)
    assert len(got_disc) == oracles.brute_lis_len(seq, lambda a, b: a == b)


def test_erdos_szekeres_style_bound(rng):
    # distinct values on a total order: LIS * longest strictly-decreasing >= n
    for _ in range(30):
        n = rng.randint(1, 12)
        seq = rng.sample(range(40), n)
        lis = len(increasing_subsequence(IntUsual(), seq))
        lds = oracles.brute_lis_len([-x for x in seq], lambda a, b: a <= b)
        assert lis * lds >= n


def test_divisibility_subsequence_uses_carrier_order():
    idx = increasing_subsequence(PosNatDivisibility(), [5, 2, 4, 3, 8])
    assert [x for x in idx] == sorted(idx)
    vals = [[5, 2, 4, 3, 8][i] for i in idx]
    for a, b in zip(vals, vals[1:]):
        assert b % a == 0


# ---------------------------------------------------------------------------
# strict maps


def test_strict_map_examples():
    d6 = divisor_poset(6)
    d12 = divisor_poset(12)
    assert is_strict_map({x: x for x in d6.elements}, d6, d6)
    two_chain = chain(2)
    assert not is_strict_map({0: 0, 1: 0}, two_chain, two_chain)
    assert is_strict_map({x: 2 * x for x in d6.elements}, d6, d12)


def test_strict_map_on_a_long_chain():
    # each pair is read off bitset rows, so 300 elements (44,850 strict
    # pairs) take well under a second
    long = chain(300)
    assert is_strict_map({x: x for x in long.elements}, long, long)
    swapped = {x: x for x in long.elements}
    swapped[10], swapped[200] = 200, 10  # 10 < 200, but 200 > 10
    assert not is_strict_map(swapped, long, long)


def test_strict_map_names_an_image_outside_the_codomain():
    with pytest.raises(InputError, match="7 is not in the poset"):
        is_strict_map({0: 0, 1: 7}, chain(2), chain(2))


def test_strict_map_requires_totality():
    with pytest.raises(InputError):
        is_strict_map({0: 0}, chain(2), chain(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_strict_maps_compose(n, data):
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]),
        max_size=6))
    le = [[i == j or (i, j) in edges for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    p = FinitePoset.build(list(range(n)), le)
    # a linear extension is strict into a chain, and shifting a chain is strict
    order = sorted(range(n), key=lambda i: sum(le[j][i] for j in range(n)))
    rank = {v: i for i, v in enumerate(order)}
    big = chain(2 * n)
    f = {v: rank[v] for v in range(n)}
    g = {i: i + n for i in range(n)}
    assert is_strict_map(f, p, chain(n))
    assert is_strict_map(g, chain(n), big)
    assert is_strict_map({v: g[f[v]] for v in range(n)}, p, big)


# ---------------------------------------------------------------------------
# pomonoids


def zmod_discrete(n):
    p = FinitePoset.build(list(range(n)), [[i == j for j in range(n)] for i in range(n)])
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FinitePomonoid(p, table, 0)


def capped_addition(n):
    p = chain(n + 1)
    table = tuple(tuple(min(i + j, n) for j in range(n + 1)) for i in range(n + 1))
    return FinitePomonoid(p, table, 0)


def test_discrete_pomonoids_are_strict():
    assert is_strict_pomonoid(zmod_discrete(3))
    assert is_strict_pomonoid(zmod_discrete(1))


def test_max_pomonoid_is_not_strict():
    p = chain(2)
    table = ((0, 1), (1, 1))  # max(a, b)
    m = FinitePomonoid(p, table, 0)
    assert not is_strict_pomonoid(m)  # 0 < 1 but max(0,1) == max(1,1)


def test_capped_addition_is_not_strict():
    m = capped_addition(3)
    assert not is_strict_pomonoid(m)  # 2 < 3 but 2+1 == 3 == 3+1 after the cap
    with pytest.raises(StrictnessError):
        embed_finite_pomonoid(m)


def test_pomonoid_validation_rejects_broken_tables():
    p = chain(2)
    with pytest.raises(InputError):
        FinitePomonoid(p, ((0, 1), (1, 0)), 0)  # 1+1=0 breaks monotonicity
    with pytest.raises(InputError):
        FinitePomonoid(p, ((1, 1), (1, 1)), 0)  # unit law fails


def test_embed_trivial_pomonoid():
    trivial = FinitePomonoid(chain(1), ((0,),), 0)
    monoid = embed_finite_pomonoid(trivial)
    u = monoid.unit
    assert monoid.decompose_within(u, finite([u]), finite([u])) == [(u, u)]


def test_embed_zmod3_decompositions():
    monoid = embed_finite_pomonoid(zmod_discrete(3))
    everything = finite([0, 1, 2])
    assert monoid.decompose_within(0, everything, everything) == [(0, 0), (1, 2), (2, 1)]
    assert monoid.mul(2, 2) == 1
    assert monoid.product(2, 2) == 1


def test_embed_zmod3_descriptor_methods():
    monoid = embed_finite_pomonoid(zmod_discrete(3))
    # 1+1 = 2, 1+2 = 0 and 2+2 = 1 (mod 3)
    assert monoid.mul_bound(finite([1]), finite([1, 2])) == finite([0, 2])
    assert monoid.mul_bound(finite([1, 2]), finite([1, 2])) == finite([0, 1, 2])
    assert monoid.mul_bound(finite([0]), finite([2])) == finite([2])
    assert monoid.mul_bound(finite(), finite([1])) == finite()
    assert monoid.union_bound(finite([2]), finite([0, 2])) == finite([0, 2])
    assert monoid.union_bound(finite(), finite()) == finite()
    # a finite carrier: every window holds every label, in label order
    assert monoid.enumerate_desc(finite([2, 0]), 0) == [0, 2]
    assert monoid.enumerate_desc(finite([2, 1, 0]), 7) == [0, 1, 2]
    assert monoid.enumerate_desc(finite(), 1) == []
    assert monoid.window(0) == [0, 1, 2]
    for bad in (ALL, finite([3])):
        with pytest.raises(DescriptorError):
            monoid.mul_bound(bad, finite([1]))
        with pytest.raises(DescriptorError):
            monoid.union_bound(finite([1]), bad)
        with pytest.raises(DescriptorError):
            monoid.enumerate_desc(bad, 1)


def test_embedded_monoid_refuses_negative_windows():
    monoid = embed_finite_pomonoid(zmod_discrete(2))
    series = from_terms(monoid, IntRing(), [(0, 1), (1, 2)])
    for call in (lambda: monoid.enumerate_desc(finite([0, 1]), -1),
                 lambda: monoid.window(-1),
                 lambda: series.render(-5)):
        with pytest.raises(InputError, match="window must be a nonnegative integer"):
            call()
    assert series.render(0) == "1 + 2·T^1"  # a table monomial is T to its label


def test_order_breaking_translation_names_the_first_triple():
    # on the chain 0 < 1 < 2, addition mod 3 first breaks 0 <= 1 under + 2
    table = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    with pytest.raises(InputError, match=r"indices \(0 <= 1, translate by 2\)$"):
        FinitePomonoid(chain(3), table, 0)


def test_embedded_monoid_is_finite_support_only():
    monoid = embed_finite_pomonoid(zmod_discrete(3))
    assert monoid.admits(finite([0, 1]))
    assert not monoid.admits(ALL)


# ---------------------------------------------------------------------------
# poset plumbing


def test_poset_violation_reporting():
    assert poset_violations((0, 1), ((True, True), (True, True)))  # antisymmetry
    assert poset_violations((0, 1), ((False, False), (False, True)))  # reflexivity
    bad_le = ((True, True, False), (False, True, True), (False, False, True))
    assert any("transitivity" in v for v in poset_violations((0, 1, 2), bad_le))
    with pytest.raises(InputError):
        FinitePoset.build([0, 1], [[True, True], [True, True]])


def test_poset_json_round_trip():
    p = divisor_poset(6)
    assert FinitePoset.from_json(p.to_json()) == p
    m = zmod_discrete(2)
    assert FinitePomonoid.from_json(m.to_json()) == m
