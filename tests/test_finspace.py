import collections
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from genseries import InputError, SizeBoundError, finspace
from genseries.finspace import (PartialFn, Star, all_partial_fns, associator,
                                coequalizer, compose, coproduct, curry,
                                empty_fn, equalizer, ev,
                                hom_family_conditions, identity,
                                internal_hom, is_morphism, perp, product,
                                space, symmetry, system, tensor, tensor_mor,
                                uncurry, unit_space, verification_sweep,
                                verify_coequalizer, verify_coproduct,
                                verify_equalizer, verify_product)


def pfn(dom, cod, mapping):
    return PartialFn(space(dom), space(cod), mapping)


# ---------------------------------------------------------------------------
# perp operator


def test_perp_on_finite_carrier_is_full_powerset():
    s = system(["a", "b"], [["a"]])
    assert len(perp(s).family) == 4


def test_family_order_is_independent_of_the_hash_seed():
    """Members sort by their sorted label keys; under string hashing a
    frozenset's repr lists its labels in a per-process order."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(repo / "src"), os.environ.get("PYTHONPATH", "")])
    family = ("from genseries.finspace import full_system; "
              "print([sorted(u) for u in full_system(['a', 'b', 'c']).family])")
    runs = {}
    for seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        runs[seed] = [subprocess.run(argv, capture_output=True, text=True, cwd=repo, env=env,
                                     check=True).stdout
                      for argv in ([sys.executable, "-c", family],
                                   [sys.executable, "demos/category_checker.py"])]
    assert runs["0"] == runs["2"]
    assert runs["0"][0] == ("[[], ['a'], ['a', 'b'], ['a', 'b', 'c'], ['a', 'c'], ['b'], "
                            "['b', 'c'], ['c']]\n")


def test_perp_of_empty_carrier():
    s = system([], [])
    assert perp(s).family == (frozenset(),)


def test_perp_laws_sampled():
    rng = random.Random(7)
    from genseries.finspace import subsets
    for _ in range(60):
        labels = [f"e{i}" for i in range(rng.randint(0, 4))]
        pool = subsets(labels)
        fam = rng.sample(pool, rng.randint(0, len(pool)))
        s = system(labels, fam)
        once, twice, thrice = perp(s), perp(perp(s)), perp(perp(perp(s)))
        assert set(s.family) <= set(twice.family)
        assert set(thrice.family) == set(once.family)


def test_perp_is_the_full_powerset_on_sampled_families():
    rng = random.Random(11)
    for _ in range(60):
        labels = [f"e{i}" for i in range(rng.randint(0, 4))]
        pool = finspace.subsets(labels)
        s = system(labels, rng.sample(pool, rng.randint(0, len(pool))))
        assert perp(s) == finspace.full_system(s.carrier)


def test_perp_is_inclusion_reversing():
    small = system(["a", "b", "c"], [["a"]])
    large = system(["a", "b", "c"], [["a"], ["a", "b"]])
    assert set(small.family) <= set(large.family)
    assert set(perp(large).family) <= set(perp(small).family)


# ---------------------------------------------------------------------------
# morphism conditions


def test_identity_and_empty_are_morphisms():
    x = space(["a", "b"])
    assert is_morphism(identity(x))
    assert is_morphism(empty_fn(x, space(["c"])))


def test_restricted_codomain_family_breaks_image_condition():
    f = pfn(["a", "b"], ["c"], {"a": "c", "b": "c"})
    dom_sys = system(["a", "b"], [["a"]])
    cod_sys = system(["c"], [[]])  # image {c} is not a family member
    assert not is_morphism(f, dom_sys, cod_sys)
    cod_ok = system(["c"], [[], ["c"]])
    assert is_morphism(f, dom_sys, cod_ok)


def test_partial_fn_validation():
    with pytest.raises(InputError):
        pfn(["a"], ["b"], {"z": "b"})
    with pytest.raises(InputError):
        pfn(["a"], ["b"], {"a": "q"})


def test_partial_fn_identity_ignores_mapping_insertion_order():
    dom, cod = space(["a", "b", 1]), space(["c", 2])
    forward = PartialFn(dom, cod, {"a": "c", "b": 2, 1: "c"})
    backward = PartialFn(dom, cod, {1: "c", "b": 2, "a": "c"})
    assert forward == backward and hash(forward) == hash(backward)
    assert len({forward, backward}) == 1
    assert forward != PartialFn(dom, cod, {"a": "c", "b": 2})
    assert forward != PartialFn(dom, space(["c", 2, 3]), {"a": "c", "b": 2, 1: "c"})


def test_partial_fn_repr_sorts_pairs_by_label_repr():
    f = PartialFn(space(["b", 1, "a"]), space(["y", 2]), {"b": "y", 1: 2, "a": 2})
    # repr(('a', 2)) sorts before repr((1, 2)) because "('" < "(1"
    assert repr(f) == "PartialFn{'a'→2, 'b'→'y', 1→2}"
    assert repr(PartialFn(space([]), space([]), {})) == "PartialFn{}"


def test_unchecked_construction_matches_the_checked_one():
    sizes = [space(["a", "b"][:k]) for k in range(3)] + [space([1, "x"])]
    for dom in sizes:
        for cod in sizes:
            for values in itertools.product((None,) + cod.carrier, repeat=len(dom)):
                fast = PartialFn._from_values(dom, cod, values)
                checked = PartialFn(dom, cod, {x: y for x, y in zip(dom.carrier, values)
                                               if y is not None})
                assert fast == checked and hash(fast) == hash(checked)
                assert repr(fast) == repr(checked)
                assert fast.mapping == checked.mapping
                assert [fast(x) for x in dom.carrier] == list(values)


def test_composition_and_identity_laws():
    x, y = space(["a", "b"]), space(["c"])
    for f in all_partial_fns(x, y):
        assert compose(f, identity(x)) == f
        assert compose(identity(y), f) == f


def test_composition_associativity_exhaustive_size_two():
    a, b = space(["a1", "a2"]), space(["b1", "b2"])
    fs = list(all_partial_fns(a, b))
    gs = list(all_partial_fns(b, a))
    for f in fs:
        for g in gs:
            for h in fs:
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


# ---------------------------------------------------------------------------
# equalizers


def test_equalizer_of_equal_pair_is_identity():
    x, y = space(["a", "b"]), space(["c"])
    f = pfn(["a", "b"], ["c"], {"a": "c"})
    e, incl = equalizer(f, f)
    assert e == x and incl == identity(x)


def test_equalizer_definedness_example():
    f = pfn(["a", "b"], ["c"], {"a": "c", "b": "c"})
    g = pfn(["a", "b"], ["c"], {"a": "c"})
    e, incl = equalizer(f, g)
    assert e.carrier == ("a",)
    assert verify_equalizer(f, g, e, incl) == []


def test_equalizer_of_empty_pair_is_everything():
    x, y = space(["a", "b"]), space(["c"])
    f = g = empty_fn(x, y)
    e, _ = equalizer(f, g)
    assert e == x


def test_equalizer_requires_parallel_pair():
    with pytest.raises(InputError):
        equalizer(pfn(["a"], ["b"], {}), pfn(["a"], ["c"], {}))


# ---------------------------------------------------------------------------
# products and coproducts


def test_product_of_two_singletons_has_three_points():
    p, projs = product([space(["x"]), space(["y"])])
    assert len(p) == 3
    assert ("x", "y") in p.carrier
    assert verify_product([space(["x"]), space(["y"])], p, projs) == []


def test_empty_product_is_the_empty_space():
    p, projs = product([])
    assert len(p) == 0 and projs == []
    assert verify_product([], p, []) == []  # terminal object


def test_product_with_empty_factor():
    p, _ = product([space(["x"]), space([])])
    assert len(p) == 1
    (t,) = p.carrier
    assert t[0] == "x" and isinstance(t[1], Star)


def test_projections_undefined_exactly_on_stars():
    spaces = [space(["x1", "x2"]), space(["y"])]
    p, projs = product(spaces)
    for t in p.carrier:
        for i, pr in enumerate(projs):
            assert (pr(t) is None) == isinstance(t[i], Star)


def test_corrupted_product_reports_uniqueness_failure():
    spaces = [space(["x"]), space(["y"])]
    p, projs = product(spaces)
    bad = space(list(p.carrier) + [(Star(0), Star(1))])
    bad_projs = [PartialFn(bad, pr.cod, pr.mapping) for pr in projs]
    report = verify_product(spaces, bad, bad_projs)
    assert report and all("2 mediators" in line for line in report)


def test_coproduct_examples():
    c, injs = coproduct([space(["x"]), space(["y"])])
    assert len(c) == 2
    assert verify_coproduct([space(["x"]), space(["y"])], c, injs) == []
    c2, _ = coproduct([space([]), space(["a", "b"])])
    assert len(c2) == 2
    c3, injs3 = coproduct([space(["x"]), space(["y"]), space(["z"])])
    assert len(c3) == 3
    hit = {inj(x) for inj in injs3 for x in inj.dom.carrier}
    assert hit == set(c3.carrier)  # injections jointly surjective


# ---------------------------------------------------------------------------
# coequalizers


def test_coequalizer_merges_two_targets():
    f = pfn(["x"], ["y1", "y2"], {"x": "y1"})
    g = pfn(["x"], ["y1", "y2"], {"x": "y2"})
    q_space, qmap = coequalizer(f, g)
    assert q_space.carrier == (("y1", "y2"),)
    assert qmap.is_total()
    assert verify_coequalizer(f, g, q_space, qmap) == []


def test_coequalizer_removes_one_sided_class():
    f = pfn(["x"], ["y1", "y2"], {"x": "y1"})
    g = pfn(["x"], ["y1", "y2"], {})
    q_space, qmap = coequalizer(f, g)
    assert q_space.carrier == (("y2",),)
    assert qmap("y1") is None and qmap("y2") == ("y2",)
    assert verify_coequalizer(f, g, q_space, qmap) == []


def test_coequalizer_of_equal_pair_is_bijective():
    f = pfn(["x"], ["y1", "y2"], {"x": "y1"})
    q_space, qmap = coequalizer(f, f)
    assert len(q_space) == 2 and qmap.is_total()
    assert len(set(qmap(y) for y in ("y1", "y2"))) == 2
    assert verify_coequalizer(f, f, q_space, qmap) == []


# ---------------------------------------------------------------------------
# zero object and tensor


def test_empty_space_is_a_zero_object():
    zero = space([])
    for labels in ([], ["a"], ["a", "b"], ["a", "b", "c"]):
        a = space(labels)
        assert len(list(all_partial_fns(zero, a))) == 1
        assert len(list(all_partial_fns(a, zero))) == 1


def test_tensor_is_cartesian_with_singleton_unit():
    a, b = space(["a1", "a2"]), space(["b"])
    t = tensor(a, b)
    assert len(t) == 2
    i = unit_space()
    assert len(tensor(i, a)) == len(a)


def test_built_once_structures_are_the_plain_values():
    """tensor and full_system are kept per argument: each is what its
    definition builds, however the labels arrive, and the size guards
    still refuse on every call."""
    for a, b in itertools.product(small_spaces([1, "b", (0, "c")]), repeat=2):
        for _ in range(2):
            assert tensor(a, b) == space(itertools.product(a.carrier, b.carrier))
    labels = ["b", 1, "a"]
    built = finspace.system(labels, finspace.subsets(labels))
    for given in (labels, tuple(labels), iter(labels), labels):
        assert finspace.full_system(given) == built
    many = [f"e{i}" for i in range(17)]
    for _ in range(2):
        with pytest.raises(SizeBoundError):
            finspace.subsets(many)
        with pytest.raises(SizeBoundError):
            finspace.full_system(many)
        with pytest.raises(SizeBoundError):
            internal_hom(space(list("abcdefg")), space(list("pqrstuv")))


def test_tensor_coherence_isos_are_bijective_morphisms():
    a, b, c = space(["a1", "a2"]), space(["b"]), space(["c1", "c2"])
    al = associator(a, b, c)
    assert al.is_total() and len(set(al.mapping.values())) == len(al.dom.carrier)
    assert is_morphism(al)
    sy = symmetry(a, b)
    assert sy.is_total() and len(set(sy.mapping.values())) == len(sy.dom.carrier)
    assert is_morphism(sy)


def test_tensor_of_morphisms_needs_both_components():
    a, b = space(["a1", "a2"]), space(["b1", "b2"])
    f = pfn(["a1", "a2"], ["b1", "b2"], {"a1": "b1"})
    g = pfn(["a1", "a2"], ["b1", "b2"], {"a2": "b2"})
    fg = tensor_mor(f, g)
    assert fg(("a1", "a2")) == ("b1", "b2")
    assert fg(("a1", "a1")) is None
    assert fg(("a2", "a2")) is None


# ---------------------------------------------------------------------------
# internal hom, ev, curry


def test_internal_hom_counts():
    assert len(internal_hom(space(["x"]), space(["y"]))) == 1
    assert len(internal_hom(space(["x1", "x2"]), space(["y"]))) == 3
    assert len(internal_hom(space(["x"]), space(["y1", "y2"]))) == 2


def test_internal_hom_bound():
    with pytest.raises(SizeBoundError):
        internal_hom(space(list("abcdefg")), space(list("pqrstuv")))


@pytest.mark.parametrize("dom_size, cod_size, count", [
    (12, 1, 4096), (13, 1, 8192), (1, 4095, 4096), (1, 4096, 4097)])
def test_partial_fn_enumeration_is_guarded_past_4096(dom_size, cod_size, count):
    dom = space([f"d{i}" for i in range(dom_size)])
    cod = space([f"c{i}" for i in range(cod_size)])
    if count <= 4096:
        assert len(set(all_partial_fns(dom, cod))) == count
    else:
        with pytest.raises(SizeBoundError, match=f"refusing to enumerate {count} "):
            all_partial_fns(dom, cod)


def test_ev_on_singletons():
    x, y = space(["x"]), space(["y"])
    e = ev(x, y)
    hom = internal_hom(x, y)
    (point,) = hom.carrier
    assert e((point, "x")) == "y"


def test_ev_domain_size_matches_definedness_count():
    x, y = space(["x1", "x2"]), space(["y1", "y2"])
    e = ev(x, y)
    # frozen by enumeration: 8 nonempty partial maps, total defined points 12
    assert len(internal_hom(x, y)) == 8
    assert len(e.defined_on()) == 12


def test_curry_empty_and_total():
    z, x, y = space(["z"]), space(["x"]), space(["y"])
    g_empty = empty_fn(tensor(z, x), y)
    assert curry(g_empty, z, x, y).is_empty()
    g_total = PartialFn(tensor(z, x), y, {("z", "x"): "y"})
    h = curry(g_total, z, x, y)
    assert not h.is_empty()
    (point,) = internal_hom(x, y).carrier
    assert h("z") == point


def test_curry_factorization_equation():
    z, x, y = space(["z1", "z2"]), space(["x1", "x2"]), space(["y1"])
    rng = random.Random(3)
    raws = list(all_partial_fns(tensor(z, x), y))
    e = ev(x, y)
    for g in rng.sample(raws, min(20, len(raws))):
        h = curry(g, z, x, y)
        assert compose(e, tensor_mor(h, identity(x))) == g
        assert uncurry(h, z, x, y) == g


def test_curry_uncurry_bijection_counts():
    for nz, nx, ny in itertools.product(range(3), repeat=3):
        z = space([f"z{i}" for i in range(nz)])
        x = space([f"x{i}" for i in range(nx)])
        y = space([f"y{i}" for i in range(ny)])
        raws = list(all_partial_fns(tensor(z, x), y))
        curried = {curry(g, z, x, y) for g in raws}
        assert len(curried) == len(raws)
        hom = internal_hom(x, y)
        assert len(raws) == (len(y) + 1) ** (len(z) * len(x))
        assert len(list(all_partial_fns(z, hom))) == (len(hom) + 1) ** len(z)
        assert (len(y) + 1) ** (len(z) * len(x)) == (len(hom) + 1) ** len(z)


def checked_fingerprint(fn):
    return fn, hash(fn), fn.mapping, repr(fn)


def test_curry_and_uncurry_are_the_checked_construction():
    """curry builds its result unchecked: each transpose up to 2 points, of a
    g given its graph in reverse, equals PartialFn(...) of the sections'
    sorted graphs, and uncurry gives back PartialFn(...) of g's graph."""
    for z, x, y in itertools.product(small_spaces(["z", 0]), small_spaces([1, "b"]),
                                     small_spaces(["y", 2])):
        hom = internal_hom(x, y)
        for raw in all_partial_fns(tensor(z, x), y):
            g = PartialFn(raw.dom, y, dict(reversed(raw.mapping.items())))
            sections = {zz: {xx: yy for (zg, xx), yy in g.mapping.items() if zg == zz}
                        for zz in z.carrier}
            expected = PartialFn(z, hom, {zz: tuple(sorted(s.items(), key=repr))
                                          for zz, s in sections.items() if s})
            h = curry(g, z, x, y)
            assert checked_fingerprint(h) == checked_fingerprint(expected)
            assert (checked_fingerprint(uncurry(h, z, x, y))
                    == checked_fingerprint(PartialFn(tensor(z, x), y, g.mapping)))


def test_curry_and_uncurry_refuse_what_they_cannot_transpose():
    z, x, y = space(["z"]), space(["x"]), space(["y"])
    g = PartialFn(tensor(z, x), y, {("z", "x"): "y"})
    with pytest.raises(InputError):
        curry(g, z, space(["x", "w"]), y)
    with pytest.raises(InputError):
        curry(g, z, x, space(["y", "w"]))
    wide = space(["y", "w"])
    h = PartialFn(z, internal_hom(x, wide), {"z": (("x", "w"),)})
    with pytest.raises(InputError, match="'w' is not in the codomain"):
        uncurry(h, z, x, y)


def test_hom_family_conditions_on_restricted_systems():
    x_sys = system(["x1", "x2"], [["x1", "x2"]])
    y_sys = system(["y"], [[]])  # no nonempty member: union condition must fail
    w = [(("x1", "y"),)]
    conds = hom_family_conditions(w, x_sys, y_sys)
    assert not conds["union"]
    assert conds["cofinite"] and conds["pointwise"]
    y_ok = system(["y"], [[], ["y"]])
    assert hom_family_conditions(w, x_sys, y_ok)["union"]


# ---------------------------------------------------------------------------
# sweep


def test_verification_sweep_small():
    failures, summary = verification_sweep(
        max_size=2, seed=1, parallel_samples=25,
        hom_size=1, perp_size=3, family_samples=25)
    assert failures == []
    assert len(summary) == 5


def test_composition_associativity_exhaustive_size_three():
    a, b = space(["a1", "a2", "a3"]), space(["b1", "b2", "b3"])
    fs = list(all_partial_fns(a, b))
    gs = list(all_partial_fns(b, a))
    for f in fs:
        for g in gs:
            gf = compose(g, f)
            for h in fs:
                assert compose(h, gf) == compose(compose(h, g), f)
    for f in fs:
        assert compose(f, identity(a)) == f == compose(identity(b), f)


def powerset_is_morphism(f, dom_family, cod_family):
    """The image condition by its definition: the image of every finitary
    set is finitary, a left-out family being the full powerset."""
    if dom_family is None:
        dom_family = finspace.subsets(f.dom.carrier)
    if cod_family is None:
        cod_family = finspace.subsets(f.cod.carrier)
    return all(frozenset(f(x) for x in u if f(x) is not None) in set(cod_family)
               for u in dom_family)


def test_is_morphism_is_the_powerset_definition():
    """Every partial function up to 3+3 points, each system left out, given
    in full, or a random family that sometimes holds every image."""
    rng = random.Random(28)
    verdicts = collections.Counter()
    for nx, ny in itertools.product(range(4), repeat=2):
        x, y = space(["a", "b", "c"][:nx]), space(["p", "q", "r"][:ny])

        def families(sp):
            pool = finspace.subsets(sp.carrier)
            return [None, pool, *(rng.sample(pool, rng.randint(0, len(pool)))
                                  for _ in range(3))]
        for f in all_partial_fns(x, y):
            for dom_family, cod_family in itertools.product(families(x), families(y)):
                systems = [None if fam is None else system(sp.carrier, fam)
                           for fam, sp in ((dom_family, x), (cod_family, y))]
                expected = powerset_is_morphism(f, dom_family, cod_family)
                assert is_morphism(f, *systems) == expected, (f, dom_family, cod_family)
                verdicts[dom_family is None, expected] += 1
    assert all(verdicts[forced, verdict] for forced in (True, False)
               for verdict in (True, False))


def test_is_morphism_rejects_mismatched_systems():
    f = pfn(["a"], ["b"], {"a": "b"})
    wrong = system(["z"], [["z"]])
    with pytest.raises(InputError):
        is_morphism(f, wrong, None)


# ---------------------------------------------------------------------------
# pointwise mediator search against the raw enumeration


def raw_mediators(dom, cod, factors):
    """How many partial functions dom -> cod pass factors, trying every raw
    graph: the exhaustive search, the oracle for the pointwise one."""
    return sum(1 for k in all_partial_fns(dom, cod) if factors(k))


@pytest.fixture
def pointwise_counts(monkeypatch):
    """The uncapped mediator count of every search the verifiers run, in
    order."""
    counts = []
    real = finspace._mediators

    def spy(dom, cod, check, limit=2):
        counts.append(len(real(dom, cod, check, limit=10**9)))
        return real(dom, cod, check, limit)
    monkeypatch.setattr(finspace, "_mediators", spy)
    return counts


def small_spaces(labels):
    return [space(labels[:k]) for k in range(3)]


def parallel_pairs():
    for x in small_spaces(["a", "b"]):
        for y in small_spaces(["c", "d"]):
            fns = list(all_partial_fns(x, y))
            yield from itertools.product(fns, repeat=2)


def grow_domain(arrow, value):
    """arrow on its domain plus a point "extra" sent to value (None:
    undefined)."""
    bigger = space(list(arrow.dom.carrier) + ["extra"])
    extra = {"extra": value} if value is not None else {}
    return bigger, PartialFn(bigger, arrow.cod, {**arrow.mapping, **extra})


def grow_codomain(arrow):
    """arrow into its codomain plus a point "extra" that nothing reaches."""
    bigger = space(list(arrow.cod.carrier) + ["extra"])
    return bigger, PartialFn(arrow.dom, bigger, arrow.mapping)


def shrink_domain(arrow):
    """arrow on its domain minus the first point."""
    smaller = space(arrow.dom.carrier[1:])
    return smaller, PartialFn(smaller, arrow.cod, {x: y for x, y in arrow.mapping.items()
                                                  if x in smaller.carrier})


def equalizer_variants(f, g):
    """The equalizer, with an extra point (two mediators) and without a
    point (none)."""
    eq, incl = equalizer(f, g)
    yield eq, incl
    yield grow_domain(incl, incl(eq.carrier[0]) if len(eq) else None)
    if len(eq):
        yield shrink_domain(incl)


def coequalizer_variants(f, g):
    """The coequalizer, with a class nothing reaches (two mediators) and
    with its first point misrouted to another class or dropped (none)."""
    q, qmap = coequalizer(f, g)
    yield q, qmap
    yield grow_codomain(qmap)
    if len(f.cod):
        y0 = f.cod.carrier[0]
        others = [c for c in q.carrier if c != qmap(y0)]
        mapping = qmap.mapping
        if others:
            mapping[y0] = others[0]
        else:
            mapping.pop(y0, None)
        yield q, PartialFn(qmap.dom, q, mapping)


def test_pointwise_equalizer_and_coequalizer_counts_match_raw_enumeration(pointwise_counts):
    seen = set()
    for f, g in parallel_pairs():
        for eq, incl in equalizer_variants(f, g):
            expected = []
            for z in finspace._PROBES:
                for h in all_partial_fns(z, f.dom):
                    if compose(f, h) == compose(g, h):
                        expected.append(raw_mediators(
                            z, eq, lambda k, h=h: compose(incl, k) == h))
            pointwise_counts.clear()
            report = verify_equalizer(f, g, eq, incl)
            assert pointwise_counts == expected
            assert len([c for c in expected if c != 1]) == len(
                [line for line in report if "mediators" in line])
            seen.update(expected)
        for q, qmap in coequalizer_variants(f, g):
            expected = []
            for z in finspace._PROBES:
                for h in all_partial_fns(f.cod, z):
                    if compose(h, f) == compose(h, g):
                        expected.append(raw_mediators(
                            q, z, lambda k, h=h: compose(k, qmap) == h))
            pointwise_counts.clear()
            verify_coequalizer(f, g, q, qmap)
            assert pointwise_counts == expected
            seen.update(expected)
    assert {0, 1, 2} <= seen


def test_pointwise_product_and_coproduct_counts_match_raw_enumeration(pointwise_counts):
    seen = set()
    for left in small_spaces(["a", "b"]):
        for right in small_spaces(["p", "q"]):
            pair = [left, right]
            prod, projs = product(pair)
            # an extra point no projection sees (two mediators), a missing one (none)
            legs = [grow_domain(pr, None)[1] for pr in projs]
            variants = [(prod, projs), (legs[0].dom, legs)]
            if len(prod):
                legs = [shrink_domain(pr)[1] for pr in projs]
                variants.append((legs[0].dom, legs))
            for sp, legs in variants:
                expected = []
                for z in finspace._PROBES:
                    for cone in itertools.product(*[all_partial_fns(z, x) for x in pair]):
                        expected.append(raw_mediators(z, sp, lambda k, cone=cone: all(
                            compose(pi, k) == fi for pi, fi in zip(legs, cone))))
                pointwise_counts.clear()
                report = verify_product(pair, sp, legs)
                assert pointwise_counts == expected
                assert len(report) == len([c for c in expected if c != 1])
                seen.update(expected)

            cop, injs = coproduct(pair)
            # a point no injection reaches (two mediators), a source an
            # injection drops (none where the cocone is defined there)
            legs = [grow_codomain(inj)[1] for inj in injs]
            variants = [(cop, injs), (legs[0].cod, legs)]
            for i, inj in enumerate(injs):
                if len(inj.dom):
                    mapping = inj.mapping
                    del mapping[inj.dom.carrier[0]]
                    variants.append((cop, injs[:i] + [PartialFn(inj.dom, cop, mapping)]
                                     + injs[i + 1:]))
            for sp, legs in variants:
                expected = []
                for z in finspace._PROBES:
                    for cocone in itertools.product(*[all_partial_fns(x, z) for x in pair]):
                        expected.append(raw_mediators(sp, z, lambda k, cocone=cocone: all(
                            compose(k, si) == fi for si, fi in zip(legs, cocone))))
                pointwise_counts.clear()
                verify_coproduct(pair, sp, legs)
                assert pointwise_counts == expected
                seen.update(expected)
    assert {0, 1, 2} <= seen


# ---------------------------------------------------------------------------
# the verdict on the one-point probe against brute force up to 2 points


BRUTE_PROBES = [space(["z1", "z2"][:k]) for k in range(3)]


def factor_once(cones, candidates, legs_of):
    """Whether each cone is legs_of(k) for exactly one candidate k: every
    candidate is composed with the legs once, then each cone looked up."""
    counts = collections.Counter(legs_of(k) for k in candidates)
    return all(counts[tuple(cone)] == 1 for cone in cones)


def brute_limit(sp, legs, cones_from):
    """Whether each cone from each probe z up to 2 points is (leg . k) for
    exactly one k: z -> sp."""
    return all(factor_once(cones_from(z), all_partial_fns(z, sp),
                           lambda k: tuple(compose(leg, k) for leg in legs))
               for z in BRUTE_PROBES)


def brute_colimit(sp, legs, cocones_into):
    """Whether each cocone into each probe z up to 2 points is (k . leg) for
    exactly one k: sp -> z."""
    return all(factor_once(cocones_into(z), all_partial_fns(sp, z),
                           lambda k: tuple(compose(k, leg) for leg in legs))
               for z in BRUTE_PROBES)


def product_mutations(pair):
    """The product, one missing an X×Y point, and one with a projection left
    undefined at a point."""
    prod, projs = product(pair)
    yield None, prod, projs
    if all(len(x) for x in pair):
        t = tuple(x.carrier[0] for x in pair)
        smaller = space([u for u in prod.carrier if u != t])
        yield "product missing an X×Y point", smaller, [
            PartialFn(smaller, pr.cod, {u: v for u, v in pr.mapping.items() if u != t})
            for pr in projs]
    if len(pair[0]):
        mapping = projs[0].mapping
        del mapping[projs[0].defined_on()[0]]
        yield "projection undefined at a point", prod, [PartialFn(prod, pair[0], mapping),
                                                        *projs[1:]]


def coproduct_mutations(pair):
    """The coproduct, and one with an injection left undefined at a point."""
    cop, injs = coproduct(pair)
    yield None, cop, injs
    if len(pair[0]):
        mapping = injs[0].mapping
        del mapping[pair[0].carrier[0]]
        yield "partial coproduct injection", cop, [PartialFn(pair[0], cop, mapping), *injs[1:]]


def equalizer_mutations(f, g):
    """The equalizer, and one that includes a point where f and g disagree."""
    eq, incl = equalizer(f, g)
    yield None, eq, incl
    disagree = [x for x in f.dom.carrier if f(x) != g(x)]
    if disagree:
        bigger = space([*eq.carrier, disagree[0]])
        yield "equalizer with a disagreeing point", bigger, PartialFn(
            bigger, f.dom, {x: x for x in bigger.carrier})


def coequalizer_mutations(f, g):
    """The coequalizer, and one that merges its first two classes."""
    q, qmap = coequalizer(f, g)
    yield None, q, qmap
    if len(q) >= 2:
        first, second = q.carrier[:2]
        merged = space(q.carrier[1:])
        yield "coequalizer merging two classes", merged, PartialFn(
            f.cod, merged, {y: second if c == first else c for y, c in qmap.mapping.items()})


def test_one_point_verdict_is_the_brute_force_verdict_up_to_two_points():
    """For every space pair up to 3+3 points and every parallel pair up to
    2+2, the report is empty exactly when the construction is a (co)cone
    and every (co)cone of every probe up to 2 points has one mediator by
    brute force: true on the real constructions, false on each mutation."""
    seen = set()

    def agree(mutation, report, brute_ok):
        assert (report == []) == brute_ok == (mutation is None), (mutation, report)
        seen.add(mutation)

    for nx, ny in itertools.product(range(4), repeat=2):
        pair = [space(["a", "b", "c"][:nx]), space(["p", "q", "r"][:ny])]
        for mutation, sp, legs in product_mutations(pair):
            agree(mutation, verify_product(pair, sp, legs), brute_limit(
                sp, legs, lambda z: itertools.product(*[all_partial_fns(z, x) for x in pair])))
        for mutation, sp, legs in coproduct_mutations(pair):
            agree(mutation, verify_coproduct(pair, sp, legs), brute_colimit(
                sp, legs, lambda z: itertools.product(*[all_partial_fns(x, z) for x in pair])))
    for f, g in parallel_pairs():
        for mutation, eq, incl in equalizer_mutations(f, g):
            agree(mutation, verify_equalizer(f, g, eq, incl),
                  compose(f, incl) == compose(g, incl) and brute_limit(eq, [incl], lambda z: [
                      (h,) for h in all_partial_fns(z, f.dom) if compose(f, h) == compose(g, h)]))
        for mutation, q, qmap in coequalizer_mutations(f, g):
            agree(mutation, verify_coequalizer(f, g, q, qmap),
                  compose(qmap, f) == compose(qmap, g) and brute_colimit(q, [qmap], lambda z: [
                      (h,) for h in all_partial_fns(f.cod, z) if compose(h, f) == compose(h, g)]))
    assert seen == {None, "product missing an X×Y point", "projection undefined at a point",
                    "partial coproduct injection", "equalizer with a disagreeing point",
                    "coequalizer merging two classes"}
