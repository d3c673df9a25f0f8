"""Finite models of finiteness spaces and finitary partial functions.

A finiteness space is a set with a family of "finitary" subsets closed
under double dual, where the dual of a family is every subset meeting
each member finitely.  On a finite carrier the unique such structure is
the full powerset -- the dual of anything is everything, and ``perp``
returns exactly that -- so this module plays two roles:

* the ``SetSystem`` type carries arbitrary (possibly non-closed) families
  so the image conditions of morphisms and hom members can be checked
  against hand-built systems where they actually fail;
* the categorical constructions (equalizer, product with adjoined
  points, three-stage coequalizer, coproduct, internal hom, evaluation,
  currying) run on the forced structure, where their universal
  properties are verified by counting every mediating partial function
  of every cone of the one-point probe.  Composition is pointwise, so
  the mediators of a cone are a product of per-point choices, each read
  from a table of the fixed legs, and one point is enough.

Composition is partial-function composition; the empty partial function
is the zero morphism because the empty space is a zero object.

Spaces and systems are immutable, so ``tensor``, ``internal_hom`` and the
forced structure (``full_system``, which ``perp`` returns) are built once
per argument per process.  Only values the library builds itself skip
``PartialFn``'s checks; what a caller hands in (``PartialFn(...)``,
``uncurry``, the JSON codecs) is checked.

A note on the total-function variant: if morphisms are required to be
total, the category loses its terminal object once some finitary set is
infinite (the constant map onto a point has the whole carrier as a
pointwise preimage, which is then not dual-finitary), so tensoring with
the empty space has no right adjoint and the category is not closed.
Finite carriers cannot witness this; we record it here and work with
partial functions, where limits, colimits and an internal hom all exist.
"""

from __future__ import annotations

import functools
import itertools
import random

from .errors import InputError, SizeBoundError
from .values import Value

_SYSTEM_CAP = 16  # 2^|X| family enumeration guard
_FN_CAP = 4096  # (|Y|+1)^|X| partial-function enumeration guard


# ---------------------------------------------------------------------------
# spaces and set systems


class FinSpace(Value):
    """A finite carrier; its finiteness structure is forced (full powerset)."""

    carrier: tuple

    def __init__(self, carrier):  # by hand: the checker builds hundreds a sweep
        self._store(carrier)

    def __len__(self):
        return len(self.carrier)

    def __repr__(self):
        return f"FinSpace({list(self.carrier)!r})"


def space(labels) -> FinSpace:
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise InputError("space carrier has duplicate labels")
    return FinSpace(tuple(sorted(labels, key=repr)))


class SetSystem(Value):
    """A carrier with an explicit family of subsets, not necessarily closed."""

    carrier: tuple
    family: tuple

    def __init__(self, carrier, family):
        labels = set(carrier)
        for u in family:
            if not u <= labels:
                raise InputError(f"family member {set(u)!r} leaves the carrier")
        self._store(carrier, family)


def system(labels, family) -> SetSystem:
    labels = sorted(set(labels), key=repr)
    # each member by its sorted label keys: independent of the hash seed
    fam = sorted({frozenset(u) for u in family}, key=lambda u: sorted(map(repr, u)))
    return SetSystem(tuple(labels), tuple(fam))


def full_system(labels) -> SetSystem:
    """The forced finiteness structure on a finite carrier: all subsets."""
    return _full_system(tuple(labels))


@functools.cache
def _full_system(labels: tuple) -> SetSystem:
    return system(labels, subsets(labels))


def subsets(labels) -> list[frozenset]:
    labels = list(labels)
    if len(labels) > _SYSTEM_CAP:
        raise SizeBoundError(f"refusing to enumerate 2^{len(labels)} subsets")
    out = []
    for r in range(len(labels) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(labels, r))
    return out


def perp(s: SetSystem) -> SetSystem:
    """The dual family: subsets meeting every family member finitely.  On a
    finite carrier every subset does, so it is the full powerset."""
    return full_system(s.carrier)


# ---------------------------------------------------------------------------
# partial functions


class PartialFn:
    """A partial function between finite spaces, the morphisms of the model."""

    __slots__ = ("dom", "cod", "_map", "_id")

    def __init__(self, dom: FinSpace, cod: FinSpace, mapping):
        mapping = dict(mapping)
        dom_set, cod_set = set(dom.carrier), set(cod.carrier)
        for x, y in mapping.items():
            if x not in dom_set:
                raise InputError(f"{x!r} is not in the domain carrier")
            if y not in cod_set:
                raise InputError(f"{y!r} is not in the codomain carrier")
        self.dom, self.cod, self._map = dom, cod, mapping
        self._id = (dom.carrier, cod.carrier, tuple(map(mapping.get, dom.carrier)))

    @classmethod
    def _from_values(cls, dom: FinSpace, cod: FinSpace, values: tuple) -> PartialFn:
        """The function taking values[i] at dom.carrier[i], None meaning
        undefined, unchecked: each value must be None or in cod.carrier.
        PartialFn(...) is the checked boundary."""
        fn = cls.__new__(cls)
        fn.dom, fn.cod = dom, cod
        fn._map = {x: y for x, y in zip(dom.carrier, values) if y is not None}
        fn._id = (dom.carrier, cod.carrier, values)
        return fn

    def __call__(self, x):
        """The value at x, or None where undefined."""
        return self._map.get(x)

    @property
    def mapping(self) -> dict:
        return dict(self._map)

    def defined_on(self) -> tuple:
        return tuple(x for x in self.dom.carrier if x in self._map)

    def is_total(self) -> bool:
        return len(self._map) == len(self.dom.carrier)

    def is_empty(self) -> bool:
        return not self._map

    def __eq__(self, other):
        return isinstance(other, PartialFn) and self._id == other._id

    def __hash__(self):
        return hash(self._id)

    def __repr__(self):
        items = ", ".join(f"{x!r}→{y!r}" for x, y in sorted(self._map.items(), key=repr))
        return f"PartialFn{{{items}}}"


def identity(sp: FinSpace) -> PartialFn:
    return PartialFn(sp, sp, {x: x for x in sp.carrier})


def empty_fn(dom: FinSpace, cod: FinSpace) -> PartialFn:
    """The zero morphism."""
    return PartialFn(dom, cod, {})


def compose(outer: PartialFn, inner: PartialFn) -> PartialFn:
    """outer after inner; defined where both stages are."""
    if inner.cod != outer.dom:
        raise InputError("composition mismatch: inner codomain != outer domain")
    return PartialFn._from_values(inner.dom, outer.cod,
                                 tuple(outer(inner(x)) for x in inner.dom.carrier))


def all_partial_fns(dom: FinSpace, cod: FinSpace):
    """Every partial function dom -> cod, lazily: (|cod|+1)^|dom| of them,
    refused past _FN_CAP before any is built."""
    count = (len(cod) + 1) ** len(dom)
    if count > _FN_CAP:
        raise SizeBoundError(f"refusing to enumerate {count} partial functions")
    return (PartialFn._from_values(dom, cod, values)
            for values in itertools.product((None,) + cod.carrier, repeat=len(dom)))


def is_morphism(f: PartialFn, dom_system: SetSystem | None = None,
                cod_system: SetSystem | None = None) -> bool:
    """Check the two finitary conditions of a morphism: the image of every
    finitary set is finitary, and every pointwise preimage is dual-finitary.

    A left-out system is the forced full powerset, never built: into it
    every image is finitary, and from it the images are the subsets of f's
    image.  Hand-restricted systems exercise the image condition for real.
    The preimage condition always holds: the dual of any family on a finite
    carrier is the full powerset (see ``perp``), which holds every preimage.
    """
    for given, sp in ((dom_system, f.dom), (cod_system, f.cod)):
        if given is not None and given.carrier != sp.carrier:
            raise InputError("set-system carriers do not match the morphism's spaces")
    if cod_system is None:
        return True
    cod_family = set(cod_system.family)
    if dom_system is None:  # a family of fewer than 2^|image| sets cannot hold them all
        image = {f(x) for x in f.defined_on()}
        return len(cod_family) >= 2 ** len(image) and set(subsets(image)) <= cod_family
    return all(frozenset(f(x) for x in u if f(x) is not None) in cod_family
               for u in dom_system.family)


# ---------------------------------------------------------------------------
# tensor structure


@functools.cache
def tensor(a: FinSpace, b: FinSpace) -> FinSpace:
    return space(itertools.product(a.carrier, b.carrier))


def unit_space() -> FinSpace:
    return space(["*"])


def tensor_mor(f: PartialFn, g: PartialFn) -> PartialFn:
    mapping = {}
    for x in f.defined_on():
        for y in g.defined_on():
            mapping[(x, y)] = (f(x), g(y))
    return PartialFn(tensor(f.dom, g.dom), tensor(f.cod, g.cod), mapping)


def associator(a: FinSpace, b: FinSpace, c: FinSpace) -> PartialFn:
    """((x,y),z) -> (x,(y,z)); a total bijection on carriers."""
    dom = tensor(tensor(a, b), c)
    cod = tensor(a, tensor(b, c))
    return PartialFn(dom, cod, {((x, y), z): (x, (y, z))
                                for x in a.carrier for y in b.carrier for z in c.carrier})


def symmetry(a: FinSpace, b: FinSpace) -> PartialFn:
    return PartialFn(tensor(a, b), tensor(b, a),
                     {(x, y): (y, x) for x in a.carrier for y in b.carrier})


# ---------------------------------------------------------------------------
# limits and colimits


class Star(Value):
    """The adjoined undefinedness point of one product coordinate."""

    index: int

    def __repr__(self):
        return f"*{self.index}"


def equalizer(f: PartialFn, g: PartialFn) -> tuple[FinSpace, PartialFn]:
    """The subspace where f and g agree as partial functions.

    Agreement at a point means both undefined, or both defined and equal.
    """
    _require_parallel(f, g)
    members = [x for x in f.dom.carrier if f(x) == g(x)]
    eq_space = space(members)
    incl = PartialFn(eq_space, f.dom, {x: x for x in members})
    return eq_space, incl


def product(spaces: list[FinSpace]) -> tuple[FinSpace, list[PartialFn]]:
    """Product: tuples over carriers with an adjoined point each, minus the
    all-adjoined tuple; projections are undefined on adjoined coordinates."""
    primed = [sp.carrier + (Star(i),) for i, sp in enumerate(spaces)]
    all_star = tuple(Star(i) for i in range(len(spaces)))
    tuples = [t for t in itertools.product(*primed) if t != all_star]
    prod = space(tuples)
    projections = []
    for i, sp in enumerate(spaces):
        projections.append(PartialFn(
            prod, sp, {t: t[i] for t in tuples if not isinstance(t[i], Star)}))
    return prod, projections


def coproduct(spaces: list[FinSpace]) -> tuple[FinSpace, list[PartialFn]]:
    """Disjoint union with total injections."""
    labels = [(i, x) for i, sp in enumerate(spaces) for x in sp.carrier]
    cop = space(labels)
    injections = [
        PartialFn(sp, cop, {x: (i, x) for x in sp.carrier})
        for i, sp in enumerate(spaces)
    ]
    return cop, injections


def coequalizer(f: PartialFn, g: PartialFn) -> tuple[FinSpace, PartialFn]:
    """Three-stage coequalizer of a parallel pair.

    Stage one quotients the codomain by the equivalence generated by
    f(x) ~ g(x) where both are defined.  Stage two removes every class hit
    by only one leg (those points must map to "undefined" in any cocone).
    Stage three keeps the classes whose preimage is dual-finitary; on a
    finite carrier the dual is the full powerset (see ``perp``), so it
    keeps them all and is not computed.  The quotient map is partial:
    undefined on discarded classes.
    """
    _require_parallel(f, g)
    carrier = f.cod.carrier
    parent = {y: y for y in carrier}

    def find(y):
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        return y

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    dom_f, dom_g = set(f.defined_on()), set(g.defined_on())
    for x in dom_f & dom_g:
        union(f(x), g(x))

    classes = {}
    for y in carrier:
        classes.setdefault(find(y), []).append(y)
    # class labels as sorted tuples keep output deterministic
    label_of = {root: tuple(sorted(members, key=repr))
                for root, members in classes.items()}

    one_sided = {label_of[find(f(x))] for x in dom_f - dom_g}
    one_sided |= {label_of[find(g(x))] for x in dom_g - dom_f}
    q_space = space([lbl for lbl in label_of.values() if lbl not in one_sided])
    qmap = PartialFn(f.cod, q_space,
                     {y: label_of[find(y)] for y in carrier
                      if label_of[find(y)] not in one_sided})
    return q_space, qmap


def _require_parallel(f: PartialFn, g: PartialFn):
    if f.dom != g.dom or f.cod != g.cod:
        raise InputError("not a parallel pair")


# ---------------------------------------------------------------------------
# internal hom


def _graph_label(mapping) -> tuple:
    return tuple(sorted(mapping.items(), key=repr))


@functools.cache
def internal_hom(x: FinSpace, y: FinSpace) -> FinSpace:
    """The space of nonempty partial functions x -> y.

    The carrier has (|y|+1)^|x| - 1 points, under ``all_partial_fns``'s guard.
    """
    labels = [_graph_label(h.mapping) for h in all_partial_fns(x, y) if not h.is_empty()]
    return space(labels)


def hom_family_conditions(w, dom_system: SetSystem, cod_system: SetSystem) -> dict:
    """The three structure conditions for a family member of the hom space.

    w is a collection of graph labels.  Condition "union" asks that the
    union of images of each finitary set is finitary (can fail on
    restricted systems).  The two finiteness conditions ask that finitely
    many members of w meet a given pair of sets; w is finite, so they hold.
    """
    w = [dict(lbl) for lbl in w]
    cod_family = set(cod_system.family)
    union_ok = True
    for u in dom_system.family:
        image = frozenset(y for h in w for x, y in h.items() if x in u)
        if image not in cod_family:
            union_ok = False
    return {"union": union_ok, "cofinite": True, "pointwise": True}


def ev(x: FinSpace, y: FinSpace) -> PartialFn:
    """Evaluation hom(x,y) (x) tensor x -> y: (h, p) -> h(p) where defined."""
    hom = internal_hom(x, y)
    dom = tensor(hom, x)
    mapping = {}
    for lbl in hom.carrier:
        graph = dict(lbl)
        for p, q in graph.items():
            mapping[(lbl, p)] = q
    return PartialFn(dom, y, mapping)


def curry(g: PartialFn, z: FinSpace, x: FinSpace, y: FinSpace) -> PartialFn:
    """Transpose z tensor x -> y into z -> hom(x,y).

    Undefined at z-points whose section is the empty partial function.
    """
    if g.dom != tensor(z, x) or g.cod != y:
        raise InputError("curry expects a morphism from the tensor of z and x into y")
    values = []
    for zz in z.carrier:
        section = {xx: yy for xx in x.carrier if (yy := g((zz, xx))) is not None}
        values.append(_graph_label(section) if section else None)
    # each label is the graph of a nonempty partial function x -> y, so a
    # point of internal_hom(x, y): no need for PartialFn's checks
    return PartialFn._from_values(z, internal_hom(x, y), tuple(values))


def uncurry(h: PartialFn, z: FinSpace, x: FinSpace, y: FinSpace) -> PartialFn:
    mapping = {}
    for zz in h.defined_on():
        for xx, yy in dict(h(zz)).items():
            mapping[(zz, xx)] = yy
    return PartialFn(tensor(z, x), y, mapping)


# ---------------------------------------------------------------------------
# universal-property verification


def _mediators(dom: FinSpace, cod: FinSpace, check, limit=2) -> list[tuple]:
    """The mediators dom -> cod that check allows, at most `limit` of them,
    each as its values on dom.carrier (PartialFn._from_values).

    check(x) lists the values in (None,) + cod.carrier that a mediator may
    take at x; None is undefinedness.  Composition of partial functions is
    pointwise, so each universal property below is a conjunction of
    per-point conditions, and its mediators are exactly the Cartesian
    product of these lists: one lookup per point instead of
    (|cod|+1)^|dom| whole graphs.  check(None) asks the same of the
    undefined point, which every partial function sends to itself, so
    without None in that list there is no mediator.  Existence needs one
    hit and uniqueness fails at two, hence `limit`.  The verifiers run it
    on every cone of the one-point probe: mediators are chosen point by
    point, so one point is enough.
    """
    if None not in check(None):
        return []
    allowed = [check(x) for x in dom.carrier]
    return list(itertools.islice(itertools.product(*allowed), limit))


def _post_check(cod: FinSpace, legs):
    """For fixed legs, cones -> a check for _mediators allowing k with
    leg . k == cone for every (leg, cone).  The legs are tabulated once,
    each v in (None,) + cod.carrier filed in order under its leg values;
    check(z) reads the entry for the cone's values at z, and check(None)
    the all-None one, since leg(None) is None."""
    table = {}
    for v in (None,) + cod.carrier:
        table.setdefault(tuple(leg(v) for leg in legs), []).append(v)

    def for_cones(cones):
        return lambda z: table.get(tuple([cone(z) for cone in cones]), [])
    return for_cones


def _pre_check(cod: FinSpace, arrows):
    """For fixed arrows, cocones -> a check for _mediators allowing k with
    k . arrow == cocone for every (arrow, cocone).  The sources of each c
    are tabulated once as (arrow index, point), None collecting those an
    arrow leaves undefined; at c the cocones' values on them allow every
    value if there are none, that value if they agree, and nothing
    otherwise."""
    everything = [None, *cod.carrier]
    sources = {}
    for i, arrow in enumerate(arrows):
        for x in arrow.dom.carrier:
            sources.setdefault(arrow(x), []).append((i, x))

    def for_cocones(cocones):
        def check(c):
            allowed = everything
            for i, x in sources.get(c, ()):
                value = cocones[i](x)
                if allowed is everything:
                    allowed = [value]
                elif allowed[0] != value:
                    return []
            return allowed
        return check
    return for_cocones


# Composition is pointwise, so a mediator is chosen point by point: a cone
# from any probe factors uniquely iff its restriction to each point does, and
# a cocone into any probe iff each of its fibers, a cocone into one point,
# does.  So every cone of the one-point probe checks every probe; the empty
# space's one (co)cone has one mediator whatever the construction.
_PROBES = (space(["z1"]),)


def verify_equalizer(f: PartialFn, g: PartialFn, eq_space: FinSpace,
                     incl: PartialFn) -> list[str]:
    """Check the equalizing cone and, for every probe cone, the unique
    mediator through the inclusion."""
    problems = []
    if compose(f, incl) != compose(g, incl):
        problems.append("inclusion does not equalize the pair")
    through = _post_check(eq_space, [incl])
    for z in _PROBES:
        for h in all_partial_fns(z, f.dom):
            if any(f(h(x)) != g(h(x)) for x in z.carrier):
                continue
            hits = _mediators(z, eq_space, through([h]))
            if len(hits) != 1:
                problems.append(
                    f"equalizer mediation failed for cone {h!r}: {len(hits)} mediators")
    return problems


def verify_product(spaces: list[FinSpace], prod: FinSpace,
                   projections: list[PartialFn]) -> list[str]:
    """For every probe cone, count mediators into the product."""
    problems = []
    through = _post_check(prod, projections)
    for z in _PROBES:
        for cone in itertools.product(*[all_partial_fns(z, sp) for sp in spaces]):
            hits = _mediators(z, prod, through(cone))
            if len(hits) != 1:
                problems.append(
                    f"product mediation failed for a cone from {z!r}: {len(hits)} mediators")
    return problems


def verify_coproduct(spaces: list[FinSpace], cop: FinSpace,
                     injections: list[PartialFn]) -> list[str]:
    problems = []
    for z in _PROBES:
        through = _pre_check(z, injections)
        for cocone in itertools.product(*[all_partial_fns(sp, z) for sp in spaces]):
            hits = _mediators(cop, z, through(cocone))
            if len(hits) != 1:
                problems.append(
                    f"coproduct mediation failed for a cocone into {z!r}: {len(hits)} mediators")
    return problems


def verify_coequalizer(f: PartialFn, g: PartialFn, q_space: FinSpace,
                       qmap: PartialFn) -> list[str]:
    """Check the coequalizing cocone and, for every probe cocone h, which
    coequalizes iff h(a) == h(b) on each distinct (a, b) = (f(x), g(x)), the
    unique mediator through the quotient map."""
    problems = []
    if compose(qmap, f) != compose(qmap, g):
        problems.append("quotient map does not coequalize the pair")
    pairs = {(f(x), g(x)) for x in f.dom.carrier}
    for z in _PROBES:
        through = _pre_check(z, [qmap])
        for h in all_partial_fns(f.cod, z):
            if any(h(a) != h(b) for a, b in pairs):
                continue
            hits = _mediators(q_space, z, through([h]))
            if len(hits) != 1:
                problems.append(
                    f"coequalizer mediation failed for cocone {h!r}: {len(hits)} mediators")
    return problems


# ---------------------------------------------------------------------------
# JSON codecs for the CLI checker


def _labels_from_json(value, what) -> list:
    """A JSON list of point labels; null is refused, as None is undefinedness."""
    if not isinstance(value, list) or not all(isinstance(x, (str, int, float)) for x in value):
        raise InputError(f"{what} must be a list of string or number labels, got {value!r}")
    return value


def space_from_json(obj) -> FinSpace:
    if not isinstance(obj, dict) or "carrier" not in obj:
        raise InputError('space JSON needs a "carrier" list')
    return space(_labels_from_json(obj["carrier"], "carrier"))


def system_from_json(obj) -> SetSystem:
    """A set system from {"carrier": [...], "family": [[...], ...]}.

    Without an explicit family the forced structure (all subsets) is used.
    """
    sp = space_from_json(obj)
    if "family" not in obj:
        return full_system(sp.carrier)
    if not isinstance(obj["family"], list):
        raise InputError("family must be a list of label lists")
    return system(sp.carrier, [_labels_from_json(u, "family member") for u in obj["family"]])


def partial_fn_from_json(obj, dom: FinSpace, cod: FinSpace) -> PartialFn:
    if not isinstance(obj, dict) or not isinstance(obj.get("graph"), dict):
        raise InputError('morphism JSON needs a "graph" object')
    graph = obj["graph"]
    _labels_from_json(list(graph.values()), "graph")
    return PartialFn(dom, cod, graph)


# ---------------------------------------------------------------------------
# seeded verification sweep


def _random_parallel_pair(rng: random.Random, max_size: int):
    letters = ["a", "b", "c", "d"]
    nx = rng.randint(0, max_size)
    ny = rng.randint(0, max_size)
    x = space(letters[:nx])
    y = space(letters[:ny])

    def rand_fn():
        mapping = {}
        for lbl in x.carrier:
            pick = rng.randint(0, len(y.carrier))
            if pick > 0:
                mapping[lbl] = y.carrier[pick - 1]
        return PartialFn(x, y, mapping)

    return rand_fn(), rand_fn()


def verification_sweep(max_size: int = 3, seed: int = 0,
                       parallel_samples: int = 500,
                       hom_size: int = 2, perp_size: int = 4,
                       family_samples: int = 200) -> tuple[list[str], list[str]]:
    """Run the whole category test battery; returns (failures, summary).

    Equalizers and coequalizers run on seeded random parallel pairs;
    products and coproducts on every pair of carrier sizes up to max_size;
    each universal property is checked on every cone of the one-point
    probe, which is enough because composition is pointwise;
    the curry/uncurry bijection is counted exactly up to hom_size; the
    dual-operator laws are sampled over random families up to perp_size.
    """
    if not 0 <= max_size <= 3:
        raise SizeBoundError("verification sweep supports carrier sizes 0..3")
    rng = random.Random(seed)
    failures: list[str] = []
    summary: list[str] = []

    for _ in range(parallel_samples):
        f, g = _random_parallel_pair(rng, max_size)
        eq_space, incl = equalizer(f, g)
        failures += verify_equalizer(f, g, eq_space, incl)
        q_space, qmap = coequalizer(f, g)
        failures += verify_coequalizer(f, g, q_space, qmap)
    summary.append(f"equalizers+coequalizers: {parallel_samples} parallel pairs")

    letters = ["a", "b", "c"]
    others = ["p", "q", "r"]
    pair_count = 0
    for nx in range(max_size + 1):
        for ny in range(max_size + 1):
            pair = [space(letters[:nx]), space(others[:ny])]
            prod, projs = product(pair)
            failures += verify_product(pair, prod, projs)
            cop, injs = coproduct(pair)
            failures += verify_coproduct(pair, cop, injs)
            pair_count += 1
    prod0, _ = product([])
    if len(prod0) != 0:
        failures.append("empty product is not the empty space")
    summary.append(f"products+coproducts: {pair_count} space pairs, empty product checked")

    bijections = 0
    for nz in range(hom_size + 1):
        for nx in range(hom_size + 1):
            for ny in range(hom_size + 1):
                z = space([f"z{i}" for i in range(nz)])
                x = space([f"x{i}" for i in range(nx)])
                y = space([f"y{i}" for i in range(ny)])
                tens = tensor(z, x)
                raw = list(all_partial_fns(tens, y))
                curried = [curry(gg, z, x, y) for gg in raw]
                if len(set(curried)) != len(raw):
                    failures.append(f"curry not injective at sizes ({nz},{nx},{ny})")
                back = [uncurry(h, z, x, y) for h in curried]
                if back != raw:
                    failures.append(f"uncurry(curry) is not the identity at ({nz},{nx},{ny})")
                hom = internal_hom(x, y)
                count_direct = (len(y) + 1) ** (len(z) * len(x))
                count_hom = (len(hom) + 1) ** len(z)
                if count_direct != count_hom:
                    failures.append(f"hom-tensor count mismatch at ({nz},{nx},{ny})")
                bijections += 1
    summary.append(f"curry/uncurry bijection: {bijections} size combinations")

    fam_checked = 0
    for _ in range(family_samples):
        n = rng.randint(0, perp_size)
        labels = [f"e{i}" for i in range(n)]
        pool = subsets(labels)
        fam = rng.sample(pool, rng.randint(0, len(pool)))
        sys = system(labels, fam)
        once = perp(sys)
        twice = perp(once)
        thrice = perp(twice)
        if not set(sys.family) <= set(twice.family):
            failures.append(f"family not contained in its double dual: {fam!r}")
        if set(thrice.family) != set(once.family):
            failures.append(f"triple dual differs from single dual: {fam!r}")
        fam_checked += 1
    summary.append(f"dual-operator laws: {fam_checked} sampled families")

    zero = space([])
    for k in range(max_size + 1):
        a = space(letters[:k])
        if len(list(all_partial_fns(zero, a))) != 1 or len(list(all_partial_fns(a, zero))) != 1:
            failures.append(f"empty space is not a zero object against size {k}")
    summary.append("zero object: checked against all sizes")

    return failures, summary
