"""Value semantics of the library's immutable classes, and what a CLI start
imports.

Carriers, descriptors, rings, monoids, posets and finite spaces are values:
equal when they are of one class with equal fields, hashed as their field
tuple (so set and dict orders, and the outputs built from them, do not
depend on object identity), shown by a fixed repr, and read-only.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import genseries
from genseries import (All, FinitePomonoid, FinitePoset, FiniteSet, FreeWords,
                       GridTail, IntDiscrete, IntRing, IntUsual, Mat2Ring,
                       ModRing, NatDiscrete, NatUsual, OrderClassification,
                       PosNatDivisibility, PosNatMulUsual, RationalGrid,
                       RationalRing, TableMonoid, TailGE, Truncated, from_terms,
                       nat)
from genseries.errors import DescriptorError, InputError
from genseries.finspace import FinSpace, SetSystem, Star
from genseries.monoids import _NatMonoid


def _chain2():
    return FinitePoset((0, 1), ((True, True), (False, True)))


# class, field values in order, and the repr of the instance they build
CASES = [
    (FiniteSet, {"elements": frozenset({0, 5, 7})},
     "FiniteSet(elements=frozenset({0, 5, 7}))"),
    (All, {}, "All()"),
    (GridTail, {"a": -3, "n": 2}, "GridTail(a=-3, n=2)"),
    (TailGE, {"a": 4}, "TailGE(a=4)"),
    (NatUsual, {}, "NatUsual()"),
    (NatDiscrete, {}, "NatDiscrete()"),
    (IntUsual, {}, "IntUsual()"),
    (IntDiscrete, {}, "IntDiscrete()"),
    (PosNatMulUsual, {}, "PosNatMulUsual()"),
    (PosNatDivisibility, {}, "PosNatDivisibility()"),
    (RationalGrid, {}, "RationalGrid()"),
    (FreeWords, {"alphabet": ("a", "b")}, "FreeWords(alphabet=('a', 'b'))"),
    (Truncated, {"n": 3}, "Truncated(n=3)"),
    (IntRing, {}, "IntRing()"),
    (RationalRing, {}, "RationalRing()"),
    (ModRing, {"modulus": 7}, "mod7"),
    (Mat2Ring, {}, "Mat2Ring()"),
    (OrderClassification,
     {"artinian": True, "noetherian": False, "narrow": True, "finite": False},
     "OrderClassification(artinian=True, noetherian=False, narrow=True, finite=False)"),
    (FinitePoset, {"elements": (0, 1), "leq": ((True, True), (False, True))},
     "FinitePoset(elements=(0, 1), leq=((True, True), (False, True)))"),
    (FinitePomonoid, {"poset": _chain2(), "cayley": ((0, 1), (1, 1)), "unit_index": 0},
     "FinitePomonoid(poset=FinitePoset(elements=(0, 1), leq=((True, True), (False, True))), "
     "cayley=((0, 1), (1, 1)), unit_index=0)"),
    (FinSpace, {"carrier": ("a", "b")}, "FinSpace(['a', 'b'])"),
    (SetSystem, {"carrier": ("a", "b"), "family": (frozenset(), frozenset({"a"}))},
     "SetSystem(carrier=('a', 'b'), family=(frozenset(), frozenset({'a'})))"),
    (Star, {"index": 2}, "*2"),
    (_NatMonoid, {"carrier": NatUsual()}, "_NatMonoid(carrier=NatUsual())"),
    (TableMonoid, {"labels": ("e", "x"), "cayley": ((0, 1), (1, 0)), "unit_index": 0},
     "TableMonoid(labels=('e', 'x'), cayley=((0, 1), (1, 0)), unit_index=0)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_values_compare_and_hash_by_their_field_tuple(cls, fields, text):
    a, b = cls(*fields.values()), cls(*fields.values())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert tuple(getattr(a, name) for name in fields) == tuple(fields.values())
    # another class's value is never equal, whatever its fields
    other = Star(0) if cls is not Star else All()
    assert a != other and a.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_values_keep_their_reprs(cls, fields, text):
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_values_take_their_fields_by_keyword(cls, fields, text):
    assert cls(**fields) == cls(*fields.values())
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    if fields:
        with pytest.raises(TypeError):
            cls()


def test_the_default_constructor_binds_fields_by_position_then_keyword():
    t = TableMonoid(("e", "x"), cayley=((0, 1), (1, 0)), unit_index=0)
    assert t == TableMonoid(unit_index=0, labels=("e", "x"), cayley=((0, 1), (1, 0)))
    assert t._values == (("e", "x"), ((0, 1), (1, 0)), 0)
    with pytest.raises(TypeError, match="unexpected field 'elements'"):
        FiniteSet(frozenset(), elements=frozenset())
    with pytest.raises(TypeError, match="missing field 'unit_index'"):
        TableMonoid(("e",), ((0,),))
    with pytest.raises(TypeError, match="takes 3 fields, got 4"):
        TableMonoid(("e",), ((0,),), 0, None)
    with pytest.raises(TypeError):
        All(1)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_values_refuse_assignment(cls, fields, text):
    value = cls(**fields)
    for name in fields or ["name"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


def test_fieldless_values_of_different_classes_differ():
    assert NatUsual() != NatDiscrete() and hash(NatUsual()) == hash(NatDiscrete()) == hash(())
    assert IntRing() != RationalRing() and All() != IntRing()
    assert ModRing(5) != ModRing(7) and Truncated(2) != Truncated(3)
    assert FinSpace(("a",)) != ("a",) and SetSystem(("a",), ()) != FinSpace(("a",))


def test_poset_rows_stay_out_of_equality_hash_and_repr():
    p, q = _chain2(), _chain2()
    assert p.rows == (0b11, 0b10)
    object.__setattr__(q, "rows", ())
    assert p == q and hash(p) == hash(q) == hash((p.elements, p.leq))
    assert repr(p) == repr(q) and "rows" not in repr(p)


def test_tail_grid_is_a_class_constant_not_a_field():
    assert TailGE.n == TailGE(4).n == 1
    assert hash(TailGE(4)) == hash((4,)) and TailGE(4) != GridTail(4, 1)


def test_the_catalog_monoid_caches_on_its_instance():
    m = _NatMonoid(NatUsual())
    assert m._infinite_kind is m._infinite_kind
    assert m == nat() and hash(m) == hash(nat()) and repr(nat()) == repr(m)


def test_series_and_format_strings_show_the_value_reprs():
    s = from_terms(nat(), IntRing(), [(0, 1)])
    assert repr(s) == "<series over nat / IntRing()>"
    assert repr(from_terms(nat(), ModRing(3), [(0, 1)])) == "<series over nat / mod3>"
    assert f"{RationalRing()!r} {NatUsual()!r}" == "RationalRing() NatUsual()"


@pytest.mark.parametrize("build, error", [
    (lambda: GridTail("0", 2), DescriptorError),
    (lambda: GridTail(0, 0), DescriptorError),
    (lambda: GridTail(Fraction(1, 2), 1), DescriptorError),
    (lambda: TailGE(1.5), DescriptorError),
    (lambda: TailGE(True), DescriptorError),
    (lambda: FreeWords(()), InputError),
    (lambda: FreeWords(("a", "a")), InputError),
    (lambda: FreeWords(("ab",)), InputError),
    (lambda: Truncated(-1), InputError),
    (lambda: Truncated("2"), InputError),
    (lambda: ModRing(1), InputError),
    (lambda: ModRing(2.0), InputError),
    (lambda: FinitePoset((0, 1), ((True, True), (True, True))), InputError),
    (lambda: FinitePoset((0,), ((True, False),)), InputError),
    (lambda: FinitePomonoid(_chain2(), ((1, 1), (1, 1)), 0), InputError),
    (lambda: FinitePomonoid(_chain2(), ((0, 1), (1, 1)), 2), InputError),
    (lambda: SetSystem(("a",), (frozenset({"b"}),)), InputError),
])
def test_value_constructors_refuse_bad_fields(build, error):
    with pytest.raises(error):
        build()


def test_a_cli_start_imports_neither_dataclasses_nor_the_selftest():
    """pytest itself imports dataclasses, so this looks at a fresh process."""
    snippet = ("import sys, genseries.cli\n"
               "genseries.cli.build_parser()\n"
               "print(sorted({'dataclasses', 'genseries.selftest'} & set(sys.modules)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"


def test_every_public_name_resolves_on_the_package_once():
    """The package's public names, as a lazy import of them would have to
    keep them: each listed once and each an attribute of the package."""
    names = genseries.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(genseries, name)]
    assert missing == []
