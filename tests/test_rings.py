from fractions import Fraction

import pytest

from genseries import (InputError, IntRing, Mat2Ring, ModRing, RationalRing,
                       check_ring_axioms, find_noncommuting_pair,
                       ring_from_spec)

E12 = (0, 1, 0, 0)
E21 = (0, 0, 1, 0)


def test_integer_axioms_on_small_window():
    assert check_ring_axioms(IntRing(), range(-2, 3)) == []


def test_mod6_axioms_on_all_residues():
    assert check_ring_axioms(ModRing(6), range(6)) == []


def test_matrix_axioms_and_noncommutativity_probe():
    ring = Mat2Ring()
    samples = [ring.zero, ring.one, E12, E21, (1, 2, 3, 4)]
    assert check_ring_axioms(ring, samples) == []
    pair = find_noncommuting_pair(ring, samples)
    assert pair is not None
    # frozen from direct 2x2 multiplication: e12*e21 and e21*e12 differ
    assert ring.mul(E12, E21) == (1, 0, 0, 0)
    assert ring.mul(E21, E12) == (0, 0, 0, 1)


def test_rational_axioms_and_canonical_normalization():
    ring = RationalRing()
    samples = [Fraction(1, 2), Fraction(-3, 4), Fraction(0), Fraction(5)]
    assert check_ring_axioms(ring, samples) == []
    assert ring.eq(Fraction(2, 4), Fraction(1, 2))
    assert Fraction(3, -6) == Fraction(-1, 2)  # positive denominator kept


def test_commutative_rings_have_no_noncommuting_pair(rng):
    for ring in (IntRing(), RationalRing(), ModRing(6)):
        from conftest import ring_samples
        assert find_noncommuting_pair(ring, ring_samples(ring, rng, 6)) is None


def test_unit_and_negation_identities(rng):
    from conftest import ALL_RINGS, ring_samples
    for ring in ALL_RINGS:
        for a in ring_samples(ring, rng, 5):
            assert ring.eq(ring.add(a, ring.zero), a)
            assert ring.eq(ring.mul(a, ring.one), a)
            assert ring.eq(ring.mul(ring.one, a), a)
            assert ring.eq(ring.add(a, ring.neg(a)), ring.zero)


def test_axiom_checker_requires_samples():
    with pytest.raises(InputError):
        check_ring_axioms(IntRing(), [])


def test_axiom_checker_reports_violations():
    class Broken(IntRing):
        def mul(self, a, b):
            return a * b + 1

    report = check_ring_axioms(Broken(), [0, 1, 2])
    assert report  # a non-ring yields a nonempty report


def test_modulus_must_be_at_least_two():
    with pytest.raises(InputError):
        ModRing(1)


def test_json_literals_round_trip():
    cases = [
        (IntRing(), 12345678901234567890),
        (RationalRing(), Fraction(-7, 3)),
        (ModRing(6), 5),
        (Mat2Ring(), (1, -2, 3, 0)),
    ]
    for ring, value in cases:
        blob = ring.element_to_json(value)
        assert ring.element_from_json(blob) == value
    # integers encode as decimal strings
    assert IntRing().element_to_json(42) == "42"
    assert RationalRing().element_to_json(Fraction(1, 2)) == "1/2"
    assert [RationalRing().element_to_json(v) for v in (Fraction(4, 2), Fraction(-3), 5)] == [
        "2", "-3", "5"]
    assert RationalRing().render(Fraction(-6, 4)) == "-3/2"
    assert ModRing(6).element_to_json(3) == {"mod": 6, "val": 3}
    assert Mat2Ring().element_to_json((0, 1, 0, 0)) == [0, 1, 0, 0]


@pytest.mark.parametrize("ring", [IntRing(), RationalRing(), ModRing(6), Mat2Ring()], ids=repr)
def test_is_zero_holds_only_at_zero(ring):
    assert ring.is_zero(ring.zero) is True
    assert ring.is_zero(ring.one) is False
    assert ring.is_zero(ring.from_int(-2)) is False


def test_ring_specs():
    assert ring_from_spec("int") == IntRing()
    assert ring_from_spec({"mod": 7}) == ModRing(7)
    with pytest.raises(InputError):
        ring_from_spec("boolean")


def test_bare_json_integers_are_ring_elements():
    assert IntRing().element_from_json(7) == 7
    assert ModRing(6).element_from_json(8) == 2


def test_mod_ring_rejects_foreign_modulus():
    with pytest.raises(InputError):
        ModRing(6).element_from_json({"mod": 5, "val": 1})
