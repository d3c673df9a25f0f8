"""The expression front end against the one it replaced (``expr_oracle``):
on every carrier and ring, the same error and its text, or a series with
the same support, window, render and infinite nodes; and the literal
tables pinned where they keep or lose a zero entry."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseries import InputError, finite
from genseries.cli import eval_expression, main
from genseries.monoids import monoid_from_spec
from genseries.rings import ring_from_spec
from genseries.series import _is_finite, _post_order

import expr_oracle

RINGS = ["int", "rational", {"mod": 7}, {"mod": 8}, "mat2"]
# exponents each carrier admits, and one it refuses
EXPONENTS = {
    "nat": ["0", "1", "2", "3", "(-1)"],
    "nat-discrete": ["0", "1", "2", "(1/2)"],
    "int": ["(-1)", "0", "2", "(-3)", "(1/2)"],
    "int-discrete": ["(-1)", "0", "2", "x"],
    "posnat-mul": ["1", "2", "3", "6", "0"],
    "posnat-div": ["1", "2", "3", "6", "(-2)"],
    "rational-grid": ["(1/2)", "(-2/3)", "1", "0", "x"],
    '{"words": "xy"}': ["x", "y", "xy", "(yx)", "2"],
    '{"trunc": 3}': ["0", "1", "2", "3", "4"],
}
BUILTINS = {"nat": ["geometric"], "posnat-mul": ["zeta", "moebius"]}
PRODUCT_SEPS = ["*", " * ", "·", " *"]
SUM_SEPS = ["+", " + ", "-", " - "]


def outcome(parse, text, monoid, ring, window):
    """The error raised, or what the series shows."""
    try:
        series = parse(text, monoid, ring, window)
        infinite = sum(not _is_finite(node) for node in _post_order(series))
        return ("ok", series.support, repr(list(series.window_coeffs(window).items())),
                series.render(window), infinite)
    except Exception as exc:  # the same exception, with the same text, on both
        return type(exc).__name__, str(exc)


def assert_same(text, carrier, ring_spec, window):
    monoid = monoid_from_spec(json.loads(carrier) if carrier.startswith("{") else carrier)
    ring = ring_from_spec(ring_spec)
    expected = outcome(expr_oracle.eval_expression, text, monoid, ring, window)
    assert outcome(eval_expression, text, monoid, ring, window) == expected, text


def chain(inner, seps):
    return st.tuples(inner, st.lists(st.tuples(st.sampled_from(seps), inner),
                                     min_size=1, max_size=3)).map(
        lambda t: t[0] + "".join(sep + x for sep, x in t[1]))


@st.composite
def runs(draw, names):
    """k reads of one builtin, some parenthesized, with or without spaces."""
    name, k = draw(st.sampled_from(names)), draw(st.integers(1, 6))
    parts = [f"({name})" if draw(st.integers(0, 3)) == 0 else name for _ in range(k)]
    return "".join(part + draw(st.sampled_from(PRODUCT_SEPS)) for part in parts[:-1]) + parts[-1]


def expressions(carrier):
    literal = st.one_of(st.integers(0, 12).map(str), st.just("T"),
                        st.sampled_from(EXPONENTS[carrier]).map("T^".__add__))
    names = BUILTINS.get(carrier)
    atom = literal | st.sampled_from(names) | runs(names) if names else literal
    return st.recursive(atom, lambda inner: st.one_of(
        chain(inner, PRODUCT_SEPS), chain(inner, SUM_SEPS),
        inner.map(lambda s: f"({s})"), inner.map(lambda s: f"-{s}")), max_leaves=10)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), carrier=st.sampled_from(sorted(EXPONENTS)),
       ring=st.sampled_from(RINGS), window=st.integers(0, 4))
def test_the_parser_agrees_with_the_oracle_on_expressions(data, carrier, ring, window):
    """Polynomial literals, runs of builtins, parentheses and unary minus."""
    assert_same(data.draw(expressions(carrier)), carrier, ring, window)


SOUP = st.sampled_from(["T", "^", "(", ")", "/", "-", "+", "*", "·", " ", "0", "1", "2",
                        "7", "12", "x", "y", "xy", "geometric", "zeta", "moebius", "%", "é",
                        "$", "9" * 5000, "T^2", "T^(-1)", "T^(1/2)"])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tokens=st.lists(SOUP, max_size=14), carrier=st.sampled_from(sorted(EXPONENTS)),
       ring=st.sampled_from(RINGS), window=st.integers(0, 4))
def test_the_parser_agrees_with_the_oracle_on_token_soup(tokens, carrier, ring, window):
    """Bad characters, 5000-digit numbers, unbalanced parentheses and the rest."""
    assert_same("".join(tokens), carrier, ring, window)


@pytest.mark.parametrize("text,carrier", [
    ("geometric*geometric*(geometric)", "nat"),
    ("geometric * (geometric) * geometric*geometric - geometric", "nat"),
    ("2*T*geometric * geometric * T^3 * geometric", "nat"),
    ("zeta * zeta * moebius * moebius * zeta", "posnat-mul"),
    ("1 - T + (T - 1) + T^2 * 3 - -T", "nat"),
    ("-" * 100 + "T", "nat"),
    ("-" * 101 + "T", "nat"),
    ("(" * 100 + "T" + ")" * 100, "nat"),
    ("T^x * T^y - T^xy", '{"words": "xy"}'),
    ("% + 1 + 9" + "9" * 5000 + " + $", "nat"),
    ("1 + " + "9" * 5000 + " + % + 9" + "9" * 5000, "nat"),
], ids=["run-parenthesized", "runs-and-sums", "literals-around-runs", "two-runs",
        "literal-sums", "unary-cap", "unary-past-cap", "parenthesis-cap", "words",
        "bad-character-first", "long-number-first"])
def test_the_parser_agrees_with_the_oracle_on_pinned_cases(text, carrier):
    for ring in RINGS:
        assert_same(text, carrier, ring, 4)


def evaluate(text, carrier, ring):
    return eval_expression(text, monoid_from_spec(carrier), ring_from_spec(ring), 3)


@pytest.mark.parametrize("text,carrier,ring,table", [
    ("T - T", "nat", "int", {1: 0}),  # a cancelled sum keeps its key
    ("7*T", "nat", {"mod": 7}, {}),  # a zero number empties the product
    ("2*4", "nat", {"mod": 8}, {0: 0}),  # a zero product of nonzero numbers stays
    ("T^2*T^2", {"trunc": 3}, "int", {}),  # an undefined product is no key
    ("T^x*T^y", {"words": "xy"}, "int", {"xy": 1}),  # left factor first
    ("T^y*T^x", {"words": "xy"}, "int", {"yx": 1}),
    ("-T^x*-2 + 3 - 3", {"words": "xy"}, "int", {"x": 2, "": 0}),
])
def test_literal_tables_keep_what_their_series_operations_keep(text, carrier, ring, table):
    series = evaluate(text, carrier, ring)
    assert series.support == finite(table)
    assert series.window_coeffs(3) == table


def test_a_cancelled_puiseux_sum_keeps_its_support(capsys):
    assert main(["puiseux", "--expr", "T - T", "--window", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["support"] == {"finite": ["1"]}


def test_a_run_written_with_parentheses_is_one_power():
    series = evaluate("geometric*geometric*(geometric)", "nat", "int")
    assert sum(not _is_finite(node) for node in _post_order(series)) == 3
    assert series.window_coeffs(3) == {0: 1, 1: 3, 2: 6, 3: 10}


def test_a_power_after_a_run_is_refused(capsys):
    assert main(["series-eval", "--monoid", "nat", "--ring", "int", "--window", "3",
                 "--expr", "geometric * geometric ^ 2"]) == 1
    assert capsys.readouterr().err == "error: trailing input at token '^'\n"


@pytest.mark.parametrize("text,error", [
    ("1 + % + $", "unexpected character '%' in expression"),
    ("1 + $ + 9" + "9" * 5000, "unexpected character '$' in expression"),
    ("T * 9" + "9" * 5000 + " + % + 8" + "8" * 5000, "number at position 4: "),
], ids=["two-characters", "character-then-number", "number-then-character"])
def test_the_first_bad_word_is_the_error(text, error):
    with pytest.raises(InputError) as info:
        evaluate(text, "nat", "int")
    assert str(info.value).startswith(error)
