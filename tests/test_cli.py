import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseries import finspace
from genseries.cli import main

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# series-eval


def test_series_eval_telescoping(capsys):
    code, out, _ = run_cli(capsys, "series-eval", "--monoid", "nat", "--ring", "int",
                           "--expr", "(1 - T) * geometric", "--window", "10")
    assert code == 0 and out.strip() == "1"


def test_series_eval_json_payload(capsys):
    code, out, _ = run_cli(capsys, "series-eval", "--monoid", "nat", "--ring", "int",
                           "--expr", "2*T^3 - T", "--window", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [[1, "-1"], [3, "2"]]
    assert payload["window"] == 5


def test_series_eval_truncated_monoid(capsys):
    code, out, _ = run_cli(capsys, "series-eval", "--monoid", '{"trunc": 2}',
                           "--ring", "int", "--expr", "T * T^2", "--window", "2")
    assert code == 0 and out.strip() == "0"


def test_series_eval_words(capsys):
    code, out, _ = run_cli(capsys, "series-eval", "--monoid", '{"words": ["x", "y"]}',
                           "--ring", "int", "--expr", "T^x * T^y", "--window", "3")
    assert code == 0 and out.strip() == "1·xy"


def test_series_eval_from_input_file(capsys, tmp_path):
    blob = {"monoid": "nat", "ring": "int",
            "terms": [[0, "1"], [2, "5"]], "window": 4}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "series-eval", "--input", str(path))
    assert code == 0 and out.strip() == "1 + 5·T^2"


def test_series_eval_refuses_terms_that_are_not_a_list(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"monoid": "nat", "ring": "int",
                                "terms": {"0": "1"}, "window": 4}))
    assert run_cli(capsys, "series-eval", "--input", str(path)) == (
        1, "", 'error: "terms" must be a list of [element, coefficient] pairs\n')


@pytest.mark.parametrize("monoid,expr", [
    ("nat", "1 + T"), ("nat", "geometric"), ("nat-discrete", "T"), ("int", "T^(-1)"),
    ("int-discrete", "1"), ("posnat-mul", "zeta * T^2"), ("posnat-div", "T^3"),
    ("rational-grid", "T^(1/2)"), ('{"words": "xy"}', "T^x"), ('{"trunc": 3}', "1 + T"),
])
def test_negative_window_is_refused_on_every_carrier(capsys, monoid, expr):
    code, out, err = run_cli(capsys, "series-eval", "--monoid", monoid, "--ring", "int",
                             "--expr", expr, "--window", "-1")
    assert code == 1 and out == ""
    assert err == "error: window must be a nonnegative integer, got -1\n"


def test_series_eval_requires_window(capsys):
    code, _, err = run_cli(capsys, "series-eval", "--monoid", "nat", "--ring", "int",
                           "--expr", "geometric")
    assert code == 1 and "window" in err


# ---------------------------------------------------------------------------
# dirichlet


def test_dirichlet_divisor_table(capsys):
    code, out, _ = run_cli(capsys, "dirichlet", "--expr", "zeta * zeta", "--n-max", "12")
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["12"] == "6"
    for n in range(1, 13):
        assert int(rows[str(n)]) == oracles.divisor_count(n)


def test_dirichlet_moebius_inversion(capsys):
    code, out, _ = run_cli(capsys, "dirichlet", "--expr", "zeta * moebius - 1",
                           "--n-max", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(value == "0" for _, value in payload["values"])


# ---------------------------------------------------------------------------
# puiseux


def test_puiseux_expression(capsys):
    code, out, _ = run_cli(capsys, "puiseux", "--expr", "T^(1/2) + T^(1/3)",
                           "--window", "1")
    assert code == 0
    assert out.strip() == "1·T^(1/3) + 1·T^(1/2)"


def test_puiseux_product_support(capsys):
    code, out, _ = run_cli(capsys, "puiseux", "--expr", "T^(1/2) * T^(1/3)",
                           "--window", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [["5/6", "1"]]


# ---------------------------------------------------------------------------
# classify / poset


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "--carrier", "rational-grid",
                           "--descriptor", '{"gridtail": {"a": -3, "n": 2}}',
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"artinian": True, "noetherian": False,
                               "narrow": True, "finite": False}


def test_classify_rejects_mismatched_descriptor(capsys):
    code, _, err = run_cli(capsys, "classify", "--carrier", "nat",
                           "--descriptor", '{"gridtail": {"a": 0, "n": 2}}')
    assert code == 1 and "grid tails" in err


@pytest.mark.parametrize("descriptor", [
    '{"gridtail": {"a": 1}}',
    '{"gridtail": {"a": 1, "n": 2, "b": 3}}',
    '{"gridtail": {"a": "1", "n": 2}}',
    '{"gridtail": {"a": true, "n": 2}}',
    '{"gridtail": {"a": 1, "n": 0}}',
    '{"gridtail": [1, 2]}',
    '{"tailge": 5}',
    '{"tailge": {"a": 1.5}}',
    '{"tailge": {}}',
    '{"finite": 5}',
    '{"finite": "12"}',
    '{"finite": [[1]]}',
])
def test_classify_rejects_malformed_descriptor_fields(capsys, descriptor):
    for carrier in ("rational-grid", "int"):
        code, out, err = run_cli(capsys, "classify", "--carrier", carrier,
                                 "--descriptor", descriptor)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err, err


def divisor_poset_json(n):
    els = [d for d in range(1, n + 1) if n % d == 0]
    return json.dumps({"elements": els, "leq": [[b % a == 0 for b in els] for a in els]})


def test_poset_longest_chain(capsys):
    code, out, _ = run_cli(capsys, "poset", "--operation", "longest-chain",
                           "--poset", divisor_poset_json(12), "--format", "json")
    assert code == 0
    assert json.loads(out)["length"] == 4


def test_poset_largest_antichain(capsys):
    code, out, _ = run_cli(capsys, "poset", "--operation", "largest-antichain",
                           "--poset", divisor_poset_json(36), "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 3


def poset_file(tmp_path, n, le):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"elements": list(range(n)),
                                "leq": [[le(a, b) for b in range(n)] for a in range(n)]}))
    return str(path)


def test_poset_longest_chain_of_a_long_chain(capsys, tmp_path):
    # longer than the interpreter's recursion limit
    path = poset_file(tmp_path, 1100, lambda a, b: a <= b)
    code, out, _ = run_cli(capsys, "poset", "--operation", "longest-chain",
                           "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"chain": list(range(1100)), "length": 1100}


def test_poset_largest_antichain_past_twenty_elements(capsys, tmp_path):
    path = poset_file(tmp_path, 25, lambda a, b: a == b)
    code, out, _ = run_cli(capsys, "poset", "--operation", "largest-antichain",
                           "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"antichain": list(range(25)), "size": 25}


def test_poset_validate_reports_violations(capsys):
    bad = json.dumps({"elements": [0, 1], "leq": [[True, True], [True, True]]})
    code, out, _ = run_cli(capsys, "poset", "--operation", "validate",
                           "--poset", bad, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is False and payload["violations"]


def test_poset_strict_pomonoid(capsys):
    table = {"elements": [0, 1, 2, 3],
             "leq": [[a <= b for b in range(4)] for a in range(4)],
             "cayley": [[min(a + b, 3) for b in range(4)] for a in range(4)],
             "unit": 0}
    code, out, _ = run_cli(capsys, "poset", "--operation", "strict-pomonoid",
                           "--poset", json.dumps(table))
    assert code == 0 and out.strip() == "not strict"


# ---------------------------------------------------------------------------
# category-check and selftest


def test_category_check_passes(capsys):
    code, out, _ = run_cli(capsys, "category-check", "--max-size", "2", "--samples", "15")
    assert code == 0
    assert out.strip().endswith("all universal properties verified")


def test_category_check_refuses_negative_samples(capsys):
    code, out, err = run_cli(capsys, "category-check", "--samples", "-1")
    assert code == 1 and out == ""
    assert err == "error: --samples must be a nonnegative integer, got -1\n"


def test_category_check_accepts_zero_samples(capsys):
    code, out, _ = run_cli(capsys, "category-check", "--max-size", "1", "--samples", "0")
    assert code == 0
    assert out.startswith("equalizers+coequalizers: 0 parallel pairs\n")


def test_category_check_user_diagram(capsys, tmp_path):
    blob = {
        "dom": {"carrier": ["x"]},
        "cod": {"carrier": ["y1", "y2"]},
        "f": {"graph": {"x": "y1"}},
        "g": {"graph": {}},
    }
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "category-check", "--input", str(path),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["f_morphism"] and payload["g_morphism"]
    assert payload["equalizer"] == []  # f and g disagree at x
    assert payload["coequalizer_classes"] == [["y2"]]
    assert payload["verified"] is True


def test_category_check_restricted_family_fails_morphism(capsys, tmp_path):
    blob = {
        "dom": {"carrier": ["a", "b"], "family": [["a"]]},
        "cod": {"carrier": ["c"], "family": [[]]},
        "f": {"graph": {"a": "c", "b": "c"}},
    }
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "category-check", "--input", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["f_morphism"] is False


def test_a_family_too_small_for_the_image_fails_without_enumeration(capsys, tmp_path):
    """A 17-point image has 2^17 subsets, which a two-member family cannot
    hold: settled by counting, under the enumeration guard."""
    labels = [f"p{i}" for i in range(17)]
    blob = {"dom": {"carrier": labels}, "cod": {"carrier": labels, "family": [[], labels]},
            "f": {"graph": {x: x for x in labels}}}
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(blob))
    assert run_cli(capsys, "category-check", "--input", str(path)) == (
        0, "f_morphism: False\n", "")


def test_category_check_sizes_a_diagram_by_what_it_enumerates(capsys, tmp_path):
    """A diagram is refused only past the partial-function guard: cones from
    one point into the domain, cocones from the codomain into one point."""
    def check(n_dom, n_cod, with_g):
        dom = [f"d{i}" for i in range(n_dom)]
        cod = [f"c{i}" for i in range(n_cod)]
        f = {x: cod[i % n_cod] for i, x in enumerate(dom) if i % 5}
        blob = {"dom": {"carrier": dom}, "cod": {"carrier": cod}, "f": {"graph": f}}
        if with_g:
            blob["g"] = {"graph": f}
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(blob))
        return run_cli(capsys, "category-check", "--input", str(path), "--format", "json")

    code, out, _ = check(4095, 12, True)
    payload = json.loads(out)
    assert code == 0 and payload["verified"] is True
    assert len(payload["equalizer"]) == 4095
    assert sorted(payload["coequalizer_classes"]) == sorted([f"c{i}"] for i in range(12))
    code, out, _ = check(7, 1, False)
    assert (code, json.loads(out)) == (0, {"f_morphism": True})
    assert check(1, 13, True) == (1, "", "error: refusing to enumerate 8192 partial functions\n")


def test_category_check_refuses_an_empty_diagram(capsys, tmp_path):
    # an empty object is a diagram missing its fields, not a request for the sweep
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, out, err = run_cli(capsys, "category-check", "--input", str(path),
                             "--max-size", "0", "--samples", "1")
    assert (code, out) == (1, "")
    assert err == 'error: diagram JSON needs "dom", "cod" and "f"\n'


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11 and all(line.startswith("PASS") for line in lines)


# ---------------------------------------------------------------------------
# error handling


def test_malformed_json_input_is_line_anchored(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"elements": [1,\n2')
    code, _, err = run_cli(capsys, "poset", "--operation", "validate",
                           "--input", str(path))
    assert code == 1
    assert "line 2" in err


def test_unknown_flag_is_a_validation_error(capsys):
    code, _, err = run_cli(capsys, "series-eval", "--bogus", "1")
    assert code == 1 and err


def test_bad_expression_reports_position(capsys):
    code, _, err = run_cli(capsys, "series-eval", "--monoid", "nat", "--ring", "int",
                           "--expr", "(1 -", "--window", "3")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("expr", ["1 + T\n", "1 + T \n\n", "\n1 + T\r\n"])
def test_any_whitespace_separates_tokens(capsys, expr):
    """A trailing newline is whitespace like any other."""
    assert run_cli(capsys, "series-eval", "--monoid", "nat", "--ring", "int",
                   "--window", "3", f"--expr={expr}") == (0, "1 + 1·T^1\n", "")


def test_long_number_error_names_its_position(capsys):
    code, out, err = run_cli(capsys, "series-eval", "--monoid", "nat", "--ring", "int",
                             "--window", "3", "--expr", "1 +  " + "9" * 5000)
    assert (code, out) == (1, "") and err.startswith("error: number at position 5: ")


@pytest.mark.parametrize("expr", ["(" * 2000 + "1" + ")" * 2000, "-" * 2000 + "1"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_validation_error(capsys, expr):
    code, _, err = run_cli(capsys, "series-eval", "--monoid", "nat", "--ring", "int",
                           f"--expr={expr}", "--window", "3")
    assert code == 1
    assert err == "error: expression nests deeper than 100 levels\n"


def test_nesting_up_to_the_cap_parses(capsys):
    expr = "-(" * 50 + "T" + ")" * 50
    code, out, _ = run_cli(capsys, "series-eval", "--monoid", "nat", "--ring", "int",
                           f"--expr={expr}", "--window", "3")
    assert code == 0 and out == "1·T^1\n"


def test_builtin_on_wrong_carrier(capsys):
    code, _, err = run_cli(capsys, "series-eval", "--monoid", "int", "--ring", "int",
                           "--expr", "geometric", "--window", "3")
    assert code == 1 and "naturals" in err


_NO_GENERATOR = "error: carrier {!r} has no default generator; write T^<element>\n"
_NOT_NAT = "error: geometric is a series over the naturals\n"
_NOT_POSNAT = "error: {} is an arithmetic function (posnat-mul carrier)\n"


@pytest.mark.parametrize("monoid,expr,code,out,err", [
    ("nat", "T + 1", 0, "1 + 1·T^1\n", ""),
    ("nat-discrete", "T + 1", 0, "1 + 1·T^1\n", ""),
    ("int", "T + 1", 0, "1 + 1·T^1\n", ""),
    ("int-discrete", "T + 1", 0, "1 + 1·T^1\n", ""),
    ("posnat-mul", "T + 1", 1, "", _NO_GENERATOR.format("posnat-mul")),
    ("posnat-div", "T + 1", 1, "", _NO_GENERATOR.format("posnat-div")),
    ("rational-grid", "T + 1", 0, "1 + 1·T^1\n", ""),
    ('{"words": ["x", "y"]}', "T + 1", 1, "", _NO_GENERATOR.format("free-words")),
    ('{"trunc": 3}', "T + 1", 0, "1 + 1·T^1\n", ""),
    ('{"trunc": 0}', "T + 1", 1, "", "error: 1 is not an element of truncated\n"),
    ("nat-discrete", "geometric", 1, "", _NOT_NAT),
    ('{"trunc": 3}', "geometric", 1, "", _NOT_NAT),
    ("posnat-mul", "geometric", 1, "", _NOT_NAT),
    ("posnat-div", "zeta", 1, "", _NOT_POSNAT.format("zeta")),
    ("nat", "zeta", 1, "", _NOT_POSNAT.format("zeta")),
    ('{"words": ["x", "y"]}', "zeta", 1, "", _NOT_POSNAT.format("zeta")),
    ("posnat-div", "moebius", 1, "", _NOT_POSNAT.format("moebius")),
    ("nat", "moebius", 1, "", _NOT_POSNAT.format("moebius")),
    ('{"words": ["x", "y"]}', "moebius", 1, "", _NOT_POSNAT.format("moebius")),
])
def test_default_generator_and_builtin_carriers_are_pinned(capsys, monoid, expr, code, out,
                                                           err):
    """The element a bare ``T`` denotes on each carrier, and the exact refusal
    of a builtin named on a carrier it does not live on."""
    assert run_cli(capsys, "series-eval", "--monoid", monoid, "--ring", "int",
                   "--expr", expr, "--window", "2") == (code, out, err)


def assert_refused(result):
    code, out, err = result
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err, err


@pytest.mark.parametrize("expr", ["T^(1/0)", "T^(-3/0)", "9" * 5000],
                         ids=["zero-denominator", "negative-zero-denominator", "5000-digits"])
def test_unparseable_numbers_are_validation_errors(capsys, expr):
    assert_refused(run_cli(capsys, "series-eval", "--monoid", "rational-grid",
                           "--ring", "rational", "--window", "3", f"--expr={expr}"))


@pytest.mark.parametrize("poset", [
    '{"elements": [1, 2], "leq": 5}',
    '{"elements": 5, "leq": []}',
    '{"elements": [1], "leq": [5]}',
    '{"elements": [[1]], "leq": [[true]]}',
    '5',
    '[1, 2]',
])
@pytest.mark.parametrize("operation", ["validate", "longest-chain", "largest-antichain",
                                       "strict-pomonoid"])
def test_malformed_poset_json_is_a_validation_error(capsys, poset, operation):
    assert_refused(run_cli(capsys, "poset", "--operation", operation, "--poset", poset))


@pytest.mark.parametrize("poset", ['"abc"', '"{}"', "null"])
def test_poset_json_that_is_no_object_is_refused_once(capsys, poset):
    """Valid JSON that is not an object is decoded once and refused as such."""
    assert run_cli(capsys, "poset", "--operation", "validate", "--poset", poset) == (
        1, "", "error: poset JSON must be an object\n")


@pytest.mark.parametrize("words", ["5", "null", '{"a": 1}', "[5]", '[["x"]]'],
                         ids=["int", "null", "object", "int-symbol", "list-symbol"])
@pytest.mark.parametrize("command", ["series-eval", "classify"])
def test_malformed_words_spec_is_a_validation_error(capsys, words, command):
    spec = '{"words": ' + words + '}'
    if command == "series-eval":
        argv = ["--monoid", spec, "--ring", "int", "--expr", "1", "--window", "2"]
    else:
        argv = ["--carrier", spec, "--descriptor", '{"all": true}']
    assert_refused(run_cli(capsys, command, *argv))


@pytest.mark.parametrize("fields", ['"cayley": 5, "unit": 0', '"cayley": [5], "unit": 0',
                                    '"cayley": [[0]], "unit": "a"'])
def test_malformed_pomonoid_json_is_a_validation_error(capsys, fields):
    poset = '{"elements": [1], "leq": [[true]], ' + fields + '}'
    assert_refused(run_cli(capsys, "poset", "--operation", "strict-pomonoid",
                           "--poset", poset))


@pytest.mark.parametrize("blob", [
    {"dom": {"carrier": 5}, "cod": {"carrier": ["c"]}, "f": {"graph": {}}},
    {"dom": {"carrier": ["a"]}, "cod": {"carrier": ["c"]}, "f": {"graph": 5}},
    {"dom": {"carrier": [["a"]]}, "cod": {"carrier": ["c"]}, "f": {"graph": {}}},
    {"dom": {"carrier": ["a"], "family": 5}, "cod": {"carrier": ["c"]}, "f": {"graph": {}}},
    {"dom": {"carrier": ["a"], "family": [5]}, "cod": {"carrier": ["c"]}, "f": {"graph": {}}},
    {"dom": {"carrier": ["a"]}, "cod": {"carrier": ["c"]}, "f": {"graph": {"a": ["c"]}}},
    {"dom": {"carrier": [None]}, "cod": {"carrier": ["c"]}, "f": {"graph": {}}},
    {"dom": 5, "cod": 5, "f": 5},
    [1, 2],
], ids=["carrier-5", "graph-5", "list-label", "family-5", "family-member-5",
        "list-graph-value", "null-label", "spaces-5", "top-level-list"])
def test_malformed_diagram_json_is_a_validation_error(capsys, tmp_path, blob):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(blob))
    assert_refused(run_cli(capsys, "category-check", "--input", str(path)))


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def crash(**kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(finspace, "verification_sweep", crash)
    code, out, err = run_cli(capsys, "category-check")
    assert code == 2 and out == ""
    assert err == "internal error (this is a bug): RuntimeError: boom\n"


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract


def run_quietly(*argv):
    """main() with captured streams; capsys is per test, not per example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(result):
    """Every input exits 0 or 1 without a traceback: these inputs build only
    correct constructions, so exit 2 (a bug) must not occur either."""
    code, _, err = result
    assert code in (0, 1), err
    assert "Traceback" not in err
    assert (code == 1) == err.startswith("error: "), err


JSON_SCALARS = st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["a", "b", ""])
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.sampled_from(["a", "b", "graph", "carrier"]),
                                             inner, max_size=2), max_leaves=6)
LABELS = st.sampled_from(["a", "b", "c", 1, True, None, [1], 1.5])
EXPR_TOKENS = st.sampled_from(["T", "^", "(", ")", "/", "-", "+", "*", "·", " ", "0", "1",
                               "2", "12", "x", "y", "xy", "geometric", "zeta", "moebius", "%"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tokens=st.lists(EXPR_TOKENS, max_size=14),
       monoid=st.sampled_from(["nat", "nat-discrete", "int", "int-discrete", "posnat-mul",
                               "posnat-div", "rational-grid", '{"words": "xy"}',
                               '{"trunc": 3}']),
       ring=st.sampled_from(["int", "rational", '{"mod": 7}', "mat2"]),
       window=st.integers(0, 4))
def test_fuzz_series_eval_keeps_the_exit_code_contract(tokens, monoid, ring, window):
    assert_contract(run_quietly("series-eval", "--monoid", monoid, "--ring", ring,
                                "--window", str(window), f"--expr={''.join(tokens)}"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(poset=JSON_VALUES | st.fixed_dictionaries(
           {"elements": JSON_VALUES | st.lists(LABELS, max_size=3),
            "leq": JSON_VALUES | st.lists(st.lists(JSON_SCALARS, max_size=3), max_size=3)},
           optional={"cayley": JSON_VALUES | st.lists(st.lists(st.integers(-1, 3), max_size=3),
                                                      max_size=3),
                     "unit": JSON_VALUES}),
       operation=st.sampled_from(["validate", "longest-chain", "largest-antichain",
                                  "strict-pomonoid"]))
def test_fuzz_poset_json_keeps_the_exit_code_contract(poset, operation):
    assert_contract(run_quietly("poset", "--operation", operation,
                                "--poset", json.dumps(poset)))


SPACES = JSON_VALUES | st.fixed_dictionaries(
    {"carrier": JSON_VALUES | st.lists(LABELS, max_size=4)},
    optional={"family": JSON_VALUES | st.lists(st.lists(LABELS, max_size=2), max_size=3)})
MORPHISMS = JSON_VALUES | st.fixed_dictionaries(
    {"graph": JSON_VALUES | st.dictionaries(st.sampled_from(["a", "b", "c", "1"]), LABELS,
                                            max_size=3)})


@pytest.fixture(scope="module")
def diagram_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "diagram.json"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blob=JSON_VALUES | st.fixed_dictionaries(
    {"dom": SPACES, "cod": SPACES, "f": MORPHISMS}, optional={"g": MORPHISMS}))
def test_fuzz_category_check_input_keeps_the_exit_code_contract(diagram_path, blob):
    diagram_path.write_text(json.dumps(blob))
    assert_contract(run_quietly("category-check", "--input", str(diagram_path)))


ELEMENTS = st.sampled_from([0, 1, 2, -1, "1/2", "x", "xy"])
COEFFICIENTS = st.sampled_from([1, "2", "-1/2", [1, 0, 0, 1]]) | st.fixed_dictionaries(
    {"mod": JSON_VALUES | st.just(5), "val": JSON_VALUES | st.integers(0, 6)})
SERIES_BLOBS = st.fixed_dictionaries({}, optional={
    "monoid": JSON_VALUES | st.sampled_from(["nat", "int", "posnat-mul", "rational-grid",
                                             {"trunc": 3}, {"words": "xy"}]),
    "ring": JSON_VALUES | st.sampled_from(["int", "rational", {"mod": 5}, "mat2"]),
    "expr": JSON_VALUES | st.sampled_from(["(1 - T) * geometric", "zeta * moebius",
                                           "T^(1/2) + T^(-1/3)", "2*x*y - y*x", "1"]),
    "terms": JSON_VALUES | st.lists(st.lists(JSON_VALUES | ELEMENTS | COEFFICIENTS,
                                             min_size=2, max_size=2), max_size=3),
    "window": JSON_VALUES | st.integers(0, 6),
    "n-max": JSON_VALUES | st.integers(0, 6)})


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "series.json"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blob=SERIES_BLOBS)
def test_fuzz_series_input_keeps_the_exit_code_contract(series_path, blob):
    series_path.write_text(json.dumps(blob))
    for command in ("series-eval", "puiseux", "dirichlet"):
        assert_contract(run_quietly(command, "--input", str(series_path)))


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_reruns():
    repo = str(pathlib.Path(__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "genseries.cli", "dirichlet",
            "--expr", "zeta * zeta", "--n-max", "20", "--format", "json"]
    a = subprocess.run(argv, capture_output=True, cwd=repo)
    b = subprocess.run(argv, capture_output=True, cwd=repo)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    argv = [sys.executable, "-m", "genseries.cli", "category-check",
            "--max-size", "2", "--samples", "10", "--seed", "3", "--format", "json"]
    a = subprocess.run(argv, capture_output=True, cwd=repo)
    b = subprocess.run(argv, capture_output=True, cwd=repo)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_non_integer_window_in_input_is_a_validation_error(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"monoid": "nat", "ring": "int",
                                "expr": "geometric", "window": "many"}))
    code, _, err = run_cli(capsys, "series-eval", "--input", str(path))
    assert code == 1 and "integer" in err


@pytest.mark.parametrize("command,blob", [
    ("series-eval", {"monoid": "nat", "ring": "int", "expr": 5, "window": 3}),
    ("dirichlet", {"expr": 5, "n-max": 3}),
    ("puiseux", {"expr": ["T"], "window": 3})])
def test_an_expr_that_is_no_string_is_a_validation_error(capsys, tmp_path, command, blob):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "expr" in err


@pytest.mark.parametrize("val", ["x", True, None, [1], 1.5])
def test_a_residue_needs_an_integer_value(capsys, tmp_path, val):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"monoid": "nat", "ring": {"mod": 5}, "window": 3,
                                "terms": [[1, {"mod": 5, "val": val}]]}))
    code, out, err = run_cli(capsys, "series-eval", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: bad residue literal") and err.count("\n") == 1


def test_malformed_terms_are_a_validation_error(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"monoid": "nat", "ring": "int",
                                "terms": [[0, "1"], [5]], "window": 3}))
    code, _, err = run_cli(capsys, "series-eval", "--input", str(path))
    assert code == 1 and "term" in err


def test_input_file_can_supply_the_ring(capsys, tmp_path):
    path = tmp_path / "dirichlet.json"
    path.write_text(json.dumps({"ring": {"mod": 5}, "expr": "zeta * zeta",
                                "n-max": 6}))
    code, out, _ = run_cli(capsys, "dirichlet", "--input", str(path),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][3] == [4, {"mod": 5, "val": 3}]


@pytest.mark.parametrize("argv,what", [
    (["dirichlet", "--expr", "zeta", "--n-max", "99999999999999999999"], "n-max"),
    (["dirichlet", "--expr", "zeta", "--n-max", "1000001"], "n-max"),
    (["series-eval", "--monoid", "nat", "--ring", "int", "--expr", "geometric",
      "--window", "99999999999"], "window"),
    (["puiseux", "--expr", "T^(1/2)", "--window", "1000001"], "window")])
def test_a_window_past_the_size_cap_is_refused_before_it_is_built(capsys, argv, what):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {what} must be at most 1000000\n"


@pytest.mark.parametrize("monoid", ["nat", "int"])
def test_a_long_chain_of_distinct_binomials_is_filled_only_up_to_the_window(
        capped_cli, monoid):
    # the product of (1 + T^k) for k = 1..3000 has at T^m the number of
    # partitions of m into distinct parts; built whole, its tables need more
    # than the cap
    expr = "*".join(f"(1+T^{k})" for k in range(1, 3001))
    proc = capped_cli("series-eval", "--monoid", monoid, "--ring", "int",
                      "--window", "3", "--expr", expr)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "1 + 1·T^1 + 1·T^2 + 2·T^3\n"
