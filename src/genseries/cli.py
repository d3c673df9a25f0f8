"""Batch command-line interface: JSON in, JSON or text out.

Subcommands
-----------
series-eval    evaluate a series expression over a chosen monoid and ring
dirichlet      arithmetic-function expressions, tabulated up to n-max
puiseux        series with fractional exponents on the rational grid
classify       artinian/noetherian/narrow/finite classification
poset          validate / longest-chain / largest-antichain / strict-pomonoid
category-check run the finiteness-space verification sweep
selftest       condensed property suites of every module

Expressions are read into plain tokens by one ``findall`` (any whitespace,
newlines included, separates tokens) and parsed by recursive descent; a
literal's element is checked where it is read, a polynomial literal's
monomials fold into one table, and a run of one builtin is counted on the
tokens.  Each command prints through ``_emit``, the one reader of
``--format``, and ``--descriptor`` and ``--poset`` are decoded once, with
errors reported by line.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation
or any other unexpected exception (always a bug, reported in one line
without a traceback).  Windows are mandatory on lazy-series
commands so every invocation terminates.  Identical invocations,
including the seed, produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import finspace
from .catalog import descriptor_from_json, descriptor_to_json, carrier_from_spec
from .errors import GenSeriesError, InputError, InternalError, SizeBoundError
from .monoids import Monoid, monoid_from_spec, nat, posnat_mul, rational_grid
from .posets import (FinitePomonoid, FinitePoset, classify_subset,
                     is_strict_pomonoid, largest_antichain, longest_chain,
                     poset_violations, relation_from_json)
from .rings import Ring, ring_from_spec
from .series import GenSeries, from_table, from_terms, geometric, moebius, power, zeta

# ---------------------------------------------------------------------------
# expression language

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\S")
_OPERATORS = {"+": "+", "-": "-", "*": "*", "·": "*", "^": "^", "/": "/", "(": "(", ")": ")"}


def _tokenize(text: str) -> list:
    """Plain tokens: an int for a number, a str for a name or an operator
    (``·`` read as ``*``), then "" at the end; any whitespace separates
    tokens.  Each distinct word is read once."""
    words = _TOKEN.findall(text)
    read, bad = {}, {}
    for word in set(words):
        if word in _OPERATORS:
            read[word] = _OPERATORS[word]
        elif word[0].isdecimal():
            try:
                read[word] = int(word)
            except ValueError as exc:  # past the interpreter's digit limit
                bad[word] = exc
        elif word.isascii() and word.isidentifier():
            read[word] = word
    try:
        return [*map(read.__getitem__, words), ""]
    except KeyError:  # the first word without a token is the error
        m = next(m for m in _TOKEN.finditer(text) if m.group() not in read)
        if m.group() in bad:
            raise InputError(f"number at position {m.start()}: {bad[m.group()]}") from None
        raise InputError(f"unexpected character {m.group()!r} in expression") from None


# Each parenthesis or unary minus nests one recursive call deeper; this cap
# keeps the parser well inside the interpreter's recursion limit.
_MAX_NESTING = 100
# The largest --window or --n-max: a window's value lists have about this many
# entries, so larger ones are refused before any list is built.
_MAX_SIZE = 10**6


class _ExprParser:
    """terms, +, -, products, parentheses, named builtins; literals as tables."""

    def __init__(self, text: str, monoid: Monoid, ring: Ring, window: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.monoid = monoid
        self.ring = ring
        self.window = window
        self.builtins = {}  # name -> the one series it reads as in this expression

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, op) -> bool:
        """Consume the operator op if it comes next."""
        if self.tokens[self.pos] != op:
            return False
        self.pos += 1
        return True

    def close(self):
        """Consume the ")" that must come next."""
        tok = self.next()
        if tok != ")":
            want = "')'" if tok in _OPERATORS else "op"
            raise InputError(f"expected {want}, found {tok!r}")

    def parse(self) -> GenSeries:
        out = self.expr()
        tok = self.tokens[self.pos]
        if tok != "":
            raise InputError(f"trailing input at token {tok!r}")
        return out

    def series(self, operand) -> GenSeries:
        """A series, or a literal table as one."""
        if type(operand) is dict:
            return from_table(self.monoid, self.ring, operand)
        return operand

    def expr(self) -> GenSeries:
        tokens, ring = self.tokens, self.ring
        acc = self.term()
        while True:
            op = tokens[self.pos]
            if op != "+" and op != "-":
                return self.series(acc)
            self.pos += 1
            t = self.term()
            if type(acc) is dict and type(t) is dict:  # the leading literal terms
                for m, c in t.items():
                    c = ring.neg(c) if op == "-" else c
                    acc[m] = ring.add(acc[m], c) if m in acc else c
            else:
                acc, t = self.series(acc), self.series(t)
                acc = acc + t if op == "+" else acc - t

    def term(self):
        """A product: a series, or a literal table when every factor is a literal."""
        tokens = self.tokens
        acc, factor, k = None, self.factor(), 1
        while True:
            # adjacent reads of one builtin are one series: a run of k is its power
            name = tokens[self.pos - 1]
            if factor is self.builtins.get(name):  # read by its bare name: count on here
                while tokens[self.pos] == "*" and tokens[self.pos + 1] == name:
                    self.pos += 2
                    k += 1
            more = tokens[self.pos] == "*"
            if more:
                self.pos += 1
                f = self.factor()
                if f is factor:
                    k += 1
                    continue
                if acc is None and type(factor) is dict and type(f) is dict:
                    m = None  # the leading literal factors: one monomial, or none
                    if factor and f:
                        ((x, c),), ((y, d),) = factor.items(), f.items()
                        m = self.monoid.product(x, y)
                    factor = {} if m is None else {m: self.ring.mul(c, d)}
                    continue
            run = factor if k == 1 else power(factor, k)
            acc = run if acc is None else self.series(acc) * self.series(run)
            if not more:
                return acc
            factor, k = f, 1

    def nested(self, parse):
        """parse() one nesting level deeper, within the cap."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise InputError(f"expression nests deeper than {_MAX_NESTING} levels")
        out = parse()
        self.depth -= 1
        return out

    def factor(self):
        """One factor after any unary minuses: a series or a literal table."""
        tok = self.next()
        if tok == "-":
            f = self.nested(self.factor)
            return {m: self.ring.neg(c) for m, c in f.items()} if type(f) is dict else -f
        if tok == "(":
            inner = self.nested(self.expr)
            self.close()
            return inner
        if tok == "T":
            m = self.exponent() if self.accept("^") else self.monoid.generator
            if m is None:
                raise InputError(f"carrier {self.monoid.describe()!r} has no default "
                                 "generator; write T^<element>")
            self.monoid.check_element(m)
            return {m: self.ring.one}
        if type(tok) is int:
            c = self.ring.from_int(tok)
            return {} if self.ring.is_zero(c) else {self.monoid.unit: c}
        if tok == "" or tok in _OPERATORS:
            raise InputError(f"expected a term, found {tok!r}")
        return self.builtin(tok)

    def exponent(self):
        parenthesized = self.accept("(")
        sign = -1 if self.accept("-") else 1
        tok = self.next()
        if type(tok) is int:
            element = sign * tok
            if self.accept("/"):
                den = self.next()
                if type(den) is not int:
                    raise InputError(f"expected num, found {den!r}")
                if den == 0:
                    raise InputError("exponent has a zero denominator")
                element = Fraction(element, den)
        elif sign == 1 and type(tok) is str and tok and tok not in _OPERATORS:
            element = tok  # a word exponent
        else:
            raise InputError(f"bad exponent near {tok!r}")
        if parenthesized:
            self.close()
        return element

    def builtin(self, name: str) -> GenSeries:
        """The series a builtin name reads as, built and checked at its first
        read in the expression."""
        if name not in self.builtins:
            self.builtins[name] = self.build_builtin(name)
        return self.builtins[name]

    def build_builtin(self, name: str) -> GenSeries:
        if name == "geometric":
            if self.monoid != nat():
                raise InputError("geometric is a series over the naturals")
            return geometric(self.ring)
        if name == "zeta":
            if self.monoid != posnat_mul():
                raise InputError("zeta is an arithmetic function (posnat-mul carrier)")
            return zeta(self.ring)
        if name == "moebius":
            if self.monoid != posnat_mul():
                raise InputError("moebius is an arithmetic function (posnat-mul carrier)")
            return moebius(self.ring, self.window)
        raise InputError(f"unknown name {name!r} (builtins: geometric, zeta, moebius)")


def eval_expression(text: str, monoid: Monoid, ring: Ring, window: int) -> GenSeries:
    if not isinstance(text, str):  # --input may hold any JSON value
        raise InputError(f"expr must be a string, got {text!r}")
    return _ExprParser(text, monoid, ring, window).parse()


# ---------------------------------------------------------------------------
# command implementations


def _emit(args, payload, text) -> int:
    """Print the command's result in the chosen format: payload() as one JSON
    line, or the text() lines.  Each format builds only its own output."""
    if args.format == "json":
        print(json.dumps(payload(), sort_keys=True, ensure_ascii=False))
    else:
        print(text())
    return 0


def _series_payload(series: GenSeries, monoid, window: int):
    elements, (texts, values) = series.outputs_on(window, (False, True))
    return {
        "window": window,
        "terms": [[monoid.carrier.element_to_json(m), v] for m, v in zip(elements, values)],
        "text": series.format_terms(zip(elements, texts)),
    }


def _load_input(args):
    if getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                blob = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        if not isinstance(blob, dict):
            raise InputError(f"{args.input} must hold a JSON object")
        return blob
    return {}


def _field(args, blob, flag, key, required=True):
    value = getattr(args, flag, None)
    if value is None:
        value = blob.get(key)
    if value is None and required:
        raise InputError(f"missing --{flag.replace('_', '-')} (or {key!r} in --input)")
    return value


def _parse_json_flag(text):
    if not isinstance(text, str):
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare names like "nat" are accepted as-is


def _json_field(args, blob, name):
    """--name (or "name" in --input) as JSON: flag text is decoded once,
    with errors reported by line; a value from --input is decoded already."""
    value = _field(args, blob, name, name)
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise InputError(f"{name} line {exc.lineno}: {exc.msg}") from exc


def _as_int(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise InputError(f"{what} must be an integer, got {value!r}") from exc


def _as_size(value, what):
    n = _as_int(value, what)
    if n > _MAX_SIZE:
        raise SizeBoundError(f"{what} must be at most {_MAX_SIZE}")
    return n


def _terms_from_json(monoid, ring, terms):
    if not isinstance(terms, list):
        raise InputError('"terms" must be a list of [element, coefficient] pairs')
    decoded = []
    for item in terms:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InputError(f"bad term {item!r}; expected [element, coefficient]")
        decoded.append((monoid.carrier.element_from_json(item[0]),
                        ring.element_from_json(item[1])))
    return from_terms(monoid, ring, decoded)


def _show_series(args, blob, monoid, ring, extra=lambda series: {}) -> int:
    """Build the series from --expr or "terms" and print it on the window;
    ``extra`` adds fields to the JSON payload."""
    window = _as_size(_field(args, blob, "window", "window"), "window")
    terms = blob.get("terms")
    expr = _field(args, blob, "expr", "expr", required=terms is None)
    if expr is not None:
        series = eval_expression(expr, monoid, ring, window)
    else:
        series = _terms_from_json(monoid, ring, terms)
    return _emit(args, lambda: _series_payload(series, monoid, window) | extra(series),
                 lambda: series.render(window))


def cmd_series_eval(args) -> int:
    blob = _load_input(args)
    monoid = monoid_from_spec(_parse_json_flag(_field(args, blob, "monoid", "monoid")))
    ring = ring_from_spec(_parse_json_flag(_field(args, blob, "ring", "ring")))
    return _show_series(args, blob, monoid, ring)


def cmd_dirichlet(args) -> int:
    blob = _load_input(args)
    spec = _field(args, blob, "ring", "ring", required=False) or "int"
    ring = ring_from_spec(_parse_json_flag(spec))
    n_max = _as_size(_field(args, blob, "n_max", "n-max"), "n-max")
    if n_max < 1:
        raise InputError("n-max must be at least 1")
    expr = _field(args, blob, "expr", "expr")
    series = eval_expression(expr, posnat_mul(), ring, n_max)

    def rows(json):  # (n, output) for every n, a finite series' zeros too
        return enumerate(series.outputs_on(n_max, (json,), zeros=True)[1][0], 1)
    return _emit(args, lambda: {"values": list(rows(True))},
                 lambda: "\n".join(f"{n}\t{out}" for n, out in rows(False)))


def cmd_puiseux(args) -> int:
    blob = _load_input(args)
    monoid = rational_grid()
    spec = _field(args, blob, "ring", "ring", required=False) or "rational"
    ring = ring_from_spec(_parse_json_flag(spec))
    return _show_series(args, blob, monoid, ring, lambda series: {
        "support": _support_json(monoid.carrier, series)})


def _support_json(carrier, series):
    """``descriptor_to_json`` of the series' support, a finite one listed off
    its table in display order."""
    elements = series.support_elements()
    if elements is None:
        return descriptor_to_json(carrier, series.support)
    return {"finite": list(map(carrier.element_to_json, elements))}


def cmd_classify(args) -> int:
    blob = _load_input(args)
    carrier = carrier_from_spec(_parse_json_flag(_field(args, blob, "carrier", "carrier")))
    desc = descriptor_from_json(carrier, _json_field(args, blob, "descriptor"))
    flags = classify_subset(carrier, desc).to_json()
    return _emit(args, lambda: flags,
                 lambda: ", ".join(f"{k}={'yes' if v else 'no'}"
                                   for k, v in sorted(flags.items())))


def cmd_poset(args) -> int:
    blob = _load_input(args)
    obj = blob or _json_field(args, blob, "poset")
    if not isinstance(obj, dict):
        raise InputError("poset JSON must be an object")
    op = args.operation
    if op == "validate":
        bad = poset_violations(*relation_from_json(obj.get("elements", []),
                                                   obj.get("leq", [])))
        return _emit(args, lambda: {"valid": not bad, "violations": bad},
                     lambda: "invalid: " + "; ".join(bad) if bad else "valid")
    if op == "strict-pomonoid":
        strict = is_strict_pomonoid(FinitePomonoid.from_json(obj))
        return _emit(args, lambda: {"strict": strict},
                     lambda: "strict" if strict else "not strict")
    poset = FinitePoset.from_json(obj)
    if op == "longest-chain":
        chain = longest_chain(poset)
        return _emit(args, lambda: {"chain": chain, "length": len(chain)},
                     lambda: " < ".join(map(str, chain)) if chain else "(empty)")
    if op == "largest-antichain":
        anti = largest_antichain(poset)
        return _emit(args, lambda: {"antichain": anti, "size": len(anti)},
                     lambda: ", ".join(map(str, anti)) if anti else "(empty)")
    raise InputError(f"unknown poset operation {op!r}")


def cmd_category_check(args) -> int:
    if args.samples < 0:
        raise InputError(f"--samples must be a nonnegative integer, got {args.samples}")
    if args.input:
        return _check_user_diagram(_load_input(args), args)
    failures, summary = finspace.verification_sweep(
        max_size=args.max_size, seed=args.seed,
        parallel_samples=args.samples,
        hom_size=min(args.max_size, 2), perp_size=3, family_samples=60)
    _emit(args, lambda: {"verified": not failures, "summary": summary, "failures": failures},
          lambda: "\n".join(summary + (["FAIL " + line for line in failures]
                                        or ["all universal properties verified"])))
    if failures:
        # construction bugs, not user error
        raise InternalError(f"{len(failures)} universal-property failures")
    return 0


def _check_user_diagram(blob, args) -> int:
    """Check a user-supplied span: morphism conditions on one or two legs,
    and equalizer/coequalizer construction + verification on a parallel pair;
    only ``finspace.all_partial_fns`` limits its size."""
    if "dom" not in blob or "cod" not in blob or "f" not in blob:
        raise InputError('diagram JSON needs "dom", "cod" and "f"')
    dom = finspace.space_from_json(blob["dom"])
    cod = finspace.space_from_json(blob["cod"])
    dom_sys = finspace.system_from_json(blob["dom"]) if "family" in blob["dom"] else None
    cod_sys = finspace.system_from_json(blob["cod"]) if "family" in blob["cod"] else None
    f = finspace.partial_fn_from_json(blob["f"], dom, cod)
    result = {"f_morphism": finspace.is_morphism(f, dom_sys, cod_sys)}
    failures = []
    if "g" in blob:
        g = finspace.partial_fn_from_json(blob["g"], dom, cod)
        result["g_morphism"] = finspace.is_morphism(g, dom_sys, cod_sys)
        eq_space, incl = finspace.equalizer(f, g)
        q_space, qmap = finspace.coequalizer(f, g)
        result["equalizer"] = list(eq_space.carrier)
        result["coequalizer_classes"] = [list(lbl) for lbl in q_space.carrier]
        failures = (finspace.verify_equalizer(f, g, eq_space, incl)
                    + finspace.verify_coequalizer(f, g, q_space, qmap))
        result["verified"] = not failures
    _emit(args, lambda: result,
          lambda: "\n".join(f"{key}: {value}" for key, value in sorted(result.items())))
    if failures:
        raise InternalError(f"{len(failures)} universal-property failures")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # only this command loads the suites
    bad = run_selftest(seed=args.seed)
    if bad:
        raise InternalError(f"{bad} self-test suites failed")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; flag misuse is a validation error
        raise InputError(message)


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: building it costs more than
    most commands."""
    parser = _Parser(prog="genseries",
                     description="generalized power series, poset classification, "
                                 "and a finiteness-space category checker")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window=False, monoid=False, ring=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--input", metavar="FILE", help="JSON file carrying the fields")
        if monoid:
            p.add_argument("--monoid", help='carrier spec, e.g. nat or {"trunc": 3}')
        if ring:
            p.add_argument("--ring",
                           help='ring spec: int, rational, mat2, {"mod": n}')
        if window:
            p.add_argument("--window", type=int, help="mandatory finite render window")

    p = sub.add_parser("series-eval", help="evaluate a series expression")
    common(p, window=True, monoid=True, ring=True)
    p.add_argument("--expr", help='e.g. "(1 - T) * geometric"')
    p.set_defaults(fn=cmd_series_eval)

    p = sub.add_parser("dirichlet", help="arithmetic-function table")
    common(p, ring=True)
    p.add_argument("--expr", help='e.g. "zeta * zeta" or "zeta * moebius"')
    p.add_argument("--n-max", dest="n_max", type=int, help="table upper end")
    p.set_defaults(fn=cmd_dirichlet)

    p = sub.add_parser("puiseux", help="series with fractional exponents")
    common(p, window=True, ring=True)
    p.add_argument("--expr", help='e.g. "T^(1/2) + T^(1/3)"')
    p.set_defaults(fn=cmd_puiseux)

    p = sub.add_parser("classify", help="order classification of a described subset")
    common(p)
    p.add_argument("--carrier", help="carrier spec")
    p.add_argument("--descriptor", help='descriptor JSON, e.g. {"all": true}')
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("poset", help="finite poset analysis")
    common(p)
    p.add_argument("--operation", required=True,
                   choices=("validate", "longest-chain", "largest-antichain",
                            "strict-pomonoid"))
    p.add_argument("--poset", help="poset JSON")
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("category-check", help="verify universal properties")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--input", metavar="FILE",
                   help="check a user diagram instead of running the sweep")
    p.add_argument("--max-size", dest="max_size", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=40)
    p.set_defaults(fn=cmd_category_check)

    p = sub.add_parser("selftest", help="condensed property suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: input line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error (this is a bug): {exc}", file=sys.stderr)
        return 2
    except GenSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error (this is a bug): {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
