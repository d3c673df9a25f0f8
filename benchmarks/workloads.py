"""Seeded operation batches for the three benchmark workloads.

Every operation goes through a public entry point: ``genseries.cli.main``
with captured stdout, or ``cli.eval_expression`` followed by
``GenSeries.coeff``.  Each carries a check against ``oracles``, so a wrong
coefficient or an unexpected exit code is a failed operation.

An operation's ``run(genseries)`` returns what the program produced; its
``check(result)`` is evaluated only after the timed loop.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracles

# ---------------------------------------------------------------------------
# operations


class CliOp:
    """One ``genseries`` command: argv in, (exit code, stdout, stderr) out."""

    def __init__(self, kind, argv, check, coeffs=0):
        self.kind = kind
        self.argv = argv
        self.check = check
        self.coeffs = coeffs

    def run(self, gs):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = gs.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()


class QueryOp:
    """A fresh series from ``eval_expression``, then ``coeff`` at a few
    exponents; the check compares the returned values."""

    def __init__(self, kind, expr, monoid, ring, exponents, expected):
        self.kind = kind
        self.expr = expr
        self.monoid = monoid
        self.ring = ring
        self.exponents = exponents
        self.expected = expected
        self.coeffs = len(exponents)

    def run(self, gs):
        monoid = gs.monoid_from_spec(self.monoid)
        ring = gs.ring_from_spec(self.ring)
        series = gs.cli.eval_expression(self.expr, monoid, ring, max(self.exponents))
        return [series.coeff(m) for m in self.exponents]

    def check(self, values):
        return values == self.expected


def _json_ok(expected_payload):
    def check(result):
        code, out, _ = result
        return code == 0 and json.loads(out) == expected_payload
    return check


def _text_ok(expected_text):
    def check(result):
        code, out, _ = result
        return code == 0 and out == expected_text
    return check


def _refused(result):
    code, out, err = result
    return code == 1 and out == "" and err.startswith("error: ")


# ---------------------------------------------------------------------------
# expression text and expected payloads


def _nat_mono(e):
    return "" if e == 0 else f"T^{e}"


def _int_mono(e):
    return "" if e == 0 else (f"T^({e})" if e < 0 else f"T^{e}")


def _grid_mono(q):
    if q == 0:
        return ""
    return f"T^({q.numerator})" if q.denominator == 1 else f"T^({q.numerator}/{q.denominator})"


def _word_mono(w):
    return "" if w == "" else f"T^{w}"


def _poly_text(terms, mono):
    """terms: [(exponent, nonzero int coefficient)] with distinct exponents."""
    out = []
    for i, (e, c) in enumerate(terms):
        body = mono(e)
        mag = abs(c)
        piece = str(mag) if not body else (body if mag == 1 else f"{mag}*{body}")
        if i == 0:
            out.append(f"-{piece}" if c < 0 else piece)
        else:
            out.append(f" - {piece}" if c < 0 else f" + {piece}")
    return "(" + "".join(out) + ")"


def _product_text(factors, mono):
    return " * ".join(_poly_text(f, mono) for f in factors)


_RINGS = {
    # spec key: (ring spec, embed an int, add, mul, zero, coefficient JSON)
    "int": ("int", int, lambda a, b: a + b, lambda a, b: a * b, 0, str),
    "rational": ("rational", Fraction, lambda a, b: a + b, lambda a, b: a * b,
                 0, oracles.fraction_text),
    "mod7": ({"mod": 7}, lambda c: c % 7, lambda a, b: (a + b) % 7,
             lambda a, b: (a * b) % 7, 0, lambda v: {"mod": 7, "val": v}),
    "mat2": ("mat2", lambda c: (c, 0, 0, c), oracles.mat2_add, oracles.mat2_mul,
             (0, 0, 0, 0), list),
}


def _expected_product(factors, ring_key, op):
    _, embed, add, mul, zero, _ = _RINGS[ring_key]
    dicts = [{e: embed(c) for e, c in f} for f in factors]
    return oracles.product(dicts, op, add, mul, zero)


def _terms_payload(coeffs, ring_key, in_window, sort_key, elem_json):
    to_json = _RINGS[ring_key][5]
    keys = sorted((m for m in coeffs if in_window(m)), key=sort_key)
    return [[elem_json(m), to_json(coeffs[m])] for m in keys]


def _json_argv(command, ring_key, expr, window, monoid=None):
    argv = [command]
    if monoid is not None:
        argv += ["--monoid", json.dumps(monoid) if not isinstance(monoid, str) else monoid]
    ring_spec = _RINGS[ring_key][0]
    argv += ["--ring", json.dumps(ring_spec) if not isinstance(ring_spec, str) else ring_spec,
             "--expr", expr, "--window", str(window), "--format", "json"]
    return argv


def _finite_product_op(kind, command, monoid, ring_key, factors, mono, op,
                       window, in_window, sort_key, elem_json):
    """A rendered window of a finite product, checked term by term."""
    coeffs = _expected_product(factors, ring_key, op)
    terms = _terms_payload(coeffs, ring_key, in_window, sort_key, elem_json)
    argv = _json_argv(command, ring_key, _product_text(factors, mono), window, monoid)

    def check(result):
        code, out, _ = result
        if code != 0:
            return False
        payload = json.loads(out)
        return payload["window"] == window and payload["terms"] == terms
    return CliOp(kind, argv, check, coeffs=len(terms))


RING_PAIR = ("int", "rational")  # alternated, since rational arithmetic costs more


def _spread(rng, lo, hi, n):
    """n ascending sizes evenly covering [lo, hi], slightly jittered: the seed
    varies the inputs while the batch's cost, and so each latency percentile,
    stays nearly the same."""
    return [lo + round((hi - lo) * (i + 0.5 + rng.uniform(-0.1, 0.1)) / n) for i in range(n)]


def _shapes(n, *ranges):
    """n size combinations spread evenly over the product of the ranges.
    They are the same for every seed, which varies only the values filled
    into them, so the spread of costs in a batch does not depend on it."""
    combos = list(itertools.product(*ranges))
    return [combos[(2 * i + 1) * len(combos) // (2 * n)] for i in range(n)]


def _random_factor(rng, exponents, size, lo=-5, hi=5):
    exps = rng.sample(exponents, size)
    return [(e, rng.choice([c for c in range(lo, hi + 1) if c != 0])) for e in exps]


# ---------------------------------------------------------------------------
# window-render


def window_render(rng: random.Random) -> list:
    ops = []
    # about twenty heavy renders, so that p90 falls among evenly spread costs
    windows = ([(2, w) for w in _spread(rng, 100, 200, 8)]
               + [(3, w) for w in _spread(rng, 100, 110, 3)])
    for i, (k, window) in enumerate(windows):
        ring_key = RING_PAIR[i % 2]
        expr = " * ".join(["geometric"] * k)
        values = [oracles.geometric_power(k, m) for m in range(window + 1)]
        text = " + ".join(str(c) if m == 0 else f"{c}·T^{m}" for m, c in enumerate(values))
        if i % 2:
            argv = ["series-eval", "--monoid", "nat", "--ring", ring_key,
                    "--expr", expr, "--window", str(window)]
            ops.append(CliOp("geometric-power", argv, _text_ok(text + "\n"), window + 1))
        else:
            payload = {"window": window, "text": text,
                       "terms": [[m, str(c)] for m, c in enumerate(values)]}
            ops.append(CliOp("geometric-power", _json_argv("series-eval", ring_key, expr,
                                                           window, "nat"),
                             _json_ok(payload), window + 1))

    for expr, k, sizes in (("zeta * moebius", 0, _spread(rng, 1000, 1600, 3)),
                           ("zeta * zeta", 2, _spread(rng, 1000, 1600, 3)),
                           ("zeta * zeta * zeta", 3, _spread(rng, 800, 1200, 3))):
        for i, n_max in enumerate(sizes):
            ring_key, fmt = RING_PAIR[i % 2], ("text", "json")[i // 2]
            values = [oracles.dirichlet_unit(n) if k == 0 else oracles.divisor_power(k, n)
                      for n in range(1, n_max + 1)]
            argv = ["dirichlet", "--ring", ring_key, "--expr", expr,
                    "--n-max", str(n_max), "--format", fmt]
            if fmt == "text":
                check = _text_ok("".join(f"{n}\t{v}\n" for n, v in enumerate(values, 1)))
            else:
                check = _json_ok({"values": [[n, str(v)] for n, v in enumerate(values, 1)]})
            ops.append(CliOp("dirichlet", argv, check, n_max))

    grid = sorted({Fraction(p, q) for q in range(1, 7) for p in range(-2 * q, 3 * q + 1)})
    for i, (window, k, size) in enumerate(_shapes(23, range(2, 5), (2, 3), range(2, 5))):
        factors = [_random_factor(rng, grid, size) for _ in range(k)]
        ops.append(_finite_product_op(
            "puiseux", "puiseux", None, RING_PAIR[i % 2], factors,
            _grid_mono, lambda a, b: a + b, window,
            lambda x, w=window: -w <= x <= w, lambda x: x, oracles.fraction_text))

    words = [""] + [a + b for a in "xy" for b in ("", "x", "y")] + ["xyx", "yxy", "yyx"]
    for window, k, size in _shapes(22, range(3, 9), (2, 3), range(2, 5)):
        factors = [_random_factor(rng, words, size) for _ in range(k)]
        ops.append(_finite_product_op(
            "free-words", "series-eval", {"words": "xy"}, "int", factors, _word_mono,
            lambda a, b: a + b, window, lambda x, w=window: len(x) <= w,
            lambda x: (len(x), x), lambda x: x))

    for window, k, size in _shapes(22, range(10, 21), (2, 3), range(2, 5)):
        factors = [_random_factor(rng, list(range(-8, 9)), size) for _ in range(k)]
        ops.append(_finite_product_op(
            "laurent-mat2", "series-eval", "int", "mat2", factors, _int_mono,
            lambda a, b: a + b, window, lambda x, w=window: -w <= x <= w,
            lambda x: x, lambda x: x))

    for cap, share, k, size in _shapes(23, range(6, 15), (2, 3, 4), (2, 3, 4), range(2, 5)):
        window = cap * share // 4
        factors = [_random_factor(rng, list(range(cap + 1)), size, 1, 6) for _ in range(k)]
        ops.append(_finite_product_op(
            "trunc-mod7", "series-eval", {"trunc": cap}, "mod7", factors, _nat_mono,
            lambda a, b, c=cap: a + b if a + b <= c else None, window,
            lambda x, w=window: x <= w, lambda x: x, lambda x: x))

    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# point-query


# A chain of this many geometric factors overflows the interpreter stack in
# the recursive lazy evaluator.  It is kept out of the timed batch, where
# every operation must succeed, and runs once per benchmark run as an
# untimed probe whose outcome is printed on its own line.
DEEP_CHAIN = 600


def deep_chain_probe() -> QueryOp:
    return QueryOp(f"geometric-chain-{DEEP_CHAIN}", " * ".join(["geometric"] * DEEP_CHAIN),
                   "nat", "int", [3], [oracles.geometric_power(DEEP_CHAIN, 3)])


def point_query(rng: random.Random) -> list:
    ops = []
    tops = {2: (400, 1500, 12), 3: (60, 150, 11), 4: (25, 50, 11)}
    for k, (lo, hi, n) in tops.items():
        for i, m in enumerate(_spread(rng, lo, hi, n)):
            exps = [m, m // 2 + rng.randint(-2, 2)]  # the cost follows m alone
            ring_key = RING_PAIR[i % 2]
            ops.append(QueryOp("geometric-coeff", " * ".join(["geometric"] * k), "nat",
                               ring_key, exps, [oracles.geometric_power(k, e) for e in exps]))

    sparse = ([("nat", n) for n in _spread(rng, 20, 40, 6)]
              + [("int", n) for n in _spread(rng, 20, 40, 6)])
    for carrier, n in sparse:
        ks = sorted(rng.sample(range(1, n + 6), n))
        factors = [[(0, 1), (k, 1)] for k in ks]
        coeffs = _expected_product(factors, "int", lambda a, b: a + b)
        exps = [e + rng.randint(-1, 1) for e in (6, 12, 18)]
        mono = _nat_mono if carrier == "nat" else _int_mono
        ops.append(QueryOp("sparse-product", _product_text(factors, mono), carrier, "int",
                           exps, [coeffs.get(e, 0) for e in exps]))

    for i, big in enumerate(_spread(rng, 5000, 30000, 38)):
        carrier = ("nat", "int")[i % 2]
        small = _random_factor(rng, list(range(6)), 2 + i % 3)
        coeffs = dict(small)
        exps = [big + e for e in sorted(rng.sample(range(6), 2))]
        mono = _nat_mono if carrier == "nat" else _int_mono
        expr = f"T^{big} * " + _poly_text(small, mono)
        ops.append(QueryOp("shifted-poly", expr, carrier, "int",
                           exps, [coeffs.get(e - big, 0) for e in exps]))

    for i, k in enumerate(_spread(rng, 100, 400, 26)):
        m = 2 + i % 3
        ops.append(QueryOp("geometric-chain", " * ".join(["geometric"] * k), "nat", "int",
                           [m], [oracles.geometric_power(k, m)]))

    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# checker


def _sweep_op(rng):
    seed = rng.randint(0, 10_000)
    samples = rng.randint(10, 40)
    argv = ["category-check", "--max-size", "3", "--seed", str(seed),
            "--samples", str(samples), "--format", "json"]
    summary = [
        f"equalizers+coequalizers: {samples} parallel pairs",
        "products+coproducts: 16 space pairs, empty product checked",
        "curry/uncurry bijection: 27 size combinations",
        "dual-operator laws: 60 sampled families",
        "zero object: checked against all sizes",
    ]
    return CliOp("sweep", argv, _json_ok({"verified": True, "summary": summary,
                                          "failures": []}))


def _diagram_op(rng, path, n_dom, n_cod):
    dom = [f"d{i}" for i in range(n_dom)]
    cod = [f"c{i}" for i in range(n_cod)]

    # f is undefined at one point and g agrees with it on exactly half the
    # domain, so the equalizer's size, which sets the cost, is the same for
    # every seed
    hole = rng.choice(dom)
    f = {x: rng.choice(cod) for x in dom if x != hole}
    agree = set(rng.sample(dom, n_dom // 2))
    g = {}
    for x in dom:
        if x in agree:
            if x in f:
                g[x] = f[x]
        else:
            g[x] = rng.choice([c for c in cod if c != f.get(x)])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dom": {"carrier": dom}, "cod": {"carrier": cod},
                   "f": {"graph": f}, "g": {"graph": g}}, fh)
    eq = oracles.equalizer_points(dom, f, g)
    classes = oracles.coequalizer_classes(dom, cod, f, g)

    def check(result):
        code, out, _ = result
        if code != 0:
            return False
        got = json.loads(out)
        return (got["f_morphism"] is True and got["g_morphism"] is True
                and got["verified"] is True and set(got["equalizer"]) == eq
                and len(got["equalizer"]) == len(eq)
                and {frozenset(c) for c in got["coequalizer_classes"]} == classes
                and len(got["coequalizer_classes"]) == len(classes))
    return CliOp("diagram", ["category-check", "--input", path, "--format", "json"], check)


def _random_poset(rng, n, density):
    perm = rng.sample(range(n), n)
    lt = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                lt[perm[a]][perm[b]] = True
    for k in range(n):  # transitive closure
        for i in range(n):
            if lt[i][k]:
                for j in range(n):
                    if lt[k][j]:
                        lt[i][j] = True
    labels = [f"p{i}" for i in range(n)]
    leq = [[i == j or lt[i][j] for j in range(n)] for i in range(n)]
    return labels, lt, json.dumps({"elements": labels, "leq": leq})


def _poset_ops(rng, n, density):
    labels, lt, text = _random_poset(rng, n, density)
    index = {lbl: i for i, lbl in enumerate(labels)}
    chain_len = oracles.longest_chain_length(n, lt)
    anti = oracles.width(n, lt)

    def chain_ok(result):
        code, out, _ = result
        got = json.loads(out) if code == 0 else None
        return (got is not None and got["length"] == chain_len == len(got["chain"])
                and oracles.is_chain(lt, [index[x] for x in got["chain"]]))

    def anti_ok(result):
        code, out, _ = result
        got = json.loads(out) if code == 0 else None
        return (got is not None and got["size"] == anti == len(set(got["antichain"]))
                and oracles.is_antichain(lt, [index[x] for x in got["antichain"]]))

    base = ["poset", "--poset", text, "--format", "json", "--operation"]
    return [CliOp("longest-chain", base + ["longest-chain"], chain_ok),
            CliOp("largest-antichain", base + ["largest-antichain"], anti_ok)]


def _pomonoid_op(rng):
    n = rng.randint(2, 6)
    shape = rng.choice(["cyclic", "saturating", "max"])
    if shape == "cyclic":  # Z_n, discrete order
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        leq = [[a == b for b in range(n)] for a in range(n)]
    elif shape == "saturating":  # chain 0 < ... < n-1, addition capped at the top
        table = [[min(a + b, n - 1) for b in range(n)] for a in range(n)]
        leq = [[a <= b for b in range(n)] for a in range(n)]
    else:  # chain with join, unit at the bottom
        table = [[max(a, b) for b in range(n)] for a in range(n)]
        leq = [[a <= b for b in range(n)] for a in range(n)]
    text = json.dumps({"elements": [f"e{i}" for i in range(n)], "leq": leq,
                       "cayley": table, "unit": 0})
    argv = ["poset", "--operation", "strict-pomonoid", "--poset", text, "--format", "json"]
    return CliOp("strict-pomonoid", argv,
                 _json_ok({"strict": oracles.strict_translations(n, leq, table)}))


def _classify_ops(rng):
    trunc = rng.randint(2, 6)
    elements = {
        "nat": lambda: rng.randint(0, 50),
        "nat-discrete": lambda: rng.randint(0, 50),
        "int": lambda: rng.randint(-50, 50),
        "int-discrete": lambda: rng.randint(-50, 50),
        "posnat-mul": lambda: rng.randint(1, 50),
        "posnat-div": lambda: rng.randint(1, 50),
        "rational-grid": lambda: oracles.fraction_text(Fraction(rng.randint(-9, 9),
                                                                rng.randint(1, 6))),
        "words": lambda: "".join(rng.choice("xy") for _ in range(rng.randint(0, 3))),
        "trunc": lambda: rng.randint(0, trunc),
    }
    specs = {"words": {"words": "xy"}, "trunc": {"trunc": trunc}}
    ops = []
    for name, draw in elements.items():
        spec = specs.get(name, name)
        descriptors = [
            ({"finite": list(dict.fromkeys(draw() for _ in range(rng.randint(0, 4))))},
             oracles.FINITE),
            ({"all": True}, oracles.WHOLE_CARRIER[name]),
            ({"gridtail": {"a": rng.randint(-6, 6), "n": rng.randint(1, 5)}},
             oracles.OMEGA if name == "rational-grid" else None),
            ({"tailge": {"a": rng.randint(-6, 6)}}, oracles.OMEGA if name == "int" else None),
        ]
        for desc, flags in descriptors:
            argv = ["classify", "--carrier", spec if isinstance(spec, str) else json.dumps(spec),
                    "--descriptor", json.dumps(desc), "--format", "json"]
            if flags is None:
                check = _refused
            else:
                check = _json_ok(dict(zip(("artinian", "noetherian", "narrow", "finite"),
                                          flags)))
            ops.append(CliOp("classify", argv, check))
    return ops


def checker(rng: random.Random, workdir: str) -> list:
    ops = [_sweep_op(rng) for _ in range(2)]
    ops += [_diagram_op(rng, os.path.join(workdir, f"diagram{i}.json"), 3 + i % 4, 2 + i % 2)
            for i in range(20)]
    # densities cover 0.05-0.4 evenly, paired with the sizes in a fixed order
    for i, n in enumerate(_spread(rng, 8, 20, 20)):
        ops += _poset_ops(rng, n, 0.05 + 0.35 * ((7 * i) % 20 + 0.5) / 20)
    ops += [_pomonoid_op(rng) for _ in range(12)]
    ops += _classify_ops(rng)
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "window-render": lambda rng, workdir: window_render(rng),
    "point-query": lambda rng, workdir: point_query(rng),
    "checker": checker,
}


def build(name: str, seed: int, workdir: str) -> list:
    """The fixed batch of a workload; the same seed gives the same batch."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
