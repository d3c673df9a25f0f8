"""Generalized power series: lazy coefficient oracles with finitary support.

A series is a function from a monoid carrier to a coefficient ring,
carried as a memo of computed coefficients plus a support descriptor.
Coefficients outside the descriptor are zero by construction (nothing is
evaluated there), which makes support soundness an invariant rather than
a hope.

The product is convolution over finite decompositions:

    coeff(f * g, m)  =  sum of f(m1) * g(m2)
                        over all (m1, m2) with m1 * m2 = m,
                        m1 in supp(f), m2 in supp(g)

with factors multiplied as f-value times g-value (safe for noncommutative
coefficient rings) and the summation following the canonical pair order,
so renders and tests are reproducible.  Extensional equality of lazy
series is undecidable; the honest surrogate is ``agree_on``, which
compares coefficients at the support elements in a finite window, the
points ``render`` shows (outside a support every coefficient is zero).

``power(f, k)`` is f^k by repeated squaring, in about 2·log2(k) products;
the expression parser raises a run of one repeated factor to its length
this way.

A finite series keeps its table on the monoid's keys over a scale
(``Monoid.lift_table``), as a ring keeps value lists lifted: on the
rational grid the key i over n stands for T^(i/n), so a finite Puiseux
series is a Laurent polynomial in T^(1/n), and its products and sums run
on integers over the lcm of their scales (``join_tables``).  Keys are
lifted where a table is built from elements (``from_table``,
``from_terms``, ``from_function``) and for ``coeff``'s point, and lowered
to elements (``Fraction``s) only where they are read out: the support,
``support_elements``, the window (``_window``) and the one junction where
an infinite series reads a finite table (``_on_elements``).  On every
other family a key is its element.

Every series records how it was built: a finite table, a leaf function,
or ``add``/``neg``/``mul`` of other series.  Sums and negations of finite
series are computed when they are built.  A product of two finite series
keeps its two factors and builds no table until something reads the whole
of it: its ``support``, a window or render where the family has no
``Monoid.cofactor_top``, a sum or negation, or an infinite series it is a
factor of.  That build runs ``_convolve`` on the factors' tables, operands
first and iteratively (``_complete``), freeing each table below once its
parent is built, so its keys, zero entries included, and their order are
those of an eager product, and its support is exactly the table's keys.
Before that, ``coeff(m)`` and a window fill the table only up to the bound
that their last point needs (``_fill``): on the families with
``Monoid.cofactor_top`` a factor's keys matter only up to that bound of the
other factor's least key, which each product works out once from its
factors' (Ribenboim's finiteness condition, concretely).  Elsewhere a query
builds the whole table.  All other coefficients come from one evaluator,
``_evaluate``, behind ``coeff``, ``window_coeffs`` (and so ``terms_on``,
``outputs_on`` and ``render``), ``agree_on`` and ``is_zero_on``.
It walks the build record once, iteratively, so chain depth costs no
stack, and it asks each operand only for what its parents need: a
product needs its factors on the fibers of its points.  The monoid's
family picks how a product of two infinite factors is computed
(``Monoid.list_kernel``): a Cauchy product on the additive naturals and a
Dirichlet sieve for a whole window on the positive naturals, while a single
query there sums its divisor pairs; everywhere else fibers come from
``Monoid.fiber`` and the ring's own operations.  A list kernel multiplies
integer lists only.  The ring lifts a value list to integer lists
(``Ring.lift``), runs the kernel on lifted lists (``Ring.kernel_product``)
and lowers a product's list to values only where a memo reader needs them,
so a chain of kernel products stays on integers: rationals as numerators
over one denominator, residues as representatives, matrices as four entry
lists.
The Cauchy kernel reads a prefix off one big-integer product (Kronecker
substitution) and a few points off dot products.  Where a list kernel runs,
every fiber of a point lies in the prefix below it, so such a product needs
its factors on a prefix.  A leaf or another such product is evaluated there
as one lifted list, on the longest prefix its parents need: a builtin leaf
(``geometric``, ``zeta``, ``moebius``) hands over its integer prefix at
once and keeps it out of its memo, and any other leaf is read point by
point.  Any other series (a sum, a negation, a product with a finite table)
is computed point by point at the prefix's points, and its list is lifted
off its memo.  A series needed at a point above its prefix computes that
point alone.  Each series keeps its values in its memo, and a kernel
product its prefix as the lifted list, so repeated queries reuse work below
the root; a kernel product's prefix goes into its memo only where the
query or a parent other than a kernel product reads it.  A window unit..N
of a builtin or a kernel product is the root's lifted prefix, kept and not
lowered into its memo: ``window_coeffs`` lowers it, and ``outputs_on`` and
``render`` render it (``Ring.render_column``).  Leaves other than the
builtins are read only at members of their support, once each.

Checks run at the boundary, not in the evaluator: ``from_terms`` checks
every element and coefficient, ``from_function`` admits its support and
``coeff`` checks its point.  Nothing the library derived is admitted
again: the builtins are leaves on ``ALL``, which their monoids admit;
``add``, ``neg`` and ``mul`` take their supports from tables of library
products or from the monoid's unchecked tail bounds; ``window_coeffs``
lists a support's window unchecked and the evaluator tests demanded
points with the descriptor's own ``in`` and decomposes them with the
trusted ``Monoid.fiber``.

Series may be shared across threads: the memo fill is idempotent, so
concurrent queries can at worst duplicate work, never disagree.  A finite
product's memo holds its whole table before its build reads as a table,
and its support is published only from that.
"""

from __future__ import annotations

import operator
from itertools import compress

from .catalog import ALL, All, FiniteSet, _is_int, finite
from .errors import InputError, SizeBoundError
from .monoids import Monoid, nat, posnat_mul
from .rings import Ring

# how a series was built: ("table",), ("leaf", fn, ints) with ints(n) a builtin's
# integer values over 0..n - 1 (None for other leaves), ("add", f, g), ("neg", f),
# ("mul", f, g) with an infinite factor, or ("finite-mul", f, g) of two finite
# ones whose table is not built yet (then it becomes _TABLE)
_TABLE = ("table",)
_UNKNOWN = object()  # a least key not worked out yet


class GenSeries:
    """An element of the generalized power series ring over (monoid, ring)."""

    __slots__ = ("monoid", "ring", "_support", "_memo", "_build", "_low", "_top", "_scale",
                 "_lifted")

    def __init__(self, monoid: Monoid, ring: Ring, support, build, memo=None, scale=1):
        self.monoid = monoid
        self.ring = ring
        self._support = support  # None: a finite series', until first read
        # a finite series' memo is its whole table on the monoid's keys over
        # _scale, zero values included, once its build is _TABLE; before, a
        # finite product's holds it up to _top
        self._memo = {} if memo is None else memo
        self._build = build
        self._scale = scale
        # a finite series' least key (None: it has none), worked out when a
        # query needs it on a family with cofactor_top
        self._low = _UNKNOWN
        self._top = None
        # a kernel product's lifted values over 0..top, as (top, list)
        self._lifted = None

    @property
    def support(self):
        if self._support is None:  # a finite series: the keys of its whole table
            table = _table(self)
            self._support = finite(self.monoid.lower_keys(table, self._scale))
        return self._support

    def support_elements(self):
        """A finite series' support in display order; None for an infinite one."""
        if not _is_finite(self):
            return None
        monoid, table = self.monoid, _table(self)
        return monoid.lower_keys(monoid.window_keys(table, self._scale), self._scale)

    # -- observation ---------------------------------------------------------

    def coeff(self, m):
        self.monoid.check_element(m)
        if _is_finite(self):
            return _fill(self, m)
        return _evaluate(self, (m,))[0]

    def agree_on(self, other: "GenSeries", region: int) -> bool:
        """Coefficientwise equality on the window: at every support element
        of either series that ``render`` would show."""
        _check_compatible(self, other)
        mine, theirs = self.window_coeffs(region), other.window_coeffs(region)
        zero = self.ring.zero
        return all(self.ring.eq(mine.get(m, zero), theirs.get(m, zero))
                   for m in mine.keys() | theirs.keys())

    def is_zero_on(self, region: int) -> bool:
        """Are the coefficients ``render`` would show all zero?"""
        return all(map(self.ring.is_zero, self.window_coeffs(region).values()))

    # -- arithmetic ------------------------------------------------------------

    def add(self, other: "GenSeries") -> "GenSeries":
        _check_compatible(self, other)
        monoid, ring = self.monoid, self.ring
        if _is_finite(self) and _is_finite(other):
            f, g, scale = monoid.join_tables(_table(self), self._scale,
                                             _table(other), other._scale)
            table = dict(f)
            for m, c in g.items():
                table[m] = ring.add(table[m], c) if m in table else c
            return GenSeries(monoid, ring, None, _TABLE, table, scale)
        return GenSeries(monoid, ring, monoid.tail_union_bound(self.support, other.support),
                         ("add", self, other))

    def neg(self) -> "GenSeries":
        ring = self.ring
        if _is_finite(self):
            table = {m: ring.neg(c) for m, c in _table(self).items()}
            return GenSeries(self.monoid, ring, self._support, _TABLE, table, self._scale)
        return GenSeries(self.monoid, ring, self.support, ("neg", self))

    def sub(self, other: "GenSeries") -> "GenSeries":
        return self.add(other.neg())

    def mul(self, other: "GenSeries") -> "GenSeries":
        _check_compatible(self, other)
        monoid, ring = self.monoid, self.ring
        if _is_finite(self) and _is_finite(other):
            # no table yet: coeff fills it as far as a query needs, and the
            # first read of the whole builds it (_complete)
            return GenSeries(monoid, ring, None, ("finite-mul", self, other))
        # reading a finite factor's support builds its table, which the fibers
        # read; the bound is finite only when it is empty, and then so is the
        # product's table
        bound = monoid.tail_mul_bound(self.support, other.support)
        return GenSeries(monoid, ring, bound,
                         _TABLE if isinstance(bound, FiniteSet) else ("mul", self, other))

    __add__ = add
    __neg__ = neg
    __sub__ = sub
    __mul__ = mul

    # -- rendering ---------------------------------------------------------------

    def window_coeffs(self, region: int) -> dict:
        """{m: coefficient} for every support element in the window, in
        display order."""
        return dict(zip(*_window(self, region)))

    def terms_on(self, region: int) -> list:
        """Nonzero (element, coefficient) pairs on the support window."""
        is_zero = self.ring.is_zero
        return [(m, c) for m, c in zip(*_window(self, region)) if not is_zero(c)]

    def outputs_on(self, region: int, forms=(False,), zeros=False):
        """The elements of the window's nonzero terms (with zeros, all its
        elements) and per form their coefficients' outputs: texts for False,
        JSON values for True (``Ring.render_column``).  Outputs are canonical,
        so a coefficient is zero where its output is the zero's."""
        elements, outputs = _window(self, region, forms, zeros)
        zero = (self.ring.element_to_json if forms[0] else self.ring.render)(self.ring.zero)
        if zeros or zero not in outputs[0]:
            return elements, outputs
        keep = [out != zero for out in outputs[0]]
        return list(compress(elements, keep)), [list(compress(out, keep)) for out in outputs]

    def render(self, region: int) -> str:
        elements, (texts,) = self.outputs_on(region)
        return self.format_terms(zip(elements, texts))

    def format_terms(self, terms) -> str:
        """The display text of (element, text) pairs, each text a
        coefficient's ``Ring.render``."""
        unit, monomial = self.monoid.unit, self.monoid.monomial
        parts = []
        for m, text in terms:
            if text.startswith("-") or " " in text:
                text = f"({text})"
            parts.append(text if m == unit else f"{text}·{monomial(m)}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<series over {self.monoid.describe()} / {self.ring!r}>"


def power(f: GenSeries, k: int) -> GenSeries:
    """f^k for k >= 1 by repeated squaring: about 2·log2(k) products, not
    k - 1.  Every operand is a power of f, and powers of one element commute,
    so the result is exact on noncommutative rings too."""
    if not _is_int(k) or k < 1:
        raise InputError(f"power needs an integer exponent of at least 1, got {k!r}")
    out = None
    while True:
        if k & 1:
            out = f if out is None else out * f
        k >>= 1
        if not k:
            return out
        f = f * f


def _check_compatible(f: GenSeries, g: GenSeries):
    if f.monoid is not g.monoid and f.monoid != g.monoid:
        raise InputError(
            f"series monoids differ: {f.monoid.describe()} vs {g.monoid.describe()}")
    if f.ring is not g.ring and f.ring != g.ring:
        raise InputError(f"series rings differ: {f.ring!r} vs {g.ring!r}")


def _is_finite(series: GenSeries) -> bool:
    support = series._support
    return support is None or isinstance(support, FiniteSet)


def _table(series: GenSeries) -> dict:
    """A finite series' whole table, on keys over its ``_scale``."""
    if series._build is not _TABLE:
        _complete(series)
    return series._memo


def _window(series: GenSeries, region: int, forms=None, whole=False):
    """The support elements in the window (with whole, all its elements), in
    display order, and their coefficients, or per form their outputs
    (``GenSeries.outputs_on``).  A finite table's keys are listed, then
    lowered; a finite product with ``cofactor_top`` is filled up to the
    window only.  A window unit..region of a builtin or kernel product on a
    list kernel's family reads the root's lifted column."""
    monoid, ring = series.monoid, series.ring
    if _is_finite(series):
        if series._build is _TABLE or monoid.cofactor_top is None:
            table = _table(series)
        else:
            _fill(series, region)
            table = series._memo
        scale = series._scale
        if whole:
            elements = monoid.window(region)
            values = [table.get(monoid.lift_key(m, scale), ring.zero) for m in elements]
        else:
            keys = monoid.window_keys(table, scale, region)
            elements, values = monoid.lower_keys(keys, scale), [table[k] for k in keys]
    else:
        elements = (monoid.window(region) if whole
                    else monoid.enumerate_admitted(series.support, region))
        op, *operands = series._build
        if elements and monoid.list_kernel(elements) and (  # a builtin or a kernel product
                operands[1] is not None if op == "leaf"
                else op == "mul" and not any(map(_is_finite, operands))):
            column = _evaluate(series, elements, elements[-1])
            window = slice(monoid.unit, elements[-1] + 1)
            if forms is None:
                return elements, ring.lower(column)[window]
            return elements, [ring.render_column(column, window, json) for json in forms]
        values = _evaluate(series, elements)
    if forms is None:
        return elements, values
    return elements, [list(map(ring.element_to_json if json else ring.render, values))
                      for json in forms]


# ---------------------------------------------------------------------------
# evaluation


def _post_order(root: GenSeries) -> list:
    """root and the series below it other than built tables, each once,
    operands before the nodes that use them: below an infinite series the
    infinite ones, below a finite product the products not yet built."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:  # iterative, so chain depth costs no stack
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            build = node._build
            if build[0] != "leaf":
                stack += [(f, False) for f in build[1:] if f._build is not _TABLE]
    return order


def _fill(root: GenSeries, m):
    """root's coefficient at m, for a finite series: a table is read at m's
    key, and a finite product's memo is filled with its table up to m, or on
    a family without ``cofactor_top`` the whole table is built.

    Operands first, each product's least key is worked out once: the
    product of its factors' least keys.  Then, parents first, each product
    passes on how far its factors are needed: a key of f * g up to top has
    its f-factor up to ``cofactor_top(top, low)`` for g's least key low, and
    alike for g.  Then, operands first, each product crosses its factors'
    keys up to there and keeps the keys up to top; a memo already filled
    that far is read, not filled again.
    """
    monoid, ring = root.monoid, root.ring
    cofactor_top, product = monoid.cofactor_top, monoid.product
    if cofactor_top is None or root._build is _TABLE:
        table = _table(root)
        return table.get(monoid.lift_key(m, root._scale), ring.zero)
    if root._top is not None and m <= root._top:  # filled that far already
        return root._memo.get(m, ring.zero)
    order = []  # the products not yet built, with their factors, operands first
    for node in _post_order(root):
        build = node._build
        if build is not _TABLE:
            _, f, g = build
            if node._low is _UNKNOWN:
                low_f, low_g = _least(f), _least(g)
                node._low = None if low_f is None or low_g is None else product(low_f, low_g)
            order.append((node, f, g))
    tops = {root: m}  # product -> how far its memo must hold its table
    for node, f, g in reversed(order):  # parents first, so each top is the largest
        top = tops.get(node)
        if top is None:
            continue
        if node._low is None or node._top is not None and top <= node._top:
            del tops[node]  # no keys, or filled that far
            continue
        for h, other in ((f, g), (g, f)):
            if h._build is not _TABLE:
                need = cofactor_top(top, other._low)
                if tops.get(h, need) <= need:
                    tops[h] = need
    add, mul = ring.add, ring.mul
    for node, f, g in order:
        top = tops.get(node)
        if top is None:
            continue
        f_top, g_top = cofactor_top(top, g._low), cofactor_top(top, f._low)
        gs = [(y, b) for y, b in g._memo.items() if y <= g_top]
        out = {}
        for x, a in f._memo.items():
            if x <= f_top:
                y_top = cofactor_top(top, x)  # x * y <= top
                for y, b in gs:
                    if y <= y_top:
                        k = product(x, y)
                        if k is not None:
                            c = mul(a, b)
                            out[k] = add(out[k], c) if k in out else c
        node._memo.update(out)
        node._top = top
    return root._memo.get(m, ring.zero)


def _least(series: GenSeries):
    """A finite series' least key, None if it has none: a built table's is
    worked out at the first call."""
    if series._low is _UNKNOWN:
        series._low = min(series._memo, default=None)
    return series._low


def _complete(root: GenSeries):
    """Build the whole tables of root, a finite product, and of the finite
    products below it not yet built, in ``_post_order`` (operands first, a
    shared one once): each is ``_convolve`` of its operands' tables, moved
    onto one scale, as if built when multiplied.  A memo holds the whole
    table before its build reads _TABLE, and a support is published only
    after that, from the keys."""
    order = _post_order(root)[::-1]
    while order:  # popped, so a table below is freed once its parent is built
        node = order.pop()
        _, f, g = node._build
        monoid = node.monoid
        fs, gs, node._scale = monoid.join_tables(f._memo, f._scale, g._memo, g._scale)
        node._memo = _convolve(monoid, node.ring, fs, gs)
        node._build = _TABLE  # the operands are no longer needed


def _evaluate(root: GenSeries, points, prefix=None) -> list:
    """root's coefficients at carrier elements that the caller has validated;
    with prefix, for a root that is a builtin leaf or a kernel product, its
    lifted list over 0..prefix (or further) for the window unit..prefix at
    points, which is not lowered into its memo.

    Values are computed into the memos of root and the infinite series below
    it, in one walk: parents first, each node's demand passes to its
    operands; then, operands first, each node computes its demand.  A demand
    is a set of points -- members of the support that the memo lacks -- and,
    for a leaf or a product of two infinite series that the monoid's list
    kernel runs, a prefix unit..top as well, computed as one lifted list
    indexed by element (zero below the unit).  Such a product reads the
    prefix it kept from an earlier walk, or lifts a memo that holds it, or
    else computes it and keeps it lifted; it lowers the prefix into its memo
    only when its demand has points there, which it then drops.  A leaf
    computes its points on their own.  A
    kernel product needs its factors up to its last point: a leaf or another
    kernel product on that prefix, any other series at each of the prefix's
    points, whose list the kernel then reads off its memo.  A sum or a
    negation needs its operands on its own points, any other product its
    factors on the fibers of its points.  A point above a prefix stays a
    point: the prefix is not widened to reach it.  The families with a list
    kernel admit no infinite support but ALL, so every prefix point is a
    support point.
    """
    monoid, ring = root.monoid, root.ring
    zero, unit = ring.zero, monoid.unit
    need = {}  # node -> the points to compute
    tops = {} if prefix is None else {root: prefix}  # leaf or kernel product -> its last point

    def demand(node, pts):
        if _is_finite(node):
            return
        memo, support = node._memo, node._support
        anywhere = isinstance(support, All)
        new = [p for p in pts if p not in memo and (anywhere or p in support)]
        if new:
            need.setdefault(node, set()).update(new)

    if prefix is None:
        demand(root, points)
    order = _post_order(root) if need or tops else []
    kernel = monoid.list_kernel(points) if order else None
    # the products of two infinite series that the kernel runs
    kernels = set() if kernel is None else {
        node for node in order if node._build[0] == "mul"
        and not (_is_finite(node._build[1]) or _is_finite(node._build[2]))}
    plans = {}  # other product -> the fibers {m: pairs} of its points
    lists = {}  # leaf or kernel product -> its lifted values over 0..its top, or further
    lowered = set()  # kernel products whose prefix holds points their memo lacks
    for node in reversed(order):  # parents first, so each demand is whole when passed on
        wanted, top = need.get(node), tops.get(node)
        op, *operands = node._build
        if op == "leaf":
            continue
        if top is not None:
            if wanted and min(wanted) <= top:
                lowered.add(node)
                wanted = need[node] = {m for m in wanted if m > top}
            memo, kept = node._memo, node._lifted
            if kept is not None and kept[0] >= top and node not in lowered:
                lists[node] = kept[1]
            elif memo and all(m in memo for m in range(unit, top + 1)):
                lists[node] = ring.lift([zero] * unit + [memo[m] for m in range(unit, top + 1)])
            if node in lists:
                del tops[node]
                top = None
        if not wanted and top is None:
            continue
        if node in kernels:
            last = max(wanted) if wanted else top  # points lie above the prefix
            for h in operands:
                if h._build[0] != "leaf" and h not in kernels:  # computed point by point
                    demand(h, range(unit, last + 1))
                elif tops.get(h, unit - 1) < last:
                    tops[h] = last
        elif op == "mul":
            f, g = operands
            fibers = plans[node] = {m: monoid.fiber(m, f._support, g._support) for m in wanted}
            demand(f, [a for pairs in fibers.values() for a, _ in pairs])
            demand(g, [b for pairs in fibers.values() for _, b in pairs])
        else:
            for h in operands:
                demand(h, wanted)

    def column(f, n):  # f's lifted values over 0..n-1: its list, or else its memo's
        if f in lists:
            return lists[f]  # a kernel reads a longer list only as far as it needs
        memo = f._memo
        return ring.lift([zero] * unit + [memo[m] for m in range(unit, n)])

    for node in order:
        wanted, top = need.get(node), tops.get(node)
        if not wanted and top is None:
            continue
        memo = node._memo
        op, *operands = node._build
        if op == "leaf":
            fn, ints = operands
            if top is not None:
                if ints is not None:  # a builtin: its prefix at once, not kept
                    lists[node] = ring.lift_ints(ints(top + 1))
                else:
                    values = [memo[m] if m in memo else fn(m) for m in range(unit, top + 1)]
                    memo.update(zip(range(unit, top + 1), values))
                    lists[node] = ring.lift([zero] * unit + values)
            for m in wanted or ():
                if m not in memo:  # not read by the prefix just now
                    memo[m] = fn(m)
            continue
        if node in kernels:  # the prefix, then the points above it
            n = (max(wanted) if wanted else top) + 1
            f = column(operands[0], n)
            g = f if operands[1] is operands[0] else column(operands[1], n)
            if top is not None:  # kept lifted; lowered only where a memo reader needs it
                values = lists[node] = ring.kernel_product(kernel, f, g, range(top + 1))
                node._lifted = (top, values)
                if node in lowered:
                    memo.update(zip(range(unit, top + 1), ring.lower(values)[unit:]))
            if wanted:
                ks = list(wanted)
                memo.update(zip(ks, ring.lower(ring.kernel_product(kernel, f, g, ks))))
            continue
        fv = _on_elements(operands[0])
        if op == "neg":
            for m in wanted:
                memo[m] = ring.neg(fv[m])
            continue
        gv = _on_elements(operands[1])
        if op == "add":
            for m in wanted:
                memo[m] = ring.add(fv.get(m, zero), gv.get(m, zero))
            continue
        fibers = plans[node]
        for m in wanted:
            total = zero
            for a, b in fibers[m]:
                total = ring.add(total, ring.mul(fv[a], gv[b]))
            memo[m] = total
    if prefix is not None:
        return lists[root]
    memo = root._memo
    return [memo.get(m, zero) for m in points]


def _on_elements(series: GenSeries) -> dict:
    """series' memo on elements: the one place where an infinite series reads
    a finite table.  Over the scale 1 a key is its element."""
    memo, scale = series._memo, series._scale
    if scale == 1:
        return memo
    return dict(zip(series.monoid.lower_keys(memo, scale), memo.values()))


def _convolve(monoid: Monoid, ring: Ring, f: dict, g: dict) -> dict:
    """Exact product of two finite tables on keys over one scale; undefined
    monoid products drop out."""
    out = {}
    product = monoid.key_product  # table keys were checked when the tables were built
    add, mul = ring.add, ring.mul
    for x, a in f.items():
        for y, b in g.items():
            m = product(x, y)
            if m is not None:
                c = mul(a, b)
                out[m] = add(out[m], c) if m in out else c
    return out


# ---------------------------------------------------------------------------
# constructors


def from_terms(monoid: Monoid, ring: Ring, terms) -> GenSeries:
    """A series with explicit finite support; zero coefficients are dropped."""
    table = {}
    seen = set()
    for m, c in terms:
        monoid.check_element(m)
        ring.check_element(c)
        if m in seen:
            raise InputError(f"duplicate term at {m!r}")
        seen.add(m)
        if not ring.is_zero(c):
            table[m] = c
    return from_table(monoid, ring, table)


def from_table(monoid: Monoid, ring: Ring, table: dict) -> GenSeries:
    """A finite series on a checked table of elements; zero values stay, as in
    a convolution.  Its keys are lifted here, once, and its support is read
    off them when first asked for."""
    return GenSeries(monoid, ring, None, _TABLE, *monoid.lift_table(table))


def zero_series(monoid: Monoid, ring: Ring) -> GenSeries:
    return from_terms(monoid, ring, [])


def unit_series(monoid: Monoid, ring: Ring) -> GenSeries:
    """Coefficient one at the monoid unit, zero elsewhere."""
    return from_terms(monoid, ring, [(monoid.unit, ring.one)])


def from_function(monoid: Monoid, ring: Ring, support, fn) -> GenSeries:
    """A lazy series: fn is consulted only inside the support descriptor.

    On a finite support the table is read off fn at once, at each member.
    """
    monoid.require_admitted(support)
    if isinstance(support, FiniteSet):
        table = {m: fn(m) for m in support.elements}
        return GenSeries(monoid, ring, support, _TABLE, *monoid.lift_table(table))
    return GenSeries(monoid, ring, support, ("leaf", fn, None))


# ---------------------------------------------------------------------------
# named builtins


def geometric(ring: Ring) -> GenSeries:
    """1 + T + T^2 + ... over the naturals."""
    return GenSeries(nat(), ring, ALL, ("leaf", lambda m: ring.one, lambda n: [1] * n))


def zeta(ring: Ring) -> GenSeries:
    """The arithmetic function that is constantly one (Dirichlet zeta)."""
    return GenSeries(posnat_mul(), ring, ALL,
                     ("leaf", lambda m: ring.one, lambda n: [0] + [1] * (n - 1)))


def moebius(ring: Ring, bound: int) -> GenSeries:
    """The Moebius function, precomputed up to a declared bound.

    Queries beyond the bound raise ``SizeBoundError``: a lazy sieve without
    a bound would silently hide the cost model, so the bound is explicit.
    """
    if bound < 1:
        raise InputError("moebius bound must be at least 1")
    values = _moebius_table(bound)

    def mu(n):
        if n > bound:
            raise SizeBoundError(f"moebius precomputed up to {bound}, asked for {n}")
        return ring.from_int(values[n])

    def prefix(n):  # the values over 0..n - 1
        if n > bound + 1:
            raise SizeBoundError(f"moebius precomputed up to {bound}, asked for {bound + 1}")
        return values[:n]

    return GenSeries(posnat_mul(), ring, ALL, ("leaf", mu, prefix))


def _moebius_table(bound: int) -> list[int]:
    # a sieve: each prime p negates mu on its multiples and zeroes it on p*p's
    mu = [0] + [1] * bound
    composite = bytearray(bound + 1)
    for p in range(2, bound + 1):
        if not composite[p]:
            mu[p::p] = map(operator.neg, mu[p::p])
            if p * p <= bound:
                composite[p * p::p] = b"\1" * len(range(p * p, bound + 1, p))
                mu[p * p::p * p] = [0] * (bound // (p * p))
    return mu
