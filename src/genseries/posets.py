"""Posets, the artinian/narrow/noetherian classification, and pomonoids.

Classification of infinite subsets is rule-based over the closed carrier
catalog: the properties are undecidable for arbitrary sets but exact for
the descriptor grammar.  An artinian, noetherian and narrow poset is
necessarily finite, and that implication is enforced as a post-check on
every result this module emits.

Finite posets are read as bitset rows, one ``int`` up-set per element:
the order laws, the longest chain, the largest antichain (Dilworth's
theorem through matchings, polynomial with no size cap) and strict-map
checking run on them.  The pomonoid machinery, which turns a strict
finite pomonoid into a total finiteness monoid, completes the module.
"""

from __future__ import annotations

from itertools import islice

from .catalog import (All, Carrier, Descriptor, FiniteSet, FreeWords,
                      GridTail, IntDiscrete, IntUsual, NatDiscrete, NatUsual,
                      PosNatDivisibility, PosNatMulUsual, RationalGrid,
                      TailGE, Truncated)
from .errors import (CarrierError, DescriptorError, InputError, InternalError,
                     StrictnessError)
from .values import Value

# ---------------------------------------------------------------------------
# classification


class OrderClassification(Value):
    artinian: bool
    noetherian: bool
    narrow: bool
    finite: bool

    def to_json(self):
        return {
            "artinian": self.artinian,
            "noetherian": self.noetherian,
            "narrow": self.narrow,
            "finite": self.finite,
        }


# (artinian, noetherian, narrow, finite) of the full carrier.
#
# nat / posnat usual order: well orders, so descending chains and antichains
#   are finite but 0 < 1 < 2 < ... ascends forever.
# discrete orders: no strict pairs at all, but an infinite antichain.
# int / rational usual order: total (narrow) but descend forever.
# divisibility: artinian (proper divisors shrink), not noetherian
#   (1 | 2 | 4 | ...), not narrow (the primes are an infinite antichain).
# free words in shortlex: a well order of type omega, like nat.
# truncated: a finite chain.
_ALL_TABLE = {
    NatUsual: (True, False, True, False),
    NatDiscrete: (True, True, False, False),
    IntUsual: (False, False, True, False),
    IntDiscrete: (True, True, False, False),
    PosNatMulUsual: (True, False, True, False),
    PosNatDivisibility: (True, False, False, False),
    RationalGrid: (False, False, True, False),
    FreeWords: (True, False, True, False),
    Truncated: (True, True, True, True),
}


def classify_subset(carrier: Carrier, desc: Descriptor) -> OrderClassification:
    """Classify the described subset under the carrier's order.

    Raises ``DescriptorError`` when the descriptor shape does not exist on
    the carrier (grid tails are rational-only, integer tails integer-only).
    """
    if not isinstance(carrier, Carrier):
        raise CarrierError(f"not a catalog carrier: {carrier!r}")
    if isinstance(desc, FiniteSet):
        for e in desc.elements:
            carrier.check_element(e)
        result = OrderClassification(True, True, True, True)
    elif isinstance(desc, GridTail):
        if not isinstance(carrier, RationalGrid):
            raise DescriptorError(f"grid tails only exist on the rational grid, not {carrier.name}")
        result = OrderClassification(True, False, True, False)
    elif isinstance(desc, TailGE):
        if not isinstance(carrier, IntUsual):
            raise DescriptorError(f"integer tails only exist on int, not {carrier.name}")
        result = OrderClassification(True, False, True, False)
    elif isinstance(desc, All):
        result = OrderClassification(*_ALL_TABLE[type(carrier)])
    else:
        raise DescriptorError(f"unknown descriptor {desc!r}")
    if result.artinian and result.noetherian and result.narrow and not result.finite:
        raise InternalError(
            f"artinian+noetherian+narrow subset reported infinite: {carrier.name}/{desc!r}")
    return result


# ---------------------------------------------------------------------------
# finite posets


def _bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _rows(leq) -> tuple:
    """The relation as bitset rows: bit j of row i is set when leq[i][j]."""
    return tuple(sum(1 << j for j, v in enumerate(row) if v) for row in leq)


def _strict(rows) -> list[int]:
    """Each element's strict up-set, from the rows of the order."""
    return [row & ~(1 << i) for i, row in enumerate(rows)]


def _converse(rows) -> list[int]:
    """The rows of the converse relation: bit i of row j is set when bit j of
    row i is."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            out[j] |= 1 << i
    return out


# poset_violations lists at most this many, then counts the rest in one line
_MAX_VIOLATIONS = 1000


def poset_violations(elements, leq) -> list[str]:
    """Reflexivity / antisymmetry / transitivity violations, on bitset rows:
    the first ``_MAX_VIOLATIONS`` of them, then the number left out."""
    return _shape_violations(elements, leq) or _law_violations(elements, _rows(leq))


def _shape_violations(elements, leq) -> list[str]:
    if len(set(elements)) != len(elements):
        return ["duplicate element labels"]
    if len(leq) != len(elements) or any(len(row) != len(elements) for row in leq):
        return ["relation matrix shape does not match the element list"]
    return []


def _law_violations(elements, rows) -> list[str]:
    bad = list(islice(_each_violation(elements, rows), _MAX_VIOLATIONS))
    if len(bad) == _MAX_VIOLATIONS:
        left = _violation_count(rows) - _MAX_VIOLATIONS
        if left:
            bad.append(f"... and {left} more violations")
    return bad


def _each_violation(elements, rows):
    n = len(rows)
    for i in range(n):
        if not rows[i] >> i & 1:
            yield f"not reflexive at {elements[i]!r}"
    for i in range(n):
        for j in _bits(rows[i] & ~(1 << i)):
            if rows[j] >> i & 1:
                yield f"antisymmetry fails on {elements[i]!r}, {elements[j]!r}"
    for i in range(n):
        for j in _bits(rows[i]):
            for k in _bits(rows[j] & ~rows[i]):  # i <= j <= k but not i <= k
                yield f"transitivity fails on {elements[i]!r} <= {elements[j]!r} <= {elements[k]!r}"


def _violation_count(rows) -> int:
    """How many messages ``_each_violation`` yields, by popcounts: O(n²)."""
    n, down = len(rows), _converse(rows)
    return (sum(not rows[i] >> i & 1 for i in range(n))
            + sum((rows[i] & down[i] & ~(1 << i)).bit_count() for i in range(n))
            + sum((rows[j] & ~rows[i]).bit_count() for i in range(n) for j in _bits(rows[i])))


def _list_of_lists(value) -> bool:
    return isinstance(value, list) and all(isinstance(row, list) for row in value)


def relation_from_json(elements, leq) -> tuple[tuple, tuple]:
    """The "elements" and "leq" fields of poset JSON as label and boolean
    matrix tuples.  Shapes and labels are checked here; the order laws are
    left to ``poset_violations``."""
    if not isinstance(elements, list) or not _list_of_lists(leq):
        raise InputError('poset JSON needs "elements" as a list and "leq" as a list of lists')
    for label in elements:
        if isinstance(label, (list, dict)):
            raise InputError(f"poset element {label!r} is not a JSON scalar")
    return tuple(elements), tuple(tuple(bool(v) for v in row) for row in leq)


class FinitePoset(Value):
    """A finite poset given by labels and a boolean order matrix."""

    elements: tuple
    leq: tuple

    def __init__(self, elements, leq):
        bad = _shape_violations(elements, leq)
        if not bad:
            # bitset rows, built once where the laws are checked; not a field
            rows = _rows(leq)
            bad = _law_violations(elements, rows)
        if bad:
            raise InputError("not a poset: " + "; ".join(bad))
        self._store(elements, leq)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def build(elements, leq_rows) -> "FinitePoset":
        return FinitePoset(tuple(elements), tuple(tuple(bool(v) for v in row) for row in leq_rows))

    @staticmethod
    def from_le(elements, le) -> "FinitePoset":
        """Build from a binary predicate on labels."""
        elements = tuple(elements)
        rows = tuple(tuple(bool(le(a, b)) for b in elements) for a in elements)
        return FinitePoset(elements, rows)

    def index(self, label) -> int:
        try:
            return self.elements.index(label)
        except ValueError as exc:
            raise InputError(f"{label!r} is not in the poset") from exc

    def le(self, a, b) -> bool:
        return self.leq[self.index(a)][self.index(b)]

    def lt(self, a, b) -> bool:
        return a != b and self.le(a, b)

    def reverse(self) -> "FinitePoset":
        return FinitePoset(self.elements, tuple(zip(*self.leq)))

    def __len__(self):
        return len(self.elements)

    def to_json(self):
        return {"elements": list(self.elements), "leq": [list(row) for row in self.leq]}

    @staticmethod
    def from_json(obj) -> "FinitePoset":
        if not isinstance(obj, dict) or "elements" not in obj or "leq" not in obj:
            raise InputError('poset JSON needs "elements" and "leq"')
        return FinitePoset(*relation_from_json(obj["elements"], obj["leq"]))


def longest_chain(p: FinitePoset) -> list:
    """A maximum-length chain, via longest path over a linear extension."""
    up = _strict(p.rows)
    n = len(up)
    best = [0] * n    # longest chain starting at i, minus one
    nxt = [-1] * n
    # i < j shrinks the strict up-set, so its size orders a linear extension
    for i in sorted(range(n), key=lambda i: up[i].bit_count()):
        for j in _bits(up[i]):
            if best[j] + 1 > best[i]:
                best[i] = best[j] + 1
                nxt[i] = j
    i = max(range(n), key=best.__getitem__, default=-1)
    chain = []
    while i != -1:
        chain.append(p.elements[i])
        i = nxt[i]
    return chain


def _matching(up, s: int) -> int:
    """Size of a maximum matching of i in s to j in up[i] & s, by breadth-first search."""
    mate = {}        # right vertex -> its left vertex
    for u in _bits(s):
        parent = {}  # right vertex -> the right vertex before it, -1 for u
        queue = [-1]
        seen = 0
        end = -1
        while queue and end == -1:
            w = queue.pop(0)
            new = up[mate.get(w, u)] & s & ~seen
            seen |= new
            for v in _bits(new):
                parent[v] = w
                if v not in mate:
                    end = v
                    break
                queue.append(v)
        while end != -1:  # flip the path: each right vertex takes its parent's left one
            mate[end] = mate.get(parent[end], u)
            end = parent[end]
    return len(mate)


def largest_antichain(p: FinitePoset) -> list:
    """A maximum set of pairwise-incomparable elements, earliest first: each
    is kept when it, the kept ones and the width of the later ones that are
    incomparable to all of them reach the width, a set's size minus a
    maximum matching of its strict order (Dilworth; Fulkerson)."""
    up = _strict(p.rows)
    down = _strict(_converse(p.rows))
    free = (1 << len(up)) - 1   # elements incomparable to everything kept
    width = len(up) - _matching(up, free)
    kept = []
    for i in range(len(up)):
        if not free >> i & 1:
            continue
        rest = free & ~up[i] & ~down[i] & ~((2 << i) - 1)
        need = width - len(kept) - 1
        # no set is wider than it is large: match only when that reaches
        if rest.bit_count() >= need and rest.bit_count() - _matching(up, rest) >= need:
            kept.append(i)
            free = rest
    return [p.elements[i] for i in kept]


def increasing_subsequence(carrier: Carrier, seq) -> list[int]:
    """Indices of a maximum-length non-decreasing subsequence.

    Quadratic dynamic programming over the carrier order; on discrete
    carriers only equal values chain.
    """
    seq = list(seq)
    for x in seq:
        carrier.check_element(x)
    n = len(seq)
    length = [1] * n
    prev = [-1] * n
    for i in range(n):
        for j in range(i):
            if carrier.leq(seq[j], seq[i]) and length[j] + 1 > length[i]:
                length[i] = length[j] + 1
                prev[i] = j
    if n == 0:
        return []
    end = max(range(n), key=lambda i: length[i])
    out = []
    while end != -1:
        out.append(end)
        end = prev[end]
    return out[::-1]


def is_strict_map(f, p: FinitePoset, q: FinitePoset) -> bool:
    """True iff a < b in p always implies f(a) < f(b) in q."""
    for a in p.elements:
        if a not in f:
            raise InputError(f"mapping is not total: missing {a!r}")
    # each label's first index, as FinitePoset.index finds it
    at = {label: i for i, label in reversed(list(enumerate(q.elements)))}

    def index(label):
        if label not in at:
            raise InputError(f"{label!r} is not in the poset")
        return at[label]

    images, q_rows = [f[a] for a in p.elements], q.rows
    for i, up in enumerate(_strict(p.rows)):
        for j in _bits(up):
            if images[i] == images[j] or not q_rows[index(images[i])] >> index(images[j]) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# pomonoids


class FinitePomonoid(Value):
    """A finite monoid in posets: Cayley table + order-preserving operation."""

    poset: FinitePoset
    cayley: tuple
    unit_index: int

    def __init__(self, poset, cayley, unit_index):
        self._store(poset, cayley, unit_index)
        n = len(self.poset.elements)
        if len(self.cayley) != n or any(len(row) != n for row in self.cayley):
            raise InputError("Cayley table shape does not match the poset")
        for row in self.cayley:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise InputError(f"Cayley entry {v!r} is not an element index")
        if not 0 <= self.unit_index < n:
            raise InputError("unit index out of range")
        t = self.cayley
        e = self.unit_index
        for a in range(n):
            if t[e][a] != a or t[a][e] != a:
                raise InputError(f"unit law fails at index {a}")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise InputError(f"associativity fails at indices ({a}, {b}, {c})")
        broken = _broken_translation(t, self.poset.rows)
        if broken:
            raise InputError("operation is not order-preserving at indices "
                             "({} <= {}, translate by {})".format(*broken))

    def op(self, a, b):
        ia, ib = self.poset.index(a), self.poset.index(b)
        return self.poset.elements[self.cayley[ia][ib]]

    @property
    def unit(self):
        return self.poset.elements[self.unit_index]

    def to_json(self):
        out = self.poset.to_json()
        out["cayley"] = [list(row) for row in self.cayley]
        out["unit"] = self.unit_index
        return out

    @staticmethod
    def from_json(obj) -> "FinitePomonoid":
        poset = FinitePoset.from_json(obj)
        if "cayley" not in obj or "unit" not in obj:
            raise InputError('pomonoid JSON needs "cayley" and "unit"')
        if not _list_of_lists(obj["cayley"]) or type(obj["unit"]) is not int:
            raise InputError('pomonoid JSON needs "cayley" as a list of lists '
                             'and "unit" as an element index')
        return FinitePomonoid(poset, tuple(tuple(r) for r in obj["cayley"]), obj["unit"])


def _broken_translation(t, rel):
    """The first (a, b, c) with a rel b but not a*c rel b*c or not c*a rel
    c*b, for a relation given as bitset rows; None if there is none."""
    for a, row in enumerate(rel):
        for b in _bits(row):
            for c in range(len(rel)):
                if not rel[t[a][c]] >> t[b][c] & 1 or not rel[t[c][a]] >> t[c][b] & 1:
                    return a, b, c
    return None


def is_strict_pomonoid(m: FinitePomonoid) -> bool:
    """Both-sided strict translation: s < s' forces s*t < s'*t and t*s < t*s'."""
    return _broken_translation(m.cayley, _strict(m.poset.rows)) is None


def embed_finite_pomonoid(m: FinitePomonoid):
    """Turn a strict finite pomonoid into a total finiteness monoid.

    The resulting monoid admits finite support descriptors and reads its
    decompositions off the Cayley table.  Strictness is a hard precondition:
    it is what guarantees, at infinite scale, that decomposition sets stay
    finite, and we surface its necessity here rather than silently accepting
    any finite table.
    """
    if not is_strict_pomonoid(m):
        raise StrictnessError(
            "pomonoid is not strictly ordered; some s < s' collapses under translation")
    from .monoids import TableMonoid
    return TableMonoid(m.poset.elements, m.cayley, m.unit_index)
