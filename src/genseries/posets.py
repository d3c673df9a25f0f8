"""Posets, the artinian/narrow/noetherian classification, and pomonoids.

Classification of infinite subsets is rule-based over the closed carrier
catalog: the properties are undecidable for arbitrary sets but exact for
the descriptor grammar.  An artinian, noetherian and narrow poset is
necessarily finite, and that implication is enforced as a post-check on
every result this module emits.

Finite posets come with desk-scale chain and antichain extraction
(correctness over cleverness: the antichain search is a bounded
exponential scan, not Dilworth via matching), strict-map checking, and
the pomonoid machinery that turns a strict finite pomonoid into a total
finiteness monoid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import (All, Carrier, Descriptor, FiniteSet, FreeWords,
                      GridTail, IntDiscrete, IntUsual, NatDiscrete, NatUsual,
                      PosNatDivisibility, PosNatMulUsual, RationalGrid,
                      TailGE, Truncated)
from .errors import (CarrierError, DescriptorError, InputError, InternalError,
                     SizeBoundError, StrictnessError)

_ANTICHAIN_CAP = 20  # elements; the antichain search is exponential

# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class OrderClassification:
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


def poset_violations(elements, leq) -> list[str]:
    """Reflexivity / antisymmetry / transitivity violations, by enumeration."""
    n = len(elements)
    bad = []
    if len(set(elements)) != n:
        bad.append("duplicate element labels")
        return bad
    if len(leq) != n or any(len(row) != n for row in leq):
        bad.append("relation matrix shape does not match the element list")
        return bad
    for i in range(n):
        if not leq[i][i]:
            bad.append(f"not reflexive at {elements[i]!r}")
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                bad.append(f"antisymmetry fails on {elements[i]!r}, {elements[j]!r}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    bad.append(
                        f"transitivity fails on {elements[i]!r} <= {elements[j]!r} <= {elements[k]!r}")
    return bad


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


@dataclass(frozen=True)
class FinitePoset:
    """A finite poset given by labels and a boolean order matrix."""

    elements: tuple
    leq: tuple

    def __post_init__(self):
        bad = poset_violations(self.elements, self.leq)
        if bad:
            raise InputError("not a poset: " + "; ".join(bad))

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
        n = len(self.elements)
        rows = tuple(tuple(self.leq[j][i] for j in range(n)) for i in range(n))
        return FinitePoset(self.elements, rows)

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
    """A maximum-length chain, via longest path in the strict-order DAG."""
    n = len(p.elements)
    lt = [[i != j and p.leq[i][j] for j in range(n)] for i in range(n)]
    best = [0] * n    # longest chain starting at i, minus one
    nxt = [-1] * n
    # antisymmetry + transitivity make strict order acyclic, so a plain
    # memoized scan in decreasing order of out-degree height terminates
    done = [False] * n

    def height(i):
        if done[i]:
            return best[i]
        done[i] = True
        for j in range(n):
            if lt[i][j]:
                h = height(j) + 1
                if h > best[i]:
                    best[i] = h
                    nxt[i] = j
        return best[i]

    if n == 0:
        return []
    start = max(range(n), key=height)
    chain = [start]
    while nxt[chain[-1]] != -1:
        chain.append(nxt[chain[-1]])
    return [p.elements[i] for i in chain]


def largest_antichain(p: FinitePoset) -> list:
    """A maximum set of pairwise-incomparable elements.

    Exponential branch-and-bound scan, refused past _ANTICHAIN_CAP
    elements: desk-scale posets only.
    """
    n = len(p.elements)
    if n > _ANTICHAIN_CAP:
        raise SizeBoundError(f"poset has {n} elements, antichain search capped at {_ANTICHAIN_CAP}")
    comparable = [[i != j and (p.leq[i][j] or p.leq[j][i]) for j in range(n)] for i in range(n)]
    best: list[int] = []

    def extend(idx, current):
        nonlocal best
        if len(current) + (n - idx) <= len(best):
            return
        if idx == n:
            if len(current) > len(best):
                best = list(current)
            return
        if all(not comparable[i][idx] for i in current):
            current.append(idx)
            extend(idx + 1, current)
            current.pop()
        extend(idx + 1, current)

    extend(0, [])
    return [p.elements[i] for i in best]


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
    for a in p.elements:
        for b in p.elements:
            if p.lt(a, b) and not q.lt(f[a], f[b]):
                return False
    return True


# ---------------------------------------------------------------------------
# pomonoids


@dataclass(frozen=True)
class FinitePomonoid:
    """A finite monoid in posets: Cayley table + order-preserving operation."""

    poset: FinitePoset
    cayley: tuple
    unit_index: int

    def __post_init__(self):
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
        leq = self.poset.leq
        for a in range(n):
            for b in range(n):
                if not leq[a][b]:
                    continue
                for c in range(n):
                    if not leq[t[a][c]][t[b][c]] or not leq[t[c][a]][t[c][b]]:
                        raise InputError(
                            "operation is not order-preserving at indices "
                            f"({a} <= {b}, translate by {c})")

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


def is_strict_pomonoid(m: FinitePomonoid) -> bool:
    """Both-sided strict translation: s < s' forces s*t < s'*t and t*s < t*s'."""
    n = len(m.poset.elements)
    leq = m.poset.leq
    t = m.cayley

    def lt(i, j):
        return i != j and leq[i][j]

    for s in range(n):
        for s2 in range(n):
            if not lt(s, s2):
                continue
            for c in range(n):
                if not lt(t[s][c], t[s2][c]) or not lt(t[c][s], t[c][s2]):
                    return False
    return True


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
