"""The finite-poset algorithms as they stood before bitset rows: the order
laws checked by a triple loop over the boolean matrix, the longest chain
by a memoized recursion, and the largest antichain by an include-first
branch-and-bound search.  Kept as an oracle that ``genseries.posets`` must
agree with, element for element and message for message.  The antichain
search is exponential; only small posets are sent to it.
"""

from __future__ import annotations


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


def longest_chain(p) -> list:
    """A maximum-length chain, via longest path in the strict-order DAG."""
    n = len(p.elements)
    lt = [[i != j and p.leq[i][j] for j in range(n)] for i in range(n)]
    best = [0] * n    # longest chain starting at i, minus one
    nxt = [-1] * n
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


def largest_antichain(p) -> list:
    """A maximum set of pairwise-incomparable elements, by exponential
    branch-and-bound that tries "include" first."""
    n = len(p.elements)
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
