"""Puiseux series: fractional exponents on fixed denominator grids.

A tail descriptor GridTail(a, n) stands for the exponent set
{i/n : i >= a}.  Products of tails land in a tail on the common grid
g = lcm(n, m): GridTail(a, n) * GridTail(b, m) is bounded by
GridTail(a*(g/n) + b*(g/m), g), and each product exponent has finitely
many decompositions, one arithmetic progression of offsets on that grid.
"""

from fractions import Fraction

from genseries import (GridTail, RationalRing, from_function, from_terms,
                       rational_grid)

Q = RationalRing()
G = rational_grid()

print("== explicit fractional exponents ==")
f = from_terms(G, Q, [(Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(1))])
print("T^(1/2) + T^(1/3):", f.render(1))
print("square:", (f * f).render(1))

print()
print("== lazy tails and the support law ==")
half_tail = from_function(G, Q, GridTail(1, 2), lambda m: Fraction(1))
third_tail = from_function(G, Q, GridTail(-1, 3), lambda m: Fraction(1))
product = half_tail * third_tail
print("support of (tail from 1/2) * (tail from -1/3):", product.support)
print("first terms:", product.render(2))

print()
print("== decompositions of a single exponent ==")
target = Fraction(5, 6)
pairs = G.decompose_within(target, GridTail(1, 2), GridTail(-1, 3))
print(f"ways to write {target} as i/2 + j/3 with i >= 1, j >= -1:")
for a, b in pairs:
    print(f"  {a} + {b}")

print()
print("== unions refine the grid ==")
joined = G.union_bound(GridTail(1, 2), GridTail(1, 3))
print("union of tails on /2 and /3 grids:", joined)
print("members up to 2:", G.enumerate_desc(joined, 2))
