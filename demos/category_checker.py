"""Finite models of finiteness spaces, with verified universal properties.

On a finite carrier the finitary structure is forced, so the interesting
content is the constructions themselves: equalizers by agreement of
partial functions, products over carriers with adjoined undefinedness
points, a three-stage coequalizer, and an internal hom of nonempty
partial functions with evaluation and currying.  Verification counts
every mediating partial function of every cone of the one-point probe,
point by point, so a corrupted construction is caught, not
assumed away; composition is pointwise, so one point is enough.
"""

from genseries.finspace import (PartialFn, Star, coequalizer, curry, ev,
                                internal_hom, perp, product, space,
                                system, tensor, uncurry, verification_sweep,
                                verify_coequalizer, verify_product)

print("== the dual operator on a hand-built set system ==")
restricted = system(["a", "b"], [["a"]])
print("family:", [sorted(u) for u in restricted.family])
print("dual (everything meets {a} finitely):",
      [sorted(u) for u in perp(restricted).family])

print()
print("== products adjoin an undefinedness point per factor ==")
X, Y = space(["x"]), space(["y"])
P, projections = product([X, Y])
print("carrier of the product of two singletons:", P.carrier)
print("projection values on each point:",
      {t: (projections[0](t), projections[1](t)) for t in P.carrier})

print()
print("== a corrupted product fails uniqueness, and the checker sees it ==")
bad = space(list(P.carrier) + [(Star(0), Star(1))])
bad_projections = [PartialFn(bad, pr.cod, pr.mapping) for pr in projections]
report = verify_product([X, Y], bad, bad_projections)
print(f"{len(report)} failures; first: {report[0]}")

print()
print("== the three-stage coequalizer ==")
W = space(["w"])
V = space(["v1", "v2"])
f = PartialFn(W, V, {"w": "v1"})
g = PartialFn(W, V, {})
Q, q = coequalizer(f, g)
print("one-sided hit removes the class of v1:", Q.carrier)
print("q(v1):", q("v1"), " q(v2):", q("v2"))
print("universal property report:", verify_coequalizer(f, g, Q, q))

print()
print("== internal hom, evaluation, currying ==")
A = space(["a1", "a2"])
B = space(["b"])
hom = internal_hom(A, B)
print(f"nonempty partial maps {len(A)} -> {len(B)}: {len(hom)} points")
e = ev(A, B)
print("evaluation is defined on", len(e.defined_on()), "pairs")
Z = space(["z"])
total = PartialFn(tensor(Z, A), B, {("z", "a1"): "b"})
h = curry(total, Z, A, B)
print("curried section at z:", h("z"))
print("uncurry restores the original:", uncurry(h, Z, A, B) == total)

print()
print("== the full sweep ==")
failures, summary = verification_sweep(max_size=2, seed=0, parallel_samples=60,
                                       family_samples=60, perp_size=3)
for line in summary:
    print(" ", line)
print("failures:", failures if failures else "none")
