"""Two coordinate frames, cones over them, and roof closure.

Everything lives in exact integer arithmetic: the q-frame is plain Z^3,
the l-frame maps into it by (l1,l2,l3) -> (l2+l3, l1+l3, l1+l2), and
l-coordinates are kept as doubled integers so half-integer points stay
exact.
"""

from tritile import (
    conj_contains,
    conj_height,
    conj_roof_generators,
    embed,
    inverse_embed,
    monomial_text,
    project,
    std_roof_generators,
)

print("== frames ==")
q = embed(1, 0, 0)
print(f"l-point (1,0,0) embeds to q-point {q}")
print(f"back again (doubled): {inverse_embed(q)}")
print(f"q-point (1,0,0) has half-integer l-coordinates: {inverse_embed((1,0,0))} / 2")
print(f"projection along the diagonal: {project((5,3,2))}")
print(f"monomial display: {monomial_text((-1,2,1))}")

print()
print("== cones and heights ==")
pit = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
w = conj_roof_generators(pit)
print(f"three peaks around a pit: {list(w.generators)}")
for p in [(1, 1, 1), (2, 2, 2), (0, 0, 0)]:
    print(
        f"  height of {p} = {conj_height(w, p):+d}"
        f"   (member: {conj_contains(w, p)})"
    )

print()
print("== roof closure fills valleys ==")
octants = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
print(f"three unit octants close to {list(conj_roof_generators(octants).generators)}")
print("the same points in the l-frame are already closed:")
print(f"  standard roof keeps {list(std_roof_generators(octants).qpoints())}")
