"""Staircase surfaces: one slant tile over every flat tile, whose
gradient is the induced vector field there, and the In/Out/Bd
decomposition against a standard region."""

from tritile import (
    ConjUpSet,
    QPoint,
    Window,
    classify,
    flatten,
    gradient,
    section_at,
    tile,
)
from tritile.cones import StdUpSet

w = ConjUpSet((QPoint(1, 1, 0), QPoint(0, 1, 1), QPoint(1, 0, 1)))

print("== sections ==")
for t in [tile(0, 0, 0, 1, 2), tile(-1, 0, 0, 1, 3), tile(3, 3, 0, 1, 2)]:
    s = section_at(w, t)
    g = gradient(s)
    print(f"flat {t.text():>10}  lifts to {s.text():>10}   gradient x{g[0]}x{g[1]}")

print()
print("== decomposition against the standard cone at the origin ==")
std = StdUpSet.from_qpoints([QPoint(0, 0, 0)])
cl = classify(w, std, Window(-6, 6, -6, 6))
print(f"In  ({len(cl.in_tiles)}): {[s.text() for s in cl.in_tiles]}")
print(f"Bd  ({len(cl.bd_tiles)}): {[s.text() for s in cl.bd_tiles]}")
print(f"Out ({len(cl.out_tiles)}) tiles surround them; consistency = no Bd tiles")

print()
print("== a properly cut tile ==")
w1 = ConjUpSet((QPoint(0, 0, 0),))
w2 = StdUpSet.from_qpoints([QPoint(1, 0, -1)])
cl = classify(w1, w2, Window(-3, 3, -3, 3))
print(f"octant surface vs a tilted standard cone: Bd = {[s.text() for s in cl.bd_tiles]}")
print(f"(flat positions: {[flatten(s).text() for s in cl.bd_tiles]})")
