"""Norms of roofs and what happens when roofs are added.

Adding roofs unions their peaks and closes the result; close-by pits
fuse their closed trajectories into longer ones, which is the point of
the construction.  The demo ends with the sharper behaviour of three
pits sharing a single peak, where closure digs a new pit below them.
"""

from tritile import (
    ConjUpSet,
    QPoint,
    closed_trajectories_of_roof,
    conj_roof_generators,
    encode,
    flatten,
    norm,
    roof_add,
    section_at,
    trace,
)

w1 = conj_roof_generators([QPoint(1, 1, 0), QPoint(0, 1, 1), QPoint(1, 0, 1)])
w2 = conj_roof_generators([QPoint(1, 2, -1), QPoint(0, 2, 0), QPoint(1, 1, 0)])
w3 = conj_roof_generators([QPoint(0, 2, 0), QPoint(-1, 2, 1), QPoint(0, 1, 1)])

print("== three pits, each a closed 6-cycle ==")
for name, w in (("w1", w1), ("w2", w2), ("w3", w3)):
    trajs = closed_trajectories_of_roof(w)
    print(f"|{name}| = {len(norm(w))} tiles, cycles: {[len(t) for t in trajs]}")

print()
print("== fusion ==")
total = roof_add(roof_add(w1, w2), w3)
print(f"g(w1+w2+w3) = {[tuple(g) for g in total.generators]}")
trajs = closed_trajectories_of_roof(total)
print(f"|sum| = {len(norm(total))} tiles = union of the three norms")
print(f"cycles: {[len(t) for t in trajs]}   code: {encode(trajs[0])}")

print()
print("== three pits sharing one peak ==")
w5 = conj_roof_generators([QPoint(0, 1, 1), QPoint(-1, 1, 2), QPoint(0, 0, 2)])
shared = roof_add(roof_add(w1, w3), w5)
print(f"g(w1+w3+w5) = {[tuple(g) for g in shared.generators]}  (a new pit one level down)")
print(f"|w1+w3+w5| = {len(norm(shared))} tiles, cycles: {[len(t) for t in closed_trajectories_of_roof(shared)]}")

print()
print("== a sweeping cone ==")
outer = ConjUpSet(
    (QPoint(-1, 1, 2), QPoint(-1, 2, 1), QPoint(0, 0, 2), QPoint(0, 2, 0), QPoint(1, 0, 1), QPoint(1, 1, 0))
)
union18 = sorted(set(norm(w1)) | set(norm(w3)) | set(norm(w5)))
sweep = trace(outer, section_at(outer, union18[0]), max_steps=200)
covered = {flatten(s) for s in sweep.tiles}
print(
    f"dropping the shared peak gives a cone whose single {len(sweep)}-cycle "
    f"(closed={sweep.closed}) sweeps all {len(union18)} tiles of the three pits: "
    f"{set(union18) <= covered}"
)
