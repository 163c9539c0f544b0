"""Walking a surface and round-tripping the shape through its U/D code."""

from tritile import ConjUpSet, QPoint, chart_cover, decode, encode, tile, trace
from tritile.render import ascii_picture

w = ConjUpSet((QPoint(1, 1, 0), QPoint(0, 1, 1), QPoint(1, 0, 1)))

print("== the closed walk around the pit ==")
traj = trace(w, tile(1, 1, 0, 3, 1), max_steps=50)
print(f"closed={traj.closed} length={len(traj)}")
for s in traj.tiles:
    print(f"  {s.text()}")
code = encode(traj)
negated = code.translate(str.maketrans("UD", "DU"))
same = decode(negated, traj.tiles[0]) == list(traj.tiles)
print(f"second derivative: {code}   (its complement {negated} decodes to the same tiles: {same})")

print()
print("== decoding a different code from the same start ==")
tiles = decode("DUDUDD", tile(1, 1, 0, 3, 1))
print(f"DUDUDD -> {[s.text() for s in tiles]}")
print("two overlapping charts cover it:")
for c in chart_cover(tiles):
    print(f"  tiles {c.start}..{c.stop} on cone over {[tuple(g) for g in c.cone.generators]}")

print()
print("== the walk as a picture ==")
print(ascii_picture([(s, sym) for s, sym in zip(traj.tiles, code)]))

print("an open walk on a single octant runs straight:")
strip = trace(ConjUpSet((QPoint(0, 0, 0),)), tile(1, 0, 0, 1, 2), max_steps=12)
print(f"closed={strip.closed} code={encode(strip)}")
