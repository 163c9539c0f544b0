"""Independent checks of CLI output.

Nothing here uses the package under test.  Heights come from the
staircase formula ``max_g min_i(q_i - g_i)``; roof generators come from
the definitional membership test (every axis ray from the point
eventually enters the cone); tiles, ports, flat positions and codes are
rebuilt from their documented definitions.

Each ``check`` takes the exit code and standard output of one operation
and returns ``None`` when both are right, else a one-line reason.
"""

from __future__ import annotations

import json
from itertools import product

Triple = tuple[int, int, int]
Tile = tuple[Triple, int, int]

_UNIT = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
_OTHER_AXES = ((1, 2), (0, 2), (0, 1))


EXIT = "exit "  # prefix of a reason that is an unexpected exit code


class Bad(Exception):
    """Raised inside a check; its message is the reason the output is wrong."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise Bad(reason)


# -- geometry from definitions ------------------------------------------------

def minimal(points) -> tuple[Triple, ...]:
    pts = set(points)
    return tuple(sorted(
        p for p in pts
        if not any(q != p and all(q[i] <= p[i] for i in range(3)) for q in pts)
    ))


def height(gens, q: Triple) -> int:
    return max(min(q[0] - g[0], q[1] - g[1], q[2] - g[2]) for g in gens)


def in_roof(peaks, q: Triple) -> bool:
    return all(any(a[j] <= q[j] and a[k] <= q[k] for a in peaks) for j, k in _OTHER_AXES)


def roof_generators(peaks) -> tuple[Triple, ...]:
    # Lowering a roof point's coordinate to the next peak coordinate below
    # it keeps every membership condition, so minimal points take each
    # coordinate from some peak.
    axes = [sorted({p[i] for p in peaks}) for i in range(3)]
    return minimal(q for q in product(*axes) if in_roof(peaks, q))


def parse_tile(text: str) -> Tile:
    coords, dirs = text.split(":")
    q = tuple(int(c) for c in coords.split(","))
    d1, d2 = int(dirs[0]), int(dirs[1])
    _require(len(q) == 3 and len(dirs) == 2 and d1 != d2 and {d1, d2} <= {1, 2, 3}, f"bad tile {text}")
    return q, d1, d2


def _add(a: Triple, b: Triple) -> Triple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vertices(t: Tile) -> tuple[Triple, Triple, Triple]:
    base, d1, d2 = t
    mid = _add(base, _UNIT[d1])
    return base, mid, _add(mid, _UNIT[d2])


def on_surface(gens, t: Tile) -> bool:
    return all(height(gens, v) == 0 for v in vertices(t))


def flat(t: Tile) -> Tile:
    """Canonical shift-class representative: first direction 1, base at q3 = 0."""
    base, d1, d2 = t
    while d1 != 1:
        base, d1, d2 = _add(base, _UNIT[d1]), d2, 6 - d1 - d2
    return (base[0] - base[2], base[1] - base[2], 0), d1, d2


def port_adjacent(s: Tile, t: Tile) -> bool:
    """Distinct tiles sharing an edge that is a port (base-mid or mid-top) of both."""
    def ports(x):
        b, m, top = vertices(x)
        return {frozenset((b, m)), frozenset((m, top))}
    return s != t and bool(ports(s) & ports(t))


# -- document checks ----------------------------------------------------------

def _trajectory(doc: dict, gens=None) -> list[Tile]:
    """Shape, codec rule, adjacency, surface membership and chart cover."""
    tiles = [parse_tile(x) for x in doc["tiles"]]
    code = doc["code"]
    n = doc["length"]
    _require(n == len(tiles) == len(code) and n > 0, "length, tile count and code length differ")
    _require(set(code) <= {"U", "D"} and code[0] == "D", "code is not a D-started U/D word")
    for k in range(1, n):
        a, b = tiles[k - 1], tiles[k]
        _require(port_adjacent(a, b), f"tiles {k - 1} and {k} are not port-adjacent")
        same_grad = {a[1], a[2]} == {b[1], b[2]}
        _require((code[k] == code[k - 1]) == same_grad, f"code symbol {k} disagrees with the gradient")
    if doc["closed"]:
        _require(n > 1 and port_adjacent(tiles[-1], tiles[0]), "closed walk does not return to its start")
        _require(len(set(tiles)) == n, "closed walk repeats a tile")
    if gens is not None:
        _require(all(on_surface(gens, t) for t in tiles), "a tile is off the surface")
    charts = doc["charts"]
    _require(bool(charts) and charts[0]["span"][0] == 0 and charts[-1]["span"][1] == n - 1,
             "charts do not cover [0, length-1]")
    for prev, cur in zip(charts, charts[1:]):
        (a0, a1), (b0, b1) = prev["span"], cur["span"]
        _require(a0 < b0 <= a1 < b1, "consecutive charts do not overlap")
    for c in charts:
        lo, hi = c["span"]
        cone = [tuple(p) for p in c["peaks"]]
        _require(all(on_surface(cone, t) for t in tiles[lo : hi + 1]), "a chart cone misses its tiles")
    return tiles


def _lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def _judge(rc: int, expected: set[int], body) -> str | None:
    if rc not in expected:
        return f"{EXIT}{rc}"
    try:
        body()
    except (Bad, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"wrong output: {exc}"
    return None


def norm(peaks, rc: int, out: str) -> str | None:
    def body():
        (doc,) = _lines(out)
        gens = roof_generators(peaks)
        flats = [parse_tile(x) for x in doc["norm"]]
        _require(all(flat(t) == t for t in flats) and len(set(flats)) == len(flats), "norm list is not flat tiles")
        seen: list[Tile] = []
        for sub in doc["trajectories"]:
            _require(sub["closed"], "norm trajectory is open")
            seen += [flat(t) for t in _trajectory(sub, gens)]
        _require(len(seen) == len(set(seen)) and set(seen) == set(flats),
                 "trajectories do not partition the norm")
    return _judge(rc, {0}, body)


def traj_all(peaks, rc: int, out: str) -> str | None:
    def body():
        gens = roof_generators(peaks)
        for doc in _lines(out):
            _require(doc["closed"], "trajectory from --all is open")
            _trajectory(doc, gens)
    return _judge(rc, {0}, body)


def roof_add(parts, rc: int, out: str) -> str | None:
    def body():
        (doc,) = _lines(out)
        gens = [tuple(p) for p in doc["peaks"]]
        _require(doc["kind"] == "roof" and list(minimal(gens)) == gens, "sum is not a sorted antichain")
        union = [p for part in parts for p in part]
        box = [range(min(p[i] for p in union) - 1, max(p[i] for p in union) + 2) for i in range(3)]
        for q in product(*box):
            member = any(all(g[i] <= q[i] for i in range(3)) for g in gens)
            _require(member == in_roof(union, q), f"membership of {q} differs from the roof definition")
    return _judge(rc, {0}, body)


def classify(cone: Triple, std: Triple, k: int, rc: int, out: str) -> str | None:
    # The standard region is one l-octant, which is convex, so a tile is In
    # exactly when its three vertices lie in the closed octant.
    corner = (std[1] + std[2] - std[0], std[0] + std[2] - std[1], std[0] + std[1] - std[2])

    def inside(t: Tile) -> bool:
        return all(
            all(c <= d for c, d in zip(corner, (v[1] + v[2] - v[0], v[0] + v[2] - v[1], v[0] + v[1] - v[2])))
            for v in vertices(t)
        )

    def body():
        (doc,) = _lines(out)
        groups = {name: [parse_tile(x) for x in doc[name]] for name in ("in", "out", "bd")}
        _require(all(doc["counts"][n] == len(g) for n, g in groups.items()), "counts disagree with lists")
        _require(doc["consistent"] == (not groups["bd"]), "consistent flag disagrees with bd")
        every = [t for g in groups.values() for t in g]
        _require(all(on_surface([cone], t) for t in every), "a tile is off the surface")
        window = {((u, v, 0), 1, d2) for u in range(-k, k + 1) for v in range(-k, k + 1) for d2 in (2, 3)}
        flats = [flat(t) for t in every]
        _require(len(flats) == len(window) and set(flats) == window, "tiles do not cover the window once")
        _require({t for t in every if inside(t)} == set(groups["in"]), "In differs from vertex containment")
    return _judge(rc, {0}, body)


def traj_start(cone, start: str, steps: int, rc: int, out: str) -> str | None:
    def body():
        (doc,) = _lines(out)
        tiles = _trajectory(doc, cone)
        _require(tiles[0] == parse_tile(start), "walk does not begin at its start tile")
        _require(doc["closed"] == (rc == 0) and (rc == 0 or doc["length"] == steps),
                 "exit code disagrees with closure and step budget")
    return _judge(rc, {0, 3}, body)


def encode(steps: int, rc: int, out: str) -> str | None:
    def body():
        code = out.rstrip("\n")
        _require(out.endswith("\n") and set(code) <= {"U", "D"} and code[:1] == "D", "not a D-started U/D word")
        _require(len(code) == steps if rc == 3 else len(code) <= steps, "code length disagrees with the budget")
    return _judge(rc, {0, 3}, body)


def decode(code: str, start: str, rc: int, out: str) -> str | None:
    def body():
        (doc,) = _lines(out)
        _require(doc["code"] == code and not doc["closed"], "decode echoes the wrong code")
        tiles = _trajectory(doc)
        _require(tiles[0] == parse_tile(start), "decoded walk does not begin at its start tile")
    return _judge(rc, {0}, body)
