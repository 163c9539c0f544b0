"""Shared fixtures, golden data and independent oracles.

The oracles here deliberately avoid the library's algorithms: roof
membership is evaluated straight from its defining condition (every axis
ray eventually enters the cone), region containment of a tile is probed
by dense rational sampling of the triangle, heights and sections are
found by scanning the diagonal for cone and boundary points, and a
step's successor is the port candidate whose vertices are all boundary
points.  Tests
compare the implementation against these, never against itself.

``reference_chart_cover`` is the chart cover as it was first written,
rebuilding the cone of the whole segment for every check; it is kept
as the oracle of the incremental cover, and ``dense_ascii_picture`` is
the ASCII picture as first written, visiting every cell of the u x v
box.  ``count_public_calls`` counts the public calls an operation
makes, and ``record_public_calls`` lists their arguments, so that a
change of call path shows up in the tests; the call
counts the benchmark pins are checked by its own tracer self-check.
``brute_closed_orbits`` walks closed trajectories with the brute
section and the port rule alone.  ``reference_in_set`` and
``reference_trajectory_roofs`` are the roof reconstruction as first
written, classifying a whole box three ways, kept as the oracle of the
In scan it now shares with ``norm``.  ``box_roof_classes`` lists every
roof of a small box once per class under the lattice symmetries that
``permute_region`` and ``translate_region`` apply.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

import pytest

from tritile import (
    ConjUpSet,
    SlantTile,
    StdUpSet,
    Window,
    classify,
    conj_roof_generators,
    embed,
    flatten,
    inverse_embed,
    project,
    std_roof_generators,
    tile_text,
    vertices,
)
from tritile import dynamics, surface
from tritile.errors import GeometryError
from tritile.lattice import Triple
from tritile.tiles import FlatTile, Port, gradient, port_candidates

# The six-tile closed walk around the three-peak pit, in walk order.
HEX_GENS = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
HEX_WALK = ("1,1,0:31", "1,0,1:21", "1,0,1:23", "0,1,1:13", "0,1,1:12", "1,1,0:32")
DECODE_DUDUDD = ("1,1,0:31", "1,0,1:21", "1,0,1:23", "0,1,1:13", "0,1,1:12", "1,1,1:21")


@pytest.fixture
def hexcone() -> ConjUpSet:
    return ConjUpSet(HEX_GENS)


def rand_antichain(rng: random.Random, box: int, npts: int) -> tuple[Triple, ...]:
    pts = {
        (rng.randrange(-box, box + 1), rng.randrange(-box, box + 1), rng.randrange(-box, box + 1))
        for _ in range(npts)
    }
    return ConjUpSet(tuple(pts)).generators


def pit(c: Triple) -> list[Triple]:
    """The three peaks one step under a common center: the basic closed-orbit maker."""
    return [
        (c[0] - 1, c[1], c[2]),
        (c[0], c[1] - 1, c[2]),
        (c[0], c[1], c[2] - 1),
    ]


_EDGE_OFFSETS = (
    (0, 1, -1), (1, 0, -1), (1, -1, 0),
    (0, -1, 1), (-1, 0, 1), (-1, 1, 0),
)


def rand_pit_gens(rng: random.Random, extra_pits: int) -> list[Triple]:
    """Generators of one pit plus optional neighbours sharing peaks."""
    c = (rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(-2, 3))
    centers = [c]
    for _ in range(extra_pits):
        base = rng.choice(centers)
        off = rng.choice(_EDGE_OFFSETS)
        centers.append((base[0] + off[0], base[1] + off[1], base[2] + off[2]))
    return [g for cc in centers for g in pit(cc)]


def plane_peaks(n: int, seed: int, spread: int) -> list[list[int]]:
    """``n`` distinct peaks ``[x, y, -x-y]`` with ``x`` and ``y`` drawn
    from ``-spread..spread``, in draw order."""
    rng, pts = random.Random(seed), []
    while len(pts) < n:
        x, y = rng.randint(-spread, spread), rng.randint(-spread, spread)
        if [x, y, -x - y] not in pts:
            pts.append([x, y, -x - y])
    return pts


# -- the q-axis permutations -------------------------------------------------

# Each permutation sigma of the three q-axes as (sigma(1), sigma(2), sigma(3)).
AXIS_PERMUTATIONS = tuple(itertools.permutations((1, 2, 3)))


def permute_point(perm, p) -> Triple:
    """``sigma p``: coordinate i of ``p`` moves to axis ``perm[i-1]``."""
    out = [0, 0, 0]
    for axis, c in zip(perm, p):
        out[axis - 1] = c
    return tuple(out)


def permute_tile(perm, s) -> SlantTile:
    """``b[d1 d2] -> sigma b[sigma d1 sigma d2]``: the tile whose vertices
    are the images of the vertices of ``s``."""
    b, d1, d2 = s
    return (permute_point(perm, b), perm[d1 - 1], perm[d2 - 1])


def permute_region(perm, w):
    """``sigma w`` for a conjugate or a standard region.  The doubled
    l-coordinate ``i`` is ``q_j + q_k - q_i``, so a q-axis permutation
    permutes the doubled l-coordinates the same way."""
    if isinstance(w, StdUpSet):
        return StdUpSet(tuple(permute_point(perm, g) for g in w.dgens))
    return ConjUpSet(tuple(permute_point(perm, g) for g in w.generators))


# -- integer translations ----------------------------------------------------

def translate_point(d, p) -> Triple:
    return (p[0] + d[0], p[1] + d[1], p[2] + d[2])


def translate_tile(d, s) -> SlantTile:
    b, d1, d2 = s
    return (translate_point(d, b), d1, d2)


def translate_region(d, w):
    """``w + d`` for a conjugate or a standard region: a conjugate
    generator moves by ``d``, a doubled l-generator by ``inverse_embed(d)``."""
    if isinstance(w, StdUpSet):
        dl = inverse_embed(d)
        return StdUpSet(tuple(translate_point(dl, g) for g in w.dgens))
    return ConjUpSet(tuple(translate_point(d, g) for g in w.generators))


# -- every roof of a small box -----------------------------------------------

def box_antichains(n: int) -> list[tuple[Triple, ...]]:
    """Every antichain of the points of ``{0..n-1}^3``, the empty one
    included, one per plane partition that fits in the ``n x n x n`` box:
    980 for ``n = 3`` (MacMahon).  Each point is added or not in sorted
    order, and only when no point chosen before is comparable with it."""
    pts = sorted(itertools.product(range(n), repeat=3))
    out: list[tuple[Triple, ...]] = []

    def grow(i, chosen):
        if i == len(pts):
            out.append(tuple(chosen))
            return
        grow(i + 1, chosen)
        p = x, y, z = pts[i]
        if not any(a <= x and b <= y and c <= z for a, b, c in chosen):
            grow(i + 1, chosen + [p])  # sorted order: no later point lies below a chosen one

    grow(0, [])
    return out


def canonical_generators(gens) -> tuple[Triple, ...]:
    """The class of a generator set under translation and q-axis
    permutation: translated to componentwise minimum 0, then the least
    sorted image over the six permutations; ``()`` for no generators."""
    if not gens:
        return ()
    low = [min(g[i] for g in gens) for i in range(3)]
    moved = [(g[0] - low[0], g[1] - low[1], g[2] - low[2]) for g in gens]
    return min(tuple(sorted(permute_point(perm, g) for g in moved)) for perm in AXIS_PERMUTATIONS)


@functools.lru_cache(maxsize=None)
def box_roofs(n: int) -> Counter:
    """The roof of every antichain of the ``n x n x n`` box, the empty
    region included, with the number of antichains that close to it."""
    return Counter(conj_roof_generators(a) for a in box_antichains(n))


@functools.lru_cache(maxsize=None)
def box_roof_classes(n: int) -> tuple[ConjUpSet, ...]:
    """One roof per class of the roofs of the antichains of the
    ``n x n x n`` box (``canonical_generators``), sorted, the empty
    region first."""
    classes = {canonical_generators(w.generators) for w in box_roofs(n)}
    return tuple(ConjUpSet(g) for g in sorted(classes))


# -- independent oracles -----------------------------------------------------

def brute_conj_roof_member(points, q) -> bool:
    """Roof membership from the definition: for each axis some generator
    lies below q in the other two coordinates."""
    idx = {1: (1, 2), 2: (0, 2), 3: (0, 1)}
    return all(
        any(a[i] <= q[i] and a[j] <= q[j] for a in points) for i, j in idx.values()
    )


def brute_std_roof_member(points, q) -> bool:
    """Same condition evaluated on doubled l-coordinates."""
    return _doubled_roof_member([inverse_embed(p) for p in points], inverse_embed(q))


def _doubled_roof_member(dps, dq) -> bool:
    """Roof membership of the doubled l-point ``dq`` over the doubled
    l-points ``dps``, from the definition: for each axis some point lies
    below ``dq`` in the other two coordinates."""
    return all(
        any(a[i] <= dq[i] and a[j] <= dq[j] for a in dps) for i, j in ((1, 2), (0, 2), (0, 1))
    )


def tile_samples(s: SlantTile, denom: int = 16):
    """Barycentric rational grid over the tile, in doubled l-coordinates."""
    return [tuple(Fraction(c, denom) for c in p) for p in _sample_numerators(s, denom)]


def _sample_numerators(s: SlantTile, denom: int):
    """The grid of ``tile_samples`` times ``denom``: exact int triples."""
    va, vb, vc = (inverse_embed(v) for v in vertices(s))
    return [
        tuple(i * va[t] + j * vb[t] + (denom - i - j) * vc[t] for t in range(3))
        for i in range(denom + 1)
        for j in range(denom + 1 - i)
    ]


def sample_in_closed(dgens, p) -> bool:
    return any(all(p[t] >= g[t] for t in range(3)) for g in dgens)


def sample_in_open(dgens, p) -> bool:
    return any(all(p[t] > g[t] for t in range(3)) for g in dgens)


_E = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}


def _plus(p, axis: int) -> Triple:
    e = _E[axis]
    return (p[0] + e[0], p[1] + e[1], p[2] + e[2])


def _diag(q, k: int) -> Triple:
    return (q[0] + k, q[1] + k, q[2] + k)


def _span(gens, q) -> int:
    """How far along the diagonal the boundary can lie from ``q``, or from
    any point within one unit of ``q`` in each coordinate."""
    return max(abs(q[t] - g[t]) for g in gens for t in range(3)) + 2


def brute_in_cone(gens, q) -> bool:
    """Some generator lies at or below ``q`` in every coordinate."""
    x, y, z = q
    return any(a <= x and b <= y and c <= z for a, b, c in gens)


def brute_boundary(gens, q) -> bool:
    """In the cone while the point one diagonal step below is not."""
    return brute_in_cone(gens, q) and not brute_in_cone(gens, _diag(q, -1))


def brute_height(gens, q) -> int:
    """Largest k with q - k*(1,1,1) in the cone, found by scanning k."""
    span = _span(gens, q)
    return max(k for k in range(-span, span + 1) if brute_in_cone(gens, _diag(q, -k)))


def brute_section(gens, t: SlantTile) -> list[SlantTile]:
    """Every slant tile over the canonical flat tile ``t`` (base height
    zero, first direction 1) whose three vertices are boundary points.

    Each of the three shift phases ``b[1 d2]``, ``(b+e1)[d2 d3]`` and
    ``(b+e1+e_d2)[d3 1]`` is slid over every diagonal offset within the
    span of the generators; a staircase keeps exactly one survivor.
    """
    b, _, d2 = t
    d3 = 5 - d2
    phases = ((b, 1, d2), (_plus(b, 1), d2, d3), (_plus(_plus(b, 1), d2), d3, 1))
    span = _span(gens, b)
    out = []
    for base, a1, a2 in phases:
        for k in range(-span, span + 1):
            v0 = _diag(base, k)
            v1 = _plus(v0, a1)
            if all(brute_boundary(gens, v) for v in (v0, v1, _plus(v1, a2))):
                out.append((v0, a1, a2))
    return out


def brute_successors(gens, s: SlantTile, port) -> list[SlantTile]:
    """The candidates across ``port`` of ``s`` whose three vertices are all
    boundary points; a deterministic walk keeps exactly one of the two."""
    return [c for c in port_candidates(s, port) if all(brute_boundary(gens, v) for v in vertices(c))]


def brute_closed_orbits(gens, flats) -> set:
    """The flats of ``flats`` that lie on closed walks staying inside them.

    Each walk starts at a flat's brute section, leaves it through the UP
    port and takes the one brute successor at every step; the port
    toggles iff the gradient changes.  It closes when it is back at
    ``(start, UP)`` within ``len(flats) + 2`` tiles.
    """
    inside = set(flats)
    core: set = set()
    for t in inside:
        (start,) = brute_section(gens, t)
        walk, port = [start], Port.UP
        while len(walk) <= len(inside) + 2:
            (nxt,) = brute_successors(gens, walk[-1], port)
            if gradient(nxt) != gradient(walk[-1]):
                port = port.other
            if (nxt, port) == (start, Port.UP):
                walked = {flatten(s) for s in walk}
                if walked <= inside:
                    core |= walked
                break
            walk.append(nxt)
    return core


def brute_minimal(points) -> tuple[Triple, ...]:
    """Sorted points of ``points`` that no other point lies below."""
    pts = set(points)
    return tuple(sorted(
        p for p in pts
        if not any(o != p and all(o[t] <= p[t] for t in range(3)) for o in pts)
    ))


def padded_box(points, pad: int) -> Window:
    """Plane box of non-empty ``points`` padded by ``pad``, read from raw
    coordinates as ``u = q1 - q3`` and ``v = q2 - q3``."""
    us = [p[0] - p[2] for p in points]
    vs = [p[1] - p[2] for p in points]
    return Window(min(us) - pad, max(us) + pad, min(vs) - pad, max(vs) + pad)


def flat_tiles_in(window: Window) -> Iterator[FlatTile]:
    """All canonical flat tiles whose base cell lies in the window, in
    canonical order: by ``u``, then ``v``, ``[1 2]`` before ``[1 3]``."""
    for u in range(window.u_min, window.u_max + 1):
        for v in range(window.v_min, window.v_max + 1):
            yield ((u, v, 0), 1, 2)
            yield ((u, v, 0), 1, 3)


def reference_in_set(w, points) -> tuple[SlantTile, ...]:
    """The In set as the roof reconstruction first read it: every flat of
    the box of ``points`` padded by 8, classified three ways against the
    whole standard roof of ``points``; ``()`` for no points."""
    if not points:
        return ()
    return classify(w, std_roof_generators(points), padded_box(points, 8)).in_tiles


def reference_trajectory_roofs(w, traj):
    """``(w1, w2)`` of the roof reconstruction as first written, from
    ``reference_in_set``, or ``None`` where it found a mismatch."""
    bases = {t[0] for t in traj.tiles}
    in1 = reference_in_set(w, bases)
    residue = {s[0] for s in in1 if s not in traj.tiles}
    in2 = reference_in_set(w, residue)
    if set(in1) - set(in2) != set(traj.tiles):
        return None
    return std_roof_generators(bases), std_roof_generators(residue)


def brute_in_tiles(w, points, window) -> list:
    """In-tiles over the window against the standard roof of ``points``,
    from the brute section and sampled roof membership.  Four parts per
    edge already put samples inside both half squares of a tile.  The
    samples are doubled l-points, read four times over as int triples, so
    ``points`` go to doubled l-coordinates, times four, once per call, and
    each sample is tested by the definition as it is.  The flats are
    those of ``flat_tiles_in``, in canonical order."""
    dps = [tuple(4 * c for c in inverse_embed(p)) for p in points]
    hits = []
    for t in flat_tiles_in(window):
        (s,) = brute_section(w.generators, t)
        if all(_doubled_roof_member(dps, p) for p in _sample_numerators(s, 4)):
            hits.append(s)
    return hits


def added_corners_two_ways(points) -> tuple[list[Triple], list[Triple]]:
    """The corners the standard roof of ``points`` adds, read two ways:
    the roof corners that are not generators of the standard cone of
    ``points``, and those that are not among ``points`` in doubled
    l-coordinates.  The ``surface.py`` docstring proves them equal."""
    roof = std_roof_generators(points).dgens
    cone = StdUpSet.from_qpoints(points).dgens
    dpoints = {inverse_embed(p) for p in points}
    return [g for g in roof if g not in cone], [g for g in roof if g not in dpoints]


def edge_pieces(tiles) -> list[list[SlantTile]]:
    """The pieces of ``tiles``, two tiles neighbours when their projected
    triangles share an edge."""
    edges = {}
    for s in tiles:
        a, b, c = map(project, vertices(s))
        edges[s] = [frozenset(e) for e in ((a, b), (b, c), (a, c))]
    by_edge: dict = {}
    for s, es in edges.items():
        for e in es:
            by_edge.setdefault(e, []).append(s)
    left, pieces = set(tiles), []
    while left:
        todo, piece = [left.pop()], []
        while todo:
            s = todo.pop()
            piece.append(s)
            for n in (n for e in edges[s] for n in by_edge[e] if n in left):
                left.remove(n)
                todo.append(n)
        pieces.append(piece)
    return pieces


def piece_reach(tiles, dcorners) -> list[int]:
    """For each piece of ``tiles`` (``edge_pieces``), the least Chebyshev
    distance, in half cells, from the flat base cell of one of its tiles
    to the projection of one of the doubled l-points ``dcorners``.
    ``embed`` of a doubled l-point is a doubled q-point, so those
    projections are in doubled plane coordinates."""
    centres = [(q[0] - q[2], q[1] - q[2]) for q in (embed(*t) for t in dcorners)]
    reach = []
    for piece in edge_pieces(tiles):
        cells = [project(flatten(s)[0]) for s in piece]
        reach.append(min(max(abs(2 * u - cu), abs(2 * v - cv)) for u, v in cells for cu, cv in centres))
    return reach


# -- the chart cover as first written, and public call counts ---------------

def _reference_fits(tiles) -> bool:
    cone = ConjUpSet(brute_minimal(t[0] for t in tiles))
    # Looked up on the module at call time, so count_public_calls sees it.
    return all(surface.on_surface(cone, t) for t in tiles)


def reference_chart_cover(tiles) -> list[dynamics.Chart]:
    """Greedy maximal single-cone segments, rebuilding every cone from the
    bases of its whole segment: the oracle of ``chart_cover``.

    It makes the same checks in the same order as the library cover, so
    the two pass the same arguments to ``on_surface`` in the same order.
    """
    if not tiles:
        return []
    charts = []
    i = 0
    while True:
        j = i
        while j + 1 < len(tiles) and _reference_fits(tiles[i : j + 2]):
            j += 1
        if not _reference_fits(tiles[i : j + 1]):
            raise GeometryError(f"tile {tile_text(tiles[i])} fits no cone")
        cone = ConjUpSet(brute_minimal(t[0] for t in tiles[i : j + 1]))
        charts.append(dynamics.Chart(cone, i, j))
        if j == len(tiles) - 1:
            return charts
        i = next(k for k in range(i + 1, j + 2) if _reference_fits(tiles[k : j + 2]))


def _patch_everywhere(monkeypatch, fn, replacement) -> None:
    """Put ``replacement`` in every ``tritile`` namespace that bound ``fn``.

    The modules call each other through ``from ... import`` names, so
    patching only the defining module would miss most calls.
    """
    for name, module in list(sys.modules.items()):
        if name != "tritile" and not name.startswith("tritile."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, replacement)


def count_public_calls(monkeypatch, funcs) -> Counter:
    """Count calls of ``funcs`` by name until ``monkeypatch`` is undone."""
    counts: Counter = Counter({fn.__name__: 0 for fn in funcs})
    for fn in funcs:
        @functools.wraps(fn)
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        _patch_everywhere(monkeypatch, fn, counted)
    return counts


def record_public_calls(monkeypatch, fn) -> list[tuple]:
    """The argument tuples of every call of ``fn``, in call order, until
    ``monkeypatch`` is undone."""
    calls: list[tuple] = []

    @functools.wraps(fn)
    def recorded(*args):
        calls.append(args)
        return fn(*args)

    _patch_everywhere(monkeypatch, fn, recorded)
    return calls


# -- the ASCII picture as first written ---------------------------------------

def dense_ascii_picture(tiles) -> str:
    """Every cell of the u x v box of the tiles, row by row from the top:
    the oracle of ``render.ascii_picture``."""
    cells: dict[tuple[int, int], list[str]] = {}
    for s, label in tiles:
        (u, v, _), _, d2 = flatten(s)
        slot = 0 if d2 == 2 else 1
        cell = cells.setdefault((u, v), [" ", " "])
        cell[slot] = label or ("/" if slot == 0 else "\\")
    if not cells:
        return "\n"
    us = [u for u, _ in cells]
    vs = [v for _, v in cells]
    lines = []
    for v in range(max(vs), min(vs) - 1, -1):
        row = "".join("".join(cells.get((u, v), [" ", " "])) for u in range(min(us), max(us) + 1))
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"
