"""Staircase surfaces of conjugate up-sets and their decomposition.

The boundary surface of a non-empty conjugate up-set carries exactly one
slant tile over every flat tile (the *section*); a tile is on the
surface iff both its extreme vertices have height zero, heights being
monotone along the componentwise order.  ``section_at`` finds it from
the heights of the three vertices of the canonical flat tile: a height
rises by 0 or 1 per unit step and by exactly 1 per diagonal step
(1,1,1), so those three give the base and top heights of all three
shift phases, and with them the one phase that lies on the surface.
The empty region has no surface, so ``on_surface``, ``surface_tiles``,
``classify`` and ``norm`` answer it with False or nothing; only
``section_at``, whose answer is one tile, raises on it.

A window scan (``classify`` and ``surface_tiles``) reads those heights
from one table instead: every one is the height ``H(u, v)`` of some
``(u, v, 0)``, since adding (1,1,1) adds 1.  The table spans
``u_min..u_max+1`` by ``v_min-1..v_max+1``, and a row is
``max_g min(m_g, v-g2)`` with ``m_g = min(u-g1, -g3)`` taken once per
row, so a table costs one row build per ``u``.  Over the flat
``(u, v, 0)[1 d2]`` let ``A = H(u, v)`` and ``B = H(u+1, v)``.  If
``B > A`` the section is ``(u+1-B, v-B, -B)[d2 d3]``.  Otherwise let
``C = H(u+1, v+1)`` for ``d2 = 2`` and ``C = H(u, v-1) + 1`` for
``d2 = 3``: if ``C > A`` the section is
``(u+1-C, v+(d2==2)-C, (d2==3)-C)[d3 1]``, else
``(u-A, v-A, -A)[1 d2]``.  The In scan, when it scans, keeps one
``section_at`` per flat, whose count the benchmark pins.

``classify`` splits the surface tiles over a window against a standard
region: fully inside (In), interior-disjoint (Out), or properly cut
(Bd).  Touching along edges or vertices does not count as overlap.  The
test is exact and integer-only.  In doubled l-coordinates, indexed in
the tile's own order (d1, d2, d3), a slant tile is the triangle (0,0,0),
(-1,1,1), (0,0,2) relative to its base, in the plane where
x_d1 + x_d2 is constant.  Every octant face of the region meets that
plane in an integer grid line, and the grid line one unit above the
base in x_d3 cuts the tile into two half unit squares.  Each half
square lies in one open unit grid box, and such a box is either wholly
inside the octant union or disjoint from it.  So one probe per box
decides the tile: at quadrupled scale the box centres are
``2*base + (-1, +1, +1)`` and ``2*base + (-1, +1, +3)`` in (d1, d2, d3)
order, a probe ``p`` is inside when some generator ``g`` has
``2*g <= p`` componentwise, and the tile is In, Bd or Out when two, one
or none of its probes are inside.  The probe coordinates are odd and
``2*g`` is even, so each comparison is an integer one on ``g`` and the
doubled base ``b``: ``g[d1] < b[d1]``, ``g[d2] <= b[d2]``, and
``g[d3] <= b[d3]`` for the lower probe or ``<= b[d3]+1`` for the upper.
One pass over the generators takes the least ``g[d3]`` among those
meeting the first two conditions, and that one number decides.  Most
tiles of a window need no pass at all.  Let ``m`` be the componentwise
minimum of the doubled corners, so that every corner has
``g[x] >= m[x]`` on each axis ``x``.  Each of the lower probe's three
conditions implies ``g[x] <= b[x]`` on its own axis ``x``, and each of
the upper probe's implies ``g[x] <= b[x] + 1``.  So if ``b[x] < m[x]``
on some axis, no corner meets the three conditions of the lower probe
together and the tile is not In; if ``b[x] < m[x] - 1``, no corner
meets those of the upper probe either and the tile is Out.
``classify`` takes ``m`` once and sends every tile below ``m - 1`` on
some axis to Out without calling ``_classify_tile``, and every tile
when there is no corner; the In scan skips every section below ``m`` of
its corners the same way.  The gate is three integer comparisons on
``b``; the verdict of every other tile still comes from
``_classify_tile``.  Neither bound can be raised, as any axis is the d3
axis of some tile: one corner ``m`` cuts the tile whose ``b`` is
``m + (1, 1, -1)`` in (d1, d2, d3) order, and holds the tile whose
``b`` is ``m + (2, 0, 0)``.

Regions are unbounded, so every enumeration runs over a plane window.
The In-tiles of ``w`` against the standard roof of points ``P`` that lie
in ``w`` need no search for a window: they project into the bounding
box of ``P``, so one scan of that box, padded by 8, finds them all.
``_in_set`` is that scan, for the generators of a region
(``in_tiles_expanded`` and ``norm``) and for the bases of a closed walk
and of its residue (``closed_trajectory_roofs``): both read the same
box and the same verdict.  Work in q-coordinates with
``u = q1-q3`` and ``v = q2-q3``, take a point ``p`` of an open half
square of a surface tile with ``u(p) > max u(P)``, and write
``d = p-g`` for ``g`` in ``P``.  Every ``g`` gives
``min(d) <= 0``, since ``p`` is on the surface and ``g`` is in ``w``.
Roof membership along l-axis 3 needs some ``g`` with
``d3 >= |d1-d2|``, and with ``d1-d3 > 0`` that forces
``d = (s,s,0)``: a ray, so no open half square past the bound lies in
the roof.  l-axis 3 bounds ``v > max`` the same way, l-axis 1
``u < min`` and l-axis 2 ``v < min``.

Often there is nothing to scan: if the standard roof of ``P`` adds no
corner to the standard cone of ``P``, there is no In tile at all.  The
l-octant of a point ``p`` is spanned by (0,1,1), (1,0,1) and (1,1,0)
from ``p``, so it lies in the q-octant of ``p``, and for ``p`` in ``w``
that lies in ``w``.  The surface of ``w`` meets no interior point of
``w``, so it meets the l-octant of ``p`` only on the boundary of the
q-octant of ``p``: on the three rays ``p+(0,s,s)``, ``p+(s,0,s)`` and
``p+(s,s,0)``.  By the two-probe argument above, each open half square
of an In tile lies in one open unit grid box inside the roof, and so in
the closed l-octant of one minimal roof corner.  A half square is not
part of a ray, so that corner is not a point of ``P``: it is a corner
the roof adds.  In ideal terms the standard roof is the saturation of
the monomial ideal of ``P``, and a saturation that adds no generator
leaves no In tile.  No points make no added corner, so no scan.

The same argument shows that the In verdict needs only the added
corners: the roof corners that are not among ``P``, compared in doubled
l-coordinates.  A tile is In when the octant of one roof corner holds
both its probes, so that octant holds both open half squares, and by
the lemma that corner is an added one.  The added corners are also the
roof corners that are not generators of the standard cone of ``P``:
each such generator is a point of ``P``, and a roof corner that is a
point of ``P`` is minimal in the roof, so also in the smaller cone.  A
tile is therefore In against the roof exactly when it is In against the
added corners, and the In scan classifies against those alone.  It
still takes one ``section_at`` per flat, but by the floor lemma of the
two-probe paragraph it calls ``_classify_tile`` only on the sections
whose doubled base is at or above the componentwise minimum of the
added corners; every other section is not In.

The In scan and the height table both walk the flats of a window in
canonical order: by ``u``, then ``v``, then ``[1 2]`` before ``[1 3]``,
which is the sort order of the flat tiles themselves.  A section
flattens back to the flat it was taken over, so every tile list built
by one pass over the window (the ``classify`` buckets,
``surface_tiles``, the In set and ``norm``) already comes out sorted by
flat tile.  Outputs rely on that order and are not re-sorted.

Every point here is an exact int triple, as in :mod:`tritile.lattice`,
and every tile an exact ``(base, d1, d2)`` tuple, as in
:mod:`tritile.tiles`; the per-tile kernels (``section_at`` and the table
scan) write both as tuple displays.  The loops over generators
(``on_surface``, ``section_at``, the table scan and ``_classify_tile``)
read the regions' ``generators`` and ``dgens``, which are exact int
triples: CPython's specializing interpreter unpacks and indexes an exact
tuple on fast paths that a NamedTuple does not get.  For the same reason
the In scan walks its cells in two ``range`` loops and passes each flat
to ``section_at`` as a ``((u, v, 0), 1, d2)`` tuple display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterator, NamedTuple, Sequence

from .cones import ConjUpSet, StdUpSet, is_roof, std_roof_generators
from .errors import GeometryError
from .lattice import Triple, inverse_embed, project
from .tiles import FlatTile, SlantTile, flatten

# Flat-generator pairs charged to the largest In scan, two flats a cell
# times the region's generators and every roof corner: a scan at the cap
# takes about 0.7 s (2-vCPU Xeon, Python 3.11).
MAX_SCAN_UNITS = 2_000_000


class Window(NamedTuple):
    """A rectangle of plane cells, bounds inclusive; empty when a minimum
    passes its maximum."""

    u_min: int
    u_max: int
    v_min: int
    v_max: int


@dataclass(frozen=True)
class Classification:
    in_tiles: tuple[SlantTile, ...]
    out_tiles: tuple[SlantTile, ...]
    bd_tiles: tuple[SlantTile, ...]


def on_surface(w: ConjUpSet, s: SlantTile) -> bool:
    """True iff the whole tile lies on the boundary surface of ``w``.

    Height is monotone, so the tile is on the surface iff its two
    extreme vertices, the base and the top ``base + (1,1,1) - e_d3``,
    both have height zero.  Both heights are read in one pass over the
    generators, without ``conj_height``.  A generator ``g`` gives the
    top a positive height iff ``g <= top - (1,1,1) = base - e_d3``, and
    then the answer is False at once.  If none does, the top height is
    at most zero and, the top lying above the base, at least the base
    height, so both are zero iff the base height is at least zero: iff
    some generator lies at or below the base.  So the two-height
    definition ``height(base) == 0 == height(top)`` is the same as
    ``base`` in ``w`` and ``base - e_d3`` not in ``w``.  A generator at
    or below the base lies at or below ``base - e_d3`` iff its d3
    coordinate is below the base's, so that one comparison decides.
    Without generators the base is not in ``w``: the answer is False.
    """
    base, d1, d2 = s
    x, y, z = base
    k = 5 - d1 - d2  # index of axis d3
    base_k = base[k]
    base_in = False
    for g in w.generators:
        a, b, c = g
        if a <= x and b <= y and c <= z:
            if g[k] < base_k:
                return False
            base_in = True
    return base_in


def section_at(w: ConjUpSet, t: FlatTile) -> SlantTile:
    """The unique surface tile of ``w`` over the flat tile ``t``.

    With ``t = b[1 d2]`` canonical, its three shift phases are
    ``b[1 d2]``, ``(b+e1)[d2 d3]`` and ``(b+e1+e_d2)[d3 1]``.  A phase
    slid along the diagonal onto the surface lies on it iff its top and
    its base have equal height.  Adding (1,1,1) adds 1 to the height, so
    all six heights follow from the heights A, B, C of the vertices
    ``b``, ``b+e1``, ``b+e1+e_d2`` of ``t``: the phases qualify when
    C == A, B == A+1 and C == B+1 respectively.  A unit step raises the
    height by 0 or 1, and a step of e1+e_d2 by at most 1 (it stays below
    (1,1,1)), so A <= B <= C <= A+1 and exactly one phase qualifies:
    B == A+1 gives ``(b+e1-B)[d2 d3]``, B == A < C gives
    ``(b+e1+e_d2-C)[d3 1]`` and C == A gives ``(b-A)[1 d2]``.

    The heights are read here, without ``conj_height``.  With
    ``b = (u, v, 0)``, a generator ``g`` gives A and B the terms
    ``min(x, m)`` and ``min(x+1, m)``, where ``x = u-g1`` and
    ``m = min(v-g2, -g3)`` is shared, so one pass over the generators
    reads both: if ``x < m`` the terms are x and x+1, else both are m.
    Only when B == A is there a second pass.  C is A or A+1, and a
    height is at least A+1 iff the point lowered by A+1 along the
    diagonal lies in ``w``, so that pass looks for a generator at or
    below ``b+e1+e_d2-(A+1)``, the base of the third phase.
    """
    gens = w.generators
    if not gens:
        raise GeometryError("empty region has no height function")
    base, d1, d2 = t
    if d1 != 1 or base[2] != 0:
        base, d1, d2 = flatten(t)
    u, v, _ = base
    d3 = 5 - d2
    a, b, c = gens[0]
    ha = u - a  # the first generator's term: a lower bound of A, and so of B
    if v - b < ha:
        ha = v - b
    if -c < ha:
        ha = -c
    hb = ha
    for a, b, c in gens:
        m = v - b
        if -c < m:
            m = -c
        x = u - a
        if x < m:
            if x > ha:
                ha = x
            if x >= hb:
                hb = x + 1
        else:
            if m > ha:
                ha = m
            if m > hb:
                hb = m
    if hb > ha:
        return ((u + 1 - hb, v - hb, -hb), d2, d3)
    # b + e1 + e_d2 - (A+1), with d2 in {2, 3}
    x = u - ha
    y, z = (v - ha, -1 - ha) if d2 == 2 else (v - 1 - ha, -ha)
    for a, b, c in gens:
        if a <= x and b <= y and c <= z:
            return ((x, y, z), d3, 1)
    return ((u - ha, v - ha, -ha), 1, d2)


# -- exact tile-vs-standard-region test -------------------------------------

def _classify_tile(s: SlantTile, dgens: Sequence[tuple]) -> str:
    """Classify one tile against the union of l-space octants ``dgens``.

    The two-probe rule of the module docstring in one pass: ``low`` is
    the least ``g[d3]`` over generators that pass the ``d1`` and ``d2``
    tests, capped at ``b[d3]+2``, and both, one or neither probe is
    inside as ``low`` is at most ``b[d3]``, equal to ``b[d3]+1``, or
    the cap.
    """
    (q1, q2, q3), d1, d2 = s
    b = (q2 + q3 - q1, q1 + q3 - q2, q1 + q2 - q3)  # inverse_embed(s.base)
    i, j = d1 - 1, d2 - 1
    k = 3 - i - j  # d3 - 1
    bi, bj, bk = b[i], b[j], b[k]
    low = bk + 2
    for g in dgens:
        if g[i] < bi and g[j] <= bj and g[k] < low:
            low = g[k]
    if low <= bk:
        return "in"
    return "bd" if low == bk + 1 else "out"


def _ramp(lo: int, n: int, cap: int) -> list[int]:
    """``[min(lo + j, cap) for j in range(n)]``, built from a range."""
    k = min(max(cap - lo, 0), n)
    return [*range(lo, lo + k), *[cap] * (n - k)]


def _height_row(gens: tuple[Triple, ...], u: int, v0: int, n: int) -> list[int]:
    """``[H(u, v0 + j) for j in range(n)]``: a row of the height table, one
    ramp ``min(m_g, v - g2)`` per generator."""
    ramps = [_ramp(v0 - b, n, min(u - a, -c)) for a, b, c in gens]
    return list(map(max, *ramps)) if len(ramps) > 1 else ramps[0]


def _sections(w: ConjUpSet, window: Window) -> Iterator[SlantTile]:
    """The section over every flat tile of the window, in canonical order,
    read from the height table of the module docstring."""
    u_min, u_max, v_min, v_max = window
    gens = w.generators
    if u_min > u_max or v_min > v_max or not gens:
        return  # no flat to scan, or no surface over it
    n = v_max - v_min + 3  # v_min-1 .. v_max+1
    # table[i][j] = H(u_min + i, v_min - 1 + j)
    table = [_height_row(gens, u, v_min - 1, n) for u in range(u_min, u_max + 2)]
    for i, u in enumerate(range(u_min, u_max + 1)):
        here, east = table[i], table[i + 1]
        for j, v in enumerate(range(v_min, v_max + 1), 1):
            ha, hb = here[j], east[j]
            if hb > ha:
                base = (u + 1 - hb, v - hb, -hb)
                yield (base, 2, 3)
                yield (base, 3, 2)
                continue
            low = (u - ha, v - ha, -ha)
            hc = east[j + 1]
            if hc > ha:
                yield ((u + 1 - hc, v + 1 - hc, -hc), 3, 1)
            else:
                yield (low, 1, 2)
            hc = here[j - 1] + 1
            if hc > ha:
                yield ((u + 1 - hc, v - hc, 1 - hc), 2, 1)
            else:
                yield (low, 1, 3)


def classify(w1: ConjUpSet, w2: StdUpSet, window: Window) -> Classification:
    """Partition the surface tiles of ``w1`` over the window against ``w2``;
    unbudgeted: its height table costs one row build per ``u``.  A tile
    whose doubled base lies below the componentwise minimum of the
    doubled corners less one, on some axis, is Out without a call of
    ``_classify_tile`` (module docstring)."""
    dgens = w2.dgens
    if not dgens:
        return Classification(in_tiles=(), out_tiles=tuple(_sections(w1, window)), bd_tiles=())
    buckets: dict[str, list[SlantTile]] = {"in": [], "out": [], "bd": []}
    out = buckets["out"]
    # Out below the corners' floor less one, unclassified (module docstring).
    f1, f2, f3 = (min(c) - 1 for c in zip(*dgens))
    for s in _sections(w1, window):
        q1, q2, q3 = s[0]
        if q2 + q3 - q1 < f1 or q1 + q3 - q2 < f2 or q1 + q2 - q3 < f3:
            out.append(s)
        else:
            buckets[_classify_tile(s, dgens)].append(s)
    return Classification(
        in_tiles=tuple(buckets["in"]),
        out_tiles=tuple(buckets["out"]),
        bd_tiles=tuple(buckets["bd"]),
    )


# -- windowed enumeration of the full In set --------------------------------

def _count_text(n: int) -> str:
    """``n`` in decimal, or past 100 digits "a D-digit number of", to
    stand before a unit.

    Python refuses to write an int of more than 4,300 digits as text (at
    least 640 under any setting), and a peak of 3,000 digits makes an In
    scan of 6,000.  The digit count is read off ``log10`` and made exact
    by two powers of ten.
    """
    if n < 10**100:
        return str(n)
    digits = int(math.log10(n)) + 1
    digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
    return f"a {digits}-digit number of"


def _in_set(w: ConjUpSet, points: Collection[Triple]) -> tuple[StdUpSet, tuple[SlantTile, ...]]:
    """The standard roof of ``points``, which must lie in ``w``, and the
    In-tiles of the surface of ``w`` against it.

    By the box bound of the module docstring, one scan of the plane box
    of ``points`` padded by 8 holds them all.  The added corners are the
    roof corners not among ``points``.  When there is none (no points,
    one, or two-peak roofs, for example) there is no In tile, by the
    lemma there, and no flat is scanned.  Otherwise each flat's section
    is classified against the added corners alone, which decide its In
    verdict, unless its doubled base lies below their componentwise
    minimum on some axis, which makes it not In (module docstring).  The
    budget still charges each of the two flats per cell the generators of
    ``w`` and every corner of the roof, so a scan of more than
    ``MAX_SCAN_UNITS`` such reads is a ``ValueError`` before its first
    section.
    """
    roof = std_roof_generators(points)
    dpoints = set(map(inverse_embed, points))
    added = [g for g in roof.dgens if g not in dpoints]
    if not added:
        return roof, ()  # no corner beyond the points: no In tile (module docstring)
    pu, pv = zip(*map(project, points))
    u_min, u_max, v_min, v_max = min(pu) - 8, max(pu) + 8, min(pv) - 8, max(pv) + 8
    cells = (u_max - u_min + 1) * (v_max - v_min + 1)
    gens = len(w.generators) + len(roof.dgens)
    units = 2 * cells * gens
    if units > MAX_SCAN_UNITS:
        raise ValueError(
            f"In scan of {_count_text(cells)} cells over {gens} generators reads "
            f"{_count_text(units)} flat-generator pairs, more than {MAX_SCAN_UNITS}"
        )
    # Not In below the added corners' floor, unclassified (module docstring).
    m1, m2, m3 = (min(c) for c in zip(*added))
    # One section_at per flat, in canonical order: bench/run.py HAND_COUNTS.
    hits = []
    vs = range(v_min, v_max + 1)
    for u in range(u_min, u_max + 1):
        for v in vs:
            for d2 in (2, 3):
                s = section_at(w, ((u, v, 0), 1, d2))
                q1, q2, q3 = s[0]
                if q2 + q3 - q1 < m1 or q1 + q3 - q2 < m2 or q1 + q2 - q3 < m3:
                    continue
                if _classify_tile(s, added) == "in":
                    hits.append(s)
    return roof, tuple(hits)


def in_tiles_expanded(w: ConjUpSet) -> tuple[SlantTile, ...]:
    """All In-tiles of the surface of ``w`` against the standard roof of
    its own generators, by the In scan ``_in_set``."""
    return _in_set(w, w.generators)[1]


def norm(w: ConjUpSet) -> tuple[FlatTile, ...]:
    """Flat tiles of the surface of ``w`` inside the l-space roof of its
    own generators.  They contain the roof's closed-trajectory content and
    may hold an open residue besides (``test_norm_contains_closed_walks``).

    ``w`` must be roof-closed.  Empty, without a scan, whenever the
    l-space roof of the generators adds no corner to their l-space cone,
    as for a roof of at most one generator; a ``ValueError`` when the
    scan would pass its budget (``in_tiles_expanded``).
    """
    if not is_roof(w):
        raise ValueError("norm is defined for roof-closed regions only")
    return tuple(flatten(s) for s in in_tiles_expanded(w))


def surface_tiles(w: ConjUpSet, window: Window) -> tuple[SlantTile, ...]:
    """The section over every flat tile of the window, in canonical order;
    unbudgeted: its height table costs one row build per ``u``."""
    return tuple(_sections(w, window))
