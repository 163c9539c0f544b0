"""Staircase surfaces of conjugate up-sets and their decomposition.

The boundary surface of a non-empty conjugate up-set carries exactly one
slant tile over every flat tile (the *section*); a tile is on the
surface iff both its extreme vertices have height zero, heights being
monotone along the componentwise order.

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
or none of its probes are inside.

Regions are unbounded, so every enumeration runs over a plane window.
Operations that conceptually need "all" inside-tiles grow the window
until no inside-tile touches its border, and report overflow if a cap
is reached first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .cones import ConjUpSet, StdUpSet, conj_height, is_roof, std_roof_generators
from .errors import SectionError, WindowOverflowError
from .lattice import QPoint, inverse_embed, project, q_shift
from .tiles import FlatTile, Gradient, SlantTile, flatten, gradient, sigma, vertices


class Window(NamedTuple):
    u_min: int
    u_max: int
    v_min: int
    v_max: int

    def pad(self, k: int) -> "Window":
        return Window(self.u_min - k, self.u_max + k, self.v_min - k, self.v_max + k)


@dataclass(frozen=True)
class Classification:
    in_tiles: tuple[SlantTile, ...]
    out_tiles: tuple[SlantTile, ...]
    bd_tiles: tuple[SlantTile, ...]


def flat_tiles_in(window: Window) -> Iterator[FlatTile]:
    """All canonical flat tiles whose base cell lies in the window."""
    for u in range(window.u_min, window.u_max + 1):
        for v in range(window.v_min, window.v_max + 1):
            base = QPoint(u, v, 0)
            yield SlantTile(base, 1, 2)
            yield SlantTile(base, 1, 3)


def on_surface(w: ConjUpSet, s: SlantTile) -> bool:
    """True iff the whole tile lies on the boundary surface of ``w``.

    Height is monotone, so zero height at the two extreme vertices pins
    the third vertex (and the whole triangle) to the surface.
    """
    vs = vertices(s)
    return conj_height(w, vs[0]) == 0 and conj_height(w, vs[2]) == 0


def section_at(w: ConjUpSet, t: FlatTile) -> SlantTile:
    """The unique surface tile of ``w`` over the flat tile ``t``.

    Each of the three shift phases of ``t`` is slid along the diagonal
    to put its base on the surface (heights are translation-linear);
    exactly one phase then has its top on the surface as well.
    """
    t = flatten(t)
    phases = (t, sigma(t), sigma(sigma(t)))
    hits = []
    for p in phases:
        lifted = SlantTile(q_shift(p.base, -conj_height(w, p.base)), p.d1, p.d2)
        if conj_height(w, vertices(lifted)[2]) == 0:
            hits.append(lifted)
    if len(hits) != 1:
        kind = "no" if not hits else "ambiguous"
        raise SectionError(f"{kind} section over {t.text()}")
    return hits[0]


def vector_field_at(w: ConjUpSet, t: FlatTile) -> Gradient:
    """Gradient of the section over ``t``: the induced vector field."""
    return gradient(section_at(w, t))


# -- exact tile-vs-standard-region test -------------------------------------

# Probe offsets at quadrupled l-scale, in (d1, d2, d3) order: the centres
# of the grid boxes holding the lower and the upper half of a tile.
_PROBES = ((-1, 1, 1), (-1, 1, 3))


def _classify_tile(s: SlantTile, dgens: Sequence[tuple]) -> str:
    """Classify one tile against the union of l-space octants ``dgens``."""
    b = inverse_embed(s.base)
    axes = (s.d1 - 1, s.d2 - 1, s.d3 - 1)
    inside = 0
    for off in _PROBES:
        p = [0, 0, 0]
        for axis, o in zip(axes, off):
            p[axis] = 2 * b[axis] + o
        if any(2 * g[0] <= p[0] and 2 * g[1] <= p[1] and 2 * g[2] <= p[2] for g in dgens):
            inside += 1
    return ("out", "bd", "in")[inside]


def classify(w1: ConjUpSet, w2: StdUpSet, window: Window) -> Classification:
    """Partition the surface tiles of ``w1`` over the window against ``w2``."""
    buckets: dict[str, list[SlantTile]] = {"in": [], "out": [], "bd": []}
    for t in flat_tiles_in(window):
        s = section_at(w1, t)
        buckets[_classify_tile(s, w2.dgens)].append(s)
    return Classification(
        in_tiles=tuple(sorted(buckets["in"], key=flatten)),
        out_tiles=tuple(sorted(buckets["out"], key=flatten)),
        bd_tiles=tuple(sorted(buckets["bd"], key=flatten)),
    )


def is_consistent(w1: ConjUpSet, w2: StdUpSet, window: Window) -> bool:
    """True when no surface tile over the window is properly cut by ``w2``."""
    return not classify(w1, w2, window).bd_tiles


# -- windowed enumeration of the full In set --------------------------------

def seed_window(points: Sequence[QPoint], pad: int = 8) -> Window:
    """Plane bounding box of ``points``, padded."""
    if not points:
        return Window(-pad, pad, -pad, pad)
    us = [project(p).u for p in points]
    vs = [project(p).v for p in points]
    return Window(min(us) - pad, max(us) + pad, min(vs) - pad, max(vs) + pad)


def _touches_border(flat: FlatTile, window: Window) -> bool:
    u, v = flat.base[0], flat.base[1]
    return (
        u <= window.u_min + 1
        or u >= window.u_max - 1
        or v <= window.v_min + 1
        or v >= window.v_max - 1
    )


def in_tiles_expanded(
    w: ConjUpSet,
    w2: StdUpSet,
    seeds: Sequence[QPoint],
    pad: int = 8,
    cap: int = 64,
) -> tuple[SlantTile, ...]:
    """All In-tiles of ``classify(w, w2)``, on a self-sizing window.

    The window starts at the seed bounding box and grows until no
    In-tile sits within one cell of the border, so the returned set is
    window-independent.  Growth past ``cap`` raises
    :class:`WindowOverflowError`.
    """
    base = seed_window(seeds, 0)
    while True:
        window = base.pad(pad)
        hits = [
            s
            for t in flat_tiles_in(window)
            if _classify_tile(s := section_at(w, t), w2.dgens) == "in"
        ]
        if not any(_touches_border(flatten(s), window) for s in hits):
            return tuple(sorted(hits, key=flatten))
        if pad >= cap:
            raise WindowOverflowError(f"In-region still open at pad {pad}")
        pad = min(cap, pad + 8)


def norm(w: ConjUpSet, pad: int = 8, cap: int = 64) -> tuple[FlatTile, ...]:
    """Flat tiles of the surface of ``w`` inside the l-space roof of its
    own generators: the closed-trajectory content of a roof.

    ``w`` must be roof-closed.  Empty for any single-generator roof.
    """
    if not is_roof(w):
        raise ValueError("norm is defined for roof-closed regions only")
    w2 = std_roof_generators(w.generators)
    hits = in_tiles_expanded(w, w2, w.generators, pad=pad, cap=cap)
    return tuple(sorted(flatten(s) for s in hits))


def surface_tiles(w: ConjUpSet, window: Window) -> tuple[SlantTile, ...]:
    """The section over every flat tile of the window, in canonical order."""
    return tuple(sorted((section_at(w, t) for t in flat_tiles_in(window)), key=flatten))
