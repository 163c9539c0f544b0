"""Trajectories on staircase surfaces and the U/D shape codec.

A surface walk leaves a tile through one of its two ports; of the two
candidate tiles across that edge exactly one lies on the surface, which
makes the walk deterministic.  The exit port toggles exactly when the
step flips the gradient.  Recording one symbol per tile, negated on
every gradient change, yields the trajectory's U/D code; the code plus a
start tile decodes back to the tile sequence by the reverse automaton.

``chart_cover`` produces overlapping cones whose surfaces carry the
pieces of a decoded tile list, mirroring how local vector fields patch
into a global one.  A walk traced on ``w`` is one chart: each of its
tiles has its base in ``w`` and ``base - e_d3`` outside ``w``
(``on_surface``), so the cone of the bases of any segment of the walk,
which lies in ``w``, holds each base of the segment and no such
``base - e_d3``.  Every tile of the segment is on its surface, no check
of the cover fails, and ``chart_cover`` returns one chart, whose cone is
the cone of all the bases.  The CLI's ``trajectories --start`` writes
that chart straight from this proof and searches no cover.
``closed_trajectory_roofs`` rebuilds a
closed trajectory as a difference of two inside-sets and checks itself,
since that reconstruction is the load-bearing structural claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Sequence

from .cones import ConjUpSet, StdUpSet
from .errors import GeometryError
from .lattice import Triple
from .surface import _in_set, norm, on_surface, section_at
from .tiles import Port, SlantTile, gradient, port_candidates, tile_text

_NEGATE = {"U": "D", "D": "U"}
MAX_STEPS = 1000  # default tile budget of a walk

# Tile-generator pairs that the checks of one chart cover may read.  The
# slowest cover found within it, one chart of three generators over a walk
# of `shell.MAX_WALK` tiles (`decode` of "DDDUUU" repeated), reads 14.4
# million and takes about 3.7 s (2-vCPU Xeon, Python 3.11).
MAX_COVER_UNITS = 15_000_000


@dataclass(frozen=True)
class Trajectory:
    tiles: tuple[SlantTile, ...]
    closed: bool

    def __len__(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class Chart:
    """A cone whose surface carries ``tiles[start:stop+1]`` of a walk."""

    cone: ConjUpSet
    start: int
    stop: int


def step(w: ConjUpSet, s: SlantTile, exit_port: Port) -> tuple[SlantTile, Port]:
    """Advance one tile across ``exit_port`` on the surface of ``w``.

    Returns the successor and the port it exits through (toggled iff the
    move flipped the gradient).  The candidates are one shift apart over
    one flat tile, so at most one is on the surface and the order of the
    checks cannot change the result: flip is checked only if keep is off.
    When neither is, the ``GeometryError`` carries ``s``, ``exit_port``
    and the generators of ``w`` as its ``tile``, ``port`` and ``peaks``.
    """
    flip, keep = port_candidates(s, exit_port)
    if on_surface(w, keep):
        return keep, exit_port
    if on_surface(w, flip):
        return flip, exit_port.other
    raise GeometryError(
        f"no candidate on surface at {tile_text(s)}/{exit_port.value}", tile=s, port=exit_port, peaks=w.generators
    )


def trace(w: ConjUpSet, start: SlantTile, max_steps: int = MAX_STEPS) -> Trajectory:
    """Walk from ``start``, leaving it through its UP port as ``decode``
    does, until the starting state recurs or the budget ends.

    ``max_steps`` is a tile budget: an open walk stops holding exactly
    ``max_steps`` tiles, the start included, and a closed one is
    returned whole only if it has at most that many.  It must be at
    least 1.

    Closure is detected on the full (tile, exit port) state, that is on
    ``(start, UP)``; the walk is reversible, so the first revisited
    state is necessarily the initial one and all tiles of a closed
    trajectory are distinct.

    A start off the surface raises a ``GeometryError`` whose ``tile`` is
    ``start`` and whose ``peaks`` are the generators of ``w``.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps is a tile budget and must be at least 1, got {max_steps}")
    if not on_surface(w, start):
        raise GeometryError(f"{tile_text(start)} is not on the surface", tile=start, peaks=w.generators)
    tiles = [start]
    port = Port.UP
    while True:
        nxt, nxt_port = step(w, tiles[-1], port)
        if nxt == start and nxt_port is Port.UP:
            return Trajectory(tuple(tiles), closed=True)
        if len(tiles) >= max_steps:
            return Trajectory(tuple(tiles), closed=False)
        tiles.append(nxt)
        port = nxt_port


def encode(traj: Trajectory) -> str:
    """U/D code of a trajectory: one symbol per tile, starting with D
    and flipped with the gradient."""
    if not traj.tiles:
        raise ValueError("cannot encode an empty trajectory")
    out = ["D"]
    for prev, cur in pairwise(traj.tiles):
        out.append(out[-1] if gradient(cur) == gradient(prev) else _NEGATE[out[-1]])
    return "".join(out)


def decode(code: str, start: SlantTile) -> list[SlantTile]:
    """Tile sequence from ``start`` whose code is ``code`` or its complement.

    Deterministic automaton on (tile, exit port), starting at the UP
    port: a repeated symbol takes the gradient-keeping candidate and
    preserves the port, a change takes the flipping one and toggles it,
    so a code and its complement decode alike.  Total; reads no surface.
    """
    if not code:
        raise ValueError("cannot decode an empty code")
    if set(code) - {"U", "D"}:
        raise ValueError(f"code must be over U/D, got {code!r}")
    tiles = [start]
    port = Port.UP
    for prev_sym, sym in pairwise(code):
        flip, keep = port_candidates(tiles[-1], port)
        if sym == prev_sym:
            tiles.append(keep)
        else:
            tiles.append(flip)
            port = port.other
    return tiles


def _grow(cone: ConjUpSet, p: Triple) -> ConjUpSet:
    """The cone of ``cone``'s generators and ``p``.

    If a generator lies at or below ``p``, that is ``cone`` itself.
    Otherwise ``p`` is minimal, and ``ConjUpSet`` drops the generators
    that lie above it: ``p`` sorts before each of them and lies below it.
    """
    x, y, z = p
    for a, b, c in cone.generators:
        if a <= x and b <= y and c <= z:
            return cone
    return ConjUpSet(cone.generators + (p,))


def chart_cover(tiles: Sequence[SlantTile]) -> list[Chart]:
    """Cover a port-adjacent tile list by maximal single-cone segments.

    Segments are grown greedily from the front; when a tile does not fit
    the running chart, the next chart is started as far back as possible
    while still covering that tile, so consecutive charts overlap.  Any
    two port-adjacent tiles share a cone, hence the overlap is at least
    one tile.

    A chart's cone is the cone of the bases of its segment.  The running
    cone takes one base per extension (``_grow``), and is kept as it is
    when a generator already lies at or below the new base.  The restart
    search reads the cones of the suffixes of the segment and the tile
    that broke it from one backward pass of the same update.  Every
    extension still checks its whole segment, so the checks grow with the
    square of a chart's length, and each check reads every generator of
    its cone.  Each check of a segment is charged its tiles times its
    cone's generators before it runs, and a cover charged more than
    ``MAX_COVER_UNITS`` is a ``ValueError``, the cover's only failure.
    """
    units = 0

    def fits(cone: ConjUpSet, seg: Sequence[SlantTile]) -> bool:
        """True iff every tile of ``seg`` is on the surface of ``cone``; stops at the first that is not."""
        nonlocal units
        units += len(seg) * len(cone.generators)
        if units > MAX_COVER_UNITS:
            raise ValueError(
                f"chart cover of {len(tiles)} tiles reads more than {MAX_COVER_UNITS} tile-generator pairs"
            )
        for t in seg:
            if not on_surface(cone, t):
                return False
        return True

    if not tiles:
        return []
    charts: list[Chart] = []
    i = 0
    while True:
        j = i
        cone = ConjUpSet((tiles[i][0],))
        while j + 1 < len(tiles):
            grown = _grow(cone, tiles[j + 1][0])
            if not fits(grown, tiles[i : j + 2]):
                break
            cone, j = grown, j + 1
        # Kept only for its on_surface calls and its charge (bench/run.py
        # HAND_COUNTS, row test_pinned_public_call_counts of
        # tests/test_work_counts.py); it cannot fail.  For j == i the cone
        # is the octant at the tile's own base, which carries it; for j > i
        # it repeats the fits(grown, ...) that just returned True on the
        # same cone and segment, and on_surface is pure.
        fits(cone, tiles[i : j + 1])
        charts.append(Chart(cone, i, j))
        if j == len(tiles) - 1:
            return charts
        # The cones of tiles[k:j+2] for k from j+1 down to i+1, then in search order.
        suffix = [ConjUpSet((tiles[j + 1][0],))]
        for k in range(j, i, -1):
            suffix.append(_grow(suffix[-1], tiles[k][0]))
        suffix.reverse()
        i = next(k for k, c in zip(range(i + 1, j + 2), suffix) if fits(c, tiles[k : j + 2]))


def closed_trajectory_roofs(w: ConjUpSet, traj: Trajectory) -> tuple[StdUpSet, StdUpSet]:
    """Two l-space roofs that carve ``traj`` out of the surface of ``w``.

    The first roof is built over the trajectory's base points; the
    second over the base points of the other inside-tiles.  The defining
    property (inside-tiles of the first minus inside-tiles of the second
    equals the trajectory) is verified, not assumed.

    Both inside-sets come from the In scan of ``norm`` (``_in_set``), so
    the reconstruction has its budget: a scan of more than
    ``surface.MAX_SCAN_UNITS`` flat-generator pairs is a ``ValueError``
    before its first section.  A roof that adds no corner to the cone of
    its points, the empty residue's among them, takes no section.
    """
    if not traj.closed:
        raise ValueError("roof reconstruction needs a closed trajectory")
    w1, in1 = _in_set(w, {t[0] for t in traj.tiles})
    traj_set = set(traj.tiles)
    w2, in2 = _in_set(w, {s[0] for s in in1 if s not in traj_set})
    if set(in1) - set(in2) != traj_set:
        raise GeometryError(
            f"reconstruction mismatch: |In1|={len(in1)}, |In2|={len(in2)}, "
            f"trajectory length {len(traj)}"
        )
    return w1, w2


def closed_trajectories_of_roof(w: ConjUpSet) -> list[Trajectory]:
    """Partition the norm tiles of a roof into closed trajectories.

    Each walk starts at the first norm tile that no earlier walk covers
    and must close inside the uncovered tiles, so within as many tiles as
    are uncovered.  One that does not raises ``GeometryError`` "walk from
    T does not close inside the norm", with ``tile`` the start T and
    ``peaks`` the generators of ``w``.
    """
    # A section per norm flat: bench/run.py HAND_COUNTS, row
    # test_pinned_public_call_counts of tests/test_work_counts.py.
    lifted = [section_at(w, t) for t in norm(w)]
    remaining = set(lifted)
    out = []
    for start in lifted:  # in flat order, the order norm returns
        if start not in remaining:
            continue
        traj = trace(w, start, max_steps=len(remaining))
        if not (traj.closed and remaining.issuperset(traj.tiles)):
            raise GeometryError(
                f"walk from {tile_text(start)} does not close inside the norm", tile=start, peaks=w.generators
            )
        remaining.difference_update(traj.tiles)
        out.append(traj)
    return out
