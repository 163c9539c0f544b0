"""Trajectories on staircase surfaces and the U/D shape codec.

A surface walk leaves a tile through one of its two ports; of the two
candidate tiles across that edge exactly one lies on the surface, which
makes the walk deterministic.  The exit port toggles exactly when the
step flips the gradient.  Recording one symbol per tile, negated on
every gradient change, yields the trajectory's U/D code; the code plus a
start tile decodes back to the tile sequence by the reverse automaton.

``chart_cover`` produces overlapping cones whose surfaces carry the
pieces of a decoded tile list, mirroring how local vector fields patch
into a global one.  ``closed_trajectory_roofs`` rebuilds a closed
trajectory as a difference of two inside-sets and checks itself, since
that reconstruction is the load-bearing structural claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

from .cones import ConjUpSet, StdUpSet, std_roof_generators
from .errors import GeometryError
from .surface import in_tiles_expanded, norm, on_surface, section_at
from .tiles import Port, SlantTile, flatten, gradient, port_candidates

_NEGATE = {"U": "D", "D": "U"}


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

    Returns the successor and the port it will exit through (toggled
    iff the move flipped the gradient).  A staircase admits exactly one
    on-surface candidate; zero or two signal a malformed region.
    """
    pair = port_candidates(s, exit_port)
    flip_on = on_surface(w, pair.flip)
    keep_on = on_surface(w, pair.keep)
    if flip_on and keep_on:
        raise GeometryError(f"both candidates on surface at {s.text()}/{exit_port.value}")
    if not flip_on and not keep_on:
        raise GeometryError(f"no candidate on surface at {s.text()}/{exit_port.value}")
    if flip_on:
        return pair.flip, exit_port.other
    return pair.keep, exit_port


def trace(
    w: ConjUpSet,
    start: SlantTile,
    max_steps: int = 1000,
    start_port: Port = Port.UP,
) -> Trajectory:
    """Walk from ``start`` until the starting state recurs or the budget ends.

    ``max_steps`` is a tile budget: an open walk stops holding exactly
    ``max_steps`` tiles, the start included, and a closed one is
    returned whole only if it has at most that many.  It must be at
    least 1.

    Closure is detected on the full (tile, exit port) state; the walk is
    reversible, so the first revisited state is necessarily the initial
    one and all tiles of a closed trajectory are distinct.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps is a tile budget and must be at least 1, got {max_steps}")
    if not on_surface(w, start):
        raise GeometryError(f"{start.text()} is not on the surface")
    tiles = [start]
    port = start_port
    while True:
        nxt, nxt_port = step(w, tiles[-1], port)
        if nxt == start and nxt_port == start_port:
            return Trajectory(tuple(tiles), closed=True)
        if len(tiles) >= max_steps:
            return Trajectory(tuple(tiles), closed=False)
        tiles.append(nxt)
        port = nxt_port


def encode(traj: Trajectory, start_sign: str = "D") -> str:
    """U/D code of a trajectory: one symbol per tile, flipped with the
    gradient.  Starting with the other sign negates the whole code."""
    if start_sign not in ("U", "D"):
        raise ValueError(f"start sign must be U or D, got {start_sign!r}")
    if not traj.tiles:
        raise ValueError("cannot encode an empty trajectory")
    out = [start_sign]
    for prev, cur in pairwise(traj.tiles):
        out.append(out[-1] if gradient(cur) == gradient(prev) else _NEGATE[out[-1]])
    return "".join(out)


def decode(code: str, start: SlantTile) -> list[SlantTile]:
    """Tile sequence whose code from ``start`` is ``code``.

    Deterministic automaton on (tile, exit port), starting at the UP
    port: a repeated symbol takes the gradient-keeping candidate and
    preserves the port, a change takes the flipping one and toggles it.
    Decoding is total; no surface is involved.
    """
    if not code:
        raise ValueError("cannot decode an empty code")
    if set(code) - {"U", "D"}:
        raise ValueError(f"code must be over U/D, got {code!r}")
    tiles = [start]
    port = Port.UP
    for prev_sym, sym in pairwise(code):
        pair = port_candidates(tiles[-1], port)
        if sym == prev_sym:
            tiles.append(pair.keep)
        else:
            tiles.append(pair.flip)
            port = port.other
    return tiles


def _fits(cone: ConjUpSet, tiles: list[SlantTile]) -> bool:
    """True iff every tile lies on the surface of ``cone``; stops at the
    first that does not."""
    for t in tiles:
        if not on_surface(cone, t):
            return False
    return True


def _chart_fits(tiles: list[SlantTile]) -> bool:
    return _fits(ConjUpSet(tuple(t.base for t in tiles)), tiles)


def chart_cover(tiles: list[SlantTile]) -> list[Chart]:
    """Cover a port-adjacent tile list by maximal single-cone segments.

    Segments are grown greedily from the front; when a tile does not fit
    the running chart, the next chart is started as far back as possible
    while still covering that tile, so consecutive charts overlap.  Any
    two port-adjacent tiles share a cone, hence the overlap is at least
    one tile.

    The running cone grows by one base per extension: the minimal bases
    of a segment are the minimal elements of the previous segment's
    minimal bases plus the new base, so nothing is rebuilt.
    """
    if not tiles:
        return []
    charts: list[Chart] = []
    i = 0
    while True:
        j = i
        cone = ConjUpSet((tiles[i].base,))
        while j + 1 < len(tiles):
            grown = ConjUpSet(cone.generators + (tiles[j + 1].base,))
            if not _fits(grown, tiles[i : j + 2]):
                break
            cone, j = grown, j + 1
        if not _fits(cone, tiles[i : j + 1]):
            # j == i here; a lone tile always fits its own base cone.
            raise GeometryError(f"tile {tiles[i].text()} fits no cone")
        charts.append(Chart(cone, i, j))
        if j == len(tiles) - 1:
            return charts
        i = next(k for k in range(i + 1, j + 2) if _chart_fits(tiles[k : j + 2]))


def closed_trajectory_roofs(w: ConjUpSet, traj: Trajectory) -> tuple[StdUpSet, StdUpSet]:
    """Two l-space roofs that carve ``traj`` out of the surface of ``w``.

    The first roof is built over the trajectory's base points; the
    second over the base points of the other inside-tiles.  The defining
    property (inside-tiles of the first minus inside-tiles of the second
    equals the trajectory) is verified, not assumed.
    """
    if not traj.closed:
        raise ValueError("roof reconstruction needs a closed trajectory")
    bases = sorted({t.base for t in traj.tiles})
    w1 = std_roof_generators(bases)
    in1 = in_tiles_expanded(w, bases)
    traj_set = set(traj.tiles)
    residue = [s for s in in1 if s not in traj_set]
    if residue:
        residue_bases = sorted({s.base for s in residue})
        w2 = std_roof_generators(residue_bases)
        in2 = in_tiles_expanded(w, residue_bases)
    else:
        w2 = StdUpSet()
        in2 = ()
    if set(in1) - set(in2) != traj_set:
        raise GeometryError(
            f"reconstruction mismatch: |In1|={len(in1)}, |In2|={len(in2)}, "
            f"trajectory length {len(traj)}"
        )
    return w1, w2


def closed_trajectories_of_roof(w: ConjUpSet) -> list[Trajectory]:
    """Partition the norm tiles of a roof into closed trajectories.

    Every trace must close and stay inside the norm region; an escape or
    an open walk is reported rather than silently accepted.
    """
    flats = norm(w)
    remaining = {section_at(w, t) for t in flats}
    budget = len(remaining) + 2
    out = []
    while remaining:
        start = min(remaining, key=flatten)
        traj = trace(w, start, max_steps=budget)
        if not traj.closed:
            raise GeometryError(f"open trajectory in norm from {start.text()}")
        if not set(traj.tiles) <= remaining:
            raise GeometryError(f"trajectory from {start.text()} leaves the norm")
        remaining -= set(traj.tiles)
        out.append(traj)
    return out
