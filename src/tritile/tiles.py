"""Slant triangle tiles, the shift operator, and the port structure.

A slant tile ``a[d1 d2]`` is the triangle with vertices ``a``,
``a+e_d1`` and ``a+e_d1+e_d2`` (base, mid, top); base and top are its
componentwise extremes.  The shift ``sigma`` slides a tile one step
along the viewing diagonal; three shifts translate it by (1,1,1).  A
*flat tile* is a shift class, represented canonically by the phase
whose first direction is axis 1 translated to base height zero.

Each tile has exactly two crossable edges, its *ports*: DOWN between
base and mid, UP between mid and top.  The remaining edge, the face
diagonal, is never crossed.  Across a port there are exactly two
possible neighbours: one keeps the tile's gradient and one flips it.
The two candidates at one port are a single shift apart, so they cover
the same flat tile.

A tile is an exact ``(base, d1, d2)`` tuple whose base is a
:data:`~tritile.lattice.Triple`, and a port pair an exact
``(flip, keep)`` tuple; every function here unpacks its tile rather than
naming fields.  An exact tuple comes from CPython's free list and is
unpacked on the interpreter's fast paths, which a tuple subclass is not.
``tile`` and ``parse_tile`` validate their input; the kernels write
their tiles as tuple displays.  ``tile_text`` writes a tile as
``q1,q2,q3:d1d2``, and ``tile_texts`` writes a list of them, turning
each distinct coordinate into text once.
"""

from __future__ import annotations

import enum
from typing import Collection

from .lattice import UNIT, Triple, q_add, q_shift

Gradient = tuple[int, int]  # unordered axis pair, stored sorted

SlantTile = tuple[Triple, int, int]  # (base, d1, d2)

# A flat tile is carried around as its canonical slant representative.
FlatTile = SlantTile


class Port(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"

    @property
    def other(self) -> "Port":
        return Port.DOWN if self is Port.UP else Port.UP


# The two neighbour candidates across one port: (flip, keep), the first
# changing the source tile's gradient and the second keeping it.
PortPair = tuple[SlantTile, SlantTile]


def tile(q1: int, q2: int, q3: int, d1: int, d2: int) -> SlantTile:
    if d1 == d2 or not {d1, d2} <= {1, 2, 3}:
        raise ValueError(f"bad direction pair ({d1},{d2})")
    return ((q1, q2, q3), d1, d2)


def tile_text(s: SlantTile) -> str:
    """The text form of a tile, e.g. ``"1,1,0:31"``."""
    (x, y, z), d1, d2 = s
    return f"{x},{y},{z}:{d1}{d2}"


# ":d1d2" of every direction pair, at index 4*d1 + d2.
_PAIR_TEXT = tuple(f":{d1}{d2}" for d1 in range(4) for d2 in range(4))


def tile_texts(tiles: Collection[SlantTile]) -> list[str]:
    """``[tile_text(s) for s in tiles]``, writing each distinct coordinate
    once, in a dict local to the call, and reading each direction pair's
    text from ``_PAIR_TEXT``: a window of side k holds O(k) distinct
    coordinates among its O(k^2) tiles."""
    coords = {c for base, _, _ in tiles for c in base}
    text = dict(zip(coords, map(str, coords)))
    return [f"{text[x]},{text[y]},{text[z]}{_PAIR_TEXT[4 * d1 + d2]}" for (x, y, z), d1, d2 in tiles]


def parse_int(text: str) -> int:
    """An optional ``-`` and ASCII digits, the form :func:`tile_text` writes.

    ``int`` alone would also take ``+``, ``_``, padding spaces and
    non-ASCII digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer text {text!r}")
    return int(text)


def parse_tile(text: str) -> SlantTile:
    """Inverse of :func:`tile_text`, e.g. ``"1,1,0:31"``."""
    try:
        coords, dirs = text.split(":")
        q1, q2, q3 = (parse_int(c) for c in coords.split(","))
        if len(dirs) != 2:
            raise ValueError
        return tile(q1, q2, q3, parse_int(dirs[0]), parse_int(dirs[1]))
    except ValueError as exc:
        raise ValueError(f"bad tile text {text!r}") from exc


def vertices(s: SlantTile) -> tuple[Triple, Triple, Triple]:
    """Base, mid and top vertex; base is the minimum, top the maximum."""
    base, d1, d2 = s
    mid = q_add(base, UNIT[d1])
    return base, mid, q_add(mid, UNIT[d2])


def sigma(s: SlantTile) -> SlantTile:
    """Shift one step along the diagonal: ``a[d1 d2] -> (a+e_d1)[d2 d3]``."""
    base, d1, d2 = s
    return (q_add(base, UNIT[d1]), d2, 6 - d1 - d2)


def gradient(s: SlantTile) -> Gradient:
    """The unordered pair of edge directions; invariant under three shifts."""
    _, d1, d2 = s
    return (d1, d2) if d1 < d2 else (d2, d1)


def flatten(s: SlantTile) -> FlatTile:
    """Canonical representative of the shift class of ``s``.

    A tile that is already canonical is returned as it is.
    """
    base, d1, _ = s
    if d1 == 1 and base[2] == 0:
        return s
    while s[1] != 1:
        s = sigma(s)
    base, d1, d2 = s
    return (q_shift(base, -base[2]), d1, d2)


def port_candidates(s: SlantTile, port: Port) -> PortPair:
    """The ``(flip, keep)`` tiles sharing the given port edge of ``s``.

    Both candidates own that edge as one of their own ports; the flip
    candidate enters through the same-named port, the keep candidate
    through the opposite one.  For ``s = a[d1 d2]`` they are
    ``(a+e_d1-e_d3)[d3 d2]`` and ``(a+e_d1)[d2 d1]`` across UP, and
    ``a[d1 d3]`` and ``(a-e_d2)[d2 d1]`` across DOWN.
    """
    base, d1, d2 = s
    x, y, z = base
    d3 = 6 - d1 - d2
    if port is Port.UP:
        x, y, z = x + (d1 == 1), y + (d1 == 2), z + (d1 == 3)  # base + e_d1
        return ((x - (d3 == 1), y - (d3 == 2), z - (d3 == 3)), d3, d2), ((x, y, z), d2, d1)
    return (base, d1, d3), ((x - (d2 == 1), y - (d2 == 2), z - (d2 == 3)), d2, d1)
