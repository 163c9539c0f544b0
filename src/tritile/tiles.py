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
the same flat tile.  ``port_candidates``, called once per step or
decoded symbol, builds them with ``tuple.__new__``, skipping the
Python-level ``__new__`` frame of the NamedTuple constructors; ``tile``
and ``parse_tile`` validate and keep the constructors.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .lattice import UNIT, QPoint, q_add, q_shift

Gradient = tuple[int, int]  # unordered axis pair, stored sorted

_new = tuple.__new__  # a NamedTuple built without its constructor frame


class SlantTile(NamedTuple):
    base: QPoint
    d1: int
    d2: int

    @property
    def d3(self) -> int:
        return 6 - self.d1 - self.d2

    def text(self) -> str:
        b = self.base
        return f"{b[0]},{b[1]},{b[2]}:{self.d1}{self.d2}"


# A flat tile is carried around as its canonical slant representative.
FlatTile = SlantTile


class Port(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"

    @property
    def other(self) -> "Port":
        return Port.DOWN if self is Port.UP else Port.UP


class PortPair(NamedTuple):
    """The two neighbour candidates across one port."""

    flip: SlantTile  # gradient differs from the source tile
    keep: SlantTile  # gradient equal to the source tile


def tile(q1: int, q2: int, q3: int, d1: int, d2: int) -> SlantTile:
    if d1 == d2 or not {d1, d2} <= {1, 2, 3}:
        raise ValueError(f"bad direction pair ({d1},{d2})")
    return SlantTile(QPoint(q1, q2, q3), d1, d2)


def parse_tile(text: str) -> SlantTile:
    """Inverse of :meth:`SlantTile.text`, e.g. ``"1,1,0:31"``."""
    try:
        coords, dirs = text.split(":")
        q1, q2, q3 = (int(c) for c in coords.split(","))
        if len(dirs) != 2:
            raise ValueError
        return tile(q1, q2, q3, int(dirs[0]), int(dirs[1]))
    except ValueError as exc:
        raise ValueError(f"bad tile text {text!r}") from exc


def vertices(s: SlantTile) -> tuple[QPoint, QPoint, QPoint]:
    """Base, mid and top vertex; base is the minimum, top the maximum."""
    mid = q_add(s.base, UNIT[s.d1])
    return s.base, mid, q_add(mid, UNIT[s.d2])


def sigma(s: SlantTile) -> SlantTile:
    """Shift one step along the diagonal: ``a[d1 d2] -> (a+e_d1)[d2 d3]``."""
    return SlantTile(q_add(s.base, UNIT[s.d1]), s.d2, s.d3)


def gradient(s: SlantTile) -> Gradient:
    """The unordered pair of edge directions; invariant under three shifts."""
    return (s.d1, s.d2) if s.d1 < s.d2 else (s.d2, s.d1)


def flatten(s: SlantTile) -> FlatTile:
    """Canonical representative of the shift class of ``s``.

    A tile that is already canonical is returned as it is.
    """
    if s.d1 == 1 and s.base[2] == 0:
        return s
    while s.d1 != 1:
        s = sigma(s)
    return SlantTile(q_shift(s.base, -s.base[2]), s.d1, s.d2)


def port_candidates(s: SlantTile, port: Port) -> PortPair:
    """The two tiles sharing the given port edge of ``s``.

    Both candidates own that edge as one of their own ports; the flip
    candidate enters through the same-named port, the keep candidate
    through the opposite one.  For ``s = a[d1 d2]`` they are
    ``(a+e_d1-e_d3)[d3 d2]`` and ``(a+e_d1)[d2 d1]`` across UP, and
    ``a[d1 d3]`` and ``(a-e_d2)[d2 d1]`` across DOWN.
    """
    (x, y, z), d1, d2 = s
    d3 = 6 - d1 - d2
    if port is Port.UP:
        x, y, z = x + (d1 == 1), y + (d1 == 2), z + (d1 == 3)  # base + e_d1
        flip = _new(SlantTile, (_new(QPoint, (x - (d3 == 1), y - (d3 == 2), z - (d3 == 3))), d3, d2))
        keep = _new(SlantTile, (_new(QPoint, (x, y, z)), d2, d1))
    else:
        keep = _new(SlantTile, (_new(QPoint, (x - (d2 == 1), y - (d2 == 2), z - (d2 == 3))), d2, d1))
        flip = _new(SlantTile, (s[0], d1, d3))
    return _new(PortPair, (flip, keep))
