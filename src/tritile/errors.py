"""The one exception raised by the geometry core.

``GeometryError`` covers inputs that are geometrically inconsistent:
a section or height asked of the empty region, a start tile off the
surface, a step from a tile off the surface, a norm walk that does not
close inside the norm, a failed reconstruction.  Callers tell these
cases apart by nothing but the message, which names the check that
failed and the tile or region it failed on; the CLI prints it and exits
2.  A failed step, an off-surface start and a norm walk also carry the
state that replays them.  A walk past its step budget comes back open
and the CLI exits 3; every other budget (In scan, chart cover, CLI caps
on windows, peaks, walks, pictures) raises ``ValueError``: exit 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .tiles import Port, SlantTile


class GeometryError(Exception):
    """A region or trajectory violates a structural assumption.

    ``peaks`` holds the generators of the region the error was raised
    on, as exact int triples, and ``tile`` the tile it names:

    - ``step`` sets ``tile`` and ``port`` to the tile and the port it
      tried to leave by, so ``step(ConjUpSet(e.peaks), e.tile, e.port)``
      raises it again;
    - ``trace`` sets ``tile`` to the off-surface start, so
      ``trace(ConjUpSet(e.peaks), e.tile)`` raises it again;
    - ``closed_trajectories_of_roof`` sets ``tile`` to the start of the
      walk that does not close inside the norm of the roof ``e.peaks``.

    The last two leave ``port`` ``None``, and other errors all three.
    """

    def __init__(
        self,
        message: str,
        *,
        tile: SlantTile | None = None,
        port: Port | None = None,
        peaks: tuple[tuple[int, int, int], ...] | None = None,
    ) -> None:
        super().__init__(message)
        self.tile = tile
        self.port = port
        self.peaks = peaks
