"""The one exception raised by the geometry core.

``GeometryError`` covers inputs that are geometrically inconsistent:
an empty region, a start tile off the surface, a step from a tile off
the surface, a norm that holds an open walk, a failed reconstruction.
Callers tell these cases apart by nothing but the message, which names
the check that failed and the tile or region it failed on; the CLI
prints it and exits 2.  A failed step also carries the state that
replays it.  Running out of a budget is not an error: a walk that does
not close within its step budget comes back as an open trajectory, and
the CLI exits 3 for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lattice import QPoint
    from .tiles import Port, SlantTile


class GeometryError(Exception):
    """A region or trajectory violates a structural assumption.

    An error raised by ``step`` sets ``tile`` and ``port``, the tile and
    the port it tried to leave by, and ``peaks``, the generators of the
    region, so ``step(ConjUpSet(e.peaks), e.tile, e.port)`` raises it
    again.  Other errors leave the three ``None``.
    """

    def __init__(
        self,
        message: str,
        *,
        tile: SlantTile | None = None,
        port: Port | None = None,
        peaks: tuple[QPoint, ...] | None = None,
    ) -> None:
        super().__init__(message)
        self.tile = tile
        self.port = port
        self.peaks = peaks
