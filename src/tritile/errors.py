"""Exceptions raised by the geometry core.

``GeometryError`` covers inputs that are geometrically inconsistent
(malformed regions, broken trajectories); the CLI maps it to exit 2.
Running out of a budget is not an error: a walk that does not close
within its step budget comes back as an open trajectory, and the CLI
exits 3 for it.
"""


class GeometryError(Exception):
    """A region or trajectory violates a structural assumption."""


class EmptyRegionError(GeometryError):
    """An operation that needs a non-empty region got an empty one."""


class NotOnSurfaceError(GeometryError):
    """A tile handed to a surface walk does not lie on the surface."""


class DeadEndError(GeometryError):
    """Neither candidate across a port lies on the surface."""


class ForkError(GeometryError):
    """Both candidates across a port lie on the surface."""


class LemmaViolationError(GeometryError):
    """The two-roof reconstruction of a closed trajectory failed its check."""


class NormPartitionError(GeometryError):
    """A trace inside a norm region escaped it or failed to close."""


class ChartCoverError(GeometryError):
    """A tile could not be covered by any chart cone (defensive)."""
