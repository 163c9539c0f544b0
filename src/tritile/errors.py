"""Exceptions raised by the geometry core.

``GeometryError`` covers inputs that are geometrically inconsistent
(malformed regions, broken trajectories); ``BudgetExceeded`` covers
computations that were cut off by a configured limit rather than being
wrong.  The CLI maps the two families to distinct exit codes.
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


class BudgetExceeded(Exception):
    """A configured cap (window size, step count) was exhausted."""


class WindowOverflowError(BudgetExceeded):
    """Window auto-expansion hit its cap before the region closed off."""
