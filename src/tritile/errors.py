"""The one exception raised by the geometry core.

``GeometryError`` covers inputs that are geometrically inconsistent:
an empty region, a start tile off the surface, a walk that forks or
dead-ends, a norm that holds an open walk, a failed reconstruction.
Callers tell these cases apart by nothing but the message, which names
the check that failed and the tile or region it failed on; the CLI
prints it and exits 2.  Running out of a budget is not an error: a walk
that does not close within its step budget comes back as an open
trajectory, and the CLI exits 3 for it.
"""


class GeometryError(Exception):
    """A region or trajectory violates a structural assumption."""
