"""Integer coordinate frames underlying the tile geometry.

Two copies of Z^3 are in play.  Points of the primary frame here are
*q-coordinates*; the companion frame (*l-coordinates*) maps into it by
the linear embedding ``(l1, l2, l3) -> (l2+l3, l1+l3, l1+l2)``.  The
inverse of that map lands on half-integers, so l-coordinates are stored
doubled and stay exact.  A point of either frame is a :data:`Triple`,
an exact ``tuple`` of three ints, and a plane point is a pair: CPython's
specializing interpreter (PEP 659) unpacks and indexes an exact tuple on
fast paths that a ``NamedTuple`` does not get.  Nothing in this module,
or anywhere in the core, touches floating point.
"""

from __future__ import annotations

Triple = tuple[int, int, int]

UNIT = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}


def embed(l1: int, l2: int, l3: int) -> Triple:
    """Map an integer l-point into q-coordinates."""
    return (l2 + l3, l1 + l3, l1 + l2)


def inverse_embed(q: Triple) -> Triple:
    """l-coordinates of ``q``, doubled so half-integers stay exact.

    The three doubled coordinates always share one parity, and
    ``embed`` applied to their halves returns ``q``.
    """
    q1, q2, q3 = q
    return (q2 + q3 - q1, q1 + q3 - q2, q1 + q2 - q3)


def project(q: Triple) -> tuple[int, int]:
    """Collapse ``q`` along (1,1,1) to the plane point ``(u, v)``;
    translates by the diagonal coincide."""
    return (q[0] - q[2], q[1] - q[2])


def monomial_text(q: Triple) -> str:
    """Display form of ``q`` as a Laurent monomial in x1, x2, x3."""
    return f"x1^{q[0]} x2^{q[1]} x3^{q[2]}"


def q_add(a: Triple, b: Triple) -> Triple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def q_shift(q: Triple, k: int) -> Triple:
    """Translate ``q`` by ``k`` steps along the diagonal (1,1,1)."""
    return (q[0] + k, q[1] + k, q[2] + k)


def componentwise_le(a, b) -> bool:
    """Partial order on triples: every coordinate of ``a`` at most ``b``'s."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]
