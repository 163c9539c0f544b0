"""Integer coordinate frames underlying the tile geometry.

Two copies of Z^3 are in play.  Points of the primary frame here are
*q-coordinates*; the companion frame (*l-coordinates*) maps into it by
the linear embedding ``(l1, l2, l3) -> (l2+l3, l1+l3, l1+l2)``.  The
inverse of that map lands on half-integers, so l-coordinates are stored
doubled (as :class:`LHalf`) and stay exact.  Nothing in this module, or
anywhere in the core, touches floating point.
"""

from __future__ import annotations

from typing import NamedTuple


class QPoint(NamedTuple):
    """Lattice point in q-coordinates."""

    q1: int
    q2: int
    q3: int


class LHalf(NamedTuple):
    """Point of the l-frame with every coordinate doubled (t = 2*l)."""

    t1: int
    t2: int
    t3: int


class PlanePoint(NamedTuple):
    """Image of a q-point under projection along the diagonal (1,1,1)."""

    u: int
    v: int


UNIT = {1: QPoint(1, 0, 0), 2: QPoint(0, 1, 0), 3: QPoint(0, 0, 1)}


def embed(l1: int, l2: int, l3: int) -> QPoint:
    """Map an integer l-point into q-coordinates."""
    return QPoint(l2 + l3, l1 + l3, l1 + l2)


def inverse_embed(q: QPoint) -> LHalf:
    """l-coordinates of ``q``, doubled so half-integers stay exact.

    The three doubled coordinates always share one parity, and
    ``embed`` applied to their halves returns ``q``.
    """
    q1, q2, q3 = q
    return LHalf(q2 + q3 - q1, q1 + q3 - q2, q1 + q2 - q3)


def project(q: QPoint) -> PlanePoint:
    """Collapse ``q`` along (1,1,1); translates by the diagonal coincide."""
    return PlanePoint(q[0] - q[2], q[1] - q[2])


def monomial_text(q: QPoint) -> str:
    """Display form of ``q`` as a Laurent monomial in x1, x2, x3."""
    return f"x1^{q[0]} x2^{q[1]} x3^{q[2]}"


def q_add(a: QPoint, b: QPoint) -> QPoint:
    return QPoint(a[0] + b[0], a[1] + b[1], a[2] + b[2])


def q_shift(q: QPoint, k: int) -> QPoint:
    """Translate ``q`` by ``k`` steps along the diagonal (1,1,1)."""
    return QPoint(q[0] + k, q[1] + k, q[2] + k)


def componentwise_le(a, b) -> bool:
    """Partial order on triples: every coordinate of ``a`` at most ``b``'s."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]
