"""Cones and roofs over the two lattices, as minimal-generator antichains.

An up-set here is the union of the positive octants based at finitely
many generator points.  A *conjugate* up-set orders points in
q-coordinates; a *standard* up-set orders them in l-coordinates (stored
doubled, see :mod:`tritile.lattice`).  Regions are identified with their
minimal generators, so value equality is equality of the normalized
generator tuple.

A *roof* enlarges a cone by every point whose three axis rays all
eventually enter the cone.  The ray along axis i enters it iff some
generator lies below the point in the other two coordinates, so the
roof is the intersection of three cylinders, each over the staircase of
the generators projected to one coordinate plane.  Its corners are the
componentwise maxima of one staircase corner per plane, as the
generators of an intersection of monomial ideals are lcms; in
monomial-ideal terms the roof is the saturation of the cone's ideal.
The candidate corners are minimalized once, by the up-set that holds
them.  The construction is idempotent, and it is validated against a
brute-force membership oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import GeometryError
from .lattice import QPoint, componentwise_le, embed, inverse_embed

Triple = tuple[int, int, int]


def _antichain(triples: Iterable[Triple]) -> tuple[Triple, ...]:
    """Minimal elements of a finite triple set under componentwise order,
    sorted, as exact tuples.

    In lexicographic order no point is followed by one below it, so one
    ascending pass keeps a point unless a kept one is below it, and the
    kept list comes out sorted.  A kept point is lexicographically
    smaller or equal, so its first coordinate is already no larger: only
    the other two are compared.  Repeats need no set: a later copy of a
    point falls to the same test, as the first copy, if kept, lies at or
    below it, and whatever dropped the first copy drops it too.
    Only the kept points are copied, and one that is already an exact
    tuple is kept as it is.
    """
    keep: list[Triple] = []
    for p in sorted(triples):
        _, y, z = p
        for _, b, c in keep:
            if b <= y and c <= z:
                break
        else:
            keep.append(p if type(p) is tuple else tuple(p))
    return tuple(keep)


def _front(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Minimal pairs of a finite pair set: a staircase in the plane.

    In ascending order every earlier pair has a first coordinate no
    larger, so a pair is dominated iff some kept pair has a second
    coordinate no larger.  The kept second coordinates fall, so the
    last kept one is their minimum.
    """
    keep: list[tuple[int, int]] = []
    for a, b in sorted(pairs):
        if not keep or b < keep[-1][1]:
            keep.append((a, b))
    return keep


def _roof_closure(triples: Iterable[Triple]) -> set[Triple]:
    """Candidate corners of the roof over octants based at ``triples``.

    A point lies in the roof iff each of the three coordinate-plane
    staircases has a corner below it in that plane.  One corner per
    plane pins the point into the octant whose corner takes, per
    coordinate, the max over the two planes that hold it; the roof is
    the union of those octants.  The corners are not minimalized here.
    """
    pts = list(triples)
    front1 = _front((y, z) for _, y, z in pts)  # witnesses of the +axis1 ray
    front2 = _front((x, z) for x, _, z in pts)
    front3 = _front((x, y) for x, y, _ in pts)
    return {
        (max(x2, x3), max(y1, y3), max(z1, z2))
        for y1, z1 in front1
        for x2, z2 in front2
        for x3, y3 in front3
    }


@dataclass(frozen=True)
class ConjUpSet:
    """Up-set of q-space octants, normalized to its sorted antichain.

    Generators may be given as any integer triples (``QPoint``s, tuples
    or lists); they come out as exact ``tuple[int, int, int]``s, which
    the per-tile kernels of :mod:`tritile.surface` and
    :mod:`tritile.dynamics` read directly: CPython's specializing
    interpreter (PEP 659) unpacks and indexes an exact ``tuple`` on its
    fast paths and a ``NamedTuple`` only on the generic ones.
    """

    generators: tuple[Triple, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", _antichain(self.generators))


@dataclass(frozen=True)
class StdUpSet:
    """Up-set in l-coordinates; generators stored as doubled l-triples.

    Roof closure in this frame can produce corners at half-integer
    l-points (doubled triples of mixed parity), so the doubled triple is
    the native representation and q-points are only a view.  ``dgens``
    are exact tuples, as ``ConjUpSet.generators`` are.
    """

    dgens: tuple[Triple, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dgens", _antichain(self.dgens))

    @classmethod
    def from_qpoints(cls, points: Iterable[QPoint]) -> "StdUpSet":
        return cls(tuple(map(inverse_embed, points)))

    def qpoints(self) -> tuple[QPoint, ...]:
        """Generators as q-points; fails if any corner is off-lattice,
        naming that corner as its doubled l-triple."""
        out = []
        for t in self.dgens:
            q2 = embed(*t)
            if any(c % 2 for c in q2):
                raise ValueError(f"generator {t} is not a lattice point")
            out.append(QPoint(q2[0] // 2, q2[1] // 2, q2[2] // 2))
        return tuple(out)


def conj_height(w: ConjUpSet, q: Triple) -> int:
    """Signed staircase height ``max over generators a of min(q - a)``.

    Non-negative exactly on ``w``; zero exactly on the boundary surface.
    Adding k*(1,1,1) to ``q`` adds k.  ``section_at`` and ``on_surface``
    read their own heights, so no CLI command calls this one-point height.
    """
    if not w.generators:
        raise GeometryError("empty region has no height function")
    x, y, z = q
    return max(min(x - a, y - b, z - c) for a, b, c in w.generators)


def conj_contains(w: ConjUpSet, q: QPoint) -> bool:
    return any(componentwise_le(a, q) for a in w.generators)


def conj_roof_generators(points: Iterable[QPoint]) -> ConjUpSet:
    """Roof closure of the q-space cone over ``points``."""
    return ConjUpSet(_roof_closure(points))


def std_contains(w: StdUpSet, q: QPoint) -> bool:
    dq = inverse_embed(q)
    return any(componentwise_le(g, dq) for g in w.dgens)


def std_roof_generators(points: Iterable[QPoint]) -> StdUpSet:
    """Roof closure of the l-space cone over ``points`` (doubled frame)."""
    return StdUpSet(_roof_closure(map(inverse_embed, points)))


def roof_add(w1: ConjUpSet, w2: ConjUpSet) -> ConjUpSet:
    """Sum of two conjugate roofs: roof closure of the merged generators.

    Associative and commutative; idempotent on equal arguments.
    """
    return conj_roof_generators(w1.generators + w2.generators)


def is_roof(w: ConjUpSet) -> bool:
    """True when ``w`` is already closed under the roof operation."""
    return conj_roof_generators(w.generators) == w
