"""Cones and roofs over the two lattices, as minimal-generator antichains.

An up-set here is the union of the positive octants based at finitely
many generator points.  A *conjugate* up-set orders points in
q-coordinates; a *standard* up-set orders them in l-coordinates (stored
doubled, see :mod:`tritile.lattice`).  Regions are identified with their
minimal generators, so value equality is equality of the normalized
generator tuple.

A *roof* enlarges a cone by every point whose three axis rays all
eventually enter the cone.  Equivalently (in monomial-ideal terms) it is
the saturation of the cone's ideal, which is why the closure below is
computed as an intersection of three single-axis relaxations: one
candidate corner per triple of generators, then minimalization.  The
construction is idempotent, and it is validated against a brute-force
membership oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .errors import GeometryError
from .lattice import LHalf, QPoint, componentwise_le, inverse_embed

Triple = tuple[int, int, int]


def _minimal_triples(triples: Iterable[Triple]) -> tuple[Triple, ...]:
    """Minimal elements of a finite triple set under componentwise order.

    In lexicographic order no point is followed by one below it, so one
    ascending pass keeps a point unless a kept one is below it, and the
    kept list comes out sorted.  A kept point is lexicographically
    smaller, so its first coordinate is already no larger: only the
    other two are compared.
    """
    keep: list[Triple] = []
    for p in sorted(set(triples)):
        _, y, z = p
        for _, b, c in keep:
            if b <= y and c <= z:
                break
        else:
            keep.append(p)
    return tuple(keep)


def _pareto_pairs(items: list[Triple], i: int, j: int) -> list[Triple]:
    # Keep one representative per minimal (coord i, coord j) pair; entries
    # dominated in those two coordinates only produce dominated candidates.
    best: list[Triple] = []
    for t in sorted(items, key=lambda t: (t[i], t[j])):
        if any(b[i] <= t[i] and b[j] <= t[j] for b in best):
            continue
        best.append(t)
    return best


def _roof_closure(triples: Iterable[Triple]) -> tuple[Triple, ...]:
    """Generator antichain of the roof over octants based at ``triples``.

    A point lies in the roof iff for each axis some generator is below
    it in the other two coordinates.  Picking one witness per axis pins
    the point into the octant whose corner takes, per coordinate, the
    max over the two witnesses that constrain it; the roof is the union
    of those octants over all witness triples.
    """
    pts = sorted(set(triples))
    if not pts:
        return ()
    slot1 = _pareto_pairs(pts, 1, 2)  # witness for the +axis1 ray
    slot2 = _pareto_pairs(pts, 0, 2)
    slot3 = _pareto_pairs(pts, 0, 1)
    cands = {
        (max(b[0], c[0]), max(a[1], c[1]), max(a[2], b[2]))
        for a, b, c in product(slot1, slot2, slot3)
    }
    return _minimal_triples(cands)


@dataclass(frozen=True)
class ConjUpSet:
    """Up-set of q-space octants, normalized to its sorted antichain.

    Generators may be given as any integer triples; they come out as
    ``QPoint``s.  Only the minimal ones are wrapped, and a generator that
    is already a ``QPoint`` is kept as it is.
    """

    generators: tuple[QPoint, ...] = ()

    def __post_init__(self) -> None:
        gens = tuple(
            g if type(g) is QPoint else QPoint(*g) for g in _minimal_triples(self.generators)
        )
        object.__setattr__(self, "generators", gens)

    def __bool__(self) -> bool:
        return bool(self.generators)

    def __iter__(self) -> Iterator[QPoint]:
        return iter(self.generators)


@dataclass(frozen=True)
class StdUpSet:
    """Up-set in l-coordinates; generators stored as doubled l-triples.

    Roof closure in this frame can produce corners at half-integer
    l-points (doubled triples of mixed parity), so the doubled triple is
    the native representation and q-points are only a view.
    """

    dgens: tuple[LHalf, ...] = ()

    def __post_init__(self) -> None:
        gens = _minimal_triples(LHalf(*g) for g in self.dgens)
        object.__setattr__(self, "dgens", gens)

    @classmethod
    def from_qpoints(cls, points: Iterable[QPoint]) -> "StdUpSet":
        return cls(tuple(inverse_embed(QPoint(*p)) for p in points))

    def qpoints(self) -> tuple[QPoint, ...]:
        """Generators as q-points; fails if any corner is off-lattice."""
        out = []
        for t in self.dgens:
            q2 = (t[1] + t[2], t[0] + t[2], t[0] + t[1])
            if any(c % 2 for c in q2):
                raise ValueError(f"generator {t} is not a lattice point")
            out.append(QPoint(q2[0] // 2, q2[1] // 2, q2[2] // 2))
        return tuple(out)

    def __bool__(self) -> bool:
        return bool(self.dgens)


def conj_height(w: ConjUpSet, q: Triple) -> int:
    """Signed staircase height of ``q`` over ``w``.

    Non-negative exactly on ``w``; zero exactly on the boundary surface.
    Adding k*(1,1,1) to ``q`` adds k.

    The height is ``max over generators a of min(q - a)``, one plain
    loop over the unpacked generator triples.  This is the one-point
    height of the public API.  ``section_at`` and ``on_surface`` read
    the heights they need in their own passes over the generators, so
    nothing on the package's hot path calls it.
    """
    gens = w.generators
    if not gens:
        raise GeometryError("empty region has no height function")
    x, y, z = q
    best = None
    for a, b, c in gens:
        h = x - a
        if y - b < h:
            h = y - b
        if z - c < h:
            h = z - c
        if best is None or h > best:
            best = h
    return best


def conj_contains(w: ConjUpSet, q: QPoint) -> bool:
    return any(componentwise_le(a, q) for a in w.generators)


def conj_roof_generators(points: Iterable[QPoint]) -> ConjUpSet:
    """Roof closure of the q-space cone over ``points``."""
    closed = _roof_closure(tuple(QPoint(*p) for p in points))
    return ConjUpSet(tuple(QPoint(*t) for t in closed))


def std_contains(w: StdUpSet, q: QPoint) -> bool:
    dq = inverse_embed(q)
    return any(componentwise_le(g, dq) for g in w.dgens)


def std_roof_generators(points: Iterable[QPoint]) -> StdUpSet:
    """Roof closure of the l-space cone over ``points`` (doubled frame)."""
    closed = _roof_closure(tuple(inverse_embed(QPoint(*p)) for p in points))
    return StdUpSet(tuple(LHalf(*t) for t in closed))


def roof_add(w1: ConjUpSet, w2: ConjUpSet) -> ConjUpSet:
    """Sum of two conjugate roofs: roof closure of the merged generators.

    Associative and commutative; idempotent on equal arguments.
    """
    return conj_roof_generators(w1.generators + w2.generators)


def is_roof(w: ConjUpSet) -> bool:
    """True when ``w`` is already closed under the roof operation."""
    return conj_roof_generators(w.generators) == w
