"""Kernel outputs are real ``SlantTile``s, ``QPoint``s and ``PortPair``s.

The per-tile kernels build their tuples with ``tuple.__new__``, which
checks neither the arity nor the type of what it wraps, and a plain
tuple compares equal to a ``SlantTile``.  So no equality test catches
a missed wrap; these tests check the exact types, on seeded roofs and
cones, and check that every construction branch was reached.

The regions hold their generators as exact int triples, which the
kernels read directly, and ``on_surface`` takes the plain tile triples
of ``chart_cover``.  The last tests check that every way of building a
region gives such generators, and that the kernels answer plain and
``SlantTile`` tiles alike.
"""

import dataclasses
import random

import pytest

from conftest import DECODE_DUDUDD, rand_antichain, rand_pit_gens
from tritile import (
    ConjUpSet,
    LHalf,
    QPoint,
    SlantTile,
    StdUpSet,
    Window,
    chart_cover,
    classify,
    conj_roof_generators,
    decode,
    parse_tile,
    roof_add,
    section_at,
    sigma,
    std_roof_generators,
    surface_tiles,
    trace,
)
from tritile.surface import _classify_tile, flat_tiles_in, in_tiles_expanded, on_surface
from tritile.tiles import Port, PortPair, port_candidates

WINDOW = Window(-4, 4, -4, 4)


def assert_tile(s) -> None:
    assert type(s) is SlantTile
    assert type(s.base) is QPoint
    assert len(s) == 3 and len(s.base) == 3
    assert all(type(c) is int for c in (*s.base, s.d1, s.d2))


def regions() -> list[ConjUpSet]:
    """Twenty seeded roofs of pit clusters and twenty seeded cones."""
    rng = random.Random(37)
    out = []
    for i in range(20):
        out.append(conj_roof_generators(rand_pit_gens(rng, i % 3)))
        out.append(ConjUpSet(rand_antichain(rng, 3, 2 + i % 4)))
    return out


REGIONS = regions()


def test_flat_tiles_in_builds_slant_tiles():
    flats = list(flat_tiles_in(WINDOW))
    assert len(flats) == 2 * 81
    for t in flats:
        assert_tile(t)


def test_section_at_builds_slant_tiles():
    phases = set()
    for w in REGIONS:
        for t in flat_tiles_in(WINDOW):
            for probe in (t, sigma(t)):  # canonical, and one that section_at flattens
                s = section_at(w, probe)
                assert_tile(s)
                phases.add(s.d1)
    assert phases == {1, 2, 3}  # all three return branches


def test_window_scans_build_slant_tiles():
    kinds = set()
    std = std_roof_generators([QPoint(0, 0, 0), QPoint(1, -1, 0)])
    for w in REGIONS:
        tiles = surface_tiles(w, WINDOW)
        cl = classify(w, std, WINDOW)
        for s in (*tiles, *cl.in_tiles, *cl.out_tiles, *cl.bd_tiles):
            assert_tile(s)
            kinds.add((s.d1, s.d2))
    # every tile the height table can yield: (2,3) and (3,2) share a base
    assert kinds == {(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)}


def test_in_scan_builds_slant_tiles():
    found = 0
    for w in REGIONS:
        for s in in_tiles_expanded(w):
            assert_tile(s)
            found += 1
    assert found > 0


@pytest.mark.parametrize("port", [Port.UP, Port.DOWN])
def test_port_candidates_build_a_port_pair_of_slant_tiles(port):
    for w in REGIONS[:6]:
        for s in surface_tiles(w, Window(-2, 2, -2, 2)):
            pair = port_candidates(s, port)
            assert type(pair) is PortPair
            assert len(pair) == 2
            assert_tile(pair.flip)
            assert_tile(pair.keep)


def test_walk_tiles_are_slant_tiles(hexcone):
    tiles = decode("DUDUDD", parse_tile(DECODE_DUDUDD[0]))
    assert [s.text() for s in tiles] == list(DECODE_DUDUDD)
    walk = trace(hexcone, parse_tile("1,1,0:31"))
    assert walk.closed
    for s in (*tiles, *walk.tiles):
        assert_tile(s)


# -- exact-tuple generators --------------------------------------------------

STD_REGIONS = [
    std for w in REGIONS for std in (std_roof_generators(w.generators), StdUpSet.from_qpoints(w.generators))
]


def plain(s) -> tuple:
    """``s`` as an exact ``(base, d1, d2)`` triple, as ``chart_cover`` passes it."""
    base, d1, d2 = s
    return tuple(base), d1, d2


def test_views_are_the_generators_as_exact_tuples():
    """The kernels read ``generators``/``dgens`` directly, so the view of
    the antichain they see is the generators themselves: exact int
    triples, whichever way the region was built."""
    assert len(STD_REGIONS) == 80
    walk = decode("DUDUDD" * 20, parse_tile(DECODE_DUDUDD[0]))
    built = [
        *REGIONS,
        *STD_REGIONS,
        ConjUpSet(tuple(QPoint(*g) for g in REGIONS[1].generators)),
        ConjUpSet(tuple(list(g) for g in REGIONS[1].generators)),
        StdUpSet(tuple(LHalf(*g) for g in STD_REGIONS[0].dgens)),
        roof_add(REGIONS[0], REGIONS[2]),
        *(c.cone for c in chart_cover(walk)),
    ]
    for region in built:
        gens = region.dgens if isinstance(region, StdUpSet) else region.generators
        assert type(gens) is tuple and len(gens) > 0
        for g in gens:
            assert type(g) is tuple and len(g) == 3
            assert all(type(c) is int for c in g)
    assert ConjUpSet().generators == () and StdUpSet().dgens == ()


def test_views_are_left_out_of_equality_hash_and_repr():
    """No second view of the antichain is stored: ``generators``/``dgens``
    are the only fields, and equality, hash and repr read them alone."""
    for region in [*REGIONS, *STD_REGIONS]:
        twin = dataclasses.replace(region)
        assert twin == region and hash(twin) == hash(region)
        assert repr(twin) == repr(region) and "triples" not in repr(region)
    named = ConjUpSet(tuple(QPoint(*g) for g in REGIONS[1].generators))
    assert named == REGIONS[1] and hash(named) == hash(REGIONS[1]) and repr(named) == repr(REGIONS[1])
    assert [f.name for f in dataclasses.fields(ConjUpSet)] == ["generators"]
    assert [f.name for f in dataclasses.fields(StdUpSet)] == ["dgens"]


def test_kernels_answer_plain_and_named_inputs_alike():
    on_off, kinds = set(), set()
    for w in REGIONS:
        for t in flat_tiles_in(WINDOW):
            s = section_at(w, t)
            for cand in (s, *port_candidates(s, Port.UP), *port_candidates(s, Port.DOWN)):
                answer = on_surface(w, cand)
                assert on_surface(w, plain(cand)) is answer
                on_off.add(answer)
    for std in STD_REGIONS[:20]:
        for w in REGIONS[:10]:
            for s in surface_tiles(w, WINDOW):
                kind = _classify_tile(s, std.dgens)
                assert _classify_tile(plain(s), std.dgens) == kind
                kinds.add(kind)
    assert on_off == {True, False} and kinds == {"in", "out", "bd"}
