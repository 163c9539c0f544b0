"""Kernel outputs are real ``SlantTile``s, ``QPoint``s and ``PortPair``s.

The per-tile kernels build their tuples with ``tuple.__new__``, which
checks neither the arity nor the type of what it wraps, and a plain
tuple compares equal to a ``SlantTile``.  So no equality test catches
a missed wrap; these tests check the exact types, on seeded roofs and
cones, and check that every construction branch was reached.
"""

import random

import pytest

from conftest import DECODE_DUDUDD, rand_antichain, rand_pit_gens
from tritile import (
    ConjUpSet,
    QPoint,
    SlantTile,
    Window,
    classify,
    conj_roof_generators,
    decode,
    parse_tile,
    section_at,
    sigma,
    std_roof_generators,
    surface_tiles,
    trace,
)
from tritile.surface import flat_tiles_in, in_tiles_expanded
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
