"""Kernel outputs are exact ``(base, d1, d2)`` tuples, and every point is an exact int tuple.

A tile is a plain tuple whose base is an exact int triple, and a port
pair a plain ``(flip, keep)`` tuple.  A NamedTuple or a list of the same
values compares equal to such a tuple, or is unpacked alike, so no
equality test catches one coming back from a kernel; these tests check
the exact types, on seeded roofs and cones, and check that every
construction branch was reached.  ``assert_tile`` itself is checked to
refuse the forms it exists to catch.

The regions hold their generators as exact int triples, which the
kernels read directly.  The last tests check that every way of building
a region gives such generators, that the kernels answer exact and
NamedTuple tiles alike, and that ``tile_texts`` writes what
``tile_text`` writes.
"""

import dataclasses
import json
import random
from typing import NamedTuple

import pytest

from conftest import DECODE_DUDUDD, flat_tiles_in, rand_antichain, rand_pit_gens, record_public_calls
from tritile import (
    ConjUpSet,
    StdUpSet,
    Window,
    chart_cover,
    classify,
    conj_roof_generators,
    decode,
    embed,
    flatten,
    inverse_embed,
    parse_tile,
    project,
    roof_add,
    section_at,
    sigma,
    std_roof_generators,
    surface_tiles,
    tile,
    tile_text,
    tile_texts,
    trace,
    vertices,
)
from tritile.shell import _conj_region
from tritile.surface import _classify_tile, in_tiles_expanded, on_surface
from tritile.tiles import Port, port_candidates

WINDOW = Window(-4, 4, -4, 4)


def assert_point(p, n: int = 3) -> None:
    assert type(p) is tuple and len(p) == n
    assert all(type(c) is int for c in p)


def assert_tile(s) -> None:
    assert type(s) is tuple and len(s) == 3
    base, d1, d2 = s
    assert_point(base)
    assert type(d1) is int and type(d2) is int
    assert d1 != d2 and {d1, d2} <= {1, 2, 3}


class NamedTile(NamedTuple):
    base: tuple
    d1: int
    d2: int


class NamedPoint(NamedTuple):
    q1: int
    q2: int
    q3: int


def regions() -> list[ConjUpSet]:
    """Twenty seeded roofs of pit clusters and twenty seeded cones."""
    rng = random.Random(37)
    out = []
    for i in range(20):
        out.append(conj_roof_generators(rand_pit_gens(rng, i % 3)))
        out.append(ConjUpSet(rand_antichain(rng, 3, 2 + i % 4)))
    return out


REGIONS = regions()


def test_assert_tile_refuses_named_and_list_tiles():
    s = tile(1, -2, 0, 3, 1)
    assert_tile(s)
    for bad in (
        NamedTile(*s),
        list(s),
        ([1, -2, 0], 3, 1),
        (NamedPoint(1, -2, 0), 3, 1),
        ((1, -2, 0), 3, 3),
        ((1, -2, 0), 3, 4),
        ((1, -2, 0), 3, True),
        ((1, -2, 0), 3),
    ):
        with pytest.raises(AssertionError):
            assert_tile(bad)


def test_in_scan_hands_section_at_exact_flats(monkeypatch):
    calls = record_public_calls(monkeypatch, (section_at,))
    hits = [s for w in REGIONS for s in in_tiles_expanded(w)]
    assert len(calls) > 0 and len(hits) > 0
    for _, (_, t) in calls:
        assert_tile(t)
        (_, _, z), d1, _ = t
        assert z == 0 and d1 == 1  # canonical flats: section_at does not flatten them


def test_section_at_builds_slant_tiles():
    phases = set()
    for w in REGIONS:
        for t in flat_tiles_in(WINDOW):
            for probe in (t, sigma(t)):  # canonical, and one that section_at flattens
                s = section_at(w, probe)
                assert_tile(s)
                phases.add(s[1])
    assert phases == {1, 2, 3}  # all three return branches


def test_window_scans_build_slant_tiles():
    kinds = set()
    std = std_roof_generators([(0, 0, 0), (1, -1, 0)])
    for w in REGIONS:
        tiles = surface_tiles(w, WINDOW)
        cl = classify(w, std, WINDOW)
        for s in (*tiles, *cl.in_tiles, *cl.out_tiles, *cl.bd_tiles):
            assert_tile(s)
            kinds.add(s[1:])
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
            assert type(pair) is tuple and len(pair) == 2
            flip, keep = pair
            assert_tile(flip)
            assert_tile(keep)


def test_every_point_producer_returns_exact_int_tuples(tmp_path):
    s = tile(1, 1, 0, 3, 1)
    tiles = [
        s,
        parse_tile("-2,0,5:12"),
        sigma(s),
        flatten(s),
        flatten(sigma(s)),
        *port_candidates(s, Port.UP),
        *port_candidates(s, Port.DOWN),
        *decode("DUDUDD", s),
    ]
    for t in tiles:
        assert_tile(t)
        for p in vertices(t):
            assert_point(p)
    assert_point(embed(1, 0, 0))
    assert_point(inverse_embed((1, 0, 0)))
    assert_point(project((5, 3, 2)), 2)
    for w in REGIONS:
        for p in StdUpSet.from_qpoints(w.generators).qpoints():
            assert_point(p)
    peaks = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]  # a roof of one generator, (0, 0, 0)
    for kind in ("cone", "roof"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"kind": kind, "peaks": peaks}))
        gens = _conj_region(str(path)).generators
        assert len(gens) == (3 if kind == "cone" else 1)
        for g in gens:
            assert_point(g)


def test_walk_tiles_are_slant_tiles(hexcone):
    tiles = decode("DUDUDD", parse_tile(DECODE_DUDUDD[0]))
    assert [tile_text(s) for s in tiles] == list(DECODE_DUDUDD)
    walk = trace(hexcone, parse_tile("1,1,0:31"))
    assert walk.closed
    for s in (*tiles, *walk.tiles):
        assert_tile(s)


# -- exact-tuple generators --------------------------------------------------

STD_REGIONS = [
    std for w in REGIONS for std in (std_roof_generators(w.generators), StdUpSet.from_qpoints(w.generators))
]


def named(s) -> NamedTile:
    """``s`` as a NamedTuple tile with a NamedTuple base, as a caller might pass it."""
    base, d1, d2 = s
    return NamedTile(NamedPoint(*base), d1, d2)


def test_views_are_the_generators_as_exact_tuples():
    """The kernels read ``generators``/``dgens`` directly, so the view of
    the antichain they see is the generators themselves: exact int
    triples, whichever way the region was built."""
    assert len(STD_REGIONS) == 80
    walk = decode("DUDUDD" * 20, parse_tile(DECODE_DUDUDD[0]))
    built = [
        *REGIONS,
        *STD_REGIONS,
        ConjUpSet(tuple(list(g) for g in REGIONS[1].generators)),
        StdUpSet(tuple(list(g) for g in STD_REGIONS[0].dgens)),
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
    lists = ConjUpSet(tuple(list(g) for g in REGIONS[1].generators))
    assert lists == REGIONS[1] and hash(lists) == hash(REGIONS[1]) and repr(lists) == repr(REGIONS[1])
    assert [f.name for f in dataclasses.fields(ConjUpSet)] == ["generators"]
    assert [f.name for f in dataclasses.fields(StdUpSet)] == ["dgens"]


def test_kernels_answer_plain_and_named_inputs_alike():
    on_off, kinds = set(), set()
    for w in REGIONS:
        for t in flat_tiles_in(WINDOW):
            s = section_at(w, t)
            for cand in (s, *port_candidates(s, Port.UP), *port_candidates(s, Port.DOWN)):
                answer = on_surface(w, cand)
                assert on_surface(w, named(cand)) is answer
                on_off.add(answer)
    for std in STD_REGIONS[:20]:
        for w in REGIONS[:10]:
            for s in surface_tiles(w, WINDOW):
                kind = _classify_tile(s, std.dgens)
                assert _classify_tile(named(s), std.dgens) == kind
                kinds.add(kind)
    assert on_off == {True, False} and kinds == {"in", "out", "bd"}


def test_tile_texts_is_tile_text_of_each_tile():
    assert tile_texts([]) == [] and tile_texts(()) == []
    rng = random.Random(41)
    std = std_roof_generators([(0, 0, 0), (3, -3, 0)])
    lists = [[tile(0, 0, 0, 1, 2)], [tile(-10, 0, 10, 2, 1), tile(10, -10, 0, 3, 2)]]
    for w in REGIONS:
        u, v = rng.randint(-9, 0), rng.randint(-9, 0)
        window = Window(u, u + rng.randint(0, 9), v, v + rng.randint(0, 9))
        tiles = surface_tiles(w, window)
        cl = classify(w, std, window)
        lists += [tiles, cl.in_tiles, cl.out_tiles, cl.bd_tiles, [*tiles, *tiles[::-1]]]
    coords = {c for ts in lists for (base, _, _) in ts for c in base}
    assert min(coords) < 0 < max(coords) and 0 in coords
    for ts in lists:
        texts = tile_texts(ts)
        assert texts == [tile_text(s) for s in ts]
        assert [parse_tile(t) for t in texts] == list(ts)
