import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    HEX_GENS,
    HEX_WALK,
    added_corners_two_ways,
    brute_boundary,
    brute_height,
    brute_section,
    brute_in_tiles,
    count_public_calls,
    flat_tiles_in,
    padded_box,
    pit,
    piece_reach,
    plane_peaks,
    rand_antichain,
    rand_pit_gens,
    sample_in_closed,
    sample_in_open,
    tile_samples,
)
from tritile import (
    Classification,
    ConjUpSet,
    GeometryError,
    Window,
    classify,
    conj_height,
    flatten,
    gradient,
    norm,
    on_surface,
    parse_tile,
    project,
    section_at,
    sigma,
    surface_tiles,
    vertices,
)
import tritile
from tritile import cones, surface
from tritile.cones import StdUpSet, conj_roof_generators, std_roof_generators
from tritile.lattice import q_shift
from tritile.surface import _classify_tile, _in_set, in_tiles_expanded
from tritile.tiles import tile

HEX_TILES = tuple(parse_tile(t) for t in HEX_WALK)
STD_ORIGIN = StdUpSet.from_qpoints([(0, 0, 0)])


def test_on_surface_examples(hexcone):
    assert on_surface(hexcone, tile(1, 1, 0, 3, 1))
    assert not on_surface(hexcone, tile(1, 1, 1, 1, 3))  # top pokes inside
    assert not on_surface(hexcone, tile(0, 0, 0, 1, 2))  # base below


def test_on_surface_against_boundary_oracle():
    # A tile is on the surface iff all three vertices are boundary points.
    rng = random.Random(5)
    dirs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    for _ in range(40):
        gens = rand_antichain(rng, 4, rng.randint(1, 6))
        w = ConjUpSet(gens)
        tiles = [tile(*gens[0], *d) for d in dirs]  # every tile at a generator
        tiles += [
            tile(*(rng.randint(-5, 5) for _ in range(3)), *rng.choice(dirs)) for _ in range(60)
        ]
        hits = 0
        for s in tiles:
            expected = all(brute_boundary(gens, v) for v in vertices(s))
            assert on_surface(w, s) == expected
            hits += expected
        assert hits >= 2


small = st.integers(min_value=-4, max_value=4)
small_points = st.tuples(small, small, small)
DIRS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]


@st.composite
def regions(draw):
    """A random antichain, a one-generator cone or a roof closure."""
    points = draw(st.lists(small_points, min_size=1, max_size=6))
    kind = draw(st.sampled_from(["antichain", "one", "roof"]))
    if kind == "one":
        return ConjUpSet(tuple(points[:1]))
    if kind == "roof":
        return conj_roof_generators(points)
    return ConjUpSet(tuple(points))


# Both exits of on_surface, on the octant at the origin: (0,0,1):12 has
# base height 0 and top height 1 (the early exit), (-1,0,0):12 has base
# height -1 and top height 0, and (0,0,0):12 lies on the surface.
OCTANT0 = ConjUpSet(((0, 0, 0),))


@given(regions(), small_points, st.sampled_from(DIRS), st.integers(min_value=-1, max_value=2))
@example(OCTANT0, (0, 0, 1), (1, 2), 0)
@example(OCTANT0, (-1, 0, 0), (1, 2), 1)
@example(OCTANT0, (0, 0, 0), (1, 2), 0)
def test_on_surface_one_pass_against_heights(w, p, dirs, depth):
    # The tile's base is slid to height -depth, from -2 to 1, so tiles on,
    # next to and below the surface are drawn; the top is as high or one
    # higher.  Judged by the brute oracles and by the two heights.
    gens = w.generators
    k = conj_height(w, p) + depth
    s = tile(p[0] - k, p[1] - k, p[2] - k, *dirs)
    base, _, top = vertices(s)
    hb, ht = conj_height(w, base), conj_height(w, top)
    assert (hb, ht) == (brute_height(gens, base), brute_height(gens, top))
    assert hb == -depth and 0 <= ht - hb <= 1
    expected = hb == 0 == ht
    assert expected == all(brute_boundary(gens, v) for v in vertices(s))
    assert on_surface(w, s) == expected


def test_on_surface_of_empty_region_is_false():
    # The empty region has no boundary point (the brute oracle), so no tile
    # of any phase, slid anywhere along the diagonal, is on its surface.
    for t in flat_tiles_in(Window(-1, 1, -1, 1)):
        for b, d1, d2 in (t, sigma(t), sigma(sigma(t))):
            for k in range(-2, 3):
                s = (q_shift(b, k), d1, d2)
                assert not any(brute_boundary((), v) for v in vertices(s))
                assert on_surface(ConjUpSet(), s) is False


def test_section_examples(hexcone):
    assert section_at(hexcone, flatten(tile(1, 1, 0, 3, 1))) == tile(1, 1, 0, 3, 1)
    assert section_at(hexcone, flatten(tile(0, 1, 1, 1, 2))) == tile(0, 1, 1, 1, 2)
    octant = ConjUpSet(((0, 0, 0),))
    assert section_at(octant, tile(0, 0, 0, 1, 2)) == tile(0, 0, 0, 1, 2)


def test_section_is_total_and_unique_on_random_cones():
    # Judged by the boundary-point oracle: exactly one slant tile over each
    # flat tile has all three vertices on the boundary, and it is the section.
    rng = random.Random(11)
    regions = []
    for _ in range(12):
        regions.append(ConjUpSet(rand_antichain(rng, 3, rng.randint(1, 5))))
        regions.append(conj_roof_generators(rand_antichain(rng, 3, rng.randint(2, 5))))
    for d in (19, 20, 21):
        regions.append(conj_roof_generators([(0, 0, 0), (d, -d, rng.randint(-1, 1))]))
    for w in regions:
        flats = list(flat_tiles_in(padded_box(w.generators, 3)))
        for t in rng.sample(flats, min(len(flats), 150)):
            s = section_at(w, t)
            assert brute_section(w.generators, t) == [s]
            assert on_surface(w, s)
            assert flatten(s) == t


def _three_height_section(w, t):
    """The section over the canonical flat ``t`` by the three-height rule,
    with every height read by ``conj_height``."""
    (u, v, _), _, d2 = t
    d3 = 5 - d2
    top = (u + 1, v + 1, 0) if d2 == 2 else (u + 1, v, 1)
    ha, hb, hc = conj_height(w, (u, v, 0)), conj_height(w, (u + 1, v, 0)), conj_height(w, top)
    assert ha <= hb <= hc <= ha + 1
    if hb == ha + 1:
        return tile(u + 1 - hb, v - hb, -hb, d2, d3)
    if hc == ha + 1:
        return tile(top[0] - hc, top[1] - hc, top[2] - hc, d3, 1)
    return tile(u - ha, v - ha, -ha, 1, d2)


@st.composite
def section_cases(draw):
    """A region and a canonical flat tile near one of its generators.

    The region is a random antichain, the roof of one to four pits, or a
    two-peak roof up to 30 apart."""
    kind = draw(st.sampled_from(["antichain", "pits", "wide"]))
    if kind == "wide":
        d = draw(st.integers(min_value=1, max_value=30))
        w = conj_roof_generators([(0, 0, 0), (d, -d, draw(st.integers(-1, 1)))])
    else:
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
        if kind == "pits":
            w = conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 3)))
        else:
            w = ConjUpSet(rand_antichain(rng, 4, rng.randint(1, 6)))
    u, v = project(draw(st.sampled_from(w.generators)))
    du, dv = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    return w, tile(u + du, v + dv, 0, 1, draw(st.sampled_from((2, 3))))


# One example per phase of the section: (0,0,0):12 over the octant, (0,0,0):23
# over the octant from (-1,0,0):12, and (1,1,0):31 over the hexagon pit.
@settings(deadline=None)
@given(section_cases(), st.integers(min_value=0, max_value=2), st.integers(min_value=-3, max_value=3))
@example((OCTANT0, tile(0, 0, 0, 1, 2)), 0, 0)
@example((OCTANT0, tile(-1, 0, 0, 1, 2)), 1, 2)
@example((ConjUpSet(HEX_GENS), tile(0, 0, 0, 1, 2)), 2, -1)
def test_section_at_against_oracles(case, shifts, k):
    # The flat is handed over in canonical form, or as one of its other
    # shift phases, slid along the diagonal by k.  Judged by the brute
    # section and by the three-height rule read with conj_height.
    w, flat = case
    t = flat
    for _ in range(shifts):
        t = sigma(t)
    b, d1, d2 = t
    t = (q_shift(b, k), d1, d2)
    assert flatten(t) == flat
    s = section_at(w, t)
    assert brute_section(w.generators, flat) == [s]
    assert s == _three_height_section(w, flat)


def test_empty_region_has_no_surface_tiles():
    # The lists of surface tiles are empty, as the norm is; only
    # section_at, whose answer would be one tile, raises.
    window = Window(-1, 1, -1, 1)
    assert surface_tiles(ConjUpSet(), window) == ()
    assert classify(ConjUpSet(), STD_ORIGIN, window) == Classification((), (), ())
    assert norm(ConjUpSet()) == ()
    with pytest.raises(GeometryError, match="^empty region has no height function$"):
        section_at(ConjUpSet(), tile(0, 0, 0, 1, 2))


def test_section_and_classify_work_counts(monkeypatch, hexcone):
    # Work counts, not timings: a classified window and the surface of a
    # window read one height table and take no public section, the In scan
    # takes one section per flat tile of the peaks' box padded by 8 when
    # their standard roof adds a corner (the hexagon pit) and none when it
    # adds none (the two-peak wide roof), and nothing on the section path reads
    # a height through conj_height, whose calls are counted in every
    # tritile namespace that binds it.
    heights = count_public_calls(monkeypatch, (cones.conj_height,))
    assert tritile.conj_height(hexcone, (0, 0, 0)) == -1
    assert heights["conj_height"] == 1  # the counter is live
    heights["conj_height"] = 0
    calls = count_public_calls(monkeypatch, (surface.section_at,))
    wide = conj_roof_generators([(0, 0, 0), (6, -6, 1)])
    for w in (hexcone, wide):
        window = padded_box(w.generators, 3)
        flats = list(flat_tiles_in(window))
        calls["section_at"] = 0
        for t in flats:
            surface.section_at(w, t)
        assert calls["section_at"] == len(flats)  # no nested sections
        calls["section_at"] = 0
        surface.classify(w, STD_ORIGIN, window)
        surface.surface_tiles(w, window)
        assert calls["section_at"] == 0
        scanned = len(list(flat_tiles_in(padded_box(w.generators, 8)))) if w is hexcone else 0
        calls["section_at"] = 0
        hits = surface.in_tiles_expanded(w)
        assert calls["section_at"] == scanned
        assert bool(hits) == (w is hexcone)
        calls["section_at"] = 0
        assert surface.norm(w) == tuple(map(flatten, hits))
        assert calls["section_at"] == scanned
    assert heights["conj_height"] == 0


def test_vector_field_examples(hexcone):
    # The induced vector field is the gradient of the section.
    assert gradient(section_at(hexcone, flatten(tile(1, 1, 0, 3, 1)))) == (1, 3)
    assert gradient(section_at(hexcone, flatten(tile(1, 0, 1, 2, 3)))) == (2, 3)


def test_vector_field_inverts_flatten_on_surface(hexcone):
    for s in HEX_TILES:
        assert gradient(section_at(hexcone, flatten(s))) == gradient(s)


def test_classify_reproduces_surface_decomposition(hexcone):
    cl = classify(hexcone, STD_ORIGIN, Window(-6, 6, -6, 6))
    assert set(cl.in_tiles) == set(HEX_TILES)
    assert cl.bd_tiles == ()
    assert len(cl.out_tiles) == 2 * 13 * 13 - 6


def test_classify_out_touching_tile(hexcone):
    # shares a single boundary vertex with the standard region: still Out
    cl = classify(hexcone, STD_ORIGIN, Window(-4, 4, -4, 4))
    assert tile(2, 1, 0, 3, 1) in cl.out_tiles


def test_classify_partitions_the_window(hexcone):
    window = Window(-3, 4, -5, 2)
    cl = classify(hexcone, STD_ORIGIN, window)
    buckets = (set(cl.in_tiles), set(cl.out_tiles), set(cl.bd_tiles))
    union = set().union(*buckets)
    assert union == set(surface_tiles(hexcone, window))
    assert sum(map(len, buckets)) == len(union)


def test_bd_witness():
    w1 = ConjUpSet(((0, 0, 0),))
    w2 = StdUpSet.from_qpoints([(1, 0, -1)])
    s = tile(1, 0, 0, 1, 2)
    assert on_surface(w1, s)
    assert _classify_tile(s, w2.dgens) == "bd"
    cl = classify(w1, w2, Window(-3, 3, -3, 3))
    assert s in cl.bd_tiles


def test_consistency_examples(hexcone):
    assert not classify(hexcone, STD_ORIGIN, Window(-6, 6, -6, 6)).bd_tiles
    assert not classify(hexcone, StdUpSet(), Window(-3, 3, -3, 3)).bd_tiles  # all Out


def _mixed_parity(dgens) -> bool:
    return any(len({c % 2 for c in g}) > 1 for g in dgens)


def test_classification_against_dense_sampling():
    # Std regions of three kinds: octants over q-points, roof closures of
    # q-points, and raw doubled triples of mixed parity (half-integer
    # l-corners).  Every verdict is judged by rational samples alone.
    rng = random.Random(12)
    regions = []
    for _ in range(12):
        regions.append(StdUpSet.from_qpoints(rand_antichain(rng, 2, rng.randint(1, 3))))
        regions.append(std_roof_generators(rand_antichain(rng, 2, rng.randint(2, 4))))
        regions.append(
            StdUpSet(tuple(tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(rng.randint(1, 3))))
        )
    checked = {"in": 0, "out": 0, "bd": 0}
    mixed = {"in": 0, "out": 0, "bd": 0}
    for w2 in regions:
        w1 = ConjUpSet(rand_antichain(rng, 2, rng.randint(1, 4)))
        for t in flat_tiles_in(padded_box(w1.generators, 2)):
            s = section_at(w1, t)
            verdict = _classify_tile(s, w2.dgens)
            samples = tile_samples(s, denom=8)
            if verdict == "in":
                assert all(sample_in_closed(w2.dgens, p) for p in samples)
            elif verdict == "out":
                assert not any(sample_in_open(w2.dgens, p) for p in samples)
            else:
                assert any(sample_in_open(w2.dgens, p) for p in samples)
                assert not all(sample_in_closed(w2.dgens, p) for p in samples)
            checked[verdict] += 1
            if _mixed_parity(w2.dgens):
                mixed[verdict] += 1
    assert min(checked.values()) > 0, f"oracle never exercised some bucket: {checked}"
    assert min(mixed.values()) > 0, f"mixed-parity regions missed some bucket: {mixed}"


def test_norm_of_single_peaks_is_empty():
    for g in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1)]:
        assert norm(conj_roof_generators([g])) == ()


def test_norm_of_hex_pit(hexcone):
    flats = norm(hexcone)
    assert flats == tuple(sorted(flatten(s) for s in HEX_TILES))


def test_the_box_of_no_points_is_empty(monkeypatch, hexcone):
    # No points, no added corner, no scan: the In scan of no points takes
    # no section on any region, and the roof of no peaks has an empty norm
    # instead of a height error.
    calls = count_public_calls(monkeypatch, (surface.section_at,))
    assert _in_set(hexcone, ()) == _in_set(ConjUpSet(), ()) == (StdUpSet(), ())
    assert in_tiles_expanded(ConjUpSet()) == ()
    assert norm(ConjUpSet()) == ()
    assert calls["section_at"] == 0


def test_in_scan_over_its_budget_raises_before_any_section(monkeypatch):
    # The hexagon pit plus a peak 10**6 away: the roof adds the pit corner,
    # so the shortcut does not apply, and the box has 1,000,035,000,306
    # cells.  The scan is refused before its first section.
    w = conj_roof_generators([*HEX_GENS, (10**6, -(10**6), 0)])
    calls = count_public_calls(monkeypatch, (surface.section_at,))
    with pytest.raises(ValueError, match=r"^In scan of 1000035000306 cells over 6 generators .* more than 2000000$"):
        in_tiles_expanded(w)
    with pytest.raises(ValueError, match="more than 2000000"):
        norm(w)
    assert calls["section_at"] == 0


def test_in_scan_budget_is_flats_times_generators(monkeypatch, hexcone):
    # The hexagon scans 722 flats, each reading its 3 generators and the
    # one corner of its standard roof, the pit: a scan of exactly the cap
    # runs.
    assert len(std_roof_generators(HEX_GENS).dgens) == 1
    units = 722 * 4
    monkeypatch.setattr(surface, "MAX_SCAN_UNITS", units)
    assert len(in_tiles_expanded(hexcone)) == 6
    monkeypatch.setattr(surface, "MAX_SCAN_UNITS", units - 1)
    with pytest.raises(ValueError, match=f"^In scan of 361 cells over 4 generators reads {units} "):
        in_tiles_expanded(hexcone)


def test_scan_counts_past_100_digits_are_written_as_digit_counts():
    for n in (0, 1, 722 * 4, 12000420003672, 10**99, 10**100 - 1):
        assert surface._count_text(n) == str(n)
    # Around the powers of ten where log10 may round, up to past the
    # 4,300 digits that Python would refuse to write.
    for k in (101, 102, 640, 4300, 4301, 6000):
        assert surface._count_text(10**k - 1) == f"a {k}-digit number of"
        assert surface._count_text(10**k) == surface._count_text(10**k + 1) == f"a {k + 1}-digit number of"
    assert surface._count_text(10**100) == "a 101-digit number of"


def test_norm_requires_roof():
    open_cone = ConjUpSet(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="^norm is defined for roof-closed regions only$"):
        norm(open_cone)


def test_no_new_corner_means_no_in_tile(monkeypatch):
    # When the standard roof of the points adds no corner to their
    # standard cone, the brute In set at pad 8 is empty.  The points are
    # roof generators, whose In scan returns () without a section, or
    # points of a cone one unit step or none above its generators, whose
    # In set the In scan finds empty without a section and `classify`
    # reads over the box of the points.  Every pit
    # cluster, the hexagon included, adds its pit corner, so its scan is
    # kept.
    def adds_corner(points):
        return std_roof_generators(points) != StdUpSet.from_qpoints(points)

    assert adds_corner(HEX_GENS)
    rng = random.Random(25)
    for _ in range(12):
        gens = rand_pit_gens(rng, rng.randint(0, 2))
        assert adds_corner(gens) and adds_corner(conj_roof_generators(gens).generators), gens
    units = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    calls = count_public_calls(monkeypatch, (surface.section_at,))
    shortcuts = {"roof": 0, "cone": 0}
    for i in range(10):
        if i % 2:
            w = ConjUpSet(rand_antichain(rng, 2, rng.randint(2, 5)))
            points = []
            for _ in range(rng.randint(2, 5)):
                g, e = rng.choice(w.generators), rng.choice(units)
                points.append((g[0] + e[0], g[1] + e[1], g[2] + e[2]))
            kind = "cone"
        else:
            w = conj_roof_generators(rand_antichain(rng, 2, rng.randint(2, 4)))
            points, kind = w.generators, "roof"
        if adds_corner(points):
            continue
        if kind == "roof":
            assert in_tiles_expanded(w) == () and calls["section_at"] == 0
        else:
            assert classify(w, std_roof_generators(points), padded_box(points, 8)).in_tiles == ()
            assert _in_set(w, points) == (std_roof_generators(points), ()) and calls["section_at"] == 0
        assert brute_in_tiles(w, points, padded_box(points, 8)) == [], points
        shortcuts[kind] += 1
    assert shortcuts["roof"] >= 4 and shortcuts["cone"] >= 4, shortcuts


def test_in_verdict_reads_only_the_added_corners():
    # The In scan classifies against the corners the standard roof adds
    # to the standard cone of the generators, not against every roof
    # corner: by the lemma of the surface.py docstring, a corner whose
    # closed l-octant holds a half square of a surface tile is never a
    # point of the generators.  Judged on every section over the padded
    # box, read from the height table and not from the scan, whose
    # answer must then be the In list they give; its no-corner shortcut
    # is "no added corner".  The roofs are
    # pit clusters, pit clusters with random peaks, two pits 5 to 60
    # apart, random antichains (some add no corner) and one roof of 20
    # plane peaks.
    rng = random.Random(37)
    roofs = [conj_roof_generators(plane_peaks(20, 3, 12))]
    for _ in range(10):
        roofs.append(conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 3))))
        extra = rand_antichain(rng, 3, rng.randint(1, 4))
        roofs.append(conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 2)) + list(extra)))
        d = rng.randint(5, 60)
        far = (d, rng.randint(-d, d), rng.randint(-2, 2))
        roofs.append(conj_roof_generators(pit((0, 0, 0)) + pit(far)))
        roofs.append(conj_roof_generators(rand_antichain(rng, rng.choice((2, 3, 4)), rng.randint(1, 5))))
    seen = {"shortcut": 0, "in": 0, "dropped": 0}
    for w in roofs:
        roof = std_roof_generators(w.generators)
        cone = StdUpSet.from_qpoints(w.generators)
        added = [g for g in roof.dgens if g not in cone.dgens]
        assert (not added) == (roof == cone), w.generators
        if not added:
            assert in_tiles_expanded(w) == ()
            seen["shortcut"] += 1
            continue
        hits = []
        for s in surface_tiles(w, padded_box(w.generators, 8)):
            verdict = _classify_tile(s, roof.dgens)
            assert (_classify_tile(s, added) == "in") == (verdict == "in"), (w.generators, s)
            if verdict == "in":
                hits.append(s)
        assert in_tiles_expanded(w) == tuple(hits)
        seen["in"] += len(hits)
        seen["dropped"] += len(roof.dgens) - len(added)
    assert seen["shortcut"] >= 3 and seen["in"] >= 1000 and seen["dropped"] >= 40, seen


def test_in_tiles_lie_in_the_box_of_their_points():
    # The In-tiles against the roof of points P lying in w project into
    # the plane box of P, so one scan of that box finds them all.  P is
    # the generators of a roof, read by the In scan, or points of a cone
    # one unit step or none above its generators, read by the In scan as
    # `closed_trajectory_roofs` reads a walk's bases and by `classify`
    # over the same box.
    rng = random.Random(23)
    units = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cases = []
    for i in range(6):
        gens = rand_antichain(rng, 2, rng.randint(2, 4)) if i % 2 else rand_pit_gens(rng, rng.randint(0, 1))
        w = conj_roof_generators(gens)
        cases.append(("roof", w, w.generators))
    for _ in range(10):
        w = ConjUpSet(rand_antichain(rng, 2, rng.randint(2, 5)))
        points = []
        for _ in range(rng.randint(2, 5)):
            g, e = rng.choice(w.generators), rng.choice(units)
            points.append((g[0] + e[0], g[1] + e[1], g[2] + e[2]))
        cases.append(("cone", w, points))
    nonempty = {"roof": 0, "cone": 0}
    for kind, w, points in cases:
        box = padded_box(points, 0)
        hits = brute_in_tiles(w, points, padded_box(points, 6))
        for s in hits:
            for x in vertices(s):
                u, v = project(x)
                assert box.u_min <= u <= box.u_max and box.v_min <= v <= box.v_max, (points, s)
        if kind == "roof":
            assert in_tiles_expanded(w) == tuple(hits)
        else:
            assert classify(w, std_roof_generators(points), padded_box(points, 8)).in_tiles == tuple(hits)
            assert _in_set(w, points) == (std_roof_generators(points), tuple(hits))
        nonempty[kind] += bool(hits)
    assert nonempty["roof"] >= 3 and nonempty["cone"] >= 2, nonempty


def test_every_in_piece_holds_a_tile_near_an_added_corner():
    # Evidence, not a proof, for seeding a flood of the In set at the
    # corners the standard roof adds: every piece of the In set holds a
    # tile whose flat base cell lies within 2 cells (Chebyshev) of the
    # projection of an added corner.  The roofs are pit clusters, random
    # antichains and two pits 5 to 60 apart, and on them the nearest such
    # tile is never more than 1 cell away.
    rng = random.Random(2026)
    roofs = []
    for _ in range(40):
        roofs.append(conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 3))))
        roofs.append(conj_roof_generators(rand_antichain(rng, rng.choice((2, 3, 4)), rng.randint(2, 6))))
        d = rng.randint(5, 60)
        far = (d, rng.randint(-d, d), rng.randint(-2, 2))
        roofs.append(conj_roof_generators(pit((0, 0, 0)) + pit(far)))
    pieces = []
    for w in roofs:
        added, _ = added_corners_two_ways(w.generators)
        reach = piece_reach(in_tiles_expanded(w), added)
        assert all(r <= 2 * 2 for r in reach), (w.generators, reach)
        pieces.append(len(reach))
    assert sum(n > 0 for n in pieces) >= 80 and sum(n > 1 for n in pieces) >= 5, pieces


def test_surface_tiles_deterministic(hexcone):
    window = Window(-2, 2, -2, 2)
    once = surface_tiles(hexcone, window)
    again = surface_tiles(hexcone, window)
    assert once == again
    assert len(once) == 2 * 5 * 5


def test_surface_tiles_against_brute_sections():
    # The height-table scan behind surface_tiles and classify, judged flat
    # by flat by the brute section: on windows across the generators, on
    # far windows where every height is very negative, and on one-cell and
    # one-row windows.  Every phase of the section turns up over [1 2] and
    # over [1 3].
    rng = random.Random(29)
    phases = set()
    for i in range(12):
        if i % 3 == 0:
            w = ConjUpSet(rand_antichain(rng, 3, rng.randint(1, 5)))
        elif i % 3 == 1:
            w = conj_roof_generators(rand_antichain(rng, 3, rng.randint(2, 5)))
        else:
            w = conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 2)))
        box = padded_box(w.generators, 1)
        u, v = rng.randint(box.u_min, box.u_max), rng.randint(box.v_min, box.v_max)
        du, dv = rng.choice(((-30, -30), (30, -30), (-30, 30)))
        windows = {
            "across": box,
            "far": Window(u + du, u + du + 2, v + dv, v + dv + 1),
            "cell": Window(u, u, v, v),
            "u-row": Window(box.u_min, box.u_max, v, v),
            "v-row": Window(u, u, box.v_min, box.v_max),
        }
        for kind, window in windows.items():
            expected = []
            for t in flat_tiles_in(window):
                [s] = brute_section(w.generators, t)
                expected.append(s)
            assert surface_tiles(w, window) == tuple(expected), (kind, w, window)
            if kind == "far":
                # The greatest height the table reads, heights being monotone.
                assert conj_height(w, (window.u_max + 1, window.v_max + 1, 0)) < -20
            phases.update((d1, d2) for _, d1, d2 in expected)
    assert phases == {(1, 2), (1, 3), (2, 3), (3, 2), (3, 1), (2, 1)}


def test_long_windows_match_the_per_flat_kernel():
    # Windows more than 512 cells long, along v and along u, longer than
    # the CLI's side cap allows, across the generators: each section equals
    # the per-flat kernel's, which the brute section judges above.
    rng = random.Random(31)
    span = 512
    for gens in (rand_antichain(rng, 4, 6), tuple(rand_pit_gens(rng, 2))):
        w = conj_roof_generators(gens)
        for window in (Window(0, 1, -span, span + 3), Window(-span, span + 3, 0, 0), Window(-span, span, -1, 1)):
            expected = tuple(section_at(w, t) for t in flat_tiles_in(window))
            assert surface_tiles(w, window) == expected, (gens, window)


def test_empty_windows_hold_no_sections(hexcone):
    # A window without a flat reads no height, so no region gives tiles
    # over it; over a window of one flat the empty region gives none either.
    for window in (Window(0, -1, 0, -1), Window(3, 2, 0, 5), Window(0, 5, 1, 0)):
        for w in (ConjUpSet(), hexcone):
            assert surface_tiles(w, window) == ()
            assert classify(w, STD_ORIGIN, window) == Classification((), (), ())
    assert surface_tiles(ConjUpSet(), Window(0, 0, 0, 0)) == ()
    assert len(surface_tiles(hexcone, Window(0, 0, 0, 0))) == 2


def _is_flat_sorted(tiles) -> bool:
    return list(tiles) == sorted(tiles, key=flatten)


def test_outputs_come_in_canonical_flat_order():
    # Nothing re-sorts these: the window is enumerated in flat order and a
    # section flattens back to its flat.
    rng = random.Random(17)
    for _ in range(25):
        w = ConjUpSet(rand_antichain(rng, 4, rng.randint(1, 5)))
        u0, v0 = rng.randint(-6, 2), rng.randint(-6, 2)
        window = Window(u0, u0 + rng.randint(0, 6), v0, v0 + rng.randint(0, 6))
        tiles = surface_tiles(w, window)
        assert _is_flat_sorted(tiles)
        assert [flatten(s) for s in tiles] == list(flat_tiles_in(window))
        std = std_roof_generators(rand_antichain(rng, 3, rng.randint(1, 4)))
        cl = classify(w, std, window)
        for bucket in (cl.in_tiles, cl.out_tiles, cl.bd_tiles):
            assert _is_flat_sorted(bucket)
        assert sorted(cl.in_tiles + cl.out_tiles + cl.bd_tiles, key=flatten) == list(tiles)
    nonempty = 0
    for _ in range(25):
        gens = rand_antichain(rng, 3, rng.randint(2, 5)) + tuple(rand_pit_gens(rng, rng.randint(0, 2)))
        w = conj_roof_generators(gens)
        assert _is_flat_sorted(in_tiles_expanded(w))
        flats = norm(w)
        assert list(flats) == sorted(flats, key=flatten) == sorted(flats)
        nonempty += bool(flats)
    assert nonempty >= 5
