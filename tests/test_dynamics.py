import random
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    AXIS_PERMUTATIONS,
    DECODE_DUDUDD,
    HEX_WALK,
    box_roof_classes,
    brute_boundary,
    brute_closed_orbits,
    brute_in_tiles,
    brute_section,
    brute_std_roof_member,
    brute_successors,
    count_public_calls,
    flat_tiles_in,
    padded_box,
    permute_point,
    permute_region,
    permute_tile,
    pit,
    rand_antichain,
    rand_pit_gens,
    record_public_calls,
    reference_chart_cover,
    reference_trajectory_roofs,
    sample_in_closed,
    tile_samples,
    translate_region,
    translate_tile,
)
from tritile import (
    conj_contains,
    ConjUpSet,
    GeometryError,
    Trajectory,
    chart_cover,
    closed_trajectories_of_roof,
    closed_trajectory_roofs,
    decode,
    encode,
    flatten,
    gradient,
    inverse_embed,
    norm,
    on_surface,
    parse_tile,
    section_at,
    std_contains,
    step,
    trace,
)
from tritile import dynamics, surface
from tritile.cones import StdUpSet, conj_roof_generators, is_roof, std_roof_generators
from tritile.surface import Window, in_tiles_expanded
from tritile.tiles import Port, port_candidates, tile, tile_text, tile_texts, vertices

HEX_TILES = tuple(parse_tile(t) for t in HEX_WALK)
OCTANT = ConjUpSet(((0, 0, 0),))


def assert_valid_trajectory(traj: Trajectory):
    """Check port adjacency and port/gradient alternation along the walk."""
    port = Port.UP
    seq = list(traj.tiles) + ([traj.tiles[0]] if traj.closed else [])
    for prev, cur in zip(seq, seq[1:]):
        flip, keep = port_candidates(prev, port)
        assert cur in (flip, keep)
        if cur == flip:
            assert gradient(cur) != gradient(prev)
            port = port.other
        else:
            assert gradient(cur) == gradient(prev)
    if traj.closed:
        assert len(set(traj.tiles)) == len(traj.tiles)


def test_step_walks_the_hexagon(hexcone):
    assert step(hexcone, tile(1, 1, 0, 3, 1), Port.UP) == (tile(1, 0, 1, 2, 1), Port.DOWN)
    assert step(hexcone, tile(1, 0, 1, 2, 1), Port.DOWN) == (tile(1, 0, 1, 2, 3), Port.UP)


def test_step_on_straight_slope():
    nxt, port = step(OCTANT, tile(1, 0, 0, 1, 2), Port.UP)
    assert nxt == tile(2, 0, 0, 2, 1)
    assert port == Port.UP  # gradient kept
    assert on_surface(OCTANT, nxt)


def test_step_asks_about_flip_only_when_keep_is_off(monkeypatch, hexcone):
    # At most one candidate is on the surface, so a kept gradient needs
    # one surface check and a flip needs two.
    calls = count_public_calls(monkeypatch, (on_surface,))
    assert step(OCTANT, tile(1, 0, 0, 1, 2), Port.UP)[1] is Port.UP
    assert calls["on_surface"] == 1
    assert step(hexcone, tile(1, 1, 0, 3, 1), Port.UP)[1] is Port.DOWN
    assert calls["on_surface"] == 3


def test_step_off_surface_dead_ends():
    with pytest.raises(GeometryError, match="^no candidate on surface at 0,0,5:12/UP$"):
        step(OCTANT, tile(0, 0, 5, 1, 2), Port.UP)


def test_failed_step_carries_its_replay(hexcone):
    s = tile(2, 2, 2, 3, 1)
    with pytest.raises(GeometryError) as first:
        step(hexcone, s, Port.DOWN)
    err = first.value
    assert (err.tile, err.port, err.peaks) == (s, Port.DOWN, hexcone.generators)
    with pytest.raises(GeometryError) as replay:
        step(ConjUpSet(err.peaks), err.tile, err.port)
    assert str(replay.value) == str(err) == "no candidate on surface at 2,2,2:31/DOWN"


def test_trace_hexagon_golden(hexcone):
    traj = trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=50)
    assert traj.closed
    assert traj.tiles == HEX_TILES
    assert_valid_trajectory(traj)


def test_trace_straight_strip_truncates():
    traj = trace(OCTANT, tile(1, 0, 0, 1, 2), max_steps=20)
    assert not traj.closed
    assert len(traj) == 20
    assert_valid_trajectory(traj)


def test_trace_max_steps_is_a_tile_budget(hexcone):
    assert trace(OCTANT, tile(1, 0, 0, 1, 2), max_steps=1).tiles == (tile(1, 0, 0, 1, 2),)
    assert not trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=5).closed
    assert trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=6).closed
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"^max_steps is a tile budget and must be at least 1, got {bad}$"):
            trace(OCTANT, tile(1, 0, 0, 1, 2), max_steps=bad)


def test_trace_rejects_bad_start(hexcone):
    with pytest.raises(GeometryError, match="^0,0,0:12 is not on the surface$"):
        trace(hexcone, tile(0, 0, 0, 1, 2))


def test_off_surface_start_carries_its_replay(hexcone):
    # The empty region has no surface, so every start fails this check.
    s = tile(0, 0, 0, 1, 2)
    for w in (hexcone, ConjUpSet()):
        with pytest.raises(GeometryError) as first:
            trace(w, s)
        err = first.value
        assert (err.tile, err.port, err.peaks) == (s, None, w.generators)
        with pytest.raises(GeometryError) as replay:
            trace(ConjUpSet(err.peaks), err.tile)
        assert str(replay.value) == str(err) == "0,0,0:12 is not on the surface"


def test_trace_reverse_direction(hexcone):
    fwd = trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=50)
    # Leaving the start through its DOWN port walks the same orbit backwards.
    rev, port = [fwd.tiles[0]], Port.DOWN
    while len(rev) <= 50:
        nxt, port = step(hexcone, rev[-1], port)
        if nxt == rev[0]:
            break
        rev.append(nxt)
    assert tuple(rev) == (fwd.tiles[0],) + tuple(reversed(fwd.tiles[1:]))


def test_encode_hexagon(hexcone):
    traj = trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=50)
    assert encode(traj) == "DUDUDU"
    assert decode("UDUDUD", traj.tiles[0]) == list(traj.tiles)


def test_encode_constant_on_gradient_preserving_walk():
    traj = trace(OCTANT, tile(1, 0, 0, 1, 2), max_steps=12)
    assert encode(traj) == "D" * 12


def test_encode_validates_input():
    with pytest.raises(ValueError, match="^cannot encode an empty trajectory$"):
        encode(Trajectory((), False))


def test_decode_goldens():
    got = decode("DUDUDD", tile(1, 1, 0, 3, 1))
    assert tuple(tile_texts(got)) == DECODE_DUDUDD
    assert decode("DUDUDU", tile(1, 1, 0, 3, 1)) == list(HEX_TILES)
    assert decode("D", tile(1, 1, 0, 3, 1)) == [tile(1, 1, 0, 3, 1)]


def test_decode_validates_alphabet():
    with pytest.raises(ValueError, match="^code must be over U/D, got 'DUX'$"):
        decode("DUX", tile(1, 1, 0, 3, 1))
    with pytest.raises(ValueError, match="^cannot decode an empty code$"):
        decode("", tile(1, 1, 0, 3, 1))


def test_codec_round_trip_random():
    rng = random.Random(21)
    for _ in range(120):
        code = "".join(rng.choice("UD") for _ in range(rng.randint(1, 24)))
        start = (
            (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)),
            *rng.choice([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]),
        )
        tiles = decode(code, start)
        complement = code.translate(str.maketrans("UD", "DU"))
        assert decode(complement, start) == tiles
        assert encode(Trajectory(tuple(tiles), False)) == (code if code[0] == "D" else complement)


def test_closed_code_rotates_with_start(hexcone):
    base = trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=50)
    code = encode(base)
    for k, s in enumerate(base.tiles):
        rotated = trace(hexcone, s, max_steps=50)
        rcode = encode(rotated)
        shifted = code[k:] + code[:k]
        assert rcode in (shifted, shifted.translate(str.maketrans("UD", "DU")))


def test_chart_cover_goldens(hexcone):
    two = chart_cover(decode("DUDUDD", tile(1, 1, 0, 3, 1)))
    assert [(c.start, c.stop) for c in two] == [(0, 4), (1, 5)]
    assert two[0].cone == hexcone
    assert two[1].cone == ConjUpSet(((0, 1, 1), (1, 0, 1)))

    one = chart_cover(list(HEX_TILES))
    assert [(c.start, c.stop) for c in one] == [(0, 5)]
    assert one[0].cone == hexcone

    single = chart_cover([tile(3, -1, 2, 2, 3)])
    assert single[0].cone == ConjUpSet(((3, -1, 2),))

    assert chart_cover([]) == []


def test_chart_cover_is_sound_on_random_codes():
    rng = random.Random(22)
    for _ in range(40):
        code = "".join(rng.choice("UD") for _ in range(rng.randint(1, 18)))
        tiles = decode(code, tile(0, 0, 0, 1, 2))
        charts = chart_cover(tiles)
        assert charts[0].start == 0 and charts[-1].stop == len(tiles) - 1
        for prev, cur in zip(charts, charts[1:]):
            assert cur.start <= prev.stop  # overlap
            assert cur.stop > prev.stop
        for c in charts:
            for s in tiles[c.start : c.stop + 1]:
                assert on_surface(c.cone, s)


coords = st.integers(min_value=-5, max_value=5)
dirpairs = st.sampled_from([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b])
starts = st.builds(lambda q1, q2, q3, d: ((q1, q2, q3), *d), coords, coords, coords, dirpairs)


def assert_cover_matches_reference(monkeypatch, tiles):
    calls = record_public_calls(monkeypatch, on_surface)
    charts = chart_cover(tiles)
    checks = calls[:]
    del calls[:]
    expected = reference_chart_cover(tiles)
    assert charts == expected  # cone generators, start and stop
    assert checks == calls  # (cone, tile) of every on_surface call, in order
    monkeypatch.undo()


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="UD", min_size=1, max_size=200), starts)
def test_chart_cover_matches_reference_on_decoded_codes(code, start):
    with pytest.MonkeyPatch.context() as mp:
        assert_cover_matches_reference(mp, decode(code, start))


@settings(max_examples=15, deadline=None)
@given(starts, st.integers(min_value=1, max_value=120))
def test_chart_cover_matches_reference_on_octant_walks(start, length):
    # A walk on one octant is a single long chart: the cover's worst case.
    octant = ConjUpSet((start[0],))
    traj = trace(octant, start, max_steps=length)
    with pytest.MonkeyPatch.context() as mp:
        assert_cover_matches_reference(mp, list(traj.tiles))


def test_chart_cover_matches_reference_on_long_walks(monkeypatch):
    rng = random.Random(7)
    walks = [trace(OCTANT, tile(0, 0, 0, 1, 2), max_steps=200).tiles]
    for _ in range(3):
        code = "D" + "".join(rng.choice("UD") for _ in range(199))
        walks.append(decode(code, tile(0, 0, 0, 1, 2)))
    for tiles in walks:
        assert len(tiles) == 200
        assert_cover_matches_reference(monkeypatch, list(tiles))


def test_chart_cover_charges_tiles_times_generators(monkeypatch):
    # One chart of one generator: extensions check segments of 2..40
    # tiles, and the confirm pass the 40 tiles once more.
    tiles = decode("D" * 40, tile(0, 0, 0, 1, 2))
    units = sum(range(2, 41)) + 40
    monkeypatch.setattr(dynamics, "MAX_COVER_UNITS", units)
    assert [(len(c.cone.generators), c.start, c.stop) for c in chart_cover(tiles)] == [(1, 0, 39)]
    monkeypatch.setattr(dynamics, "MAX_COVER_UNITS", units - 1)
    with pytest.raises(ValueError, match=f"of 40 tiles reads more than {units - 1} tile-generator pairs"):
        chart_cover(tiles)


def test_chart_fit_rule():
    # The rule a linear chart cover rests on: a segment of a walk fits the
    # cone of its own bases iff no base of it lies at or below ``b - e_k``
    # of any of its tiles, ``b`` the tile's base and ``k`` its third axis.
    # Fitting is then closed under prefixes and suffixes, and every chart
    # of ``chart_cover`` obeys the rule.  The oracle asks every vertex of
    # every tile to be a boundary point of the cone of the bases.
    def oracle(seg):
        bases = {b for b, _, _ in seg}
        return all(brute_boundary(bases, x) for x in {x for t in seg for x in vertices(t)})

    def rule(seg):
        lows = [tuple(x - (i == 5 - d1 - d2) for i, x in enumerate(b)) for b, d1, d2 in seg]
        return not any(a <= x and b <= y and c <= z for (a, b, c), _, _ in seg for x, y, z in lows)

    rng = random.Random(33)
    pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    walks = [decode("DUDUDD", tile(1, 1, 0, 3, 1)), list(HEX_TILES)]
    for _ in range(40):
        code = "".join(rng.choice("UD") for _ in range(rng.randint(1, 30)))
        start = (tuple(rng.randint(-5, 5) for _ in range(3)), *rng.choice(pairs))
        walks.append(decode(code, start))
    walks.append(list(trace(OCTANT, tile(0, 0, 0, 1, 2), max_steps=60).tiles))
    verdicts = Counter()
    for tiles in walks:
        n = len(tiles)
        fits = {(i, j): oracle(tiles[i : j + 1]) for i in range(n) for j in range(i, n)}
        for (i, j), ok in fits.items():
            assert rule(tiles[i : j + 1]) == ok, (tiles, i, j)
            assert not ok or all(fits[i, m] and fits[m, j] for m in range(i, j + 1)), (tiles, i, j)
            verdicts[ok] += 1
        for c in chart_cover(tiles):
            assert rule(tiles[c.start : c.stop + 1]), (tiles, c)
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts


def test_closed_trajectory_roofs_hexagon(hexcone):
    traj = trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=50)
    w1, w2 = closed_trajectory_roofs(hexcone, traj)
    assert w1.qpoints() == ((0, 0, 0),)
    assert w2 == StdUpSet()


def test_closed_trajectory_roofs_with_a_residue(monkeypatch):
    # In1 holds ten tiles off the walk here, so the second roof is not
    # empty.  The oracle finds both In-sets from the brute section and
    # sampled roof membership over a window padded past the box bound.
    # Each roof is closed once and scanned as built.
    w = conj_roof_generators([(-3, 2, 0), (1, -3, 2), (1, -2, -1), (1, 1, -3)])
    traj = trace(w, parse_tile("1,1,1:23"), max_steps=100)
    assert traj.closed and len(traj) == 22
    calls = count_public_calls(monkeypatch, (std_roof_generators,))
    w1, w2 = closed_trajectory_roofs(w, traj)
    assert calls["std_roof_generators"] == 2
    assert (w1.dgens, w2.dgens) == (((-3, -3, 1),), ((-2, -2, 2),))
    bases = sorted({s[0] for s in traj.tiles})
    in1 = brute_in_tiles(w, bases, padded_box(bases, 4))
    assert len(in1) == 32
    residue = sorted({s[0] for s in in1 if s not in traj.tiles})
    in2 = brute_in_tiles(w, residue, padded_box(bases, 4))
    assert set(in1) - set(in2) == set(traj.tiles)
    for roof, points in ((w1, bases), (w2, residue)):
        for q in product(range(-4, 5), repeat=3):
            assert std_contains(roof, q) == brute_std_roof_member(points, q), (roof, q)


def test_closed_trajectory_roofs_reports_a_mismatch(monkeypatch, hexcone):
    # A first scan that misses one tile of the walk cannot carve it out.
    traj = trace(hexcone, HEX_TILES[0])
    real_in_set = dynamics._in_set
    scans = []

    def first_scan_drops_a_tile(w, points):
        roof, in_tiles = real_in_set(w, points)
        scans.append(points)
        if len(scans) > 1:
            return roof, in_tiles
        return roof, tuple(s for s in in_tiles if s != traj.tiles[0])

    monkeypatch.setattr(dynamics, "_in_set", first_scan_drops_a_tile)
    msg = r"^reconstruction mismatch: \|In1\|=5, \|In2\|=0, trajectory length 6$"
    with pytest.raises(GeometryError, match=msg):
        closed_trajectory_roofs(hexcone, traj)
    assert len(scans) == 2


def test_closed_trajectory_roofs_has_the_in_scan_budget(monkeypatch, hexcone):
    # The hexagon walk's bases are the hexagon's generators, so its first
    # scan is charged what the hexagon's norm is: 722 flats times 3
    # generators and the 1 roof corner.  One pair less is refused before
    # any section, with the In scan's message.
    traj = trace(hexcone, HEX_TILES[0])
    calls = count_public_calls(monkeypatch, (section_at,))
    monkeypatch.setattr(surface, "MAX_SCAN_UNITS", 722 * 4 - 1)
    msg = r"^In scan of 361 cells over 4 generators reads 2888 flat-generator pairs, more than 2887$"
    with pytest.raises(ValueError, match=msg):
        closed_trajectory_roofs(hexcone, traj)
    assert calls["section_at"] == 0
    monkeypatch.setattr(surface, "MAX_SCAN_UNITS", 722 * 4)
    assert closed_trajectory_roofs(hexcone, traj)[1] == StdUpSet()
    assert calls["section_at"] == 722


def test_an_empty_residue_takes_no_section(monkeypatch, hexcone):
    # The hexagon walk is its whole In set, so the residue has no base,
    # the second roof adds no corner and its scan takes no section.
    traj = trace(hexcone, HEX_TILES[0])
    calls = count_public_calls(monkeypatch, (section_at,))
    real_in_set = dynamics._in_set
    scans = []

    def counted(w, points):
        before = calls["section_at"]
        out = real_in_set(w, points)
        scans.append((len(points), calls["section_at"] - before))
        return out

    monkeypatch.setattr(dynamics, "_in_set", counted)
    assert closed_trajectory_roofs(hexcone, traj)[1] == StdUpSet()
    assert scans == [(3, 722), (0, 0)]


def test_closed_trajectory_roofs_requires_closed(hexcone):
    open_traj = trace(OCTANT, tile(1, 0, 0, 1, 2), max_steps=5)
    with pytest.raises(ValueError, match="^roof reconstruction needs a closed trajectory$"):
        closed_trajectory_roofs(OCTANT, open_traj)


def test_closed_trajectory_roofs_on_random_pits():
    # 22 draws reach the target on this seed; the bound makes a fault that
    # empties the norms fail here instead of drawing for ever.  Each
    # answer is that of the reconstruction as first written.
    rng = random.Random(23)
    done = 0
    for _ in range(100):
        w = conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 2)))
        for t in norm(w)[:1]:
            traj = trace(w, section_at(w, t), max_steps=300)
            if traj.closed:
                rebuilt = closed_trajectory_roofs(w, traj)  # raises on violation
                assert rebuilt == reference_trajectory_roofs(w, traj), w
                done += 1
        if done == 12:
            break
    assert done == 12


def test_first_chart_of_closed_walk_sits_inside_its_cone():
    # 28 draws reach the target on this seed; bounded as above.
    rng = random.Random(25)
    done = 0
    for _ in range(100):
        w = conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 2)))
        flats = norm(w)
        if not flats:
            continue
        traj = trace(w, section_at(w, flats[0]), max_steps=300)
        if not traj.closed:
            continue
        first = chart_cover(list(traj.tiles))[0]
        for g in first.cone.generators:
            assert conj_contains(w, g)
        done += 1
        if done == 10:
            break
    assert done == 10


def test_a_traced_walk_is_one_chart():
    # The dynamics.py docstring proves it: every tile of a walk traced on
    # w has its base in w and base - e_d3 outside w, so the cone of the
    # walk's bases carries every tile, and the cover finds no break.  The
    # regions are roofs and cones of 1 to 6 random points in [-4, 4]^3
    # and pit-cluster roofs; each gives three walks with budgets 1, 2 to
    # 299 and 300, the last from its first norm flat where it has one.
    rng = random.Random(43)
    regions = []
    for i in range(30):
        pts = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(rng.randint(1, 6))]
        regions.append(conj_roof_generators(pts) if i % 2 else ConjUpSet(pts))
        regions.append(conj_roof_generators(rand_pit_gens(rng, i % 3)))
    walks = Counter()
    for w in regions:
        flats = list(flat_tiles_in(padded_box(w.generators, 1)))
        core = norm(w) if is_roof(w) else ()
        starts = (rng.choice(flats), rng.choice(flats), core[0] if core else rng.choice(flats))
        for budget, t in zip((1, rng.randint(2, 299), 300), starts):
            walk = trace(w, section_at(w, t), max_steps=budget)
            tiles = list(walk.tiles)
            cone = ConjUpSet(tuple(s[0] for s in tiles))
            assert chart_cover(tiles) == [dynamics.Chart(cone, 0, len(tiles) - 1)], (w, tiles[0], budget)
            walks["closed" if walk.closed else "open"] += 1
    assert walks["closed"] >= 10 and walks["open"] >= 100, walks


def test_closed_trajectories_of_roof(hexcone):
    trajs = closed_trajectories_of_roof(hexcone)
    assert [(len(t), t.closed) for t in trajs] == [(6, True)]
    assert {flatten(s) for s in trajs[0].tiles} == set(norm(hexcone))
    assert closed_trajectories_of_roof(OCTANT) == []
    assert closed_trajectories_of_roof(ConjUpSet()) == []


def test_norm_partition_violation_is_reported():
    # this roof's norm holds a walk that does not close within as many
    # tiles as the norm has; it must not pass silently
    w = ConjUpSet(((-3, -2, 0), (0, -3, -2), (2, 1, -3)))
    msg = "^walk from -1,0,0:12 does not close inside the norm$"
    with pytest.raises(GeometryError, match=msg) as info:
        closed_trajectories_of_roof(w)
    err = info.value
    assert (err.tile, err.port, err.peaks) == (tile(-1, 0, 0, 1, 2), None, w.generators)
    # The walk from the error's tile on the error's region is the one.
    assert not trace(ConjUpSet(err.peaks), err.tile, max_steps=len(norm(w))).closed


def test_norm_escape_is_reported(monkeypatch, hexcone):
    # Five of the hexagon's six norm flats and one flat far away: the
    # six-tile orbit closes within the budget of six tiles, but through the
    # flat left out, so it closes yet not inside the norm.
    flats = norm(hexcone)
    patched = flats[1:] + (tile(9, 9, 0, 1, 2),)
    monkeypatch.setattr(dynamics, "norm", lambda w: patched)
    start = section_at(hexcone, flats[1])
    walk = trace(hexcone, start, max_steps=len(patched))
    assert walk.closed and flats[0] in {flatten(s) for s in walk.tiles}
    with pytest.raises(GeometryError, match=f"^walk from {tile_text(start)} does not close inside the norm$") as info:
        closed_trajectories_of_roof(hexcone)
    err = info.value
    assert (err.tile, err.port, err.peaks) == (start, None, hexcone.generators)


def test_norm_orbits_start_at_the_least_uncovered_flat(monkeypatch):
    # Two pits far apart, each with its own six-flat norm; their flats
    # interleave in flat order, so the second orbit starts past flats the
    # first one covered.  Each orbit starts at the least flat not covered
    # by the orbits before it.
    pits = ((0, 0, 0), (-4, 2, -4))
    own = [set(norm(ConjUpSet(tuple(pit(c))))) for c in pits]
    flats = tuple(sorted(own[0] | own[1]))
    assert "".join("ab"[t in own[1]] for t in flats) == "aaabbbaaabbb"
    monkeypatch.setattr(dynamics, "norm", lambda w: flats)
    trajs = closed_trajectories_of_roof(ConjUpSet(tuple(pit(pits[0]) + pit(pits[1]))))
    uncovered = set(flats)
    for traj in trajs:
        assert traj.closed and flatten(traj.tiles[0]) == min(uncovered)
        uncovered -= {flatten(s) for s in traj.tiles}
    assert [len(t) for t in trajs] == [6, 6] and not uncovered


def _cone_in_flats(w: ConjUpSet, flats) -> set:
    """The flats whose brute section is In against the standard cone of
    the peaks: every sample lies in a closed l-octant of some peak."""
    dpeaks = [inverse_embed(g) for g in w.generators]
    hits = set()
    for t in flats:
        (s,) = brute_section(w.generators, t)
        if all(sample_in_closed(dpeaks, p) for p in tile_samples(s, 4)):
            hits.add(t)
    return hits


def _seeded_roofs():
    """150 seeded roofs, random antichains and pit clusters in turn."""
    rng = random.Random(42)
    for i in range(150):
        if i % 2 == 0:
            gens = rand_antichain(rng, 3, rng.randint(2, 5))
        else:
            gens = rand_pit_gens(rng, rng.randint(0, 2))
        yield conj_roof_generators(gens)


def test_norm_contains_closed_walks():
    # The norm is sandwiched: In against the standard cone of the peaks,
    # then the closed walks that stay inside the norm, then the norm
    # itself.  The lower bound is empty on every roof: a surface tile
    # meets the l-octant of a peak, which lies in the peak's q-octant,
    # only on three rays (the lemma in the surface.py docstring).  Both
    # gaps occur, so the norm is more than its closed-walk content: the
    # rest is a residue that does not close inside the norm.
    w = conj_roof_generators([(-1, 0, 0), (0, -1, -1), (1, -2, 0)])
    flats = set(norm(w))
    assert len(flats) == 4 and brute_closed_orbits(w.generators, flats) == set()
    lower_gap = upper_gap = 0
    for w in _seeded_roofs():
        flats = set(norm(w))
        core = brute_closed_orbits(w.generators, flats)
        lower = _cone_in_flats(w, flats)
        assert lower == set() and core <= flats, w.generators
        lower_gap += lower != core
        upper_gap += core != flats
    assert lower_gap and upper_gap


def test_norm_partition_verdict_against_closed_orbits():
    # The partition succeeds iff every norm flat lies on a closed walk
    # inside the norm (the brute orbits), and its orbits then partition
    # the norm.  Otherwise it fails at the least flat on no such walk.
    passed = failed = 0
    for w in _seeded_roofs():
        flats = norm(w)
        core = brute_closed_orbits(w.generators, flats)
        if core == set(flats):
            trajs = closed_trajectories_of_roof(w)
            assert all(traj.closed for traj in trajs)
            assert sorted(flatten(s) for traj in trajs for s in traj.tiles) == sorted(flats)
            passed += bool(flats)
            continue
        with pytest.raises(GeometryError) as info:
            closed_trajectories_of_roof(w)
        err = info.value
        (start,) = brute_section(w.generators, min(set(flats) - core))
        assert str(err) == f"walk from {tile_text(start)} does not close inside the norm"
        assert (err.tile, err.port, err.peaks) == (start, None, w.generators)
        failed += 1
    assert passed and failed


def test_step_determinism_on_random_cones():
    rng = random.Random(24)
    for _ in range(15):
        w = ConjUpSet(rand_antichain(rng, 3, rng.randint(1, 5)))
        for t in flat_tiles_in(padded_box(w.generators, 3)):
            s = section_at(w, t)
            for port in (Port.UP, Port.DOWN):
                # the brute boundary alone keeps one candidate, and step takes it
                assert brute_successors(w.generators, s, port) == [step(w, s, port)[0]]


def test_q_axis_permutations_commute_with_sections_and_steps():
    """Permuting the q-axes is a symmetry: with ``sigma`` acting on points
    and tiles as in ``conftest``, every section ``s`` of ``w`` maps to the
    section ``sigma s`` of ``sigma w`` over the flat of ``sigma s``, and a
    step maps to the step of the image, through the same ports."""
    rng = random.Random(41)
    regions = [conj_roof_generators(rand_pit_gens(rng, i % 3)) for i in range(15)]
    regions += [ConjUpSet(rand_antichain(rng, 3, 2 + i % 4)) for i in range(15)]
    sections = steps = 0
    for w in regions:
        tiles = [section_at(w, t) for t in flat_tiles_in(Window(-4, 4, -4, 4))]
        moves = [(s, port, *step(w, s, port)) for s in tiles for port in Port]
        for perm in AXIS_PERMUTATIONS:
            image = permute_region(perm, w)
            for s in tiles:
                ps = permute_tile(perm, s)
                assert vertices(ps) == tuple(permute_point(perm, v) for v in vertices(s))
                assert on_surface(image, ps), (w, perm, s)
                assert section_at(image, flatten(ps)) == ps, (w, perm, s)
                sections += 1
            for s, port, nxt, nxt_port in moves:
                assert step(image, permute_tile(perm, s), port) == (permute_tile(perm, nxt), nxt_port), (w, perm, s)
                steps += 1
    assert (sections, steps) == (29_160, 58_320)


def test_decode_commutes_with_axis_permutations_and_translations():
    """``decode`` reads no surface, so a code fixes its path up to the
    symmetries of the lattice: for every q-axis permutation ``sigma`` and
    integer translation ``tau``, ``decode(code, sigma s)`` is ``sigma`` of
    ``decode(code, s)``, and likewise for ``tau``."""
    rng = random.Random(59)
    pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    checks = 0
    for _ in range(150):
        code = "".join(rng.choice("UD") for _ in range(rng.randint(1, 40)))
        start = (tuple(rng.randint(-9, 9) for _ in range(3)), *rng.choice(pairs))
        tiles = decode(code, start)
        for perm in AXIS_PERMUTATIONS:
            assert decode(code, permute_tile(perm, start)) == [permute_tile(perm, t) for t in tiles], (code, start, perm)
            checks += 1
        for _ in range(6):
            d = tuple(rng.randint(-50, 50) for _ in range(3))
            assert decode(code, translate_tile(d, start)) == [translate_tile(d, t) for t in tiles], (code, start, d)
            checks += 1
    assert checks == 1_800


def test_encode_of_a_traced_walk_is_invariant_under_axis_permutations():
    """Permuting the axes of a cone and of a start on its surface permutes
    the traced walk tile by tile, and leaves its U/D code unchanged: the
    permutation maps equal gradients to equal ones and unequal to unequal,
    odd permutations included."""
    rng = random.Random(61)
    regions = [conj_roof_generators(rand_pit_gens(rng, i % 3)) for i in range(10)]
    regions += [ConjUpSet(rand_antichain(rng, 3, 2 + i % 4)) for i in range(10)]
    checks = closed = 0
    for w in regions:
        flats = list(flat_tiles_in(Window(-3, 3, -3, 3)))
        for t in rng.sample(flats, 10):
            start = section_at(w, t)
            walk = trace(w, start, max_steps=rng.randint(1, 80))
            code = encode(walk)
            closed += walk.closed
            for perm in AXIS_PERMUTATIONS:
                image = permute_region(perm, w)
                moved = trace(image, permute_tile(perm, start), max_steps=len(walk))
                assert moved.tiles == tuple(permute_tile(perm, s) for s in walk.tiles), (w, start, perm)
                assert moved.closed == walk.closed
                assert encode(moved) == code, (w, start, perm)
                checks += 1
    assert checks == 1_200 and 0 < closed < 200


def test_lattice_symmetries_carry_in_sets_and_reconstructions():
    """Every q-axis permutation and integer translation ``g`` carries the
    In scan and the reconstruction along: the norm of ``g w`` is the set of
    flattened images of the In tiles of ``w``, and ``closed_trajectory_roofs``
    of the image of a closed norm walk returns the images of its two
    roofs.  Judged on the roof classes of the 3 x 3 x 3 box and on seeded
    pit clusters, each under the six permutations and three translations."""
    rng = random.Random(71)
    roofs = [w for w in box_roof_classes(3) if w.generators]
    roofs += [conj_roof_generators(rand_pit_gens(rng, i % 3)) for i in range(6)]
    moves = [(partial(permute_tile, perm), partial(permute_region, perm)) for perm in AXIS_PERMUTATIONS]
    for _ in range(3):
        d = tuple(rng.randint(-40, 40) for _ in range(3))
        moves.append((partial(translate_tile, d), partial(translate_region, d)))
    norms = walks = 0
    for w in roofs:
        in_tiles = in_tiles_expanded(w)
        try:
            trajs = closed_trajectories_of_roof(w)
        except GeometryError:
            trajs = []
        rebuilt = [closed_trajectory_roofs(w, traj) for traj in trajs]
        for move_tile, move_region in moves:
            image = move_region(w)
            assert set(norm(image)) == {flatten(move_tile(s)) for s in in_tiles}, (w, image)
            norms += 1
            for traj, (w1, w2) in zip(trajs, rebuilt):
                moved = trace(image, move_tile(traj.tiles[0]), max_steps=len(traj))
                assert moved.closed and moved.tiles == tuple(map(move_tile, traj.tiles)), (w, image)
                assert closed_trajectory_roofs(image, moved) == (move_region(w1), move_region(w2)), (w, image)
                walks += 1
    assert (norms, walks) == (504, 144), (norms, walks)
