import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DECODE_DUDUDD,
    HEX_WALK,
    brute_closed_orbits,
    brute_in_tiles,
    brute_section,
    brute_std_roof_member,
    brute_successors,
    count_public_calls,
    padded_box,
    pit,
    rand_antichain,
    rand_pit_gens,
    record_public_calls,
    reference_chart_cover,
    sample_in_closed,
    tile_samples,
)
from tritile import (
    conj_contains,
    ConjUpSet,
    GeometryError,
    QPoint,
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
from tritile import dynamics
from tritile.cones import StdUpSet, conj_roof_generators, std_roof_generators
from tritile.lattice import LHalf
from tritile.surface import Classification, flat_tiles_in
from tritile.tiles import Port, SlantTile, port_candidates, tile

HEX_TILES = tuple(parse_tile(t) for t in HEX_WALK)
OCTANT = ConjUpSet((QPoint(0, 0, 0),))


def assert_valid_trajectory(traj: Trajectory):
    """Check port adjacency and port/gradient alternation along the walk."""
    port = Port.UP
    seq = list(traj.tiles) + ([traj.tiles[0]] if traj.closed else [])
    for prev, cur in zip(seq, seq[1:]):
        pair = port_candidates(prev, port)
        assert cur in pair
        if cur == pair.flip:
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
        with pytest.raises(ValueError, match="tile budget"):
            trace(OCTANT, tile(1, 0, 0, 1, 2), max_steps=bad)


def test_trace_rejects_bad_start(hexcone):
    with pytest.raises(GeometryError, match="^0,0,0:12 is not on the surface$"):
        trace(hexcone, tile(0, 0, 0, 1, 2))


def test_off_surface_start_carries_its_replay(hexcone):
    s = tile(0, 0, 0, 1, 2)
    with pytest.raises(GeometryError) as first:
        trace(hexcone, s)
    err = first.value
    assert (err.tile, err.port, err.peaks) == (s, None, hexcone.generators)
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
    assert encode(traj, "D") == "DUDUDU"
    assert encode(traj, "U") == "UDUDUD"


def test_encode_constant_on_gradient_preserving_walk():
    traj = trace(OCTANT, tile(1, 0, 0, 1, 2), max_steps=12)
    assert encode(traj, "D") == "D" * 12


def test_encode_validates_input(hexcone):
    traj = trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=50)
    with pytest.raises(ValueError):
        encode(traj, "X")
    with pytest.raises(ValueError):
        encode(Trajectory((), False))


def test_decode_goldens():
    got = decode("DUDUDD", tile(1, 1, 0, 3, 1))
    assert tuple(s.text() for s in got) == DECODE_DUDUDD
    assert decode("DUDUDU", tile(1, 1, 0, 3, 1)) == list(HEX_TILES)
    assert decode("D", tile(1, 1, 0, 3, 1)) == [tile(1, 1, 0, 3, 1)]


def test_decode_validates_alphabet():
    with pytest.raises(ValueError):
        decode("DUX", tile(1, 1, 0, 3, 1))
    with pytest.raises(ValueError):
        decode("", tile(1, 1, 0, 3, 1))


def test_codec_round_trip_random():
    rng = random.Random(21)
    for _ in range(120):
        code = "".join(rng.choice("UD") for _ in range(rng.randint(1, 24)))
        start = SlantTile(
            QPoint(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)),
            *rng.choice([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]),
        )
        tiles = decode(code, start)
        assert encode(Trajectory(tuple(tiles), False), code[0]) == code


def test_closed_code_rotates_with_start(hexcone):
    base = trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=50)
    code = encode(base, "D")
    for k, s in enumerate(base.tiles):
        rotated = trace(hexcone, s, max_steps=50)
        rcode = encode(rotated, "D")
        shifted = code[k:] + code[:k]
        assert rcode in (shifted, shifted.translate(str.maketrans("UD", "DU")))


def test_chart_cover_goldens(hexcone):
    two = chart_cover(decode("DUDUDD", tile(1, 1, 0, 3, 1)))
    assert [(c.start, c.stop) for c in two] == [(0, 4), (1, 5)]
    assert two[0].cone == hexcone
    assert two[1].cone == ConjUpSet((QPoint(0, 1, 1), QPoint(1, 0, 1)))

    one = chart_cover(list(HEX_TILES))
    assert [(c.start, c.stop) for c in one] == [(0, 5)]
    assert one[0].cone == hexcone

    single = chart_cover([tile(3, -1, 2, 2, 3)])
    assert single[0].cone == ConjUpSet((QPoint(3, -1, 2),))

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
starts = st.builds(lambda q1, q2, q3, d: SlantTile(QPoint(q1, q2, q3), *d), coords, coords, coords, dirpairs)


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
    octant = ConjUpSet((start.base,))
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


def test_closed_trajectory_roofs_hexagon(hexcone):
    traj = trace(hexcone, tile(1, 1, 0, 3, 1), max_steps=50)
    w1, w2 = closed_trajectory_roofs(hexcone, traj)
    assert w1.qpoints() == (QPoint(0, 0, 0),)
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
    assert (w1.dgens, w2.dgens) == ((LHalf(-3, -3, 1),), (LHalf(-2, -2, 2),))
    bases = sorted({s.base for s in traj.tiles})
    in1 = brute_in_tiles(w, bases, padded_box(bases, 4))
    assert len(in1) == 32
    residue = sorted({s.base for s in in1 if s not in traj.tiles})
    in2 = brute_in_tiles(w, residue, padded_box(bases, 4))
    assert set(in1) - set(in2) == set(traj.tiles)
    for roof, points in ((w1, bases), (w2, residue)):
        for q in product(range(-4, 5), repeat=3):
            assert std_contains(roof, QPoint(*q)) == brute_std_roof_member(points, q), (roof, q)


def test_closed_trajectory_roofs_reports_a_mismatch(monkeypatch, hexcone):
    # A first scan that misses one tile of the walk cannot carve it out.
    traj = trace(hexcone, HEX_TILES[0])
    real_classify = dynamics.classify
    scans = []

    def first_scan_drops_a_tile(w1, w2, window):
        cl = real_classify(w1, w2, window)
        scans.append(window)
        if len(scans) > 1:
            return cl
        kept = tuple(s for s in cl.in_tiles if s != traj.tiles[0])
        return Classification(kept, cl.out_tiles, cl.bd_tiles)

    monkeypatch.setattr(dynamics, "classify", first_scan_drops_a_tile)
    msg = r"^reconstruction mismatch: \|In1\|=5, \|In2\|=0, trajectory length 6$"
    with pytest.raises(GeometryError, match=msg):
        closed_trajectory_roofs(hexcone, traj)
    assert len(scans) == 2


def test_closed_trajectory_roofs_requires_closed(hexcone):
    open_traj = trace(OCTANT, tile(1, 0, 0, 1, 2), max_steps=5)
    with pytest.raises(ValueError):
        closed_trajectory_roofs(OCTANT, open_traj)


def test_closed_trajectory_roofs_on_random_pits():
    rng = random.Random(23)
    done = 0
    while done < 12:
        w = conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 2)))
        try:
            flats = norm(w)
        except Exception:
            continue
        for t in flats[:1]:
            traj = trace(w, section_at(w, t), max_steps=300)
            if traj.closed:
                closed_trajectory_roofs(w, traj)  # raises on violation
                done += 1


def test_first_chart_of_closed_walk_sits_inside_its_cone():
    rng = random.Random(25)
    done = 0
    while done < 10:
        w = conj_roof_generators(rand_pit_gens(rng, rng.randint(0, 2)))
        try:
            flats = norm(w)
        except Exception:
            continue
        if not flats:
            continue
        traj = trace(w, section_at(w, flats[0]), max_steps=300)
        if not traj.closed:
            continue
        first = chart_cover(list(traj.tiles))[0]
        for g in first.cone.generators:
            assert conj_contains(w, g)
        done += 1


def test_closed_trajectories_of_roof(hexcone):
    trajs = closed_trajectories_of_roof(hexcone)
    assert [(len(t), t.closed) for t in trajs] == [(6, True)]
    assert {flatten(s) for s in trajs[0].tiles} == set(norm(hexcone))
    assert closed_trajectories_of_roof(OCTANT) == []
    assert closed_trajectories_of_roof(ConjUpSet()) == []


def test_norm_partition_violation_is_reported():
    # this roof's norm leaks into open trajectories; it must not pass silently
    w = ConjUpSet((QPoint(-3, -2, 0), QPoint(0, -3, -2), QPoint(2, 1, -3)))
    with pytest.raises(GeometryError, match="^open trajectory in norm from -1,0,0:12$") as info:
        closed_trajectories_of_roof(w)
    err = info.value
    assert (err.tile, err.port, err.peaks) == (tile(-1, 0, 0, 1, 2), None, w.generators)
    # The walk from the error's tile on the error's region is the open one.
    assert not trace(ConjUpSet(err.peaks), err.tile, max_steps=len(norm(w)) + 2).closed


def test_norm_escape_is_reported(monkeypatch, hexcone):
    # With one flat left out of the norm, the six-tile orbit still closes
    # within the budget of 5 + 2 tiles but leaves the remaining set.
    flats = norm(hexcone)
    monkeypatch.setattr(dynamics, "norm", lambda w: flats[1:])
    start = section_at(hexcone, flats[1]).text()
    with pytest.raises(GeometryError, match=f"^trajectory from {start} leaves the norm$") as info:
        closed_trajectories_of_roof(hexcone)
    err = info.value
    assert (err.tile.text(), err.port, err.peaks) == (start, None, hexcone.generators)


def test_norm_orbits_start_at_the_least_uncovered_flat(monkeypatch):
    # Two pits far apart, each with its own six-flat norm; their flats
    # interleave in flat order, so the second orbit starts past flats the
    # first one covered.  Each orbit starts at the least flat not covered
    # by the orbits before it.
    pits = (QPoint(0, 0, 0), QPoint(-4, 2, -4))
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


def test_norm_contains_closed_walks():
    # The norm is sandwiched: In against the standard cone of the peaks,
    # then the closed walks that stay inside the norm, then the norm
    # itself.  Both gaps occur, so the norm is more than its closed-walk
    # content: the rest is an open residue.
    w = conj_roof_generators([QPoint(-1, 0, 0), QPoint(0, -1, -1), QPoint(1, -2, 0)])
    flats = set(norm(w))
    assert len(flats) == 4 and brute_closed_orbits(w.generators, flats) == set()
    rng = random.Random(42)
    lower_gap = upper_gap = 0
    for i in range(150):
        if i % 2 == 0:
            gens = rand_antichain(rng, 3, rng.randint(2, 5))
        else:
            gens = rand_pit_gens(rng, rng.randint(0, 2))
        w = conj_roof_generators(gens)
        flats = set(norm(w))
        core = brute_closed_orbits(w.generators, flats)
        lower = _cone_in_flats(w, flats)
        assert lower <= core <= flats, w.generators
        lower_gap += lower != core
        upper_gap += core != flats
    assert lower_gap and upper_gap


def test_step_determinism_on_random_cones():
    rng = random.Random(24)
    for _ in range(15):
        w = ConjUpSet(rand_antichain(rng, 3, rng.randint(1, 5)))
        for t in flat_tiles_in(padded_box(w.generators, 3)):
            s = section_at(w, t)
            for port in (Port.UP, Port.DOWN):
                # the brute boundary alone keeps one candidate, and step takes it
                assert brute_successors(w.generators, s, port) == [step(w, s, port)[0]]
