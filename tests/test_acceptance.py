"""Acceptance suite: one check per numbered criterion, one line of output each.

Run as ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
All comparisons are exact (integer/discrete); randomized checks use fixed
seeds and the sample counts stated in the criteria.
"""

import random
import time

from conftest import (
    DECODE_DUDUDD,
    HEX_GENS,
    HEX_WALK,
    brute_conj_roof_member,
    brute_std_roof_member,
    brute_successors,
    padded_box,
    rand_antichain,
    rand_pit_gens,
    sample_in_closed,
    sample_in_open,
    tile_samples,
)
from tritile import (
    ConjUpSet,
    QPoint,
    Trajectory,
    Window,
    chart_cover,
    classify,
    closed_trajectories_of_roof,
    closed_trajectory_roofs,
    conj_contains,
    conj_roof_generators,
    decode,
    encode,
    flatten,
    norm,
    parse_tile,
    roof_add,
    section_at,
    std_contains,
    std_roof_generators,
    step,
    trace,
)
from tritile.cones import StdUpSet
from tritile.surface import flat_tiles_in
from tritile.tiles import Port, tile

HEX_TILES = tuple(parse_tile(t) for t in HEX_WALK)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rotations(seq):
    seq = list(seq)
    fwd = [seq[k:] + seq[:k] for k in range(len(seq))]
    rev = list(reversed(seq))
    return fwd + [rev[k:] + rev[:k] for k in range(len(rev))]


def test_criterion_01_hexagon_golden():
    t0 = time.perf_counter()
    w = conj_roof_generators(HEX_GENS)
    trajs = closed_trajectories_of_roof(w)
    elapsed = time.perf_counter() - t0
    ok = (
        len(trajs) == 1
        and trajs[0].closed
        and len(trajs[0]) == 6
        and list(trajs[0].tiles) in _rotations(HEX_TILES)
        and encode(trajs[0]) == "DUDUDU"
        and elapsed < 1.0
    )
    report(1, ok, f"one closed 6-cycle, code DUDUDU, {elapsed:.3f}s")


def test_criterion_02_surface_decomposition():
    w1 = ConjUpSet(HEX_GENS)
    w2 = StdUpSet.from_qpoints([QPoint(0, 0, 0)])
    cl = classify(w1, w2, Window(-8, 8, -8, 8))
    ok = set(cl.in_tiles) == set(HEX_TILES) and cl.bd_tiles == ()
    report(2, ok, f"In = the six listed tiles, Bd empty (|Out|={len(cl.out_tiles)})")


def test_criterion_03_roof_identities():
    vx, vy, vz = (ConjUpSet((q,)) for q in (QPoint(1, 0, 0), QPoint(0, 1, 0), QPoint(0, 0, 1)))
    first = roof_add(roof_add(vx, vy), vz).generators == (QPoint(0, 0, 0),)
    parts = [ConjUpSet((g,)) for g in HEX_GENS]
    second = roof_add(roof_add(parts[0], parts[1]), parts[2]).generators == tuple(sorted(HEX_GENS))
    report(3, first and second, "octant sum collapses to origin; pit sum keeps its three peaks")


def test_criterion_04_norms():
    singles = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1),
    ]
    empties = all(norm(conj_roof_generators([QPoint(*g)])) == () for g in singles)
    hexnorm = norm(conj_roof_generators(HEX_GENS))
    six = hexnorm == tuple(sorted(flatten(s) for s in HEX_TILES))
    report(4, empties and six, "single-peak norms empty; pit norm is its six flat tiles")


def test_criterion_05_fusion():
    w1 = conj_roof_generators(HEX_GENS)
    w2 = conj_roof_generators([QPoint(1, 2, -1), QPoint(0, 2, 0), QPoint(1, 1, 0)])
    w3 = conj_roof_generators([QPoint(0, 2, 0), QPoint(-1, 2, 1), QPoint(0, 1, 1)])
    hexes_ok = all(
        [(len(t), t.closed) for t in closed_trajectories_of_roof(w)] == [(6, True)]
        for w in (w1, w2, w3)
    )
    total = roof_add(roof_add(w1, w2), w3)
    union = set(norm(w1)) | set(norm(w2)) | set(norm(w3))
    sum_norm = set(norm(total))
    trajs = closed_trajectories_of_roof(total)
    fused_ok = (
        sum_norm == union
        and len(union) == 18
        and [(len(t), t.closed) for t in trajs] == [(18, True)]
    )
    report(5, hexes_ok and fused_ok, "three 6-cycles fuse into one 18-cycle, norm = union")


def test_criterion_06_sweep():
    w1 = conj_roof_generators(HEX_GENS)
    w3 = conj_roof_generators([QPoint(0, 2, 0), QPoint(-1, 2, 1), QPoint(0, 1, 1)])
    w5 = conj_roof_generators([QPoint(0, 1, 1), QPoint(-1, 1, 2), QPoint(0, 0, 2)])
    w5_hex = [(len(t), t.closed) for t in closed_trajectories_of_roof(w5)] == [(6, True)]
    total = roof_add(roof_add(w1, w3), w5)

    claimed = (
        QPoint(-1, 1, 2), QPoint(-1, 2, 1), QPoint(0, 0, 2),
        QPoint(0, 2, 0), QPoint(1, 0, 1), QPoint(1, 1, 0),
    )
    gens_ok = total.generators == claimed

    trajs = closed_trajectories_of_roof(total)
    three_ok = len(trajs) == 3 and all(t.closed for t in trajs)

    union = set(norm(w1)) | set(norm(w3)) | set(norm(w5))
    sweep_cone = ConjUpSet(claimed)
    sweep = trace(sweep_cone, section_at(sweep_cone, min(union)), max_steps=400)
    sweep_ok = (
        w5_hex
        and sweep.closed
        and len(union) == 18
        and union <= {flatten(s) for s in sweep.tiles}
    )
    report(
        6,
        gens_ok and three_ok and sweep_ok,
        f"generators-as-listed={gens_ok} (got {[tuple(g) for g in total.generators]}), "
        f"three-trajectories={three_ok} (got {[(len(t), t.closed) for t in trajs]}), "
        f"six-generator cone sweeps all 18={sweep_ok}",
    )


def test_criterion_07_decode_golden():
    tiles = decode("DUDUDD", tile(1, 1, 0, 3, 1))
    tiles_ok = tuple(s.text() for s in tiles) == DECODE_DUDUDD
    charts = chart_cover(tiles)
    charts_ok = (
        len(charts) == 2
        and charts[0].cone == ConjUpSet(HEX_GENS)
        and charts[1].cone == ConjUpSet((QPoint(0, 1, 1), QPoint(1, 0, 1)))
        and (charts[0].start, charts[0].stop) == (0, 4)
        and (charts[1].start, charts[1].stop) == (1, 5)
    )
    report(7, tiles_ok and charts_ok, "six decoded tiles end at 1,1,1:21; two overlapping charts")


def test_criterion_08_codec_round_trip():
    rng = random.Random(801)
    done = 0
    ok = True
    while done < 500:
        gens = rand_antichain(rng, 4, rng.randint(1, 6))  # 9^3 box
        w = ConjUpSet(gens)
        window = padded_box(gens, 3)
        u = rng.randint(window.u_min, window.u_max)
        v = rng.randint(window.v_min, window.v_max)
        start = section_at(w, tile(u, v, 0, 1, rng.choice((2, 3))))
        traj = trace(w, start, max_steps=rng.randint(2, 40))
        code_d = encode(traj)
        decoded = decode(code_d, traj.tiles[0])
        ok &= decoded == list(traj.tiles)
        ok &= encode(Trajectory(tuple(decoded), False)) == code_d
        ok &= decode(code_d.translate(str.maketrans("UD", "DU")), traj.tiles[0]) == decoded
        done += 1
        if not ok:
            break
    report(8, ok, f"decode/encode identities and U/D complement over {done} traced walks")


def test_criterion_09_roof_closure_oracle():
    rng = random.Random(901)
    box = [QPoint(a, b, c) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)]
    ok = True
    for _ in range(200):
        gens = rand_antichain(rng, 3, rng.randint(1, 6))  # 7^3 box
        wc = conj_roof_generators(gens)
        ws = std_roof_generators(gens)
        for q in box:
            if conj_contains(wc, q) != brute_conj_roof_member(gens, q):
                ok = False
                break
            if std_contains(ws, q) != brute_std_roof_member(gens, q):
                ok = False
                break
        if not ok:
            break
    report(9, ok, "closure algorithm matches definitional membership, both frames, 200 sets")


def test_criterion_10_trajectory_roof_reconstruction():
    w = ConjUpSet(HEX_GENS)
    traj = trace(w, tile(1, 1, 0, 3, 1), max_steps=50)
    w1, w2 = closed_trajectory_roofs(w, traj)
    ok = w1.qpoints() == (QPoint(0, 0, 0),) and w2 == StdUpSet()

    rng = random.Random(1001)
    done = 0
    while done < 50 and ok:
        gens = rand_pit_gens(rng, rng.randint(0, 2))
        cone = conj_roof_generators(gens) if rng.random() < 0.5 else ConjUpSet(tuple(gens))
        window = padded_box(gens, 2)
        u = rng.randint(window.u_min, window.u_max)
        v = rng.randint(window.v_min, window.v_max)
        traj = trace(cone, section_at(cone, tile(u, v, 0, 1, rng.choice((2, 3)))), max_steps=250)
        if not traj.closed:
            continue
        closed_trajectory_roofs(cone, traj)  # raises on mismatch
        done += 1
    report(10, ok, f"In(w,w1)\\In(w,w2) reproduced the trajectory for hexagon + {done} random cones")


def test_criterion_11_step_determinism():
    rng = random.Random(1101)
    checked = 0
    failures = []
    for _ in range(100):
        w = ConjUpSet(rand_antichain(rng, 3, rng.randint(1, 6)))
        for t in flat_tiles_in(padded_box(w.generators, 3)):
            s = section_at(w, t)
            for port in (Port.UP, Port.DOWN):
                # the brute boundary alone keeps one candidate, and step takes it
                if brute_successors(w.generators, s, port) != [step(w, s, port)[0]]:
                    failures.append(f"{s.text()}/{port.value} over {w.generators}")
                checked += 1
    report(
        11,
        not failures,
        f"exactly one brute-admissible candidate, step's successor, at {checked} tile/port"
        f" states, 100 cones; {len(failures)} violations"
        + (f", first: {failures[0]}" if failures else ""),
    )


def test_criterion_12_norm_union_bound():
    rng = random.Random(1201)
    failures = []
    for k in range(100):
        family = [
            conj_roof_generators(rand_antichain(rng, 3, rng.randint(1, 4)))
            for _ in range(rng.randint(2, 3))
        ]
        total = family[0]
        for w in family[1:]:
            total = roof_add(total, w)
        union = set()
        for w in family:
            union |= set(norm(w))
        if not union <= set(norm(total)):
            failures.append([tuple(map(tuple, w.generators)) for w in family])
    report(
        12,
        not failures,
        f"union-of-norms containment over 100 roof families; {len(failures)} violations"
        + (f", first: {failures[0]}" if failures else ""),
    )


def test_criterion_13_bd_witness():
    w1 = ConjUpSet((QPoint(0, 0, 0),))
    w2 = StdUpSet.from_qpoints([QPoint(1, 0, -1)])
    s = tile(1, 0, 0, 1, 2)
    cl = classify(w1, w2, Window(-4, 4, -4, 4))
    bd_ok = s in cl.bd_tiles
    samples = tile_samples(s, denom=16)
    mixed_ok = any(sample_in_open(w2.dgens, p) for p in samples) and any(
        not sample_in_closed(w2.dgens, p) for p in samples
    )
    report(13, bd_ok and mixed_ok, "witness tile is Bd and dense sampling shows mixed containment")
