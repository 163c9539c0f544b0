"""Every roof of the n x n x n box, one per class of the lattice symmetries.

The antichains of the box, one per plane partition that fits in it,
close to the roofs of the box, the empty region among them.  Under
translation and q-axis permutation the roofs fall into classes, and
``sweep`` checks every class against the oracles of ``conftest.py``:

- the norm against the brute In set at pad 2 (the box bound puts every
  In tile inside pad 0);
- the floor gate of the In scan and of ``classify`` (``surface.py``
  docstring): over the In scan's box, the In set against the ungated
  verdict of ``_classify_tile`` on the added corners for every section,
  and the buckets of ``classify`` against the standard roof against its
  ungated verdict on the roof's corners; the table line counts the
  sections each gate decides without the classifier;
- the two readings of the corners a standard roof adds, on the class's
  generators and on each closed norm walk's bases and residue;
- each edge-connected piece of the In set holds a tile within 1 cell of
  an added corner, the seed radius of a flood of the In set;
- ``step`` from every norm tile through both ports against the brute
  successors;
- the partition of the norm into closed walks against the brute closed
  orbits: it succeeds, where ``norm`` exits 0, iff every norm flat lies
  on a closed walk that stays inside the norm;
- on each closed norm walk, the chart cover is the one chart of its
  bases (``dynamics.py`` docstring), and the reconstruction and both its
  In scans match the reconstruction as first written.

``tests/test_box_roofs.py`` runs the 3-box in tier-1.  Run
``PYTHONPATH=src python tests/box_sweep.py 4`` for the 4-box: it prints
the table line and checks the counts of ``EXPECTED``.  It takes about
a minute (2-vCPU container, Python 3.11).
"""

from __future__ import annotations

import sys

from conftest import (
    added_corners_two_ways,
    below_floor,
    box_roof_classes,
    box_roofs,
    brute_closed_orbits,
    brute_in_tiles,
    brute_successors,
    corner_floor,
    padded_box,
    piece_reach,
    reference_in_set,
    reference_trajectory_roofs,
)
from tritile import (
    ConjUpSet,
    GeometryError,
    chart_cover,
    classify,
    closed_trajectories_of_roof,
    closed_trajectory_roofs,
    flatten,
    in_tiles_expanded,
    norm,
    section_at,
    std_roof_generators,
    step,
    surface_tiles,
)
from tritile.cones import StdUpSet
from tritile.dynamics import Chart
from tritile.surface import _classify_tile, _in_set
from tritile.tiles import Port

EXPECTED = {
    3: {
        "antichains": 980, "roofs": 489, "classes": 50, "norms": 31, "exit2": 19, "walks": 14,
        "steps": 598, "pieces": 31, "added": 78,
        "scanned": 26_188, "not_in": 24_698, "tiles": 41_336, "out": 29_977,
    },
    4: {
        "antichains": 232_848, "roofs": 18_212, "classes": 1_420, "norms": 1_244, "exit2": 1_035, "walks": 277,
        "steps": 45_014, "pieces": 1_253, "added": 1_974,
        "scanned": 1_240_550, "not_in": 1_161_742, "tiles": 1_403_534, "out": 996_682,
    },
}


def _added(points) -> list:
    """The corners the standard roof of ``points`` adds, once both
    readings of them agree."""
    by_cone, by_points = added_corners_two_ways(points)
    assert by_cone == by_points, points
    return by_points


def _gates(w, added) -> tuple[int, int, int, int]:
    """Check the In scan and ``classify`` over the In scan's box against the
    ungated verdict of ``_classify_tile`` on every section.  Return the
    sections the In scan takes and those of them its gate decides alone,
    then the sections ``classify`` reads and those its gate decides."""
    gens = w.generators
    box = padded_box(gens, 8)
    sections = surface_tiles(w, box)
    assert in_tiles_expanded(w) == tuple(s for s in sections if _classify_tile(s, added) == "in"), w
    roof = std_roof_generators(gens).dgens
    buckets = {"in": [], "out": [], "bd": []}
    for s in sections:
        buckets[_classify_tile(s, roof)].append(s)
    cl = classify(w, StdUpSet(roof), box)
    assert (cl.in_tiles, cl.out_tiles, cl.bd_tiles) == tuple(map(tuple, buckets.values())), w
    out = sum(below_floor(s, corner_floor(roof, 1)) for s in sections)
    if not added:
        return 0, 0, len(sections), out  # no added corner: the In scan takes no section
    not_in = sum(below_floor(s, corner_floor(added)) for s in sections)
    return len(sections), not_in, len(sections), out


def sweep(n: int) -> dict[str, int]:
    """Check every class of the roofs of the ``n x n x n`` box; return the
    counts of the table line."""
    roofs = box_roofs(n)
    classes = box_roof_classes(n)
    assert classes[0] == ConjUpSet() and norm(ConjUpSet()) == () and closed_trajectories_of_roof(ConjUpSet()) == []
    counts = dict.fromkeys(("norms", "exit2", "walks", "steps", "pieces", "added", "scanned", "not_in", "tiles", "out"), 0)
    counts.update(antichains=sum(roofs.values()), roofs=len(roofs) - 1, classes=len(classes) - 1)
    for w in classes[1:]:
        gens = w.generators
        flats = norm(w)
        assert flats == tuple(map(flatten, brute_in_tiles(w, gens, padded_box(gens, 2)))), w
        added = _added(gens)
        counts["added"] += 1
        for key, count in zip(("scanned", "not_in", "tiles", "out"), _gates(w, added)):
            counts[key] += count
        if not flats:
            continue
        counts["norms"] += 1
        reach = piece_reach(in_tiles_expanded(w), added)
        assert max(reach) <= 2, (w, reach)  # half cells
        counts["pieces"] += len(reach)
        for t in flats:
            s = section_at(w, t)
            for port in Port:
                assert brute_successors(gens, s, port) == [step(w, s, port)[0]], (w, s, port)
                counts["steps"] += 1
        core = brute_closed_orbits(gens, flats)
        try:
            trajs = closed_trajectories_of_roof(w)
        except GeometryError:
            assert core != set(flats), w
            counts["exit2"] += 1
            continue
        assert core == set(flats) == {flatten(s) for traj in trajs for s in traj.tiles}, w
        for traj in trajs:
            tiles = list(traj.tiles)
            bases = {s[0] for s in tiles}
            assert chart_cover(tiles) == [Chart(ConjUpSet(tuple(bases)), 0, len(tiles) - 1)], (w, traj)
            roof, in1 = _in_set(w, bases)
            assert (roof, in1) == (std_roof_generators(bases), reference_in_set(w, bases)), (w, traj)
            residue = {s[0] for s in in1 if s not in traj.tiles}
            assert _in_set(w, residue) == (std_roof_generators(residue), reference_in_set(w, residue)), (w, traj)
            assert closed_trajectory_roofs(w, traj) == reference_trajectory_roofs(w, traj), (w, traj)
            _added(bases)
            _added(residue)
            counts["added"] += 2
            counts["walks"] += 1
    return counts


def table_line(n: int, c: dict[str, int]) -> str:
    return (
        f"{n}-box sweep: {c['antichains']} antichains, {c['roofs']} roofs, {c['classes']} classes:"
        f" {c['norms']} non-empty norms, {c['exit2']} exit 2, {c['walks']} closed walks in"
        f" {c['norms'] - c['exit2']} classes, {c['steps']} norm steps, {c['pieces']} In pieces each"
        f" within 1 cell of an added corner, added corners read alike on {c['added']} point sets,"
        f" {c['not_in']} of {c['scanned']} scanned sections below the added corners' floor,"
        f" {c['out']} of {c['tiles']} box tiles below the roof's floor less one"
    )


if __name__ == "__main__":
    size = int(sys.argv[1])
    found = sweep(size)
    print(table_line(size, found))
    assert found == EXPECTED[size], (found, EXPECTED[size])
