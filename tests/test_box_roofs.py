"""Every roof of the 3 x 3 x 3 box, one per class of the lattice symmetries.

The 980 antichains of the box, one per plane partition that fits in it,
close to 490 regions: 489 roofs and the empty one.  Under translation and
q-axis permutation they fall into 50 classes and the empty one.  On each
class the norm is judged by the brute In set, the partition of the norm
into closed walks by the brute closed orbits, and on each closed norm
walk the reconstruction and both its In scans by the reconstruction as
first written.  Run as ``pytest tests/test_box_roofs.py -s`` to see the
table line; the module takes about 2 s (2-vCPU container, Python 3.11).
"""

from conftest import (
    box_antichains,
    box_roof_classes,
    brute_closed_orbits,
    brute_in_tiles,
    padded_box,
    reference_in_set,
    reference_trajectory_roofs,
)
from tritile import (
    ConjUpSet,
    GeometryError,
    closed_trajectories_of_roof,
    closed_trajectory_roofs,
    conj_roof_generators,
    flatten,
    norm,
    std_roof_generators,
)
from tritile.surface import _in_set


def test_every_roof_of_the_3_box():
    antichains = box_antichains(3)
    regions = {conj_roof_generators(a) for a in antichains}
    classes = box_roof_classes(3)
    assert (len(antichains), len(regions), len(classes)) == (980, 490, 51)
    assert classes[0] == ConjUpSet() and norm(ConjUpSet()) == () and closed_trajectories_of_roof(ConjUpSet()) == []
    nonempty = exit2 = walks = 0
    for w in classes[1:]:
        flats = norm(w)
        # The box bound puts every In tile inside pad 0, so pad 2 misses none.
        brute = brute_in_tiles(w, w.generators, padded_box(w.generators, 2))
        assert flats == tuple(map(flatten, brute)), w
        if not flats:
            continue
        nonempty += 1
        # The partition succeeds, where `norm` exits 0, iff every norm flat
        # lies on a closed walk that stays inside the norm.
        core = brute_closed_orbits(w.generators, flats)
        try:
            trajs = closed_trajectories_of_roof(w)
        except GeometryError:
            assert core != set(flats), w
            exit2 += 1
            continue
        assert core == set(flats) == {flatten(s) for traj in trajs for s in traj.tiles}, w
        for traj in trajs:
            bases = {s[0] for s in traj.tiles}
            roof, in1 = _in_set(w, bases)
            assert (roof, in1) == (std_roof_generators(bases), reference_in_set(w, bases)), (w, traj)
            residue = {s[0] for s in in1 if s not in traj.tiles}
            assert _in_set(w, residue) == (std_roof_generators(residue), reference_in_set(w, residue)), (w, traj)
            assert closed_trajectory_roofs(w, traj) == reference_trajectory_roofs(w, traj), (w, traj)
            walks += 1
    print(
        f"3-box sweep: {len(antichains)} antichains, {len(regions) - 1} roofs, {len(classes) - 1} classes:"
        f" {nonempty} non-empty norms, {exit2} exit 2, {walks} closed walks in {nonempty - exit2} classes"
    )
    assert (nonempty, exit2, walks) == (31, 19, 14)
