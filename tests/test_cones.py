import random
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    AXIS_PERMUTATIONS,
    HEX_GENS,
    brute_conj_roof_member,
    brute_height,
    brute_minimal,
    brute_std_roof_member,
    permute_point,
    permute_region,
    plane_peaks,
    rand_antichain,
    rand_pit_gens,
    translate_point,
    translate_region,
)
from tritile import (
    ConjUpSet,
    GeometryError,
    conj_contains,
    conj_height,
    conj_roof_generators,
    is_roof,
    roof_add,
    std_contains,
    std_roof_generators,
)
from tritile.cones import StdUpSet
from tritile.lattice import inverse_embed

coords = st.integers(min_value=-6, max_value=6)
qpoints = st.tuples(coords, coords, coords)
point_sets = st.sets(qpoints, min_size=1, max_size=6)


def test_minimalize_examples():
    # Constructing an up-set keeps the sorted minimal generators.
    assert ConjUpSet(((1, 1, 0), (1, 1, 1))).generators == ((1, 1, 0),)
    unchanged = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert ConjUpSet(unchanged).generators == unchanged
    four = ((1, 0, 1), (1, 1, 1), (0, 1, 1), (1, 1, 0))
    assert ConjUpSet(four).generators == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_minimalize_standard_order_differs():
    # (1,0,0) dominates (0,0,0) in q-order but its l-coordinates
    # (-1/2,1/2,1/2) are incomparable with the origin's.
    pts = [(1, 0, 0), (0, 0, 0)]
    assert ConjUpSet(tuple(pts)).generators == ((0, 0, 0),)
    std = StdUpSet.from_qpoints(pts)
    assert std.dgens == ((-1, 1, 1), (0, 0, 0))
    assert sorted(std.qpoints()) == [(0, 0, 0), (1, 0, 0)]


def test_upset_normalizes_on_construction():
    w = ConjUpSet(((1, 1, 1), (1, 1, 0), (1, 1, 0)))
    assert w.generators == ((1, 1, 0),)
    assert w == ConjUpSet(((1, 1, 0),))


def is_int_triple(g) -> bool:
    return type(g) is tuple and len(g) == 3 and all(type(c) is int for c in g)


def test_upset_keeps_generators_as_int_triples():
    for form in (tuple, list):
        w = ConjUpSet(tuple(form(p) for p in ((1, 0, 1), (0, 1, 1), (1, 1, 0), (2, 2, 2))))
        assert w.generators == tuple(sorted(HEX_GENS))
        assert all(is_int_triple(g) for g in w.generators)


@given(st.lists(st.tuples(coords, coords, coords), max_size=12))
def test_upset_from_qpoints_equals_upset_from_tuples(points):
    from_tuples = ConjUpSet(tuple(points))
    from_lists = ConjUpSet(tuple(list(p) for p in points))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    from_qpoints = StdUpSet.from_qpoints(points)
    doubled = StdUpSet(tuple(inverse_embed(p) for p in points))
    assert from_qpoints == doubled and hash(from_qpoints) == hash(doubled)
    assert all(is_int_triple(g) for g in from_tuples.generators + from_lists.generators + from_qpoints.dgens)


@given(point_sets, qpoints)
def test_conj_height_of_tuple_and_qpoint_probes(points, q):
    w = ConjUpSet(tuple(points))
    assert conj_height(w, list(q)) == conj_height(w, q)


def test_conj_height_hand_values(hexcone):
    assert conj_height(hexcone, (1, 1, 1)) == 0
    assert conj_height(hexcone, (2, 2, 2)) == 1
    with pytest.raises(GeometryError, match="^empty region has no height function$"):
        conj_height(ConjUpSet(), (0, 0, 0))


wide = st.integers(min_value=-40, max_value=40)
wide_points = st.tuples(wide, wide, wide)


@given(wide_points, wide_points)
def test_conj_height_of_one_generator(g, q):
    assert conj_height(ConjUpSet((g,)), q) == min(q[0] - g[0], q[1] - g[1], q[2] - g[2])
    assert conj_height(ConjUpSet((g,)), q) == brute_height((g,), q)


@given(st.lists(qpoints, min_size=1, max_size=12), qpoints)
def test_conj_height_against_brute_height(points, q):
    # includes points below every generator (negative heights)
    assert conj_height(ConjUpSet(tuple(points)), q) == brute_height(points, q)


@given(st.lists(st.tuples(coords, coords, coords), max_size=25))
@example([(1, 0, 2), (1, 0, 2), (0, 3, 1), (1, 0, 2), (0, 3, 1), (2, 2, 2)])
@example([(2, 2, 2), (2, 2, 2)])
def test_upset_generators_are_the_minimal_points(points):
    assert ConjUpSet(tuple(points)).generators == brute_minimal(points)
    assert StdUpSet(tuple(points)).dgens == brute_minimal(points)


@given(qpoints, st.integers(min_value=-5, max_value=5))
def test_height_translation_identity(q, k):
    w = ConjUpSet(HEX_GENS)
    shifted = (q[0] + k, q[1] + k, q[2] + k)
    assert conj_height(w, shifted) == conj_height(w, q) + k


@given(point_sets, qpoints)
def test_height_unit_step_lemma(points, q):
    # The lemma behind the three-height section: a unit step raises the
    # height by 0 or 1, a step along two axes by at most 1.
    gens = tuple(points)
    h = brute_height(gens, q)
    assert conj_height(ConjUpSet(gens), q) == h
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i, ei in enumerate(units):
        assert 0 <= brute_height(gens, tuple((a + b for a, b in zip(q, ei)))) - h <= 1
        for ej in units[i + 1 :]:
            two = tuple((a + b + c for a, b, c in zip(q, ei, ej)))
            assert brute_height(gens, two) - h <= 1


@given(point_sets, qpoints)
def test_membership_agrees_with_height_sign(points, q):
    w = ConjUpSet(tuple(points))
    assert conj_contains(w, q) == (conj_height(w, q) >= 0)


def test_conj_contains_examples(hexcone):
    assert conj_contains(ConjUpSet(((1, 1, 0),)), (1, 1, 1))
    assert not conj_contains(hexcone, (0, 0, 0))
    assert not conj_contains(ConjUpSet(), (0, 0, 0))


def test_conj_roof_examples():
    octants = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert conj_roof_generators(octants).generators == ((0, 0, 0),)
    assert conj_roof_generators(HEX_GENS).generators == tuple(sorted(HEX_GENS))
    assert conj_roof_generators([(2, -1, 3)]).generators == ((2, -1, 3),)


def test_std_roof_examples():
    octants = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert set(std_roof_generators(octants).qpoints()) == set(octants)
    assert std_roof_generators(HEX_GENS).qpoints() == ((0, 0, 0),)


def test_std_contains_example():
    assert std_contains(StdUpSet.from_qpoints([(0, 0, 0)]), (1, 1, 1))
    assert not std_contains(StdUpSet(), (1, 1, 1))


def test_std_qpoints_rejects_off_lattice_corner():
    with pytest.raises(ValueError, match=r"^generator \(0, 1, 1\) is not a lattice point$"):
        StdUpSet(((0, 1, 1),)).qpoints()


@given(st.lists(st.tuples(coords, coords, coords), max_size=12))
def test_roof_generators_accept_lists_tuples_and_qpoints(points):
    def forms():  # fresh each time: the generator form is used up once read
        return (
            [list(p) for p in points],
            points,
            tuple(points),
            iter(points),
        )

    conj = {conj_roof_generators(f) for f in forms()}
    std = {std_roof_generators(f) for f in forms()}
    assert len(conj) == 1 and len(std) == 1
    (w,), (v,) = conj, std
    assert all(is_int_triple(g) for g in w.generators + v.dgens)


def test_roof_add_identities():
    vx, vy, vz = (ConjUpSet((q,)) for q in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert roof_add(roof_add(vx, vy), vz).generators == ((0, 0, 0),)
    hexes = [ConjUpSet((g,)) for g in HEX_GENS]
    total = roof_add(roof_add(hexes[0], hexes[1]), hexes[2])
    assert total.generators == tuple(sorted(HEX_GENS))
    w = conj_roof_generators(HEX_GENS)
    assert roof_add(w, w) == w


def test_roof_closure_is_idempotent_randomly():
    rng = random.Random(1)
    for _ in range(40):
        w = conj_roof_generators(rand_antichain(rng, 5, rng.randint(1, 6)))
        assert is_roof(w)
        assert conj_roof_generators(w.generators) == w


def test_roof_add_commutes_and_associates():
    rng = random.Random(2)
    for _ in range(30):
        a, b, c = (
            conj_roof_generators(rand_antichain(rng, 4, rng.randint(1, 4)))
            for _ in range(3)
        )
        assert roof_add(a, b) == roof_add(b, a)
        assert roof_add(roof_add(a, b), c) == roof_add(a, roof_add(b, c))


def test_roof_closure_and_roof_add_commute_with_axis_permutations_and_translations():
    """Permuting the q-axes and translating by an integer vector are
    symmetries of roof closure and of roof addition: for each such ``g``,
    the roof of the points ``g P`` is ``g`` of the roof of ``P``, and the
    sum of ``g A`` and ``g B`` is ``g`` of the sum of ``A`` and ``B``.
    Judged on seeded point sets of up to the CLI's 100 peaks: points of a
    box, plane peaks, pit clusters and the 100-peak chain ``(i, -i, -2i)``,
    the slowest closure of the caps, under the six permutations and two
    translations; the sums add each set's roof to the next one's."""
    rng = random.Random(113)
    sets = [[tuple(rng.randint(-20, 20) for _ in range(3)) for _ in range(rng.randint(1, 100))] for _ in range(40)]
    sets += [plane_peaks(n, seed, spread) for n, seed in ((100, 1), (60, 2), (25, 3)) for spread in (30, 300)]
    sets += [rand_pit_gens(rng, k) for k in range(0, 12, 2)]
    sets.append([(i, -i, -2 * i) for i in range(100)])
    moves = [(partial(permute_point, perm), partial(permute_region, perm)) for perm in AXIS_PERMUTATIONS]
    moves += [(partial(translate_point, d), partial(translate_region, d)) for d in ((7, -3, 12), (-1000, 999, 1))]
    roofs = [conj_roof_generators(points) for points in sets]
    closures = sums = 0
    for points, roof in zip(sets, roofs):
        for move_point, move_region in moves:
            assert conj_roof_generators(map(move_point, points)) == move_region(roof), (points, move_point)
            closures += 1
    # The chain, last, is left out of the sums.
    for a, b in zip(roofs[:-1], roofs[1:-1]):
        total = roof_add(a, b)
        for _, move_region in moves:
            assert roof_add(move_region(a), move_region(b)) == move_region(total), (a, b, move_region)
            sums += 1
    assert (closures, sums) == (424, 408)


def test_roof_is_extensive():
    rng = random.Random(3)
    for _ in range(40):
        gens = rand_antichain(rng, 4, rng.randint(1, 5))
        w = conj_roof_generators(gens)
        for g in gens:
            assert conj_contains(w, g)
        # cone membership implies roof membership on a window
        cone = ConjUpSet(gens)
        for _ in range(25):
            q = (rng.randrange(-6, 7), rng.randrange(-6, 7), rng.randrange(-6, 7))
            if conj_contains(cone, q):
                assert conj_contains(w, q)


def test_conj_roof_matches_brute_force_oracle():
    rng = random.Random(4)
    box = range(-4, 4)
    for _ in range(40):
        gens = rand_antichain(rng, 3, rng.randint(1, 5))
        w = conj_roof_generators(gens)
        for q1 in box:
            for q2 in box:
                for q3 in box:
                    q = (q1, q2, q3)
                    assert conj_contains(w, q) == brute_conj_roof_member(gens, q)


def test_std_roof_matches_brute_force_oracle():
    rng = random.Random(5)
    box = range(-4, 4)
    for _ in range(40):
        gens = rand_antichain(rng, 3, rng.randint(1, 5))
        w = std_roof_generators(gens)
        for q1 in box:
            for q2 in box:
                for q3 in box:
                    q = (q1, q2, q3)
                    assert std_contains(w, q) == brute_std_roof_member(gens, q)
