"""Work counts: how often an operation calls the kernels that the norm,
the closed walks and the U/D codes come out of.

Every fixed-input work count of the tests is a row of one table,
``WORK``, of rows ``(id, op, counts, moved_by)``.  ``op`` is a
zero-argument call: a library call, looked up on its module when the
row runs so that the call itself is seen, or a CLI call (``command``),
optionally expecting an exception and message (``raises``) or an output
(``expect``).  ``counts`` maps the qualified names of ``COUNTED`` to
the calls ``op`` makes, each a formula over the oracles of
``conftest.py`` (``in_scan``, ``walk`` and ``cover`` below).  One
runner, ``check_work``, records every name of ``COUNTED`` on every row,
so a name a row leaves out must not be called.  ``moved_by`` names the
ROADMAP items whose change may move the row: ``HAND_COUNTS`` (the
tracer checked against a profile hook, which retires the calls kept
only for the hand counts of ``bench/run.py``), ``item 4`` (the linear
chart cover), ``item 5`` (the flood of the In set), ``item 7`` (roof
closure), or ``contract``, a count that all of them must keep.

A row's id is a test id of this module; ``test_<module>::<test id>``
runs in ``tests/test_<module>.py`` instead, under the id its test had
there before this table.  To pin a count, add a row.
"""

from collections import Counter
from functools import partial
from typing import Callable, NamedTuple
from unittest import mock

import pytest

from conftest import (
    DECODE_DUDUDD,
    HEX_GENS,
    HEX_WALK,
    ROOT,
    added_corners_two_ways,
    below_floor,
    brute_flips,
    brute_in_tiles,
    cli,
    corner_floor,
    flat_tiles_in,
    padded_box,
    record_public_calls,
    reference_chart_cover,
    table_tests,
)
from tritile import ConjUpSet, Window, flatten, parse_tile, surface_tiles, trace
from tritile import cones, dynamics, shell, surface
from tritile.cones import StdUpSet, conj_roof_generators, std_roof_generators
from tritile.tiles import Port, tile

COUNTED = (
    surface.section_at,
    surface.on_surface,
    dynamics.step,
    surface.in_tiles_expanded,
    surface._classify_tile,
    dynamics.chart_cover,
    cones.conj_roof_generators,
    cones.std_roof_generators,
    cones.conj_height,
)
TAGS = {"HAND_COUNTS", "item 4", "item 5", "item 7", "contract"}


class Work(NamedTuple):
    id: str
    op: Callable[[], object]
    counts: dict
    moved_by: tuple


def check_work(row: Work) -> None:
    assert row.moved_by and set(row.moved_by) <= TAGS, row.id
    with pytest.MonkeyPatch.context() as patch:
        calls = record_public_calls(patch, COUNTED)
        row.op()
    assert Counter(name for name, _ in calls) == Counter(row.counts), row.id


# -- ops --------------------------------------------------------------------------

def _exits(code, argv, files) -> None:
    result = cli(argv, files)
    assert result[0] == code, result


def command(code: int, *argv: str, files=None):
    """The op of a CLI call on ``files`` (the hexagon roof as ``FILE0`` by
    default) that must exit with ``code``."""
    return partial(_exits, code, list(argv), [HEX] if files is None else files)


def raises(exc, match: str, fn, *args) -> None:
    with pytest.raises(exc, match=match):
        fn(*args)


def expect(got, want) -> None:
    assert got == want


def at_budget(units: int, fn, *args):
    """``fn(*args)`` under an In-scan budget of ``units`` flat-generator pairs."""
    with mock.patch.object(surface, "MAX_SCAN_UNITS", units):
        return fn(*args)


# -- formulas ---------------------------------------------------------------------

def total(*parts) -> dict:
    return dict(sum(map(Counter, parts), Counter()))


def in_scan(w, points) -> dict:
    """The In scan of ``points`` on ``w``: one standard closure, then, when
    the standard roof of the points adds a corner to their cone, a section
    per flat of the points' box padded by 8, and a classification of each
    section at or above the floor of the added corners."""
    added = added_corners_two_ways(points)[1]
    if not added:
        return {"cones.std_roof_generators": 1}
    window = padded_box(points, 8)
    sections = surface_tiles(w, window)
    assert len(sections) == len(list(flat_tiles_in(window)))
    return {
        "cones.std_roof_generators": 1,
        "surface.section_at": len(sections),
        "surface._classify_tile": sum(not below_floor(s, corner_floor(added)) for s in sections),
    }


def norm_of(w) -> dict:
    """``surface.norm``: a roof check, which closes the generators, and the
    In scan of the generators."""
    return total({"cones.conj_roof_generators": 1, "surface.in_tiles_expanded": 1}, in_scan(w, w.generators))


def walk(w, tiles) -> dict:
    """Tracing ``tiles``: a surface check of the start, a step out of every
    tile, and a check per step, two where it flips the gradient."""
    return {"dynamics.step": len(tiles), "surface.on_surface": 1 + len(tiles) + brute_flips(w.generators, tiles)}


def cover(tiles) -> dict:
    """One chart cover of ``tiles``: the checks of ``reference_chart_cover``,
    which makes the library cover's checks."""
    with pytest.MonkeyPatch.context() as patch:
        checks = record_public_calls(patch, (surface.on_surface,))
        reference_chart_cover(list(tiles))
    return {"dynamics.chart_cover": 1, "surface.on_surface": len(checks)}


def classified(w, w2, window) -> dict:
    """``classify`` takes no section, and classifies the tiles at or above
    the floor less one of the corners of ``w2``, none without one."""
    tiles = surface_tiles(w, window) if w2.dgens else ()
    return {"surface._classify_tile": sum(not below_floor(s, corner_floor(w2.dgens, 1)) for s in tiles)}


LOAD = {"cones.conj_roof_generators": 1}  # a `kind: roof` peaks file closes on load


def lifts(n: int) -> dict:
    """The walks of a CLI norm start at sections of its ``n`` flats."""
    return {"surface.section_at": n}


# -- inputs -----------------------------------------------------------------------

HEX = {"peaks": [list(g) for g in HEX_GENS], "kind": "roof"}
HEXCONE = ConjUpSet(HEX_GENS)
HEX_TILES = tuple(parse_tile(t) for t in HEX_WALK)
HEX_IN = tuple(sorted(HEX_TILES, key=flatten))  # the hexagon's In set is its walk
HEX_TRAJ = trace(HEXCONE, HEX_TILES[0])
HEX_BASES = {s[0] for s in HEX_TILES}
# The hexagon's flats, each reading its 3 generators and the 1 corner of
# its standard roof: the budget of the In scans of its walk, exactly.
HEX_UNITS = len(list(flat_tiles_in(padded_box(HEX_GENS, 8)))) * (len(HEX_GENS) + 1)
START = f"--start={HEX_WALK[0]}"
# The smallest roof whose norm holds a walk that does not close inside it.
REPRO = {"peaks": [[-1, 0, 0], [0, -1, -1], [1, -2, 0]]}
REPRO_W = conj_roof_generators([tuple(p) for p in REPRO["peaks"]])
REPRO_IN = brute_in_tiles(REPRO_W, REPRO_W.generators, padded_box(REPRO_W.generators, 8))
REPRO_WALK = trace(REPRO_W, REPRO_IN[0], max_steps=len(REPRO_IN)).tiles
# A closed walk whose In set holds ten tiles off it: a residue that is not empty.
RESIDUE_W = conj_roof_generators([(-3, 2, 0), (1, -3, 2), (1, -2, -1), (1, 1, -3)])
RESIDUE_TRAJ = trace(RESIDUE_W, parse_tile("1,1,1:23"), max_steps=100)
RESIDUE_BASES = {s[0] for s in RESIDUE_TRAJ.tiles}
RESIDUE = {
    s[0]
    for s in brute_in_tiles(RESIDUE_W, sorted(RESIDUE_BASES), padded_box(RESIDUE_BASES, 8))
    if s not in RESIDUE_TRAJ.tiles
}
# The hexagon pit and a peak 10**6 away: a box of 1,000,035,000,306 cells.
FAR = conj_roof_generators([*HEX_GENS, (10**6, -(10**6), 0)])
STD_ORIGIN = StdUpSet.from_qpoints([(0, 0, 0)])
CLASSIFY = Window(-4, 4, -4, 4)


def window_rows(w, in_tiles) -> list[Work]:
    """A window around ``w`` read per flat, classified and listed, and the
    In scan and norm of ``w``."""
    test = "test_surface::test_section_and_classify_work_counts"
    window = padded_box(w.generators, 3)
    scan = total({"surface.in_tiles_expanded": 1}, in_scan(w, w.generators))
    moved = ("HAND_COUNTS", "item 5") if "surface.section_at" in scan else ("contract",)
    return [
        # One section per call: sections are not nested.
        Work(test, lambda: [surface.section_at(w, t) for t in flat_tiles_in(window)],
             {"surface.section_at": len(list(flat_tiles_in(window)))}, ("contract",)),
        Work(test, lambda: surface.classify(w, STD_ORIGIN, window), classified(w, STD_ORIGIN, window), ("contract",)),
        Work(test, lambda: surface.surface_tiles(w, window), {}, ("contract",)),
        Work(test, lambda: expect(surface.in_tiles_expanded(w), in_tiles), scan, moved),
        Work(test, lambda: expect(surface.norm(w), tuple(map(flatten, in_tiles))), norm_of(w), moved),
    ]


# -- the table --------------------------------------------------------------------

# The warm-ups whose counts bench/run.py HAND_COUNTS pins.  `norm` walks
# first, so that a walk that does not close fails after one scan, then
# scans for the norm itself; each walk document searches its chart cover.
PINNED = {
    "norm": Work(
        "test_shell::test_pinned_public_call_counts", command(0, "norm", "--peaks", "FILE0"),
        total(LOAD, norm_of(HEXCONE), lifts(len(HEX_IN)), walk(HEXCONE, HEX_TILES), cover(HEX_TILES), norm_of(HEXCONE)),
        ("HAND_COUNTS", "item 4", "item 5", "item 7"),
    ),
    "decode": Work(
        "test_shell::test_pinned_public_call_counts", command(0, "decode", "DUDUDD", START),
        cover([parse_tile(t) for t in DECODE_DUDUDD]), ("HAND_COUNTS", "item 4"),
    ),
}

WORK = [
    *PINNED.values(),
    Work(
        "test_shell::test_a_failing_norm_scans_once", command(2, "norm", "--peaks", "FILE0", files=[REPRO]),
        total(LOAD, norm_of(REPRO_W), lifts(len(REPRO_IN)), walk(REPRO_W, REPRO_WALK)),
        ("HAND_COUNTS", "item 5", "item 7"),
    ),
    Work(
        "test_command_work_counts[trajectories_all]", command(0, "trajectories", "--peaks", "FILE0", "--all"),
        total(LOAD, norm_of(HEXCONE), lifts(len(HEX_IN)), walk(HEXCONE, HEX_TILES), cover(HEX_TILES)),
        ("HAND_COUNTS", "item 4", "item 5", "item 7"),
    ),
    *(
        Work(f"test_command_work_counts[{case}]", command(0, *argv), counts, ("item 7",))
        for case, argv, counts in [
            ("trajectories_start", ["trajectories", "--peaks", "FILE0", START], total(LOAD, walk(HEXCONE, HEX_TILES))),
            ("encode", ["encode", "--peaks", "FILE0", START], total(LOAD, walk(HEXCONE, HEX_TILES))),
            ("roof_add", ["roof", "add", "FILE0"], LOAD),  # one closure of all the files' peaks
            (
                "classify",
                ["classify", "--peaks", "FILE0", "--std-peaks", "FILE0", "--window=-4:4,-4:4"],
                total(LOAD, {"cones.std_roof_generators": 1},
                      classified(HEXCONE, std_roof_generators(HEX_GENS), CLASSIFY)),
            ),
        ]
    ),
    Work(
        "test_surface::test_section_and_classify_work_counts",
        lambda: expect(cones.conj_height(HEXCONE, (0, 0, 0)), -1), {"cones.conj_height": 1}, ("contract",),
    ),
    *window_rows(HEXCONE, HEX_IN),
    # Two peaks whose standard roof adds no corner: no scan.
    *window_rows(conj_roof_generators([(0, 0, 0), (6, -6, 1)]), ()),
    # No points, no added corner, no scan, on any region; and the roof of
    # no peaks has an empty norm instead of a height error.
    *(
        Work("test_surface::test_the_box_of_no_points_is_empty", op, counts, ("contract",))
        for op, counts in [
            (lambda: expect(surface._in_set(HEXCONE, ()), (StdUpSet(), ())), in_scan(HEXCONE, ())),
            (lambda: expect(surface._in_set(ConjUpSet(), ()), (StdUpSet(), ())), in_scan(ConjUpSet(), ())),
            (lambda: expect(surface.in_tiles_expanded(ConjUpSet()), ()),
             total({"surface.in_tiles_expanded": 1}, in_scan(ConjUpSet(), ()))),
            (lambda: expect(surface.norm(ConjUpSet()), ()), norm_of(ConjUpSet())),
        ]
    ),
    # A scan over its budget is refused before its first section.
    Work(
        "test_surface::test_in_scan_over_its_budget_raises_before_any_section",
        lambda: raises(ValueError, r"^In scan of 1000035000306 cells over 6 generators .* more than 2000000$",
                       surface.in_tiles_expanded, FAR),
        {"surface.in_tiles_expanded": 1, "cones.std_roof_generators": 1}, ("item 5",),
    ),
    Work(
        "test_surface::test_in_scan_over_its_budget_raises_before_any_section",
        lambda: raises(ValueError, "more than 2000000", surface.norm, FAR),
        {"cones.conj_roof_generators": 1, "surface.in_tiles_expanded": 1, "cones.std_roof_generators": 1}, ("item 5",),
    ),
    # At most one candidate is on the surface, so a kept gradient needs one
    # surface check and a flip needs two.
    *(
        Work(
            "test_dynamics::test_step_asks_about_flip_only_when_keep_is_off",
            lambda w=w, s=s, port=port: expect(dynamics.step(w, s, Port.UP)[1], port),
            {"dynamics.step": 1, "surface.on_surface": 1 + brute_flips(w.generators, [s])}, ("contract",),
        )
        for w, s, port in [
            (ConjUpSet(((0, 0, 0),)), tile(1, 0, 0, 1, 2), Port.UP),
            (HEXCONE, tile(1, 1, 0, 3, 1), Port.DOWN),
        ]
    ),
    # The first scan of the hexagon walk is charged what the hexagon's norm
    # is: one pair less is refused before any section, and the budget runs.
    Work(
        "test_dynamics::test_closed_trajectory_roofs_has_the_in_scan_budget",
        lambda: raises(
            ValueError,
            rf"^In scan of 361 cells over 4 generators reads {HEX_UNITS} flat-generator pairs, more than {HEX_UNITS - 1}$",
            at_budget, HEX_UNITS - 1, dynamics.closed_trajectory_roofs, HEXCONE, HEX_TRAJ,
        ),
        {"cones.std_roof_generators": 1}, ("item 5",),
    ),
    Work(
        "test_dynamics::test_closed_trajectory_roofs_has_the_in_scan_budget",
        lambda: expect(at_budget(HEX_UNITS, dynamics.closed_trajectory_roofs, HEXCONE, HEX_TRAJ)[1], StdUpSet()),
        total(in_scan(HEXCONE, HEX_BASES), in_scan(HEXCONE, ())), ("HAND_COUNTS", "item 5"),
    ),
    # The hexagon walk is its whole In set, so the residue has no base, the
    # second roof adds no corner and its scan takes no section.
    Work(
        "test_dynamics::test_an_empty_residue_takes_no_section",
        lambda: expect(dynamics.closed_trajectory_roofs(HEXCONE, HEX_TRAJ)[1], StdUpSet()),
        total(in_scan(HEXCONE, HEX_BASES), in_scan(HEXCONE, ())), ("HAND_COUNTS", "item 5"),
    ),
    # Each roof of the reconstruction is closed once and scanned as built.
    Work(
        "test_reconstruction_closes_each_roof_once",
        lambda: dynamics.closed_trajectory_roofs(RESIDUE_W, RESIDUE_TRAJ),
        total(in_scan(RESIDUE_W, RESIDUE_BASES), in_scan(RESIDUE_W, RESIDUE)), ("HAND_COUNTS", "item 5"),
    ),
]


def work_tests(module: str) -> dict:
    """The tests of the rows whose ids name ``module``, or name no module
    when ``module`` is this one."""
    rows = []
    for row in WORK:
        home, _, test = row.id.rpartition("::")
        if (home or __name__) == module:
            rows.append(row._replace(id=test))
    return table_tests(rows, check_work)


globals().update(work_tests(__name__))


def test_the_bench_pins_the_hand_count_rows(monkeypatch, tmp_path):
    # bench/run.py HAND_COUNTS pins three names of the hexagon `norm` and
    # `decode DUDUDD` warm-ups: they are the PINNED rows' counts, and the
    # bench's tracer self-check, which holds its wrappers to them, passes.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run as bench_run
    import workloads

    hand = bench_run.HAND_COUNTS
    assert {kind: {name: row.counts.get(name, 0) for name in hand[kind]} for kind, row in PINNED.items()} == hand
    problems = []
    bench_run.self_check(shell, workloads.warmup(workloads.Inputs(str(tmp_path))), problems)
    assert problems == []
