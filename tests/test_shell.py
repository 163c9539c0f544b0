"""Tests of the ``tritile`` command line.

The CLI's exit codes and messages are pinned by the rows of two
tables.  A row is one call, ``(argv, files, stdin) -> (exit, stdout,
stderr)``.  ``IN_PROCESS`` rows run through ``conftest.cli``.
``SUBPROCESS`` rows run ``python -m tritile.shell`` through
``conftest.run_python`` under a 10 s timeout; they hold the inputs that
once hung or ran for minutes, so that a slow answer fails its row.

To pin another, add a row.  Its ``files`` are written as ``FILE0``,
``FILE1``, ... in the working directory of the call, so ``argv`` and
the expected messages name them that way.  Stdout and stderr are
compared exactly.  An argparse error is written
``USAGE + "error: <message>\n"``: the usage text, then exactly that
line.  A row's id is ``test_name`` or ``test_name[case]``, and the rows
that share an id run as one test (``conftest.table_tests``), so each
contract keeps the test id it had before the tables.  The work counts
of CLI calls are rows of ``test_work_counts.WORK``; those that took over
tests of this module run here.

The tests after the tables check what one exact output cannot: output
shapes, replays and determinism.
"""

import argparse
import functools
import json
import random
from collections import Counter
from itertools import product
from typing import NamedTuple
from xml.parsers import expat

import pytest

from conftest import (
    DECODE_DUDUDD,
    HEX_WALK,
    brute_boundary,
    brute_conj_roof_member,
    brute_minimal,
    cli,
    plane_peaks,
    rand_pit_gens,
    run_python,
    table_tests,
    translate_tile,
)
from test_work_counts import work_tests
from tritile import (
    conj_contains,
    conj_roof_generators,
    parse_tile,
    roof_add,
    tile_text,
    vertices,
)
from tritile import shell, surface

HEX = {"peaks": [[1, 1, 0], [0, 1, 1], [1, 0, 1]], "kind": "roof"}
OCTANT = {"peaks": [[0, 0, 0]]}
# Not roof-closed: kind "cone" keeps the peaks as listed.
CONE = {"peaks": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "kind": "cone"}
# The smallest roof whose norm holds a walk that does not close inside it.
REPRO = {"peaks": [[-1, 0, 0], [0, -1, -1], [1, -2, 0]]}
OFF_SURFACE = "0,0,0:12 is not on the surface"
OPEN_NORM_WALK = "walk from 0,-1,0:23 does not close inside the norm"
# The second stderr line of a geometry error: the state that replays it.
HEX_OFF = '{"peaks": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "port": null, "tile": "0,0,0:12"}'
REPRO_WALK = '{"peaks": [[-1, 0, 0], [0, -1, -1], [1, -2, 0]], "port": null, "tile": "0,-1,0:23"}'


class Row(NamedTuple):
    id: str
    argv: list
    exit: int
    out: str = ""
    err: str = ""
    files: tuple = ()
    stdin: str = ""


def line_peaks(n: int) -> dict:
    """The peaks (i, -i, 0) for i < n, which close to themselves at once."""
    return {"peaks": [[i, -i, 0] for i in range(n)]}


# Stands for argparse's usage text, which ends before the last line.
USAGE = "usage: tritile ...\n"
BAD_WINDOW = "expected uMIN:uMAX,vMIN:vMAX"
NOT_A_PEAKS_LIST = "peaks must be a non-empty list of integer triples"
NOT_AN_OBJECT = "document must be a JSON object"
BAD_CODE = "'code' must be a string of U and D"
CAP = shell.MAX_PEAKS
HUGE = 10**2500  # 2,501 digits
HUGE_WINDOW = f"{-HUGE}:{HUGE},{-HUGE}:{HUGE}"
BAD_WINDOWS = [
    (f"{window}-{message}", window, message)
    for window, message in [
        ("5:-5,0:1", "empty window '5:-5,0:1'"),
        ("0:1,3:2", "empty window '0:1,3:2'"),
        ("1:2,3", f"bad window '1:2,3', {BAD_WINDOW}"),
        ("a:b,0:1", f"bad window 'a:b,0:1', {BAD_WINDOW}"),
        ("-158:158,-158:158", "window '-158:158,-158:158' is more than 316 cells across"),
        ("-158:158,0:0", "window '-158:158,0:0' is more than 316 cells across"),
        ("0:0,-158:158", "window '0:0,-158:158' is more than 316 cells across"),
    ]
]
# Its cell count has more digits than Python prints: none is computed.
BAD_WINDOWS.append(("huge", HUGE_WINDOW, f"window {HUGE_WINDOW!r} is more than 316 cells across"))
DEEP = "[" * 100_000 + "]" * 100_000
# Forms that int() takes but the README never writes: an underscore,
# padding spaces, a plus sign and non-ASCII digits.
NOT_ASCII_INTEGERS = ["1_0", " 1", "1 ", "+1", "١", "１２"]
# Every document shape `render` refuses, named docN by position, and the
# null document None.
MALFORMED_DOCUMENTS = [
    (["tiles"], NOT_AN_OBJECT),
    (None, NOT_AN_OBJECT),
    ({"tiles": [1]}, "'tiles' must be a list of tile texts"),
    ({"tiles": "0,0,0:12"}, "'tiles' must be a list of tile texts"),
    ({"in": [], "out": 5}, "'out' must be a list of tile texts"),
    ({"in": [None]}, "'in' must be a list of tile texts"),
    ({"tiles": ["0,0,0:12"], "code": 5}, BAD_CODE),
    ({"tiles": ["0,0,0:12"], "code": 0}, BAD_CODE),
    ({"tiles": ["0,0,0:12"], "code": False}, BAD_CODE),
    ({"tiles": ["0,0,0:12"], "code": []}, BAD_CODE),
    ({"tiles": ["0,0,0:12"], "code": {}}, BAD_CODE),
    ({"tiles": ["0,0,0:12"], "code": None}, BAD_CODE),
    ({"norm": [], "trajectories": [{"tiles": ["0,0,0:12"], "code": False}]}, BAD_CODE),
    ({"norm": ["0,0,0:12"], "trajectories": 3}, "'trajectories' must be a list of documents"),
    ({"norm": [], "trajectories": [7]}, NOT_AN_OBJECT),
    ({"tiles": ["0,0,0:1"]}, "bad tile text '0,0,0:1'"),
    ({"tiles": ["0,0,0:12", "1,0,0:23"], "code": "<&"}, BAD_CODE),
    ({"tiles": ["0,0,0:12"], "code": "UUU"}, "'code' has 3 letters for 1 tiles"),
    ({"tiles": ["0,0,0:12", "1,0,0:23"], "code": "U"}, "'code' has 1 letters for 2 tiles"),
    ({"out": []}, "document has no tiles to draw"),
]

# Rows whose argv fails in the parser, or names "missing.json", show that
# the check comes before any file is read: reading one is another error.
IN_PROCESS = [
    # -- whole outputs
    Row("test_encode_command", ["encode", "--peaks", "FILE0", "--start", "1,1,0:31"], 0, "DUDUDU\n", files=(HEX,)),
    *(
        Row(
            "test_max_steps_is_a_tile_budget",
            ["encode", "--peaks", "FILE0", "--start", "1,0,0:12", "--max-steps", str(n)], 3, "D" * n + "\n",
            files=(OCTANT,),
        )
        for n in (1, 2)
    ),
    Row(
        "test_roof_add", ["roof", "add", "FILE0", "FILE1", "FILE2"], 0, '{"kind": "roof", "peaks": [[0, 0, 0]]}\n',
        files=({"peaks": [[1, 0, 0]]}, {"peaks": [[0, 1, 0]]}, {"peaks": [[0, 0, 1]]}),
    ),
    # -- the parser
    *(
        Row(
            f"test_parser_errors_print_usage_then_message[argv{i}-{message}]", argv, 1,
            err=f"{USAGE}error: {message}\n",
        )
        for i, (argv, message) in enumerate([
            (
                ["no-such-command"],
                "argument command: invalid choice: 'no-such-command' (choose from 'surface',"
                " 'trajectories', 'encode', 'decode', 'roof', 'norm', 'classify', 'render')",
            ),
            (["surface"], "the following arguments are required: --peaks, --window"),
            (["surface", "--peaks", "hex.json", "--window=bad"], f"argument --window: bad window 'bad', {BAD_WINDOW}"),
            (
                ["encode", "--peaks", "hex.json", "--start", "1,1,0:31", "--max-steps", "0"],
                "argument --max-steps: expected a positive integer, got '0'",
            ),
            (["roof"], "the following arguments are required: roof_command"),
            (["decode", "DUXD"], "the following arguments are required: --start"),
            (["render", "-i", "x.json"], "unrecognized arguments: -i x.json"),
            (["render", "--format", "json"], "argument --format: invalid choice: 'json' (choose from 'svg', 'ascii')"),
            (
                ["encode", "--peaks", "hex.json", "--start", "1,1,0:31", "--start-sign", "U"],
                "unrecognized arguments: --start-sign U",
            ),
            (["render", "-o", "x.svg"], "unrecognized arguments: -o x.svg"),
        ])
    ),
    *(
        Row(
            f"test_all_and_start_are_exclusive_and_required[which{i}-{message}]",
            ["trajectories", "--peaks", "missing.json", *which], 1, err=f"{USAGE}error: {message}\n",
        )
        for i, (which, message) in enumerate([
            ([], "one of the arguments --all --start is required"),
            (["--all", "--start", "1,1,0:31"], "argument --start: not allowed with argument --all"),
        ])
    ),
    Row(
        "test_usage_errors", ["surface", "--peaks", "missing.json", "--window=0:0,0:0"], 1,
        err="error: [Errno 2] No such file or directory: 'missing.json'\n",
    ),
    Row(
        "test_decode_bad_alphabet_is_usage_error", ["decode", "DUXD", "--start", "1,1,0:31"], 1,
        err="error: code must be over U/D, got 'DUXD'\n",
    ),
    # -- --window
    *(
        Row(
            f"test_bad_window_message_reaches_stderr[{command}-{case}]",
            [command, "--peaks", "FILE0", f"--window={window}", *std], 1,
            err=f"{USAGE}error: argument --window: {message}\n", files=(HEX,),
        )
        for command, std in (("surface", []), ("classify", ["--std-peaks", "FILE0"]))
        for case, window, message in BAD_WINDOWS
    ),
    *(
        Row(
            f"test_window_takes_only_a_minus_and_ascii_digits[{number}]",
            ["surface", "--peaks", "hex.json", f"--window={window}"], 1,
            err=f"{USAGE}error: argument --window: bad window {window!r}, {BAD_WINDOW}\n",
        )
        for number in NOT_ASCII_INTEGERS
        for window in (f"{number}:20,0:1", f"-1:1,0:{number}")
    ),
    *(
        Row(
            f"test_window_is_required_before_any_file_is_read[{command}]",
            [command, "--peaks", "missing.json", *std], 1,
            err=f"{USAGE}error: the following arguments are required: --window\n",
        )
        for command, std in (("surface", []), ("classify", ["--std-peaks", "missing.json"]))
    ),
    # -- --max-steps and --start
    *(
        Row(
            f"test_max_steps_takes_only_ascii_digits[{number}]",
            ["encode", "--peaks", "hex.json", "--start", "1,1,0:31", "--max-steps", number], 1,
            err=f"{USAGE}error: argument --max-steps: expected a positive integer, got {number!r}\n",
        )
        for number in NOT_ASCII_INTEGERS
    ),
    # "abc" is not an integer at all: the other way to miss the budget type.
    *(
        Row(
            f"test_{which}_max_steps_is_rejected[{command}]",
            [command, "--peaks", "FILE0", "--start", "1,0,0:12", "--max-steps", steps], 1,
            err=f"{USAGE}error: argument --max-steps: expected a positive integer, got {steps!r}\n", files=(OCTANT,),
        )
        for which, steps, commands in (
            ("negative", "-1", ("trajectories", "encode")),
            ("negative", "abc", ("trajectories", "encode")),
            ("zero", "0", ("trajectories",)),
        )
        for command in commands
    ),
    *(
        Row(
            "test_max_steps_with_all_is_rejected", ["trajectories", "--peaks", peaks, "--all", "--max-steps", "5"], 1,
            err="error: --max-steps applies to --start only\n", files=(HEX,),
        )
        for peaks in ("FILE0", "missing.json")
    ),
    *(
        Row(
            f"test_bad_start_is_rejected_before_the_peaks_file[{command}]",
            [command, "--peaks", peaks, "--start", "bad"], 1, err="error: bad tile text 'bad'\n", files=(HEX,),
        )
        for command in ("trajectories", "encode")
        for peaks in ("FILE0", "missing.json")
    ),
    # -- peaks files
    *(
        Row(
            f"test_malformed_peaks_files_say_which_check_failed[{name}-{case}]", [*command, "FILE0"], 1,
            err=f"error: {message}\n", files=(text,),
        )
        for name, command in (("norm", ["norm", "--peaks"]), ("roof-add", ["roof", "add"]))
        for case, text, message in [
            ("string", '"peaks"', "peaks file must hold a JSON object"),
            ("kind", '{"peaks": [[1, 1, 0]], "kind": "pyramid"}', "kind must be cone or roof, got 'pyramid'"),
            ("null-kind", '{"peaks": [[1, 1, 0]], "kind": null}', "kind must be cone or roof, got None"),
            ("empty", '{"peaks": []}', NOT_A_PEAKS_LIST),
            ("object", '{"peaks": {"0": [1, 1, 0]}}', NOT_A_PEAKS_LIST),
            ("text", '{"peaks": "1,1,0"}', NOT_A_PEAKS_LIST),
            ("missing", "{}", NOT_A_PEAKS_LIST),
            ("pair", '{"peaks": [[1, 1]]}', "bad peak [1, 1]"),
        ]
    ),
    Row(
        "test_peaks_cap_holds_per_file_and_across_roof_add_files", ["roof", "add", "FILE0"], 0,
        json.dumps({"kind": "roof", **line_peaks(CAP)}) + "\n", files=(line_peaks(CAP),),
    ),
    Row(
        "test_peaks_cap_holds_per_file_and_across_roof_add_files", ["roof", "add", "FILE0"], 1,
        err=f"error: FILE0 has {CAP + 1} peaks, more than {CAP}\n", files=(line_peaks(CAP + 1),),
    ),
    Row(
        "test_peaks_cap_holds_per_file_and_across_roof_add_files", ["roof", "add", "FILE0", "FILE0"], 1,
        err=f"error: the files have {2 * (CAP // 2 + 1)} peaks, more than {CAP}\n", files=(line_peaks(CAP // 2 + 1),),
    ),
    Row(
        "test_boolean_coordinates_are_rejected", ["roof", "add", "FILE0"], 1, err="error: bad peak [True, 0, 0]\n",
        files=('{"peaks": [[true, 0, 0]]}',),
    ),
    Row(
        "test_peaks_file_must_be_an_object", ["norm", "--peaks", "FILE0"], 1,
        err="error: peaks file must hold a JSON object\n", files=("[[0, 0, 0]]",),
    ),
    *(
        Row(
            f"test_norm_of_open_cone_file_is_a_usage_error[argv{i}]", [*argv, "--peaks", "FILE0"], 1,
            err="error: norm is defined for roof-closed regions only\n", files=(CONE,),
        )
        for i, argv in enumerate([["norm"], ["trajectories", "--all"]])
    ),
    Row(
        "test_deeply_nested_json_is_a_usage_error[norm]", ["norm", "--peaks", "FILE0"], 1,
        err="error: JSON document is nested too deeply\n", files=(DEEP,),
    ),
    # -- render, from stdin
    Row(
        "test_deeply_nested_json_is_a_usage_error[render]", ["render"], 1,
        err="error: JSON document is nested too deeply\n", stdin=DEEP,
    ),
    # An empty document is malformed JSON, reported in json's own words.
    Row(
        "test_render_empty_stdin_and_empty_file_fail_alike", ["render"], 1,
        err="error: Expecting value: line 1 column 1 (char 0)\n",
    ),
    *(
        Row(
            f"test_render_rejects_malformed_documents[{fmt}-{'None' if doc is None else f'doc{i}'}]",
            ["render", "--format", fmt], 1, err=f"error: {message}\n", stdin=json.dumps(doc),
        )
        for fmt in ("svg", "ascii")
        for i, (doc, message) in enumerate(MALFORMED_DOCUMENTS)
    ),
    # -- geometry errors: exit 2, the message, then the state that replays it
    *(
        Row(
            f"test_geometry_errors_exit_2_with_their_message[argv{i}-{message}]", argv, 2,
            err=f"geometry error: {message}\n{replay}\n", files=(doc,),
        )
        for i, (argv, doc, message, replay) in enumerate([
            (["encode", "--peaks", "FILE0", "--start", "0,0,0:12"], HEX, OFF_SURFACE, HEX_OFF),
            (["trajectories", "--peaks", "FILE0", "--start", "0,0,0:12"], HEX, OFF_SURFACE, HEX_OFF),
            (["norm", "--peaks", "FILE0"], REPRO, OPEN_NORM_WALK, REPRO_WALK),
            (["trajectories", "--peaks", "FILE0", "--all"], REPRO, OPEN_NORM_WALK, REPRO_WALK),
        ])
    ),
]

# Inputs that hung or ran for minutes before their budgets: the hexagon
# pit plus a peak 10**6 away (a box of 1,000,035,000,306 cells), 100 plane
# points 600 wide (29 generators and 26 standard-roof corners over
# 2,688,231 cells; 134 s), and the 600-peak chain (i, -i, -2i), which
# `roof add` took 15.6 s and `norm` 44.8 s to close.  A peak 10**3000 away
# makes counts too long for Python to write as text, so the message gives
# their digits.  A 12,000-symbol one-chart `decode` ran for 37.6 s before
# the walk cap, and `decode` of "DDUU" * 250, one chart of 251 generators,
# for 7.8 s before the chart cover's budget.
PIT = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
CHAIN = [[i, -i, -2 * i] for i in range(600)]
SCAN = "In scan of {} cells over {} generators reads {} flat-generator pairs, more than 2000000"
HUGE_SCAN = SCAN.format("a 6001-digit number of", 6, "a 6002-digit number of")
NORM, ALL = ["norm", "--peaks"], ["trajectories", "--all", "--peaks"]
SUBPROCESS = [
    # Two peaks 10**6 apart: their standard roof adds no corner, so the In
    # scan returns before any section instead of sectioning the 4 * 10**12
    # flats of their box padded by 8.
    Row(
        "test_norm_of_far_apart_peaks_scans_nothing", ["norm", "--peaks", "FILE0"], 0,
        '{"norm": [], "trajectories": []}\n', files=({"peaks": [[0, 0, 0], [1000000, -1000000, 0]]},),
    ),
    *(
        Row(
            f"test_over_budget_inputs_exit_1_at_once[{case}]", [*argv, "FILE0"], 1, err=f"error: {message}\n",
            files=({"peaks": peaks},),
        )
        for case, argv, peaks, message in [
            ("pit_and_far_peak", NORM, [*PIT, [10**6, -(10**6), 0]], SCAN.format("1000035000306", 6, 12000420003672)),
            ("plane_norm", NORM, plane_peaks(100, 3, 300), SCAN.format("2688231", 55, 295705410)),
            ("plane_all", ALL, plane_peaks(100, 3, 300), SCAN.format("2688231", 55, 295705410)),
            ("chain_norm", NORM, CHAIN, "FILE0 has 600 peaks, more than 100"),
            ("chain_roof_add", ["roof", "add"], CHAIN, "FILE0 has 600 peaks, more than 100"),
            *(
                (f"pit_and_huge_peak_{name}", argv, [*PIT, [10**3000, -(10**3000), 0]], HUGE_SCAN)
                for name, argv in (("norm", NORM), ("all", ALL))
            ),
        ]
    ),
    # The --max-steps cases fail in the parser, so the named peaks file,
    # which does not exist, is never read.
    Row(
        "test_over_cap_walks_exit_1_at_once[decode_12000]", ["decode", "DU" * 6000, "--start=1,1,0:31"], 1,
        err=f"error: a code of 12000 symbols is longer than {shell.MAX_WALK}\n",
    ),
    *(
        Row(
            f"test_over_cap_walks_exit_1_at_once[{command}_over_cap]",
            [command, "--peaks", "missing.json", f"--max-steps={shell.MAX_WALK + 1}", "--start=1,1,0:31"], 1,
            err=f"{USAGE}error: argument --max-steps: a walk of {shell.MAX_WALK + 1} tiles is longer than "
            f"{shell.MAX_WALK}\n",
        )
        for command in ("trajectories", "encode")
    ),
    Row(
        "test_over_cap_walks_exit_1_at_once[decode_dduu_1000]", ["decode", "DDUU" * 250, "--start=1,1,0:31"], 1,
        err="error: chart cover of 1000 tiles reads more than 15000000 tile-generator pairs\n",
    ),
]


def _check(run):
    """The check of a row run by ``run``: its exit and stdout exactly, and
    its stderr exactly or, for an argparse error, its line after the
    usage text."""
    def check(row):
        code, out, err, _ = run(row)
        assert (code, out) == (row.exit, row.out)
        if row.err.startswith(USAGE):
            usage, sep, rest = err.partition("error: ")
            assert usage.startswith("usage: tritile") and usage.endswith("\n")
            assert sep + rest == row.err.removeprefix(USAGE)
        else:
            assert err == row.err
    return check


globals().update(table_tests(IN_PROCESS, _check(lambda row: cli(row.argv, row.files, row.stdin))))
globals().update(
    table_tests(SUBPROCESS, _check(lambda row: run_python(["-m", "tritile.shell", *row.argv], row.files, timeout=10)))
)
# The work-count rows that took over tests of this module run here, under their ids.
globals().update(work_tests(__name__))


def test_trajectories_all_hexagon():
    code, out, _, _ = cli(["trajectories", "--peaks", "FILE0", "--all"], [HEX])
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 1
    doc = docs[0]
    assert doc["closed"] is True
    assert doc["length"] == 6
    assert doc["code"] == "DUDUDU"
    assert sorted(doc["tiles"]) == sorted(HEX_WALK)
    assert doc["charts"] == [{"peaks": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "span": [0, 5]}]


def test_trajectories_start_truncates_with_exit_3():
    code, out, _, _ = cli(["trajectories", "--peaks", "FILE0", "--start", "1,0,0:12", "--max-steps", "20"], [OCTANT])
    assert code == 3
    doc = json.loads(out)
    assert doc["closed"] is False and doc["length"] == 20


def test_trajectories_start_budget_defaults_to_1000():
    code, out, _, _ = cli(["trajectories", "--peaks", "FILE0", "--start", "1,0,0:12"], [OCTANT])
    assert code == 3
    assert json.loads(out)["length"] == 1000


@pytest.mark.parametrize(
    "peaks, kind, start, gens",
    [(73, "cone", "0,0,0:12", 73), (100, "cone", "49,-49,-98:31", 51), (73, "roof", "36,-36,-72:13", 37)],
    ids=["cone_73", "cone_100", "roof_73"],
)
def test_peak_chain_walks_of_1000_steps_are_one_chart(peaks, kind, start, gens):
    # Walks on the chain (i, -i, -2i) that the chart cover's budget once
    # refused with exit 1: `--start` writes the walk's one chart, searched
    # for nowhere.  Its cone is the cone of the walk's bases, of `gens`
    # generators, and carries every tile.
    doc = {"peaks": [[i, -i, -2 * i] for i in range(peaks)], "kind": kind}
    argv = ["-m", "tritile.shell", "trajectories", "--peaks", "FILE0", f"--start={start}"]
    code, out, err, _ = run_python(argv, [doc], timeout=10)
    assert (code, err) == (3, "")
    walk = json.loads(out)
    tiles = [parse_tile(t) for t in walk["tiles"]]
    (chart,) = walk["charts"]
    assert (walk["closed"], walk["length"], chart["span"]) == (False, 1000, [0, 999])
    cone = brute_minimal(t[0] for t in tiles)
    assert chart["peaks"] == [list(g) for g in cone] and len(cone) == gens
    assert all(brute_boundary(cone, v) for t in tiles for v in vertices(t))


def test_decode_command():
    code, out, _, _ = cli(["decode", "DUDUDD", "--start", "1,1,0:31"])
    assert code == 0
    doc = json.loads(out)
    assert tuple(doc["tiles"]) == DECODE_DUDUDD
    assert [c["span"] for c in doc["charts"]] == [[0, 4], [1, 5]]
    assert doc["charts"][0]["peaks"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert doc["charts"][1]["peaks"] == [[0, 1, 1], [1, 0, 1]]


def test_decode_from_a_negative_start_in_the_equals_form():
    # The README's form for a --start that begins with `-`: the walk is
    # the one from 1,1,0:21 moved by (-6, 2, 0), as decode reads no surface.
    code, out, _, _ = cli(["decode", "DUDUDD", "--start=-5,3,0:21"])
    assert code == 0
    origin = cli(["decode", "DUDUDD", "--start=1,1,0:21"])[1]
    moved = [tile_text(translate_tile((-6, 2, 0), parse_tile(t))) for t in json.loads(origin)["tiles"]]
    assert json.loads(out)["tiles"] == moved


def test_roof_add_is_the_fold_of_the_files_roofs():
    # `roof add a b c` closes all the files' peaks at once; as roof closure
    # is a closure operator, that equals roof_add(roof_add(A, B), C) of
    # the files' roofs.  Each case repeats a file and adds a `kind: cone`
    # file that is not roof-closed, which `roof add` closes like any other.
    rng = random.Random(29)
    for _ in range(10):
        docs = [{"peaks": [list(g) for g in rand_pit_gens(rng, rng.randint(0, 2))]} for _ in range(rng.randint(1, 3))]
        names = [f"FILE{i}" for i in range(len(docs))] + ["FILE0", f"FILE{len(docs)}"]
        docs.append(CONE)
        rng.shuffle(names)
        code, out, _, _ = cli(["roof", "add", *names], docs)
        assert code == 0
        peaks = [docs[int(name.removeprefix("FILE"))]["peaks"] for name in names]
        total = functools.reduce(roof_add, [conj_roof_generators(q) for q in peaks])
        assert json.loads(out) == {"peaks": [list(g) for g in total.generators], "kind": "roof"}
        union = [q for qs in peaks for q in qs]
        for q in product(range(-4, 5), repeat=3):
            assert conj_contains(total, q) == brute_conj_roof_member(union, q), (names, q)


def test_roof_add_output_is_valid_peaks_input():
    code, out, _, _ = cli(["roof", "add", "FILE0", "FILE0"], [HEX])
    assert code == 0
    code, out2, _, _ = cli(["norm", "--peaks", "FILE0"], [out])
    assert code == 0
    assert len(json.loads(out2)["norm"]) == 6


def test_norm_command():
    code, out, _, _ = cli(["norm", "--peaks", "FILE0"], [HEX])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["norm"]) == 6
    assert [t["length"] for t in doc["trajectories"]] == [6]
    code, out, _, _ = cli(["norm", "--peaks", "FILE0"], [OCTANT])
    assert code == 0
    assert json.loads(out) == {"norm": [], "trajectories": []}


@pytest.mark.parametrize("command", ["trajectories", "encode"])
def test_max_steps_at_the_walk_cap_parses(command):
    argv = [command, "--peaks", "hex.json", "--start=1,1,0:31", f"--max-steps={shell.MAX_WALK}"]
    assert shell.build_parser().parse_args(argv).max_steps == shell.MAX_WALK


def test_classify_command():
    std = {"peaks": [[0, 0, 0]], "kind": "cone"}
    code, out, _, _ = cli(["classify", "--peaks", "FILE0", "--std-peaks", "FILE1", "--window=-5:5,-5:5"], [HEX, std])
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"in": 6, "out": 2 * 11 * 11 - 6, "bd": 0}
    assert doc["consistent"] is True
    assert sorted(doc["in"]) == sorted(HEX_WALK)


def test_surface_command():
    code, out, _, _ = cli(["surface", "--peaks", "FILE0", "--window=-1:1,-1:1"], [OCTANT])
    assert code == 0
    assert len(json.loads(out)["tiles"]) == 18


def render(doc: str, fmt: str) -> str:
    code, out, _, _ = cli(["render", "--format", fmt], stdin=doc)
    assert code == 0
    return out


def test_render_svg_and_ascii():
    doc = cli(["trajectories", "--peaks", "FILE0", "--all"], [HEX])[1]
    svg = render(doc, "svg")
    assert svg.count("<polygon") == 6
    assert svg.count("<text") == 6
    ascii_out = render(doc, "ascii")
    assert set(ascii_out) <= set("UD/\\ \n")
    assert render(doc, "ascii") == ascii_out  # byte-deterministic


def _svg_elements(svg: str) -> tuple[Counter, list[str]]:
    """Element counts and text contents of an SVG, parsed with expat."""
    tags, texts = Counter(), []
    parser = expat.ParserCreate()
    parser.StartElementHandler = lambda name, attrs: tags.update([name])
    parser.CharacterDataHandler = lambda data: texts.append(data) if data.strip() else None
    parser.Parse(svg, True)
    return tags, texts


def test_render_reads_norm_and_classify_documents_from_stdin():
    # The README's `tritile norm ... | tritile render` pipe, in one process.
    std = {"peaks": [[-1, 0, 1]], "kind": "cone"}
    code, norm_doc, _, _ = cli(["norm", "--peaks", "FILE0"], [HEX])
    assert code == 0
    argv = ["classify", "--peaks", "FILE0", "--std-peaks", "FILE1", "--window=-2:2,-2:2"]
    code, classify_doc, _, _ = cli(argv, [HEX, std])
    assert code == 0
    assert json.loads(classify_doc)["counts"] == {"in": 3, "out": 45, "bd": 2}
    walk_code = json.loads(norm_doc)["trajectories"][0]["code"]

    # The norm tiles are drawn unlabelled, then the walk over them with
    # its code letters; In and Bd tiles carry I and B, Out tiles none.
    pic = render(norm_doc, "ascii")
    assert sorted(c for c in pic if c not in " \n") == sorted(walk_code)
    pic = render(classify_doc, "ascii")
    assert set(pic) <= set("IB/\\ \n")
    assert (pic.count("I"), pic.count("B"), pic.count("/") + pic.count("\\")) == (3, 2, 45)

    tags, texts = _svg_elements(render(norm_doc, "svg"))
    assert (tags["svg"], tags["polygon"], tags["text"]) == (1, 12, 6)
    assert sorted(texts) == sorted(walk_code)
    tags, texts = _svg_elements(render(classify_doc, "svg"))
    assert (tags["svg"], tags["polygon"], tags["text"]) == (1, 50, 5)
    assert sorted(texts) == ["B", "B", "I", "I", "I"]


def test_render_svg_of_no_tiles_is_an_empty_canvas():
    tags, texts = _svg_elements(render(json.dumps({"tiles": []}), "svg"))
    assert (tags["svg"], tags["polygon"], tags["text"], texts) == (1, 0, 0, [])


def test_cli_output_is_deterministic():
    argv = ["trajectories", "--peaks", "FILE0", "--all"]
    assert cli(argv, [HEX])[:3] == cli(argv, [HEX])[:3]


def test_window_at_the_side_cap_is_within_budget():
    # Parsed only: a scan of the square takes seconds.
    assert shell.MAX_WINDOW_SIDE == 316
    for window in [(-158, 157, -158, 157), (-158, 157, 0, 0), (0, 0, -158, 157)]:
        argv = ["surface", "--peaks", "hex.json", "--window={}:{},{}:{}".format(*window)]
        assert shell.build_parser().parse_args(argv).window == surface.Window(*window)


@pytest.mark.parametrize("peaks, argv", [("HEX", ["trajectories", "--start", "0,0,0:12"]), ("REPRO", ["norm"])])
def test_geometry_error_replays_from_its_stderr_line(peaks, argv):
    # The printed peaks, as a cone file, and the printed tile as the start
    # of `trajectories --start` give the failure again: the same
    # off-surface error, or the norm walk, which here does not close within
    # the default budget either.
    code, _, err, _ = cli([*argv, "--peaks", "FILE0"], [{"HEX": HEX, "REPRO": REPRO}[peaks]])
    assert code == 2
    message, line = err.splitlines()
    state = json.loads(line)
    cone = {"peaks": state["peaks"], "kind": "cone"}
    code, out, err, _ = cli(["trajectories", "--peaks", "FILE0", "--start", state["tile"]], [cone])
    if peaks == "HEX":
        assert (code, out, err) == (2, "", f"{message}\n{line}\n")
    else:
        assert code == 3
        doc = json.loads(out)
        assert (doc["closed"], doc["tiles"][0]) == (False, state["tile"])


@pytest.mark.parametrize(
    "argv, shown",
    [(["--help"], "staircase tile geometry toolkit"), (["trajectories", "--help"], "(--all | --start START)")],
)
def test_help_exits_0_on_stdout(argv, shown):
    code, out, err, _ = cli(argv)
    assert code == 0
    assert out.startswith("usage: tritile") and shown in out
    assert err == ""


SEQUENCE = [
    ["no-such-command"],
    ["--help"],
    ["surface", "--peaks", "FILE0", "--window=5:-5,0:1"],
    ["trajectories", "--peaks", "FILE0", "--all", "--max-steps", "5"],
    ["norm", "--peaks", "FILE0"],
    ["decode", "DUDUDD", "--start=1,1,0:31"],
    ["encode", "--peaks", "FILE0", "--start", "0,0,0:12"],
]


def _results(argvs):
    return [cli(argv, [HEX])[:3] for argv in argvs]


def test_shared_parser_leaks_no_state_between_calls():
    first = _results(SEQUENCE)
    assert [r[0] for r in first] == [1, 0, 1, 1, 0, 0, 2]
    assert _results(SEQUENCE) == first


def test_parser_is_built_once_per_process(monkeypatch):
    cli(["norm", "--peaks", "FILE0"], [HEX])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _results(SEQUENCE)
    assert built == []


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["norm", "--peaks", "FILE0"], 0),
        (["decode", "DUDUDD", "--start=1,1,0:31"], 0),
        (["no-such-command"], 1),
        (["encode", "--peaks", "FILE0", "--start", "0,0,0:12"], 2),
    ],
)
def test_module_entry_point_matches_main(monkeypatch, argv, rc):
    # The usage text wraps at the terminal width; fix it on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    result = cli(argv, [HEX])[:3]
    assert result[0] == rc
    assert run_python(["-m", "tritile.shell", *argv], [HEX], timeout=120)[:3] == result
