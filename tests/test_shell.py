import argparse
import functools
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path
from xml.parsers import expat

import pytest

from conftest import (
    DECODE_DUDUDD,
    HEX_GENS,
    HEX_WALK,
    brute_conj_roof_member,
    count_public_calls,
    padded_box,
    plane_peaks,
    rand_pit_gens,
    reference_chart_cover,
    translate_tile,
)
from tritile import ConjUpSet, conj_contains, conj_roof_generators, gradient, norm, parse_tile, roof_add, tile_text
from tritile import shell, surface
from tritile.shell import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def hex_peaks(tmp_path):
    p = tmp_path / "hex.json"
    p.write_text(json.dumps({"peaks": [[1, 1, 0], [0, 1, 1], [1, 0, 1]], "kind": "roof"}))
    return str(p)


@pytest.fixture
def octant_peaks(tmp_path):
    p = tmp_path / "oct.json"
    p.write_text(json.dumps({"peaks": [[0, 0, 0]]}))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_trajectories_all_hexagon(capsys, hex_peaks):
    code, out = run(capsys, "trajectories", "--peaks", hex_peaks, "--all")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 1
    doc = docs[0]
    assert doc["closed"] is True
    assert doc["length"] == 6
    assert doc["code"] == "DUDUDU"
    assert sorted(doc["tiles"]) == sorted(HEX_WALK)
    assert doc["charts"] == [{"peaks": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "span": [0, 5]}]


def test_trajectories_start_truncates_with_exit_3(capsys, octant_peaks):
    code, out = run(
        capsys, "trajectories", "--peaks", octant_peaks, "--start", "1,0,0:12", "--max-steps", "20"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["closed"] is False and doc["length"] == 20


def test_encode_command(capsys, hex_peaks):
    code, out = run(capsys, "encode", "--peaks", hex_peaks, "--start", "1,1,0:31")
    assert (code, out) == (0, "DUDUDU\n")


def test_decode_command(capsys):
    code, out = run(capsys, "decode", "DUDUDD", "--start", "1,1,0:31")
    assert code == 0
    doc = json.loads(out)
    assert tuple(doc["tiles"]) == DECODE_DUDUDD
    assert [c["span"] for c in doc["charts"]] == [[0, 4], [1, 5]]
    assert doc["charts"][0]["peaks"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert doc["charts"][1]["peaks"] == [[0, 1, 1], [1, 0, 1]]


def test_decode_from_a_negative_start_in_the_equals_form(capsys):
    # The README's form for a --start that begins with `-`: the walk is
    # the one from 1,1,0:21 moved by (-6, 2, 0), as decode reads no surface.
    code, out = run(capsys, "decode", "DUDUDD", "--start=-5,3,0:21")
    assert code == 0
    _, origin = run(capsys, "decode", "DUDUDD", "--start=1,1,0:21")
    moved = [tile_text(translate_tile((-6, 2, 0), parse_tile(t))) for t in json.loads(origin)["tiles"]]
    assert json.loads(out)["tiles"] == moved


def test_decode_bad_alphabet_is_usage_error(capsys):
    code, _ = run(capsys, "decode", "DUXD", "--start", "1,1,0:31")
    assert code == 1


def test_roof_add(capsys, tmp_path):
    files = []
    for name, peak in (("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1])):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"peaks": [peak]}))
        files.append(str(p))
    code, out = run(capsys, "roof", "add", *files)
    assert code == 0
    assert json.loads(out) == {"peaks": [[0, 0, 0]], "kind": "roof"}


def test_roof_add_is_the_fold_of_the_files_roofs(capsys, tmp_path):
    # `roof add a b c` closes all the files' peaks at once; as roof closure
    # is a closure operator, that equals roof_add(roof_add(A, B), C) of
    # the files' roofs.  Each case repeats a file and adds a `kind: cone`
    # file that is not roof-closed, which `roof add` closes like any other.
    rng = random.Random(29)
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"peaks": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "kind": "cone"}))
    for case in range(10):
        paths = []
        for i in range(rng.randint(1, 3)):
            p = tmp_path / f"pits{case}_{i}.json"
            p.write_text(json.dumps({"peaks": [list(g) for g in rand_pit_gens(rng, rng.randint(0, 2))]}))
            paths.append(str(p))
        paths += [paths[0], str(cone)]
        rng.shuffle(paths)
        code, out = run(capsys, "roof", "add", *paths)
        assert code == 0
        peaks = [json.loads(Path(p).read_text())["peaks"] for p in paths]
        total = functools.reduce(roof_add, [conj_roof_generators(q) for q in peaks])
        assert json.loads(out) == {"peaks": [list(g) for g in total.generators], "kind": "roof"}
        union = [q for qs in peaks for q in qs]
        for q in product(range(-4, 5), repeat=3):
            assert conj_contains(total, q) == brute_conj_roof_member(union, q), (paths, q)


def test_roof_add_output_is_valid_peaks_input(capsys, tmp_path, hex_peaks):
    code, out = run(capsys, "roof", "add", hex_peaks, hex_peaks)
    assert code == 0
    p = tmp_path / "sum.json"
    p.write_text(out)
    code, out2 = run(capsys, "norm", "--peaks", str(p))
    assert code == 0
    assert len(json.loads(out2)["norm"]) == 6


def test_norm_command(capsys, hex_peaks, octant_peaks):
    code, out = run(capsys, "norm", "--peaks", hex_peaks)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["norm"]) == 6
    assert [t["length"] for t in doc["trajectories"]] == [6]
    code, out = run(capsys, "norm", "--peaks", octant_peaks)
    assert code == 0
    assert json.loads(out) == {"norm": [], "trajectories": []}


def test_norm_of_far_apart_peaks_scans_nothing(tmp_path):
    # Two peaks 10**6 apart: their standard roof adds no corner, so the In
    # scan returns before any section instead of sectioning the 4 * 10**12
    # flats of their box padded by 8.
    p = tmp_path / "far.json"
    p.write_text(json.dumps({"peaks": [[0, 0, 0], [1000000, -1000000, 0]]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tritile.shell", "norm", "--peaks", str(p)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"norm": [], "trajectories": []}


# Inputs that hung or ran for minutes before their budgets: the hexagon
# pit plus a peak 10**6 away (a box of 1,000,035,000,306 cells), 100 plane
# points 600 wide (29 generators and 26 standard-roof corners over
# 2,688,231 cells; 134 s), and the 600-peak chain (i, -i, -2i), which
# `roof add` took 15.6 s and `norm` 44.8 s to close.  A peak 10**3000 away
# makes counts too long for Python to write as text, so the message gives
# their digits.
@pytest.mark.parametrize(
    "argv, peaks, message",
    [
        (
            ["norm"],
            [[1, 1, 0], [0, 1, 1], [1, 0, 1], [10**6, -(10**6), 0]],
            "In scan of 1000035000306 cells over 6 generators reads 12000420003672 "
            "flat-generator pairs, more than 2000000",
        ),
        (
            ["norm"],
            plane_peaks(100, 3, 300),
            "In scan of 2688231 cells over 55 generators reads 295705410 "
            "flat-generator pairs, more than 2000000",
        ),
        (
            ["trajectories", "--all"],
            plane_peaks(100, 3, 300),
            "In scan of 2688231 cells over 55 generators reads 295705410 "
            "flat-generator pairs, more than 2000000",
        ),
        (["norm"], [[i, -i, -2 * i] for i in range(600)], "PEAKS has 600 peaks, more than 100"),
        (["roof", "add"], [[i, -i, -2 * i] for i in range(600)], "PEAKS has 600 peaks, more than 100"),
        *(
            (
                argv,
                [[1, 1, 0], [0, 1, 1], [1, 0, 1], [10**3000, -(10**3000), 0]],
                "In scan of a 6001-digit number of cells over 6 generators reads a 6002-digit number of "
                "flat-generator pairs, more than 2000000",
            )
            for argv in (["norm"], ["trajectories", "--all"])
        ),
    ],
    ids=[
        "pit_and_far_peak",
        "plane_norm",
        "plane_all",
        "chain_norm",
        "chain_roof_add",
        "pit_and_huge_peak_norm",
        "pit_and_huge_peak_all",
    ],
)
def test_over_budget_inputs_exit_1_at_once(tmp_path, argv, peaks, message):
    p = tmp_path / "peaks.json"
    p.write_text(json.dumps({"peaks": peaks}))
    argv = [*argv, str(p)] if argv == ["roof", "add"] else [*argv, "--peaks", str(p)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tritile.shell", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {message.replace('PEAKS', str(p))}\n"


# A 12,000-symbol one-chart `decode` ran for 37.6 s before the walk cap, and
# `decode` of "DDUU" * 250, one chart of 251 generators, for 7.8 s before the
# chart cover's budget.  The --max-steps cases fail in the parser, so the
# named peaks file, which does not exist, is never read.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["decode", "DU" * 6000], f"a code of 12000 symbols is longer than {shell.MAX_WALK}"),
        (
            ["trajectories", "--peaks", "missing.json", f"--max-steps={shell.MAX_WALK + 1}"],
            f"argument --max-steps: a walk of {shell.MAX_WALK + 1} tiles is longer than {shell.MAX_WALK}",
        ),
        (
            ["encode", "--peaks", "missing.json", f"--max-steps={shell.MAX_WALK + 1}"],
            f"argument --max-steps: a walk of {shell.MAX_WALK + 1} tiles is longer than {shell.MAX_WALK}",
        ),
        (["decode", "DDUU" * 250], "chart cover of 1000 tiles reads more than 15000000 tile-generator pairs"),
    ],
    ids=["decode_12000", "trajectories_over_cap", "encode_over_cap", "decode_dduu_1000"],
)
def test_over_cap_walks_exit_1_at_once(tmp_path, argv, message):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tritile.shell", *argv, "--start=1,1,0:31"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize("command", ["trajectories", "encode"])
def test_max_steps_at_the_walk_cap_parses(command):
    argv = [command, "--peaks", "hex.json", "--start=1,1,0:31", f"--max-steps={shell.MAX_WALK}"]
    assert shell.build_parser().parse_args(argv).max_steps == shell.MAX_WALK


def test_peaks_cap_holds_per_file_and_across_roof_add_files(capsys, tmp_path):
    # The peaks (i, -i, 0) close to themselves at once: only the count is tested.
    def peaks_file(name, lo, hi):
        p = tmp_path / name
        p.write_text(json.dumps({"peaks": [[i, -i, 0] for i in range(lo, hi)]}))
        return str(p)

    full, one_more = peaks_file("full.json", 0, shell.MAX_PEAKS), peaks_file("over.json", 0, shell.MAX_PEAKS + 1)
    code, out = run(capsys, "roof", "add", full)
    assert code == 0 and len(json.loads(out)["peaks"]) == shell.MAX_PEAKS
    assert main(["roof", "add", one_more]) == 1
    assert capsys.readouterr().err == f"error: {one_more} has {shell.MAX_PEAKS + 1} peaks, more than {shell.MAX_PEAKS}\n"
    half = peaks_file("half.json", 0, shell.MAX_PEAKS // 2 + 1)
    assert main(["roof", "add", half, half]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the files have {2 * (shell.MAX_PEAKS // 2 + 1)} peaks, more than {shell.MAX_PEAKS}\n"


@pytest.mark.parametrize("argv", [["norm"], ["trajectories", "--all"]])
def test_norm_of_open_cone_file_is_a_usage_error(capsys, tmp_path, argv):
    # kind "cone" keeps the peaks as listed; these three are not roof-closed
    p = tmp_path / "cone.json"
    p.write_text(json.dumps({"peaks": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "kind": "cone"}))
    code = main([*argv, "--peaks", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: norm is defined for roof-closed regions only\n"


def test_classify_command(capsys, hex_peaks, tmp_path):
    std = tmp_path / "std.json"
    std.write_text(json.dumps({"peaks": [[0, 0, 0]], "kind": "cone"}))
    code, out = run(
        capsys, "classify", "--peaks", hex_peaks, "--std-peaks", str(std), "--window=-5:5,-5:5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"in": 6, "out": 2 * 11 * 11 - 6, "bd": 0}
    assert doc["consistent"] is True
    assert sorted(doc["in"]) == sorted(HEX_WALK)


def test_surface_command(capsys, octant_peaks):
    code, out = run(capsys, "surface", "--peaks", octant_peaks, "--window=-1:1,-1:1")
    assert code == 0
    assert len(json.loads(out)["tiles"]) == 18


def render_stdin(capsys, monkeypatch, doc, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    return run(capsys, "render", *argv)


def test_render_svg_and_ascii(capsys, monkeypatch, hex_peaks):
    _, doc = run(capsys, "trajectories", "--peaks", hex_peaks, "--all")
    code, svg = render_stdin(capsys, monkeypatch, doc, "--format", "svg")
    assert code == 0
    assert svg.count("<polygon") == 6
    assert svg.count("<text") == 6
    code, ascii_out = render_stdin(capsys, monkeypatch, doc, "--format", "ascii")
    assert code == 0
    assert set(ascii_out) <= set("UD/\\ \n")
    code, again = render_stdin(capsys, monkeypatch, doc, "--format", "ascii")
    assert again == ascii_out  # byte-deterministic


def _svg_elements(svg: str) -> tuple[Counter, list[str]]:
    """Element counts and text contents of an SVG, parsed with expat."""
    tags, texts = Counter(), []
    parser = expat.ParserCreate()
    parser.StartElementHandler = lambda name, attrs: tags.update([name])
    parser.CharacterDataHandler = lambda data: texts.append(data) if data.strip() else None
    parser.Parse(svg, True)
    return tags, texts


def test_render_reads_norm_and_classify_documents_from_stdin(capsys, monkeypatch, tmp_path, hex_peaks):
    # The README's `tritile norm ... | tritile render` pipe, in one process.
    std = tmp_path / "std.json"
    std.write_text(json.dumps({"peaks": [[-1, 0, 1]], "kind": "cone"}))
    code, norm_doc = run(capsys, "norm", "--peaks", hex_peaks)
    assert code == 0
    code, classify_doc = run(
        capsys, "classify", "--peaks", hex_peaks, "--std-peaks", str(std), "--window=-2:2,-2:2"
    )
    assert code == 0
    assert json.loads(classify_doc)["counts"] == {"in": 3, "out": 45, "bd": 2}
    walk_code = json.loads(norm_doc)["trajectories"][0]["code"]

    def render(doc, fmt):
        code, out = render_stdin(capsys, monkeypatch, doc, "--format", fmt)
        assert code == 0
        return out

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


def test_render_svg_of_no_tiles_is_an_empty_canvas(capsys, monkeypatch):
    code, svg = render_stdin(capsys, monkeypatch, json.dumps({"tiles": []}), "--format", "svg")
    assert code == 0
    tags, texts = _svg_elements(svg)
    assert (tags["svg"], tags["polygon"], tags["text"], texts) == (1, 0, 0, [])


def test_render_empty_stdin_and_empty_file_fail_alike(capsys, monkeypatch):
    # An empty document is malformed JSON, reported in json's own words.
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code = main(["render"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: Expecting value: line 1 column 1 (char 0)\n"


def test_cli_output_is_deterministic(capsys, hex_peaks):
    _, a = run(capsys, "trajectories", "--peaks", hex_peaks, "--all")
    _, b = run(capsys, "trajectories", "--peaks", hex_peaks, "--all")
    assert a == b


def test_usage_errors(capsys, tmp_path, hex_peaks):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "surface", "--peaks", str(tmp_path / "missing.json"), "--window=0:0,0:0")[0] == 1
    assert run(capsys, "surface", "--peaks", hex_peaks, "--window=bad")[0] == 1
    assert run(capsys, "trajectories", "--peaks", hex_peaks)[0] == 1  # neither --all nor --start
    bad = tmp_path / "bad.json"
    bad.write_text('{"peaks": []}')
    assert run(capsys, "norm", "--peaks", str(bad))[0] == 1
    bad.write_text('{"peaks": [[1,1]]}')
    assert run(capsys, "norm", "--peaks", str(bad))[0] == 1
    bad.write_text('{"peaks": [[1,1,0]], "kind": "pyramid"}')
    assert run(capsys, "norm", "--peaks", str(bad))[0] == 1


HUGE = 10**2500  # 2,501 digits
HUGE_WINDOW = f"{-HUGE}:{HUGE},{-HUGE}:{HUGE}"


@pytest.mark.parametrize(
    "window, message",
    [
        ("5:-5,0:1", "empty window '5:-5,0:1'"),
        ("0:1,3:2", "empty window '0:1,3:2'"),
        ("1:2,3", "bad window '1:2,3', expected uMIN:uMAX,vMIN:vMAX"),
        ("a:b,0:1", "bad window 'a:b,0:1', expected uMIN:uMAX,vMIN:vMAX"),
        ("-158:158,-158:158", "window '-158:158,-158:158' is more than 316 cells across"),
        ("-158:158,0:0", "window '-158:158,0:0' is more than 316 cells across"),
        ("0:0,-158:158", "window '0:0,-158:158' is more than 316 cells across"),
        # Its cell count has more digits than Python prints: none is computed.
        pytest.param(HUGE_WINDOW, f"window {HUGE_WINDOW!r} is more than 316 cells across", id="huge"),
    ],
)
@pytest.mark.parametrize("command", ["surface", "classify"])
def test_bad_window_message_reaches_stderr(capsys, hex_peaks, command, window, message):
    argv = [command, "--peaks", hex_peaks, f"--window={window}"]
    if command == "classify":
        argv += ["--std-peaks", hex_peaks]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"argument --window: {message}\n" in captured.err


# Forms that int() takes but the README never writes: an underscore,
# padding spaces, a plus sign and non-ASCII digits.
NOT_ASCII_INTEGERS = ["1_0", " 1", "1 ", "+1", "١", "１２"]


@pytest.mark.parametrize("number", NOT_ASCII_INTEGERS)
def test_window_takes_only_a_minus_and_ascii_digits(capsys, number):
    for window in (f"{number}:20,0:1", f"-1:1,0:{number}"):
        code = main(["surface", "--peaks", "hex.json", f"--window={window}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"error: argument --window: bad window {window!r}, expected uMIN:uMAX,vMIN:vMAX"
        )


@pytest.mark.parametrize("number", NOT_ASCII_INTEGERS)
def test_max_steps_takes_only_ascii_digits(capsys, number):
    code = main(["encode", "--peaks", "hex.json", "--start", "1,1,0:31", "--max-steps", number])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"error: argument --max-steps: expected a positive integer, got {number!r}"
    )


@pytest.mark.parametrize("command", ["surface", "classify"])
def test_window_is_required_before_any_file_is_read(capsys, tmp_path, command):
    # The peaks files do not exist: reading one would be a different error.
    missing = str(tmp_path / "missing.json")
    argv = [command, "--peaks", missing]
    if command == "classify":
        argv += ["--std-peaks", missing]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: the following arguments are required: --window"


def test_window_at_the_side_cap_is_within_budget():
    # Parsed only: a scan of the square takes seconds.
    assert shell.MAX_WINDOW_SIDE == 316
    for window in [(-158, 157, -158, 157), (-158, 157, 0, 0), (0, 0, -158, 157)]:
        argv = ["surface", "--peaks", "hex.json", "--window={}:{},{}:{}".format(*window)]
        assert shell.build_parser().parse_args(argv).window == surface.Window(*window)


# Every geometry failure exits 2 with its message on stderr and nothing on
# stdout: a start tile off the hexagon's surface, and the smallest roof
# whose norm holds a walk that does not close inside it.  A second stderr
# line holds the state that replays it.
REPRO_PEAKS = {"peaks": [[-1, 0, 0], [0, -1, -1], [1, -2, 0]]}
HEX_OFF = '{"peaks": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "port": null, "tile": "0,0,0:12"}'
REPRO_WALK = '{"peaks": [[-1, 0, 0], [0, -1, -1], [1, -2, 0]], "port": null, "tile": "0,-1,0:23"}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["encode", "--peaks", "HEX", "--start", "0,0,0:12"], "0,0,0:12 is not on the surface"),
        (
            ["trajectories", "--peaks", "HEX", "--start", "0,0,0:12"],
            "0,0,0:12 is not on the surface",
        ),
        (["norm", "--peaks", "REPRO"], "walk from 0,-1,0:23 does not close inside the norm"),
        (["trajectories", "--peaks", "REPRO", "--all"], "walk from 0,-1,0:23 does not close inside the norm"),
    ],
)
def test_geometry_errors_exit_2_with_their_message(capsys, tmp_path, hex_peaks, argv, message):
    repro = tmp_path / "repro.json"
    repro.write_text(json.dumps(REPRO_PEAKS))
    files = {"HEX": hex_peaks, "REPRO": str(repro)}
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    replay = {"HEX": HEX_OFF, "REPRO": REPRO_WALK}[argv[2]]
    assert captured.err == f"geometry error: {message}\n{replay}\n"


def test_a_failing_norm_scans_once(monkeypatch, capsys, tmp_path, hex_peaks):
    # `norm` partitions the norm into closed walks before it scans for the
    # norm itself, so a walk that does not close fails after one In scan.
    # A norm that succeeds scans twice (bench/run.py HAND_COUNTS).
    repro = tmp_path / "repro.json"
    repro.write_text(json.dumps(REPRO_PEAKS))
    for path, code, scans in ((str(repro), 2, 1), (hex_peaks, 0, 2)):
        with monkeypatch.context() as patch:
            calls = count_public_calls(patch, (surface.in_tiles_expanded,))
            assert main(["norm", "--peaks", path]) == code
        assert calls["in_tiles_expanded"] == scans, path
    capsys.readouterr()


@pytest.mark.parametrize("peaks, argv", [("HEX", ["trajectories", "--start", "0,0,0:12"]), ("REPRO", ["norm"])])
def test_geometry_error_replays_from_its_stderr_line(capsys, tmp_path, hex_peaks, peaks, argv):
    # The printed peaks, as a cone file, and the printed tile as the start
    # of `trajectories --start` give the failure again: the same
    # off-surface error, or the norm walk, which here does not close within
    # the default budget either.
    repro = tmp_path / "repro.json"
    repro.write_text(json.dumps(REPRO_PEAKS))
    files = {"HEX": hex_peaks, "REPRO": str(repro)}
    assert main([*argv, "--peaks", files[peaks]]) == 2
    message, line = capsys.readouterr().err.splitlines()
    state = json.loads(line)
    cone = tmp_path / "replay.json"
    cone.write_text(json.dumps({"peaks": state["peaks"], "kind": "cone"}))
    code = main(["trajectories", "--peaks", str(cone), "--start", state["tile"]])
    captured = capsys.readouterr()
    if peaks == "HEX":
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"{message}\n{line}\n"
    else:
        assert code == 3
        doc = json.loads(captured.out)
        assert (doc["closed"], doc["tiles"][0]) == (False, state["tile"])


@pytest.mark.parametrize(
    "which, message",
    [
        ([], "one of the arguments --all --start is required"),
        (["--all", "--start", "1,1,0:31"], "argument --start: not allowed with argument --all"),
    ],
)
def test_all_and_start_are_exclusive_and_required(capsys, tmp_path, which, message):
    # argparse decides before the peaks file is read, so a missing file is not the error
    code = main(["trajectories", "--peaks", str(tmp_path / "missing.json"), *which])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: {message}"


# Each of these fails in the parser, so no named file is ever opened.
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["no-such-command"],
            "argument command: invalid choice: 'no-such-command' (choose from 'surface',"
            " 'trajectories', 'encode', 'decode', 'roof', 'norm', 'classify', 'render')",
        ),
        (["surface"], "the following arguments are required: --peaks, --window"),
        (
            ["surface", "--peaks", "hex.json", "--window=bad"],
            "argument --window: bad window 'bad', expected uMIN:uMAX,vMIN:vMAX",
        ),
        (
            ["encode", "--peaks", "hex.json", "--start", "1,1,0:31", "--max-steps", "0"],
            "argument --max-steps: expected a positive integer, got '0'",
        ),
        (["roof"], "the following arguments are required: roof_command"),
        (["decode", "DUXD"], "the following arguments are required: --start"),
        (["render", "-i", "x.json"], "unrecognized arguments: -i x.json"),
        (
            ["render", "--format", "json"],
            "argument --format: invalid choice: 'json' (choose from 'svg', 'ascii')",
        ),
        (
            ["encode", "--peaks", "hex.json", "--start", "1,1,0:31", "--start-sign", "U"],
            "unrecognized arguments: --start-sign U",
        ),
        (["render", "-o", "x.svg"], "unrecognized arguments: -o x.svg"),
    ],
)
def test_parser_errors_print_usage_then_message(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    usage, sep, rest = captured.err.partition("error: ")
    assert usage.startswith("usage: tritile") and usage.endswith("\n")
    assert (sep, rest) == ("error: ", message + "\n")


@pytest.mark.parametrize(
    "argv, shown",
    [(["--help"], "staircase tile geometry toolkit"), (["trajectories", "--help"], "(--all | --start START)")],
)
def test_help_exits_0_on_stdout(capsys, argv, shown):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("usage: tritile") and shown in captured.out
    assert captured.err == ""


def test_max_steps_with_all_is_rejected(capsys, tmp_path, hex_peaks):
    # Decided before the peaks file is read: a missing one is not reported.
    for peaks in (hex_peaks, str(tmp_path / "missing.json")):
        code = main(["trajectories", "--peaks", peaks, "--all", "--max-steps", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --max-steps applies to --start only\n"


@pytest.mark.parametrize("command", ["trajectories", "encode"])
def test_bad_start_is_rejected_before_the_peaks_file(capsys, tmp_path, hex_peaks, command):
    for peaks in (hex_peaks, str(tmp_path / "missing.json")):
        code = main([command, "--peaks", peaks, "--start", "bad"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: bad tile text 'bad'\n"


def test_trajectories_start_budget_defaults_to_1000(capsys, octant_peaks):
    code, out = run(capsys, "trajectories", "--peaks", octant_peaks, "--start", "1,0,0:12")
    assert code == 3
    assert json.loads(out)["length"] == 1000


def test_boolean_coordinates_are_rejected(capsys, tmp_path):
    bad = tmp_path / "bool.json"
    bad.write_text('{"peaks": [[true, 0, 0]]}')
    code = main(["roof", "add", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: bad peak [True, 0, 0]\n"


def test_peaks_file_must_be_an_object(capsys, tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[[0, 0, 0]]")
    code = main(["norm", "--peaks", str(bad)])
    assert code == 1
    assert capsys.readouterr().err == "error: peaks file must hold a JSON object\n"


NOT_A_PEAKS_LIST = "peaks must be a non-empty list of integer triples"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param('"peaks"', "peaks file must hold a JSON object", id="string"),
        pytest.param('{"peaks": [[1, 1, 0]], "kind": "pyramid"}', "kind must be cone or roof, got 'pyramid'", id="kind"),
        pytest.param('{"peaks": [[1, 1, 0]], "kind": null}', "kind must be cone or roof, got None", id="null-kind"),
        pytest.param('{"peaks": []}', NOT_A_PEAKS_LIST, id="empty"),
        pytest.param('{"peaks": {"0": [1, 1, 0]}}', NOT_A_PEAKS_LIST, id="object"),
        pytest.param('{"peaks": "1,1,0"}', NOT_A_PEAKS_LIST, id="text"),
        pytest.param("{}", NOT_A_PEAKS_LIST, id="missing"),
        pytest.param('{"peaks": [[1, 1]]}', "bad peak [1, 1]", id="pair"),
    ],
)
@pytest.mark.parametrize("command", [["norm", "--peaks"], ["roof", "add"]], ids=["norm", "roof-add"])
def test_malformed_peaks_files_say_which_check_failed(capsys, tmp_path, command, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main([*command, str(bad)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["trajectories", "encode"])
def test_negative_max_steps_is_rejected(capsys, octant_peaks, command):
    # "abc" is not an integer at all: the other way to miss the budget type
    for steps in ("-1", "abc"):
        code = main([command, "--peaks", octant_peaks, "--start", "1,0,0:12", "--max-steps", steps])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--max-steps" in captured.err
        assert f"expected a positive integer, got {steps!r}" in captured.err


@pytest.mark.parametrize("command", ["trajectories", "encode"])
def test_zero_max_steps_is_rejected(capsys, octant_peaks, command):
    code = main([command, "--peaks", octant_peaks, "--start", "1,0,0:12", "--max-steps", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "expected a positive integer" in captured.err


def test_max_steps_is_a_tile_budget(capsys, octant_peaks):
    code, out = run(capsys, "encode", "--peaks", octant_peaks, "--start", "1,0,0:12", "--max-steps", "1")
    assert (code, out) == (3, "D\n")
    code, out = run(capsys, "encode", "--peaks", octant_peaks, "--start", "1,0,0:12", "--max-steps", "2")
    assert (code, out) == (3, "DD\n")


def test_pinned_public_call_counts(monkeypatch, tmp_path):
    # The benchmark's tracer self-check pins the counts of its hexagon
    # `norm` and `decode DUDUDD` warm-ups in `HAND_COUNTS`; this test runs
    # that self-check, so a change of call path that moves them fails here
    # too.  Each pinned count is a formula over oracles: `norm` scans the
    # padded box of the peaks twice (once inside the trajectory partition,
    # then itself after the partition succeeds) and lifts each norm flat
    # once more, and the walk takes one start check, one check per step,
    # one more per step that flips the gradient and the chart cover's
    # checks.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run as bench_run
    import workloads

    window = padded_box(HEX_GENS, 8)
    flats = 2 * (window.u_max - window.u_min + 1) * (window.v_max - window.v_min + 1)
    lifts = len(norm(ConjUpSet(HEX_GENS)))
    walk = [parse_tile(t) for t in HEX_WALK]
    flips = sum(gradient(a) != gradient(b) for a, b in zip(walk, walk[1:] + walk[:1]))
    with monkeypatch.context() as patch:
        counts = count_public_calls(patch, (surface.on_surface,))
        reference_chart_cover(walk)
        hex_cover = counts["on_surface"]
        reference_chart_cover([parse_tile(t) for t in DECODE_DUDUDD])
        decode_cover = counts["on_surface"] - hex_cover
    assert (flats, lifts, len(HEX_WALK), flips, hex_cover, decode_cover) == (722, 6, 6, 6, 26, 49)
    hand = bench_run.HAND_COUNTS
    assert hand["norm"] == {
        "dynamics.step": len(HEX_WALK),
        "surface.on_surface": 1 + len(HEX_WALK) + flips + hex_cover,
        "surface.section_at": 2 * flats + lifts,
    }
    assert hand["decode"] == {"dynamics.step": 0, "surface.on_surface": decode_cover, "surface.section_at": 0}
    problems = []
    bench_run.self_check(shell, workloads.warmup(workloads.Inputs(str(tmp_path))), problems)
    assert problems == []


NOT_AN_OBJECT = "document must be a JSON object"
BAD_CODE = "'code' must be a string of U and D"
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


# Each case is named by its position, docN, and the null document None.
@pytest.mark.parametrize(
    "doc, message",
    [pytest.param(*case, id="None" if case[0] is None else f"doc{i}") for i, case in enumerate(MALFORMED_DOCUMENTS)],
)
@pytest.mark.parametrize("fmt", ["svg", "ascii"])
def test_render_rejects_malformed_documents(capsys, monkeypatch, doc, message, fmt):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main(["render", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["render", "norm"])
def test_deeply_nested_json_is_a_usage_error(capsys, monkeypatch, tmp_path, command):
    deep = "[" * 100_000 + "]" * 100_000
    src = tmp_path / "deep.json"
    src.write_text(deep)
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    code = main(["render"] if command == "render" else ["norm", "--peaks", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert "nested too deeply" in captured.err


def _sequence(hex_peaks):
    return [
        ["no-such-command"],
        ["--help"],
        ["surface", "--peaks", hex_peaks, "--window=5:-5,0:1"],
        ["trajectories", "--peaks", hex_peaks, "--all", "--max-steps", "5"],
        ["norm", "--peaks", hex_peaks],
        ["decode", "DUDUDD", "--start=1,1,0:31"],
        ["encode", "--peaks", hex_peaks, "--start", "0,0,0:12"],
    ]


def _results(capsys, argvs):
    results = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_shared_parser_leaks_no_state_between_calls(capsys, hex_peaks):
    first = _results(capsys, _sequence(hex_peaks))
    assert [r[0] for r in first] == [1, 0, 1, 1, 0, 0, 2]
    assert _results(capsys, _sequence(hex_peaks)) == first


def test_parser_is_built_once_per_process(capsys, monkeypatch, hex_peaks):
    main(["norm", "--peaks", hex_peaks])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _results(capsys, _sequence(hex_peaks))
    assert built == []


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["norm", "--peaks", "HEX"], 0),
        (["decode", "DUDUDD", "--start=1,1,0:31"], 0),
        (["no-such-command"], 1),
        (["encode", "--peaks", "HEX", "--start", "0,0,0:12"], 2),
    ],
)
def test_module_entry_point_matches_main(capsys, monkeypatch, tmp_path, hex_peaks, argv, rc):
    argv = [hex_peaks if a == "HEX" else a for a in argv]
    # The usage text wraps at the terminal width; fix it on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tritile.shell", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    code = main(argv)
    captured = capsys.readouterr()
    assert code == rc
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
