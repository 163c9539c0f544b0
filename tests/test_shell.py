import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DECODE_DUDUDD, HEX_WALK, count_public_calls
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
    code, out = run(
        capsys, "encode", "--peaks", hex_peaks, "--start", "1,1,0:31", "--start-sign", "U"
    )
    assert (code, out) == (0, "UDUDUD\n")


def test_decode_command(capsys):
    code, out = run(capsys, "decode", "DUDUDD", "--start", "1,1,0:31")
    assert code == 0
    doc = json.loads(out)
    assert tuple(doc["tiles"]) == DECODE_DUDUDD
    assert [c["span"] for c in doc["charts"]] == [[0, 4], [1, 5]]
    assert doc["charts"][0]["peaks"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert doc["charts"][1]["peaks"] == [[0, 1, 1], [1, 0, 1]]


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


@pytest.mark.parametrize("argv", [["norm"], ["trajectories", "--all"]])
def test_norm_of_open_cone_file_is_a_usage_error(capsys, tmp_path, argv):
    # kind "cone" keeps the peaks as listed; these three are not roof-closed
    p = tmp_path / "cone.json"
    p.write_text(json.dumps({"peaks": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "kind": "cone"}))
    code = main([*argv, "--peaks", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "roof-closed" in captured.err


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


def test_render_svg_and_ascii(capsys, tmp_path, hex_peaks):
    _, doc = run(capsys, "trajectories", "--peaks", hex_peaks, "--all")
    src = tmp_path / "traj.json"
    src.write_text(doc)
    out_svg = tmp_path / "pic.svg"
    code, _ = run(capsys, "render", "-i", str(src), "--format", "svg", "-o", str(out_svg))
    assert code == 0
    svg = out_svg.read_text()
    assert svg.count("<polygon") == 6
    assert svg.count("<text") == 6
    code, ascii_out = run(capsys, "render", "-i", str(src), "--format", "ascii")
    assert code == 0
    assert set(ascii_out) <= set("UD/\\ \n")
    code, again = run(capsys, "render", "-i", str(src), "--format", "ascii")
    assert again == ascii_out  # byte-deterministic


def test_render_json_echo(capsys, tmp_path):
    src = tmp_path / "d.json"
    src.write_text('{"norm": [], "trajectories": []}')
    code, out = run(capsys, "render", "-i", str(src), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"norm": [], "trajectories": []}


def test_cli_output_is_deterministic(capsys, hex_peaks):
    _, a = run(capsys, "trajectories", "--peaks", hex_peaks, "--all")
    _, b = run(capsys, "trajectories", "--peaks", hex_peaks, "--all")
    assert a == b


def test_usage_errors(capsys, tmp_path, hex_peaks):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "surface", "--peaks", str(tmp_path / "missing.json"))[0] == 1
    assert run(capsys, "surface", "--peaks", hex_peaks, "--window=bad")[0] == 1
    assert run(capsys, "trajectories", "--peaks", hex_peaks)[0] == 1  # neither --all nor --start
    bad = tmp_path / "bad.json"
    bad.write_text('{"peaks": []}')
    assert run(capsys, "norm", "--peaks", str(bad))[0] == 1
    bad.write_text('{"peaks": [[1,1]]}')
    assert run(capsys, "norm", "--peaks", str(bad))[0] == 1
    bad.write_text('{"peaks": [[1,1,0]], "kind": "pyramid"}')
    assert run(capsys, "norm", "--peaks", str(bad))[0] == 1


@pytest.mark.parametrize(
    "window, message",
    [
        ("5:-5,0:1", "empty window '5:-5,0:1'"),
        ("0:1,3:2", "empty window '0:1,3:2'"),
        ("1:2,3", "bad window '1:2,3', expected uMIN:uMAX,vMIN:vMAX"),
        ("a:b,0:1", "bad window 'a:b,0:1', expected uMIN:uMAX,vMIN:vMAX"),
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


# Every geometry failure exits 2 with its message on stderr and nothing on
# stdout: a start tile off the hexagon's surface, and the smallest roof
# whose norm holds an open walk.
REPRO_PEAKS = {"peaks": [[-1, 0, 0], [0, -1, -1], [1, -2, 0]]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["encode", "--peaks", "HEX", "--start", "0,0,0:12"], "0,0,0:12 is not on the surface"),
        (
            ["trajectories", "--peaks", "HEX", "--start", "0,0,0:12"],
            "0,0,0:12 is not on the surface",
        ),
        (["norm", "--peaks", "REPRO"], "open trajectory in norm from 0,-1,0:23"),
        (["trajectories", "--peaks", "REPRO", "--all"], "open trajectory in norm from 0,-1,0:23"),
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
    assert captured.err == f"geometry error: {message}\n"


def test_max_steps_with_all_is_rejected(capsys, hex_peaks):
    code = main(["trajectories", "--peaks", hex_peaks, "--all", "--max-steps", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--max-steps applies to --start only" in captured.err


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
    assert "bad peak" in captured.err


def test_peaks_file_must_be_an_object(capsys, tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[[0, 0, 0]]")
    code = main(["norm", "--peaks", str(bad)])
    assert code == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trajectories", "encode"])
def test_negative_max_steps_is_rejected(capsys, octant_peaks, command):
    code = main([command, "--peaks", octant_peaks, "--start", "1,0,0:12", "--max-steps", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--max-steps" in captured.err


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


def test_pinned_public_call_counts(capsys, monkeypatch, tmp_path):
    # The benchmark's tracer self-check expects exactly these counts for
    # its hexagon `norm` and `decode DUDUDD` warm-ups; a change of call
    # path that moves them has to re-derive them there first.
    hexagon = tmp_path / "hexagon.json"
    hexagon.write_text(json.dumps({"peaks": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "kind": "roof"}))
    counts = count_public_calls(monkeypatch)
    assert main(["norm", "--peaks", str(hexagon)]) == 0
    assert counts == {"step": 6, "on_surface": 39, "section_at": 1450}
    counts.update({name: -n for name, n in counts.items()})
    assert main(["decode", "DUDUDD", "--start=1,1,0:31"]) == 0
    assert counts == {"step": 0, "on_surface": 49, "section_at": 0}
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        ["tiles"],
        None,
        {"tiles": [1]},
        {"tiles": "0,0,0:12"},
        {"in": [], "out": 5},
        {"in": [None]},
        {"tiles": ["0,0,0:12"], "code": 5},
        {"tiles": ["0,0,0:12"], "code": 0},
        {"tiles": ["0,0,0:12"], "code": False},
        {"tiles": ["0,0,0:12"], "code": []},
        {"tiles": ["0,0,0:12"], "code": {}},
        {"tiles": ["0,0,0:12"], "code": None},
        {"norm": [], "trajectories": [{"tiles": ["0,0,0:12"], "code": False}]},
        {"norm": ["0,0,0:12"], "trajectories": 3},
        {"norm": [], "trajectories": [7]},
        {"tiles": ["0,0,0:1"]},
        {"tiles": ["0,0,0:12", "1,0,0:23"], "code": "<&"},
        {"tiles": ["0,0,0:12"], "code": "UUU"},
        {"tiles": ["0,0,0:12", "1,0,0:23"], "code": "U"},
    ],
)
@pytest.mark.parametrize("fmt", ["svg", "ascii"])
def test_render_rejects_malformed_documents(capsys, tmp_path, doc, fmt):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    code = main(["render", "-i", str(src), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["render", "norm"])
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, command):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["render", "-i", str(src)] if command == "render" else ["norm", "--peaks", str(src)]
    code = main(argv)
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
