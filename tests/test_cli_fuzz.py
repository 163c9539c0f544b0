"""Fuzz of the CLI: ``render`` over every document shape the CLI emits;
``norm``, ``trajectories --all`` and ``roof add`` over generated peaks
files; the walk commands over starts, budgets and codes; ``surface``
and ``classify`` over windows; and every peaks-reading command over
malformed peaks files.

Whatever the tiles, ``render`` ends with exit 0 and a picture, or with
exit 1, a message and nothing on stdout; never with a traceback.
Whatever the peaks, windows, starts, budgets and codes, the other
commands end within a wall bound derived from the caps the README
announces, with exit 0 (or 3 for an open walk) and their output, or
with a non-zero exit and a message.  A malformed peaks file exits 1.
Each draw is derandomized with a fixed example count, so every run
feeds the same inputs.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HEX_GENS, cli, plane_peaks
from tritile import ConjUpSet, project, section_at, shell, tile, tile_text

# Every document lies around an origin drawn from the full range, with a
# spread of its own.  Small spreads give pictures that draw; the rest
# reach past the ASCII cap, past the float range of SVG and towards the
# length limit of integer text.
coords = st.one_of(st.integers(), st.integers(min_value=-(10**1000), max_value=10**1000))
spreads = st.one_of(st.integers(min_value=0, max_value=12), coords.map(abs))
dirpairs = st.sampled_from(["12", "13", "21", "23", "31", "32"])


@st.composite
def documents(draw):
    origin = draw(st.tuples(coords, coords, coords))
    spread = draw(spreads)
    offsets = st.integers(min_value=-spread, max_value=spread)

    def tiles():
        n = draw(st.integers(min_value=0, max_value=6))
        out = []
        for _ in range(n):
            a, b, c = (o + draw(offsets) for o in origin)
            out.append(f"{a},{b},{c}:{draw(dirpairs)}")
        return out

    def walk():
        t = tiles()
        code = "".join(draw(st.sampled_from("UD")) for _ in t)
        return {"closed": draw(st.booleans()), "length": len(t), "tiles": t, "code": code, "charts": []}

    shape = draw(st.sampled_from(["walk", "surface", "norm", "classify"]))
    if shape == "walk":
        return walk()
    if shape == "surface":
        return {"tiles": tiles()}
    if shape == "norm":
        return {"norm": tiles(), "trajectories": [walk() for _ in range(draw(st.integers(0, 2)))]}
    i, o, b = tiles(), tiles(), tiles()
    counts = {"in": len(i), "out": len(o), "bd": len(b)}
    return {"in": i, "out": o, "bd": b, "counts": counts, "consistent": not b}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(documents(), st.sampled_from(["svg", "ascii"]))
# Two tiles 10^15 apart: the ASCII picture would be 2 * 10^15 characters.
@example({"tiles": ["0,0,0:12", "1000000000000000,0,0:12"]}, "ascii")
# A coordinate past the float range, and integer text past its digit limit.
@example({"tiles": [f"{10**400},0,0:12"]}, "svg")
@example({"in": ["1" * 5000 + ",0,0:12"], "out": [], "bd": []}, "ascii")
def test_render_exits_0_or_1_without_a_traceback(doc, fmt):
    code, out, err, _ = cli(["render", "--format", fmt], stdin=json.dumps(doc))
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("error: ")
    else:
        assert err == "" and out


# -- norm, trajectories --all and roof add on generated peaks files ----------

# Wall bounds of one call, about twice the slowest capped input the
# README announces for the command: 99 peaks closed three times by `norm`
# take about 2.2 s (`shell.MAX_PEAKS`); the slowest walk within the walk
# cap and the chart cover's budget, a `decode`, about 3.7 s
# (`shell.MAX_WALK`, `dynamics.MAX_COVER_UNITS`), while a `--start` walk
# at the cap searches no cover and takes about 0.09 s. `classify` over
# the square window at the side cap with two 100-peak files takes about
# 2.7 s in-process (`shell.MAX_WINDOW_SIDE`); its bound stays at 8 s,
# about three times.
CALL_S = 5.0
WALK_S = 8.0
WINDOW_S = 8.0


@st.composite
def peaks_docs(draw):
    """A peaks document: points of a box, a chain, two hexagon pits or
    repeats of one point, with coordinates up to 10^9 and up to a few more peaks
    than the cap, of either kind."""
    half = draw(st.sampled_from([0, 1, 4, 30, 1000, 10**9]))
    coord = st.integers(-half, half)
    n = draw(st.integers(min_value=1, max_value=shell.MAX_PEAKS + 3))
    x, y, z = origin = draw(st.tuples(coord, coord, coord))
    shape = draw(st.sampled_from(["box", "chain", "pits", "repeats"]))
    if shape == "box":
        pts = [draw(st.tuples(coord, coord, coord)) for _ in range(n)]
    elif shape == "chain":
        k = draw(st.integers(min_value=1, max_value=max(half, 1)))
        pts = [(x + i * k, y - i * k, z - 2 * i * k) for i in range(n)]
    elif shape == "pits":
        far = draw(st.tuples(coord, coord, coord))
        pts = [(c[0] + a, c[1] + b, c[2] + e) for c in (origin, far) for a, b, e in HEX_GENS]
    else:
        pts = [origin] * n
    return {"peaks": [list(p) for p in pts], "kind": draw(st.sampled_from(["roof", "cone"]))}


def peaks_command(argv: list[str], docs: list[dict]) -> tuple[int, str, str, float]:
    names = [f"FILE{i}" for i in range(len(docs))]
    return cli([*argv, *names] if argv == ["roof", "add"] else [*argv, "--peaks", names[0]], docs)


COMMANDS = st.sampled_from([["norm"], ["trajectories", "--all"], ["roof", "add"]])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(COMMANDS, st.lists(peaks_docs(), min_size=1, max_size=3))
# The hexagon pit plus a peak 10^6 away: a box of 10^12 cells.
@example(["norm"], [{"peaks": [*map(list, HEX_GENS), [10**6, -(10**6), 0]]}])
# 100 plane points 600 wide: 2,688,231 cells over 55 generators.
@example(["norm"], [{"peaks": plane_peaks(100, 3, 300)}])
# The 600-peak chain, closed from n^2 candidates.
@example(["roof", "add"], [{"peaks": [[i, -i, -2 * i] for i in range(600)]}])
@example(["norm"], [{"peaks": [[i, -i, -2 * i] for i in range(600)]}])
def test_peaks_commands_end_within_budget(argv, docs):
    code, out, err, seconds = peaks_command(argv, docs)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert seconds < CALL_S, (argv, seconds)
    if code == 0:
        # `trajectories --all` writes one line per closed walk, maybe none.
        lines = out.splitlines()
        assert err == "" and out == "".join(line + "\n" for line in lines)
        assert all(isinstance(json.loads(line), dict) for line in lines)
        assert len(lines) == 1 or argv == ["trajectories", "--all"]
    else:
        assert err.startswith(("error: ", "geometry error: "))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(peaks_docs())
# The smallest roof found whose norm holds a walk that does not close inside it.
@example({"peaks": [[-1, 0, 0], [0, -1, -1], [1, -2, 0]]})
def test_norm_and_trajectories_all_fail_alike(doc):
    # Both commands partition the norm into closed walks first, so on any
    # peaks file they exit alike, and a geometry error is the same two
    # stderr lines: the message and the state that replays it.
    code, _, err, _ = peaks_command(["norm"], [doc])
    code_all, _, err_all, _ = peaks_command(["trajectories", "--all"], [doc])
    assert code == code_all
    if code == 2:
        assert err == err_all


# -- the walk commands, windows and malformed peaks files ---------------------


def assert_ends_well(argv: list[str], result: tuple, bound: float) -> tuple[int, str | None]:
    """Exit 0 or 3 with one line on stdout and nothing on stderr, or 1 or 2
    with a message and nothing on stdout, within ``bound`` seconds and
    without a traceback.  Returns the exit code and the line, if any."""
    code, out, err, seconds = result
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert seconds < bound, (argv[:2], seconds)
    if code in (1, 2):
        assert out == ""
        assert err.startswith(("error: ", "geometry error: ", "usage: tritile"))
        return code, None
    assert err == "" and out.endswith("\n") and "\n" not in out[:-1]
    return code, out[:-1]


DIRS = st.sampled_from([(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])


@st.composite
def walks(draw):
    """argv and files of a walk command.  ``trajectories --start`` and
    ``encode`` walk on a generated peaks file from a start on the surface
    of the cone of its peaks (so on or off the file's surface) or from any
    tile, with the default budget or one of up to a few past the cap.
    ``decode`` reads a random code or a repeated word of up to a few past
    the cap, from any tile."""
    command = draw(st.sampled_from(["trajectories", "encode", "decode"]))
    n = draw(st.integers(min_value=1, max_value=shell.MAX_WALK + 3))
    anywhere = tile(*draw(st.tuples(st.integers(), st.integers(), st.integers())), *draw(DIRS))
    if command == "decode":
        rng = draw(st.randoms(use_true_random=False))
        word = draw(st.text("UD", min_size=1, max_size=8))
        code = (word * n)[:n] if draw(st.booleans()) else "".join(rng.choice("UD") for _ in range(n))
        return ["decode", code, f"--start={tile_text(anywhere)}"], []
    doc = draw(peaks_docs())
    start = anywhere
    if draw(st.booleans()):
        u, v = project(draw(st.sampled_from(doc["peaks"])))
        du, dv = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        flat = tile(u + du, v + dv, 0, 1, draw(st.sampled_from([2, 3])))
        start = section_at(ConjUpSet(tuple(map(tuple, doc["peaks"]))), flat)
    steps = [f"--max-steps={n}"] if draw(st.booleans()) else []
    return [command, "--peaks", "FILE0", f"--start={tile_text(start)}", *steps], [doc]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(walks())
# The 12,000-symbol one-chart decode that ran for 37.6 s before the walk cap.
@example((["decode", "DU" * 6000, "--start=1,1,0:31"], []))
# One chart of 776 generators: minutes before the chart cover's budget.
@example((["decode", "DDUU" * 775, "--start=0,0,0:12"], []))
# The slowest cover found within the budget: one chart of three generators.
@example((["decode", "DDDUUU" * 516 + "DDDU", "--start=0,0,0:12"], []))
# A 1,000-step walk on a 73-peak chain, one chart of 73 generators, which
# the chart cover's budget refused before `--start` stopped searching.
@example((
    ["trajectories", "--peaks", "FILE0", "--start=0,0,0:12"],
    [{"peaks": [[i, -i, -2 * i] for i in range(73)], "kind": "cone"}],
))
def test_walk_commands_end_within_budget(walk):
    argv, files = walk
    result = cli(argv, files)
    code, line = assert_ends_well(argv, result, WALK_S)
    if argv[0] == "decode":
        # decode reads no surface, so no geometry error and no open walk
        assert code in (0, 1)
    if argv[0] == "trajectories":
        # --start searches no chart cover, so its budget cannot refuse it
        assert "chart cover" not in result[2]
    if line is None:
        return
    if argv[0] == "encode":
        assert 1 <= len(line) <= shell.MAX_WALK and set(line) <= {"U", "D"}
        return
    doc = json.loads(line)
    assert doc["length"] == len(doc["tiles"]) == len(doc["code"]) <= shell.MAX_WALK
    assert doc["closed"] is (code == 0 and argv[0] == "trajectories")
    if argv[0] == "decode":
        assert doc["code"] == argv[1]
    else:
        # the walk's one chart, traced on one region
        assert [c["span"] for c in doc["charts"]] == [[0, doc["length"] - 1]]


@st.composite
def windows(draw):
    """argv and peaks documents of ``surface`` or ``classify`` over a
    window of any shape, each side up to a few cells past the cap, around
    a peak."""
    command = draw(st.sampled_from(["surface", "classify"]))
    docs = [draw(peaks_docs()) for _ in range(1 if command == "surface" else 2)]
    sides = st.integers(min_value=1, max_value=shell.MAX_WINDOW_SIDE + 3)
    width, height = draw(sides), draw(sides)
    u, v = project(draw(st.sampled_from(docs[0]["peaks"])))
    u -= draw(st.integers(min_value=0, max_value=width - 1))
    v -= draw(st.integers(min_value=0, max_value=height - 1))
    std = ["--std-peaks", "FILE1"] if command == "classify" else []
    return [command, "--peaks", "FILE0", *std, f"--window={u}:{u + width - 1},{v}:{v + height - 1}"], docs


@settings(max_examples=20, derandomize=True, deadline=None)
@given(windows())
# The slowest window found at the cap, the square, over 100 plane points
# 600 wide in both files; and one cell more across.
@example((
    ["classify", "--peaks", "FILE0", "--std-peaks", "FILE1", "--window=-158:157,-158:157"],
    [{"peaks": plane_peaks(100, 3, 300), "kind": "cone"}] * 2,
))
@example((["surface", "--peaks", "FILE0", "--window=0:316,0:0"], [{"peaks": [[0, 0, 0]]}]))
def test_window_commands_end_within_budget(window):
    argv, docs = window
    code, line = assert_ends_well(argv, cli(argv, docs), WINDOW_S)
    if line is None:
        return
    assert code == 0
    window = argv[-1].removeprefix("--window=")
    (u0, u1), (v0, v1) = (map(int, part.split(":")) for part in window.split(","))
    flats = 2 * (u1 - u0 + 1) * (v1 - v0 + 1)
    doc = json.loads(line)
    assert len(doc["tiles"]) == flats if argv[0] == "surface" else sum(doc["counts"].values()) == flats


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _is_triple(value) -> bool:
    return isinstance(value, list) and len(value) == 3 and all(type(c) is int for c in value)


@st.composite
def malformed_peaks(draw):
    """The text or bytes of a peaks file that every command refuses."""
    good = [[0, 0, 0], [1, -1, 0]]
    shape = draw(st.sampled_from([
        "non-object", "no peaks", "peaks not a non-empty list", "bad peak", "boolean", "float", "bad kind", "deep",
        "not JSON",
    ]))
    if shape == "non-object":
        return json.dumps(draw(json_values.filter(lambda v: not isinstance(v, dict))))
    if shape == "no peaks":
        keys = st.text(max_size=5).filter(lambda k: k != "peaks")
        return json.dumps(draw(st.dictionaries(keys, json_values, max_size=3)))
    if shape == "peaks not a non-empty list":
        return json.dumps({"peaks": draw(json_values.filter(lambda v: not (isinstance(v, list) and v)))})
    if shape == "bad kind":
        kind = draw(json_values.filter(lambda v: v not in ("cone", "roof")))
        return json.dumps({"peaks": good, "kind": kind})
    if shape == "deep":
        depth = draw(st.integers(min_value=1, max_value=5000))
        nest = "[" * depth + "]" * depth
        return draw(st.sampled_from([
            '{"peaks": [[0, 0, 0]], "kind": %s}', '{"peaks": [[0, 0, 0], %s]}', '{"peaks": %s}'
        ])) % nest
    if shape == "not JSON":  # cut short, or bytes that are not UTF-8, or a UTF-8 byte order mark
        text = json.dumps({"peaks": good})
        cut = text[: draw(st.integers(0, len(text) - 1))]
        return draw(st.sampled_from([cut, b"\xff" + text.encode(), b"\xef\xbb\xbf" + text.encode()]))
    if shape == "bad peak":
        bad = draw(json_values.filter(lambda v: not _is_triple(v)))
    else:
        bad = [0, 0, 0]
        bad[draw(st.integers(0, 2))] = draw(st.booleans() if shape == "boolean" else st.floats())
    peaks = list(good)
    peaks.insert(draw(st.integers(0, len(peaks))), bad)
    return json.dumps({"peaks": peaks})


PEAKS_READERS = st.sampled_from([
    ["surface", "--peaks", "FILE0", "--window=-2:2,-2:2"],
    ["classify", "--peaks", "FILE0", "--std-peaks", "FILE1", "--window=-2:2,-2:2"],
    ["classify", "--peaks", "FILE1", "--std-peaks", "FILE0", "--window=-2:2,-2:2"],
    ["trajectories", "--peaks", "FILE0", "--all"],
    ["trajectories", "--peaks", "FILE0", "--start=0,0,0:12"],
    ["encode", "--peaks", "FILE0", "--start=0,0,0:12"],
    ["norm", "--peaks", "FILE0"],
    ["roof", "add", "FILE1", "FILE0"],
])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(PEAKS_READERS, malformed_peaks())
def test_malformed_peaks_files_exit_1(argv, text):
    code, out, err, _ = cli(argv, [text, {"peaks": [[0, 0, 0]]}])
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err.startswith("error: ")
