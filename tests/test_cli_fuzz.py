"""Fuzz of the CLI: ``render`` over every document shape the CLI emits,
and ``norm``, ``trajectories --all`` and ``roof add`` over generated
peaks files.

Whatever the tiles, ``render`` ends with exit 0 and a picture, or with
exit 1, a message and nothing on stdout; never with a traceback.
Whatever the peaks, the other three end within a fixed wall bound with
exit 0 and JSON lines, or with a non-zero exit and a message.  Each
draw is derandomized with a fixed example count, so every run feeds
the same inputs.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import time
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HEX_GENS, plane_peaks
from tritile import shell
from tritile.shell import main

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


def render(doc: dict, fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["render", "--format", fmt])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(documents(), st.sampled_from(["svg", "ascii"]))
# Two tiles 10^15 apart: the ASCII picture would be 2 * 10^15 characters.
@example({"tiles": ["0,0,0:12", "1000000000000000,0,0:12"]}, "ascii")
# A coordinate past the float range, and integer text past its digit limit.
@example({"tiles": [f"{10**400},0,0:12"]}, "svg")
@example({"in": ["1" * 5000 + ",0,0:12"], "out": [], "bd": []}, "ascii")
def test_render_exits_0_or_1_without_a_traceback(doc, fmt):
    code, out, err = render(doc, fmt)
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("error: ")
    else:
        assert err == "" and out


# -- norm, trajectories --all and roof add on generated peaks files ----------

# Wall bound of one call: the slowest capped input found, 99 peaks closed
# three times by `norm`, takes about 2.2 s (`shell.MAX_PEAKS`).
CALL_S = 5.0


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
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"peaks{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        argv = [*argv, *paths] if argv == ["roof", "add"] else [*argv, "--peaks", paths[0]]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


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
