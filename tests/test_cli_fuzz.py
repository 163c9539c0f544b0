"""Fuzz of ``tritile render`` over every document shape the CLI emits.

Whatever the tiles, ``render`` ends with exit 0 and a picture, or with
exit 1, a message and nothing on stdout; never with a traceback.  The
draw is derandomized with a fixed example count, so every run feeds
the same documents.
"""

import contextlib
import io
import json
import sys
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
