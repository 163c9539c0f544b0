import time
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_ascii_picture
from tritile import render
from tritile.render import ascii_picture, svg_picture
from tritile.tiles import parse_tile

coords = st.integers(min_value=-12, max_value=12)
dirpairs = st.sampled_from([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b])
tiles = st.builds(
    lambda q1, q2, q3, d: ((q1, q2, q3), *d), coords, coords, coords, dirpairs
)
labels = st.sampled_from([None, "U", "D", "I", "B"])


@given(st.lists(st.tuples(tiles, labels), max_size=40))
def test_ascii_picture_matches_dense_oracle(pairs):
    assert ascii_picture(pairs) == dense_ascii_picture(pairs)


def test_ascii_picture_of_far_apart_tiles_is_output_sensitive():
    # The dense box between these two tiles has 10^12 cells.
    far = 10**6
    pairs = [(parse_tile("0,0,0:12"), None), (parse_tile(f"{far},{far},0:12"), None)]
    t0 = time.perf_counter()
    out = ascii_picture(pairs)
    assert time.perf_counter() - t0 < 1.0
    # Compared piecewise, so that a failure does not diff megabyte strings.
    top, *middle, bottom, end = out.split("\n")
    assert (top.lstrip(), len(top), set(middle), len(middle), bottom, end) == (
        "/", 2 * far + 1, {""}, far - 1, "/", ""
    )


@given(st.lists(st.tuples(tiles, labels), min_size=1, max_size=40))
def test_ascii_cap_counts_the_pictures_own_length(pairs):
    # The length checked against the cap is that of the picture drawn:
    # a cap of exactly that length draws it, one less refuses it.
    n = len(dense_ascii_picture(pairs))
    with mock.patch.object(render, "MAX_ASCII_CHARS", n):
        assert len(ascii_picture(pairs)) == n
    with mock.patch.object(render, "MAX_ASCII_CHARS", n - 1):
        with pytest.raises(ValueError, match=f"would have {n} characters"):
            ascii_picture(pairs)


def test_ascii_picture_of_tiles_10_to_the_15_apart_is_refused_before_drawing():
    # Drawn, it would be 2 * 10^15 + 2 characters: refused from the cells
    # alone, before a row is allocated.
    pairs = [(parse_tile("0,0,0:12"), None), (parse_tile("1000000000000000,0,0:12"), None)]
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as err:
        ascii_picture(pairs)
    assert time.perf_counter() - t0 < 1.0
    assert str(err.value) == (
        "the ASCII picture would have 2000000000000002 characters, "
        "more than 10000000; draw it with --format svg"
    )


def test_svg_picture_takes_vertex_coordinates_up_to_10_to_the_300():
    # The tile's vertices run from its base to base + e1 + e2.
    edge = 10**300
    assert svg_picture([(parse_tile(f"{edge - 1},0,{-edge}:12"), None)]).startswith("<?xml")
    for far in (f"{edge},0,0:12", f"0,0,{-edge - 1}:12"):
        with pytest.raises(ValueError, match="too large to draw as SVG"):
            svg_picture([(parse_tile(far), None)])
