import time

from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_ascii_picture
from tritile import QPoint, SlantTile
from tritile.render import ascii_picture
from tritile.tiles import parse_tile

coords = st.integers(min_value=-12, max_value=12)
dirpairs = st.sampled_from([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b])
tiles = st.builds(
    lambda q1, q2, q3, d: SlantTile(QPoint(q1, q2, q3), *d), coords, coords, coords, dirpairs
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
