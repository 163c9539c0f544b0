from hypothesis import given
from hypothesis import strategies as st

import pytest

from tritile import flatten, gradient, parse_tile, sigma, tile_text, vertices
from tritile.lattice import componentwise_le
from tritile.tiles import Port, SlantTile, port_candidates, tile

coords = st.integers(min_value=-20, max_value=20)
dirpairs = st.sampled_from([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b])
tiles = st.builds(
    lambda q1, q2, q3, d: ((q1, q2, q3), *d), coords, coords, coords, dirpairs
)


def test_sigma_example():
    assert sigma(tile(0, 0, 0, 1, 2)) == tile(1, 0, 0, 2, 3)


@given(tiles)
def test_sigma_cubed_is_diagonal_translation(s):
    (x, y, z), d1, d2 = s
    assert sigma(sigma(sigma(s))) == ((x + 1, y + 1, z + 1), d1, d2)


def test_gradient_examples():
    assert gradient(tile(1, 1, 0, 3, 1)) == (1, 3)
    assert gradient(tile(1, 0, 1, 2, 1)) == (1, 2)


@given(tiles)
def test_gradient_survives_three_shifts_not_one(s):
    assert gradient(sigma(sigma(sigma(s)))) == gradient(s)
    assert gradient(sigma(s)) != gradient(s)


def test_flatten_examples():
    assert flatten(tile(1, 1, 0, 3, 1)) == tile(0, 0, 0, 1, 2)
    assert flatten(tile(0, 0, 0, 1, 3)) == tile(0, 0, 0, 1, 3)


@given(tiles)
def test_flatten_is_orbit_invariant_and_canonical(s):
    f = flatten(s)
    assert f[1] == 1 and f[0][2] == 0
    assert flatten(sigma(s)) == f
    assert flatten(f) == f


def _flatten_by_sigma(s: SlantTile) -> SlantTile:
    while s[1] != 1:
        s = sigma(s)
    b, _, d2 = s
    return ((b[0] - b[2], b[1] - b[2], 0), 1, d2)


@given(coords, coords, st.sampled_from((2, 3)), st.integers(min_value=-30, max_value=30))
def test_flatten_fast_path_and_sigma_loop(u, v, d2, k):
    t = tile(u, v, 0, 1, d2)
    assert flatten(t) is t  # canonical: the same object back
    phases = (t, sigma(t), sigma(sigma(t)))
    for b, d1, d2 in phases:
        shifted = ((b[0] + k, b[1] + k, b[2] + k), d1, d2)
        assert flatten(shifted) == _flatten_by_sigma(shifted) == t


def test_vertices_examples():
    assert vertices(tile(0, 0, 0, 1, 2)) == ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    assert vertices(tile(0, 0, 0, 3, 1)) == ((0, 0, 0), (0, 0, 1), (1, 0, 1))


@given(tiles)
def test_base_is_minimum_top_is_maximum(s):
    base, mid, top = vertices(s)
    for v in (base, mid, top):
        assert componentwise_le(base, v)
        assert componentwise_le(v, top)


def test_port_candidates_examples():
    up_flip, up_keep = port_candidates(tile(1, 1, 0, 3, 1), Port.UP)
    assert up_flip == tile(1, 0, 1, 2, 1)
    assert up_keep == tile(1, 1, 1, 1, 3)
    down_flip, down_keep = port_candidates(tile(1, 0, 1, 2, 1), Port.DOWN)
    assert down_keep == tile(0, 0, 1, 1, 2)
    assert down_flip == tile(1, 0, 1, 2, 3)


@given(tiles, st.sampled_from(Port))
def test_port_candidates_share_the_port_edge(s, port):
    base, mid, top = vertices(s)
    edge = {mid, top} if port is Port.UP else {base, mid}
    pair = port_candidates(s, port)
    for cand in pair:
        assert edge <= set(vertices(cand))


@given(tiles, st.sampled_from(Port))
def test_candidates_are_one_shift_apart(s, port):
    flip, keep = port_candidates(s, port)
    if port is Port.UP:
        assert sigma(flip) == keep
    else:
        assert sigma(keep) == flip
    assert flatten(flip) == flatten(keep)


@given(tiles, st.sampled_from(Port))
def test_exactly_one_candidate_keeps_gradient(s, port):
    flip, keep = port_candidates(s, port)
    assert gradient(keep) == gradient(s)
    assert gradient(flip) != gradient(s)


@given(tiles, st.sampled_from(Port))
def test_back_links(s, port):
    flip, keep = port_candidates(s, port)
    # flip neighbours list s at the same port; keep neighbours at the other
    assert s in port_candidates(flip, port)
    assert s in port_candidates(keep, port.other)


@given(tiles)
def test_text_round_trip(s):
    assert parse_tile(tile_text(s)) == s


def test_parse_tile_rejects_garbage():
    for bad in ("", "1,1:12", "1,1,0:11", "1,1,0:14", "a,b,c:12", "1,1,0:1"):
        with pytest.raises(ValueError):
            parse_tile(bad)


# Forms that int() takes but tile_text never writes: an underscore,
# padding spaces, a plus sign and non-ASCII digits, in a coordinate and
# in the direction pair.
@pytest.mark.parametrize(
    "bad",
    [
        "1_0,0,0:12",
        " 1,0,0:12",
        "1,0,0 :12",
        "+1,0,0:12",
        "١,0,0:12",
        "0,0,0:１２",
        "0,0,0:+1",
    ],
)
def test_parse_tile_takes_only_a_minus_and_ascii_digits(bad):
    with pytest.raises(ValueError, match="bad tile text"):
        parse_tile(bad)
