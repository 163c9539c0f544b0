from hypothesis import given
from hypothesis import strategies as st

from tritile import embed, inverse_embed, monomial_text, project
from tritile.lattice import componentwise_le

coords = st.integers(min_value=-50, max_value=50)
qpoints = st.tuples(coords, coords, coords)


def test_embed_examples():
    assert embed(0, 0, 0) == (0, 0, 0)
    assert embed(1, 0, 0) == (0, 1, 1)
    assert embed(1, 1, 1) == (2, 2, 2)


def test_inverse_embed_examples():
    assert inverse_embed((0, 1, 1)) == (2, 0, 0)
    assert inverse_embed((1, 0, 0)) == (-1, 1, 1)
    assert inverse_embed((2, 2, 2)) == (2, 2, 2)


def test_project_examples():
    assert project((0, 0, 0)) == (0, 0)
    assert project((1, 1, 1)) == (0, 0)
    assert project((1, 1, 0)) == (1, 1)


def test_monomial_text():
    assert monomial_text((1, 1, 0)) == "x1^1 x2^1 x3^0"
    assert monomial_text((0, 0, 0)) == "x1^0 x2^0 x3^0"
    assert monomial_text((-1, 2, 1)) == "x1^-1 x2^2 x3^1"


@given(coords, coords, coords)
def test_inverse_embed_inverts_embed(l1, l2, l3):
    t = inverse_embed(embed(l1, l2, l3))
    assert t == (2 * l1, 2 * l2, 2 * l3)


@given(qpoints, st.integers(min_value=-10, max_value=10))
def test_project_kills_exactly_the_diagonal(q, k):
    shifted = (q[0] + k, q[1] + k, q[2] + k)
    assert project(shifted) == project(q)


@given(qpoints, qpoints)
def test_project_separates_non_diagonal_translates(a, b):
    if project(a) == project(b):
        d = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        assert d[0] == d[1] == d[2]


@given(qpoints)
def test_doubled_coordinates_have_pairwise_even_sums(q):
    t = inverse_embed(q)
    assert (t[0] + t[1]) % 2 == 0
    assert (t[0] + t[2]) % 2 == 0
    assert (t[1] + t[2]) % 2 == 0
    # and they recover q
    assert ((t[1] + t[2]) // 2, (t[0] + t[2]) // 2, (t[0] + t[1]) // 2) == tuple(q)


@given(qpoints, qpoints)
def test_embed_is_injective_on_distinct_points(a, b):
    ea = embed(*a)
    eb = embed(*b)
    if tuple(a) != tuple(b):
        assert ea != eb


def test_componentwise_order_is_partial():
    a, b = (0, 1, 0), (1, 0, 0)
    assert componentwise_le(a, a)
    assert not componentwise_le(a, b) and not componentwise_le(b, a)
    assert componentwise_le(a, (0, 2, 5))


def test_plane_point_is_plain_data():
    point = project((3, -1, 1))
    assert type(point) is tuple and point == (2, -2)
