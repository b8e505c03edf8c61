import itertools
import math

from hypothesis import given, strategies as st

from cupkl.laurent import LaurentPoly, ZERO
from cupkl.weyl import PMSequence, enumerate_wp, identity
from cupkl.cups import cup_diagram, orientations_of
from cupkl.circles import (
    CircleData,
    circle_diagram,
    circle_orientation_counts,
    hom_dim,
    hom_matrix,
    poincare_table,
    walk_circles,
)
from cupkl.hecke import kl_table
from oracles import oriented_basis


def point(n, k):
    """The boundary point at index k: -2n..-1 below the middle, 1..2n above."""
    return k - 2 * n if k < 2 * n else k - 2 * n + 1


def layers(diag):
    """The cup and cap layers of a diagram: the full cup diagrams of w and wprime."""
    return cup_diagram(diag.w), cup_diagram(diag.wprime)


def walk(diag, start):
    """The indices (0..4n-1) of the points of the circle through start,
    cup partner then cap partner until the start comes back."""
    cup, cap = layers(diag)
    on = []
    i = start
    while not on or i != start:
        on += (i, cup.partner[i])
        i = cap.partner[on[-1]]
    return on


def circle_points(diag, circle):
    return {point(diag.n, k) for k in walk(diag, circle.start)}


def crossing_pairs(layer):
    """The pairs of arcs of a layer that cross, each arc as its pair of
    end indices, read from the partners alone."""
    arcs = [(a, b) for a, b in enumerate(layer.partner) if a < b]
    return [{x, y} for x, y in itertools.combinations(arcs, 2) if x[0] < y[0] < x[1] < y[1]]


def self_intersecting(diag, circle):
    """The circle meets both arcs of some crossing pair of one layer."""
    on = set(walk(diag, circle.start))
    return any(
        all(on & set(arc) for arc in pair) for layer in layers(diag) for pair in crossing_pairs(layer)
    )


def brute_circle_count(diag, circle):
    """Every Up/Down labelling of the circle's points between -n and n,
    kept when every arc of both layers is one Up and one Down, the points
    above n are Up, those below -n Down, and no point and its negative
    on the circle share a label."""
    n = diag.n
    on = circle_points(diag, circle)
    free = sorted(p for p in on if -n <= p <= n)
    forced = {p: p > n for p in on if abs(p) > n}
    partners = [
        {point(n, k): point(n, j) for k, j in enumerate(layer.partner)} for layer in layers(diag)
    ]
    count = 0
    for bits in itertools.product((False, True), repeat=len(free)):
        labels = dict(zip(free, bits)) | forced
        if any(-p in labels and labels[-p] == labels[p] for p in labels):
            continue
        if all(labels[p] != labels[partner[p]] for partner in partners for p in on):
            count += 1
    return count


def test_propagated_count_equals_brute_force():
    for n in range(1, 6):
        for w in enumerate_wp(n):
            for wp in enumerate_wp(n):
                d = circle_diagram(wp, w)
                assert circle_orientation_counts(walk_circles(wp, w)) == [brute_circle_count(d, c) for c in d.circles]


def test_counts_read_no_color():
    # every circle of the walk recoloured, its outer and linked counts
    # zeroed: the counts are those of the real walk
    for n in range(1, 5):
        for w in enumerate_wp(n):
            for wp in enumerate_wp(n):
                walk = circles, up, owner = walk_circles(wp, w)
                for color in ("red", "green", "black"):
                    recoloured = [(color, c[1], 0, 0, 0) for c in circles], up, owner
                    assert circle_orientation_counts(recoloured) == circle_orientation_counts(walk)


def rewalk(diag):
    """The records of the circles of diag from the test's own walk over
    its layers, not its records: each circle from its lowest point not yet
    walked, its outer points counted, its linked pairs found among the
    crossing pairs of both layers, colored by the rule of the module
    docstring."""
    n = diag.n
    crossing = [pair for layer in layers(diag) for pair in crossing_pairs(layer)]
    records, walked = [], set()
    for start in range(4 * n):
        if start in walked:
            continue
        on = set(walk(diag, start))
        walked |= on
        upper = sum(1 for k in on if k >= 3 * n)
        lower = sum(1 for k in on if k < n)
        linked = sum(1 for pair in crossing if on & {k for arc in pair for k in arc})
        color = "red" if upper > 1 or lower > 1 or linked % 2 else "green" if upper or lower else "black"
        records.append(CircleData(color, start, upper, lower, linked))
    return records


def test_records_equal_the_rewalk():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            for wp in enumerate_wp(n):
                d = circle_diagram(wp, w)
                assert list(d.circles) == rewalk(d)


def test_black_circles_come_in_pairs():
    for n in range(1, 6):
        for w in enumerate_wp(n):
            for wp in enumerate_wp(n):
                assert circle_diagram(wp, w).count("black") % 2 == 0


def test_self_intersecting_circles_are_red():
    seen = 0
    for n in range(1, 6):
        for w in enumerate_wp(n):
            for wp in enumerate_wp(n):
                d = circle_diagram(wp, w)
                for c in d.circles:
                    if self_intersecting(d, c):
                        seen += 1
                        assert c.color == "red"
    assert seen > 0


def test_identity_pair_is_all_green():
    d = circle_diagram(identity(4), identity(4))
    assert [c.color for c in d.circles] == ["green"] * 8
    assert hom_dim(identity(4), identity(4)) == 1


def test_nested_dotted_pair_has_black_circles():
    w = PMSequence("----")
    d = circle_diagram(w, w)
    assert sorted(c.color for c in d.circles) == ["black"] * 4 + ["green"] * 4
    assert hom_dim(w, w) == 4


def test_graded_dimensions_match_polynomial_products():
    for n in range(1, 6):
        t = kl_table(n)
        table = poincare_table(n)
        els = enumerate_wp(n)
        for w in els:
            total = ZERO
            for wp in els:
                for v in els:
                    a, b = t.poly(v, w), t.poly(v, wp)
                    if a and b:
                        total = total + LaurentPoly.q_power(
                            a.terms[0][0] + b.terms[0][0]
                        )
            assert table[w] == total


def test_orientation_pass_equals_cut_picture_degrees():
    for n in range(1, 6):
        table = poincare_table(n)
        els = enumerate_wp(n)
        for w in els:
            total = ZERO
            for wp in els:
                for _, deg in oriented_basis(w, wp):
                    total = total + LaurentPoly.q_power(deg)
            assert table[w] == total


def test_graded_at_one_counts_dimensions():
    for n in range(1, 5):
        table = poincare_table(n)
        for w in enumerate_wp(n):
            assert table[w].eval_at_one() == sum(
                hom_dim(w, wp) for wp in enumerate_wp(n)
            )


def test_oriented_basis_size_and_degrees():
    for n in range(1, 5):
        for w in enumerate_wp(n):
            for wp in enumerate_wp(n):
                basis = oriented_basis(w, wp)
                assert len(basis) == hom_dim(w, wp)
                for v, deg in basis:
                    assert deg >= 0


def test_matrix_is_symmetric():
    for n in range(1, 6):
        m = hom_matrix(n)["dims"]
        for i, row in enumerate(m):
            for j, d in enumerate(row):
                assert d == m[j][i]


def test_walks_are_symmetric():
    # verify homdim walks each unordered pair once and checks both entries
    for n in range(1, 7):
        for w, wp in itertools.product(enumerate_wp(n), repeat=2):
            there, back = walk_circles(w, wp), walk_circles(wp, w)
            assert there[0] == back[0], (w, wp)
            assert circle_orientation_counts(there) == circle_orientation_counts(back), (w, wp)


def test_matrix_n3():
    assert hom_matrix(3) == {
        "n": 3,
        "order": ["+++", "+--", "-+-", "--+"],
        "dims": [[1, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]],
    }


def test_matrix_equals_the_circle_route():
    for n in range(1, 8):
        els = enumerate_wp(n)
        assert hom_matrix(n)["dims"] == [[hom_dim(w, x) for x in els] for w in els]


def test_total_dimension_sequence():
    assert [sum(map(sum, hom_matrix(n)["dims"])) for n in (1, 2, 3, 4, 7, 8, 9, 10)] == [
        1, 5, 13, 67, 2837, 14949, 44561, 236259
    ]


@given(
    st.integers(1, 10)
    .map(enumerate_wp)
    .flatmap(lambda els: st.tuples(st.sampled_from(els), st.sampled_from(els)))
)
def test_colors_and_records_on_random_pairs(pair):
    w, wp = pair
    n = w.n
    dim = hom_dim(w, wp)
    orienting = [{v for v, _ in orientations_of(x)} for x in (w, wp)]
    assert dim == len(orienting[0] & orienting[1])
    d = circle_diagram(wp, w)
    circles = d.circles
    assert all(min(walk(d, c.start)) == c.start for c in circles)
    points = [p for c in circles for p in circle_points(d, c)]
    assert sorted(points) == [*range(-2 * n, 0), *range(1, 2 * n + 1)]
    colors = [c.color for c in circles]
    assert dim == (0 if "red" in colors else 2 ** (colors.count("black") // 2))
    # a black circle and its mirror each count 2 alone, but the labels of
    # one fix those of the other, so the product is the dimension squared
    counts = circle_orientation_counts(walk_circles(wp, w))
    assert counts == [{"red": 0, "green": 1, "black": 2}[c] for c in colors]
    assert math.prod(counts) == dim**2


def test_poincare_table_keys():
    table = poincare_table(3)
    assert list(table) == list(enumerate_wp(3))
    assert all(p for p in table.values())


def test_json_shape():
    d = circle_diagram(PMSequence("-+-+"), PMSequence("--++"))
    data = d.to_json()
    assert data["n"] == 4
    assert set(data) == {"n", "cap", "cup", "circles"}
    for c in data["circles"]:
        assert set(c) == {"color", "upper_outer", "lower_outer", "linked_pairs"}

