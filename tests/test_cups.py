import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cupkl.weyl import PMSequence, enumerate_wp
from cupkl.cups import (
    DecoratedCupDiagram,
    _labels,
    cup_diagram,
    cut,
    cut_degree,
    decorated_cup,
    enumerate_decorated,
    kl_poly_diagrammatic,
    orient,
    orientations_of,
)
from cupkl.hecke import kl_table


def test_decorated_table_n4():
    want = {
        "++++": ((), ((1, False), (2, False), (3, False), (4, False))),
        "--++": (((1, 2, True),), ((3, False), (4, False))),
        "-+-+": (((2, 3, False),), ((1, True), (4, False))),
        "+--+": (((1, 2, False),), ((3, True), (4, False))),
        "-++-": (((3, 4, False),), ((1, True), (2, False))),
        "+-+-": (((1, 2, False), (3, 4, False)), ()),
        "++--": (((1, 4, False), (2, 3, False)), ()),
        "----": (((1, 2, True), (3, 4, True)), ()),
    }
    for s, (cups_, edges) in want.items():
        d = decorated_cup(PMSequence(s))
        assert (d.cups, d.edges) == (cups_, edges), s


def test_cutting_the_full_diagram_equals_the_direct_construction():
    for n in range(1, 8):
        for w in enumerate_wp(n):
            assert cut(cup_diagram(w)) == decorated_cup(w)


def test_orientation_polynomials_match_the_recursion():
    for n in range(1, 6):
        t = kl_table(n)
        for w in enumerate_wp(n):
            for v in enumerate_wp(n):
                assert kl_poly_diagrammatic(v, w) == t.poly(v, w)


def test_orientations_example():
    got = [(str(v), cl) for v, cl in orientations_of(PMSequence("-+-+"))]
    assert got == [("-+-+", 0), ("--++", 2)]


def test_clockwise_counts_are_even():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            for _, cl in orientations_of(w):
                assert cl % 2 == 0


def test_diagram_orients_its_own_weight_flat():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            assert orient(w, cup_diagram(w)) == 0


def test_enumeration_is_exactly_the_image():
    for n in range(1, 8):
        image = {decorated_cup(w) for w in enumerate_wp(n)}
        listed = enumerate_decorated(n)
        assert len(listed) == len(set(listed))
        assert set(listed) == image


def test_cut_degree_is_half_the_clockwise_count():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            full = cup_diagram(w)
            dec = decorated_cup(w)
            for v in enumerate_wp(n):
                cl = orient(v, full)
                deg = cut_degree(v, dec)
                if cl is None:
                    assert deg is None
                else:
                    assert deg == cl // 2


def test_matching_is_antisymmetric():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            points, partner, _ = cup_diagram(w).index
            for a, b in zip(points, (points[k] for k in partner)):
                assert points[partner[points.index(-a)]] == -b


def crossing_pairs(c):
    def crosses(x, y):
        (a, b), (c, d) = sorted([x, y])
        return a < c < b < d

    return {
        frozenset({x, y})
        for x, y in itertools.combinations(c.arcs, 2)
        if crosses(x, y)
    }


def test_crossings_happen_only_inside_linked_pairs():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            c = cup_diagram(w)
            assert crossing_pairs(c) == c.linked_pairs


def _even(signs):
    """Flip the last sign when the count of minuses is odd."""
    if signs.count("-") % 2:
        signs = signs[:-1] + ("+" if signs[-1] == "-" else "-")
    return PMSequence(signs)


sequences = st.text(alphabet="+-", min_size=1, max_size=12).map(_even)


@given(sequences)
def test_linking_pass_on_random_sequences(w):
    c = cup_diagram(w)
    assert cut(c) == decorated_cup(w)
    assert crossing_pairs(c) == c.linked_pairs
    assert all(len(pair) == 2 for pair in c.linked_pairs)


# the oracle scans all 2^(n-1) sequences, tens of ms at n = 12: no deadline
@settings(deadline=None)
@given(sequences)
def test_orientations_are_the_full_picture_scan(w):
    full = cup_diagram(w)
    scan = [(v, cl) for v in enumerate_wp(w.n) if (cl := orient(v, full)) is not None]
    assert orientations_of(w) == scan


def fixed_length(n):
    return st.text(alphabet="+-", min_size=n, max_size=n).map(_even)


pairs = st.integers(1, 9).flatmap(lambda n: st.tuples(fixed_length(n), fixed_length(n)))


# the first example at each n builds kl_table(n)
@settings(deadline=None)
@given(pairs)
def test_diagrammatic_polynomials_on_random_pairs(pair):
    v, w = pair
    assert kl_poly_diagrammatic(v, w) == kl_table(w.n).poly(v, w)


def test_weight_labels():
    n = 4
    for w in enumerate_wp(n):
        core = w.signs
        up = _labels(w)
        for p in range(1, 2 * n + 1):
            assert up[p] != up[-p]
        for p in range(n + 1, 2 * n + 1):
            assert up[p]
            assert not up[-p]
        for p in range(1, n + 1):
            assert up[p] == (core[p - 1] == "-")


def test_json_round_trip():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            d = decorated_cup(w)
            assert DecoratedCupDiagram.from_json(d.to_json()) == d


def test_json_reader_takes_only_real_ints_and_bools():
    good = decorated_cup(PMSequence("--++")).to_json()
    assert DecoratedCupDiagram.from_json(good) == decorated_cup(PMSequence("--++"))
    bad = [
        {**good, "n": 4.0},
        {**good, "n": "4"},
        {**good, "n": True},
        {**good, "cups": [{"from": 1, "to": 2, "dotted": "false"}]},
        {**good, "cups": [{"from": 1, "to": 2, "dotted": 1}]},
        {**good, "cups": [{"from": 1.0, "to": 2, "dotted": True}]},
        {**good, "edges": [{"at": 3, "dotted": False}, {"at": True, "dotted": False}]},
        {**good, "extra": 1},
        {**good, "cups": [{"from": 1, "to": 2, "dotted": True, "extra": 1}]},
    ]
    for data in bad:
        with pytest.raises(ValueError):
            DecoratedCupDiagram.from_json(data)


def test_ascii_renders():
    assert decorated_cup(PMSequence("--++")).to_ascii() == "1 2 3 4\n(*) | |"
    assert decorated_cup(PMSequence("-+-+")).to_ascii() == "1 2 3 4\n|*( ) |"
    assert decorated_cup(PMSequence("----")).to_ascii() == "1 2 3 4\n(*) (*)"
    assert decorated_cup(PMSequence("++++")).to_ascii() == "1 2 3 4\n| | | |"


def test_constructor_rejects_crossing_cups():
    with pytest.raises(ValueError):
        DecoratedCupDiagram(4, ((1, 3, False), (2, 4, False)), ())


def test_constructor_rejects_missing_points():
    with pytest.raises(ValueError):
        DecoratedCupDiagram(4, ((1, 2, False),), ((3, False),))


def test_constructor_rejects_edge_under_cup():
    with pytest.raises(ValueError):
        DecoratedCupDiagram(4, ((1, 3, False),), ((2, False), (4, False)))


def test_constructor_rejects_nested_dotted_cup():
    with pytest.raises(ValueError):
        DecoratedCupDiagram(
            6, ((1, 6, False), (2, 3, True), (4, 5, False)), ()
        )


def test_constructor_rejects_dotted_cup_behind_an_edge():
    with pytest.raises(ValueError):
        DecoratedCupDiagram(5, ((2, 3, True),), ((1, False), (4, False), (5, False)))
    DecoratedCupDiagram(5, ((1, 2, True),), ((3, False), (4, False), (5, False)))


def test_constructor_rejects_second_dotted_edge():
    with pytest.raises(ValueError):
        DecoratedCupDiagram(
            4, (), ((1, True), (2, True), (3, False), (4, False))
        )


def test_constructor_rejects_dotted_edge_not_leftmost():
    with pytest.raises(ValueError):
        DecoratedCupDiagram(5, ((1, 2, False),), ((3, False), (4, True), (5, False)))
    DecoratedCupDiagram(5, ((1, 2, False),), ((3, True), (4, False), (5, False)))


def test_constructor_rejects_odd_parity():
    # a lone plain cup cannot appear with no dotted edge
    with pytest.raises(ValueError):
        DecoratedCupDiagram(4, ((1, 2, False),), ((3, False), (4, False)))
