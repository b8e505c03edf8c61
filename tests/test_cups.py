import itertools
import math

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
    kl_poly_diagrammatic,
    matching,
    orientations_of,
    perfect,
)
from cupkl.hecke import kl_table
from oracles import enumerate_decorated, orient, planar


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


def test_perfect_is_the_catalan_many_non_crossing_perfect_matchings():
    for k in range(8):
        points = tuple(range(1, 2 * k + 1))
        matchings = list(perfect(points))
        assert len(matchings) == len(set(matchings)) == math.comb(2 * k, k) // (k + 1)
        for pairs in matchings:
            assert sorted(p for pair in pairs for p in pair) == list(points)
            assert not any(a < c < b < d for (a, b), (c, d) in itertools.permutations(pairs, 2)), pairs
        assert matchings == [pairs for pairs, unmatched in planar(points) if not unmatched]


def test_cut_degree_is_half_the_clockwise_count():
    # and each row of cut_degree is the orientations_of row verify kl checks
    for n in range(1, 7):
        for w in enumerate_wp(n):
            full = cup_diagram(w)
            dec = decorated_cup(w)
            row = {}
            for v in enumerate_wp(n):
                cl = orient(v, full)
                deg = row[v] = cut_degree(v, dec)
                if cl is None:
                    assert deg is None
                else:
                    assert deg == cl // 2
            orientations = {v: r // 2 for v, r in orientations_of(w)}
            assert row == {v: orientations.get(v) for v in enumerate_wp(n)}, w


def boundary(n):
    """The 4n boundary points from the left; a point's index is its
    position here."""
    return [*range(-2 * n, 0), *range(1, 2 * n + 1)]


def test_matching_is_antisymmetric():
    # the arc at the negative of a point ends at the negative of its partner
    for n in range(1, 7):
        points = boundary(n)
        for w in enumerate_wp(n):
            partner = cup_diagram(w).partner
            for k, p in enumerate(points):
                assert partner[points.index(-p)] == points.index(-points[partner[k]])


def arcs(partner):
    return [(a, b) for a, b in enumerate(partner) if a < b]


def crossing_pairs(partner):
    """The pairs of crossing arcs, read from the partners alone."""
    return {frozenset({x, y}) for x, y in itertools.combinations(arcs(partner), 2) if x[0] < y[0] < x[1] < y[1]}


def marked_pairs(c):
    """The arcs carrying each linked pair bit; both ends of an arc carry
    the same bit."""
    marked = {}
    for a, b in arcs(c.partner):
        assert c.bits[a] == c.bits[b]
        if c.bits[a]:
            marked.setdefault(c.bits[a], set()).add((a, b))
    assert all(bit.bit_count() == 1 for bit in marked)
    return {frozenset(pair) for pair in marked.values()}


def test_crossings_happen_only_inside_linked_pairs():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            c = cup_diagram(w)
            assert crossing_pairs(c.partner) == marked_pairs(c)


def test_matching_is_planar_and_agrees_off_the_linked_pairs():
    for n in range(1, 7):
        for w in enumerate_wp(n):
            partner, c = matching(w), cup_diagram(w)
            assert crossing_pairs(partner) == set()
            assert all(c.partner[k] == partner[k] for k in range(4 * n) if not c.bits[k])


def _even(signs):
    """Flip the last sign when the count of minuses is odd."""
    if signs.count("-") % 2:
        signs = signs[:-1] + ("+" if signs[-1] == "-" else "-")
    return PMSequence(signs)


def fixed_length(n):
    return st.text(alphabet="+-", min_size=n, max_size=n).map(_even)


sequences = st.text(alphabet="+-", min_size=1, max_size=12).map(_even)
# uniform in n: a plain text strategy rarely draws more than a few dozen signs
long_sequences = st.integers(13, 200).flatmap(fixed_length)


@settings(deadline=None)
@given(st.one_of(sequences, long_sequences))
def test_linking_pass_on_random_sequences(w):
    c = cup_diagram(w)
    assert cut(c) == decorated_cup(w)
    pairs = crossing_pairs(c.partner)
    assert pairs == marked_pairs(c)
    assert all(len(pair) == 2 for pair in pairs)
    assert len(set().union(*pairs)) == 2 * len(pairs)


def full_picture_scan(w):
    """Each v orienting the full cup diagram of w, with its clockwise count, in enumeration order."""
    full = cup_diagram(w)
    return [(v, cl) for v in enumerate_wp(w.n) if (cl := orient(v, full)) is not None]


# the oracle scans all 2^(n-1) sequences, tens of ms at n = 12: no deadline
@settings(deadline=None)
@given(sequences)
def test_orientations_are_the_full_picture_scan(w):
    assert orientations_of(w) == full_picture_scan(w)


@pytest.mark.parametrize("n", range(1, 9))
def test_orientations_are_the_full_picture_scan_for_every_element(n):
    # the walk emits in enumeration order with no sort, so the order is compared too
    for w in enumerate_wp(n):
        assert orientations_of(w) == full_picture_scan(w), w


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
        up = dict(zip(boundary(n), _labels(w), strict=True))
        for p in range(1, 2 * n + 1):
            assert up[p] != up[-p]
        for p in range(n + 1, 2 * n + 1):
            assert up[p]
            assert not up[-p]
        for p in range(1, n + 1):
            assert up[p] == (core[p - 1] == "-")


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
