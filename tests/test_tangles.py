import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cupkl.laurent import LOOP, ONE, ZERO
from cupkl.weyl import PMSequence, enumerate_wp, identity
from cupkl.cups import DecoratedCupDiagram, decorated_cup, perfect
from cupkl.hecke import kl_basis
from cupkl import tangles
from cupkl.checks import generated
from cupkl.tangles import (
    PRIME,
    DecoratedTangle,
    _join,
    _rank_mod_p,
    _rational_rank,
    _stack,
    act,
    cell_datum,
    cell_tangle,
    enumerate_basis_tangles,
    faithfulness_rank,
    generator,
    identity_tangle,
    mul,
    phi,
    star,
    tangle_of_cup,
    tlhat_basis,
)
from oracles import check_face, face_rule


def test_basis_counts():
    assert len(tlhat_basis(3)) == 10
    assert len(tlhat_basis(4)) == 26
    assert len(tlhat_basis(5)) == 126
    # the basis is counted nowhere else: tl dim sums the squared cell sizes
    for n in range(3, 9):
        assert len(tlhat_basis(n)) == sum(len(ms) ** 2 for ms in cell_datum(n).values()) == _algebra_dim(n)


def test_basis_equals_the_brute_force_oracle():
    for n in range(3, 8):
        assert tlhat_basis(n) == tuple(sorted(enumerate_basis_tangles(n), key=lambda t: t.strands))


def test_the_oracle_equals_a_filter_over_every_dot_pattern():
    # the oracle builds only even dot patterns on the strands the faces let
    # carry a dot; this filter puts every pattern on every perfect matching,
    # odd ones included, through the constructor
    def by_strands(ts):
        return sorted(ts, key=lambda t: t.strands)

    for n in range(3, 8):
        boundary = tuple(range(1, n + 1)) + tuple(range(2 * n, n, -1))
        kept = []
        for pairing in perfect(boundary):
            pairs = [(min(a, b), max(a, b)) for a, b in pairing]
            for dots in itertools.product((False, True), repeat=len(pairs)):
                try:
                    t = DecoratedTangle(n, n, tuple(sorted((a, b, d) for (a, b), d in zip(pairs, dots))))
                except ValueError:
                    continue
                (cups, top), _ = t.faces()
                struck = not top and sum(not d for *_, d in cups) % 2 == 1
                if t.dot_count() % 2 == 0 and not struck:
                    kept.append(t)
        assert by_strands(enumerate_basis_tangles(n)) == by_strands(kept), n


def test_the_oracle_builds_no_candidate_it_throws_away(monkeypatch):
    # every tangle the oracle builds is valid, and kept unless it is struck:
    # fully capped with an odd number of plain cups on its top face
    real = DecoratedTangle.__post_init__
    built, rejected = [], []

    def counted(t):
        try:
            real(t)
        except ValueError:
            rejected.append(t.strands)
            raise
        built.append(t)

    for n in range(3, 9):
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(DecoratedTangle, "__post_init__", counted)
            kept = enumerate_basis_tangles(n)
        struck = [t for t in built if not t.faces()[0][1] and sum(not d for *_, d in t.faces()[0][0]) % 2]
        assert not rejected, (n, rejected[:3])
        # 126 at n = 5, 1716 at n = 7 and 6435 at n = 8
        assert len(built) == len(kept) + len(struck) == math.comb(2 * n - 1, n - 1), n


def _then(pair, step):
    """A scalar multiple (coeff, thing) carried through step(thing),
    which returns another; zero is (ZERO, None) throughout."""
    coeff, thing = pair
    if thing is None:
        return ZERO, None
    c, result = step(thing)
    return (ZERO, None) if result is None or not c else (coeff * c, result)


def test_products_stay_in_the_basis():
    for n in (3, 4):
        basis = set(tlhat_basis(n))
        for x in basis:
            for y in basis:
                coeff, t = mul(x, y)
                assert t is None or t in basis, (x, y, coeff, t)


def test_multiplication_is_associative():
    for n in (3, 4):
        basis = tlhat_basis(n)
        product = functools.lru_cache(maxsize=None)(mul)
        for x, y, z in itertools.product(basis, repeat=3):
            left = _then(product(x, y), lambda t: product(t, z))
            right = _then(product(y, z), lambda t: product(x, t))
            assert left == right, (x, y, z)


def test_action_is_a_module_action():
    for n in (3, 4):
        basis = tlhat_basis(n)
        diagrams = [decorated_cup(w) for w in enumerate_wp(n)]
        product = functools.lru_cache(maxsize=None)(mul)
        for x, y in itertools.product(basis, repeat=2):
            for d in diagrams:
                lhs = _then(act(y, d), lambda e: act(x, e))
                rhs = _then(product(x, y), lambda t: act(t, d))
                assert lhs == rhs, (x, y, d)


def test_generators_square_to_the_loop():
    for n in range(2, 7):
        for i in range(n):
            e = generator(n, i)
            assert mul(e, e) == (LOOP, e)


def test_distant_generators_commute():
    for n in range(2, 7):
        pairs = [(0, 1)] + [
            (i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, 2)
        ]
        for i, j in pairs:
            assert mul(generator(n, i), generator(n, j)) == mul(generator(n, j), generator(n, i))


def test_adjacent_sandwich_collapses():
    for n in range(3, 7):
        for i, j in [(i, i + 1) for i in range(1, n - 1)] + [(0, 2)]:
            for x, y in [(i, j), (j, i)]:
                ex, ey = generator(n, x), generator(n, y)
                assert mul(ex, mul(ey, ex)[1]) == (ONE, ex)


def test_stack_counts_every_loop_and_its_dots():
    # e1 e3 and e0 e3 each close two loops on themselves; a loop dotted
    # twice is plain, and one odd loop kills the product beside a plain one
    for n in (5, 6):
        e = [generator(n, i) for i in range(n)]
        (cx, x), (cy, y) = mul(e[1], e[3]), mul(e[0], e[3])
        assert cx == cy == ONE
        assert mul(x, x) == (LOOP * LOOP, x)
        assert mul(y, y) == (LOOP * LOOP, y)
        assert mul(x, y) == (ZERO, None)


def test_stack_counts_three_loops():
    # e1 e3 e5 and e0 e3 e5 close three loops on themselves, one more
    # power of the loop than any test above reaches.  At n = 6, e1 e3 e5
    # has three plain cups and no through strand: _stack still counts its
    # loops, and mul strikes it from the basis
    three = LOOP * LOOP * LOOP
    arcs = [(1, 2, False), (3, 4, False), (5, 6, False)]
    x = _join(6, 6, arcs, arcs, ())
    assert _stack(x, x) == (three, x.strands)
    assert mul(x, x) == (ZERO, None)
    for n, first in ((6, 0), (7, 0), (7, 1)):
        e = [generator(n, i) for i in range(n)]
        c, x = _then(mul(e[first], e[3]), lambda t: mul(t, e[5]))
        assert c == ONE
        assert mul(x, x) == (three, x)
    assert [tangles._loop_value(k) for k in range(5)] == [ONE, LOOP, LOOP * LOOP, three, three * LOOP]


def test_products_and_images_are_validated_fresh_objects():
    # mul and act build their results through memoised constructors; each
    # result must be what a fresh, validating construction gives
    for n in (3, 4, 5):
        diagrams = [decorated_cup(w) for w in enumerate_wp(n)]
        for g in (generator(n, i) for i in range(n)):
            for x in tlhat_basis(n):
                for _, t in (mul(x, g), mul(g, x)):
                    assert t is None or t == DecoratedTangle(t.m, t.n, t.strands), (x, g)
            for d in diagrams:
                _, e = act(g, d)
                assert e is None or e == DecoratedCupDiagram(e.n, e.cups, e.edges), (g, d)


def test_a_product_is_built_once():
    x, y = generator(5, 1), generator(5, 2)
    assert x is generator(5, 1)
    assert mul(x, y)[1] is mul(x, y)[1]
    d = decorated_cup(identity(5))
    assert act(generator(5, 0), d)[1] is act(generator(5, 0), d)[1]


def test_memoised_constructors_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            tangles._tangle(2, 2, ((1, 4, False), (2, 3, False)))
        with pytest.raises(ValueError):
            tangles._diagram(2, ((1, 2, False),), ((1, False),))
        with pytest.raises(ValueError):
            generator(4, 4)
        with pytest.raises(ValueError):
            generator(1, 0)


def test_zero_and_one_annihilate_without_the_loop_marker():
    assert mul(generator(4, 0), generator(4, 1)) == (ZERO, None)
    assert mul(generator(4, 1), generator(4, 0)) == (ZERO, None)


def test_identity_is_neutral():
    for n in (3, 4):
        ident = identity_tangle(n)
        for t in tlhat_basis(n):
            assert mul(ident, t) == (ONE, t)
            assert mul(t, ident) == (ONE, t)
    # act turns d into a tangle with tangle_of_cup and back: a round trip
    for n in range(1, 6):
        for w in enumerate_wp(n):
            d = decorated_cup(w)
            assert act(identity_tangle(n), d) == (ONE, d)


def test_action_on_the_identity_diagram():
    ident = decorated_cup(identity(4))
    coeff, image = act(generator(4, 0), ident)
    assert coeff == ONE
    assert image == decorated_cup(PMSequence("--++"))
    coeff, image = act(generator(4, 1), ident)
    assert image is None
    coeff, image = act(generator(4, 0), decorated_cup(PMSequence("--++")))
    assert coeff == LOOP
    assert image == decorated_cup(PMSequence("--++"))


def test_star_is_an_involution():
    for n in (3, 4):
        for t in tlhat_basis(n):
            assert star(star(t)) == t


def test_star_reverses_products():
    basis = tlhat_basis(4)
    for x in basis[::3]:
        for y in basis[::4]:
            coeff, t = mul(x, y)
            assert mul(star(y), star(x)) == (coeff, None if t is None else star(t))


def test_generators_are_self_adjoint():
    for n in range(2, 6):
        for i in range(n):
            assert star(generator(n, i)) == generator(n, i)


def test_phi_sends_canonical_elements_to_diagrams():
    for n in range(1, 6):
        for w in enumerate_wp(n):
            assert phi(kl_basis(w)) == {decorated_cup(w): ONE}


def _algebra_dim(n):
    """C(2n - 1, n), less (C(n, n/2)/2)^2 for even n: the squares of the
    cell sizes below, summed by Vandermonde's identity."""
    return math.comb(2 * n - 1, n) - (n % 2 == 0) * (math.comb(n, n // 2) // 2) ** 2


def test_cell_sizes():
    assert tuple(cell_datum(4)) == (4, 2, 0)
    # cell n - 2k has C(n, k) members, halved at k = n/2
    for n in range(3, 15):
        sizes = [math.comb(n, k) for k in range((n + 1) // 2)] + ([math.comb(n, n // 2) // 2] if n % 2 == 0 else [])
        assert [len(ms) for ms in cell_datum(n).values()] == sizes, n
        assert sum(s * s for s in sizes) == _algebra_dim(n), n
    assert _algebra_dim(14) == 17113644


def test_cell_tangle_equals_the_stacked_halves():
    # oracle: glue alpha's tangle on top of beta's reflected one
    for n in range(1, 7):
        for ms in cell_datum(n).values():
            for a, b in itertools.product(ms, repeat=2):
                assert _stack(star(tangle_of_cup(b)), tangle_of_cup(a)) == (ONE, cell_tangle(a, b).strands)


def test_cell_tangle_acts_as_its_two_halves():
    # the identity faithfulness_rank's cell forms rest on: C(a, b) acts as
    # b's reflected (n, lam) half, then a's (lam, n) half, zeros included
    for n in (3, 4, 5):
        diagrams = [decorated_cup(w) for w in enumerate_wp(n)]
        for ms in cell_datum(n).values():
            for a, b in itertools.product(ms, repeat=2):
                for d in diagrams:
                    two_steps = _then(act(star(tangle_of_cup(b)), d), lambda e: act(tangle_of_cup(a), e))
                    assert act(cell_tangle(a, b), d) == two_steps, (a, b, d)


def test_join_inverts_faces():
    tangles = [t for n in range(3, 7) for t in tlhat_basis(n)]
    tangles += [generator(n, i) for n in range(2, 7) for i in range(n)]
    for t in tangles:
        (cups, top), (caps, bottom) = t.faces()
        through = [(p, q, d) for (p, d), (q, _) in zip(bottom, top)]
        assert _join(t.m, t.n, caps, cups, through) == t


def test_cell_action_ignores_the_auxiliary_half():
    # x C(a, b) = r C(a', b) modulo lower cells, where act(x, a) = (r, a'),
    # for every half b, singleton cells included.  The oracle for verify
    # cellular, which checks this for x a generator only: here x runs over
    # every basis tangle
    for n in (3, 4, 5):
        for lam, ms in cell_datum(n).items():
            for x in tlhat_basis(n):
                for a in ms:
                    coeff, image = act(x, a)
                    for b in ms:
                        product = mul(x, cell_tangle(a, b))
                        if image is not None and len(image.edges) == lam:
                            assert product == (coeff, cell_tangle(image, b)), (x, a, b)
                        else:
                            assert product[1] is None or len(product[1].faces()[0][1]) < lam, (x, a, b)


def test_the_generators_reach_the_basis():
    # the premise that carries verify cellular's identity from the generators
    # to every basis tangle
    for n in range(3, 8):
        assert generated(n).keys() == set(tlhat_basis(n)), n


def test_the_search_keeps_the_left_products():
    # verify cellular reads each g C(a, b) off the search, not off mul
    for n in (3, 4, 5):
        gens = [generator(n, i) for i in range(n)]
        for y, products in generated(n).items():
            assert products == [mul(g, y) for g in gens], (n, y.strands)


_cells = functools.cache(cell_datum)
_diagrams = functools.cache(lambda n: [d for ms in _cells(n).values() for d in ms])


@st.composite
def cell_tangles(draw, n):
    """C(a, b), uniform over the basis: its cell drawn with weight |cell|^2."""
    k = draw(st.integers(0, _algebra_dim(n) - 1))
    for ms in _cells(n).values():
        if k < len(ms) ** 2:
            return cell_tangle(ms[k // len(ms)], ms[k % len(ms)])
        k -= len(ms) ** 2


def word_product(n, word):
    """The product of the generators in word, left to right."""
    return functools.reduce(lambda p, i: _then(p, lambda t: mul(t, generator(n, i))), word, (ONE, identity_tangle(n)))


def generator_words(n):
    """The tangle of a nonzero product of one to eight generators."""
    products = st.lists(st.integers(0, n - 1), min_size=1, max_size=8).map(lambda word: word_product(n, word))
    return products.filter(lambda p: p[1] is not None).map(lambda p: p[1])


def through(t):
    return len(t.faces()[0][1])


def test_the_generator_route_premises_hold_above_n_4():
    # what verify cellular's argument takes from the algebra, exhaustive at
    # n = 3, 4 above: associativity, the module action, star reversing
    # products, and products and images never gaining through strands
    counts = {"products": 0, "nonzero": 0, "images": 0}

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(5, 10).flatmap(
            lambda n: st.tuples(*[st.one_of(cell_tangles(n), generator_words(n))] * 3, st.sampled_from(_diagrams(n)))
        )
    )
    def premises(sample):
        x, y, z, d = sample
        xy = mul(x, y)
        assert _then(xy, lambda t: mul(t, z)) == _then(mul(y, z), lambda t: mul(x, t))
        assert _then(act(y, d), lambda e: act(x, e)) == _then(xy, lambda t: act(t, d))
        coeff, t = xy
        assert mul(star(y), star(x)) == (coeff, None if t is None else star(t))
        assert t is None or through(t) <= min(through(x), through(y))
        _, e = act(x, d)
        assert e is None or len(e.edges) <= min(through(x), len(d.edges))
        counts["products"] += 1
        counts["nonzero"] += t is not None
        counts["images"] += e is not None

    premises()
    # most products and images are nonzero, so the identities are not 0 = 0
    assert counts["nonzero"] >= 0.5 * counts["products"], counts
    assert counts["images"] >= 0.3 * counts["products"], counts


def matchings(points):
    """Every perfect matching of the points, crossing ones included."""
    if not points:
        yield []
        return
    a = points[0]
    for k in range(1, len(points)):
        for tail in matchings(points[1:k] + points[k + 1 :]):
            yield [(a, points[k])] + tail


def all_square_tangles(n):
    """Every loop-free diagram on n bottom and n top points with evenly
    many dots, found by brute force over matchings."""
    out = set()
    for m in matchings(list(range(1, 2 * n + 1))):
        for dots in itertools.product([False, True], repeat=n):
            if sum(dots) % 2:
                continue
            strands = tuple(sorted((a, b, d) for (a, b), d in zip(m, dots)))
            try:
                out.add(DecoratedTangle(n, n, strands))
            except ValueError:
                pass
    return out


def test_constructors_accept_the_planar_accessible_shapes():
    # brute force over every matching, crossing or not, with every dot
    # pattern on its arcs and on the unmatched ends
    def accepted(build, shapes):
        count = 0
        for arcs, ends in shapes:
            for dots in itertools.product([False, True], repeat=len(arcs) + len(ends)):
                try:
                    build(
                        tuple(sorted((a, b, d) for (a, b), d in zip(arcs, dots))),
                        tuple(zip(ends, dots[len(arcs) :])),
                    )
                except ValueError:
                    continue
                count += 1
        return count

    for total in range(0, 9, 2):
        shapes = [(arcs, ()) for arcs in matchings(list(range(1, total + 1)))]
        for m in range(total + 1):
            build = lambda strands, _: DecoratedTangle(m, total - m, strands)
            assert accepted(build, shapes) == math.comb(total, total // 2), (m, total - m)
    for n in range(1, 9):
        points = range(1, n + 1)
        shapes = [
            (arcs, ends)
            for k in range(n + 1)
            for ends in itertools.combinations(points, k)
            for arcs in matchings([p for p in points if p not in ends])
        ]
        build = lambda cups, edges: DecoratedCupDiagram(n, cups, edges)
        assert accepted(build, shapes) == 2 ** (n - 1), n


def test_diagrams_outside_the_basis_act_as_zero():
    cands = all_square_tangles(4)
    basis = set(tlhat_basis(4))
    assert len(cands) == 35
    assert basis <= cands
    excluded = cands - basis
    assert len(excluded) == 9
    for t in excluded:
        for w in enumerate_wp(4):
            assert act(t, decorated_cup(w))[1] is None


def test_json_round_trip():
    for n in (3, 4):
        for t in tlhat_basis(n):
            assert DecoratedTangle.from_json(t.to_json()) == t


def test_constructors_reject_points_off_the_face():
    # each case breaks one point of the two plain cups (1,2) and (3,4): as
    # cups on 4 points, and as a cap and a cup on 2 + 2 points
    DecoratedCupDiagram(4, ((1, 2, False), (3, 4, False)), ())
    DecoratedTangle(2, 2, ((1, 2, False), (3, 4, False)))
    for strands in [
        ((2, 1, False), (3, 4, False)),  # reversed
        ((0, 2, False), (3, 4, False)),  # point 0
        ((1, 2, False), (3, 5, False)),  # point n + 1, and m + n + 1
        ((1, 2, False), (2, 4, False)),  # repeated point
    ]:
        with pytest.raises(ValueError):
            DecoratedCupDiagram(4, strands, ())
        with pytest.raises(ValueError):
            DecoratedTangle(2, 2, strands)
    # a cup diagram's ends are counted first, as a tangle's strands are:
    # an end too many (point 0, point n + 1, a repeat) or too few
    edges = (1, False), (2, False)
    for bad in [((0, False), *edges), (*edges, (3, False)), ((1, False), *edges), edges[:1]]:
        with pytest.raises(ValueError):
            DecoratedCupDiagram(2, (), bad)


def test_constructor_rejects_crossings():
    # bottom 1 to top 4 crosses bottom 2 to top 3
    with pytest.raises(ValueError):
        DecoratedTangle(2, 2, ((1, 4, False), (2, 3, False)))


def accepts(rule, *args):
    try:
        rule(*args)
    except ValueError:
        return False
    return True


def test_the_boundary_sweep_is_the_face_rule():
    # every pairing of up to 10 points, crossing ones included, with every
    # dot pattern, split every way between the two faces
    seen = accepted = 0
    for total in range(0, 11, 2):
        for pairs in matchings(list(range(1, total + 1))):
            for dots in itertools.product((False, True), repeat=len(pairs)):
                strands = tuple((a, b, d) for (a, b), d in zip(pairs, dots))
                for m in range(total + 1):
                    ok = accepts(DecoratedTangle, m, total - m, strands)
                    assert ok == accepts(face_rule, m, total - m, strands), (m, strands)
                    seen, accepted = seen + 1, accepted + ok
    assert (seen, accepted) == (348667, 3579)


@pytest.mark.parametrize(
    "strands",
    [
        ((2, 1, False), (3, 4, False)),  # reversed
        ((0, 2, False), (3, 4, False)),  # point 0
        ((1, 2, False), (3, 5, False)),  # point m + n + 1
        ((1, 2, False), (2, 4, False)),  # repeated point
        ((1, 1, False), (3, 4, False)),  # a strand from a point to itself
        ((1, 2, False), (1, 2, False)),  # repeated strand
        ((1, 4, False), (2, 4, False)),  # repeated large end
        ((3, 4, False), (1, 2, False)),  # unsorted
        ((1, 2, False),),  # a strand too few
        ((1, 2, False), (3, 4, False), (5, 6, False)),  # a strand too many
        (),
    ],
)
def test_both_rules_reject_a_malformed_strand_list(strands):
    for m in range(5):
        assert not accepts(face_rule, m, 4 - m, strands), (m, strands)
        with pytest.raises(ValueError):
            DecoratedTangle(m, 4 - m, strands)


def test_the_strand_count_is_checked_before_anything_is_built():
    # a list of m + n points would not fit in memory, so this raises at once
    for m, n in [(10**12, 2), (-2, 2)]:
        with pytest.raises(ValueError, match="cannot pair"):
            DecoratedTangle(m, n, ())
    for n in [10**12, -1, -3]:
        with pytest.raises(ValueError, match="cannot pair"):
            DecoratedCupDiagram(n, (), ())


def cup_rule(n, cups, edges):
    """The rule of a cup diagram on n points, read off its face: cups and
    edges listed sorted, the face rule and the parity rule."""
    if list(cups) != sorted(cups) or list(edges) != sorted(edges):
        raise ValueError("cups and edges must be listed sorted")
    check_face(n, cups, edges)
    if (sum(1 for *_, d in cups if not d) + sum(1 for _, d in edges if d)) % 2:
        raise ValueError("parity")


def test_the_boundary_sweep_is_the_cup_diagram_rule():
    # every involution of up to 8 points, pairs as cups and fixed points as
    # edges, with every dot pattern; 256 is the sum of 2^(n-1) over n <= 8
    seen = accepted = 0
    for n in range(9):
        points = range(1, n + 1)
        for k in range(n + 1):
            for fixed in itertools.combinations(points, k):
                for pairs in matchings([p for p in points if p not in fixed]):
                    for dots in itertools.product((False, True), repeat=len(pairs) + k):
                        cups = tuple((a, b, d) for (a, b), d in zip(pairs, dots))
                        edges = tuple(zip(fixed, dots[len(pairs) :]))
                        ok = accepts(DecoratedCupDiagram, n, cups, edges)
                        assert ok == accepts(cup_rule, n, cups, edges), (n, cups, edges)
                        seen, accepted = seen + 1, accepted + ok
    assert (seen, accepted) == (40713, 256)


@pytest.mark.parametrize(
    "cups, edges",
    [
        (((3, 4, False), (1, 2, False)), ((5, False), (6, False))),  # unsorted cups
        (((1, 2, False), (3, 4, False)), ((6, False), (5, False))),  # unsorted edges
        (((0, 1, False), (3, 4, False)), ((5, False), (6, False))),  # point 0
        (((1, 2, False), (3, 4, False)), ((0, False), (6, False))),  # an edge at point 0
        (((1, 2, False), (3, 4, False)), ((5, False), (7, False))),  # point n + 1
        (((1, 2, False), (4, 7, False)), ((5, False), (6, False))),  # a cup to point n + 1
        (((1, 2, False), (2, 4, False)), ((5, False), (6, False))),  # repeated point
        (((1, 2, False), (3, 4, False)), ((4, False), (6, False))),  # an edge on a cup's point
        (((1, 2, False), (3, 4, False)), ((6, False), (6, False))),  # repeated edge
        (((1, 1, False), (3, 4, False)), ((5, False), (6, False))),  # a cup from a point to itself
        (((2, 1, False), (3, 4, False)), ((5, False), (6, False))),  # reversed
    ],
)
def test_both_rules_reject_a_malformed_cup_diagram(cups, edges):
    assert accepts(cup_rule, 6, ((1, 2, False), (3, 4, False)), ((5, False), (6, False)))
    assert not accepts(cup_rule, 6, cups, edges)
    with pytest.raises(ValueError):
        DecoratedCupDiagram(6, cups, edges)


def exact(rows):
    return [{c: Fraction(v) for c, v in row.items()} for row in rows]


def random_rows():
    """200 seeded lists of small sparse integer rows; three in four get a
    repeated row, an empty row or the sum of two rows appended."""
    rng = random.Random(20121)
    for trial in range(200):
        cols = rng.randint(1, 8)
        rows = [{c: rng.randint(-3, 3) for c in rng.sample(range(cols), rng.randint(1, cols))} for _ in range(rng.randint(1, 7))]
        kind = trial % 4
        if kind == 1:
            rows.append(dict(rows[0]))
        elif kind == 2:
            rows.append({})
        elif kind == 3 and len(rows) >= 2:
            a, b = rows[0], rows[-1]
            rows.append({c: a.get(c, 0) + b.get(c, 0) for c in {*a, *b}})
        yield rows


def dense_rank(rows):
    """Rank over Q by dense Gaussian elimination on Fraction rows, the
    reference both sparse ranks are held to."""
    cols = sorted({c for row in rows for c in row})
    matrix = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        for i in range(rank + 1, len(matrix)):
            if f := matrix[i][j] / top[j]:
                matrix[i] = [x - f * y for x, y in zip(matrix[i], top)]
        rank += 1
    return rank


def test_rank_mod_p_equals_the_exact_rank():
    # entries of size at most 3 in at most 8 columns keep every minor far
    # below PRIME, so the two ranks must agree, not just almost always
    deficient = 0
    for rows in random_rows():
        rank = _rational_rank(exact(rows))
        deficient += rank < len(rows)
        assert _rank_mod_p(rows) == rank, rows
        # the two share one elimination, so each is also held to a dense one
        assert dense_rank(rows) == rank, rows
    assert deficient > 100


def test_elimination_leaves_its_rows_unchanged():
    # both ranks reduce rows in place, on their own copies
    for rows in random_rows():
        rational = exact(rows)
        before = [sorted(row.items()) for row in rows], [sorted(row.items()) for row in rational]
        _rank_mod_p(rows)
        _rational_rank(rational)
        assert ([sorted(row.items()) for row in rows], [sorted(row.items()) for row in rational]) == before


def test_rank_mod_p_can_fall_short_of_the_exact_rank():
    # the reason faithfulness_rank re-runs exactly when the modular rank is short
    rows = [{0: PRIME, 1: 0}, {1: 1}]
    assert _rank_mod_p(rows) == 1
    assert _rational_rank(exact(rows)) == 2


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(tangles, name)
    monkeypatch.setattr(tangles, name, lambda rows: calls.append(1) or fn(rows))
    return calls


@pytest.mark.parametrize("n", [3, 4])
def test_faithfulness_rank_takes_the_exact_route_when_needed(n, monkeypatch):
    full = (len(tlhat_basis(n)),) * 2
    modular, rational = count_calls(monkeypatch, "_rank_mod_p"), count_calls(monkeypatch, "_rational_rank")
    # PRIME divides q's numerator or denominator: q has no image mod PRIME
    for q in (Fraction(PRIME), Fraction(1, PRIME)):
        assert faithfulness_rank(n, q) == full
    assert (len(modular), len(rational)) == (0, 2)
    assert faithfulness_rank(n, Fraction(97, 89)) == full
    assert (len(modular), len(rational)) == (1, 2)
    # a modular rank that falls short is checked again over Q
    monkeypatch.setattr(tangles, "_rank_mod_p", lambda rows: 0)
    assert faithfulness_rank(n, Fraction(97, 89)) == full
    assert len(rational) == 3


def reduced(rows):
    """Rows as _rank_mod_p reads them: each entry mod PRIME."""
    return [{c: v % PRIME for c, v in row.items()} for row in rows]


def cell_order(n):
    """The cup diagrams cell by cell, largest cell first, as
    faithfulness_rank numbers them."""
    return [d for ms in cell_datum(n).values() for d in ms]


def all_edges(lam):
    """e_lam: lam points, each on an undotted edge."""
    return DecoratedCupDiagram(lam, (), tuple((p, False) for p in range(1, lam + 1)))


def cell_forms(n):
    """Each cell's form, {lam: {(b, d): coefficient}}: the coefficient of
    b's reflected half on d when the image keeps lam edges, nonzero
    entries only."""
    forms = {}
    for lam, ms in cell_datum(n).items():
        forms[lam] = form = {}
        for b in ms:
            for d in ms:
                coeff, image = act(star(tangle_of_cup(b)), d)
                if image is not None and len(image.edges) == lam:
                    form[b, d] = coeff
    return forms


def form_rows(n, value):
    """The forms as faithfulness_rank ranks them: one row per b, cell by
    cell, one column per diagram in cell order, entries valued by value."""
    index = {d: i for i, d in enumerate(cell_order(n))}
    forms = cell_forms(n)
    return [
        {index[d]: value(forms[lam][b, d]) for d in ms if (b, d) in forms[lam]}
        for lam, ms in cell_datum(n).items()
        for b in ms
    ]


@pytest.mark.parametrize("n", range(3, 9))
def test_a_reflected_half_keeping_every_edge_lands_on_the_all_edge_diagram(n):
    # the parity rule forbids a lone dotted edge, so lam edges on lam
    # points are e_lam, and a's half sends e_lam to a with coefficient one
    for lam, ms in cell_datum(n).items():
        for b, d in itertools.product(ms, repeat=2):
            _, image = act(star(tangle_of_cup(b)), d)
            assert image is None or len(image.edges) < lam or image == all_edges(lam), (b, d)
        for a in ms:
            assert act(tangle_of_cup(a), all_edges(lam)) == (ONE, a), a


@pytest.mark.parametrize("n", range(3, 9))
def test_each_cell_form_is_symmetric_and_nondegenerate(n):
    sizes = [len(ms) for ms in cell_datum(n).values()]
    for lam, form in cell_forms(n).items():
        assert all(form.get((d, b)) == coeff for (b, d), coeff in form.items()), lam
    for q in (Fraction(97, 89), Fraction(1)):
        rows = form_rows(n, lambda c: c.eval_rational(q))
        assert _rational_rank(rows) == sum(sizes) == 2 ** (n - 1), (n, q)


def test_modular_rows_are_the_images_of_the_exact_rows(monkeypatch):
    # the form rows mod PRIME are the images of their rational values,
    # what makes full rank mod PRIME a certificate of full rank over Q
    modular = []
    monkeypatch.setattr(tangles, "_rank_mod_p", lambda rows: modular.extend(rows) or len(cell_order(4)))
    q = Fraction(97, 89)
    faithfulness_rank(4, q)
    exact_forms = form_rows(4, lambda c: c.eval_rational(q))
    images = [{c: x.numerator * pow(x.denominator, -1, PRIME) % PRIME for c, x in row.items()} for row in exact_forms]
    assert len(modular) == len(cell_order(4)) and reduced(modular) == images


def act_rows(n, value):
    """One row per basis tangle, straight from act: entry (image, column)
    of its action on the cup diagrams, valued by value, both numbered in
    cell order, as faithfulness_rank numbers them."""
    order = cell_order(n)
    index = {d: i for i, d in enumerate(order)}
    rows = []
    for b in tlhat_basis(n):
        row = {}
        for j, d in enumerate(order):
            coeff, image = act(b, d)
            if image is not None and coeff:
                row[index[image] * len(order) + j] = value(coeff)
        rows.append(row)
    return rows


def image_mod_p(q):
    """A polynomial's value mod PRIME at q's image num * den^-1."""
    q_p = q.numerator * pow(q.denominator, -1, PRIME) % PRIME
    return lambda c: sum(k * pow(q_p, e, PRIME) for e, k in c.terms) % PRIME


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("q", [Fraction(97, 89), Fraction(1)], ids=str)
def test_both_ranks_of_the_act_rows_equal_a_dense_elimination(n, q):
    rows = act_rows(n, lambda c: c.eval_rational(q))
    rank = dense_rank(rows)
    assert (_rank_mod_p(act_rows(n, image_mod_p(q))), _rational_rank(rows)) == (rank, rank)


def test_faithfulness_rank_equals_an_exact_rank_of_the_same_rows():
    for n in (3, 4, 5):
        for q in (Fraction(97, 89), Fraction(1), Fraction(-1), Fraction(2, 3)):
            rows = act_rows(n, lambda c: c.eval_rational(q))
            assert faithfulness_rank(n, q) == (_rational_rank(rows), len(rows)), (n, q)


def as_multiset(rows):
    return sorted(sorted(row.items()) for row in rows)


@pytest.mark.parametrize("q", [Fraction(97, 89), Fraction(1)])
def test_faithfulness_rows_are_the_act_rows(q, monkeypatch):
    # the exact fallback, reached when the forms fall short mod PRIME, ranks
    # the per-basis action matrix, up to the order of the rows
    rational = []
    monkeypatch.setattr(tangles, "_rank_mod_p", lambda rows: 0)
    monkeypatch.setattr(tangles, "_rational_rank", lambda rows: rational.extend(rows) or 0)
    for n in (3, 4, 5):
        rational.clear()
        faithfulness_rank(n, q)
        assert as_multiset(rational) == as_multiset(act_rows(n, lambda c: c.eval_rational(q))), n
