import pytest
from hypothesis import given, settings, strategies as st

from cupkl.laurent import LaurentPoly, LOOP, ONE, Q, QINV, ZERO
from cupkl.weyl import Move, PMSequence, apply_generator, enumerate_wp, identity, length, reduced_word
from cupkl.hecke import (
    KLTable,
    ModuleElement,
    _raise_via,
    cs_action,
    expand_in_kl,
    kl_basis,
    kl_poly,
    kl_table,
)


def shorter_descents(w):
    return [i for i in range(w.n) if apply_generator(w, i).move is Move.SHORTER]


def test_canonical_elements_n4():
    el = kl_basis(PMSequence("--++"))
    assert {str(v): str(p) for v, p in el.coeffs} == {"++++": "q", "--++": "1"}
    el = kl_basis(PMSequence("-+-+"))
    assert {str(v): str(p) for v, p in el.coeffs} == {"-+-+": "1", "--++": "q"}
    el = kl_basis(PMSequence("----"))
    assert {str(v): str(p) for v, p in el.coeffs} == {
        "++++": "q^2",
        "++--": "q",
        "--++": "q",
        "----": "1",
    }


def test_recursion_needs_no_corrections_up_to_n9():
    # n = 9 is the kl cap; the count is 0 through n = 12 as well
    for n in range(1, 10):
        assert kl_table(n).corrections == 0


def test_raising_clears_a_term_that_a_correction_brings_in():
    # a synthetic table that kl_table never builds (elements[--++] has a
    # constant term off its diagonal): the correction at --++ brings in
    # ++++ with constant term -1, which a second correction must clear.
    # On canonical tables one pass over the support already suffices.
    n, w, i = 4, PMSequence("++--"), 2
    step = apply_generator(w, i)
    assert step.move is Move.SHORTER and step.result == PMSequence("+-+-")
    elements = {v: ModuleElement.standard(v) for v in enumerate_wp(n)}
    for v, extra in (("+-+-", "-+-+"), ("--++", "++++")):
        elements[PMSequence(v)] = ModuleElement.from_dict(n, {PMSequence(v): ONE, PMSequence(extra): ONE})
    y, corrections = _raise_via(elements, w, i, step.result)
    assert y.coeff(w) == ONE
    assert [str(v) for v, c in y.coeffs if v != w and c.constant_term()] == []
    assert corrections == 2


def test_unitriangular_with_positive_exponents():
    for n in range(1, 7):
        t = kl_table(n)
        for w in enumerate_wp(n):
            el = t.element(w)
            assert el.coeff(w) == ONE
            for v, p in el.coeffs:
                assert p
                assert len(p.terms) == 1
                assert p.terms[0][1] == 1
                assert p.terms[0][0] >= 0
                if v != w:
                    assert length(v) < length(w)


def test_polynomial_lookup_and_default():
    t = kl_table(4)
    v, w = PMSequence("--++"), PMSequence("-+-+")
    assert t.poly(v, w) == Q
    assert t.poly(w, v) == ZERO
    assert kl_poly(v, w) == Q


def test_indexed_lookups_equal_a_scan():
    for n in range(1, 7):
        t = kl_table(n)
        for w in enumerate_wp(n):
            row = next(el for v, el in t.rows if v == w)
            assert t.element(w) is row
            for v in enumerate_wp(n):
                scan = next((p for u, p in row.coeffs if u == v), ZERO)
                assert row.coeff(v) == t.poly(v, w) == scan


def test_generator_squares_to_loop_times_itself():
    for n in range(2, 6):
        for w in enumerate_wp(n):
            x = ModuleElement.standard(w)
            for i in range(n):
                once = cs_action(x, i)
                assert cs_action(once, i) == once.scaled(LOOP)


def test_distant_generators_commute():
    # indices 0 and 1 commute too: both hang off index 2
    for n in range(2, 6):
        pairs = [(0, 1)] + [
            (i, j) for i in range(1, n) for j in range(i + 2, n)
        ] + [(0, j) for j in range(3, n)]
        for w in enumerate_wp(n):
            x = ModuleElement.standard(w)
            for i, j in pairs:
                assert cs_action(cs_action(x, i), j) == cs_action(cs_action(x, j), i)


def test_adjacent_generators_braid():
    # for m = 3 pairs the two alternating triple products differ by the
    # same single-generator defect on both sides
    for n in range(3, 6):
        pairs = [(i, i + 1) for i in range(1, n - 1)] + [(0, 2)]
        for w in enumerate_wp(n):
            x = ModuleElement.standard(w)
            for i, j in pairs:
                iji = cs_action(cs_action(cs_action(x, i), j), i)
                jij = cs_action(cs_action(cs_action(x, j), i), j)
                assert iji - cs_action(x, i) == jij - cs_action(x, j)


def bumped(x, i):
    """C_i by its definition, one bump per support term w with coefficient
    c: c goes to w's image, and c times q (longer move) or q^-1 (shorter
    move) stays at w."""
    out = {}
    for w, c in x.coeffs:
        step = apply_generator(w, i)
        if step.move is Move.NOT_IN_QUOTIENT:
            continue
        for v, p in ((step.result, c), (w, c * (Q if step.move is Move.LONGER else QINV))):
            out[v] = out.get(v, ZERO) + p
    return ModuleElement.from_dict(x.n, out)


@st.composite
def element_and_generator(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    poly = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), min_size=1, max_size=4).map(LaurentPoly.from_dict)
    coeffs = draw(st.dictionaries(st.sampled_from(enumerate_wp(n)), poly, max_size=8))
    return ModuleElement.from_dict(n, coeffs), draw(st.integers(min_value=0, max_value=n - 1))


@settings(max_examples=300, deadline=None)
@given(element_and_generator())
def test_action_equals_its_per_bump_definition(case):
    x, i = case
    assert cs_action(x, i) == bumped(x, i)


def test_action_kills_sequences_outside_the_quotient():
    for n in range(2, 6):
        for w in enumerate_wp(n):
            for i in range(n):
                if apply_generator(w, i).move is Move.NOT_IN_QUOTIENT:
                    assert cs_action(ModuleElement.standard(w), i).coeffs == ()


def test_products_over_reduced_words_are_canonical():
    # the oracle for verify kl's shared products: C_i folded over the whole
    # reduced word of w from the identity's vector is the canonical element
    for n in range(1, 8):
        for w in enumerate_wp(n):
            x = ModuleElement.standard(identity(n))
            for i in reduced_word(w):
                x = cs_action(x, i)
            assert x == kl_basis(w)


def test_recursion_result_is_descent_independent():
    # raising through any shortening generator lands on the same canonical
    # element, up to constant-coefficient lower terms
    for n in range(2, 6):
        t = kl_table(n)
        for w in enumerate_wp(n):
            for i in shorter_descents(w):
                wp = apply_generator(w, i).result
                prod = cs_action(t.element(wp), i)
                expansion = expand_in_kl(prod, t)
                assert expansion[w] == ONE
                for v, c in expansion.items():
                    if v == w or not c:
                        continue
                    assert length(v) < length(w)
                    assert len(c.terms) == 1 and c.terms[0][0] == 0


def test_expand_round_trip():
    t = kl_table(4)
    els = enumerate_wp(4)
    combo = ModuleElement.from_dict(4, {})
    want = {}
    for k, w in enumerate(els):
        c = LaurentPoly.from_dict({k % 3 - 1: k + 1})
        want[w] = c
        combo = combo + t.element(w).scaled(c)
    got = expand_in_kl(combo, t)
    for w in els:
        assert got.get(w, ZERO) == want[w]


def test_expand_names_the_term_it_fails_to_clear():
    # planted fault: the table's element at w is doubled, so not monic, and
    # eliminating it leaves -1 at w
    t = kl_table(4)
    w = PMSequence("-+-+")
    bad = KLTable(4, tuple((v, el.scaled(LaurentPoly.const(2)) if v == w else el) for v, el in t.rows), 0)
    with pytest.raises(AssertionError, match=r"failed to clear the top term at -\+-\+: -1 left"):
        expand_in_kl(t.element(w), bad)


def test_module_element_arithmetic():
    a = ModuleElement.standard(PMSequence("--++"))
    b = ModuleElement.standard(PMSequence("++++"))
    s = a + b
    assert s.coeff(PMSequence("--++")) == ONE
    assert (s - a) == b
    assert a.scaled(Q).coeff(PMSequence("--++")) == Q
    assert a.support() == [PMSequence("--++")]
