import doctest
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cupkl.laurent
from cupkl.laurent import LaurentPoly, ZERO, ONE, Q, QINV, LOOP


def poly_strategy():
    return st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-9, max_value=9),
        max_size=5,
    ).map(LaurentPoly.from_dict)


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(poly_strategy(), poly_strategy())
def test_evaluation_is_a_homomorphism(a, b):
    x = Fraction(5, 3)
    assert (a + b).eval_rational(x) == a.eval_rational(x) + b.eval_rational(x)
    assert (a * b).eval_rational(x) == a.eval_rational(x) * b.eval_rational(x)


def test_string_form():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(QINV) == "q^-1"
    assert str(LOOP) == "q^-1 + q"
    p = LaurentPoly.from_dict({-1: 1, 0: 2, 1: 1})
    assert str(p) == "q^-1 + 2 + q"
    assert str(LaurentPoly.from_dict({2: 3})) == "3q^2"
    assert str(LaurentPoly.from_dict({2: -3, 0: 1})) == "1 - 3q^2"


def test_zero_terms_are_dropped():
    assert LaurentPoly.from_dict({0: 1, 2: 0}) == ONE
    assert not LaurentPoly.from_dict({5: 0})


@pytest.mark.parametrize(
    "terms, message",
    [
        (((1, 1), (0, 1)), "sorted by exponent"),
        (((0, 1), (0, 2)), "without repeats"),
        (((0, 1), (2, 0)), "zero coefficients are not stored"),
    ],
)
def test_hand_built_terms_are_checked(terms, message):
    with pytest.raises(ValueError, match=message):
        LaurentPoly(terms)


def test_scalar_multiplication():
    assert 2 * Q == LaurentPoly.from_dict({1: 2})
    assert Q * 0 == ZERO


def test_eval_at_one_counts_coefficients():
    p = LaurentPoly.from_dict({0: 1, 1: 3, 2: 5})
    assert p.eval_at_one() == 9


def test_q_power():
    assert LaurentPoly.q_power(0) == ONE
    assert LaurentPoly.q_power(1) == Q
    assert LaurentPoly.q_power(-1) == QINV
    assert LaurentPoly.q_power(2) * LaurentPoly.q_power(-2) == ONE


def test_module_example_runs():
    # tier-1 collects tests/ only, so the docstring example runs here
    assert doctest.testmod(cupkl.laurent) == (0, 4)
