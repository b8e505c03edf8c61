import pytest

from cupkl.weyl import (
    Move,
    PMSequence,
    apply_generator,
    enumerate_wp,
    identity,
    length,
    reduced_word,
)
from oracles import _word, young_diagram


def replay(n, word):
    """Walk a word up from the identity, asserting each step lengthens."""
    w = identity(n)
    for i in word:
        step = apply_generator(w, i)
        assert step.move is Move.LONGER
        w = step.result
    return w


def test_enumeration_count_and_order():
    for n in range(1, 9):
        els = enumerate_wp(n)
        assert len(els) == 2 ** (n - 1)
        assert els[0] == identity(n)
        assert list(els) == sorted(els)
        assert all(str(w).count("-") % 2 == 0 for w in els)


def test_enumeration_n4_set():
    got = {str(w) for w in enumerate_wp(4)}
    assert got == {"++++", "++--", "+-+-", "+--+", "-++-", "-+-+", "--++", "----"}


def test_lengths_n4():
    by_len = {}
    for w in enumerate_wp(4):
        by_len.setdefault(length(w), []).append(str(w))
    assert by_len[0] == ["++++"]
    assert by_len[1] == ["--++"]
    assert by_len[2] == ["-+-+"]
    assert sorted(by_len[3]) == ["+--+", "-++-"]
    assert by_len[4] == ["+-+-"]
    assert by_len[5] == ["++--"]
    assert by_len[6] == ["----"]


def test_reduced_words_n4():
    assert reduced_word(PMSequence("++++")) == ()
    assert reduced_word(PMSequence("--++")) == (0,)
    assert reduced_word(PMSequence("-+-+")) == (0, 2)
    assert reduced_word(PMSequence("+--+")) == (0, 2, 1)
    assert reduced_word(PMSequence("-++-")) == (0, 2, 3)
    assert reduced_word(PMSequence("+-+-")) == (0, 2, 3, 1)
    assert reduced_word(PMSequence("++--")) == (0, 2, 3, 1, 2)
    assert reduced_word(PMSequence("----")) == (0, 2, 3, 1, 2, 0)


def test_words_read_the_young_diagram_row_by_row():
    for n in range(1, 13):
        for w in enumerate_wp(n):
            assert reduced_word(w) == _word(young_diagram(w)), w


def test_words_replay_and_have_the_right_length():
    for n in range(1, 9):
        for w in enumerate_wp(n):
            word = reduced_word(w)
            assert len(word) == length(w)
            assert replay(n, word) == w


def test_generator_swap_rules():
    # (-, +) at (i, i+1) lengthens, (+, -) shortens, equal signs leave the set
    up = apply_generator(PMSequence("-+-+"), 1)
    assert up.move is Move.LONGER and str(up.result) == "+--+"
    down = apply_generator(PMSequence("+--+"), 1)
    assert down.move is Move.SHORTER and str(down.result) == "-+-+"
    assert apply_generator(PMSequence("++--"), 1).move is Move.NOT_IN_QUOTIENT
    assert apply_generator(PMSequence("--++"), 1).move is Move.NOT_IN_QUOTIENT


def test_generator_zero_flips_first_pair():
    assert apply_generator(PMSequence("++--"), 0).move is Move.LONGER
    assert str(apply_generator(PMSequence("++--"), 0).result) == "----"
    assert apply_generator(PMSequence("----"), 0).move is Move.SHORTER
    assert str(apply_generator(PMSequence("----"), 0).result) == "++--"
    assert apply_generator(PMSequence("+-+-"), 0).move is Move.NOT_IN_QUOTIENT
    assert apply_generator(PMSequence("-++-"), 0).move is Move.NOT_IN_QUOTIENT


def test_moves_are_involutive():
    for n in range(2, 7):
        for w in enumerate_wp(n):
            for i in range(n):
                step = apply_generator(w, i)
                if step.move is Move.NOT_IN_QUOTIENT:
                    continue
                back = apply_generator(step.result, i)
                assert back.result == w
                assert {step.move, back.move} == {Move.LONGER, Move.SHORTER}


def test_a_step_has_a_result_exactly_when_it_stays_in_the_quotient():
    # hecke.cs_action reads step.result for every LONGER or SHORTER step
    for n in range(2, 9):
        for w in enumerate_wp(n):
            for i in range(n):
                step = apply_generator(w, i)
                if step.move is Move.NOT_IN_QUOTIENT:
                    assert step.result is None
                else:
                    assert isinstance(step.result, PMSequence) and step.result.n == n
                    assert length(step.result) == length(w) + (1 if step.move is Move.LONGER else -1)


def boxes(w):
    """The diagram as a box set, by the walk itself: from the upper-right
    corner, signs right to left, a minus fills the row left of the walk
    and moves down, a plus moves left; then reflect across the diagonal."""
    out, row, col = set(), 0, w.n
    for sign in reversed(w.signs):
        if sign == "-":
            out.update((row, c) for c in range(col))
            row += 1
        else:
            col -= 1
    return out | {(c, r) for r, c in out}


def test_diagrams_are_self_conjugate():
    for n in range(1, 8):
        for w in enumerate_wp(n):
            rows = young_diagram(w)
            assert all(rows) and list(rows) == sorted(rows, reverse=True)
            assert rows == tuple(sum(1 for r, c in boxes(w) if r == i) for i in range(len(rows)))
            conjugate = tuple(sum(1 for length in rows if length > c) for c in range(rows[0] if rows else 0))
            assert conjugate == rows
            diagonal = sum(1 for r, length in enumerate(rows) if length > r)
            assert diagonal % 2 == 0
            assert len(rows) <= n


def test_diagram_separates_elements():
    for n in range(1, 8):
        seen = {young_diagram(w) for w in enumerate_wp(n)}
        assert len(seen) == 2 ** (n - 1)


def test_diagram_box_count_matches_length():
    # each off-diagonal reflection pair gives one letter, each 2x2 block
    # straddling the diagonal gives one letter for four boxes
    for n in range(1, 11):
        for w in enumerate_wp(n):
            rows = young_diagram(w)
            blocks = sum(1 for r, length in enumerate(rows) if length > r) // 2
            assert length(w) == (sum(rows) - 4 * blocks) // 2 + blocks


def test_words_end_in_the_smallest_right_descent():
    # the canonical word of w is the canonical word of w times its smallest
    # right descent, plus that letter: the words are closed under prefixes,
    # which verify kl relies on to build each product once
    for n in range(1, 11):
        for w in enumerate_wp(n)[1:]:
            i, s = next((i, step.result) for i in range(n) if (step := apply_generator(w, i)).move is Move.SHORTER)
            assert reduced_word(w) == reduced_word(s) + (i,)


def test_validation():
    with pytest.raises(ValueError):
        PMSequence("")
    with pytest.raises(ValueError):
        PMSequence("+-x")
    with pytest.raises(ValueError):
        PMSequence("+-")  # odd number of minus signs
    with pytest.raises(ValueError):
        apply_generator(PMSequence("--"), 5)
