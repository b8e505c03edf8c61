"""Minimal coset representatives for a type D Weyl group modulo its type A
parabolic, realized as sign sequences.

An element is a sequence of n signs with an even number of minuses; there
are 2^(n-1) of them.  Generators are indexed 0..n-1.  For i >= 1 the
generator swaps adjacent positions (i, i+1) and moves inside the quotient
only when those entries differ; generator 0 flips the first two entries
and applies only when they agree.  The length of an element is the sum
of the 0-based positions of its minuses, and one canonical reduced word
carries pairs of minuses to those positions, rightmost pair first.
"""

from __future__ import annotations

import enum
import functools

from ._frozen import Frozen

__all__ = [
    "PMSequence",
    "Move",
    "GenStep",
    "identity",
    "enumerate_wp",
    "apply_generator",
    "reduced_word",
    "length",
]

PLUS = "+"
MINUS = "-"


@functools.total_ordering
class PMSequence(Frozen):
    """A sign sequence of length n with evenly many minuses.

    Ordering is inherited from the sign string; since "+" sorts before "-"
    in ASCII this is exactly lexicographic order with Plus < Minus.
    """

    __slots__ = _fields = ("signs",)

    def __lt__(self, other: PMSequence) -> bool:
        return self.signs < other.signs if type(other) is PMSequence else NotImplemented

    def __post_init__(self) -> None:
        if not self.signs:
            raise ValueError("empty sequence: n must be at least 1")
        bad = set(self.signs) - {PLUS, MINUS}
        if bad:
            raise ValueError(f"signs must be '+' or '-', got {bad!r}")
        if self.signs.count(MINUS) % 2:
            raise ValueError(f"odd number of minuses in {self.signs!r}")

    @property
    def n(self) -> int:
        return len(self.signs)

    def __str__(self) -> str:
        return self.signs


def identity(n: int) -> PMSequence:
    return PMSequence(PLUS * n)


def enumerate_wp(n: int) -> list[PMSequence]:
    """All 2^(n-1) elements, lexicographic with Plus < Minus, identity first."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = []
    for bits in range(1 << n):
        signs = "".join(MINUS if bits >> (n - 1 - k) & 1 else PLUS for k in range(n))
        if signs.count(MINUS) % 2 == 0:
            out.append(PMSequence(signs))
    return out


class Move(enum.Enum):
    LONGER = "longer"
    SHORTER = "shorter"
    NOT_IN_QUOTIENT = "not_in_quotient"


class GenStep(Frozen):
    __slots__ = _fields = ("move", "result")


def apply_generator(w: PMSequence, i: int) -> GenStep:
    """Right-multiply by generator i, staying inside the quotient.

    Returns the new element tagged LONGER or SHORTER, or NOT_IN_QUOTIENT
    with no result when the product leaves the set of minimal coset
    representatives (for i >= 1: equal entries at i, i+1; for i = 0:
    unequal entries at 1, 2).
    """
    if not 0 <= i < w.n or w.n < 2:
        raise ValueError(f"generator index {i} out of range for n={w.n}")
    s = w.signs
    if i == 0:
        a, b = s[0], s[1]
        if a != b:
            return GenStep(Move.NOT_IN_QUOTIENT, None)
        flipped = (MINUS if a == PLUS else PLUS) * 2
        res = PMSequence(flipped + s[2:])
        return GenStep(Move.LONGER if a == PLUS else Move.SHORTER, res)
    a, b = s[i - 1], s[i]
    if a == b:
        return GenStep(Move.NOT_IN_QUOTIENT, None)
    res = PMSequence(s[: i - 1] + b + a + s[i + 1 :])
    return GenStep(Move.LONGER if (a, b) == (MINUS, PLUS) else Move.SHORTER, res)


def reduced_word(w: PMSequence) -> tuple[int, ...]:
    """One canonical reduced word for w, in generator indices.  With the
    minuses of w at the 0-based positions p1 < ... < p2k, each pair
    (a, b) = (p(2j-1), p(2j)), rightmost pair first, adds the letters
    0, 2..b, 1..a: 0 makes the first two signs minuses, 2..b carries the
    second to b and 1..a the first to a, past pluses only.  So every
    letter is a LONGER move, applying the word from the identity lands
    on w, and the word has length(w) letters; tests replay this.  Each
    word extends a shorter one: with i the smallest generator whose step
    from w is SHORTER, to s, the word of w is reduced_word(s) + (i,); i
    is the descent kl_table raises through.  It is the row-by-row reading
    of w's self-conjugate Young diagram; tests hold the two together."""
    minuses = [k for k, sign in enumerate(w.signs) if sign == MINUS]
    letters: list[int] = []
    for a, b in reversed(list(zip(minuses[0::2], minuses[1::2]))):
        letters += [0, *range(2, b + 1), *range(1, a + 1)]
    return tuple(letters)


def length(w: PMSequence) -> int:
    """Coxeter length of w as a minimal coset representative: the sum of
    the 0-based positions of its minuses.  Tests compare it with the
    letter count of the reduced word and the box count of the Young
    diagram."""
    return sum(k for k, s in enumerate(w.signs) if s == MINUS)
