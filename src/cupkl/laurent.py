"""Exact Laurent polynomials in one variable q over the integers.

A polynomial is stored as a sorted tuple of (exponent, coefficient) pairs
with every coefficient nonzero, so equality and hashing are structural and
the zero polynomial is the empty tuple.  Negative exponents are first-class:
q + q**-1 is as ordinary a value as 2.

>>> from fractions import Fraction
>>> p = LaurentPoly.q_power(-1) + LaurentPoly.const(2) + LaurentPoly.q()
>>> str(p)
'q^-1 + 2 + q'
>>> p.eval_rational(Fraction(2))
Fraction(9, 2)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ._frozen import Frozen

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["LaurentPoly", "ZERO", "ONE", "Q", "QINV", "LOOP"]


class LaurentPoly(Frozen):
    """An element of Z[q, q^-1].

    ``terms`` is a tuple of (exponent, coefficient) pairs, strictly
    increasing in exponent, with no zero coefficients.  Use the
    constructors below rather than building the tuple by hand.
    """

    __slots__ = _fields = ("terms",)

    def __post_init__(self) -> None:
        last = None
        for e, c in self.terms:
            if last is not None and e <= last:
                raise ValueError("terms must be sorted by exponent, without repeats")
            if c == 0:
                raise ValueError("zero coefficients are not stored")
            last = e

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, int]) -> "LaurentPoly":
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c != 0)))

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls(((0, c),) if c else ())

    @classmethod
    def q_power(cls, k: int) -> "LaurentPoly":
        return cls(((k, 1),))

    @classmethod
    def q(cls) -> "LaurentPoly":
        return cls(((1, 1),))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly.from_dict({e: c * other for e, c in self.terms})
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def constant_term(self) -> int:
        for e, c in self.terms:
            if e == 0:
                return c
        return 0

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[0][0]

    def eval_rational(self, x: Fraction) -> Fraction:
        """Evaluate at a nonzero rational, exactly."""
        from fractions import Fraction
        if x == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        return sum((Fraction(c) * x**e for e, c in self.terms), Fraction(0))

    def eval_at_one(self) -> int:
        return sum(c for _, c in self.terms)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in self.terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def to_json(self) -> list[dict[str, int]]:
        return [{"exp": e, "coeff": c} for e, c in self.terms]


ZERO = LaurentPoly(())
ONE = LaurentPoly.const(1)
Q = LaurentPoly.q()
QINV = LaurentPoly.q_power(-1)
#: The value of a plain closed loop, q + q^-1.
LOOP = Q + QINV
