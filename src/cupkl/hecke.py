"""The parabolic Hecke module over Z[q, q^-1] and its canonical basis.

The module is free on the sign sequences of a fixed n.  Right action of
the Kazhdan-Lusztig generator C_i on a standard basis vector indexed by w:

    longer move  w -> w'   gives  (vector at w') + q * (vector at w)
    shorter move w -> w'   gives  (vector at w') + q^-1 * (vector at w)
    not in quotient        kills the vector

Canonical basis elements are built by the usual recursion: walk up one
shorter element through its smallest admissible descent, then subtract
constant-term multiples of lower canonical elements.  In this quotient
the subtraction never fires; the recursion keeps it anyway and the table
records how often it was needed, which tests pin at zero.
"""

from __future__ import annotations

import functools

from ._frozen import Frozen
from .laurent import ONE, ZERO, LaurentPoly
from .weyl import GenStep, Move, PMSequence, apply_generator, enumerate_wp, identity, length

__all__ = [
    "ModuleElement",
    "KLTable",
    "cs_action",
    "kl_basis",
    "kl_table",
    "kl_poly",
    "expand_in_kl",
]


class ModuleElement(Frozen):
    """A finitely supported L-linear combination of sign sequences."""

    _fields = ("n", "coeffs")
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached _index

    @classmethod
    def from_dict(cls, n: int, coeffs: dict[PMSequence, LaurentPoly]) -> "ModuleElement":
        items = tuple(sorted(((w, p) for w, p in coeffs.items() if p), key=lambda t: t[0].signs))
        return cls(n, items)

    @classmethod
    def standard(cls, w: PMSequence) -> "ModuleElement":
        return cls.from_dict(w.n, {w: ONE})

    def as_dict(self) -> dict[PMSequence, LaurentPoly]:
        return dict(self.coeffs)

    @functools.cached_property
    def _index(self) -> dict[PMSequence, LaurentPoly]:
        return dict(self.coeffs)

    def coeff(self, w: PMSequence) -> LaurentPoly:
        return self._index.get(w, ZERO)

    def support(self) -> list[PMSequence]:
        return [w for w, _ in self.coeffs]

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = self.as_dict()
        for w, p in other.coeffs:
            out[w] = out.get(w, ZERO) + p
        return ModuleElement.from_dict(self.n, out)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + other.scaled(LaurentPoly.const(-1))

    def scaled(self, poly: LaurentPoly) -> "ModuleElement":
        return ModuleElement.from_dict(self.n, {w: p * poly for w, p in self.coeffs})


@functools.lru_cache(maxsize=None)
def _step(w: PMSequence, i: int) -> GenStep:
    """apply_generator(w, i) through this module's binding, built once: the table and the suites repeat steps."""
    return apply_generator(w, i)


def cs_action(x: ModuleElement, i: int) -> ModuleElement:
    """Right action of the i-th Kazhdan-Lusztig generator C_i.

    Each output coefficient is collected as exponent -> integer, c added at
    w's image and c shifted by q or q^-1 at w, and built once at the end."""
    out: dict[PMSequence, dict[int, int]] = {}
    for w, c in x.coeffs:
        if (step := _step(w, i)).move is Move.NOT_IN_QUOTIENT:
            continue
        shift = 1 if step.move is Move.LONGER else -1
        moved, kept = out.setdefault(step.result, {}), out.setdefault(w, {})
        for e, k in c.terms:
            moved[e] = moved.get(e, 0) + k
            kept[e + shift] = kept.get(e + shift, 0) + k
    return ModuleElement.from_dict(x.n, {w: LaurentPoly.from_dict(d) for w, d in out.items()})


class KLTable(Frozen):
    """Canonical basis elements for every sequence of a fixed n.

    ``corrections`` counts lower-order subtractions performed while
    building the table.
    """

    _fields = ("n", "rows", "corrections")
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached _index

    @functools.cached_property
    def _index(self) -> dict[PMSequence, ModuleElement]:
        return dict(self.rows)

    def element(self, w: PMSequence) -> ModuleElement:
        return self._index[w]

    def poly(self, v: PMSequence, w: PMSequence) -> LaurentPoly:
        """Coefficient of the standard vector at v inside the canonical
        element at w."""
        return self.element(w).coeff(v)


def _raise_via(
    elements: dict[PMSequence, ModuleElement], w: PMSequence, i: int, shorter: PMSequence
) -> tuple[ModuleElement, int]:
    """Candidate canonical element at w from descent i, shorter being w
    times generator i.  Returns (element, corrections used); each
    correction clears the constant term of the longest off-diagonal
    coefficient of the current element, until none has one."""
    y = cs_action(elements[shorter], i)
    corrections = 0
    while stale := [z for z, c in y.coeffs if z != w and c.constant_term()]:
        z = max(stale, key=length)
        y = y - elements[z].scaled(LaurentPoly.const(y.coeff(z).constant_term()))
        corrections += 1
    if y.coeff(w) != ONE:
        raise AssertionError(f"canonical element at {w} not monic")
    return y, corrections


@functools.lru_cache(maxsize=None)
def kl_table(n: int) -> KLTable:
    elements: dict[PMSequence, ModuleElement] = {}
    corrections = 0
    for w in sorted(enumerate_wp(n), key=length):
        if w == identity(n):
            elements[w] = ModuleElement.standard(w)
            continue
        i, shorter = next((k, s.result) for k in range(n) if (s := _step(w, k)).move is Move.SHORTER)
        el, used = _raise_via(elements, w, i, shorter)
        elements[w] = el
        corrections += used
    rows = tuple((w, elements[w]) for w in enumerate_wp(n))
    return KLTable(n, rows, corrections)


def kl_basis(w: PMSequence) -> ModuleElement:
    return kl_table(w.n).element(w)


def kl_poly(v: PMSequence, w: PMSequence) -> LaurentPoly:
    return kl_table(w.n).poly(v, w)


def expand_in_kl(x: ModuleElement, table: KLTable) -> dict[PMSequence, LaurentPoly]:
    """Coordinates of x in the canonical basis, by triangular elimination
    from the longest support element down, on one dict of what is left."""
    coords: dict[PMSequence, LaurentPoly] = {}
    rest = x.as_dict()
    while rest:
        w = max(rest, key=lambda v: (length(v), v.signs))
        c = coords[w] = rest[w]
        for v, p in table.element(w).coeffs:
            if r := rest.get(v, ZERO) - p * c:
                rest[v] = r
            else:
                rest.pop(v, None)
        if w in rest:
            raise AssertionError(f"elimination failed to clear the top term at {w}: {rest[w]} left")
    return coords
