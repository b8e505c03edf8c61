"""Decorated planar tangles and the diagram algebra they span.

A tangle has m bottom points and n top points joined by non-crossing
strands, each strand carrying a dot parity.  Boundary points are encoded
1..m for the bottom face and m+1..m+n for the top face (JSON keeps the
same numbers).  A tangle is two faces: the top face holds its cups and
the top ends of the through strands, the bottom face its caps and their
bottom ends.  The through strands keep their order, and each face obeys
the one planarity-and-dot rule of a decorated cup diagram,
``cups.check_face``: a dot must be draggable to the left wall, and only
the leftmost through strand may be dotted.  Cups and caps never obstruct
each other, since they hug their own face.

Stacking two tangles traces composite strands through the junction and
adds dot parities mod 2.  Closed loops reduce by value: a plain loop is
worth q + q^-1 and an odd loop kills the product, which makes this the
quotient algebra.  A product is a scalar times one tangle, or zero,
written (ZERO, None).  The same engine, cut off at a module floor where
caps kill (plain) or vanish (dotted), makes the span of decorated cup
diagrams a module over the algebra.

The algebra basis for a fixed n is the image of the cell map: stack a
decorated cup diagram over the reflection of another with the same
number of edges (cell_tangle); cut_cell splits the result back apart.
That image is the set of even accessible decorated (n, n) tangles
without loops, less (for even n) the fully capped tangles with an odd
number of plain cups, which act by zero; enumerate_basis_tangles finds
the same set by brute force and serves as the oracle.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .laurent import LOOP, ONE, ZERO, LaurentPoly
from .weyl import PMSequence, enumerate_wp
from .cups import DecoratedCupDiagram, Edge, check_face, decorated_cup, face_ascii
from .hecke import ModuleElement, cs_action, expand_in_kl, kl_basis, kl_table

__all__ = [
    "DecoratedTangle",
    "generator",
    "star",
    "tangle_of_cup",
    "mul",
    "act",
    "tlhat_basis",
    "enumerate_basis_tangles",
    "CellDatum",
    "cell_datum",
    "cell_tangle",
    "cut_cell",
    "cell_module_action",
    "phi",
    "hecke_commutation_holds",
    "faithfulness_rank",
]

Strand = tuple[int, int, bool]


def json_field(value, kind: type):
    """A JSON value of exactly this type (a bool is no int, 2.0 no int)."""
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return value


def json_object(data: Mapping, *keys: str) -> Mapping:
    """A JSON object with no keys but these; a missing one fails on lookup."""
    unknown = set(data) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys {sorted(map(str, unknown))}")
    return data


@dataclasses.dataclass(frozen=True)
class DecoratedTangle:
    """Non-crossing pairing of m bottom and n top points with dot flags."""

    m: int
    n: int
    strands: tuple[Strand, ...]

    def __post_init__(self) -> None:
        if min(self.m, self.n) < 0 or 2 * len(self.strands) != self.m + self.n:
            raise ValueError(f"{len(self.strands)} strands cannot pair {self.m} + {self.n} points")
        points = [p for a, b, _ in self.strands for p in (a, b)]
        if sorted(points) != list(range(1, self.m + self.n + 1)):
            raise ValueError("strands must pair the boundary points exactly once")
        if any(a >= b for a, b, _ in self.strands):
            raise ValueError("strand endpoints must be listed (small, large)")
        if list(self.strands) != sorted(self.strands):
            raise ValueError("strands must be listed sorted")
        top, bottom = self.faces()
        # the through strands' ends come in bottom order; on top they must
        # keep it, or two of them cross
        if top[1] != sorted(top[1]):
            raise ValueError("through strands must keep their order")
        for cups, edges in (top, bottom):
            check_face(cups, edges)

    def faces(self) -> tuple[tuple[list[Strand], list[Edge]], ...]:
        """The top face, then the bottom face, each numbered from 1 at the
        left: its cups (caps) and the ends of the through strands, each
        with the strand's dot."""
        m, through = self.m, self.edge_strands()
        top = [(p - m, q - m, d) for p, q, d in self.cup_strands()], [(q - m, d) for _, q, d in through]
        bottom = self.cap_strands(), [(p, d) for p, _, d in through]
        return top, bottom

    def cap_strands(self) -> list[Strand]:
        return [s for s in self.strands if s[1] <= self.m]

    def cup_strands(self) -> list[Strand]:
        return [s for s in self.strands if s[0] > self.m]

    def edge_strands(self) -> list[Strand]:
        return [s for s in self.strands if s[0] <= self.m < s[1]]

    def dot_count(self) -> int:
        return sum(1 for *_, d in self.strands if d)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "strands": [{"ends": [a, b], "dotted": d} for a, b, d in self.strands],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "DecoratedTangle":
        data = json_object(data, "m", "n", "strands")
        strands = []
        for s in data["strands"]:
            s = json_object(s, "ends", "dotted")
            a, b = (json_field(p, int) for p in s["ends"])
            strands.append((min(a, b), max(a, b), json_field(s["dotted"], bool)))
        return cls(json_field(data["m"], int), json_field(data["n"], int), tuple(sorted(strands)))

    def to_ascii(self) -> str:
        """Four rows: top labels, top arcs, bottom arcs, bottom labels, each
        face drawn as a cup diagram is; a through strand shows as | with
        its dot on both faces."""
        top, bottom = (face_ascii(size, *face) for size, face in zip((self.n, self.m), self.faces()))
        return "\n".join([*top, *reversed(bottom)])


def identity_tangle(n: int) -> DecoratedTangle:
    return DecoratedTangle(n, n, tuple((j, n + j, False) for j in range(1, n + 1)))


def generator(n: int, i: int) -> DecoratedTangle:
    """The i-th algebra generator: cap and cup joining two neighbours,
    identity elsewhere.  Generator 0 is generator 1 with both new
    strands dotted."""
    if n < 2:
        raise ValueError("generators need n >= 2")
    if not 0 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    a = max(i, 1)
    dotted = i == 0
    strands = [(a, a + 1, dotted), (n + a, n + a + 1, dotted)]
    strands += [(j, n + j, False) for j in range(1, n + 1) if j not in (a, a + 1)]
    return DecoratedTangle(n, n, tuple(sorted(strands)))


def star(t: DecoratedTangle) -> DecoratedTangle:
    """Reflection swapping the two faces."""

    def move(p: int) -> int:
        return t.n + p if p <= t.m else p - t.m

    strands = tuple(
        sorted((min(move(a), move(b)), max(move(a), move(b)), d) for a, b, d in t.strands)
    )
    return DecoratedTangle(t.n, t.m, strands)


@functools.lru_cache(maxsize=None)
def tangle_of_cup(d: DecoratedCupDiagram) -> DecoratedTangle:
    """A decorated cup diagram as a tangle: one bottom point per edge.
    Built and validated once per diagram; act reuses it on every call."""
    edge_tops = [p for p, _ in d.edges]
    m = len(edge_tops)
    strands = [(k + 1, m + p, dot) for k, (p, dot) in enumerate(d.edges)]
    strands += [(m + i, m + j, dot) for i, j, dot in d.cups]
    return DecoratedTangle(m, d.n, tuple(sorted(strands)))


def _stack(lower: DecoratedTangle, upper: DecoratedTangle) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Glue upper's bottom face onto lower's top face.

    Returns composite strands as (a, b, parity) in the composite
    numbering (bottom 1..lower.m, top lower.m+1..lower.m+upper.n) plus
    the parity of every closed loop."""
    if lower.n != upper.m:
        raise ValueError("face sizes do not match")
    m, k = lower.m, lower.n
    # lower keeps its numbering and upper's shifts up by m, so the junction
    # points m+1..m+k are shared and every other point is on the boundary
    partners: tuple[dict[int, tuple[int, bool]], ...] = ({}, {})
    for side, t in enumerate((lower, upper)):
        shift = side * m
        for a, b, d in t.strands:
            partners[side][a + shift] = (b + shift, d)
            partners[side][b + shift] = (a + shift, d)
    seen: set[int] = set()

    def follow(start: int, side: int) -> tuple[int, int]:
        """Trace from start until a boundary point or start comes back."""
        p, parity = start, 0
        seen.add(start)
        while True:
            p, d = partners[side][p]
            seen.add(p)
            parity ^= d
            if not m < p <= m + k or p == start:
                return p, parity
            side ^= 1

    strands: list[tuple[int, int, int]] = []
    for p in [*range(1, m + 1), *range(m + k + 1, m + k + upper.n + 1)]:
        if p not in seen:
            # the scan reaches p first, so p < q; top points drop the junction
            q, parity = follow(p, int(p > m))
            strands.append((p if p <= m else p - k, q if q <= m else q - k, parity))
    loops = [follow(p, 0)[1] for p in range(m + 1, m + k + 1) if p not in seen]
    return strands, loops


def mul(x: DecoratedTangle, y: DecoratedTangle) -> tuple[LaurentPoly, Optional[DecoratedTangle]]:
    """Product xy: x stacked on top of y, loops reduced.

    Each plain loop multiplies by q + q^-1 and an odd loop kills the
    product, and so does a result struck from the basis (no through
    strand, an odd number of plain cups), which acts by zero; below
    n = 3, where the algebra layer has no basis, such a result is kept.
    The survivor is a scalar times one tangle, zero is (ZERO, None)."""
    strands, loops = _stack(y, x)
    if any(loops):
        return ZERO, None
    tangle = DecoratedTangle(y.m, x.n, tuple(sorted((p, q, bool(d)) for p, q, d in strands)))
    if tangle.n >= 3 and _struck(tangle):
        return ZERO, None
    coeff = ONE
    for _ in loops:
        coeff = coeff * LOOP
    return coeff, tangle


def act(t: DecoratedTangle, d: DecoratedCupDiagram) -> tuple[LaurentPoly, Optional[DecoratedCupDiagram]]:
    """Act by a tangle on a decorated cup diagram, t on top.

    Loops reduce as in mul.  A composite strand closing onto the
    module floor is a cap there: plain kills the element, dotted is
    erased at no cost.  The survivor is a scalar times one diagram."""
    if t.m != d.n:
        raise ValueError("tangle bottom must match the diagram size")
    lower = tangle_of_cup(d)
    strands, loops = _stack(lower, t)
    if any(loops):
        return ZERO, None
    coeff = ONE
    for _ in loops:
        coeff = coeff * LOOP
    floor = lower.m
    cups: list[tuple[int, int, bool]] = []
    edges: list[tuple[int, bool]] = []
    for a, b, parity in strands:
        if b <= floor:  # cap on the module floor
            if not parity:
                return ZERO, None
            continue
        if a > floor:
            cups.append((a - floor, b - floor, bool(parity)))
        else:
            edges.append((b - floor, bool(parity)))
    return coeff, DecoratedCupDiagram(t.n, tuple(sorted(cups)), tuple(sorted(edges)))


def _struck(t: DecoratedTangle) -> bool:
    """Fully capped with an odd number of plain cups: not in the basis."""
    return not t.edge_strands() and sum(1 for *_, d in t.cup_strands() if not d) % 2 == 1


@functools.lru_cache(maxsize=None)
def tlhat_basis(n: int) -> tuple[DecoratedTangle, ...]:
    """Basis of the quotient algebra: the image of the cell map, sorted
    by strands."""
    if n < 3:
        raise ValueError("the algebra layer supports n >= 3")
    images = (cell_tangle(a, b) for ms in cell_datum(n).m_sets for a in ms for b in ms)
    return tuple(sorted(images, key=lambda t: t.strands))


def _noncrossing_pairings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for idx in range(0, len(rest), 2):
        inside, outside = rest[:idx], rest[idx + 1 :]
        for mi in _noncrossing_pairings(inside):
            for mo in _noncrossing_pairings(outside):
                yield ((first, rest[idx]), *mi, *mo)


def enumerate_basis_tangles(n: int) -> list[DecoratedTangle]:
    """Oracle for tlhat_basis, by brute force: every dot pattern on
    every planar matching of the 2n points, filtered through the
    constructor, keeping the even loop-free tangles that are not struck.
    Uncached and slow; tests and verify compare the cell image with it."""
    boundary = tuple(range(1, n + 1)) + tuple(range(2 * n, n, -1))
    out: list[DecoratedTangle] = []
    for pairing in _noncrossing_pairings(boundary):
        pairs = [(min(a, b), max(a, b)) for a, b in pairing]
        for bits in range(1 << len(pairs)):
            try:
                t = DecoratedTangle(
                    n,
                    n,
                    tuple(sorted((a, b, bool(bits >> k & 1)) for k, (a, b) in enumerate(pairs))),
                )
            except ValueError:
                continue
            if t.dot_count() % 2 == 0 and not _struck(t):
                out.append(t)
    return out


# -- cellular structure ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CellDatum:
    """Cell poset (through-strand counts, largest first) and the cup
    diagrams indexing each cell."""

    n: int
    lambdas: tuple[int, ...]
    m_sets: tuple[tuple[DecoratedCupDiagram, ...], ...]


def cell_datum(n: int) -> CellDatum:
    lambdas = tuple(range(n, -1, -2))
    by_lam: dict[int, list[DecoratedCupDiagram]] = {lam: [] for lam in lambdas}
    for w in enumerate_wp(n):
        d = decorated_cup(w)
        by_lam[len(d.edges)].append(d)
    return CellDatum(n, lambdas, tuple(tuple(by_lam[lam]) for lam in lambdas))


def cell_tangle(alpha: DecoratedCupDiagram, beta: DecoratedCupDiagram) -> DecoratedTangle:
    """Basis tangle with top half alpha and bottom half the reflection
    of beta; dots on joined edges merge by parity."""
    if len(alpha.edges) != len(beta.edges):
        raise ValueError("halves must have the same number of edges")
    strands, loops = _stack(star(tangle_of_cup(beta)), tangle_of_cup(alpha))
    if loops:
        raise AssertionError("gluing two cup diagram halves cannot close a loop")
    return DecoratedTangle(
        beta.n, alpha.n, tuple(sorted((p, q, bool(d)) for p, q, d in strands))
    )


def cut_cell(x: DecoratedTangle) -> tuple[int, DecoratedCupDiagram, DecoratedCupDiagram]:
    """Split a basis tangle into (through count, top half, bottom half).

    The dot parity of the leftmost through strand distributes over the
    two halves' leftmost edges.  Each half must have an even number of
    plain cups plus dotted edges, so its cups alone fix the dot on its
    edge, and the two dots must add up to the strand's parity."""
    if x.m != x.n:
        raise ValueError("only square tangles split into cell halves")
    n = x.n
    cups = tuple(sorted((p - n, q - n, d) for p, q, d in x.cup_strands()))
    caps = tuple(sorted(x.cap_strands()))
    through = sorted(x.edge_strands())
    top_dot, bottom_dot = (sum(1 for *_, d in arcs if not d) % 2 == 1 for arcs in (cups, caps))
    lead = through[0][2] if through else False
    # without a through strand neither half has an edge to carry a dot
    if top_dot ^ bottom_dot != lead or (top_dot and not through):
        raise AssertionError("no dot placement across the cut")
    top_edges = tuple((q - n, top_dot and k == 0) for k, (_, q, _) in enumerate(through))
    bottom_edges = tuple((p, bottom_dot and k == 0) for k, (p, _, _) in enumerate(through))
    return len(through), DecoratedCupDiagram(n, cups, top_edges), DecoratedCupDiagram(n, caps, bottom_edges)


def cell_module_action(
    x: DecoratedTangle,
    lam: int,
    alpha: DecoratedCupDiagram,
    beta: DecoratedCupDiagram,
) -> Optional[tuple[LaurentPoly, DecoratedCupDiagram]]:
    """Action of x on the cell-module vector labelled alpha, computed
    through the auxiliary half beta.  None when the product falls into a
    lower cell or dies."""
    coeff, t = mul(x, cell_tangle(alpha, beta))
    if t is None or len(t.edge_strands()) < lam:
        return None
    lam2, alpha2, beta2 = cut_cell(t)
    if lam2 != lam:
        raise AssertionError(f"product landed in cell {lam2}, not {lam}")
    if beta2 != beta:
        raise AssertionError("the auxiliary half must come through unchanged")
    return coeff, alpha2


# -- comparison with the Hecke module --------------------------------------


def phi(x: ModuleElement) -> dict[DecoratedCupDiagram, LaurentPoly]:
    """Image of a Hecke-module element under canonical-basis-to-diagram
    transport."""
    coords = expand_in_kl(x, kl_table(x.n))
    return {decorated_cup(z): c for z, c in coords.items()}

def hecke_commutation_holds(w: PMSequence, i: int) -> bool:
    """Does acting by generator i on the diagram of w match transporting
    the Hecke action of C_i on the canonical basis element of w?"""
    lhs = phi(cs_action(kl_basis(w), i))
    coeff, diagram = act(generator(w.n, i), decorated_cup(w))
    rhs = {diagram: coeff} if diagram is not None and coeff else {}
    return lhs == rhs


# -- faithfulness of the action on cup diagrams ----------------------------


def _rational_rank(rows: list[dict[int, Fraction]]) -> int:
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        piv_col = min(min(r) for r in rows)
        piv = next(r for r in rows if piv_col in r)
        rows.remove(piv)
        rank += 1
        pv = piv[piv_col]
        reduced = []
        for r in rows:
            if piv_col in r:
                f = r[piv_col] / pv
                nr = {}
                for c in set(r) | set(piv):
                    v = r.get(c, Fraction(0)) - f * piv.get(c, Fraction(0))
                    if v:
                        nr[c] = v
                if nr:
                    reduced.append(nr)
            else:
                reduced.append(r)
        rows = reduced
    return rank


def faithfulness_rank(n: int, q_value: Fraction) -> tuple[int, int]:
    """Rank of the vectorized basis action on cup diagrams at an exact
    rational q, against the basis size.  Each basis element gives one
    sparse row: entry (image, column) of its action, flattened."""
    basis = tlhat_basis(n)
    order = [decorated_cup(w) for w in enumerate_wp(n)]
    index = {d: i for i, d in enumerate(order)}
    size = len(order)
    rows = []
    for b in basis:
        row = {}
        for j, d in enumerate(order):
            coeff, image = act(b, d)
            if image is not None and coeff:
                row[index[image] * size + j] = coeff.eval_rational(q_value)
        rows.append(row)
    return _rational_rank(rows), len(basis)
