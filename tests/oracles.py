"""Reference routes the tests hold the library against: the slow, simple
form of what the library computes another way.  Nothing in src/ calls them."""

import contextlib
import itertools
from typing import Optional, Sequence

from cupkl.cups import Cup, DecoratedCupDiagram, Edge, _labels, orientations_of
from cupkl.tangles import DecoratedTangle, _faces, _join
from cupkl.weyl import MINUS, PMSequence


def orient(v, c):
    """Number of clockwise arcs (left end Up, right end Down) when every
    arc of the full picture c has one Up and one Down end under v, else
    None.  Dots are invisible here."""
    if v.n != c.n:
        raise ValueError("sequence and diagram sizes differ")
    up = _labels(v)
    clockwise = 0
    for a, b in enumerate(c.partner):
        if a > b:
            continue
        if up[a] == up[b]:
            return None
        clockwise += up[a]
    if clockwise % 2:
        raise AssertionError("clockwise arcs come in even number")
    return clockwise


def planar(points):
    """Every non-crossing partial matching of the points with no unmatched
    point enclosed, as (pairs in order of left ends, unmatched points)."""
    if not points:
        yield (), ()
        return
    first, rest = points[0], points[1:]
    for pairs, unmatched in planar(rest):
        yield pairs, (first, *unmatched)
    for k, second in enumerate(rest):
        inside, outside = rest[:k], rest[k + 1 :]
        for in_pairs, in_unmatched in planar(inside):
            if in_unmatched:
                continue
            for out_pairs, out_unmatched in planar(outside):
                yield ((first, second), *in_pairs, *out_pairs), out_unmatched


def enumerate_decorated(n):
    """Every valid decorated cup diagram on n points: every planar shape
    with every dot pattern, kept when the constructor accepts it."""
    out = []
    for cups, edges in planar(tuple(range(1, n + 1))):
        for dots in itertools.product((False, True), repeat=len(cups) + len(edges)):
            marked = tuple((i, j, d) for (i, j), d in zip(cups, dots))
            with contextlib.suppress(ValueError):
                out.append(DecoratedCupDiagram(n, marked, tuple(zip(edges, dots[len(cups) :]))))
    return out


def oriented_basis(w, wprime):
    """Weights orienting both decorated cup diagrams, with total degree, in
    enumeration order."""
    other = dict(orientations_of(wprime))
    return [(v, (r + other[v]) // 2) for v, r in orientations_of(w) if v in other]


def tangle_of_cup(d: DecoratedCupDiagram) -> DecoratedTangle:
    """A decorated cup diagram as a validated tangle: its strands, one
    bottom point per edge.  act stacks the same strands without building
    it."""
    return DecoratedTangle(len(d.edges), d.n, d.strands())


def star(t: DecoratedTangle) -> DecoratedTangle:
    """Reflection swapping the two faces of a tangle."""
    (cups, top), (caps, bottom) = t.faces()
    return _join(t.n, t.m, cups, caps, [(q, p, d) for (p, d), (q, _) in zip(bottom, top)])


def face_rule(m, n, strands):
    """Raise ValueError unless strands make a valid (m, n) tangle, read off
    its two faces: listed sorted, the through strands in the same order on
    both faces, and each face a valid decorated cup diagram's."""
    if min(m, n) < 0 or 2 * len(strands) != m + n:
        raise ValueError(f"{len(strands)} strands cannot pair {m} + {n} points")
    if list(strands) != sorted(strands):
        raise ValueError("strands must be listed sorted")
    top, bottom = _faces(m, strands)
    if list(top[1]) != sorted(top[1]):
        raise ValueError("through strands must keep their order")
    check_face(n, *top)
    check_face(m, *bottom)


def check_face(size: int, cups: Sequence[Cup], edges: Sequence[Edge]) -> None:
    """The rule a cup diagram obeys over its points 1..size, numbered from
    the left: each point ends exactly one cup (i, j, dotted) with i < j or
    one edge (p, dotted), cups do not cross, no edge sits under a cup, and
    every dot can reach the left wall, so a dotted cup is not nested and
    has no edge to its left, and a dotted edge is the leftmost edge.  Each
    face of a tangle obeys it; the tangle constructor checks both at once.

    Checked in one sweep from the left with a stack of the open cups."""
    at: list[Optional[tuple]] = [None] * (size + 1)
    for strand in [*cups, *edges]:
        # strand[-2] is a cup's right end or an edge's point; a cup from a
        # point to itself covers that point twice
        if not 1 <= strand[0] <= strand[-2] <= size:
            raise ValueError(f"bad cup or edge {strand} on {size} points")
        for p in strand[:-1]:
            if at[p] is not None:
                raise ValueError(f"point {p} is covered twice")
            at[p] = strand
    opened: list[Cup] = []
    edge_seen = False
    for p in range(1, size + 1):
        strand = at[p]
        if strand is None:
            raise ValueError(f"point {p} is not covered")
        if len(strand) == 2:  # an edge
            if opened:
                raise ValueError(f"edge at {p} sits under cup {opened[-1]}")
            if strand[1] and edge_seen:
                raise ValueError(f"dotted edge at {p} is not the leftmost edge")
            edge_seen = True
        elif strand[0] == p:
            if strand[2] and (opened or edge_seen):
                raise ValueError(f"dotted cup {strand} is nested or has an edge to its left")
            opened.append(strand)
        elif opened.pop() != strand:
            raise ValueError(f"cup {strand} crosses another")


def young_diagram(w: PMSequence) -> tuple[int, ...]:
    """Self-conjugate Young diagram of w inside the n x n square, as its
    nonzero row lengths from the top.

    Walk from the upper-right corner reading the signs right to left, a
    minus moving down and a plus moving left; that reaches the main
    diagonal, and reflecting the walk across the diagonal closes the
    boundary.  The diagram is everything left of the walk: the walked
    rows, each max-ed with the conjugate row, whose length is the number
    of walked rows longer than its index.
    """
    walked: list[int] = []
    col = w.n
    for sign in reversed(w.signs):
        if sign == MINUS:
            walked.append(col)
        else:
            col -= 1
    longer = len(walked)
    rows = []
    for r in range(max(longer, walked[0] if walked else 0)):
        while longer and walked[longer - 1] <= r:
            longer -= 1
        rows.append(max(walked[r] if r < len(walked) else 0, longer))
    return tuple(rows)


def _word(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of a self-conjugate diagram, row by row.

    Diagonal boxes come in consecutive pairs; each pair spans a 2 x 2
    block emitting letter 0 in the row of its top-left box.  Every other
    box strictly right of the diagonal, at (row, col), emits letter
    col - row.
    """
    diagonal = sum(1 for r, length in enumerate(rows) if length > r)
    if diagonal % 2:
        raise AssertionError("diagonal of a self-conjugate diagram is even here")
    letters: list[int] = []
    for r, length in enumerate(rows):
        block = int(r % 2 == 0 and r < diagonal)
        letters += [0] * block
        letters += range(1 + block, length - r)
    return tuple(letters)
