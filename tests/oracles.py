"""Reference routes the tests hold the library against: the slow, simple
form of what the library computes another way.  Nothing in src/ calls them."""

import contextlib
import itertools

from cupkl.cups import DecoratedCupDiagram, _labels, check_face, orientations_of
from cupkl.tangles import _faces


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
