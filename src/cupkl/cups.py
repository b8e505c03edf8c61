"""Cup diagrams attached to sign sequences, in two pictures.

The full picture lives on 4n boundary points -2n..-1, 1..2n.  A sign
sequence labels those points (antisymmetric in the middle, frozen
outside), the labels have a unique planar matching, and repeatedly
exchanging the endpoints of the two innermost arcs that cross the middle
turns the matching into the full cup diagram: crossings survive only
inside the marked "linked" pairs of arcs.

Cutting to the points 1..n produces the small picture, a decorated cup
diagram: cups and vertical edges on n points, some carrying a dot.  Dots
record where a linked pair was severed.  The small picture also has a
direct construction straight from the signs; tests hold the two
constructions together.

Conventions for a label at a point: a plus is Down, a minus is Up.  The
small picture is the production route for orientations: v orients the
decorated cup diagram of w when its signs follow ``STRAND_LABELS`` on
every cup and edge, and the degrees add up to a(v, w); ``orientations_of``
generates those v point by point.  Circle diagrams are built from the
full picture.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional, Sequence

from . import laurent
from ._frozen import Frozen
from .weyl import MINUS, PLUS, PMSequence

__all__ = [
    "FullCupDiagram",
    "DecoratedCupDiagram",
    "matching",
    "cup_diagram",
    "cut",
    "decorated_cup",
    "orientations_of",
    "kl_poly_diagrammatic",
    "cut_degree",
]

Cup = tuple[int, int, bool]
Edge = tuple[int, bool]
Strand = tuple[int, int, bool]


def check_strands(m: int, n: int, strands: Sequence[Strand]) -> None:
    """The one rule every diagram here obeys.  Strands (a, b, dotted) with
    a < b pair the points 1..m of a bottom face and m+1..m+n of a top face,
    each point ending one strand, and are listed by their small ends.
    Swept round the boundary from the left wall, bottom points from the
    left, then top ones from the right, each strand closes on top of the
    open ones (none cross), and a dotted one opens with none open (its dot
    reaches the wall).  On each face that says cups do not cross, no edge
    sits under a cup, a dotted cup is not nested and has no edge to its
    left, and a dotted edge is the leftmost edge; and the through strands
    keep their order, as a through strand encloses all to its right on
    both faces.  The strand count is checked first, so nothing is built
    for a count that cannot fit."""
    size = m + n
    if min(m, n) < 0 or 2 * len(strands) != size:
        raise ValueError(f"{len(strands)} strands cannot pair {m} + {n} points")
    at, small = [None] * (size + 1), 0
    for strand in strands:
        a, b, _ = strand
        if not small < a < b <= size or at[a] or at[b]:
            raise ValueError(f"strand {strand} is not listed (small, large) after {small} on free points of 1..{size}")
        at[a] = at[b] = strand
        small = a
    # round the boundary: a strand met on top of the open ones closes; any other opens, or crosses if open
    opened: list[Optional[Strand]] = [None]
    for strand in at[1 : m + 1] + at[:m:-1]:
        if opened[-1] is strand:
            opened.pop()
        elif strand[2] and opened[-1] and strand not in opened:
            raise ValueError(f"the dot on {strand} cannot reach the left wall")
        else:
            opened.append(strand)
    if opened[-1]:  # the first strand met again crosses the one under it
        i = next(i for i, strand in enumerate(opened) if strand in opened[:i])
        raise ValueError(f"strands {opened[i]} and {opened[i - 1]} cross")


def face_ascii(size: int, cups: Iterable[Cup], edges: Iterable[Edge]) -> tuple[str, str]:
    """A face as two rows: point labels, then one column per point with
    ( ) for cup ends, | for an edge, and * marking a dotted strand at its
    left (cup) or only (edge) point."""
    cells = {}
    for i, j, d in cups:
        cells[i] = "(" + ("*" if d else " ")
        cells[j] = ") "
    for p, d in edges:
        cells[p] = "|" + ("*" if d else " ")
    labels = "".join(f"{p % 10:<2}" for p in range(1, size + 1))
    return labels.rstrip(), "".join(cells[p] for p in range(1, size + 1)).rstrip()


class FullCupDiagram(Frozen):
    """2n arcs on the 4n points, with the linked pairs marked.

    The points are indexed 0..4n-1 from the left: point p is index
    2n + p below the middle (p < 0) and 2n + p - 1 above it, so the
    negative of index k is 4n - 1 - k.  ``partner[k]`` is the other end
    of the arc at k.  ``bits[k]`` is 1 << j at the four ends of the j-th
    linked pair and 0 elsewhere.  Members of a linked pair cross each
    other; nothing else crosses.
    """

    __slots__ = _fields = ("n", "partner", "bits")


def _labels(v: PMSequence) -> list[bool]:
    """Up (True) or Down at the indices 0..4n-1: Down below -n, the signs
    mirrored with plus Up on -n..-1, the signs with minus Up on 1..n, and
    Up above n."""
    n, signs = v.n, v.signs
    return [False] * n + [s == PLUS for s in reversed(signs)] + [s == MINUS for s in signs] + [True] * n


def matching(w: PMSequence) -> tuple[int, ...]:
    """The unique planar matching of the labels of w, as the partner of
    each index 0..4n-1: repeatedly connect an adjacent Down-then-Up pair
    and remove it.  Implemented with a stack, which never runs dry: n
    Downs come first, the middle 2n points hold n Ups, and the last n
    points are Up."""
    stack: list[int] = []
    partner = [0] * (4 * w.n)
    for k, up in enumerate(_labels(w)):
        if up:
            j = stack.pop()
            partner[j], partner[k] = k, j
        else:
            stack.append(k)
    return tuple(partner)


@functools.lru_cache(maxsize=None)
def cup_diagram(w: PMSequence) -> FullCupDiagram:
    """Full cup diagram of a sequence, built once per sequence.

    In the planar matching of its labels the arcs crossing the middle
    are pairwise nested, and there are evenly many of them, since the 2n
    points left of the middle are all matched.  Take them innermost
    first in consecutive pairs, trade the outer ends within each pair,
    and mark the traded pair linked.
    """
    n = w.n
    partner = list(matching(w))
    bits = [0] * (4 * n)
    crossing = [k for k in reversed(range(2 * n)) if partner[k] >= 2 * n]
    for j, (p, r) in enumerate(zip(crossing[0::2], crossing[1::2])):
        q, s = partner[p], partner[r]
        partner[p], partner[s], partner[r], partner[q] = s, p, q, r
        bits[p] = bits[q] = bits[r] = bits[s] = 1 << j
    return FullCupDiagram(n, tuple(partner), tuple(bits))


class DecoratedCupDiagram(Frozen):
    """Cups and edges on the points 1..n, each possibly dotted.

    Validity is enforced on construction: the diagram's strands obey
    ``check_strands``, so cups and edges are listed sorted and the face
    obeys the planarity-and-dot rule, and dotted edges + plain cups come
    in even total.
    """

    __slots__ = _fields = ("n", "cups", "edges")

    def __post_init__(self) -> None:
        check_strands(len(self.edges), self.n, self.strands())
        plain_cups = sum(1 for *_, d in self.cups if not d)
        dotted_edges = sum(1 for _, d in self.edges if d)
        if (plain_cups + dotted_edges) % 2:
            raise ValueError("parity: plain cups plus dotted edges must be even")

    def strands(self) -> tuple[Strand, ...]:
        """The diagram as a tangle's strands, with one bottom point per
        edge and m the number of edges: edge k runs from bottom point k to
        m + p, its point, and cup (i, j) from m + i to m + j."""
        m = len(self.edges)
        return (*[(k, m + p, d) for k, (p, d) in enumerate(self.edges, 1)], *[(m + i, m + j, d) for i, j, d in self.cups])

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cups": [{"from": i, "to": j, "dotted": d} for i, j, d in self.cups],
            "edges": [{"at": p, "dotted": d} for p, d in self.edges],
        }

    def to_ascii(self) -> str:
        return "\n".join(face_ascii(self.n, self.cups, self.edges))


def cut(c: FullCupDiagram) -> DecoratedCupDiagram:
    """Restrict a full cup diagram to the points 1..n.

    A plain arc inside 1..n stays a plain cup; a plain arc leaving the
    range becomes a plain edge.  A linked pair keeps its endpoints inside
    1..n, as a dotted cup (two survivors), a dotted edge (one), or
    nothing (none)."""
    n = c.n
    cups: list[Cup] = []
    edges: list[Edge] = []
    kept: dict[int, list[int]] = {}
    for k in range(2 * n, 3 * n):
        j, p = c.partner[k], k - 2 * n + 1
        if c.bits[k]:
            kept.setdefault(c.bits[k], []).append(p)
        elif not 2 * n <= j < 3 * n:
            edges.append((p, False))
        elif k < j:
            cups.append((p, j - 2 * n + 1, False))
    for ends in kept.values():
        if len(ends) == 2:
            cups.append((ends[0], ends[1], True))
        else:
            edges.append((ends[0], True))
    return DecoratedCupDiagram(n, tuple(sorted(cups)), tuple(sorted(edges)))


@functools.lru_cache(maxsize=None)
def decorated_cup(w: PMSequence) -> DecoratedCupDiagram:
    """Decorated cup diagram straight from the signs, built once per
    sequence, in one bracket pass.

    Each plus is pushed, and a minus pops the nearest open plus into a
    plain cup.  The minuses left over pair left to right by dotted cups,
    an odd one out becomes a dotted edge, and the pluses left over become
    plain edges."""
    opened: list[int] = []
    minuses: list[int] = []
    cups: list[Cup] = []
    for p, sign in enumerate(w.signs, 1):
        if sign == PLUS:
            opened.append(p)
        elif opened:
            cups.append((opened.pop(), p, False))
        else:
            minuses.append(p)
    cups += [(a, b, True) for a, b in zip(minuses[0::2], minuses[1::2])]
    edges = [(minuses[-1], True)] if len(minuses) % 2 else []
    edges += [(p, False) for p in opened]
    return DecoratedCupDiagram(w.n, tuple(sorted(cups)), tuple(edges))


# How a sequence may sign each strand of a decorated cup diagram, keyed by
# (number of ends, dotted), with the degree each signing adds: a plain cup
# is Down-Up or Up-Down, a dotted cup Up-Up or Down-Down, and an edge is
# forced by its dot.  A plus is Down, a minus is Up.
STRAND_LABELS = {
    (2, False): {(PLUS, MINUS): 0, (MINUS, PLUS): 1},
    (2, True): {(MINUS, MINUS): 0, (PLUS, PLUS): 1},
    (1, False): {(PLUS,): 0},
    (1, True): {(MINUS,): 0},
}


def cut_degree(v: PMSequence, dc: DecoratedCupDiagram) -> Optional[int]:
    """Degree of v on a decorated cup diagram by ``STRAND_LABELS``, or None
    if v does not orient it.  Agrees with half the clockwise count of the
    full picture."""
    deg = 0
    for *ends, dot in (*dc.cups, *dc.edges):
        d = STRAND_LABELS[len(ends), dot].get(tuple(v.signs[p - 1] for p in ends))
        if d is None:
            return None
        deg += d
    return deg


def orientations_of(w: PMSequence) -> list[tuple[PMSequence, int]]:
    """Every sequence orienting the decorated cup diagram of w, with its
    clockwise count (twice the degree), in enumeration order.

    One walk over 1..n extends every partial sign string: a strand's
    first end branches over its signings, plus first as PMSequence sorts,
    and a cup's second end writes the sign pairing with its first, so the
    2^(cups) results come out sorted and need no filter: the diagram's
    parity rule keeps their minuses even."""
    dc = decorated_cup(w)
    branches, pairs = {}, {}
    for *ends, dot in (*dc.cups, *dc.edges):
        labels = STRAND_LABELS[len(ends), dot]
        branches[ends[0]] = sorted((signed[0], d) for signed, d in labels.items())
        if len(ends) == 2:
            pairs[ends[1]] = ends[0] - 1, {a: b for a, b in labels}
    out = [("", 0)]
    for p in range(1, w.n + 1):
        if p in pairs:
            i, pair = pairs[p]
            out = [(s + pair[s[i]], d) for s, d in out]
        else:
            out = [(s + sign, d + e) for s, d in out for sign, e in branches[p]]
    return [(PMSequence(s), 2 * d) for s, d in out]


def kl_poly_diagrammatic(v: PMSequence, w: PMSequence) -> laurent.LaurentPoly:
    """q to the degree of v on the decorated cup diagram of w, else zero.
    Matches the canonical-basis coefficient; tests compare against the
    recursion."""
    d = cut_degree(v, decorated_cup(w))
    return laurent.ZERO if d is None else laurent.LaurentPoly.q_power(d)


def perfect(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every non-crossing perfect matching of the points in this order."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for k in range(0, len(rest), 2):
        for in_pairs in perfect(rest[:k]):
            for out_pairs in perfect(rest[k + 1 :]):
                yield ((first, rest[k]), *in_pairs, *out_pairs)
