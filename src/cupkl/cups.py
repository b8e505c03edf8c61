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
generates those v strand by strand.  In the full picture an arc is
oriented clockwise when its left end is Up and its right end Down, and
dots never constrain orientations; ``orient`` counts clockwise arcs there
and is the oracle the tests compare against.  Circle diagrams are built
from the full picture.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable, Mapping, Optional, Sequence

from .laurent import ZERO, LaurentPoly, json_field, json_object
from .weyl import MINUS, PLUS, PMSequence

__all__ = [
    "FullCupDiagram",
    "DecoratedCupDiagram",
    "matching",
    "cup_diagram",
    "cut",
    "decorated_cup",
    "orient",
    "orientations_of",
    "kl_poly_diagrammatic",
    "cut_degree",
    "enumerate_decorated",
]

Arc = tuple[int, int]


Cup = tuple[int, int, bool]
Edge = tuple[int, bool]


def check_face(cups: Sequence[Cup], edges: Sequence[Edge]) -> None:
    """The rule every face obeys, a cup diagram's or either face of a
    tangle, over its points numbered from the left: cups (i, j, dotted)
    do not cross, no edge (p, dotted) sits under a cup, and every dot can
    reach the left wall, so a dotted cup is not nested and has no edge to
    its left, and a dotted edge is the leftmost edge."""
    for i, j, d in cups:
        for k, l, _ in cups:
            if i < k < j < l:
                raise ValueError(f"cups ({i},{j}) and ({k},{l}) cross")
        for p, _ in edges:
            if i < p < j:
                raise ValueError(f"edge at {p} sits under cup ({i},{j})")
        if d and any(k < i and j < l for k, l, _ in cups):
            raise ValueError(f"dotted cup ({i},{j}) is nested, dot not accessible")
        if d and any(p < i for p, _ in edges):
            raise ValueError(f"dotted cup ({i},{j}) has an edge to its left")
    for p, d in edges:
        if d and any(q < p for q, _ in edges):
            raise ValueError(f"dotted edge at {p} is not the leftmost edge")


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


@dataclasses.dataclass(frozen=True)
class FullCupDiagram:
    """2n arcs on the 4n points, plus the linked pairs.

    Arcs are (left, right) endpoint tuples.  Members of a linked pair
    cross each other; nothing else crosses.
    """

    n: int
    arcs: frozenset[Arc]
    linked_pairs: frozenset[frozenset[Arc]]

    @functools.cached_property
    def index(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The arcs over their endpoints numbered 0..4n-1 from the left:
        the points in that order, the partner of each point, and its linked
        pair bit, 1 << k at both ends of both arcs of the k-th linked pair
        and 0 elsewhere.  Tuples, since every caller shares them."""
        points = sorted(p for arc in self.arcs for p in arc)
        at = {p: k for k, p in enumerate(points)}
        partner = [0] * len(points)
        bits = [0] * len(points)
        for a, b in self.arcs:
            partner[at[a]], partner[at[b]] = at[b], at[a]
        for k, pair in enumerate(self.linked_pairs):
            for a, b in pair:
                bits[at[a]] = bits[at[b]] = 1 << k
        return tuple(points), tuple(partner), tuple(bits)


def _labels(v: PMSequence) -> dict[int, bool]:
    """Up (True) or Down at the 4n points -2n..-1, 1..2n, in order: Down
    below -n, the signs mirrored with plus Up on -n..-1, the signs with
    minus Up on 1..n, and Up above n."""
    n, signs = v.n, v.signs
    ups = [False] * n + [s == PLUS for s in reversed(signs)] + [s == MINUS for s in signs] + [True] * n
    return dict(zip([*range(-2 * n, 0), *range(1, 2 * n + 1)], ups))


def matching(w: PMSequence) -> FullCupDiagram:
    """The unique planar matching of the labels of w: repeatedly connect an
    adjacent Down-then-Up pair and remove it.  Implemented with a stack,
    which never runs dry: n Downs come first, the middle 2n points hold n
    Ups, and the last n points are Up."""
    stack: list[int] = []
    arcs: set[Arc] = set()
    for p, up in _labels(w).items():
        if up:
            arcs.add((stack.pop(), p))
        else:
            stack.append(p)
    return FullCupDiagram(w.n, frozenset(arcs), frozenset())


@functools.lru_cache(maxsize=None)
def cup_diagram(w: PMSequence) -> FullCupDiagram:
    """Full cup diagram of a sequence, built once per sequence.

    In the planar matching of its labels the arcs crossing the middle
    are pairwise nested, and there are evenly many of them, since the 2n
    points left of the middle are all matched.  Take them innermost
    first in consecutive pairs, trade the outer ends within each pair,
    and mark the traded pair linked.
    """
    arcs = matching(w).arcs
    crossing = sorted((a for a in arcs if a[0] < 0 < a[1]), reverse=True)
    linked = frozenset(
        frozenset({(p, s), (r, q)})
        for (p, q), (r, s) in zip(crossing[0::2], crossing[1::2])
    )
    return FullCupDiagram(w.n, (arcs - set(crossing)).union(*linked), linked)


@dataclasses.dataclass(frozen=True)
class DecoratedCupDiagram:
    """Cups and edges on the points 1..n, each possibly dotted.

    Validity is enforced on construction: the points are covered once,
    the face obeys ``check_face`` (the planarity-and-dot rule, stated
    there once for cup diagrams and both faces of a tangle), and dotted
    edges + plain cups come in even total.
    """

    n: int
    cups: tuple[Cup, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        covered: list[int] = []
        for i, j, _ in self.cups:
            if not 1 <= i < j <= self.n:
                raise ValueError(f"bad cup ({i}, {j}) for n={self.n}")
            covered += [i, j]
        for p, _ in self.edges:
            if not 1 <= p <= self.n:
                raise ValueError(f"bad edge at {p} for n={self.n}")
            covered.append(p)
        if sorted(covered) != list(range(1, self.n + 1)):
            raise ValueError("cups and edges must cover 1..n exactly once")
        if list(self.cups) != sorted(self.cups) or list(self.edges) != sorted(self.edges):
            raise ValueError("cups and edges must be listed sorted")
        check_face(self.cups, self.edges)
        plain_cups = sum(1 for *_, d in self.cups if not d)
        dotted_edges = sum(1 for _, d in self.edges if d)
        if (plain_cups + dotted_edges) % 2:
            raise ValueError("parity: plain cups plus dotted edges must be even")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cups": [{"from": i, "to": j, "dotted": d} for i, j, d in self.cups],
            "edges": [{"at": p, "dotted": d} for p, d in self.edges],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "DecoratedCupDiagram":
        data = json_object(data, "n", "cups", "edges")
        cups, edges = [], []
        for c in data["cups"]:
            c = json_object(c, "from", "to", "dotted")
            cups.append((json_field(c["from"], int), json_field(c["to"], int), json_field(c["dotted"], bool)))
        for e in data["edges"]:
            e = json_object(e, "at", "dotted")
            edges.append((json_field(e["at"], int), json_field(e["dotted"], bool)))
        return cls(json_field(data["n"], int), tuple(sorted(cups)), tuple(sorted(edges)))

    def to_ascii(self) -> str:
        return "\n".join(face_ascii(self.n, self.cups, self.edges))


def cut(c: FullCupDiagram) -> DecoratedCupDiagram:
    """Restrict a full cup diagram to the points 1..n.

    A plain arc inside 1..n stays a plain cup; a plain arc leaving the
    range becomes a plain edge.  A linked pair keeps its endpoints inside
    1..n, as a dotted cup (two survivors), a dotted edge (one), or
    nothing (none)."""
    n = c.n
    in_range = lambda p: 1 <= p <= n
    taken = {a for pair in c.linked_pairs for a in pair}
    cups: list[Cup] = []
    edges: list[Edge] = []
    for a, b in sorted(c.arcs - taken):
        if in_range(a) and in_range(b):
            cups.append((a, b, False))
        elif in_range(a) or in_range(b):
            edges.append((a if in_range(a) else b, False))
    for pair in c.linked_pairs:
        kept = sorted(p for arc in pair for p in arc if in_range(p))
        if len(kept) == 2:
            cups.append((kept[0], kept[1], True))
        elif len(kept) == 1:
            edges.append((kept[0], True))
    return DecoratedCupDiagram(n, tuple(sorted(cups)), tuple(sorted(edges)))


@functools.lru_cache(maxsize=None)
def decorated_cup(w: PMSequence) -> DecoratedCupDiagram:
    """Decorated cup diagram straight from the signs, built once per
    sequence.

    Join adjacent plus-then-minus pairs by plain cups until none remain
    (skipping already joined points), pair the leftover minuses left to
    right by dotted cups, and drop edges from everything else, dotted
    exactly at a leftover minus."""
    n = w.n
    signs = w.signs
    joined = [False] * n
    cups: list[Cup] = []
    changed = True
    while changed:
        changed = False
        prev: Optional[int] = None
        for k in range(n):
            if joined[k]:
                continue
            if prev is not None and signs[prev] == PLUS and signs[k] == MINUS:
                cups.append((prev + 1, k + 1, False))
                joined[prev] = joined[k] = True
                changed = True
                prev = None
            else:
                prev = k
    minuses = [k for k in range(n) if not joined[k] and signs[k] == MINUS]
    for a, b in zip(minuses[0::2], minuses[1::2]):
        cups.append((a + 1, b + 1, True))
        joined[a] = joined[b] = True
    edges = [(k + 1, signs[k] == MINUS) for k in range(n) if not joined[k]]
    return DecoratedCupDiagram(n, tuple(sorted(cups)), tuple(sorted(edges)))


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


def _strands(dc: DecoratedCupDiagram) -> list[tuple[tuple[int, ...], bool]]:
    return [((i, j), d) for i, j, d in dc.cups] + [((p,), d) for p, d in dc.edges]


def cut_degree(v: PMSequence, dc: DecoratedCupDiagram) -> Optional[int]:
    """Degree of v on a decorated cup diagram by ``STRAND_LABELS``, or None
    if v does not orient it.  Agrees with half the clockwise count of the
    full picture."""
    deg = 0
    for ends, dotted in _strands(dc):
        d = STRAND_LABELS[len(ends), dotted].get(tuple(v.signs[p - 1] for p in ends))
        if d is None:
            return None
        deg += d
    return deg


def orientations_of(w: PMSequence) -> list[tuple[PMSequence, int]]:
    """Every sequence orienting the decorated cup diagram of w, with its
    clockwise count (twice the degree), in enumeration order.

    Each cup is signed both ways and each edge as its dot forces, so the
    2^(cups) results need no filter: the diagram's parity rule keeps
    their minuses even."""
    strands = _strands(decorated_cup(w))
    out = []
    for choice in itertools.product(*(STRAND_LABELS[len(ends), dotted].items() for ends, dotted in strands)):
        signs = [""] * w.n
        for (ends, _), (signed, _) in zip(strands, choice):
            for p, s in zip(ends, signed):
                signs[p - 1] = s
        out.append((PMSequence("".join(signs)), 2 * sum(d for _, d in choice)))
    return sorted(out)


def kl_poly_diagrammatic(v: PMSequence, w: PMSequence) -> LaurentPoly:
    """q to the degree of v on the decorated cup diagram of w, else zero.
    Matches the canonical-basis coefficient; tests compare against the
    recursion."""
    d = cut_degree(v, decorated_cup(w))
    return ZERO if d is None else LaurentPoly.q_power(d)


def orient(v: PMSequence, c: FullCupDiagram) -> Optional[int]:
    """Number of clockwise arcs when v orients the full picture c, else
    None: the oracle the tests hold ``cut_degree`` and
    ``orientations_of`` against.

    v orients c when every arc has one Up and one Down end; dots are
    invisible here.  The clockwise count is always even."""
    if v.n != c.n:
        raise ValueError("sequence and diagram sizes differ")
    up = _labels(v)
    clockwise = 0
    for a, b in c.arcs:
        if up[a] == up[b]:
            return None
        clockwise += up[a]
    if clockwise % 2:
        raise AssertionError("clockwise arcs come in even number")
    return clockwise


def enumerate_decorated(n: int) -> list[DecoratedCupDiagram]:
    """Every valid decorated cup diagram on n points.

    Generated structurally (partial matchings plus decorations filtered
    through the constructor); tests pin this against the image of
    decorated_cup."""
    out: list[DecoratedCupDiagram] = []

    def structures(points: tuple[int, ...]) -> Iterable[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
        # non-crossing partial matchings with unmatched points not enclosed:
        # the first point is an edge, or opens a cup whose inside is fully
        # matched.
        if not points:
            yield (), ()
            return
        first, rest = points[0], points[1:]
        for cups, edges in structures(rest):
            yield cups, (first, *edges)
        for k, second in enumerate(rest):
            inside, outside = rest[:k], rest[k + 1 :]
            for in_cups, in_edges in structures(inside):
                if in_edges:
                    continue
                for out_cups, out_edges in structures(outside):
                    yield ((first, second), *in_cups, *out_cups), out_edges

    for cups, edges in structures(tuple(range(1, n + 1))):
        for cup_dots in range(1 << len(cups)):
            for edge_dots in range(1 << len(edges)):
                try:
                    dc = DecoratedCupDiagram(
                        n,
                        tuple(sorted((i, j, bool(cup_dots >> k & 1)) for k, (i, j) in enumerate(cups))),
                        tuple(sorted((p, bool(edge_dots >> k & 1)) for k, p in enumerate(edges))),
                    )
                except ValueError:
                    continue
                out.append(dc)
    return sorted(out, key=lambda d: (d.cups, d.edges))
