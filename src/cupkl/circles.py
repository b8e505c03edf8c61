"""Circle diagrams: a cap diagram glued on top of a cup diagram.

Reflecting the full cup diagram of one sequence and stacking it over the
full cup diagram of another closes every strand into a circle.  Each
circle is colored from three facts about it alone: how many points it
visits beyond n on the upper side and beyond -n on the lower side, and
how many distinct linked pairs it meets on either layer.

    red    more than one upper outer point, or more than one lower outer
           point, or an odd number of linked pairs
    black  not red, and no outer points at all
    green  everything else

A red circle admits no orientation, a green circle exactly one, a black
circle two; black circles mirror each other in pairs.  The dimension of
a hom space is then 2^(bk/2) when no circle is red and 0 otherwise.

Graded dimensions need no circles: by the monomial theorem v orients
the cup diagram of w exactly when p(v, w) = q^a(v, w), so one orientation
pass per n gives every graded dimension (graded_dims); oriented_basis
reads the same degrees off the cut pictures, pair by pair.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from typing import Mapping

from .laurent import LaurentPoly
from .weyl import PMSequence, enumerate_wp
from .cups import (
    Arc,
    FullCupDiagram,
    cup_diagram,
    cut_degree,
    decorated_cup,
    orientations_of,
    weight_of,
)

__all__ = [
    "CircleData",
    "ColoredCircleDiagram",
    "circle_diagram",
    "circle_orientation_count",
    "hom_dim",
    "hom_matrix",
    "oriented_basis",
    "graded_dims",
    "graded_poincare",
    "poincare_table",
    "dim_endomorphism_algebra",
]


@dataclasses.dataclass(frozen=True)
class CircleData:
    color: str
    points: frozenset[int]
    upper_outer: int
    lower_outer: int
    linked_pairs: int
    self_intersecting: bool
    cup_arcs: frozenset[Arc]
    cap_arcs: frozenset[Arc]


@dataclasses.dataclass(frozen=True)
class ColoredCircleDiagram:
    n: int
    wprime: PMSequence
    w: PMSequence
    circles: tuple[CircleData, ...]

    def count(self, color: str) -> int:
        return sum(1 for c in self.circles if c.color == color)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cap": str(self.wprime),
            "cup": str(self.w),
            "circles": [
                {
                    "color": c.color,
                    "upper_outer": c.upper_outer,
                    "lower_outer": c.lower_outer,
                    "linked_pairs": c.linked_pairs,
                }
                for c in self.circles
            ],
        }


def _pair_hits(diagram: FullCupDiagram, used: frozenset[Arc]) -> tuple[int, bool]:
    hits = 0
    both = False
    for pair in diagram.linked_pairs:
        met = len(pair & used)
        if met:
            hits += 1
        if met == 2:
            both = True
    return hits, both


def circle_diagram(wprime: PMSequence, w: PMSequence) -> ColoredCircleDiagram:
    """Glue the reflection of the diagram of wprime over the diagram of w
    and trace the circles.  Reflection does not move boundary points, so
    both layers are matchings on the same 4n points."""
    if wprime.n != w.n:
        raise ValueError("sequence sizes differ")
    n = w.n
    cup = cup_diagram(w)
    cap = cup_diagram(wprime)
    cup_partner = cup.partner()
    cap_partner = cap.partner()
    seen: set[int] = set()
    circles: list[CircleData] = []
    for start in weight_of(w).points():
        if start in seen:
            continue
        points: set[int] = set()
        cup_used: set[Arc] = set()
        cap_used: set[Arc] = set()
        p = start
        while p not in points:
            points.add(p)
            q = cup_partner[p]
            cup_used.add((min(p, q), max(p, q)))
            r = cap_partner[q]
            cap_used.add((min(q, r), max(q, r)))
            points.add(q)
            p = r
        seen |= points
        cup_hits, cup_both = _pair_hits(cup, frozenset(cup_used))
        cap_hits, cap_both = _pair_hits(cap, frozenset(cap_used))
        pairs = cup_hits + cap_hits
        upper = sum(1 for x in points if x > n)
        lower = sum(1 for x in points if x < -n)
        if upper > 1 or lower > 1 or pairs % 2:
            color = "red"
        elif upper == 0 and lower == 0:
            color = "black"
        else:
            color = "green"
        circles.append(
            CircleData(
                color,
                frozenset(points),
                upper,
                lower,
                pairs,
                cup_both or cap_both,
                frozenset(cup_used),
                frozenset(cap_used),
            )
        )
    return ColoredCircleDiagram(n, wprime, w, tuple(circles))


def circle_orientation_count(diag: ColoredCircleDiagram, circle: CircleData) -> int:
    """Orientations of one circle in isolation: Up/Down labels on its
    points with every arc of both layers one Up and one Down, points
    above n forced Up, points below -n forced Down, and opposite labels
    whenever a point and its negative both lie on this circle."""
    n = diag.n
    free = sorted(p for p in circle.points if -n <= p <= n)
    forced = {p: p > n for p in circle.points if abs(p) > n}
    count = 0
    for bits in itertools.product((False, True), repeat=len(free)):
        labels = dict(zip(free, bits)) | forced
        if any(-p in labels and labels[-p] == labels[p] for p in labels):
            continue
        ok = all(
            labels[a] != labels[b]
            for a, b in itertools.chain(circle.cup_arcs, circle.cap_arcs)
        )
        if ok:
            count += 1
    return count


def hom_dim(w: PMSequence, wprime: PMSequence) -> int:
    """2^(bk/2) for a red-free circle diagram, else 0."""
    diag = circle_diagram(wprime, w)
    if diag.count("red"):
        return 0
    bk = diag.count("black")
    if bk % 2:
        raise AssertionError("black circles pair up under the mirror")
    return 2 ** (bk // 2)


def hom_matrix(n: int) -> dict:
    order = enumerate_wp(n)
    return {
        "n": n,
        "order": [str(w) for w in order],
        "dims": [[hom_dim(w, wp) for wp in order] for w in order],
    }


def dim_endomorphism_algebra(n: int) -> int:
    order = enumerate_wp(n)
    return sum(hom_dim(w, wp) for w in order for wp in order)


def oriented_basis(w: PMSequence, wprime: PMSequence) -> list[tuple[PMSequence, int]]:
    """Weights orienting both cut diagrams, with total degree, in
    enumeration order.  Sizes match hom_dim; tests pin that."""
    dw = decorated_cup(w)
    dwp = decorated_cup(wprime)
    out = []
    for v in enumerate_wp(w.n):
        a = cut_degree(weight_of(v), dw)
        if a is None:
            continue
        b = cut_degree(weight_of(v), dwp)
        if b is None:
            continue
        out.append((v, a + b))
    return out


def graded_dims(degrees: Mapping[PMSequence, Mapping[PMSequence, int]]) -> dict[PMSequence, LaurentPoly]:
    """Total graded dimension of the hom spaces into each w, from
    {w: {v: a(v, w)}} over the v orienting w: the sum over v of
    q^a(v, w) times the sum of q^a(v, w') over the w' that v orients."""
    column: dict[PMSequence, collections.Counter[int]] = collections.defaultdict(collections.Counter)
    for row in degrees.values():
        for v, a in row.items():
            column[v][a] += 1
    table = {}
    for w, row in degrees.items():
        total: collections.Counter[int] = collections.Counter()
        for v, a in row.items():
            for b, count in column[v].items():
                total[a + b] += count
        table[w] = LaurentPoly.from_dict(total)
    return table


def poincare_table(n: int) -> dict[PMSequence, LaurentPoly]:
    """Graded dimensions from one orientation pass: a(v, w) is half the
    clockwise count of v on the full cup diagram of w."""
    return graded_dims({w: {v: r // 2 for v, r in orientations_of(w)} for w in enumerate_wp(n)})


def graded_poincare(w: PMSequence) -> LaurentPoly:
    """Sum of q^degree over the oriented basis of every hom space into w."""
    return poincare_table(w.n)[w]
