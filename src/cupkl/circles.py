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
One walk (walk_circles) gives the counts and every point's label and
circle, which the per-circle orientation counts read instead of colors.

Whole tables need no circles: by the monomial theorem v orients the
decorated cup diagram of w exactly when p(v, w) = q^a(v, w), so one
orientation pass per n gives every hom dimension (hom_dims) and every
graded dimension (graded_dims).  The coloring answers single pairs and
render circle; verify homdim holds the two routes against each other.
"""

from __future__ import annotations

import collections
from typing import Iterable, Mapping, NamedTuple

from . import laurent
from ._frozen import Frozen
from .weyl import PMSequence, enumerate_wp
from .cups import cup_diagram, orientations_of

__all__ = [
    "CircleData",
    "ColoredCircleDiagram",
    "circle_diagram",
    "circle_orientation_counts",
    "hom_dim",
    "hom_dims",
    "hom_matrix",
    "graded_dims",
    "poincare_table",
]


class CircleData(NamedTuple):
    """One circle as the walk leaves it: its color, the index (0..4n-1)
    of its lowest point, where the walk started, and the counts the color
    is read from."""

    color: str
    start: int
    upper_outer: int
    lower_outer: int
    linked_pairs: int


def colored_dim(colors: list[str], w: PMSequence, wprime: PMSequence) -> int:
    """2^(bk/2) for red-free colors, else 0; black circles pair up under
    the mirror, so an odd bk is a broken invariant."""
    bk = colors.count("black")
    if bk % 2:
        raise AssertionError(f"odd number of black circles at ({w}, {wprime})")
    return 0 if "red" in colors else 2 ** (bk // 2)


class ColoredCircleDiagram(Frozen):
    """The circles in order of their lowest points.  Its two layers are
    cup_diagram(w) and cup_diagram(wprime), read from that cache."""

    __slots__ = _fields = ("n", "wprime", "w", "circles")

    def count(self, color: str) -> int:
        return sum(1 for c in self.circles if c.color == color)

    def to_json(self) -> dict:
        keys = ("color", "upper_outer", "lower_outer", "linked_pairs")
        return {
            "n": self.n,
            "cap": str(self.wprime),
            "cup": str(self.w),
            "circles": [{k: getattr(c, k) for k in keys} for c in self.circles],
        }


def walk_circles(wprime: PMSequence, w: PMSequence) -> tuple[list[tuple], list[bool], list[int]]:
    """Glue the reflection of the diagram of wprime over the diagram of w
    and walk each circle once from its lowest point, cup arc then cap arc.
    Reflection does not move boundary points, so both layers are matchings
    on the same 4n points; the linked pairs a circle meets on a layer are
    the set bits of the or of its pair bits.  Returns each circle's
    CircleData fields as a plain tuple, then every point's label, Up where
    the walk enters a cup arc, and every point's circle index."""
    if wprime.n != w.n:
        raise ValueError("sequence sizes differ")
    n = w.n
    cup = cup_diagram(w)
    cap = cup_diagram(wprime)
    cup_partner, cup_bits = cup.partner, cup.bits
    cap_partner, cap_bits = cap.partner, cap.bits
    top = 3 * n  # indices below n are the points below -n, those from 3n the points above n
    up, owner = [False] * (4 * n), [-1] * (4 * n)
    circles = []
    for start in range(4 * n):
        if owner[start] >= 0:
            continue
        c = len(circles)
        upper = lower = cup_or = cap_or = 0
        i = start
        while owner[i] < 0:
            j = cup_partner[i]
            up[i] = True
            owner[i] = owner[j] = c
            cup_or |= cup_bits[i]
            cap_or |= cap_bits[j]
            lower += (i < n) + (j < n)
            upper += (i >= top) + (j >= top)
            i = cap_partner[j]
        pairs = cup_or.bit_count() + cap_or.bit_count()
        color = "red" if upper > 1 or lower > 1 or pairs % 2 else "green" if upper or lower else "black"
        circles.append((color, start, upper, lower, pairs))
    return circles, up, owner


def circle_diagram(wprime: PMSequence, w: PMSequence) -> ColoredCircleDiagram:
    """The circles of walk_circles(wprime, w) as CircleData records."""
    circles, _, _ = walk_circles(wprime, w)
    return ColoredCircleDiagram(w.n, wprime, w, tuple(map(CircleData._make, circles)))


def circle_orientation_counts(walk: tuple[list[tuple], list[bool], list[int]]) -> list[int]:
    """Orientations of each circle of a walk in isolation: Up/Down labels
    on its points with every arc of both layers one Up and one Down,
    points above n forced Up, points below -n forced Down, and opposite
    labels whenever a point and its negative both lie on it.

    The labels alternate along a circle, so the walk's are its labels
    from an Up start, and a Down start flips every label.  Each point k
    below the middle and its negative ~k (index 4n-1-k) rule starts out,
    bit 1 the Up start and bit 2 the Down one: one label on both, on one
    circle, rules out both, since a flip keeps it; a point above n or
    below -n rules out the start giving it the wrong label.  Only labels
    and circle indices are read, no color or count: this checks the
    coloring rule."""
    circles, up, owner = walk
    n = len(up) // 4
    ruled = [0] * len(circles)
    for k in range(2 * n):
        c = owner[k]
        if owner[~k] == c and up[~k] == up[k]:
            ruled[c] = 3
        elif k < n:  # k is below -n, forced Down, and ~k above n, forced Up
            ruled[c] |= 1 << (not up[k])
            ruled[owner[~k]] |= 1 << up[~k]
    return [2 - r.bit_count() for r in ruled]


def hom_dim(w: PMSequence, wprime: PMSequence) -> int:
    """The dimension read off the circle diagram of (wprime, w) by
    colored_dim."""
    return colored_dim([c.color for c in circle_diagram(wprime, w).circles], w, wprime)


def hom_dims(supports: Mapping[PMSequence, Iterable[PMSequence]]) -> dict:
    """The hom matrix over the keys (all of W^p for one n) in key order, from
    {w: the weights orienting w}: dim Hom(w, x) = |O(w) & O(x)| is the
    popcount of two bitmasks, bit k set for the k-th key."""
    bit = {w: 1 << k for k, w in enumerate(supports)}
    masks = [sum(bit[v] for v in vs) for vs in supports.values()]
    dims = [[(m & other).bit_count() for other in masks] for m in masks]
    return {"n": next(iter(supports)).n, "order": [str(w) for w in supports], "dims": dims}


def hom_matrix(n: int) -> dict:
    """The whole matrix from one orientation pass through hom_dims, whose
    oracle source is the support of each canonical element (kl_basis).
    Single pairs go by the circle coloring (hom_dim, O(n)); verify homdim
    holds the two routes against each other on every pair."""
    return hom_dims({w: [v for v, _ in orientations_of(w)] for w in enumerate_wp(n)})


def graded_dims(degrees: Mapping[PMSequence, Mapping[PMSequence, int]]) -> dict[PMSequence, laurent.LaurentPoly]:
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
        table[w] = laurent.LaurentPoly.from_dict(total)
    return table


def poincare_table(n: int) -> dict[PMSequence, laurent.LaurentPoly]:
    """Graded dimensions from one orientation pass: a(v, w) is the degree
    of v on the decorated cup diagram of w."""
    return graded_dims({w: {v: r // 2 for v, r in orientations_of(w)} for w in enumerate_wp(n)})
