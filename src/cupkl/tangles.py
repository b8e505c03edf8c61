"""Decorated planar tangles and the diagram algebra they span.

A tangle has m bottom points and n top points joined by non-crossing
strands, each strand carrying a dot parity.  Boundary points are encoded
1..m for the bottom face and m+1..m+n for the top face (JSON keeps the
same numbers).  A tangle is two faces: the top face holds its cups and
the top ends of the through strands, the bottom face its caps and their
bottom ends.  The constructor checks the strands with
``cups.check_strands``, one sweep round the boundary from the left wall:
the rule a cup diagram's strands obey too, one bottom point per edge.
``_faces`` reads the two faces off the strands, ``_join`` builds a
tangle from them and ``_stack`` composes two strand lists; ``mul`` and
``_struck`` read each product off ``_stack``'s strands, not its faces.

Stacking traces composite strands through the junction in one walk over
two flat partner lists, one per side, indexed by point, and adds dot
parities mod 2.  Closed loops reduce by value: a plain loop
is worth q + q^-1 and an odd loop kills the product, which makes this
the quotient algebra; the walk counts the plain loops and reads
(q + q^-1)^k off a table.  A product is a scalar times one tangle, or
zero, written (ZERO, None).  The same walk, read back through
``_faces`` at a module floor where caps kill (plain) or vanish (dotted),
makes the span of decorated cup diagrams a module over the algebra.
Both build their results through memoised constructors, and generator
is memoised too, so each distinct product tangle, image diagram and
generator is built and validated once per process.

The algebra basis for a fixed n is the image of the cell map, which
joins two decorated cup diagrams with the same number of edges as the
top face and the bottom face of one tangle (cell_tangle).  That image
is the set of even accessible decorated (n, n) tangles without loops,
less (for even n) the fully capped tangles with an odd number of plain
cups, which act by zero; enumerate_basis_tangles, the oracle, finds the
same set by brute force over the even dot patterns the faces allow.  The
cell modules are the layers of the action on cup diagrams: x C(a, b) is
r C(a', b) modulo lower cells when act(x, a) = (r, a') keeps a's edges,
whatever b is.  C(a, b) is also a's tangle stacked on b's reflected one
with no loops, so it sends a diagram d of its cell to G[b, d] a plus
diagrams with fewer edges, where G, the cell's form, is read off the
cups of b and d alone, with no tangle built.  The action is faithful
when every cell form is nondegenerate (Graham and Lehrer), so
faithfulness_rank ranks each form on its own, one row per diagram, mod
PRIME, and ranks the whole action over Q only when that certificate
fails.  One sparse elimination, over the integers mod PRIME or over Q,
reduces each row in place against the stored pivot rows.

phi, an oracle that only the tests and the benchmark call, imports the
Hecke layer in its body, so importing tangles loads no hecke.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

from ._frozen import Frozen
from .laurent import LOOP, ONE, ZERO, LaurentPoly
from .weyl import enumerate_wp
from .cups import Cup, DecoratedCupDiagram, Edge, Strand, check_strands, decorated_cup, face_ascii, perfect

if TYPE_CHECKING:
    from fractions import Fraction
    from .hecke import ModuleElement

__all__ = [
    "DecoratedTangle",
    "generator",
    "mul",
    "act",
    "tlhat_basis",
    "enumerate_basis_tangles",
    "cell_datum",
    "cell_tangle",
    "phi",
    "faithfulness_rank",
]

PRIME = (1 << 61) - 1  # a Mersenne prime, the modulus of the fast faithfulness rank
_STRANDS: dict[Strand, Strand] = {}  # one tuple per distinct strand, shared by the tangles _join builds


def json_field(value, kind: type):
    """A JSON value of exactly this type (a bool is no int, 2.0 no int)."""
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def json_object(data: Mapping, *keys: str) -> Mapping:
    """A JSON object with no keys but these; a missing one fails on lookup."""
    if type(data) is not dict:
        raise ValueError(f"expected object, got {type(data).__name__}")
    unknown = set(data) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys {sorted(map(str, unknown))}")
    return data


class DecoratedTangle(Frozen):
    """Non-crossing pairing of m bottom and n top points with dot flags; ``cups.check_strands`` checks it."""

    __slots__ = _fields = ("m", "n", "strands")

    def __post_init__(self) -> None:
        check_strands(self.m, self.n, self.strands)

    def faces(self) -> tuple[tuple[tuple[Cup, ...], tuple[Edge, ...]], ...]:
        """The top face, then the bottom face: _faces of the strands."""
        return _faces(self.m, self.strands)

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
        for s in json_field(data["strands"], list):
            s = json_object(s, "ends", "dotted")
            a, b = (json_field(p, int) for p in json_field(s["ends"], list))
            strands.append((min(a, b), max(a, b), json_field(s["dotted"], bool)))
        return cls(json_field(data["m"], int), json_field(data["n"], int), tuple(sorted(strands)))

    def to_ascii(self) -> str:
        """Four rows: top labels, top arcs, bottom arcs, bottom labels, each
        face drawn as a cup diagram is; a through strand shows as | with
        its dot on both faces."""
        top, bottom = (face_ascii(size, *face) for size, face in zip((self.n, self.m), self.faces()))
        return "\n".join([*top, *reversed(bottom)])


def _faces(m: int, strands: Iterable[Strand]) -> tuple[tuple[tuple[Cup, ...], tuple[Edge, ...]], ...]:
    """The top face, then the bottom face, of strands over m bottom
    points, each face numbered from 1 at the left: its cups (caps) and
    the ends of the through strands, each with the strand's dot.  _join
    is the inverse."""
    cups, caps, top, bottom = [], [], [], []
    for a, b, d in strands:
        if b <= m:
            caps.append((a, b, d))
        elif a > m:
            cups.append((a - m, b - m, d))
        else:
            bottom.append((a, d))
            top.append((b - m, d))
    return (tuple(cups), tuple(top)), (tuple(caps), tuple(bottom))


def _join(m: int, n: int, caps: Iterable[Cup], cups: Iterable[Cup], through: Iterable[Strand]) -> DecoratedTangle:
    """The (m, n) tangle with these caps on its bottom face, these cups on
    its top face, and through strands (bottom end, top end, dot), each
    face numbered from 1 at the left: the inverse of _faces.  The cups
    come sorted, as a cup diagram's, and lie past the other strands."""
    strands = sorted([*caps, *[(p, m + q, d) for p, q, d in through]])
    strands += [(m + i, m + j, d) for i, j, d in cups]
    return DecoratedTangle(m, n, tuple([_STRANDS.setdefault(s, s) for s in strands]))


def identity_tangle(n: int) -> DecoratedTangle:
    return _join(n, n, (), (), [(j, j, False) for j in range(1, n + 1)])


@functools.lru_cache(maxsize=None)
def generator(n: int, i: int) -> DecoratedTangle:
    """The i-th algebra generator: cap and cup joining two neighbours,
    identity elsewhere.  Generator 0 is generator 1 with both new
    strands dotted.  Built once per (n, i)."""
    if n < 2:
        raise ValueError("generators need n >= 2")
    if not 0 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    a = max(i, 1)
    arc = [(a, a + 1, i == 0)]
    return _join(n, n, arc, arc, [(j, j, False) for j in range(1, n + 1) if j not in (a, a + 1)])


def _stack(m: int, lower: tuple[Strand, ...], upper: tuple[Strand, ...]) -> tuple[LaurentPoly, tuple[Strand, ...]]:
    """Glue upper's bottom face onto lower's top face, in one walk.

    lower's strands pair m bottom points with k = 2 * len(lower) - m
    junction points, which upper's pair with its top points; the caller
    checks that the faces match.  Returns the value of the closed loops,
    q + q^-1 for each plain loop and zero if any loop is odd, and the
    composite strands, sorted, numbered 1..m at the bottom and on from
    m+1 at the top.  Each side lists, by point, the other end of the
    strand there and its dot.  The walk starts at each bottom point,
    then each top point, then each junction point, skips a point it has
    already reached, and follows the strand from it, crossing to the
    other side at each junction point: a walk that ends on the boundary
    is a composite strand, one that comes back to its junction start a
    loop, counted and read off _loop_value."""
    top = 2 * len(lower)
    k = top - m
    size = m + 2 * len(upper) + 1
    # lower keeps its numbering and upper's shifts up by m, so the junction
    # points m+1..top are shared and every other point is on the boundary
    below = [None] * size
    above = [None] * size
    for a, b, d in lower:
        below[a], below[b] = (b, d), (a, d)
    for a, b, d in upper:
        above[a + m], above[b + m] = (b + m, d), (a + m, d)
    seen = bytearray(size)
    strands: list[Strand] = []
    loops = 0
    for p in [*range(1, m + 1), *range(top + 1, size), *range(m + 1, top + 1)]:
        if seen[p]:
            continue
        # a bottom or junction point starts in lower, a top point in upper
        side = above if p > top else below
        q, parity = side[p]
        seen[q] = 1
        while m < q <= top and q != p:
            side = below if side is above else above
            q, d = side[q]
            seen[q] = 1
            parity ^= d
        if q == p:  # a loop through the junction
            if parity:
                return ZERO, ()
            loops += 1
        else:
            # the scan reaches p first, so p < q and the strands come out
            # sorted; top points drop the junction
            strands.append((p if p <= m else p - k, q if q <= m else q - k, parity))
    return _loop_value(loops), tuple(strands)


@functools.cache
def _loop_value(loops: int) -> LaurentPoly:
    """(q + q^-1)^loops, each power computed once."""
    return _loop_value(loops - 1) * LOOP if loops else ONE


# The constructors of mul's and act's results, memoised: a result met
# again is the object built, and validated, the first time.  lru_cache
# stores no exception, so a bad strand list raises on every call.  _join
# does not go through them: a stored copy of every basis tangle raised the
# peak memory of tlhat_basis(7) by over 10 %.
_tangle = functools.lru_cache(maxsize=None)(DecoratedTangle)
_diagram = functools.lru_cache(maxsize=None)(DecoratedCupDiagram)


def mul(x: DecoratedTangle, y: DecoratedTangle) -> tuple[LaurentPoly, Optional[DecoratedTangle]]:
    """Product xy: x stacked on top of y, loops reduced.

    Each plain loop multiplies by q + q^-1 and an odd loop kills the
    product, and so does a result struck from the basis (no through
    strand, an odd number of plain cups), which acts by zero; below
    n = 3, where the algebra layer has no basis, such a result is kept.
    The survivor is a scalar times one tangle, zero is (ZERO, None).
    Each distinct product tangle is built, and validated, once per
    process by _tangle; a repeat returns the same object."""
    if x.m != y.n:
        raise ValueError("face sizes do not match")
    coeff, strands = _stack(y.m, y.strands, x.strands)
    if not coeff:
        return ZERO, None
    tangle = _tangle(y.m, x.n, strands)
    if tangle.n >= 3 and _struck(tangle):
        return ZERO, None
    return coeff, tangle


def act(t: DecoratedTangle, d: DecoratedCupDiagram) -> tuple[LaurentPoly, Optional[DecoratedCupDiagram]]:
    """Act by a tangle on a decorated cup diagram, t on top of d's own
    strands, checked when d was built.  Loops reduce as in mul.  The
    composite's faces, read by _faces, are the image (top) and the caps
    on the module floor (bottom): a plain cap kills the element, a dotted
    one is erased at no cost.  The survivor is a scalar times one
    diagram, built once per process by _diagram."""
    if t.m != d.n:
        raise ValueError("tangle bottom must match the diagram size")
    m = len(d.edges)
    coeff, strands = _stack(m, d.strands(), t.strands)
    if not coeff:
        return ZERO, None
    (cups, edges), (caps, _) = _faces(m, strands)
    if not all(dot for *_, dot in caps):
        return ZERO, None
    return coeff, _diagram(t.n, cups, edges)


def _struck(t: DecoratedTangle) -> bool:
    """Fully capped with an odd number of plain cups: not in the basis.
    No strand crosses between the faces, and the top face has an odd
    number of plain cups, read off the strands, not the faces."""
    if any(a <= t.m < b for a, b, _ in t.strands):
        return False
    return sum(1 for a, _, d in t.strands if a > t.m and not d) % 2 == 1


def tlhat_basis(n: int) -> tuple[DecoratedTangle, ...]:
    """Basis of the quotient algebra: the image of the cell map, sorted
    by strands."""
    if n < 3:
        raise ValueError("the algebra layer supports n >= 3")
    images = (cell_tangle(a, b) for ms in cell_datum(n).values() for b in ms for a in ms)  # bottom half outer: longer sorted runs
    return tuple(sorted(images, key=lambda t: t.strands))


def enumerate_basis_tangles(n: int) -> list[DecoratedTangle]:
    """Oracle for tlhat_basis, by brute force: every perfect matching of
    the 2n points with every even dot pattern on the strands check_strands
    lets carry a dot, found in one sweep (the outermost caps and cups with
    no through strand to their left on their face, and the leftmost
    through strand), keeping the tangles that are not struck.  The sweep
    makes no invalid candidate, so the constructor, which validates each
    one, raises rather than skips.  Uncached; tests and verify compare
    the cell image with it."""
    boundary = tuple(range(1, n + 1)) + tuple(range(2 * n, n, -1))
    out: list[DecoratedTangle] = []
    for pairing in perfect(boundary):
        pairs = sorted((min(a, b), max(a, b)) for a, b in pairing)
        free, outer_end, through_top = [], 0, None
        for k, (a, b) in enumerate(pairs):
            if a <= n < b:
                if through_top is None:
                    free.append(k)
                    through_top = b
            elif a > outer_end:
                outer_end = b
                if through_top is None or n < a < through_top:
                    free.append(k)
        for r in range(0, len(free) + 1, 2):
            for dotted in itertools.combinations(free, r):
                t = DecoratedTangle(n, n, tuple((a, b, k in dotted) for k, (a, b) in enumerate(pairs)))
                if not _struck(t):
                    out.append(t)
    return out


# -- cellular structure ----------------------------------------------------


def cell_datum(n: int) -> dict[int, tuple[DecoratedCupDiagram, ...]]:
    """The cells: each through-strand count, largest first, with the cup
    diagrams of that many edges that index it."""
    cells: dict[int, list[DecoratedCupDiagram]] = {lam: [] for lam in range(n, -1, -2)}
    for w in enumerate_wp(n):
        d = decorated_cup(w)
        cells[len(d.edges)].append(d)
    return {lam: tuple(ds) for lam, ds in cells.items()}


def cell_tangle(alpha: DecoratedCupDiagram, beta: DecoratedCupDiagram) -> DecoratedTangle:
    """Basis tangle joining two faces: alpha is its top face and beta,
    reflected, its bottom face.  The k-th edges of the two halves join
    into the k-th through strand, dotted when exactly one of them is."""
    if len(alpha.edges) != len(beta.edges):
        raise ValueError("halves must have the same number of edges")
    through = [(p, q, dp != dq) for (p, dp), (q, dq) in zip(beta.edges, alpha.edges)]
    return _join(beta.n, alpha.n, beta.cups, alpha.cups, through)


# -- comparison with the Hecke module --------------------------------------


def phi(x: ModuleElement) -> dict[DecoratedCupDiagram, LaurentPoly]:
    """Image of a Hecke-module element under canonical-basis-to-diagram
    transport."""
    from .hecke import expand_in_kl, kl_table
    coords = expand_in_kl(x, kl_table(x.n))
    return {decorated_cup(z): c for z, c in coords.items()}


# -- faithfulness of the action on cup diagrams ----------------------------


def _rank(rows: Iterable[Mapping[int, object]], reduce: Callable, invert: Callable) -> int:
    """Rank of sparse rows over a field whose entries reduce(v) puts in
    canonical form, falsy exactly when v is zero; invert(v) is a nonzero
    v's inverse.  Each row is reduced against the normalised pivot rows
    so far, keyed by their leading column.  A row is copied once, then
    reduced in place: its lead is taken off, and each entry of the pivot
    row updates one entry, which goes when it cancels.  A pivot row is
    stored without its lead, which is 1."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {c: r for c, v in row.items() if (r := reduce(v))}
        while row and (lead := min(row)) in pivots:
            f = row.pop(lead)
            for c, v in pivots[lead].items():
                if r := reduce(row.get(c, 0) - f * v):
                    row[c] = r
                else:
                    del row[c]
        if row:
            inv = invert(row.pop(lead))
            pivots[lead] = {c: reduce(v * inv) for c, v in row.items()}
    return len(pivots)


def _rational_rank(rows: Iterable[Mapping[int, Fraction]]) -> int:
    """Exact rank over Q of sparse rational rows."""
    return _rank(rows, lambda v: v, lambda v: 1 / v)


def _rank_mod_p(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank mod PRIME of sparse integer rows."""
    return _rank(rows, lambda v: v % PRIME, lambda v: pow(v, -1, PRIME))


def _half(d: DecoratedCupDiagram) -> tuple[list[int], list[int]]:
    """d as _pairing reads it: by point from 1, 2 * partner + dot on a cup, 0 on an edge; its edges."""
    links = [0] * (d.n + 1)
    for i, j, dot in d.cups:
        links[i], links[j] = 2 * j + dot, 2 * i + dot
    return links, [p for p, _ in d.edges]


def _pairing(b: tuple[list[int], list[int]], d: tuple[list[int], list[int]]) -> Optional[int]:
    """The plain loops b's cups close on d's, b and d of one cell as _half
    gives them, or None where G[b, d] is 0: a path from an edge of b, by
    d's cups and b's, ends on another edge of b (the image loses edges, as
    when two edges of d meet), or a loop has odd dots.  Symmetric in b, d."""
    (up, edges), (down, _) = b, d
    seen, loops = bytearray(len(up)), 0
    for p in [*edges, *range(1, len(up))]:  # the paths first: a point they leave starts a loop
        q, parity, loop = p, 0, up[p] > 0 and not seen[p]
        while not seen[q]:  # a cup of d, then one of b
            r = down[q] >> 1  # 0 at an edge of d, which ends the path
            seen[q] = seen[r] = 1
            parity ^= down[q] ^ up[r]
            if r and not (q := up[r] >> 1):
                return None
        if loop and parity & 1:
            return None
        loops += loop
    return loops


def faithfulness_rank(n: int, q_value: Fraction) -> tuple[int, int]:
    """Rank over Q of the vectorized basis action on cup diagrams at an
    exact rational q, against the basis size, certified by the cell forms.

    The form of cell lam has entry G[b, d], for b and d in the cell: the
    coefficient of b's reflected half on d when the image keeps lam edges,
    else 0, which _pairing reads off the two halves.  C(a, b) acts as b's
    reflected half, then a's; an image with lam edges on lam points is the
    undotted all-edge diagram (the parity rule forbids a lone dotted edge),
    which a's half sends to a, so C(a, b) sends d to G[b, d] a plus
    diagrams with fewer edges.  Images never gain edges, so a vanishing
    combination of basis tangles, read from its largest cell's layer to
    that layer, is zero on that cell when the cell's form is
    nondegenerate: if every form is, the action is faithful and the rank
    is the basis size (Graham and Lehrer's criterion).

    The forms are the diagonal blocks of one matrix, so each is ranked on
    its own, one column per diagram of its cell, mod PRIME at q's image
    num * den^-1: when PRIME divides neither, each entry is the image of
    its rational value, so full rank mod PRIME is full rank over Q.
    Otherwise, or at the first form whose rank mod PRIME falls short, the
    action itself is ranked exactly: one row per basis tangle, entry
    (image, source diagram)."""
    if n < 3:
        raise ValueError("the algebra layer supports n >= 3")
    cells = cell_datum(n)
    size = sum(len(cell) ** 2 for cell in cells.values())
    num, den = q_value.numerator, q_value.denominator
    if num % PRIME and den % PRIME:
        q_p = num * pow(den, -1, PRIME) % PRIME
        value = functools.cache(lambda loops: sum(k * pow(q_p, e, PRIME) for e, k in _loop_value(loops).terms))
        for cell in cells.values():
            halves, form = [_half(d) for d in cell], [{} for _ in cell]
            for i, b in enumerate(halves):
                for j in range(i, len(cell)):  # the walk is symmetric: one per unordered pair
                    if (loops := _pairing(b, halves[j])) is not None:
                        form[i][j] = form[j][i] = value(loops)
            if _rank_mod_p(form) < len(cell):
                break
        else:
            return size, size
    diagrams = [d for cell in cells.values() for d in cell]
    index = {d: i for i, d in enumerate(diagrams)}
    rows = []
    for t in tlhat_basis(n):
        images = (act(t, d) for d in diagrams)
        rows.append({index[e] * len(diagrams) + j: c.eval_rational(q_value) for j, (c, e) in enumerate(images) if c})
    return _rational_rank(rows), size
