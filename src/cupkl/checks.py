"""The verify suites: each re-proves one of the paper's claims at a size n
against a second route and returns its report lines, or raises AssertionError
naming the counterexample.  SUITES: name -> (suite, smallest n, largest n)."""

from __future__ import annotations

from fractions import Fraction

from .weyl import PMSequence, enumerate_wp
from .hecke import cs_action, deodhar_product, kl_basis, kl_table
from .cups import decorated_cup, kl_poly_diagrammatic
from .circles import circle_diagram, circle_orientation_count, hom_matrix
from .tangles import act, cell_datum, cell_tangle, enumerate_basis_tangles, faithfulness_rank, generator, mul, phi, tlhat_basis

__all__ = ["SUITES", "hecke_commutation_holds"]


def hecke_commutation_holds(w: PMSequence, i: int) -> bool:
    """Does acting by generator i on the diagram of w match transporting
    the Hecke action of C_i on the canonical basis element of w?"""
    lhs = phi(cs_action(kl_basis(w), i))
    coeff, diagram = act(generator(w.n, i), decorated_cup(w))
    rhs = {diagram: coeff} if diagram is not None and coeff else {}
    return lhs == rhs


def _suite_kl(n: int) -> list[str]:
    lines = []
    t = kl_table(n)
    els = enumerate_wp(n)
    for w in els:
        for v in els:
            a, b = kl_poly_diagrammatic(v, w), t.poly(v, w)
            if a != b:
                raise AssertionError(f"polynomial mismatch at v={v} w={w}: {a} vs {b}")
            if not a.is_monomial():
                raise AssertionError(f"non-monomial at v={v} w={w}: {a}")
    lines.append(f"orientation polynomials match the recursion on all {len(els)}^2 pairs")
    for w in els:
        if deodhar_product(w) != t.element(w):
            raise AssertionError(f"generator product misses the canonical element at {w}")
    lines.append("products over reduced words land on canonical basis elements")
    return lines


def _suite_homdim(n: int) -> list[str]:
    els = enumerate_wp(n)
    for w, row in zip(els, hom_matrix(n)["dims"]):
        for wp, dim in zip(els, row):
            d = circle_diagram(wp, w)
            if d.dim() != dim:
                raise AssertionError(f"dimension mismatch at ({w}, {wp})")
            for c in d.circles:
                want = {"red": 0, "green": 1, "black": 2}[c.color]
                if circle_orientation_count(d, c) != want:
                    raise AssertionError(f"per-circle count off at ({w}, {wp})")
    return [
        f"coloring formula equals brute-force counts on all {len(els)}^2 pairs",
        "per-circle orientation counts are red 0, green 1, black 2",
    ]


def _suite_commute(n: int) -> list[str]:
    for w in enumerate_wp(n):
        for i in range(n):
            if not hecke_commutation_holds(w, i):
                raise AssertionError(f"action mismatch at w={w}, generator {i}")
    return ["tangle action matches the Hecke action for all elements and generators"]


def _suite_cellular(n: int) -> list[str]:
    """The cell map is a bijection onto the brute-force basis (tlhat_basis,
    its image, repeats no tangle), and each cell module is a layer of the
    action on cup diagrams: for every basis x and a in cell lam, x C(a, b)
    = r C(a', b) when act(x, a) = (r, a') keeps lam edges, and falls below
    cell lam otherwise, for two halves b (Graham-Lehrer's cell module axiom)."""
    cells = cell_datum(n)
    basis = tlhat_basis(n)
    if len(set(basis)) != len(basis) or set(basis) != set(enumerate_basis_tangles(n)):
        raise AssertionError("cell map is not a bijection onto the basis")
    sizes = [len(ms) for ms in cells.values()]
    lines = ["cell dims " + ",".join(str(s) for s in sizes) + f" and total {sum(s * s for s in sizes)}"]
    for x in basis:
        for lam, ms in cells.items():
            for a in ms:
                coeff, image = act(x, a)
                for b in ms[:2]:
                    product = mul(x, cell_tangle(a, b))
                    if image is not None and len(image.edges) == lam:
                        held = product == (coeff, cell_tangle(image, b))
                    else:
                        held = product[1] is None or len(product[1].faces()[0][1]) < lam
                    if not held:
                        raise AssertionError(
                            f"cell action depends on the auxiliary half at lam={lam}: x={x.strands}, a={a}, b={b}"
                        )
    lines.append("cell action independent of the auxiliary half")
    return lines


def _suite_faithful(n: int) -> list[str]:
    rank, size = faithfulness_rank(n, Fraction(97, 89))
    if rank != size:
        raise AssertionError(f"representation drops rank: {rank} < {size}")
    return [f"action on cup diagrams is faithful: rank {rank} of {size}"]


SUITES = {
    "kl": (_suite_kl, 1, 9),
    "homdim": (_suite_homdim, 1, 8),
    "commute": (_suite_commute, 2, 9),
    "cellular": (_suite_cellular, 3, 6),
    "faithful": (_suite_faithful, 3, 7),
}
