"""The verify suites: each re-proves one of the paper's claims at a size n
against a second route and returns its report lines, or raises AssertionError
naming the counterexample.  SUITES: name -> (suite, smallest n, largest n).
Each layer is read through its module, so a suite runs only the ones it uses."""

from __future__ import annotations

from . import circles, cups, hecke, laurent, tangles, weyl

__all__ = ["SUITES", "generated", "hecke_commutation_holds"]


def hecke_commutation_holds(w: weyl.PMSequence, i: int) -> bool:
    """Does acting by generator i on the diagram of w match transporting
    the Hecke action of C_i on the canonical basis element of w?

    Compared in the standard basis: C_w C_i must be coeff C_z where the
    action gives coeff times the diagram of z, and zero where it kills it.
    Every p_{v,z} in C_z = H_z + sum_{v<z} p_{v,z} H_v is in qZ[q]
    (test_unitriangular_with_positive_exponents), so z is the one sequence
    whose coefficient in C_w C_i is coeff; no stored coefficient is zero,
    so a zero coeff matches none.  The canonical basis is unitriangular,
    so this compares canonical coordinates, as tangles.phi does."""
    lhs = hecke.cs_action(hecke.kl_basis(w), i)
    coeff, image = tangles.act(tangles.generator(w.n, i), cups.decorated_cup(w))
    if image is None:
        return not lhs.coeffs
    z = next((v for v, c in lhs.coeffs if c == coeff), None)
    if z is None or image != cups.decorated_cup(z):
        return False
    target = hecke.kl_basis(z).coeffs  # coeff C_z term by term, both sorted; most images keep coefficient 1
    return lhs.coeffs == (target if coeff == laurent.ONE else tuple((u, c * coeff) for u, c in target))


def _suite_kl(n: int) -> list[str]:
    lines = []
    t = hecke.kl_table(n)
    els = weyl.enumerate_wp(n)
    # row w is q^(r/2) on the orientations v of w, else 0: neither dict stores a zero, so ==
    # compares all N^2 pairs, and sorted order is enumeration order, as in a pair loop
    for w in els:
        want, row = {v: laurent.LaurentPoly.q_power(r // 2) for v, r in cups.orientations_of(w)}, t.element(w).as_dict()
        if want != row:
            v = min(v for v in want.keys() | row.keys() if want.get(v) != row.get(v))
            raise AssertionError(f"polynomial mismatch at v={v} w={w}: {want.get(v, laurent.ZERO)} vs {row.get(v, laurent.ZERO)}")
    lines.append(f"orientation polynomials match the recursion on all {len(els)}^2 pairs")
    # products of C_i over reduced words, each one action on its prefix's product
    products, words = {(): hecke.ModuleElement.standard(weyl.identity(n))}, {weyl.identity(n): ()}
    for w in sorted(els, key=weyl.length)[1:]:
        word = words[w] = weyl.reduced_word(w)
        if word[:-1] not in products:
            raise AssertionError(f"reduced word of {w} extends no shorter element's")
        products[word] = hecke.cs_action(products[word[:-1]], word[-1])
    for w in els:
        if products[words[w]] != t.element(w):
            raise AssertionError(f"generator product misses the canonical element at {w}")
    lines.append("products over reduced words land on canonical basis elements")
    return lines


def _suite_homdim(n: int) -> list[str]:
    els, dims = weyl.enumerate_wp(n), circles.hom_matrix(n)["dims"]
    count = {"red": 0, "green": 1, "black": 2}
    for a, w in enumerate(els):  # one walk for both entries: test_walks_are_symmetric
        for b, wp in enumerate(els[a:], a):
            walk = circles.walk_circles(wp, w)
            colors = [c[0] for c in walk[0]]
            if not circles.colored_dim(colors, w, wp) == dims[a][b] == dims[b][a]:
                raise AssertionError(f"dimension mismatch at ({w}, {wp})")
            if circles.circle_orientation_counts(walk) != [count[c] for c in colors]:
                raise AssertionError(f"per-circle count off at ({w}, {wp})")
    return [
        f"coloring formula equals brute-force counts on all {len(els)}^2 pairs",
        "per-circle orientation counts are red 0, green 1, black 2",
    ]


def _suite_commute(n: int) -> list[str]:
    for w in weyl.enumerate_wp(n):
        for i in range(n):
            if not hecke_commutation_holds(w, i):
                raise AssertionError(f"action mismatch at w={w}, generator {i}")
    return ["tangle action matches the Hecke action for all elements and generators"]


def generated(n: int) -> dict:
    """Every tangle reached from the identity by nonzero left products with
    generators, mapped to its products [mul(g, y) for each generator g]."""
    gens, seen, layer = [tangles.generator(n, i) for i in range(n)], {}, {tangles.identity_tangle(n)}
    while layer:  # breadth first: each new g y has y in the layer before
        seen.update((y, [tangles.mul(g, y) for g in gens]) for y in layer)
        layer = {x for y in layer for _, x in seen[y] if x is not None} - seen.keys()
    return seen


def _suite_cellular(n: int) -> list[str]:
    """The cell map is a bijection onto the brute-force basis (tlhat_basis,
    its image, repeats no tangle), and each cell module is a layer of the
    action on cup diagrams (Graham-Lehrer's axiom): for basis x and a, b in
    cell lam, x C(a, b) = r C(a', b) if act(x, a) = (r, a') keeps lam edges,
    else it falls below lam.  Checked for x a generator g, it holds for all:
    the g reach every x from the identity (checked), x = c^-1 g y with c
    nonzero and y met earlier, so x C(a, b) = c^-1 g (y C(a, b)), act(x, a)
    = c^-1 act(g, act(y, a)), y C(a, b) is r C(a', b) or below lam by
    induction on the search depth, g carries r C(a', b) as checked, and
    composing never gains through strands.  The tests check these
    premises: associativity, the module action and that monotonicity.
    The search's products are the g C(a, b) of the layer identity."""
    cells = tangles.cell_datum(n)
    basis = tangles.tlhat_basis(n)
    if len(set(basis)) != len(basis) or set(basis) != set(tangles.enumerate_basis_tangles(n)):
        raise AssertionError("cell map is not a bijection onto the basis")
    if (reached := generated(n)).keys() != set(basis):
        raise AssertionError(f"generators reach {len(reached)} tangles, not the {len(basis)} of the basis")
    joined = {(a, b): tangles.cell_tangle(a, b) for ms in cells.values() for a in ms for b in ms}
    for i in range(n):
        x = tangles.generator(n, i)
        for lam, ms in cells.items():
            for a in ms:
                coeff, image = tangles.act(x, a)
                for b in ms:
                    product = reached[joined[a, b]][i]
                    if image is not None and len(image.edges) == lam:
                        held = product == (coeff, joined[image, b])
                    else:
                        held = product[1] is None or sum(a <= product[1].m < b for a, b, _ in product[1].strands) < lam
                    if not held:
                        raise AssertionError(
                            f"cell action depends on the auxiliary half at lam={lam}: x={x.strands}, a={a}, b={b}"
                        )
    sizes = [len(ms) for ms in cells.values()]
    dims = "cell dims " + ",".join(map(str, sizes)) + f" and total {sum(s * s for s in sizes)}"
    return [dims, "cell action independent of the auxiliary half"]


def _suite_faithful(n: int) -> list[str]:
    from fractions import Fraction
    rank, size = tangles.faithfulness_rank(n, Fraction(97, 89))
    if rank != size:
        raise AssertionError(f"representation drops rank: {rank} < {size}")
    return [f"action on cup diagrams is faithful: rank {rank} of {size}"]


SUITES = {
    "kl": (_suite_kl, 1, 12),
    "homdim": (_suite_homdim, 1, 9),
    "commute": (_suite_commute, 2, 11),
    "cellular": (_suite_cellular, 3, 7),
    "faithful": (_suite_faithful, 3, 11),
}
