"""Acceptance gate.

Each test covers one release criterion, prints one PASS or FAIL line,
and pins its tolerances (exact values, wall-clock bounds) in place.
Run with -s to see the lines; the test verdicts carry the same bits.
"""

import itertools
import time

from cupkl.checks import SUITES
from cupkl.laurent import LaurentPoly
from cupkl.weyl import PMSequence, enumerate_wp
from cupkl.hecke import kl_table
from cupkl.cups import cup_diagram, decorated_cup, orient
from cupkl.circles import (
    dim_endomorphism_algebra,
    hom_dim,
    oriented_basis,
    poincare_table,
)
from cupkl.tangles import (
    DecoratedTangle,
    act,
    cell_datum,
    cell_tangle,
    enumerate_basis_tangles,
    mul,
    star,
    tlhat_basis,
)


def report(num, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed{tail}"


def fails(name, sizes):
    """The first counterexample of a verify check over these sizes, or None."""
    suite, *_ = SUITES[name]
    for n in sizes:
        try:
            suite(n)
        except AssertionError as exc:
            return f"n={n}: {exc}"
    return None


def poly(coeffs):
    return LaurentPoly.from_dict(coeffs)


def test_c01_total_endomorphism_dimension():
    start = time.perf_counter()
    dim = dim_endomorphism_algebra(4)
    elapsed = time.perf_counter() - start
    report(1, dim == 67 and elapsed < 1.0, f"dim={dim}, {elapsed:.3f}s, bound 1s")


def test_c02_graded_table_n4():
    want = {
        "++++": poly({0: 1, 1: 1, 2: 1}),
        "++--": poly({0: 1, 1: 3, 2: 5, 3: 3, 4: 1}),
        "+-+-": poly({0: 1, 1: 3, 2: 3, 3: 3, 4: 1}),
        "+--+": poly({0: 1, 1: 2, 2: 3, 3: 1}),
        "-++-": poly({0: 1, 1: 2, 2: 3, 3: 1}),
        "-+-+": poly({0: 1, 1: 4, 2: 3, 3: 1}),
        "--++": poly({0: 1, 1: 3, 2: 2, 3: 1}),
        "----": poly({0: 1, 1: 2, 2: 4, 3: 2, 4: 1}),
    }
    start = time.perf_counter()
    table = poincare_table(4)
    got = {str(w): table[w] for w in enumerate_wp(4)}
    elapsed = time.perf_counter() - start
    report(2, got == want and elapsed < 1.0, f"{elapsed:.3f}s, bound 1s")


def test_c03_oriented_basis_of_one_element():
    w = PMSequence("-+-+")
    degrees = {}
    count = 0
    for wp in enumerate_wp(4):
        for _, deg in oriented_basis(w, wp):
            degrees[deg] = degrees.get(deg, 0) + 1
            count += 1
    report(3, count == 9 and degrees == {0: 1, 1: 4, 2: 3, 3: 1}, f"count={count}, by degree {degrees}")


def test_c04_diagram_polynomials_equal_recursion_up_to_n6():
    # the kl check also lands the generator products on the canonical elements
    start = time.perf_counter()
    failure = fails("kl", range(1, 7))
    elapsed = time.perf_counter() - start
    report(4, failure is None and elapsed < 10.0, failure or f"{elapsed:.3f}s, bound 10s")


def test_c05_polynomials_are_power_monomials():
    ok = True
    for n in range(1, 7):
        t = kl_table(n)
        for w in enumerate_wp(n):
            for v, p in t.element(w).coeffs:
                if not (p.is_monomial() and p.terms[0][1] == 1 and p.terms[0][0] >= 0):
                    ok = False
    report(5, ok)


def test_c06_coloring_theorem_up_to_n5():
    # the homdim check holds each circle's orientation count to its color
    failure = fails("homdim", range(1, 6))
    ok = failure is None
    for n in range(1, 6):
        for w in enumerate_wp(n):
            cw = cup_diagram(w)
            for wp in enumerate_wp(n):
                cwp = cup_diagram(wp)
                brute = sum(
                    1
                    for v in enumerate_wp(n)
                    if orient(v, cw) is not None
                    and orient(v, cwp) is not None
                )
                if hom_dim(w, wp) != brute:
                    ok = False
    report(6, ok, failure or "")


def test_c07_tangle_action_matches_hecke_action_up_to_n6():
    start = time.perf_counter()
    failure = fails("commute", range(2, 7))
    elapsed = time.perf_counter() - start
    report(7, failure is None and elapsed < 30.0, failure or f"{elapsed:.3f}s, bound 30s")


def test_c08_algebra_dimension_n3():
    basis = tlhat_basis(3)
    sizes = {lam: len(ms) for lam, ms in cell_datum(3).items()}
    ok = (
        len(basis) == 10
        and sizes == {3: 1, 1: 3}
        and sum(s * s for s in sizes.values()) == 10
    )
    report(8, ok, f"dim={len(basis)}, cell sizes {sizes}")


def test_c10_faithfulness_at_a_generic_rational():
    failure = fails("faithful", range(3, 7))
    # the square diagrams dropped from the n=4 basis act by zero
    dropped_dead = 0
    basis = set(tlhat_basis(4))
    for t in _all_square_tangles(4) - basis:
        if all(act(t, decorated_cup(w))[1] is None for w in enumerate_wp(4)):
            dropped_dead += 1
    detail = failure or "full rank at q=97/89 for n=3..6"
    report(10, failure is None and dropped_dead == 9, f"{detail}; dropped diagrams dead: {dropped_dead}/9")


def _all_square_tangles(n):
    pts = list(range(1, 2 * n + 1))
    out = set()

    def matchings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for k, b in enumerate(rest[1:], 1):
            for tail in matchings(rest[1:k] + rest[k + 1 :]):
                yield [(a, b)] + tail

    for m in matchings(pts):
        for dots in itertools.product([False, True], repeat=n):
            if sum(dots) % 2:
                continue
            strands = tuple(sorted((a, b, d) for (a, b), d in zip(m, dots)))
            try:
                out.add(DecoratedTangle(n, n, strands))
            except ValueError:
                pass
    return out


def test_c11_cellular_structure():
    ok = True
    for n in (3, 4):
        cells = cell_datum(n)
        built = []
        for ms in cells.values():
            for a in ms:
                for b in ms:
                    t = cell_tangle(a, b)
                    if star(t) != cell_tangle(b, a):
                        ok = False
                    built.append(t)
        if len(set(built)) != len(built) or set(built) != set(enumerate_basis_tangles(n)):
            ok = False
        # the cell modules are layers of act: x C(a, b) = r C(a', b) modulo
        # lower cells, where act(x, a) = (r, a'), for every half b
        for lam, ms in cells.items():
            for x in tlhat_basis(n):
                for a in ms:
                    coeff, image = act(x, a)
                    for b in ms:
                        product = mul(x, cell_tangle(a, b))
                        if image is not None and len(image.edges) == lam:
                            if product != (coeff, cell_tangle(image, b)):
                                ok = False
                        elif product[1] is not None and len(product[1].faces()[0][1]) >= lam:
                            ok = False
    report(11, ok)


def test_c12_cell_sizes_account_for_everything():
    ok = True
    detail = []
    for n in (3, 4, 5):
        sizes = [len(ms) for ms in cell_datum(n).values()]
        total = sum(sizes)
        square = sum(s * s for s in sizes)
        detail.append(f"n={n}: sum {total}, squares {square}")
        if total != 2 ** (n - 1) or square != len(tlhat_basis(n)):
            ok = False
    report(12, ok, "; ".join(detail))
