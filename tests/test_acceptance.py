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
from cupkl.cups import cup_diagram
from cupkl.circles import hom_dim, hom_matrix, poincare_table
from cupkl.tangles import cell_datum, cell_tangle, star, tlhat_basis
from oracles import orient, oriented_basis


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
    dim = sum(map(sum, hom_matrix(4)["dims"]))
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
                if not (len(p.terms) == 1 and p.terms[0][1] == 1 and p.terms[0][0] >= 0):
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
    # the square diagrams dropped from the basis acting by zero is
    # tests/test_tangles.py::test_diagrams_outside_the_basis_act_as_zero
    failure = fails("faithful", range(3, 7))
    report(10, failure is None, failure or "full rank at q=97/89 for n=3..6")


def test_c11_cellular_structure():
    # the cellular check: the cell map is a bijection onto the brute-force
    # basis, and each cell module is a layer of the action on cup diagrams
    failure = fails("cellular", (3, 4))
    # the anti-involution swaps the two halves of every basis tangle
    swapped = all(
        star(cell_tangle(a, b)) == cell_tangle(b, a)
        for n in (3, 4)
        for ms in cell_datum(n).values()
        for a, b in itertools.product(ms, repeat=2)
    )
    report(11, failure is None and swapped, failure or ("" if swapped else "star(C(a, b)) != C(b, a)"))


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
