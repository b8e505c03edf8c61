import pytest

from cupkl import circles, tangles
from cupkl.checks import SUITES, hecke_commutation_holds
from cupkl.cups import decorated_cup
from cupkl.hecke import cs_action, kl_basis
from cupkl.laurent import Q, ZERO
from cupkl.tangles import act, generator, phi
from cupkl.weyl import PMSequence, enumerate_wp

# the largest n each check runs at in these tests; CI runs each at its cap
TIER1 = {"kl": 6, "homdim": 6, "commute": 6, "cellular": 6, "faithful": 6}


@pytest.mark.parametrize(
    "name, n", [(name, n) for name, (_, low, _) in SUITES.items() for n in range(low, TIER1[name] + 1)]
)
def test_check_holds(name, n):
    # a check raises AssertionError with its counterexample, or reports
    check, *_ = SUITES[name]
    assert check(n)


def test_commutation_agrees_with_canonical_coordinates():
    # the oracle: expand C_w C_i in the canonical basis and transport it to
    # diagrams (tangles.phi), the route the commute check once took
    for n in range(2, 7):
        for w in enumerate_wp(n):
            for i in range(n):
                coeff, image = act(generator(n, i), decorated_cup(w))
                assert phi(cs_action(kl_basis(w), i)) == ({} if image is None else {image: coeff})
                assert hecke_commutation_holds(w, i)


# at w = ++++, C_0 sends C_w to C_{--++} = H_{--++} + q H_w, and C_1 kills it
WRONG_ACTIONS = {
    "killed": (0, lambda coeff, w: (ZERO, None)),
    "another diagram": (0, lambda coeff, w: (coeff, decorated_cup(w))),
    "image outside the basis": (0, lambda coeff, w: (coeff, decorated_cup(PMSequence("++++++")))),
    "zero coefficient": (1, lambda coeff, w: (ZERO, decorated_cup(w))),
    # q is the coefficient of H_w, so the check reads off w, not --++
    "coefficient of a lower term": (0, lambda coeff, w: (Q, decorated_cup(PMSequence("--++")))),
}


@pytest.mark.parametrize("fault", WRONG_ACTIONS)
def test_a_wrong_action_fails_commutation(monkeypatch, fault):
    (i, wrong), w = WRONG_ACTIONS[fault], PMSequence("++++")
    coeff, _ = act(generator(4, i), decorated_cup(w))
    assert hecke_commutation_holds(w, i)
    monkeypatch.setattr(tangles, "act", lambda t, d: wrong(coeff, w))
    assert not hecke_commutation_holds(w, i)


def test_homdim_checks_the_entry_below_the_diagonal(monkeypatch):
    # each unordered pair is walked once, for both entries of the matrix
    real = circles.hom_matrix

    def fake(n):
        dims = [row[:] for row in real(n)["dims"]]
        dims[1][0] += 1
        return {"dims": dims}

    monkeypatch.setattr(circles, "hom_matrix", fake)
    with pytest.raises(AssertionError, match="dimension mismatch"):
        SUITES["homdim"][0](4)
