import pytest

from cupkl.checks import SUITES

# the largest n each check runs at in these tests; CI runs each at its cap
TIER1 = {"kl": 6, "homdim": 6, "commute": 6, "cellular": 6, "faithful": 6}


@pytest.mark.parametrize(
    "name, n", [(name, n) for name, (_, low, _) in SUITES.items() for n in range(low, TIER1[name] + 1)]
)
def test_check_holds(name, n):
    # a check raises AssertionError with its counterexample, or reports
    check, *_ = SUITES[name]
    assert check(n)
