"""Value semantics of the library's record classes: the constructor's
fields and checks, equality within the class only, the hash of the
fields as a tuple, the repr format, frozen fields, copying and
pickling, and the order of sign sequences."""

import copy
import pickle

import pytest

from cupkl.circles import circle_diagram
from cupkl.cups import cup_diagram, decorated_cup
from cupkl.hecke import kl_basis, kl_table
from cupkl.laurent import LOOP
from cupkl.tangles import generator
from cupkl.weyl import PMSequence, apply_generator, enumerate_wp

W = PMSequence("+--+")

# (value, its fields in constructor order, its exact repr,
#  the fields of a value its constructor rejects, or None if it checks none)
VALUES = {
    "LaurentPoly": (LOOP, ("terms",), "LaurentPoly(terms=((-1, 1), (1, 1)))", {"terms": ((0, 0),)}),
    "PMSequence": (W, ("signs",), "PMSequence(signs='+--+')", {"signs": "+-"}),
    "GenStep": (
        apply_generator(W, 1),
        ("move", "result"),
        "GenStep(move=<Move.SHORTER: 'shorter'>, result=PMSequence(signs='-+-+'))",
        None,
    ),
    "FullCupDiagram": (
        cup_diagram(PMSequence("--")),
        ("n", "partner", "bits"),
        "FullCupDiagram(n=2, partner=(6, 7, 4, 5, 2, 3, 0, 1), bits=(2, 2, 1, 1, 1, 1, 2, 2))",
        None,
    ),
    "DecoratedCupDiagram": (
        decorated_cup(W),
        ("n", "cups", "edges"),
        "DecoratedCupDiagram(n=4, cups=((1, 2, False),), edges=((3, True), (4, False)))",
        {"n": 4, "cups": ((1, 3, False), (2, 4, False)), "edges": ()},
    ),
    "ModuleElement": (
        kl_basis(PMSequence("--")),
        ("n", "coeffs"),
        "ModuleElement(n=2, coeffs=((PMSequence(signs='++'), LaurentPoly(terms=((1, 1),))),"
        " (PMSequence(signs='--'), LaurentPoly(terms=((0, 1),)))))",
        None,
    ),
    "KLTable": (
        kl_table(1),
        ("n", "rows", "corrections"),
        "KLTable(n=1, rows=((PMSequence(signs='+'), ModuleElement(n=1, coeffs=((PMSequence(signs='+'),"
        " LaurentPoly(terms=((0, 1),))),))),), corrections=0)",
        None,
    ),
    "DecoratedTangle": (
        generator(2, 0),
        ("m", "n", "strands"),
        "DecoratedTangle(m=2, n=2, strands=((1, 2, True), (3, 4, True)))",
        {"m": 2, "n": 2, "strands": ((1, 4, False), (2, 3, False))},
    ),
    "ColoredCircleDiagram": (
        circle_diagram(PMSequence("--"), PMSequence("++")),
        ("n", "wprime", "w", "circles"),
        "ColoredCircleDiagram(n=2, wprime=PMSequence(signs='--'), w=PMSequence(signs='++'),"
        " circles=(CircleData(color='green', start=0, upper_outer=1, lower_outer=1, linked_pairs=2),"
        " CircleData(color='green', start=1, upper_outer=1, lower_outer=1, linked_pairs=2)))",
        None,
    ),
}


def constructor_fields(x):
    """x's fields by name in constructor order."""
    return {f: getattr(x, f) for f in VALUES[type(x).__name__][1]}


def rebuilt(x):
    """A new instance of x's class from x's fields."""
    return type(x)(*constructor_fields(x).values())


@pytest.mark.parametrize("name", VALUES)
def test_constructor_takes_its_fields_and_checks_them(name):
    x, _, _, bad = VALUES[name]
    cls, kwargs = type(x), constructor_fields(x)
    args = list(kwargs.values())
    assert cls(*args) == cls(**kwargs) == x
    first, *rest = kwargs
    for call in (
        lambda: cls(*args[:-1]),
        lambda: cls(**{f: kwargs[f] for f in rest}),
        lambda: cls(*args, None),
        lambda: cls(**kwargs, extra=None),
        lambda: cls(*args, **{first: kwargs[first]}),
    ):
        with pytest.raises(TypeError):
            call()
    if bad is not None:
        with pytest.raises(ValueError):
            cls(**bad)


@pytest.mark.parametrize("name", VALUES)
def test_equality_and_hash_follow_the_compared_fields(name):
    x, fields, *_ = VALUES[name]
    assert type(x).__name__ == name
    fields_tuple = tuple(getattr(x, f) for f in fields)
    y = rebuilt(x)
    assert y is not x and y == x and not y != x
    assert hash(x) == hash(y) == hash(fields_tuple)
    assert x != fields_tuple and fields_tuple != x
    assert x != fields_tuple[-1]
    assert len({x, y}) == 1


@pytest.mark.parametrize("name", VALUES)
def test_repr(name):
    x, _, text, _ = VALUES[name]
    assert repr(x) == text


@pytest.mark.parametrize("name", VALUES)
def test_fields_are_frozen(name):
    x, fields, *_ = VALUES[name]
    for f in fields:
        before = getattr(x, f)
        with pytest.raises(AttributeError):
            setattr(x, f, before)
        with pytest.raises(AttributeError):
            delattr(x, f)
        assert getattr(x, f) is before
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("name", VALUES)
def test_copy_and_pickle_keep_the_value(name):
    x = VALUES[name][0]
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)


def test_cached_lookups_leave_the_value_alone():
    el, table = VALUES["ModuleElement"][0], VALUES["KLTable"][0]
    assert el.coeff(PMSequence("--")) == el.coeffs[1][1]
    assert table.element(PMSequence("+")) is table.rows[0][1]
    assert el == rebuilt(el) and table == rebuilt(table)


def test_sign_sequences_order_by_their_signs():
    a, b = PMSequence("++--"), PMSequence("+--+")
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or b <= a or a > b or a >= b)
    els = enumerate_wp(5)
    assert sorted(els) == els == sorted(els, key=lambda w: w.signs)
    assert sorted(reversed(els)) == els
    with pytest.raises(TypeError):
        a < "+--+"
