"""The base of the record classes.  A record lists its fields once, in
``_fields``; ``__slots__`` only names their storage (plus ``__dict__`` if it
caches properties).  ``Frozen`` makes the fields read-only, gives a
dataclass's repr, copies and pickles through the constructor, and builds
three methods for each class: ``__init__`` sets the fields, then calls
``__post_init__`` where the class has one; ``__eq__`` holds only within the
class, on the fields; ``__hash__`` hashes them as a tuple, as a frozen
dataclass does.  They are compiled from source, as dataclasses does, so each
runs the bytecode of a hand-written method: hot loops call them, and a loop
over the fields or closures over ``operator.attrgetter`` made the KL and
tangle checks 10 to 50 % slower."""

set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields
        sets = [f"  set_field(self, {f!r}, {f})" for f in fields]
        if hasattr(cls, "__post_init__"):
            sets.append("  self.__post_init__()")
        source = "\n".join([
            f"def __init__(self, {', '.join(fields)}):",
            *sets,
            "def __eq__(self, other):",
            "  return " + " and ".join(["type(other) is cls", *(f"self.{f} == other.{f}" for f in fields)]),
            "def __hash__(self):",
            "  return hash((" + "".join(f"self.{f}, " for f in fields) + "))",
        ])
        namespace = {"__name__": cls.__module__, "cls": cls, "set_field": set_field}
        exec(source, namespace)
        for name in ("__init__", "__eq__", "__hash__"):
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self._fields)
