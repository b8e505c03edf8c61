"""The base of the record classes: frozen fields, which ``__init__`` sets with
set_field, a dataclass's repr of the compared fields (``_fields``), and copies
and pickles through the constructor, whose fields ``__slots__`` lists.  Each
class writes its own ``__init__``, ``__eq__`` (only within its class) and
``__hash__`` (of its compared fields as a tuple): hot loops call them."""

set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__slots__ if f != "__dict__")
