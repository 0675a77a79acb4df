"""Base of the package's immutable value classes.

A subclass lists its fields, in constructor order, as `__slots__` and
sets them in an explicit `__init__` through `set_field`.  The
base supplies what a frozen dataclass would: assignment and deletion
raise AttributeError, equality compares the field values of two
instances of the same class, the hash is that of the field tuple, and
the repr is `Name(field=value, ...)`.  `__reduce__` rebuilds an instance
through its constructor, so pickle and copy work in spite of the
raising `__setattr__`.

It exists so that importing the package loads neither `dataclasses` nor
the `inspect`/`ast`/`dis` modules behind it, which cost every CLI run
several milliseconds of start-up.
"""

from __future__ import annotations

# object.__setattr__, which bypasses Value.__setattr__; bound once because
# constructors such as WitnessReport's run once per scanned n.
set_field = object.__setattr__


class Value:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
