"""Base of the package's immutable value classes, and the prime sieve.

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

_prime_flags is the package's one prime enumeration: witnesses reads its
small primes from it and sequences the primes of primes1.  It lives
here because every command that needs primes loads this module and
nothing else in common: loggf loads no witness code, and a named
witness no series code.
"""

from __future__ import annotations

import math

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


def _prime_flags(size: int) -> bytearray:
    """flags[i] == 1 iff i is prime, for 0 <= i < size (size even, >= 4)."""
    # The b"\0\1" pattern starts with every even index cleared, so no p = 2
    # pass (a size/2-byte zero block) is needed and odd p clears odd multiples only.
    flags = bytearray(b"\0\1") * (size // 2)
    flags[1:3] = b"\0\1"
    for p in range(3, math.isqrt(size - 1) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, size, 2 * p)))
    return flags
