"""Immutable records: the base of qram's value classes.

A subclass names its fields in _fields, in constructor order, stores them in
__slots__ and sets them in its own __init__ through object.__setattr__.
Equality and hash go by type and fields, repr lists the fields, and
assignment raises. Nothing is generated at import time, so importing qram
costs no dataclasses or inspect.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by assignment
        return type(self), self._values()
