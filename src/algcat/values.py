"""The base of the package's immutable value types.

A value type is a plain class with __slots__. Its __init__ sets each field
once through object.__setattr__, and after that assignment and deletion
raise AttributeError. _fields names the fields that equality, hashing and
repr read, in order; the other slots hold data derived from those. Two
values are equal only when they are of one class and their _fields are
equal, the hash is that of the tuple of their _fields, and repr names each
of them by keyword: what a frozen dataclass with the same compared fields
does, without generating code, so no process pays the import of dataclasses
and inspect. The value types the hom-set memos and sorts touch most write
__eq__ and __hash__ out, with the same results, or keep the hash (see
cached_hash).
"""

from __future__ import annotations

from functools import wraps


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def cached_hash(self: Value) -> int:
    """__hash__ for a value type with a _hash slot: the hash of its _fields,
    computed on the first call and kept. Computed lazily, so a structure
    built directly from unhashable rows (as a corrupted input may be) raises
    only when it is hashed, as a dataclass would."""
    try:
        return self._hash
    except AttributeError:
        h = hash(self._key())
        object.__setattr__(self, "_hash", h)
        return h


def per_object(fn):
    """fn of one object with a _derived dict slot (a neardomain or a sharply
    2-transitive group), computed on the first call for each object and kept
    in that slot under fn's name."""
    name = fn.__name__

    @wraps(fn)
    def get(obj):
        derived = obj._derived
        if name not in derived:
            derived[name] = fn(obj)
        return derived[name]

    return get
