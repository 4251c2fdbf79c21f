"""Immutable records on one small base class, without ``dataclasses``.

``dataclasses`` imports ``inspect`` and compiles generated methods for every
class; on a command-line call that cost about twice the rest of the import.
``Record`` reads a subclass's fields from its own annotations when the class
is created, and every record shares one implementation of each method.

It also holds the package's two argument gates.  ``_is_int`` is the only
place an ``int`` that is not a ``bool`` is told apart, and ``_require_ints``
raises the ``TypeError`` at the first value that fails it.  Every size cap
goes through ``_require_at_most``, the only code that writes the refusal
``"{subject} {value} exceeds {what} limit {limit}"``.
"""

from operator import attrgetter
from typing import Iterable


def _is_int(v: object) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require_ints(values: Iterable[object], subject: str) -> None:
    """Raise ``TypeError(f"{subject}, got {v!r}")`` at the first value that is not an int."""
    for v in values:
        if not _is_int(v):
            raise TypeError(f"{subject}, got {v!r}")


def _require_at_most(value: int, limit: int, subject: str, what: str) -> int:
    """Return ``value``, or raise the cap refusal ``ValueError`` when it is above ``limit``."""
    if value > limit:
        raise ValueError(f"{subject} {value} exceeds {what} limit {limit}")
    return value


class Record:
    """Immutable value whose fields are its class's annotated names, in order.

    Construction is positional; missing trailing fields take the class
    attribute of the same name as their default.  ``__post_init__`` runs
    after the fields are set.  Records equal only records of the same class
    with equal fields, and hash as the tuple of their fields.  A subclass may
    declare its fields in ``__slots__``; copies and pickles rebuild through
    the constructor either way, so they pass its checks again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # The tuple of field values, which equality and hashing compare; a
        # single name makes attrgetter return the bare value, not a 1-tuple.
        get = attrgetter(*fields)
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *values: object) -> None:
        fields = self._fields
        if len(values) != len(fields):
            values = self._with_defaults(values)
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _with_defaults(self, values: tuple) -> tuple:
        cls, missing = type(self), self._fields[len(values):]
        # A slotted field's class attribute is its slot, never a default.
        defaults = cls.__dict__.keys() - set(cls.__dict__.get("__slots__", ()))
        if len(values) > len(self._fields) or not defaults.issuperset(missing):
            raise TypeError(f"{cls.__name__}{self._fields} given {len(values)} values")
        return values + tuple(cls.__dict__[n] for n in missing)

    def __post_init__(self) -> None:
        pass

    def __reduce__(self) -> tuple:
        return type(self), self._values

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: records are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: records are immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
