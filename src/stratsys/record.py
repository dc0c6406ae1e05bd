"""The base classes of the package's records, which do without
``dataclasses``: importing it and decorating the records cost about 27 ms
at every interpreter start.

A record is a ``__slots__`` class with an explicit ``__init__``.  Its slots
not named ``_...`` are its fields: ``==`` compares the fields of two records
of one class, and ``repr`` lists them; a ``_...`` slot holds derived or
cached state that neither sees.  ``__init__`` sets every slot, in slot
order, through ``_init`` or the ``_setters`` themselves.  A ``Frozen``
record also hashes on its fields and refuses assignment, so its slots are
set only there.  Plain immutable values that nothing reads as a tuple are
``typing.NamedTuple``s instead.
"""

from operator import attrgetter


class Record:
    """A mutable record; like any mutable value, it is unhashable."""

    __slots__ = ("__weakref__",)
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        slots = cls.__dict__["__slots__"]
        cls._fields = tuple(name for name in slots if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields) if cls._fields else None
        cls._setters = tuple(cls.__dict__[name].__set__ for name in slots)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def _init(self, *values) -> None:
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)


class Frozen(Record):
    """An immutable record, hashed on its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
