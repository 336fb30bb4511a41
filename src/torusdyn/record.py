"""Record, the frozen base class of the package's value types, which generates no code at import."""

from __future__ import annotations

_set = object.__setattr__  # a frozen record's one way to write a field


class Record:
    """A frozen value with named fields, as ``@dataclass(frozen=True)`` makes one.

    The fields are the subclass's annotations, in order, each defaulting to the
    class attribute of its name.  Each is written once into the instance's own
    ``__dict__`` (so ``vars()`` and ``cached_property`` work) before
    ``__post_init__`` runs.  Records of one class with equal fields are equal.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)  # its own annotations only, on Python >= 3.10

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        i = 0
        for value in args:  # ran faster than zip(names, args) or enumerate(args) on CPython 3.11
            _set(self, names[i], value)
            i += 1
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call with keywords or defaults."""
        rest = cls._fields[len(args) :]
        missing = [n for n in rest if n not in kwargs and not hasattr(cls, n)]
        if len(args) > len(cls._fields) or kwargs.keys() - rest or missing:
            raise TypeError(f"{cls.__name__}() takes each of {cls._fields} once, or its default")
        return [*args, *(kwargs[n] if n in kwargs else getattr(cls, n) for n in rest)]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._astuple() == other._astuple() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"
