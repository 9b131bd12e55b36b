"""Frozen records: the small immutable values splicefan passes around.

A subclass of ``Record`` declares its fields as annotations, in constructor
order, with optional defaults.  The base supplies what a frozen dataclass
would: construction by position or keyword, equality only between
instances of the same class, a hash of the compared fields, the dataclass
repr, and immutability.  They are ordinary methods reading a field table
built once per class, so no code is generated.
"""

_MISSING = object()


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    _init = ()    # (name, default) per field, in constructor order
    _shown = ()   # the field names in that order, for repr, equality and hash

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._init += tuple((name, cls.__dict__.get(name, _MISSING)) for name in own)
        cls._shown = tuple(name for name, _ in cls._init)

    def __init__(self, *args, **kwargs):
        fields = self._init
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} "
                            f"arguments but {len(args)} were given")
        values = self.__dict__
        for (name, _), value in zip(fields, args):
            values[name] = value
        for name, default in fields[len(args):]:
            value = kwargs.pop(name, default)
            if value is _MISSING:
                raise TypeError(f"{type(self).__qualname__}() missing argument {name!r}")
            values[name] = value
        if kwargs:
            raise TypeError(f"{type(self).__qualname__}() got an unexpected or "
                            f"repeated argument {next(iter(kwargs))!r}")

    def _key(self):
        values = self.__dict__
        return tuple([values[name] for name in self._shown])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        values = self.__dict__
        shown = ", ".join(f"{name}={values[name]!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")
