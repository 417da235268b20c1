"""Immutable records: the one base class of every value type in the package.

Each CLI command is a fresh process, so the package's import time is paid
on every command.  ``dataclasses`` costs about 6 ms to import, because it
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
``@dataclass(frozen=True)`` runs one ``exec`` per generated method, about
0.5 ms a class.  ``Record`` gives the same behaviour with no code
generation and no import beyond ``operator``:

- the fields are the class annotations, in order, all of them required;
- construction takes the fields positionally or by keyword and then calls
  ``__post_init__``, which may check them;
- ``==`` compares the fields of two records of the same class, and any
  other type gives ``NotImplemented``; ``hash`` covers the same fields;
- ``repr`` is ``Name(field=value, ...)``;
- setting or deleting an attribute raises ``AttributeError``.

A record made by the thousand may define its own ``__init__`` with the
same signature, setting each field with ``object.__setattr__``, to skip
the generic argument binding.
"""

import operator


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls._key = operator.attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call, in field order, or a ``TypeError``
        worded like Python's own."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {missing}")
        return [values[f] for f in fields]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
