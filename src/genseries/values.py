"""Immutable values that compare by value.

A subclass's annotated names are its fields, in order (its parent's if it
annotates none).  The default ``__init__`` takes them by position or keyword;
a class that checks its fields, or is built often, writes its own and hands
them to ``_store``.  ``_store`` keeps their tuple: values of one class are
equal when their field tuples are, hash as that tuple, show as
``Name(field=value, ...)`` and refuse assignment.
"""


class Value:
    _fields = _values = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__) or cls._fields  # its own, on 3.10+
        if cls.__init__ in (object.__init__, Value.__init__):  # none written below Value
            cls.__init__ = Value.__init__ if cls._fields else object.__init__  # fieldless: fast

    def __init__(self, *values, **named):
        if named or len(values) != len(self._fields):
            values = self._bind(values, named)
        self._store(*values)

    def _bind(self, values, named):
        fields, name = self._fields, type(self).__name__
        if len(values) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(values)}")
        values = list(values)
        for field in fields[len(values):]:
            if field not in named:
                raise TypeError(f"{name} is missing field {field!r}")
            values.append(named.pop(field))
        if named:
            raise TypeError(f"{name} got unexpected field {next(iter(named))!r}")
        return values

    def _store(self, *values):  # not via __dict__, which would slow every read
        object.__setattr__(self, "_values", values)
        i = 0
        for name in self._fields:  # indexed: cheaper than a zip per value built
            object.__setattr__(self, name, values[i])
            i += 1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__
