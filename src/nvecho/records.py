"""Value types whose fields are their annotations: ``Record`` and ``Frozen``.

A subclass lists its fields as annotations, in order; a class attribute of
the same name is that field's default, and a dict or list default is copied
for each instance.  The constructor takes the fields by position or by name
and then runs the class's ``_check``, its validation, which refuses a bad
value with ValueError.  Two records are equal when they are of one class and
their fields are, except those the class names in ``uncompared``
(``class C(Frozen, uncompared=("base_dir",))``).  The repr prints
``Name(field=value, ...)``.  ``replace(**changes)`` builds a new record
through the constructor, so it is checked too, and ``_fields`` names the
fields.  A ``Record`` is mutable and unhashable; a ``Frozen`` one refuses to
assign or delete an attribute and hashes its compared fields.

Defining a record generates no code, so it costs about what a plain class
does; ``dataclasses`` compiles each generated method and imports
``inspect`` with it.  A record pickles as a plain instance.
"""


class Record:
    """A mutable value type (module docstring)."""

    _fields = ()
    _known = frozenset()
    _compared = ()
    _defaults = {}

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = names
        cls._known = frozenset(names)
        cls._compared = tuple(name for name in names if name not in uncompared)
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) < len(args) + len(kwargs) or not values.keys() <= self._known:
            self._refuse(args, kwargs)
        if len(values) < len(self._fields):
            for name, default in self._defaults.items():
                if name not in values:
                    values[name] = (default.copy() if isinstance(default, (dict, list))
                                    else default)
            if len(values) < len(self._fields):
                self._refuse(args, kwargs)
        for name in self._fields:  # as attributes, which keep the values inline
            object.__setattr__(self, name, values[name])
        self._check()

    def _refuse(self, args, kwargs):
        """Raise the TypeError a function would for arguments that do not
        give each field one value."""
        name, names = type(self).__name__, self._fields
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in names[:len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        given = set(names[:len(args)]) | kwargs.keys()
        missing = [key for key in names if key not in given and key not in self._defaults]
        raise TypeError(f"{name}() missing argument(s) {', '.join(missing)}")

    def _check(self) -> None:
        """Refuse a bad field value with ValueError; a subclass overrides it."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A record of this class with ``changes``, through the constructor."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)


class Frozen(Record):
    """An immutable, hashable value type (module docstring)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key())
