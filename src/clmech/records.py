"""`record`: the class decorator of clmech's value classes, built without generated source.

`dataclasses.dataclass` compiles each method it adds from source text with `exec`, on every
import. `record` attaches functions written here, closed over the class's fields, with dataclass's
behaviour for the options clmech uses: `frozen`, `eq`, `init`, defaults, `__post_init__`, and
`field`'s `default_factory`, `repr` and `compare`. The fields are the class's own annotations, a
method the class defines is kept, and instances keep their `__dict__` (`cached_property` writes there).
"""
from __future__ import annotations

from dataclasses import MISSING, Field, FrozenInstanceError, field
from operator import attrgetter


def _bind(cls: type, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call with `args` and `kwargs`, in field order."""
    values = [*args]
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name]())
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
    if kwargs or len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {names}: got {len(args)} positional, unknown or repeated {[*kwargs]}")
    return values


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls: type | None = None, /, *, frozen: bool = False, eq: bool = True, init: bool = True):
    """Make `cls` a record class, as `dataclasses.dataclass(cls, frozen=, eq=, init=)` would."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq, init=init)
    specs, defaults = {}, {}  # a default is a function of no argument
    for name in cls.__dict__.get("__annotations__", ()):
        spec = cls.__dict__.get(name, MISSING)
        if isinstance(spec, Field):
            delattr(cls, name)  # the class keeps a plain default only
        else:
            spec = field(default=spec)
        specs[name] = spec
        if spec.default_factory is not MISSING:
            defaults[name] = spec.default_factory
        elif spec.default is not MISSING:
            defaults[name] = lambda value=spec.default: value
    names, post_init, set_field = tuple(specs), hasattr(cls, "__post_init__"), object.__setattr__
    n, positions = len(names), tuple(enumerate(names))
    shown = [name for name, spec in specs.items() if spec.repr]
    compared = [name for name, spec in specs.items() if spec.compare]
    get = attrgetter(*compared) if compared else (lambda self: ())
    values = (lambda self: (get(self),)) if len(compared) == 1 else get  # always a tuple

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(type(self), names, defaults, args, kwargs)
        for i, name in positions:  # faster than a zip in CPython 3.11
            set_field(self, name, args[i])
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in shown)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    methods = {"__match_args__": names, "__repr__": __repr__}
    if init:
        methods["__init__"] = __init__
    if eq:
        methods.update(__eq__=__eq__, __hash__=(lambda self: hash(values(self))) if frozen else None)
    if frozen:
        methods.update(__setattr__=_frozen, __delattr__=_frozen)
    for name in methods.keys() - cls.__dict__.keys():
        setattr(cls, name, methods[name])
    return cls
