"""Plain record classes: the part of `dataclasses` this package uses.

`@record` and `@record(frozen=True)` read a class body's annotated names as
fields, in order, as `dataclasses.dataclass` does, and `field(...)` sets a
field's default, default factory, `init` and `repr`.  A record class gets

- an `__init__` taking the `init` fields, positionally or by keyword, then
  calling `__post_init__` when the class has one;
- a `__repr__` `Qualname(f=...)` over the `repr` fields;
- an `__eq__` comparing the tuples of all fields of two instances of the
  same class;
- when frozen, a `__hash__` of that tuple and a `__setattr__` and
  `__delattr__` that raise `FrozenRecordError`; otherwise `__hash__` is None.

These equal the methods `dataclass` would write, so reprs, equality and
hashes stay what they were.  Each class gets one compiled `__init__`; the
other methods are shared closures.  Importing `dataclasses` would pull
`inspect` into every CLI process and compile 3 to 6 methods per class.
The class body must define none of these methods itself.
"""

__all__ = ["record", "field", "FrozenRecordError"]

_MISSING = object()


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


class _Field:
    __slots__ = ("default", "default_factory", "init", "repr")

    def __init__(self, default, default_factory, init, repr):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr


def field(*, default=_MISSING, default_factory=_MISSING, init=True,
          repr=True):
    return _Field(default, default_factory, init, repr)


def record(cls=None, *, frozen=False):
    if cls is None:
        return lambda cls: _make(cls, frozen)
    return _make(cls, frozen)


def _make(cls, frozen):
    names, shown, params, lines = [], [], [], []
    ns = {"_rec_set": object.__setattr__, "_REC_FACTORY": _MISSING}
    for name in cls.__dict__.get("__annotations__", {}):
        f = getattr(cls, name, _MISSING)
        if not isinstance(f, _Field):
            f = _Field(f, _MISSING, True, True)
        elif f.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, f.default)
        names.append(name)
        if f.repr:
            shown.append(name)
        value = name
        if f.default_factory is not _MISSING:
            ns["_rec_f_" + name] = f.default_factory
            value = "_rec_f_%s()" % name
            if f.init:
                params.append("%s=_REC_FACTORY" % name)
                value += " if %s is _REC_FACTORY else %s" % (name, name)
        elif f.init:
            if f.default is _MISSING:
                params.append(name)
            else:
                ns["_rec_d_" + name] = f.default
                params.append("%s=_rec_d_%s" % (name, name))
        if f.init or f.default_factory is not _MISSING:
            lines.append("_rec_set(self, %r, %s)" % (name, value) if frozen
                         else "self.%s = %s" % (name, value))
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    exec("def __init__(%s):\n %s\n" % (
        ", ".join(["self"] + params), "\n ".join(lines or ["pass"])), ns)
    init = ns["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    cls.__init__ = init

    def key(self):
        return tuple([getattr(self, n) for n in names])

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (n, getattr(self, n)) for n in shown]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    if frozen:
        cls.__hash__ = __hash__
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    else:
        cls.__hash__ = None
    return cls


def _frozen_setattr(self, name, value):
    raise FrozenRecordError("cannot assign to field %r" % (name,))


def _frozen_delattr(self, name):
    raise FrozenRecordError("cannot delete field %r" % (name,))
