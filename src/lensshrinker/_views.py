"""Read-only numpy views of data that the package keeps as Python floats.

The profile path (series, solve, monitors, writers) runs on Python floats
and ``math``, so a process that only solves never imports numpy.  A record
that publishes arrays is a namedtuple subclass that declares each as an
``ArrayField``: the tuple keeps the value it is given, and the field reads
as a read-only float64 array built on first read, when numpy is imported,
and cached in the instance's ``__dict__`` (so the subclass declares no
``__slots__``).  ``floats`` reads a field as a flat list of floats without
numpy.
"""

from __future__ import annotations


class ArrayField:
    """A namedtuple field read as a read-only float64 array.

    The tuple keeps what the constructor (or ``_replace``) gives the field.
    A list or tuple of floats reads as an array built from it on first
    read, reshaped to ``shape(obj)`` if shape is given, and made read-only;
    an array given reads as itself, so that a changed copy made by
    _replace keeps the array it was given.  With ``fill``, a field given
    None is filled on first read by ``fill(obj)``, which stores a list of
    floats for it with ``fill``.  Assignment raises AttributeError, as for
    any field of a tuple.
    """

    def __init__(self, shape=None, fill=None):
        self.shape, self.fill = shape, fill

    def __set_name__(self, owner, name):
        self.name, self.key = name, "_floats_" + name
        self.index = owner._fields.index(name)

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        try:
            return obj.__dict__[self.name]
        except KeyError:
            pass
        value = obj[self.index]
        if hasattr(value, "dtype"):  # an array reads as itself
            return value
        array = readonly(self.floats(obj))
        if self.shape is not None:
            array = array.reshape(self.shape(obj))
        obj.__dict__[self.name] = array
        return array

    def __set__(self, obj, value):
        raise AttributeError(f"cannot assign to field {self.name!r}")

    def floats(self, obj) -> list:
        """The field's values as a flat sequence of Python floats."""
        value = obj[self.index]
        if value is None:
            if self.key not in obj.__dict__:
                self.fill(obj)
            value = obj.__dict__[self.key]
        if hasattr(value, "dtype"):
            value = value.ravel().tolist()
        return value


def floats(obj, name: str):
    """obj's ArrayField name as a flat sequence of Python floats."""
    return vars(type(obj))[name].floats(obj)


def fill(obj, values: dict) -> None:
    """Store each list of floats of values for obj's ArrayField of that
    name, where that field was given None (a fill function's helper)."""
    for name, floats_ in values.items():
        field = vars(type(obj))[name]
        if obj[field.index] is None:
            obj.__dict__.setdefault(field.key, floats_)


def readonly(values):
    """A read-only float64 numpy array of the floats values."""
    import numpy as np
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array
