"""Read-only numpy views of data that the package keeps as Python floats.

The profile path (series, solve, monitors, writers) runs on Python floats
and ``math``, so a process that only solves never imports numpy.  A record
that publishes arrays is a namedtuple subclass that declares each as an
``ArrayField``, which reads a flat list of Python floats, the tuple's field
of that name or what a source function derives from the record, and turns
it into a read-only float64 array on first read, when numpy is imported,
cached in the instance's ``__dict__`` (so the subclass declares no
``__slots__``).  ``floats`` reads a field as its flat list of floats,
without numpy.
"""

from __future__ import annotations

import operator


class ArrayField:
    """A record's flat list of floats read as a read-only float64 array.

    The list is source(obj), by default the tuple's field of the same
    name.  It reads as an array built from it on first read, reshaped to
    ``shape(obj)`` if shape is given, and made read-only.  Assignment
    raises AttributeError, as for any field of a tuple.
    """

    def __init__(self, shape=None, source=None):
        self.shape, self.source = shape, source

    def __set_name__(self, owner, name):
        self.name = name
        if self.source is None:
            self.source = operator.itemgetter(owner._fields.index(name))

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        try:
            return obj.__dict__[self.name]
        except KeyError:
            pass
        array = readonly(self.source(obj))
        if self.shape is not None:
            array = array.reshape(self.shape(obj))
        obj.__dict__[self.name] = array
        return array

    def __set__(self, obj, value):
        raise AttributeError(f"cannot assign to field {self.name!r}")


def floats(obj, name: str):
    """obj's ArrayField name as its flat sequence of Python floats."""
    return vars(type(obj))[name].source(obj)


def readonly(values):
    """A read-only float64 numpy array of the floats values."""
    import numpy as np
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array
