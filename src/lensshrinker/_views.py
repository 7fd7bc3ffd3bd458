"""Read-only numpy views of data that the package keeps as Python floats.

The profile path (series, solve, monitors, writers) runs on Python floats
and ``math``, so a process that only solves never imports numpy.  A class
that publishes arrays declares each as an ``ArrayField`` of a frozen
dataclass: the field keeps the value it is given, and reads as a read-only
float64 array built on first read, when numpy is imported.  ``floats``
reads a field as a flat list of floats without numpy.
"""

from __future__ import annotations


class ArrayField:
    """A dataclass field read as a read-only float64 array.

    The field keeps what the constructor (or ``dataclasses.replace``) gives
    it.  A list or tuple of floats reads as an array built from it on first
    read, reshaped to ``shape(obj)`` if shape is given, and made read-only;
    an array given reads as itself, so that a changed copy made by replace
    keeps the array it was given.  With ``fill``, the field defaults to
    None, and a field left None is filled on first read by ``fill(obj)``,
    which stores a list of floats for it with ``fill``; without, the field
    is required.
    """

    def __init__(self, shape=None, fill=None):
        self.shape, self.fill = shape, fill

    def __set_name__(self, owner, name):
        self.name, self.key = name, "_floats_" + name

    def __get__(self, obj, cls=None):
        if obj is None:  # the dataclass's default, or none
            if self.fill is None:
                raise AttributeError(self.name)
            return None
        try:
            return obj.__dict__[self.name]
        except KeyError:
            pass
        array = readonly(self.floats(obj))
        if self.shape is not None:
            array = array.reshape(self.shape(obj))
        obj.__dict__[self.name] = array
        return array

    def __set__(self, obj, value):
        obj.__dict__.pop(self.name, None)
        if hasattr(value, "dtype"):  # an array reads as itself
            obj.__dict__[self.name] = value
        obj.__dict__[self.key] = value

    def floats(self, obj) -> list:
        """The field's values as a flat sequence of Python floats."""
        value = obj.__dict__.get(self.key)
        if value is None:
            self.fill(obj)
            value = obj.__dict__[self.key]
        if hasattr(value, "dtype"):
            value = value.ravel().tolist()
        return value


def given_value(obj, name: str):
    """What obj's ArrayField name was given, as it was given."""
    return obj.__dict__[vars(type(obj))[name].key]


def floats(obj, name: str):
    """obj's ArrayField name as a flat sequence of Python floats."""
    return vars(type(obj))[name].floats(obj)


def fill(obj, values: dict) -> None:
    """Store each list of floats of values for obj's ArrayField of that
    name, where that field was left None (a fill function's helper)."""
    for name, floats_ in values.items():
        if obj.__dict__.get(vars(type(obj))[name].key) is None:
            obj.__dict__[vars(type(obj))[name].key] = floats_


def readonly(values):
    """A read-only float64 numpy array of the floats values."""
    import numpy as np
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array
