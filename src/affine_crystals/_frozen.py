"""The base of the package's immutable value types."""


class Frozen:
    """A slotted value: its fields are the ``__slots__``, set once by
    ``__init__`` and never rebound.  It is equal only to an instance of the
    same class with equal fields.  Each subclass hashes its own fields.

    ``XRoot`` and ``YElement`` also write their own ``__init__`` and
    ``__eq__`` on their one field: they are built and compared while B is
    built and labelled, where the generic loops cost time.  ``AffineType``
    writes its own to check and derive its fields from (family, rank,
    twist) and to compare by name."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__
        )

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"
