"""The base of the package's immutable value types."""


class Frozen:
    """A slotted value: its fields are the ``__slots__``, set once by
    ``__init__`` and never rebound.  It is equal only to an instance of the
    same class with equal fields, and hashes as the tuple of its fields.

    ``XRoot`` and ``YElement`` write their own ``__init__``, ``__eq__`` and
    ``__hash__`` on their one field, where B is built and labelled and the
    generic loops cost time.  ``AffineType`` writes its own to derive its
    fields from (family, rank, twist) and to compare and hash by name.
    ``AffineDatum`` hashes five of its fields by hand, without the generic
    ``map``: it is hashed on every ``lambda_weights`` lookup."""

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

    def __hash__(self):
        return hash(tuple(map(self.__getattribute__, self.__slots__)))

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"
