"""Exception types shared across the package."""


class FoulkesError(Exception):
    """Base class for every package-specific error."""


class RepeatedPartsError(FoulkesError, ValueError):
    """A partition expected to have distinct parts repeats one."""


class DegreeMismatchError(FoulkesError, ValueError):
    """Operands index partitions of different sizes."""


class NonIntegerCoefficientError(FoulkesError, ArithmeticError):
    """A basis change produced a non-integer Schur coefficient.

    A genuine character expansion always converts to integer
    multiplicities, so this signals an internal bug or an input
    expansion that is not a character.
    """


class EmptyIncludeSetError(FoulkesError, ValueError):
    """The include set of a shift count is empty, so the count is infinite."""


class InvalidShapeError(FoulkesError, ValueError):
    """Arguments fall outside the shape family a formula covers, or a
    size or index argument (an n, an r, a table's n, the oracle's
    max_weight) is below its range."""


class UnsupportedShapeError(FoulkesError, ValueError):
    """No closed formula covers nu (it has more than two rows, more than
    two columns, and is not a hook), or the one asked for does not."""


class PartitionParseError(FoulkesError, ValueError):
    """A partition string does not parse."""


class ResourceBoundError(FoulkesError, RuntimeError):
    """The requested computation exceeds the configured size cap."""
