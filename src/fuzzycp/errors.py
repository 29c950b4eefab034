"""Exception hierarchy shared by all fuzzycp modules."""


class FuzzycpError(Exception):
    """Base class for every error raised by this package."""


class EmptyDatasetError(FuzzycpError):
    """The input stream contained no rows at all."""


class ShapeError(FuzzycpError):
    """A data row has the wrong number of cells."""

    def __init__(self, row, message):
        self.row = row
        super().__init__(message)

    def __reduce__(self):  # pickle and copy rebuild an error from its arguments
        return type(self), (self.row, *self.args)


class _Located(FuzzycpError):
    """An error that may carry a location, which then prefixes its message
    as ``line:column:``."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class ParseError(_Located):
    """Unparseable input; carries a location when one is known.

    ``line``/``column`` are 1-based for query text and 0-based row/column
    indexes for tabular data (they index records, not characters).
    """


class SemanticError(_Located):
    """Well-formed query text with an inconsistent meaning."""


class DegenerateDataError(FuzzycpError):
    """Too little variation in the data to build the requested clusters."""


class ConfigError(FuzzycpError):
    """A setting or document entry is unknown, out of range or inconsistent.

    Covers a knowledge-base or compiled-query document of the wrong shape
    (an entry missing or of the wrong type, a value that is not a finite
    number), naming the entry, and a compiled query whose stored blocks
    disagree with its net.
    """


class MalformedDocumentError(FuzzycpError):
    """A document file that is not UTF-8 JSON, or whose JSON holds an integer
    over the interpreter's digit limit, nesting over its recursion limit, an
    object that repeats a key, or a string with a lone surrogate."""


class ValidationError(FuzzycpError):
    """A ``CPNet`` being built violates its structural invariants.

    ``report`` holds the individual violations.
    """

    def __init__(self, report):
        self.report = tuple(report)
        lines = "; ".join(str(v) for v in self.report)
        super().__init__(f"invalid preference net: {lines}")

    def __reduce__(self):
        return type(self), (self.report,)


class CapacityError(FuzzycpError):
    """A request exceeds what the net holds or a fixed bound.

    Raised for more terms than the net has outcomes or than
    ``cpnet.OUTCOME_CAP``, and by ``enumerate_outcomes``, the reference the
    top-T search is tested against, for an outcome space above its cap.
    """


class AssignmentError(FuzzycpError):
    """An outcome assignment is missing a variable or uses a foreign value."""


class DegenerateUtilityError(FuzzycpError):
    """The utility scale is flat, so importances cannot be normalized."""


class BindingError(FuzzycpError):
    """Query variables and knowledge-base attributes do not line up."""


class DegenerateQueryError(FuzzycpError):
    """A query with no terms or no variables cannot be evaluated."""
