"""Exception hierarchy shared by all fuzzycp modules.

An error is built as ``Error(message, **details)``, each detail an
attribute, so pickle and copy rebuild it by Python's own rule.  A message
locates what it refuses by ``line:column:``, a 1-based position in query
text, or by ``attribute 'a', record r:``, a table cell whose ``record`` is
the 0-based index that ``eval`` prints as ``record_index``.
"""


class FuzzycpError(Exception):
    """Base class for every error raised by this package."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.__dict__.update(details)


class EmptyDatasetError(FuzzycpError):
    """The input stream contained no rows at all."""


class ShapeError(FuzzycpError):
    """A data row has the wrong number of cells; ``record`` is its index."""


class _Located(FuzzycpError):
    """An error that may carry a 1-based position in query text, which
    then prefixes its message as ``line:column:``."""

    def __init__(self, message, line=None, column=None, **details):
        if line is not None and column is not None:
            message = f"{line}:{column}: {message}"
            details.update(line=line, column=column)
        super().__init__(message, **details)


class ParseError(_Located):
    """Unparseable input: query text with its ``line``/``column`` when
    known, or a table cell with its ``record`` and ``attribute``."""


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
