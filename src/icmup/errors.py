"""Exception taxonomy shared by all modules.

Two branches matter to the CLI: ``InputFormatError`` covers malformed files
and arguments (exit code 2), ``DomainError`` covers well-formed inputs that
an operation rejects (exit code 3).
"""


class IcmupError(Exception):
    """Base class for all package errors."""


class InputFormatError(IcmupError):
    """A file or argument does not parse or violates its format contract."""


class DomainError(IcmupError):
    """An operation's domain precondition failed on well-formed input."""


class DegenerateAlphabet(DomainError):
    """Alphabet size is zero (or too small to cover a rendering)."""


class UnknownPattern(DomainError):
    """Pattern id (or chunk code) not present in the store."""


class NotPresent(DomainError):
    """Chunk has zero occurrences in the corpus."""


class NotDecodable(DomainError):
    """Run has an unbounded count; expansion is display-only."""


class BadCorrection(DomainError):
    """Slot assignment is missing, or names an unknown slot or filler."""


class NoSchemaMatch(DomainError):
    """Instance cannot be parsed against the schema shape."""


class UnknownClass(DomainError):
    """Class name not present in the hierarchy."""


class EmptyRanking(DomainError):
    """Probability normalisation needs at least one alignment."""


class NoMatch(DomainError):
    """No table row matches every input cell."""


class ArityMismatch(DomainError):
    """Input tuple length differs from the table's input arity."""


class MissingInput(DomainError):
    """Circuit evaluation is missing a value for an input terminal."""


class TooLarge(DomainError):
    """Result exceeds the unary magnitude cap, the decode cap or an
    enumeration bound."""


class Underflow(DomainError):
    """Subtraction below zero on natural numbers."""


class DivisionByZero(DomainError):
    """Division by zero."""


class Indeterminate(DomainError):
    """0 raised to the power 0."""


class NonIntegerTerm(DomainError):
    """Bounded sum/product term is not a non-negative integer."""


class NotASet(DomainError):
    """Set operation input contains a repeated element."""


class BadDigit(DomainError):
    """Digit string contains a character invalid in the given base."""
