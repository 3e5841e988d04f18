"""Exception types shared across the package."""


class DdnnfError(Exception):
    """Base class for every error raised by this package."""


class ParseError(DdnnfError):
    """Malformed input text. ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyInput(ParseError):
    """Input text contains no non-blank line."""


class MalformedHeader(ParseError):
    """First line of a c2d file is not a valid ``nnf v e n`` header."""


class EmptyCircuit(ParseError):
    """Input declares no nodes at all."""


class MalformedLine(ParseError):
    """A record does not match the format grammar."""


class IndexOutOfRange(ParseError):
    """A child reference points at or past the referencing record."""


class LiteralOutOfRange(ParseError):
    """A literal names a variable outside 1..num_variables."""


class UnknownNodeIndex(ParseError):
    """An edge references a node index that was never declared."""


class MissingSentinel(ParseError):
    """A record is not terminated by the required 0 token."""


class CycleDetected(ParseError):
    """The declared edges do not form a DAG."""


class AmbiguousRoot(ParseError):
    """No unique root node can be determined."""


class DecomposabilityViolation(DdnnfError):
    """An And node has children with overlapping variable sets."""


class NotSmooth(DdnnfError):
    """Operation requires a smoothed circuit."""


class OracleLimitExceeded(DdnnfError):
    """Circuit has too many variables for exhaustive counting."""


class VariableOutOfRange(DdnnfError):
    """A query names a variable outside 1..num_variables."""


class PartialAssignment(DdnnfError):
    """Evaluation needs a truth value for every circuit variable."""


class VoidCircuit(DdnnfError):
    """The circuit has no satisfying assignment."""
