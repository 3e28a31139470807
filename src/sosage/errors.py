"""Exception hierarchy for the sosage package.

Every domain error derives from SosageError so callers can catch the package's
failures in one clause; the CLI maps them onto exit codes.
"""


class SosageError(Exception):
    """Base class for all sosage domain errors."""


# --- structure algebra ---

class UnknownStructure(SosageError):
    """A structure id does not resolve in the universe."""


class EmptyConstituents(SosageError):
    """construct() called with no constituents."""


class OrderGapViolation(SosageError):
    """A direct dependency edge would span an order gap other than 1."""


class NotComposite(SosageError):
    """Emergence queried on an order-1 structure (no lower level to compare)."""


class OrderCapExceeded(SosageError):
    """construct() would create a structure above the universe's max_order."""


# --- population / breaking ---

class LimitExceeded(SosageError):
    """The roster would exceed the population limit."""


class EmptyPopulation(SosageError):
    """init_population() called with no genomes."""


class PreconditionViolated(SosageError):
    """apply_break() called without a qualifying pair."""


class NotAComposite(SosageError):
    """Reverse-break target is not a composite created by a logged break."""


class AlreadyReversed(SosageError):
    """Reverse-break target's break event was already reversed."""


# --- symbiotic evolution ---

class RosterTooSmall(SosageError):
    """Too few roster members to assemble a network."""


class DimensionMismatch(SosageError):
    """Assembly wiring does not match the environment's dimensions."""


class UnevaluatedAssembly(SosageError):
    """Fitness distribution reached an assembly with no recorded fitness."""


class NoScores(SosageError):
    """evolve_generation() called before any fitness was distributed."""


# --- envs ---

class InvalidAction(SosageError):
    """Action outside the environment's action range."""


# --- harness / cli ---

class ParseError(SosageError):
    """Config or checkpoint file is not valid JSON."""


class ValidationError(SosageError):
    """Config violates a schema rule; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class DigestMismatch(SosageError):
    """Checkpoint config digest does not match its content."""
