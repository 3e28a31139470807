"""Exception hierarchy for the sosage package.

Every domain failure is a SosageError, which the CLI maps to exit 2; its
message says what went wrong. A subclass exists only where a caller catches
it by type or reads a field from it:

- ParseError: `config._read_json` catches the one its JSON decoder raises
  to put the file's path in the message;
- ValidationError: carries `.field`, the config field it names, which the
  tests read;
- LimitExceeded: `symbio._maybe_reverse` catches it to skip a reverse that
  would overfill the roster;
- VerifyFailed: carries `.failures`, the invariants a state given to `harness`
  fails, which the CLI prints as `FAIL` lines before it exits 3.
"""


class SosageError(Exception):
    """Base class for all sosage domain errors."""


class ParseError(SosageError):
    """Config or checkpoint file is not valid JSON."""


class ValidationError(SosageError):
    """Config violates a schema rule; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class LimitExceeded(SosageError):
    """The roster would exceed the population limit."""


class VerifyFailed(SosageError):
    """A state fails verify; carries the failed invariant results."""

    def __init__(self, failures):
        super().__init__("state fails verify: " + "; ".join(f"{r.name} ({r.detail})" for r in failures))
        self.failures = failures
