"""Exception types shared across the package, and the deadline check
that the SAT, colouring, minimal-DFA and equivalence layers share."""

import time


class WorkbenchError(Exception):
    """Base class for all errors raised by this library."""


class InvalidInput(WorkbenchError, ValueError):
    """An argument violates a documented precondition."""


class ParseError(WorkbenchError, ValueError):
    """Malformed or schema-violating serialized automaton; names the field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class SampleConflict(WorkbenchError):
    """A word is required to be both accepted and rejected."""

    def __init__(self, word):
        super().__init__(f"word labeled both accept and reject: {word!r}")
        self.word = word


class SolverError(WorkbenchError):
    """SAT backend failed: missing executable, crash, or unparsable reply."""


class SolverTimeout(SolverError):
    """The SAT backend or the minimal-DFA search around it ran past its deadline."""


class EquivalenceTimeout(WorkbenchError):
    """An equivalence query ran past its deadline."""


class GenerationFailure(WorkbenchError):
    """Random automaton generation exhausted its attempt budget."""


class LearnTimeout(WorkbenchError):
    """Learning exceeded its deadline; carries the statistics gathered so far."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


def check_deadline(deadline: float | None, error: type[WorkbenchError] = SolverTimeout) -> None:
    """Raise ``error`` once :func:`time.monotonic` is past ``deadline``;
    a None deadline reads no clock."""
    if deadline is not None and time.monotonic() > deadline:
        raise error(f"{error.__name__}: the deadline has passed")
