"""Shared exception types.

Every rejected input raises InputError (a ValueError), so callers can
distinguish "you gave me garbage" from genuine mathematical findings,
which are returned as report objects, never raised.
"""

from __future__ import annotations


class AddingMachineError(Exception):
    """Base class for all package errors."""


class InputError(AddingMachineError, ValueError):
    """A precondition on user-supplied data failed."""


class ExactnessError(AddingMachineError):
    """An operation left the exact number field the computation lives in.

    Raised when arithmetic would need to combine square roots of different
    squarefree radicands. Callers that can degrade gracefully catch this.
    """


class NoCanonicalCoverError(AddingMachineError):
    """The minimal sets at the requested length do not form a partition."""

    def __init__(self, n: int, reason: str):
        self.n = n
        self.reason = reason
        super().__init__(f"no canonical cover at n={n}: {reason}")


class IFSParseError(InputError):
    """Malformed IFS description file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
