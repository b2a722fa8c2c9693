"""Shared exception types for the orbitcsp package."""

from __future__ import annotations


class OrbitCspError(Exception):
    """Base class for all errors raised by this package."""


class BudgetExceeded(OrbitCspError):
    """A requested computation is larger than the enforced size budget."""


class SignatureMismatch(OrbitCspError):
    """An instance refers to a relation the template does not declare, or
    uses it with the wrong arity."""


class DomainMismatch(OrbitCspError):
    """An operation table and a template disagree on the domain size."""


class ParameterError(OrbitCspError):
    """An operation was called with incoherent parameters (e.g. k > l)."""


class ClassMismatch(OrbitCspError):
    """A dispatch class was requested that the template does not support."""


class ArityMismatch(OrbitCspError):
    """Objects of different arities were combined, or a parsed constraint
    has the wrong arity."""


class MalformedPattern(OrbitCspError):
    """An order/sign pattern does not have the required structure."""


class UnknownVariable(OrbitCspError):
    """A query names a variable the instance does not declare."""


class NotFree(OrbitCspError):
    """A set claimed to be free fails the free-set definition."""


class PreconditionFailed(OrbitCspError):
    """A solver was invoked on a template that fails its preservation
    precondition."""


class ShapeUnsupported(OrbitCspError):
    """A behavior shape is not meaningful over the given base structure."""


class UnsupportedBase(OrbitCspError):
    """The requested analysis is not available for this base structure."""


class ParseError(OrbitCspError):
    """A text input could not be parsed; carries line/column information."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
