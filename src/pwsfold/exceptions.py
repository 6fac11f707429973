"""Exception hierarchy shared across the package.

Input errors are ValidationError and its subclasses ParseError,
DegenerateSystemError and DegenerateClassificationError: the system, a
parameter or a point asked for is not one the computation accepts.
ValidationError is also a ValueError. Every other PwsfoldError is a
failure to compute on accepted input, as is a raw ArithmeticError or
ValueError from a compiled expression.
"""

from __future__ import annotations


class PwsfoldError(Exception):
    """Base class for all package errors."""


class ValidationError(PwsfoldError, ValueError):
    """A system definition, CLI input or argument failed validation."""


class ParseError(ValidationError):
    """Raised on malformed expression text. Carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DegenerateSystemError(ValidationError):
    """The requested analysis needs a nonzero hidden perturbation (alpha != 0)."""


class DegenerateClassificationError(ValidationError):
    """Folded classification was requested exactly on a class boundary."""


class EvaluationError(PwsfoldError):
    """Raised when an expression cannot be evaluated to a finite real."""


class IntegrationError(PwsfoldError):
    """Base class for integrator failures."""


class StepUnderflowError(IntegrationError):
    """Step size collapsed below the representable resolution."""


class StepBudgetError(IntegrationError):
    """The step budget (max_steps) was exhausted before reaching t_end."""


class EventLimitError(IntegrationError):
    """More surface events occurred than opts.max_events allows."""


class SlidingResidualError(IntegrationError):
    """A supposed sliding value of lambda does not annihilate f1."""


class NonHyperbolicPointError(PwsfoldError):
    """Slow-flow projection is indeterminate: potential folded singularity."""
