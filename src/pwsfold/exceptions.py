"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PwsfoldError(Exception):
    """Base class for all package errors."""


class ParseError(PwsfoldError):
    """Raised on malformed expression text. Carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


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


class DegenerateSystemError(PwsfoldError):
    """The requested analysis needs a nonzero hidden perturbation (alpha != 0)."""


class DegenerateClassificationError(PwsfoldError):
    """Folded classification was requested exactly on a class boundary."""


class ValidationError(PwsfoldError):
    """A system definition file or CLI input failed validation."""
