"""Exception types shared across the package."""

from __future__ import annotations


class PotflowError(Exception):
    """Base class for errors raised by this package."""


class EvaluationError(PotflowError):
    """A sampled function returned a non-finite value; names the node."""

    def __init__(self, node, message: str = "non-finite value"):
        self.node = node
        super().__init__(f"{message} at node {node}")


class DomainError(PotflowError):
    """A point (or a finite-difference stencil) left the declared domain."""


class PoleError(PotflowError):
    """Evaluation requested at (or too close to) a pole."""


class ConditioningError(PotflowError):
    """Parameters outside the range where the method is reliable."""


class ParameterError(PotflowError, ValueError):
    """Invalid parameter combination."""


class CollisionError(PotflowError):
    """Two vortices approached within the collision threshold.

    Carries the time stamp of the aborted step in ``time``.
    """

    def __init__(self, time: float, separation: float):
        self.time = time
        self.separation = separation
        super().__init__(f"vortex collision at t={time:.6g} (separation {separation:.3e})")


class SingularConfigurationError(PotflowError):
    """Coincident points where pairwise-distinct positions are required."""


class AdmissibilityError(PotflowError):
    """Input function not in the space a kernel reproduces."""


class NormalizationError(PotflowError):
    """A normalization assertion failed (flux, conjugate periods, ...)."""


class OptimizationQualityError(PotflowError):
    """An optimizer produced an inconsistent (e.g. non-monotone) ladder."""
