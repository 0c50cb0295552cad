"""Exception types shared across the package."""

from __future__ import annotations


class RadialFlowError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RadialFlowError):
    """A network file is structurally malformed (bad JSON, missing keys, wrong types)."""


class ValidationError(RadialFlowError):
    """A network violates a model invariant (imbalance, duplicate edge, ...)."""


class DimensionMismatch(RadialFlowError):
    """A flow vector does not match the configuration's edge count."""


class CycleError(RadialFlowError):
    """An edge set handed to the forest flow solver contains a cycle."""


class ImbalanceError(RadialFlowError):
    """A forest component's injections do not sum to zero, so no flow exists."""


class InfeasibleSplit(RadialFlowError):
    """The peeled graph or a side of a growth split fails to balance."""


class NoCandidate(RadialFlowError):
    """The sampler found no edge that could extend any polytree."""


class Infeasible(RadialFlowError):
    """The solver could not produce a feasible radial configuration.

    The message names the subproblem that got stuck by its smallest node id.

    Attributes:
        iteration: Sampling steps taken before the failure, counted over
            every side of every growth split, or None when the failure
            happened outside growth.
    """

    def __init__(self, message: str, iteration: int | None = None) -> None:
        super().__init__(message)
        self.iteration = iteration


class InvariantViolation(RadialFlowError):
    """An internal invariant check failed during a solve run with checks enabled."""


class TooLarge(RadialFlowError):
    """The network exceeds the exhaustive oracle's size limits."""


class InvalidSpec(RadialFlowError):
    """A generator specification is out of range or inconsistent."""
