"""Exception types raised across the package."""

from __future__ import annotations


class SafeMdpError(Exception):
    """Base class for all package-specific errors."""


class ModelFormatError(SafeMdpError):
    """A model or policy document is malformed (bad JSON, unknown labels, duplicates)."""


class ModelValidationError(SafeMdpError):
    """A structurally well-formed model violates an invariant.

    Attributes
    ----------
    violations : list of str
        One entry per violated invariant, naming the offending index.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class PolicyError(SafeMdpError):
    """A policy row is not a probability distribution or misses a state."""


class NotTransientError(SafeMdpError):
    """Some taboo state cannot leave the taboo set with probability 1.

    Attributes
    ----------
    trapped : tuple of int
        Taboo indices from which no available choice surely leads out of H.
    spectral_radius : float
        Exactly 1, the radius of every non-transient substochastic block.
    """

    def __init__(self, trapped):
        self.trapped = tuple(int(i) for i in trapped)
        self.spectral_radius = 1.0
        super().__init__(
            f"taboo block is not transient (spectral radius {self.spectral_radius:.12g})"
        )


class MaxIterationsError(SafeMdpError):
    """An iterative solver hit its sweep limit before meeting the tolerance.

    Attributes
    ----------
    last : numpy.ndarray
        The final iterate when the limit was reached.
    """

    def __init__(self, message: str, last=None):
        self.last = last
        super().__init__(message)


class InfeasibleError(SafeMdpError):
    """No policy satisfies the requested safety constraint."""


class CapExceededError(SafeMdpError):
    """Pure-policy enumeration would exceed the configured cap."""


class PathExplosionError(SafeMdpError):
    """Path enumeration exceeded its node budget."""


class LpUnboundedError(SafeMdpError):
    """The linear program is unbounded."""


class LpNumericalError(SafeMdpError):
    """A simplex pivot fell below the stability threshold (no package solver pivots)."""
