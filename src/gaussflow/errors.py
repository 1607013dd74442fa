"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GaussFlowError",
    "ConvexityLost",
    "NotInterior",
    "AlphaZero",
    "NonConvergence",
    "RandomBodyFailure",
    "RadiiNonConvergence",
    "StepFailure",
    "CompatibilityViolation",
    "UnsupportedDimension",
]


class GaussFlowError(Exception):
    """Base class for all package-specific errors."""


class ConvexityLost(GaussFlowError):
    """A = hess(u) + u*I is not positive definite at some node."""

    def __init__(self, node: int, lam_min: float):
        self.node = int(node)
        self.lam_min = float(lam_min)
        super().__init__(f"convexity lost at node {self.node}: lambda_min = {self.lam_min:.3e}")


class NotInterior(GaussFlowError):
    """The chosen basepoint is not strictly inside the body."""

    def __init__(self, point, min_support: float):
        self.point = point
        self.min_support = float(min_support)
        super().__init__(f"point {point} not interior: min support {self.min_support:.3e}")


class AlphaZero(GaussFlowError):
    """The curvature exponent alpha = 0 is outside the admissible range."""


class NonConvergence(GaussFlowError):
    """An iterative solver stopped before reaching its tolerance."""

    def __init__(self, iterations: int, gradient_norm: float):
        self.iterations = int(iterations)
        self.gradient_norm = float(gradient_norm)
        super().__init__(
            f"no convergence after {self.iterations} iterations "
            f"(residual {self.gradient_norm:.3e})"
        )


class RandomBodyFailure(GaussFlowError):
    """Rejection sampling failed to produce a uniformly convex body."""


class RadiiNonConvergence(GaussFlowError):
    """A radius exchange solve hit its pivot cap or failed certification."""

    def __init__(self, best_value: float, gap: float):
        self.best_value = float(best_value)
        self.gap = float(gap)
        super().__init__(f"radius solve stalled at {best_value!r} (gap {gap:.3e})")


class StepFailure(GaussFlowError):
    """A flow step kept failing (losing convexity or positivity, or its
    error estimate) after max rejected attempts, or its dt no longer
    advances the clock. `flow.run` sets `partial` to the run up to the
    failure."""

    def __init__(self, node: int | None, dt: float, rejections: int):
        self.partial = None
        self.node = node
        self.dt = float(dt)
        self.rejections = int(rejections)
        where = f" near node {node}" if node is not None else ""
        super().__init__(f"step failed after {rejections} rejected attempts (dt {dt:.3e}){where}")


class CompatibilityViolation(GaussFlowError):
    """A prescribed surface-area density has a nonzero degree-1 component."""

    def __init__(self, norm: float):
        self.norm = float(norm)
        super().__init__(f"degree-1 component of density too large: {self.norm:.3e}")


class UnsupportedDimension(GaussFlowError):
    """Operation restricted to a subset of supported dimensions."""
