"""Exception hierarchy for the frozenplanet package.

Every error carries a short machine-readable ``tag`` naming the violated
invariant, so the CLI can report it and map it to an exit code.
"""


class FrozenPlanetError(Exception):
    """Base class; ``tag`` names the violated invariant."""

    tag = "error"

    def __init__(self, message, tag=None):
        super().__init__(message)
        if tag is not None:
            self.tag = tag


class DomainError(FrozenPlanetError):
    """Input outside the mathematical domain of an operation."""

    tag = "domain"


class ClassMismatchError(DomainError):
    """Samples or an operation violate the declared symmetry class."""

    tag = "loops.class-mismatch"


class DegenerateLoopError(DomainError):
    """Loop vanishes identically on an interval (no time map exists)."""

    tag = "levi_civita.degenerate-loop"


class NonRegularizableError(DomainError):
    """The reciprocal integral of the orbit diverges (zero of order >= 2)."""

    tag = "levi_civita.non-regularizable"


class AllCollisionError(DomainError):
    """No safe region remains away from the collision set."""

    tag = "levi_civita.all-collision"


class AdmissibilityError(DomainError):
    """Pair loop violates a mean or pointwise interaction inequality."""

    tag = "helium.inadmissible-pair"


class NonConvergenceError(FrozenPlanetError):
    """Newton failed; carries the residual history."""

    tag = "solve.non-convergence"

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


class SingularHessianError(FrozenPlanetError):
    """Newton system numerically singular."""

    tag = "solve.singular-hessian"


class ContinuationStuckError(FrozenPlanetError):
    """Step size underflowed; carries the partial path."""

    tag = "solve.continuation-stuck"

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DegeneratePointError(FrozenPlanetError):
    """Euler count requested with a degenerate critical point."""

    tag = "solve.degenerate-point"


class KernelTrackingError(FrozenPlanetError):
    """Kernel dimension left 1 during holonomy tracking."""

    tag = "detline.kernel-tracking"
