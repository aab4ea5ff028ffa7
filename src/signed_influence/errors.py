"""Exception types raised across the library."""


class SignedInfluenceError(Exception):
    """Base class for all library errors."""


class NetworkValidationError(SignedInfluenceError):
    """Invalid network description (bad ids, self-loops, ...)."""


class SelfLoopError(NetworkValidationError):
    def __init__(self, node):
        super().__init__(f"self-loop on node {node} is not allowed")
        self.node = node


class DuplicateEdgeError(NetworkValidationError):
    def __init__(self, src, dst):
        super().__init__(f"duplicate edge ({src}, {dst})")
        self.src = src
        self.dst = dst


class ZeroWeightError(NetworkValidationError):
    def __init__(self, src, dst):
        super().__init__(f"edge ({src}, {dst}) has zero or non-finite weight")
        self.src = src
        self.dst = dst


class BadIdError(NetworkValidationError):
    def __init__(self, node, message=None):
        super().__init__(message or f"node id {node} out of range")
        self.node = node


class NotWeaklyConnectedError(SignedInfluenceError):
    """The underlying undirected graph is disconnected."""


class ParamConstraintViolatedError(SignedInfluenceError):
    """Agent parameters violate the model constraints; node None names no agent."""

    def __init__(self, node, message):
        super().__init__(message if node is None else f"agent {node}: {message}")
        self.node = node


class StubbornSinkRejectedError(SignedInfluenceError):
    """Operation requires a sink without stubborn members."""


class DegenerateEigenspaceError(SignedInfluenceError):
    """The unit eigenvalue of a sink block is not simple (misclassification)."""


class SingularSystemError(SignedInfluenceError):
    """A linear system that should be regular turned out singular."""


class IterationCapError(SignedInfluenceError):
    """The update rule reached its iteration cap before the residual dropped below tol."""

    def __init__(self, iterations, residual, tol):
        super().__init__(f"no convergence after {iterations} iterations: "
                         f"residual {residual:.3g} >= tol {tol:.3g}")
        self.iterations = iterations
        self.residual = residual


class ComplexityCapExceededError(SignedInfluenceError):
    """An enumeration would pass its cap: more than ``limit`` of ``what``.

    ``reached`` is a count already known to pass the cap, when there is one.
    """

    def __init__(self, limit, what, reached=None):
        at_least = "" if reached is None else f" (at least {reached})"
        super().__init__(f"more than {limit} {what}{at_least}")
        self.limit = limit


class NoSuchEdgeError(SignedInfluenceError):
    def __init__(self, src, dst):
        super().__init__(f"edge ({src}, {dst}) does not exist")
        self.src = src
        self.dst = dst


class ZeroDeltaError(SignedInfluenceError):
    """Perturbation size must be nonzero."""


class SpecFileError(SignedInfluenceError):
    """A network spec file failed validation."""
