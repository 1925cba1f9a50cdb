"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class RangeError(ToolkitError, ValueError):
    """A parameter is outside its admissible range."""


class NoRealRootsError(RangeError):
    """The admissible flow-exponent quadratic has no real roots."""


class PositivityError(ToolkitError, ValueError):
    """An operation required a positive field and did not get one.

    A flow that fails records the time ``t`` and step ``dt`` of the failure.
    """

    def __init__(self, message, t=None, dt=None):
        super().__init__(message)
        self.t = t
        self.dt = dt


class ConvergenceError(ToolkitError, RuntimeError):
    """An iterative solver failed to reach its tolerance.

    A failure inside a parameter search also records the ``stage`` of the
    search, its parameter ``lam`` and the index ``step`` of the failed
    solve within it.
    """

    def __init__(self, message, residual=None, iterations=None, t=None,
                 dt=None, stage=None, lam=None, step=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.t = t
        self.dt = dt
        self.stage = stage
        self.lam = lam
        self.step = step


class SingularJacobianError(ToolkitError, RuntimeError):
    """A Newton system is (numerically) singular, e.g. at a bifurcation."""


class DampingError(ToolkitError, RuntimeError):
    """Newton damping could not restore positivity or residual decrease."""
