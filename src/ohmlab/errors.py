"""Shared exception types."""

__all__ = ["SizeLimitError", "DisconnectedError", "ConvergenceError"]


class SizeLimitError(ValueError):
    """A requested computation exceeds a configured size cap."""


class DisconnectedError(ValueError):
    """An operation that needs a connected graph was given a disconnected one."""


class ConvergenceError(RuntimeError):
    """An iterative scheme missed its tolerance within the iteration cap.

    Carries the iterate it stopped at (the p-norm iteration: its lower end),
    that iterate's true residual where there is one, and the iteration count,
    so callers can inspect how close it got.
    """

    def __init__(self, message, *, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations
