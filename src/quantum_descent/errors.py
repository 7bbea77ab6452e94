"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed config document, unknown key, or parameter invariant violation."""


class NumericalError(RuntimeError):
    """A numerical operation failed (non-finite gradient, degenerate phase field, ...).

    ``step`` carries the failing step index when the failure happened inside a run.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NodeDominatedError(NumericalError):
    """Phase extraction failed: too little density above the node floor."""


class NodeDominatedWarning(UserWarning):
    """Raised by nothing; ``perfbench/tracer.py:count_node_warnings`` looks it up by name."""
