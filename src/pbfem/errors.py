"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Invalid user input (dimensions, ranges, unknown names)."""


class EvaluationError(RuntimeError):
    """A problem function produced a non-finite value.

    Carries the time at which the offending evaluation happened.
    """

    def __init__(self, message: str, node: float | None = None):
        super().__init__(message)
        self.node = node


class BarrierDomainError(RuntimeError):
    """A barrier term was requested at a nonpositive algebraic value.

    It rejects a line-search step, or fails a solve whose stage start cannot
    be made interior; ``component`` and ``node`` identify where positivity failed.
    """

    def __init__(self, component: int, node: float, value: float):
        super().__init__(
            f"barrier undefined: z[{component}] = {value:.3e} at t = {node:.6g}"
        )
        self.component = component
        self.node = node
        self.value = value


class InternalError(RuntimeError):
    """An invariant that should hold by construction was violated."""
